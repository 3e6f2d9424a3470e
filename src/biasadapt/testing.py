"""Small randomized problem instances and gradient-check helpers shared by
the test suite and the selfcheck command.

Instances are resampled until every ReLU preactivation sits away from its
kink, so central differences stay valid at epsilon scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bilevel import (
    LowerOptimizer,
    _hypergrad_unrolled,
    _stack_lower_batch,
    _theta_phi_arrays,
    hypergrad_fd,
    lower_loss,
    lower_step,
    omega_grad_closed_form,
    upper_loss,
)
from .data import one_hot
from .model import (
    ModelState,
    attractor_forward,
    classifier_scores,
    copy_state,
    forward_features,
    forward_train,
    init_model,
)
from .numcore import flatten_arrays, unflatten_like
from .pseudo import PseudoBatch

KINK_MARGIN = 1e-3


@dataclass
class SmallProblem:
    state: ModelState
    norm: str
    alpha: float
    x_l: np.ndarray
    y_l: np.ndarray
    pseudo: PseudoBatch | None
    bal_x: np.ndarray
    bal_y: np.ndarray


def _randomize_attractor(state: ModelState, rng: np.random.Generator) -> None:
    state.omega_b1 += 0.1 * rng.standard_normal(state.omega_b1.shape)
    state.omega_w2 += 0.4 * rng.standard_normal(state.omega_w2.shape)
    state.omega_b2 += 0.1 * rng.standard_normal(state.omega_b2.shape)


def _kink_clearance(problem: SmallProblem) -> float:
    """Smallest |preactivation| across extractor hidden layers (all inputs)
    and the attractor hidden layer."""
    worst = np.inf
    state = problem.state
    xs = [problem.x_l, problem.bal_x]
    if problem.pseudo is not None:
        xs.append(problem.pseudo.x_strong)
    for x in xs:
        h = x
        for li, (w, b) in enumerate(state.theta):
            pre = h @ w + b
            if li < len(state.theta) - 1:
                worst = min(worst, float(np.min(np.abs(pre))))
                h = np.maximum(pre, 0.0)
            else:
                h = pre
        _, cache = forward_train(x, state, problem.norm)
        pre = cache.u @ state.omega_w1 + state.omega_b1
        worst = min(worst, float(np.min(np.abs(pre))))
    return worst


def make_small_problem(
    rng: np.random.Generator,
    input_dim: int = 3,
    hidden=(3,),
    feature_dim: int = 3,
    num_classes: int = 3,
    attractor_hidden: int = 4,
    n_labeled: int = 4,
    n_unlabeled: int = 4,
    norm: str = "softmax_input",
    alpha: float = 0.05,
    mask_some: bool = True,
    max_tries: int = 200,
) -> SmallProblem:
    for _ in range(max_tries):
        state = init_model(
            [input_dim, *hidden, feature_dim], num_classes, attractor_hidden, rng
        )
        for _, b in state.theta:
            b += 0.1 * rng.standard_normal(b.shape)
        _randomize_attractor(state, rng)

        x_l = rng.standard_normal((n_labeled, input_dim))
        y_l = one_hot(rng.integers(0, num_classes, n_labeled), num_classes)
        pseudo = None
        if n_unlabeled > 0:
            x_u = rng.standard_normal((n_unlabeled, input_dim))
            y_hat = one_hot(rng.integers(0, num_classes, n_unlabeled), num_classes)
            lam = np.ones(n_unlabeled)
            if mask_some:
                lam[rng.random(n_unlabeled) < 0.3] = 0.0
            pseudo = PseudoBatch(x_u.copy(), x_u, y_hat, lam)
        bal_n = 2 * num_classes
        bal_x = rng.standard_normal((bal_n, input_dim))
        bal_y = one_hot(np.tile(np.arange(num_classes), 2), num_classes)
        problem = SmallProblem(state, norm, alpha, x_l, y_l, pseudo, bal_x, bal_y)
        if _kink_clearance(problem) > KINK_MARGIN:
            return problem
    raise RuntimeError("could not build a kink-free instance")


def frozen_u_lower_value(problem: SmallProblem, state: ModelState) -> float:
    """Lower loss evaluated with the attractor input frozen at the *base*
    state's value (the stop-gradient contract), so finite differences over
    extractor/classifier parameters match the analytic gradients."""
    x, targets, coeff = _stack_lower_batch(problem.x_l, problem.y_l, problem.pseudo)
    _, base_cache = forward_train(x, problem.state, problem.norm)
    z = forward_features(x, state.theta)
    s = classifier_scores(z, state.phi_w, state.phi_b)
    delta, _ = attractor_forward(state, base_cache.u)
    logits = s + delta
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float((coeff * -(targets * logp).sum(axis=1)).sum())


def _block_arrays(state: ModelState, block: str) -> list[np.ndarray]:
    if block == "theta":
        return [a for pair in state.theta for a in pair]
    if block == "phi":
        return [state.phi_w, state.phi_b]
    if block == "omega":
        return state.omega_arrays()
    raise ValueError(block)


def _set_block(state: ModelState, block: str, flat: np.ndarray) -> None:
    arrays = _block_arrays(state, block)
    for a, value in zip(arrays, unflatten_like(flat, arrays)):
        a[...] = value


def lower_fd_errors(problem: SmallProblem, eps: float = 1e-6) -> dict[str, float]:
    """Max relative error of the analytic lower-loss gradients vs central
    differences, per parameter block (attractor input frozen throughout)."""
    res = lower_loss(
        problem.x_l, problem.y_l, problem.pseudo, problem.state, problem.norm
    )
    analytic = {
        "theta": flatten_arrays([g for pair in res.grads_theta for g in pair]),
        "phi": flatten_arrays([res.grad_phi_w, res.grad_phi_b]),
        "omega": flatten_arrays(res.grads_omega),
    }
    errors = {}
    for block, grad in analytic.items():
        base = flatten_arrays(_block_arrays(problem.state, block))
        numeric = np.empty_like(base)
        for i in range(base.size):
            work = copy_state(problem.state)
            bumped = base.copy()
            bumped[i] += eps
            _set_block(work, block, bumped)
            up = frozen_u_lower_value(problem, work)
            bumped[i] -= 2 * eps
            _set_block(work, block, bumped)
            down = frozen_u_lower_value(problem, work)
            numeric[i] = (up - down) / (2 * eps)
        denom = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(numeric)))
        errors[block] = float(np.max(np.abs(grad - numeric) / denom))
    return errors


def upper_fd_error(problem: SmallProblem, eps: float = 1e-6) -> float:
    """Finite-difference check of the balanced-loss classifier gradient."""
    _, (v_w, v_b), _ = upper_loss(problem.bal_x, problem.bal_y, problem.state)
    analytic = flatten_arrays([v_w, v_b])
    base = flatten_arrays(_block_arrays(problem.state, "phi"))
    numeric = np.empty_like(base)
    for i in range(base.size):
        work = copy_state(problem.state)
        bumped = base.copy()
        bumped[i] += eps
        _set_block(work, "phi", bumped)
        up, _, _ = upper_loss(problem.bal_x, problem.bal_y, work)
        bumped[i] -= 2 * eps
        _set_block(work, "phi", bumped)
        down, _, _ = upper_loss(problem.bal_x, problem.bal_y, work)
        numeric[i] = (up - down) / (2 * eps)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def unrolled_hypergrad(problem: SmallProblem) -> list[np.ndarray]:
    """Route A: SGD lower step, balanced gradient at the stepped classifier,
    backward-on-backward through the classifier-gradient expression."""
    work = copy_state(problem.state)
    opt = LowerOptimizer("sgd", _theta_phi_arrays(work))
    res = lower_loss(problem.x_l, problem.y_l, problem.pseudo, work, problem.norm)
    cache = lower_step(work, res, problem.alpha, opt)
    _, upper_grad, _ = upper_loss(problem.bal_x, problem.bal_y, work)
    return _hypergrad_unrolled(work, cache, upper_grad)


def closed_form_hypergrad(problem: SmallProblem) -> list[np.ndarray]:
    """Route B: the per-sample inner-product oracle."""
    return omega_grad_closed_form(
        problem.x_l,
        problem.y_l,
        problem.pseudo,
        problem.bal_x,
        problem.bal_y,
        problem.state,
        problem.norm,
        problem.alpha,
    )


def fd_hypergrad(problem: SmallProblem, eps: float = 1e-6) -> list[np.ndarray]:
    """Route C: central differences through the composite map."""
    return hypergrad_fd(
        problem.x_l,
        problem.y_l,
        problem.pseudo,
        problem.bal_x,
        problem.bal_y,
        problem.state,
        problem.norm,
        problem.alpha,
        eps=eps,
    )

