"""Small randomized problem instances, the gradient-check helpers (central
differences, flattening, relative error) and the two head-hypergradient
oracles, shared by the test suite and the selfcheck command. The oracles
(`omega_grad_closed_form`, `hypergrad_fd`) recompute the chain independently
of the training engine in `bilevel`.

Instances are resampled until every ReLU preactivation sits away from its
kink, so central differences stay valid at epsilon scale.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .bilevel import (
    _hypergrad_unrolled,
    _stack_lower_batch,
    lower_loss,
    lower_step,
    upper_loss,
)
from .data import one_hot
from .model import (
    ModelState,
    classifier_scores,
    copy_state,
    features_with_cache,
    forward_features,
    forward_train,
    init_model,
)
from .numcore import log_softmax, weighted_ce
from .pseudo import PseudoBatch

KINK_MARGIN = 1e-3


def fd_gradient(
    value: Callable[[np.ndarray], float], point: np.ndarray, epsilon: float
) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    point = np.asarray(point, dtype=np.float64).ravel()
    grad = np.empty_like(point)
    for i in range(point.size):
        delta = np.zeros_like(point)
        delta[i] = epsilon
        grad[i] = (value(point + delta) - value(point - delta)) / (2.0 * epsilon)
    return grad


def grad_check(
    f: Callable[[np.ndarray], tuple[float, np.ndarray]],
    point: np.ndarray,
    epsilon: float = 1e-6,
) -> float:
    """Max relative error between f's analytic gradient and central differences.

    f maps a flat parameter vector to (value, gradient). Per-coordinate error
    is |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    if not (1e-8 <= epsilon <= 1e-3):
        raise ValueError(f"epsilon {epsilon} outside [1e-8, 1e-3]")
    point = np.asarray(point, dtype=np.float64).ravel()
    analytic = np.asarray(f(point)[1], dtype=np.float64).ravel()
    numeric = fd_gradient(lambda x: f(x)[0], point, epsilon)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom, initial=0.0))


def flatten_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate([a.ravel() for a in arrays])


def unflatten_like(flat: np.ndarray, templates: Sequence[np.ndarray]) -> list[np.ndarray]:
    out = []
    start = 0
    for t in templates:
        out.append(flat[start : start + t.size].reshape(t.shape))
        start += t.size
    if start != flat.size:
        raise ValueError(f"flat vector has {flat.size} entries, templates need {start}")
    return out


def relative_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max |a-b| / max(1e-12, max|a|, max|b|), used to compare gradient routes."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(1e-12, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / denom


@dataclass
class SmallProblem:
    state: ModelState
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
        _, cache = forward_train(x, state)
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
            [input_dim, *hidden, feature_dim], num_classes, attractor_hidden, rng, norm
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
            pseudo = PseudoBatch(x_u, y_hat, lam)
        bal_n = 2 * num_classes
        bal_x = rng.standard_normal((bal_n, input_dim))
        bal_y = one_hot(np.tile(np.arange(num_classes), 2), num_classes)
        problem = SmallProblem(state, alpha, x_l, y_l, pseudo, bal_x, bal_y)
        if _kink_clearance(problem) > KINK_MARGIN:
            return problem
    raise RuntimeError("could not build a kink-free instance")


def frozen_u_lower_value(problem: SmallProblem, state: ModelState) -> float:
    """Lower loss evaluated with the attractor input frozen at the *base*
    state's value (the stop-gradient contract), so finite differences over
    extractor/classifier parameters match the analytic gradients."""
    x, targets, coeff = _stack_lower_batch(problem.x_l, problem.y_l, problem.pseudo)
    _, base_cache = forward_train(x, problem.state)
    z = forward_features(x, state.theta)
    s = classifier_scores(z, state.phi_w, state.phi_b)
    delta, _ = features_with_cache(base_cache.u, state.head_layers())
    return weighted_ce(log_softmax(s + delta), targets, coeff)[0]


def _block_arrays(state: ModelState, block: str) -> list[np.ndarray]:
    """The arrays of one parameter block ("theta", "phi" or "omega"), in
    checkpoint order."""
    return [a for name, a in state.named_arrays().items() if name.startswith(f"{block}_")]


def _set_block(state: ModelState, block: str, flat: np.ndarray) -> None:
    arrays = _block_arrays(state, block)
    for a, value in zip(arrays, unflatten_like(flat, arrays)):
        a[...] = value


def _block_fd_error(state: ModelState, block: str, value, analytic: np.ndarray, eps: float) -> float:
    """grad_check of value(state with `block` set to a flat vector) against
    the block's flat analytic gradient."""

    def f(flat: np.ndarray):
        work = copy_state(state)
        _set_block(work, block, flat)
        return value(work), analytic

    return grad_check(f, flatten_arrays(_block_arrays(state, block)), eps)


def lower_fd_errors(problem: SmallProblem, eps: float = 1e-6) -> dict[str, float]:
    """Max relative error of the analytic lower-loss gradients vs central
    differences, per parameter block (attractor input frozen throughout)."""
    rec = lower_loss(problem.x_l, problem.y_l, problem.pseudo, problem.state)
    analytic = {"theta": rec.grads[:-2], "phi": rec.grads[-2:], "omega": rec.grads_omega}
    return {
        block: _block_fd_error(
            problem.state, block, lambda work: frozen_u_lower_value(problem, work),
            flatten_arrays(grads), eps,
        )
        for block, grads in analytic.items()
    }


def upper_fd_error(problem: SmallProblem, eps: float = 1e-6) -> float:
    """Finite-difference check of the balanced-loss classifier gradient."""
    _, grads = upper_loss(problem.bal_x, problem.bal_y, problem.state)
    return _block_fd_error(
        problem.state, "phi", lambda work: upper_loss(problem.bal_x, problem.bal_y, work)[0],
        flatten_arrays(grads), eps,
    )


def omega_grad_closed_form(problem: SmallProblem) -> list[np.ndarray]:
    """Route B: an independent oracle for the head hypergradient.

    Recomputes the whole chain from the raw batches: lower gradients at the
    problem's state, the SGD step, the balanced gradient at the stepped
    parameters, and then assembles per sample i the vector G_i = J_i (V_w^T
    z_i + v_b) (J_i the softmax Jacobian at the pre-step logits) and the
    explicit K x P Jacobian of the head output w.r.t. its parameters,
    accumulating -alpha * sum_i coeff_i * M_i^T G_i.
    """
    state, alpha = problem.state, problem.alpha
    work = copy_state(state)
    rec = lower_loss(problem.x_l, problem.y_l, problem.pseudo, work)
    lower_step(work, rec, alpha)
    _, (v_w, v_b) = upper_loss(problem.bal_x, problem.bal_y, work)

    k = state.num_classes
    hidden = state.attractor_hidden
    total = sum(a.size for a in state.omega_arrays())
    accum = np.zeros(total)
    w2 = state.omega_w2
    for i in range(rec.z.shape[0]):
        if rec.coeff[i] == 0.0:
            continue
        p_i = rec.p[i]
        jac_softmax = np.diag(p_i) - np.outer(p_i, p_i)
        g_i = jac_softmax @ (v_w.T @ rec.z[i] + v_b)
        gate = (rec.a[i] > 0.0).astype(np.float64)
        m_rows = np.empty((k, total))
        for c in range(k):
            d_w1 = np.outer(rec.u[i], gate * w2[:, c])
            d_b1 = gate * w2[:, c]
            d_w2 = np.zeros((hidden, k))
            d_w2[:, c] = rec.a[i]
            d_b2 = np.zeros(k)
            d_b2[c] = 1.0
            m_rows[c] = flatten_arrays([d_w1, d_b1, d_w2, d_b2])
        accum += rec.coeff[i] * (m_rows.T @ g_i)
    return unflatten_like(-alpha * accum, state.omega_arrays())


def hypergrad_fd(problem: SmallProblem, eps: float = 1e-4) -> list[np.ndarray]:
    """Route C: central-difference hypergradient of the composite map
    omega -> balanced loss at (theta' fixed, phi' (omega)), where theta' is
    the SGD-stepped extractor at the unperturbed head (its dependence on the
    head is dropped by construction) and phi'(omega) re-runs the lower
    gradient at the perturbed head. At eps = 1e-4 the round-off (~1e-16/eps)
    stays far under 1e-5 of a hypergradient as small as 1e-5, and a head
    preactivation moves by at most eps*|u| <= 1e-4 < KINK_MARGIN."""
    state = problem.state
    theta_grads = lower_loss(problem.x_l, problem.y_l, problem.pseudo, state).grads[:-2]

    def bal_at(omega_flat: np.ndarray) -> float:
        work = copy_state(state)
        _set_block(work, "omega", omega_flat)
        rec = lower_loss(problem.x_l, problem.y_l, problem.pseudo, work)
        for p, g in zip(work.lower_arrays(), theta_grads + rec.grads[-2:]):
            p -= problem.alpha * g
        return upper_loss(problem.bal_x, problem.bal_y, work)[0]

    grad = fd_gradient(bal_at, flatten_arrays(state.omega_arrays()), eps)
    return unflatten_like(grad, state.omega_arrays())


def unrolled_hypergrad(problem: SmallProblem) -> list[np.ndarray]:
    """Route A: SGD lower step, balanced gradient at the stepped classifier,
    backward-on-backward through the classifier-gradient expression."""
    work = copy_state(problem.state)
    rec = lower_loss(problem.x_l, problem.y_l, problem.pseudo, work)
    lower_step(work, rec, problem.alpha)
    _, upper_grad = upper_loss(problem.bal_x, problem.bal_y, work)
    return _hypergrad_unrolled(work, rec, upper_grad)
