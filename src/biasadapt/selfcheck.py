"""Executable invariant suite behind the `selfcheck` CLI subcommand: gradient
checks, the two-route hypergradient oracle, masking soundness, and the
residual/removal identities. Every check returns (name, passed, detail)."""

from __future__ import annotations

import numpy as np

from .bilevel import lower_loss, lower_step, omega_step, upper_loss
from .model import copy_state, forward_eval, forward_train
from .numcore import cross_entropy, make_rng, softmax
from .pseudo import PseudoBatch
from .testing import (
    flatten_arrays,
    grad_check,
    hypergrad_fd,
    lower_fd_errors,
    make_small_problem,
    omega_grad_closed_form,
    relative_diff,
    unrolled_hypergrad,
    upper_fd_error,
)

Check = tuple[str, bool, str]


def check_cross_entropy_grad(rng) -> Check:
    worst = 0.0
    for _ in range(20):
        batch, k = int(rng.integers(1, 8)), int(rng.integers(2, 10))
        targets = rng.dirichlet(np.ones(k), size=batch)
        x0 = rng.standard_normal(batch * k)

        def f(flat):
            loss, grad = cross_entropy(flat.reshape(batch, k), targets)
            return loss, grad.ravel()

        worst = max(worst, grad_check(f, x0))
    return ("cross_entropy_grad_fd", worst < 1e-6, f"max rel err {worst:.3e}")


def check_lower_gradients(rng) -> Check:
    worst = 0.0
    for _ in range(5):
        problem = make_small_problem(rng)
        errs = lower_fd_errors(problem)
        worst = max(worst, max(errs.values()))
    return ("lower_loss_grads_fd", worst < 1e-6, f"max rel err {worst:.3e}")


def check_upper_gradient(rng) -> Check:
    worst = max(upper_fd_error(make_small_problem(rng)) for _ in range(5))
    return ("upper_loss_grad_fd", worst < 1e-6, f"max rel err {worst:.3e}")


def check_hypergrad_oracle(rng, trials: int = 100) -> Check:
    worst = 0.0
    for _ in range(trials):
        problem = make_small_problem(
            rng,
            input_dim=int(rng.integers(2, 5)),
            feature_dim=int(rng.integers(2, 5)),
            num_classes=int(rng.integers(2, 5)),
            attractor_hidden=int(rng.integers(1, 5)),
            n_labeled=int(rng.integers(1, 7)),
            n_unlabeled=int(rng.integers(0, 7)),
            norm="softmax_input" if rng.random() < 0.5 else "l2_input",
        )
        a = flatten_arrays(unrolled_hypergrad(problem))
        b = flatten_arrays(omega_grad_closed_form(problem))
        worst = max(worst, relative_diff(a, b))
    return ("hypergrad_unrolled_vs_closed_form", worst < 1e-6, f"max rel err {worst:.3e}")


def check_hypergrad_fd(rng, trials: int = 5) -> Check:
    worst = 0.0
    for _ in range(trials):
        problem = make_small_problem(rng)
        a = flatten_arrays(unrolled_hypergrad(problem))
        c = flatten_arrays(hypergrad_fd(problem))
        worst = max(worst, relative_diff(a, c))
    return ("hypergrad_vs_composite_fd", worst < 1e-5, f"max rel err {worst:.3e}")


def check_masking(rng) -> Check:
    problem = make_small_problem(rng, mask_some=False)
    pseudo = problem.pseudo
    masked = PseudoBatch(pseudo.x_strong, pseudo.y_hat, np.zeros(len(pseudo)))
    with_masked = lower_loss(problem.x_l, problem.y_l, masked, problem.state)
    labeled_only = lower_loss(problem.x_l, problem.y_l, None, problem.state)
    same = with_masked.loss == labeled_only.loss and np.array_equal(
        flatten_arrays(with_masked.grads + with_masked.grads_omega),
        flatten_arrays(labeled_only.grads + labeled_only.grads_omega),
    )
    return ("masking_soundness", bool(same), "fully masked batch contributes zero")


def check_residual_identity(rng) -> Check:
    problem = make_small_problem(rng)
    state = copy_state(problem.state)
    state.omega_w2[...] = 0.0
    state.omega_b2[...] = 0.0
    x = rng.standard_normal((6, problem.x_l.shape[1]))
    train_logits, _ = forward_train(x, state)
    eval_logits = forward_eval(x, state, use_ema=False)
    ok = np.array_equal(train_logits, eval_logits)
    return ("residual_identity", bool(ok), "zero head output => train path == eval path")


def check_eval_ignores_head(rng) -> Check:
    problem = make_small_problem(rng)
    x = rng.standard_normal((6, problem.x_l.shape[1]))
    before = forward_eval(x, problem.state)
    mutated = copy_state(problem.state)
    mutated.omega_w1 += rng.standard_normal(mutated.omega_w1.shape)
    mutated.omega_w2 += rng.standard_normal(mutated.omega_w2.shape)
    mutated.omega_b1 += 1.0
    mutated.omega_b2 -= 2.0
    after = forward_eval(x, mutated)
    return ("eval_ignores_head", bool(np.array_equal(before, after)), "head mutation invisible at eval")


def check_theta_isolation(rng) -> Check:
    problem = make_small_problem(rng)
    work = copy_state(problem.state)
    rec = lower_loss(problem.x_l, problem.y_l, problem.pseudo, work)
    lower_step(work, rec, problem.alpha)
    snapshot = flatten_arrays(work.lower_arrays())
    _, upper_grad = upper_loss(problem.bal_x, problem.bal_y, work)
    omega_step(work, rec, upper_grad, eta=0.5)
    ok = np.array_equal(flatten_arrays(work.lower_arrays()), snapshot)
    return ("head_step_theta_isolation", bool(ok), "extractor and classifier bitwise unchanged")


def check_softmax_basics(rng) -> Check:
    x = rng.uniform(-50, 50, size=(32, 7))
    p = softmax(x)
    sums_ok = np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-12)
    shift = softmax(x + rng.uniform(-5, 5, size=(32, 1)))
    shift_ok = np.all(np.abs(p - shift) < 1e-12)
    return ("softmax_rows_and_shift", bool(sums_ok and shift_ok), "row sums 1, shift invariant")


def run_all(seed: int = 0) -> list[Check]:
    rng = make_rng(seed)
    return [
        check_softmax_basics(rng),
        check_cross_entropy_grad(rng),
        check_lower_gradients(rng),
        check_upper_gradient(rng),
        check_hypergrad_oracle(rng),
        check_hypergrad_fd(rng),
        check_masking(rng),
        check_residual_identity(rng),
        check_eval_ignores_head(rng),
        check_theta_isolation(rng),
    ]
