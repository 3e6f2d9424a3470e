import dataclasses
import math
import os
import pickle
import re
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biasadapt import bilevel, model, numcore
from biasadapt.bilevel import (
    TRACE_DTYPE,
    TrainConfig,
    TrainingDiverged,
    lower_backward,
    lower_forward,
    lower_loss,
    lower_step,
    omega_step,
    pseudo_label_logits,
    train,
    upper_loss,
    write_trace_csv,
)
from biasadapt.data import Dataset, one_hot, synth_gaussian_mixture
from biasadapt.model import (
    SCORE_BLOCK_ROWS,
    attractor_backward,
    classifier_scores,
    copy_state,
    features_backward,
    features_with_cache,
    forward_train,
    init_model,
)
from biasadapt.numcore import HELPER_NAME, child_seeds, log_softmax, make_rng
from biasadapt.pseudo import PseudoBatch, assign_pseudo_labels, augment
from biasadapt.testing import (
    SmallProblem,
    flatten_arrays,
    grad_check,
    hypergrad_fd,
    make_small_problem,
    omega_grad_closed_form,
    relative_diff,
    unflatten_like,
    unrolled_hypergrad,
)

# extractor depths 0, 1 and 2: where the flat gradient layout's
# extractor/classifier boundary falls
over_depths = pytest.mark.parametrize(
    "hidden", [(), (3,), (3, 3)], ids=lambda hidden: f"depth{len(hidden)}"
)


class TestValidate:
    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"alpha": math.nan}, "alpha must be > 0, got nan"),
            ({"eta": math.nan}, "eta must be > 0, got nan"),
            ({"lambda_u": math.nan}, "lambda_u must be >= 0, got nan"),
        ],
    )
    def test_nan_rejected(self, overrides, message):
        # the CLI rejects a NaN while reading the YAML; this is the library path
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainConfig(**overrides).validate()

    # the kernels these values reach every iteration (augment,
    # assign_pseudo_labels, ema_update, the lower batch) trust validate
    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"tau": 1.5}, "tau must lie in [0, 1], got 1.5"),
            ({"sigma_weak": 0.5, "sigma_strong": 0.5},
             "sigma_weak must lie in [0, sigma_strong=0.5), got 0.5"),
            ({"ema_decay": 1.5}, "ema_decay must lie in [0, 1], got 1.5"),
            ({"pseudo_mode": "soft"}, "unknown pseudo_mode 'soft'"),
            ({"batch_n": 0}, "batch_n must be >= 1, got 0"),
            ({"batch_m": -1}, "batch_m must be >= 0, got -1"),
            ({"iters": -1}, "iters must be >= 0, got -1"),
        ],
        ids=["tau", "sigma", "ema_decay", "pseudo_mode", "batch_n", "batch_m", "iters"],
    )
    def test_out_of_range_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainConfig(**overrides).validate()


class TestLowerLoss:
    def test_zero_head_matches_plain_pseudo_labeling_loss(self):
        problem = make_small_problem(make_rng(0))
        state = copy_state(problem.state)
        state.omega_w2[...] = 0.0
        state.omega_b2[...] = 0.0
        res = lower_loss(problem.x_l, problem.y_l, problem.pseudo, state)
        plain = lower_loss(
            problem.x_l, problem.y_l, problem.pseudo, state, head=False
        )
        assert res.loss == plain.loss
        assert len(res.grads) == len(plain.grads)
        for got, want in zip(res.grads, plain.grads):
            assert np.array_equal(got, want)
        assert plain.grads_omega == []
        assert plain.u is None and plain.a is None

    def test_skipping_head_gradient_keeps_other_gradients_bitwise(self):
        problem = make_small_problem(make_rng(7))
        rec = lower_forward(problem.x_l, problem.y_l, problem.pseudo, problem.state)
        # lower_backward fills the record in place: keep the first pass's
        # gradients as copies, so two backward passes are compared
        full = lower_backward(problem.state, rec)
        full_loss, full_grads = full.loss, [g.copy() for g in full.grads]
        full_omega = [g.copy() for g in full.grads_omega]
        lean = lower_backward(problem.state, rec, need_omega=False)
        assert len(full_omega) == 4 and lean.grads_omega == []
        assert lean.loss == full_loss
        assert len(lean.grads) == len(full_grads)
        for got, want in zip(lean.grads, full_grads):
            assert np.array_equal(got, want)

    @over_depths
    def test_gradients_fd_on_spec_instance(self, hidden):
        from biasadapt.testing import lower_fd_errors

        problem = make_small_problem(
            make_rng(1), input_dim=3, hidden=hidden, feature_dim=3, num_classes=3,
            attractor_hidden=4,
        )
        errs = lower_fd_errors(problem)
        assert max(errs.values()) < 1e-6


class TestLowerStep:
    def test_alpha_zero_no_change(self):
        problem = make_small_problem(make_rng(3))
        work = copy_state(problem.state)
        res = lower_loss(problem.x_l, problem.y_l, problem.pseudo, work)
        before = flatten_arrays(work.lower_arrays()).copy()
        lower_step(work, res, 0.0)
        assert np.array_equal(flatten_arrays(work.lower_arrays()), before)

    def test_zero_gradients_no_change(self):
        problem = make_small_problem(make_rng(4))
        work = copy_state(problem.state)
        res = lower_loss(problem.x_l, problem.y_l, problem.pseudo, work)
        for g in res.grads:
            g[...] = 0.0
        before = flatten_arrays(work.lower_arrays()).copy()
        lower_step(work, res, 0.1)
        assert np.array_equal(flatten_arrays(work.lower_arrays()), before)

    def test_sgd_step_hand_arithmetic(self):
        problem = make_small_problem(make_rng(5))
        work = copy_state(problem.state)
        res = lower_loss(problem.x_l, problem.y_l, problem.pseudo, work)
        expected_w = work.phi_w - 0.05 * res.grads[-2]
        expected_t0 = work.theta[0][0] - 0.05 * res.grads[0]
        lower_step(work, res, 0.05)
        assert np.array_equal(work.phi_w, expected_w)
        assert np.array_equal(work.theta[0][0], expected_t0)
        assert np.array_equal(work.omega_w2, problem.state.omega_w2)


class TestUpperLoss:
    def test_perfect_prediction_near_zero(self):
        state = init_model([2, 2], 2, 2, make_rng(6))
        state.theta[0] = (np.eye(2), np.zeros(2))
        state.phi_w = np.array([[60.0, -60.0], [-60.0, 60.0]])
        state.phi_b = np.zeros(2)
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        y = one_hot(np.array([0, 1, 0, 1]), 2)
        loss, _ = upper_loss(x, y, state)
        assert abs(loss) < 1e-9

    def test_permutation_invariance(self):
        problem = make_small_problem(make_rng(7))
        loss_a, (vw_a, vb_a) = upper_loss(problem.bal_x, problem.bal_y, problem.state)
        perm = make_rng(8).permutation(problem.bal_x.shape[0])
        loss_b, (vw_b, vb_b) = upper_loss(
            problem.bal_x[perm], problem.bal_y[perm], problem.state
        )
        assert abs(loss_a - loss_b) < 1e-12
        assert np.max(np.abs(vw_a - vw_b)) < 1e-12

    def test_gradient_fd(self):
        from biasadapt.testing import upper_fd_error

        assert upper_fd_error(make_small_problem(make_rng(9))) < 1e-6

    @over_depths
    def test_extractor_gradient_fd(self, hidden):
        # single_level's balanced extractor gradient: upper_loss under
        # need_theta puts the extractor's arrays in front of the classifier's
        problem = make_small_problem(make_rng(19), hidden=hidden)
        state, bal_x, bal_y = problem.state, problem.bal_x, problem.bal_y
        loss, grads = upper_loss(bal_x, bal_y, state, need_theta=True)
        plain_loss, plain_grads = upper_loss(bal_x, bal_y, state)
        assert loss == plain_loss
        assert all(np.array_equal(g, h) for g, h in zip(grads[-2:], plain_grads))
        n_theta = 2 * len(state.theta)

        def f(flat):
            work = copy_state(state)
            arrays = work.lower_arrays()[:n_theta]
            for a, value in zip(arrays, unflatten_like(flat, arrays)):
                a[...] = value
            return upper_loss(bal_x, bal_y, work)[0], flatten_arrays(grads[:n_theta])

        assert grad_check(f, flatten_arrays(state.lower_arrays()[:n_theta])) < 1e-6


class TestOmegaStep:
    def test_eta_zero_no_change(self):
        problem = make_small_problem(make_rng(10))
        work = copy_state(problem.state)
        res = lower_loss(problem.x_l, problem.y_l, problem.pseudo, work)
        rec = lower_step(work, res, problem.alpha)
        _, upper_grad = upper_loss(problem.bal_x, problem.bal_y, work)
        before = flatten_arrays(work.omega_arrays()).copy()
        omega_step(work, rec, upper_grad, eta=0.0)
        assert np.array_equal(flatten_arrays(work.omega_arrays()), before)

    def test_zero_upper_gradient_no_change(self):
        problem = make_small_problem(make_rng(11))
        work = copy_state(problem.state)
        res = lower_loss(problem.x_l, problem.y_l, problem.pseudo, work)
        rec = lower_step(work, res, problem.alpha)
        zero_grad = [np.zeros_like(work.phi_w), np.zeros_like(work.phi_b)]
        before = flatten_arrays(work.omega_arrays()).copy()
        hyper = omega_step(work, rec, zero_grad, eta=0.7)
        assert np.array_equal(flatten_arrays(work.omega_arrays()), before)
        assert all(np.all(h == 0.0) for h in hyper)

    def test_stale_cache_rejected(self):
        problem = make_small_problem(make_rng(12))
        work = copy_state(problem.state)
        res = lower_loss(problem.x_l, problem.y_l, problem.pseudo, work)
        rec = lower_step(work, res, problem.alpha)
        res2 = lower_loss(problem.x_l, problem.y_l, problem.pseudo, work)
        lower_step(work, res2, problem.alpha)
        _, upper_grad = upper_loss(problem.bal_x, problem.bal_y, work)
        with pytest.raises(ValueError, match="stale"):
            omega_step(work, rec, upper_grad, eta=0.1)

    def test_theta_bitwise_unchanged_by_head_step(self):
        problem = make_small_problem(make_rng(13))
        work = copy_state(problem.state)
        res = lower_loss(problem.x_l, problem.y_l, problem.pseudo, work)
        rec = lower_step(work, res, problem.alpha)
        theta_bits = [(w.copy(), b.copy()) for w, b in work.theta]
        _, upper_grad = upper_loss(problem.bal_x, problem.bal_y, work)
        omega_step(work, rec, upper_grad, eta=2.0)
        for (w, b), (w0, b0) in zip(work.theta, theta_bits):
            assert np.array_equal(w, w0) and np.array_equal(b, b0)


@over_depths
def test_every_gradient_list_is_in_parameter_order(hidden):
    """Each gradient list comes back flat, shape for shape in the order of
    lower_arrays() (extractor layers, then classifier) or omega_arrays()."""
    problem = make_small_problem(make_rng(20), hidden=hidden)
    state = copy_state(problem.state)
    lower = [a.shape for a in state.lower_arrays()]
    head = [a.shape for a in state.omega_arrays()]

    def shapes(grads):
        return [g.shape for g in grads]

    z, cache = features_with_cache(problem.x_l, state.theta)
    assert shapes(features_backward(cache, state.theta, np.ones_like(z))) == lower[:-2]
    for on_head in (False, True):  # the head path's record feeds the head step below
        rec = lower_loss(problem.x_l, problem.y_l, problem.pseudo, state, on_head)
        assert shapes(rec.grads) == lower
        assert shapes(rec.grads_omega) == (head if on_head else [])
    assert shapes(upper_loss(problem.bal_x, problem.bal_y, state)[1]) == lower[-2:]
    assert shapes(upper_loss(problem.bal_x, problem.bal_y, state, need_theta=True)[1]) == lower
    for route in (unrolled_hypergrad, omega_grad_closed_form, hypergrad_fd):
        assert shapes(route(problem)) == head
    lower_step(state, rec, problem.alpha)
    hyper = omega_step(state, rec, upper_loss(problem.bal_x, problem.bal_y, state)[1], 0.1)
    assert shapes(hyper) == head


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    hidden=st.sampled_from([(), (3,), (3, 3)]),
    pseudo_mode=st.sampled_from(["hard", "sharpen"]),
    tau=st.floats(0.0, 1.0),
    lambda_u=st.floats(0.0, 2.0),
    alpha=st.floats(0.01, 0.2),
)
# a draw whose hypergradient peaks at 1.8e-5, where a 1e-6 step's round-off
# put route C 1.12e-5 away from route A
@example(seed=4788, hidden=(3, 3), pseudo_mode="hard", tau=0.0, lambda_u=0.0, alpha=0.015625)
def test_three_routes_agree_on_every_accepted_axis(seed, hidden, pseudo_mode, tau, lambda_u, alpha):
    """Routes A (unrolled), B (closed form) and C (composite central
    differences) agree at selfcheck's tolerances on every axis validate()
    accepts that reaches the oracles: hard or sharpened pseudo-label targets, extractor depth 0-2, and confidence-masked rows
    (tau and lambda_u set which rows are masked and the weight of the rest)."""
    rng = make_rng(seed)
    problem = make_small_problem(
        rng, hidden=hidden, num_classes=int(rng.integers(2, 5)),
        n_unlabeled=int(rng.integers(1, 7)), alpha=alpha,
    )
    pseudo = problem.pseudo
    logits = 3.0 * rng.standard_normal((len(pseudo), problem.state.num_classes))
    y_hat, lam = assign_pseudo_labels(logits, tau, lambda_u, pseudo_mode)
    problem = dataclasses.replace(problem, pseudo=PseudoBatch(pseudo.x_strong, y_hat, lam))
    a = flatten_arrays(unrolled_hypergrad(problem))
    assert relative_diff(a, flatten_arrays(omega_grad_closed_form(problem))) < 1e-6
    assert relative_diff(a, flatten_arrays(hypergrad_fd(problem))) < 1e-5


class TestClosedFormOracle:
    @over_depths
    def test_matches_unrolled_over_random_instances(self, hidden):
        rng = make_rng(14)
        worst = 0.0
        for _ in range(30):
            problem = make_small_problem(
                rng,
                input_dim=int(rng.integers(2, 5)),
                hidden=hidden,
                feature_dim=int(rng.integers(2, 5)),
                num_classes=int(rng.integers(2, 5)),
                attractor_hidden=int(rng.integers(1, 5)),
                n_labeled=int(rng.integers(1, 7)),
                n_unlabeled=int(rng.integers(0, 7)),
            )
            a = flatten_arrays(unrolled_hypergrad(problem))
            b = flatten_arrays(omega_grad_closed_form(problem))
            worst = max(worst, relative_diff(a, b))
        assert worst < 1e-6

    def test_composite_fd(self):
        rng = make_rng(15)
        worst = 0.0
        for _ in range(3):
            problem = make_small_problem(rng)
            a = flatten_arrays(unrolled_hypergrad(problem))
            c = flatten_arrays(hypergrad_fd(problem))
            worst = max(worst, relative_diff(a, c))
        assert worst < 1e-5

    def test_single_sample_hand_derivation(self):
        # d=1 feature, K=2, H=1, one labeled sample, one balanced sample;
        # every quantity below is scalar arithmetic
        state = init_model([1, 1], 2, 1, make_rng(16))
        tw, tb = 0.8, 0.1
        w1_, w2_ = 1.2, -0.7
        b1_, b2_ = 0.2, -0.1
        v1, v2 = 0.9, 0.4
        c_ = 0.3
        q1, q2 = 0.6, -0.5
        r1, r2 = 0.05, -0.15
        state.theta[0] = (np.array([[tw]]), np.array([tb]))
        state.phi_w = np.array([[w1_, w2_]])
        state.phi_b = np.array([b1_, b2_])
        state.omega_w1 = np.array([[v1], [v2]])
        state.omega_b1 = np.array([c_])
        state.omega_w2 = np.array([[q1, q2]])
        state.omega_b2 = np.array([r1, r2])
        alpha = 0.05
        x = np.array([[1.0]])
        y = np.array([[1.0, 0.0]])
        bal_x = np.array([[1.0]])
        bal_y = np.array([[0.0, 1.0]])

        # lower forward
        z = tw * 1.0 + tb
        s1, s2 = z * w1_ + b1_, z * w2_ + b2_
        u1 = math.exp(s1) / (math.exp(s1) + math.exp(s2))
        u2 = 1.0 - u1
        h = u1 * v1 + u2 * v2 + c_
        a_ = max(h, 0.0)
        gate = 1.0 if h > 0 else 0.0
        t1, t2 = s1 + a_ * q1 + r1, s2 + a_ * q2 + r2
        p1 = math.exp(t1) / (math.exp(t1) + math.exp(t2))
        p2 = 1.0 - p1
        xi1, xi2 = p1 - 1.0, p2 - 0.0

        # sgd step on theta and phi (single sample, coeff 1)
        dz = xi1 * w1_ + xi2 * w2_
        tw_p = tw - alpha * dz * 1.0
        tb_p = tb - alpha * dz
        w1p = w1_ - alpha * z * xi1
        w2p = w2_ - alpha * z * xi2
        b1p = b1_ - alpha * xi1
        b2p = b2_ - alpha * xi2

        # balanced gradient at the stepped parameters
        zb = tw_p * 1.0 + tb_p
        sb1, sb2 = zb * w1p + b1p, zb * w2p + b2p
        pb1 = math.exp(sb1) / (math.exp(sb1) + math.exp(sb2))
        pb2 = 1.0 - pb1
        xib1, xib2 = pb1 - 0.0, pb2 - 1.0
        vw1, vw2 = zb * xib1, zb * xib2  # d/dphi_w
        vb1, vb2 = xib1, xib2

        # closed form: r = V_w^T z + v_b, G = (diag(p) - p p^T) r
        rr1 = vw1 * z + vb1
        rr2 = vw2 * z + vb2
        g1 = p1 * (1 - p1) * rr1 - p1 * p2 * rr2
        g2 = -p1 * p2 * rr1 + p2 * (1 - p2) * rr2

        expected_w1 = -alpha * gate * np.array([[u1], [u2]]) * (g1 * q1 + g2 * q2)
        expected_b1 = -alpha * gate * np.array([g1 * q1 + g2 * q2])
        expected_w2 = -alpha * a_ * np.array([[g1, g2]])
        expected_b2 = -alpha * np.array([g1, g2])

        problem = SmallProblem(state, alpha, x, y, None, bal_x, bal_y)
        got = omega_grad_closed_form(problem)
        np.testing.assert_allclose(got[0], expected_w1, rtol=1e-12)
        np.testing.assert_allclose(got[1], expected_b1, rtol=1e-12)
        np.testing.assert_allclose(got[2], expected_w2, rtol=1e-12)
        np.testing.assert_allclose(got[3], expected_b2, rtol=1e-12)

        unrolled = unrolled_hypergrad(problem)
        assert relative_diff(flatten_arrays(unrolled), flatten_arrays(got)) < 1e-12

    def test_update_moves_head_output_along_g(self):
        # per-sample: applying the update from sample i alone moves the head
        # output for sample i in the direction of G_i (first order in eta)
        rng = make_rng(17)
        for _ in range(10):
            problem = make_small_problem(rng, n_labeled=1, n_unlabeled=0)
            state = problem.state
            hyper = omega_grad_closed_form(problem)

            work = copy_state(state)
            rec = lower_loss(problem.x_l, problem.y_l, None, work)
            lower_step(work, rec, problem.alpha)
            _, (v_w, v_b) = upper_loss(problem.bal_x, problem.bal_y, work)
            p_i = rec.p[0]
            jac = np.diag(p_i) - np.outer(p_i, p_i)
            g_i = jac @ (v_w.T @ rec.z[0] + v_b)

            eta = 1e-4
            before, _ = forward_train(problem.x_l, state)
            stepped = copy_state(state)
            for arr, h in zip(stepped.omega_arrays(), hyper):
                arr -= eta * h
            after, _ = forward_train(problem.x_l, stepped)
            delta_change = (after - before)[0] - 0.0  # s unchanged, only head moved
            assert float(g_i @ delta_change) >= -1e-12

    def test_masked_samples_do_not_contribute(self):
        problem = make_small_problem(make_rng(18), mask_some=False)
        pseudo = problem.pseudo
        masked = PseudoBatch(pseudo.x_strong, pseudo.y_hat, np.zeros(len(pseudo)))
        with_masked = omega_grad_closed_form(dataclasses.replace(problem, pseudo=masked))
        without = omega_grad_closed_form(dataclasses.replace(problem, pseudo=None))
        for a, b in zip(with_masked, without):
            assert np.array_equal(a, b)


def desk_datasets(seed=0, k=3, n_l=30, n_u=60):
    rng = make_rng(seed)
    counts = np.array([n_l // k] * k) + np.array([2, 1, 0])
    d_l = synth_gaussian_mixture(k, 4, 3.0, counts, rng)
    d_u_full = synth_gaussian_mixture(k, 4, 3.0, [n_u // k] * k, rng)
    d_u = Dataset(
        d_u_full.features, np.full(len(d_u_full), -1), d_u_full.true_labels, k
    )
    return d_l, d_u


def quick_config(mode="l2ac", iters=40, **kw):
    base = dict(
        mode=mode,
        iters=iters,
        alpha=0.05,
        eta=0.5,
        batch_n=12,
        batch_m=12,
        balanced_n=6,
        extractor_hidden=(8,),
        feature_dim=4,
        attractor_hidden=8,
        seed=123,
        sigma_weak=0.1,
        sigma_strong=0.6,
        tau=0.6,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_zero_iters_returns_initial_state(self):
        d_l, d_u = desk_datasets()
        state, traces = train(quick_config(iters=0), d_l, d_u)
        assert len(traces) == 0
        assert state.step_count == 0

    @pytest.mark.parametrize("mode", ["l2ac", "baseline", "plain_attractor", "single_level"])
    def test_deterministic_given_seed(self, mode):
        d_l, d_u = desk_datasets()
        s1, t1 = train(quick_config(mode=mode), d_l, d_u)
        s2, t2 = train(quick_config(mode=mode), d_l, d_u)
        assert np.array_equal(t1["lower_loss"], t2["lower_loss"])
        assert np.array_equal(t1["grad_norm_phi"], t2["grad_norm_phi"])
        assert np.array_equal(s1.phi_w, s2.phi_w)
        assert np.array_equal(s1.omega_w2, s2.omega_w2)

    def test_all_modes_run(self):
        d_l, d_u = desk_datasets()
        for mode in ("l2ac", "baseline", "plain_attractor", "single_level"):
            state, traces = train(quick_config(mode=mode, iters=10), d_l, d_u)
            assert len(traces) == 10
            assert np.isfinite(traces["lower_loss"]).all()

    @pytest.mark.parametrize("mode", ["l2ac", "baseline", "plain_attractor", "single_level"])
    def test_every_step_uses_the_configured_rates(self, monkeypatch, mode):
        # constant rates: each lower step (and each plain SGD head step) moves
        # by config.alpha, and each l2ac head step by config.eta, every iteration
        alphas, etas = [], []
        real_sgd, real_omega = bilevel.LowerOptimizer.step, bilevel.omega_step

        def sgd(self, arrays, grads, alpha):
            alphas.append(alpha)
            real_sgd(self, arrays, grads, alpha)

        def omega(state, rec, upper_grad, eta):
            etas.append(eta)
            return real_omega(state, rec, upper_grad, eta)

        monkeypatch.setattr(bilevel.LowerOptimizer, "step", sgd)
        monkeypatch.setattr(bilevel, "omega_step", omega)
        d_l, d_u = desk_datasets()
        config = quick_config(mode=mode, iters=7, alpha=0.03, eta=0.01)
        train(config, d_l, d_u)
        sgd_steps = 2 if mode in ("plain_attractor", "single_level") else 1
        assert alphas == [0.03] * (7 * sgd_steps)
        assert etas == ([0.01] * 7 if mode == "l2ac" else [])

    def test_trainer_never_reads_unlabeled_truth(self):
        d_l, d_u = desk_datasets()
        poisoned = Dataset(
            d_u.features,
            np.full(len(d_u), -1),
            np.zeros(len(d_u), dtype=np.int64),  # wrong on purpose
            d_u.num_classes,
        )
        _, t1 = train(quick_config(), d_l, d_u)
        _, t2 = train(quick_config(), d_l, poisoned)
        assert np.array_equal(t1["lower_loss"], t2["lower_loss"])
        assert np.array_equal(t1["upper_loss"], t2["upper_loss"])

    def test_divergence_aborts_with_traces(self):
        d_l, d_u = desk_datasets()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the blow-up is reported, not warned about
            with pytest.raises(TrainingDiverged) as excinfo:
                train(quick_config(alpha=1e6, iters=400), d_l, d_u)
        # the stepped extractor and classifier overflow the balanced loss first
        assert str(excinfo.value).startswith("iteration 5: non-finite upper_loss")
        traces = excinfo.value.traces
        assert traces.dtype == TRACE_DTYPE and not traces.flags.writeable
        assert traces["iter"].tolist() == [1, 2, 3, 4]
        # a benchmark worker process raises it in the parent whole
        again = pickle.loads(pickle.dumps(excinfo.value))
        assert str(again) == str(excinfo.value) and np.array_equal(again.traces, traces)

    def test_nonfinite_head_gradient_aborts(self, monkeypatch):
        # the head step itself succeeds; only the gradient it reports is inf
        real_step = bilevel.omega_step

        def blow_up_at_3(state, rec, upper_grad, eta):
            hyper = real_step(state, rec, upper_grad, eta)
            if state.step_count == 3:
                return [np.full_like(g, np.inf) for g in hyper]
            return hyper

        monkeypatch.setattr(bilevel, "omega_step", blow_up_at_3)
        d_l, d_u = desk_datasets()
        with pytest.raises(TrainingDiverged, match="grad_norm_omega") as excinfo:
            train(quick_config(iters=10), d_l, d_u)
        assert len(excinfo.value.traces) == 2

    def test_value_error_is_not_divergence(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise ValueError("non-finite by message only")

        monkeypatch.setattr(bilevel, "upper_loss", refuse)
        d_l, d_u = desk_datasets()
        with pytest.raises(ValueError, match="by message only") as excinfo:
            train(quick_config(iters=5), d_l, d_u)
        assert not isinstance(excinfo.value, TrainingDiverged)

    def test_no_unlabeled_data_supported(self):
        d_l, _ = desk_datasets()
        _, traces = train(quick_config(mode="baseline", iters=10), d_l, None)
        assert len(traces) == 10

    def test_sharpen_mode_and_l2_norm_run(self):
        d_l, d_u = desk_datasets()
        _, traces = train(
            quick_config(
                iters=15,
                pseudo_mode="sharpen",
                pseudo_source="biased",
            ),
            d_l,
            d_u,
        )
        assert np.isfinite(traces["lower_loss"]).all()

    def test_eval_hook_cadence(self):
        d_l, d_u = desk_datasets()
        seen = []
        train(
            quick_config(iters=20),
            d_l,
            d_u,
            eval_hook=lambda it, st: seen.append(it),
            eval_interval=5,
        )
        assert seen == [5, 10, 15, 20]

    @pytest.mark.parametrize(
        "mode,calls_per_iter",
        [("l2ac", 1), ("plain_attractor", 1), ("single_level", 1), ("baseline", 0)],
    )
    def test_one_head_backward_per_iteration(self, monkeypatch, mode, calls_per_iter):
        """l2ac moves the head along the hypergradient only, so its lower
        backward forms no head gradient: one attractor backward per
        iteration, the unroll's."""
        calls = []

        def counted(*args):
            calls.append(1)
            return attractor_backward(*args)

        monkeypatch.setattr(bilevel, "attractor_backward", counted)
        d_l, d_u = desk_datasets()
        train(quick_config(mode=mode, iters=6), d_l, d_u)
        assert len(calls) == 6 * calls_per_iter

    @pytest.mark.parametrize("mode", ["l2ac", "baseline", "plain_attractor", "single_level"])
    def test_iteration_arrays_dead_in_eval_hook(self, monkeypatch, mode):
        """Every array the training forward returns dies with its iteration:
        none is alive when the eval hook runs."""
        # baseline's plain pseudo-label path reaches the extractor through
        # model.forward_features, so both modules' names are watched there
        name = "features_with_cache" if mode == "baseline" else "forward_train"
        real = getattr(bilevel, name)
        refs = []

        def watched(*args):
            out, cache = real(*args)
            if mode == "baseline":
                arrays = [out, *cache]
            else:
                arrays = [out, cache.z, *cache.feat_cache, cache.u, cache.a]
            refs.extend(weakref.ref(a) for a in arrays)
            return out, cache

        for module in (bilevel, model) if mode == "baseline" else (bilevel,):
            monkeypatch.setattr(module, name, watched)
        d_l, d_u = desk_datasets()
        live = []
        train(
            quick_config(mode=mode, iters=6), d_l, d_u,
            eval_hook=lambda it, st: live.append(sum(r() is not None for r in refs)),
            eval_interval=2,
        )
        assert refs and live == [0, 0, 0]

    def test_trace_holds_under_100_bytes_per_iteration(self):
        d_l, d_u = desk_datasets()
        iters = 2000
        tracemalloc.start()
        try:
            _, traces = train(quick_config(iters=iters), d_l, d_u)
            held = tracemalloc.get_traced_memory()[0]
            del traces
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 < freed <= 100 * iters

    def test_eval_cadence_does_not_perturb_training(self):
        d_l, d_u = desk_datasets()
        _, t1 = train(quick_config(), d_l, d_u, eval_hook=lambda i, s: None, eval_interval=3)
        _, t2 = train(quick_config(), d_l, d_u)
        assert np.array_equal(t1["lower_loss"], t2["lower_loss"])


@pytest.fixture
def noise_sources(monkeypatch):
    """The threads that drew the augmentation noise, one set per train call."""
    sources = []
    real = bilevel.normals_ahead

    def recorded(rng, shape, count):
        drawn_on = set()
        sources.append(drawn_on)

        class Watched:
            def standard_normal(self, *args, **kwargs):
                drawn_on.add(threading.current_thread().name)
                return rng.standard_normal(*args, **kwargs)

        return real(Watched(), shape, count)

    monkeypatch.setattr(bilevel, "normals_ahead", recorded)
    return sources


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="the noise is drawn ahead only with a second allowed CPU")
class TestNoiseDrawnAhead:
    """train draws the augmentation noise on a helper thread pinned off its
    own CPU. A (2, 12, 4) draw fills a buffer 170 at a time, so in 400
    iterations the helper is still running at every hook below. Each test
    but the busy one sees the other CPUs free, whatever else the machine
    runs."""

    @pytest.fixture(autouse=True)
    def other_cpus_free(self, monkeypatch):
        monkeypatch.setattr(numcore, "_runnable", lambda: 1)

    def test_helper_joined_after_a_return(self, noise_sources, helpers_alive):
        d_l, d_u = desk_datasets()
        alive = []
        train(quick_config(iters=400), d_l, d_u,
              eval_hook=lambda it, st: alive.append(helpers_alive()), eval_interval=100)
        assert noise_sources == [{HELPER_NAME}] and alive[0] == 1 and helpers_alive() == 0

    def test_helper_runs_on_every_allowed_cpu_but_one(self):
        d_l, d_u = desk_datasets()
        masks = []

        def hook(iteration, state):
            masks.append([os.sched_getaffinity(t.native_id)
                          for t in threading.enumerate() if t.name == HELPER_NAME])

        allowed = os.sched_getaffinity(0)
        train(quick_config(iters=400), d_l, d_u, eval_hook=hook, eval_interval=100)
        # the trainer's CPU when train started is the one left out
        (mask,) = masks[0]
        assert mask < allowed and len(mask) == len(allowed) - 1

    def test_helper_joined_after_divergence(self, helpers_alive):
        d_l, d_u = desk_datasets()
        alive = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged, match="iteration 5") as info:
                train(quick_config(alpha=1e6, iters=400), d_l, d_u,
                      eval_hook=lambda it, st: alive.append(helpers_alive()), eval_interval=1)
        # info's traceback keeps train's frame, and with it the noise draws,
        # alive here: only closing them can have joined the helper
        assert len(info.value.traces) == 4
        assert alive == [1] * 4 and helpers_alive() == 0

    def test_helper_joined_after_the_eval_hook_raises(self, helpers_alive):
        d_l, d_u = desk_datasets()
        alive = []

        def hook(iteration, state):
            alive.append(helpers_alive())
            raise KeyError("hook failed")

        with pytest.raises(KeyError, match="hook failed"):
            train(quick_config(iters=400), d_l, d_u, eval_hook=hook, eval_interval=2)
        assert alive == [1] and helpers_alive() == 0

    def test_an_error_in_the_helper_is_raised_by_train(self, monkeypatch, helpers_alive):
        aug_seed = child_seeds(quick_config().seed, 3)[2]

        class FailingDraws:
            def standard_normal(self, *args, **kwargs):
                raise MemoryError(f"injected on {threading.current_thread().name}")

        monkeypatch.setattr(bilevel, "make_rng",
                            lambda seed: FailingDraws() if seed == aug_seed else make_rng(seed))
        d_l, d_u = desk_datasets()
        raised = []

        def run():
            try:
                train(quick_config(iters=5), d_l, d_u)
            except MemoryError as exc:
                raised.append(str(exc))

        # a daemon, so a hang fails the test instead of holding the suite
        trainer = threading.Thread(target=run, daemon=True)
        trainer.start()
        trainer.join(timeout=60)
        assert not trainer.is_alive()
        assert raised == [f"injected on {HELPER_NAME}"] and helpers_alive() == 0

    def test_one_allowed_cpu_draws_inline_with_the_same_trace(self, noise_sources):
        d_l, d_u = desk_datasets()
        ahead = train(quick_config(), d_l, d_u)[1]
        saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(saved)})
        try:
            inline = train(quick_config(), d_l, d_u)[1]
        finally:
            os.sched_setaffinity(0, saved)
        assert noise_sources == [{HELPER_NAME}, {"MainThread"}]
        assert inline.tobytes() == ahead.tobytes()

    def test_busy_other_cpus_draw_inline_with_the_same_trace(self, noise_sources, monkeypatch):
        d_l, d_u = desk_datasets()
        ahead = train(quick_config(), d_l, d_u)[1]
        # the caller and a busy thread for each other CPU
        monkeypatch.setattr(numcore, "_runnable", lambda: len(os.sched_getaffinity(0)))
        inline = train(quick_config(), d_l, d_u)[1]
        assert noise_sources == [{HELPER_NAME}, {"MainThread"}]
        assert inline.tobytes() == ahead.tobytes()


class TestBaselineDifferential:
    def test_baseline_identical_to_attractor_free_build(self):
        """mode=baseline must produce bitwise the traces of a reference loop
        with no attractor code anywhere in loss, gradients, or updates."""
        d_l, d_u = desk_datasets()
        config = quick_config(mode="baseline", iters=25)
        _, traces = train(config, d_l, d_u)

        k = d_l.num_classes
        seeds = child_seeds(config.seed, 3)
        init_rng, batch_rng, aug_rng = (make_rng(s) for s in seeds)
        dims = [d_l.dim, *config.extractor_hidden, config.feature_dim]
        state = init_model(dims, k, config.attractor_hidden, init_rng)
        x_all = d_l.features
        y_all = one_hot(d_l.labels, k)

        from biasadapt.model import (
            classifier_scores,
            ema_update,
            features_backward,
            features_with_cache,
        )

        ref = []
        for t in range(1, config.iters + 1):
            l_idx = batch_rng.choice(len(d_l), size=config.batch_n, replace=False)
            u_idx = batch_rng.choice(len(d_u), size=config.batch_m, replace=False)
            x_u = d_u.features[u_idx]
            x_weak, x_strong = augment(
                x_u, config.sigma_weak, config.sigma_strong, aug_rng.standard_normal((2, *x_u.shape))
            )
            z_w, _ = features_with_cache(x_weak, state.theta)
            logits_weak = classifier_scores(z_w, state.phi_w, state.phi_b)
            y_hat, lam = assign_pseudo_labels(logits_weak, config.tau, config.lambda_u)

            n, m = config.batch_n, config.batch_m
            x = np.vstack([x_all[l_idx], x_strong])
            targets = np.vstack([y_all[l_idx], y_hat])
            coeff = np.concatenate([np.full(n, 1.0 / n), lam / m])
            z, cache = features_with_cache(x, state.theta)
            s = classifier_scores(z, state.phi_w, state.phi_b)
            logp = log_softmax(s)
            p = np.exp(logp)
            loss = float((coeff * -(targets * logp).sum(axis=1)).sum())
            d_logits = coeff[:, None] * (p - targets)
            g_w = z.T @ d_logits
            g_b = d_logits.sum(axis=0)
            d_z = d_logits @ state.phi_w.T
            g_theta = features_backward(cache, state.theta, d_z)

            for (w, b), gw, gb in zip(state.theta, g_theta[::2], g_theta[1::2]):
                w -= config.alpha * gw
                b -= config.alpha * gb
            state.phi_w -= config.alpha * g_w
            state.phi_b -= config.alpha * g_b
            ema_update(state, config.ema_decay)
            ref.append(loss)

        assert traces["lower_loss"].tolist() == ref
        assert np.isnan(traces["upper_loss"]).all()
        assert (traces["grad_norm_omega"] == 0.0).all()


class TestPseudoLabelLogits:
    @pytest.mark.parametrize("mode", ["baseline", "l2ac"])
    def test_plain_path_labels_a_large_set_in_row_blocks(self, alloc_peak, mode):
        rows, hidden, feature_dim, k = 8 * SCORE_BLOCK_ROWS, 256, 8, 4
        state = init_model([4, hidden, feature_dim], k, 8, make_rng(9))
        x = make_rng(10).standard_normal((rows, 4))
        config = TrainConfig(mode=mode, pseudo_source="plain")
        z, _ = features_with_cache(x, state.theta)
        want = classifier_scores(z, state.phi_w, state.phi_b)
        assert pseudo_label_logits(x, state, config).tobytes() == want.tobytes()
        peak = alloc_peak(lambda: pseudo_label_logits(x, state, config))
        # one whole-set pass would add rows * 8 * hidden (16.8 MB here)
        assert peak <= 1.25 * 8 * (rows * (feature_dim + k) + SCORE_BLOCK_ROWS * hidden)


class TestTraceCsv:
    def test_round_trip_columns(self, tmp_path):
        d_l, d_u = desk_datasets()
        _, traces = train(quick_config(iters=5), d_l, d_u)
        path = tmp_path / "trace.csv"
        write_trace_csv(traces, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,lower_loss,upper_loss,grad_norm_theta,grad_norm_phi,grad_norm_omega"
        assert len(lines) == 6

    def test_table_is_a_read_only_trace_dtype_array(self):
        d_l, d_u = desk_datasets()
        _, traces = train(quick_config(iters=5), d_l, d_u)
        assert traces.dtype == TRACE_DTYPE and traces.shape == (5,)
        assert traces["iter"].tolist() == [1, 2, 3, 4, 5]
        rows = traces.tolist()
        assert traces[-1].item() == rows[-1] and traces[1:3].tolist() == rows[1:3]
        assert traces[1:3].dtype == TRACE_DTYPE
        with pytest.raises(ValueError, match="read-only"):
            traces["lower_loss"][0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            traces[1:3][0] = traces[0]

    @pytest.mark.parametrize("mode", ["l2ac", "baseline", "plain_attractor", "single_level"])
    def test_trace_fields_mean_the_same_in_every_mode(self, mode):
        d_l, d_u = desk_datasets()
        _, traces = train(quick_config(mode=mode, iters=3), d_l, d_u)
        assert (traces["lower_loss"] > 0).all()
        assert (traces["grad_norm_theta"] > 0).all() and (traces["grad_norm_phi"] > 0).all()
        # only the modes with a balanced loss have an upper loss
        if mode in ("l2ac", "single_level"):
            assert (traces["upper_loss"] > 0).all()
        else:
            assert np.isnan(traces["upper_loss"]).all()
        # every mode but baseline steps the head
        if mode == "baseline":
            assert (traces["grad_norm_omega"] == 0.0).all()
        else:
            assert (traces["grad_norm_omega"] > 0).all()

    def test_written_one_row_at_a_time(self, tmp_path, alloc_peak):
        table = np.empty(4000, TRACE_DTYPE)
        table["iter"] = np.arange(1, 4001)
        rng = make_rng(8)
        for name in TRACE_DTYPE.names[1:]:
            table[name] = rng.standard_normal(4000)
        path = tmp_path / "trace.csv"
        # a whole-table .tolist() would hold about 1 MB of Python floats
        assert alloc_peak(lambda: write_trace_csv(table, path)) < 64 * 1024
        lines = path.read_text().splitlines()
        assert len(lines) == 4001
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert tuple(map(float, first[1:])) == table[0].item()[1:6]

    def test_byte_identical_across_runs(self, tmp_path):
        d_l, d_u = desk_datasets()
        _, t1 = train(quick_config(iters=8), d_l, d_u)
        _, t2 = train(quick_config(iters=8), d_l, d_u)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(t1, p1)
        write_trace_csv(t2, p2)
        assert p1.read_bytes() == p2.read_bytes()
