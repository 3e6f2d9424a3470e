import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from biasadapt import model
from biasadapt.model import (
    SCORE_BLOCK_ROWS,
    copy_state,
    classifier_scores,
    ema_update,
    features_backward,
    features_with_cache,
    forward_eval,
    forward_features,
    forward_train,
    init_model,
    load_checkpoint,
    normalize_scores,
    save_checkpoint,
)
from biasadapt.numcore import make_rng
from biasadapt.testing import flatten_arrays, grad_check, make_small_problem, unflatten_like


class TestInit:
    def test_deterministic(self):
        a = init_model([4, 8, 3], 5, 16, make_rng(3), "softmax_input")
        b = init_model([4, 8, 3], 5, 16, make_rng(3), "softmax_input")
        assert np.array_equal(a.phi_w, b.phi_w)
        assert all(np.array_equal(x[0], y[0]) for x, y in zip(a.theta, b.theta))

    def test_default_attractor_hidden_is_256(self):
        import inspect

        from biasadapt.bilevel import TrainConfig

        assert TrainConfig().attractor_hidden == 256
        sig = inspect.signature(init_model)
        state = init_model([4, 3], 4, 256, make_rng(0), "softmax_input")
        assert state.attractor_hidden == 256
        assert sig is not None

    def test_attractor_output_layer_zero(self):
        state = init_model([4, 8, 3], 5, 16, make_rng(1), "softmax_input")
        assert np.all(state.omega_w2 == 0.0)
        assert np.all(state.omega_b2 == 0.0)

    def test_train_equals_eval_at_init(self):
        state = init_model([4, 8, 3], 5, 16, make_rng(2), "softmax_input")
        x = make_rng(5).standard_normal((7, 4))
        logits_train, _ = forward_train(x, state)
        logits_eval = forward_eval(x, state)
        assert np.max(np.abs(logits_train - logits_eval)) < 1e-12

    def test_ema_shadows_start_as_copies(self):
        state = init_model([4, 3], 2, 4, make_rng(4), "softmax_input")
        assert np.array_equal(state.ema_phi_w, state.phi_w)
        assert state.ema_phi_w is not state.phi_w

    @pytest.mark.parametrize(
        "dims,classes,hidden,message",
        [
            ([4, 3], 1, 8, "num_classes: expected >= 2, got 1"),
            ([4, 3], 2, 0, "attractor_hidden: expected >= 1, got 0"),
            ([4], 2, 8, "extractor_dims: expected >= 2 widths, each >= 1, got [4]"),
            ([4, 0, 3], 2, 8, "extractor_dims: expected >= 2 widths, each >= 1, got [4, 0, 3]"),
        ],
        ids=["one-class", "no-attractor-units", "one-width", "zero-width"],
    )
    def test_refusal_names_the_value(self, dims, classes, hidden, message):
        # the entry check the softmax kernels and the extractor pass rely on
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            init_model(dims, classes, hidden, make_rng(0), "softmax_input")


class TestForwardFeatures:
    def test_identity_single_layer(self):
        state = init_model([3, 3], 2, 4, make_rng(0), "softmax_input")
        state.theta[0] = (np.eye(3), np.zeros(3))
        x = make_rng(1).standard_normal((5, 3))
        assert np.array_equal(forward_features(x, state.theta), x)

    def test_zero_rows(self):
        state = init_model([3, 4, 2], 2, 4, make_rng(0), "softmax_input")
        z = forward_features(np.zeros((0, 3)), state.theta)
        assert z.shape == (0, 2)

    def test_features_backward_matches_fd(self):
        rng = make_rng(11)
        problem = make_small_problem(rng, hidden=(3, 3))
        state = problem.state
        x = problem.x_l
        v = rng.standard_normal((x.shape[0], state.phi_w.shape[0]))
        arrays = [a for pair in state.theta for a in pair]
        flat0 = flatten_arrays(arrays)

        def f(flat):
            work = copy_state(state)
            w_arrays = [a for pair in work.theta for a in pair]
            for arr, value in zip(w_arrays, unflatten_like(flat, w_arrays)):
                arr[...] = value
            z, cache = features_with_cache(x, work.theta)
            grads = features_backward(cache, work.theta, v)
            return float((z * v).sum()), flatten_arrays(grads)

        assert grad_check(f, flat0) < 1e-6


class TestForwardTrain:
    def test_residual_identity_with_zero_output_layer(self):
        problem = make_small_problem(make_rng(0))
        state = copy_state(problem.state)
        state.omega_w2[...] = 0.0
        state.omega_b2[...] = 0.0
        x = make_rng(1).standard_normal((6, problem.x_l.shape[1]))
        logits, _ = forward_train(x, state)
        assert np.array_equal(logits, forward_eval(x, state))

    def test_l2_norm_zero_row(self):
        u = normalize_scores(np.array([[0.0, 0.0], [3.0, 4.0]]), "l2_input")
        assert np.array_equal(u[0], [0.0, 0.0])
        np.testing.assert_allclose(u[1], [0.6, 0.8], rtol=1e-15)

    def test_hand_computed_tiny_instance(self):
        # d=2, K=2, H=2 with explicit scalar arithmetic
        state = init_model([2, 2], 2, 2, make_rng(0), "softmax_input")
        state.theta[0] = (np.eye(2), np.zeros(2))
        state.phi_w = np.array([[1.0, 0.0], [0.0, 1.0]])
        state.phi_b = np.array([0.5, -0.5])
        state.omega_w1 = np.array([[1.0, -1.0], [0.5, 0.25]])
        state.omega_b1 = np.array([0.0, 0.1])
        state.omega_w2 = np.array([[2.0, 0.0], [1.0, 1.0]])
        state.omega_b2 = np.array([-0.2, 0.3])
        x = np.array([[1.0, -0.5]])

        import math

        s0, s1 = 1.0 + 0.5, -0.5 - 0.5  # phi on z = x
        e0, e1 = math.exp(s0), math.exp(s1)
        u0, u1 = e0 / (e0 + e1), e1 / (e0 + e1)
        h0 = u0 * 1.0 + u1 * 0.5 + 0.0
        h1 = u0 * -1.0 + u1 * 0.25 + 0.1
        a0, a1 = max(h0, 0.0), max(h1, 0.0)
        d0 = a0 * 2.0 + a1 * 1.0 - 0.2
        d1 = a0 * 0.0 + a1 * 1.0 + 0.3
        expected = np.array([[s0 + d0, s1 + d1]])

        logits, cache = forward_train(x, state)
        np.testing.assert_allclose(logits, expected, rtol=1e-14)
        np.testing.assert_allclose(cache.u, [[u0, u1]], rtol=1e-14)


class TestForwardEval:
    def test_head_mutation_invisible(self):
        problem = make_small_problem(make_rng(2))
        x = make_rng(3).standard_normal((5, problem.x_l.shape[1]))
        before = forward_eval(x, problem.state)
        mutated = copy_state(problem.state)
        mutated.omega_w1 += 10.0
        mutated.omega_w2 -= 3.0
        mutated.omega_b2 += 1.0
        assert np.array_equal(before, forward_eval(x, mutated))

    def test_ema_right_after_init_matches_raw(self):
        state = init_model([3, 4, 2], 3, 4, make_rng(6), "softmax_input")
        x = make_rng(7).standard_normal((4, 3))
        assert np.array_equal(forward_eval(x, state, use_ema=True), forward_eval(x, state))

    def test_argmax_tie_breaks_low(self):
        assert int(np.argmax(np.array([1.0, 1.0]))) == 0


class TestEma:
    def test_decay_one_freezes_shadow(self):
        state = init_model([3, 2], 2, 4, make_rng(8), "softmax_input")
        shadow = state.ema_phi_w.copy()
        state.phi_w += 1.0
        ema_update(state, 1.0)
        assert np.array_equal(state.ema_phi_w, shadow)

    def test_decay_zero_copies_param(self):
        state = init_model([3, 2], 2, 4, make_rng(9), "softmax_input")
        state.phi_w += 2.0
        ema_update(state, 0.0)
        assert np.array_equal(state.ema_phi_w, state.phi_w)

    def test_geometric_recursion(self):
        state = init_model([3, 2], 2, 4, make_rng(10), "softmax_input")
        state.ema_phi_b[...] = 0.0
        state.phi_b[...] = 1.0
        ema_update(state, 0.999)
        ema_update(state, 0.999)
        assert np.max(np.abs(state.ema_phi_b - (1.0 - 0.999**2))) < 1e-12


def _held_arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _held_arrays(item)


def test_named_arrays_hold_every_array_and_copies_share_none():
    state = init_model([3, 4, 5, 2], 3, 6, make_rng(21), "softmax_input")
    state.step_count = 5
    named = state.named_arrays()
    held = [a for f in dataclasses.fields(state) for a in _held_arrays(getattr(state, f.name))]
    assert sorted(map(id, held)) == sorted(map(id, named.values()))
    assert len(set(map(id, held))) == len(held)
    # lower_arrays and ema_arrays pair each parameter with its own shadow
    name_of = {id(a): name for name, a in named.items()}
    lower = [name_of[id(a)] for a in state.lower_arrays()]
    assert lower == [n for n in named if n.startswith(("theta_", "phi_"))]
    assert [name_of[id(a)] for a in state.ema_arrays()] == [f"ema_{n}" for n in lower]

    copied = copy_state(state)
    assert copied.step_count == 5
    assert list(copied.named_arrays()) == list(named)
    for a, b in zip(named.values(), copied.named_arrays().values()):
        assert np.array_equal(a, b) and not np.shares_memory(a, b)


class TestStopGradient:
    def test_phi_gradient_matches_frozen_u_fd(self):
        # the engine treats the attractor input as constant; finite
        # differences with u frozen agree with the analytic phi gradient
        from biasadapt.testing import lower_fd_errors

        problem = make_small_problem(make_rng(12))
        errs = lower_fd_errors(problem)
        assert errs["phi"] < 1e-6
        assert errs["theta"] < 1e-6

    def test_unfrozen_fd_disagrees_when_head_active(self):
        # sanity that the frozen-u contract is load-bearing: differencing the
        # *actual* forward (u recomputed) deviates from the analytic gradient
        from biasadapt.bilevel import lower_loss
        from biasadapt.numcore import log_softmax

        problem = make_small_problem(make_rng(13), n_unlabeled=0)
        state = problem.state
        res = lower_loss(problem.x_l, problem.y_l, None, state)
        eps = 1e-5
        i, j = 0, 0
        worst = 0.0

        def full_loss(st):
            logits, _ = forward_train(problem.x_l, st)
            logp = log_softmax(logits)
            return float(-(problem.y_l * logp).sum() / problem.x_l.shape[0])

        for i in range(state.phi_w.shape[0]):
            for j in range(state.phi_w.shape[1]):
                up = copy_state(state)
                up.phi_w[i, j] += eps
                down = copy_state(state)
                down.phi_w[i, j] -= eps
                numeric = (full_loss(up) - full_loss(down)) / (2 * eps)
                worst = max(worst, abs(numeric - res.grads[-2][i, j]))
        assert worst > 1e-6


class TestCheckpoint:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        state = make_small_problem(make_rng(14), hidden=(3, 2)).state
        state.step_count = 17
        ema_update(state, 0.5)
        state.norm = "l2_input"
        first, second = tmp_path / "first.npz", tmp_path / "second.npz"
        save_checkpoint(first, state)
        back = load_checkpoint(first)
        assert back.norm == "l2_input"
        save_checkpoint(second, back)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("drop", ["meta", "norm", "num_classes"])
    def test_missing_metadata_names_the_file(self, tmp_path, drop):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, make_small_problem(make_rng(16)).state)
        data = dict(np.load(path))
        if drop == "meta":
            del data["meta"]
        else:
            meta = json.loads(bytes(data["meta"]).decode())
            del meta[drop]
            data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **data)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{drop}"):
            load_checkpoint(path)

    def test_round_trip_exact(self, tmp_path):
        problem = make_small_problem(make_rng(14))
        state = problem.state
        state.norm = "l2_input"
        state.step_count = 17
        ema_update(state, 0.5)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, state)
        back = load_checkpoint(path)
        assert back.norm == "l2_input"
        assert back.step_count == 17
        assert np.array_equal(back.phi_w, state.phi_w)
        assert np.array_equal(back.omega_w2, state.omega_w2)
        assert np.array_equal(back.ema_phi_w, state.ema_phi_w)
        for (w, b), (w2, b2) in zip(back.theta, state.theta):
            assert np.array_equal(w, w2) and np.array_equal(b, b2)
        x = make_rng(15).standard_normal((4, problem.x_l.shape[1]))
        assert np.array_equal(
            forward_train(x, back)[0], forward_train(x, state)[0]
        )

    @pytest.mark.parametrize(
        "blob",
        [
            b"not json",
            b"[1, 2]",
            b'{"version": 1, "norm": "l2_input", "step_count": null}',
            b'{"version": 1, "norm": "l2_input", "step_count": 0, "extractor_dims": 5}',
        ],
    )
    def test_unreadable_metadata_names_the_file(self, tmp_path, blob):
        path = tmp_path / "ckpt.npz"
        np.savez(path, meta=np.frombuffer(blob, dtype=np.uint8))
        message = f"^{re.escape(str(path))}: unreadable checkpoint meta"
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    def test_version_check(self, tmp_path):
        problem = make_small_problem(make_rng(16))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, problem.state)
        data = dict(np.load(path))
        meta = json.loads(bytes(data["meta"]).decode())
        meta["version"] = 99
        data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **data)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "name,shape,meta_key,meta_value",
        [
            ("omega_w2", (5, 3), None, None),
            ("ema_theta_b0", (2,), None, None),
            (None, None, "attractor_hidden", 9),
            (None, None, "num_classes", 4),
            (None, None, "extractor_dims", [3, 3, 7]),
        ],
    )
    def test_shape_mismatch_names_the_array(self, tmp_path, name, shape, meta_key, meta_value):
        problem = make_small_problem(make_rng(16))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, problem.state)
        data = dict(np.load(path))
        if name is not None:
            data[name] = np.zeros(shape)
        else:
            meta = json.loads(bytes(data["meta"]).decode())
            meta[meta_key] = meta_value
            data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **data)
        with pytest.raises(ValueError, match="has shape .* metadata implies"):
            load_checkpoint(path)

    def test_missing_array_rejected(self, tmp_path):
        problem = make_small_problem(make_rng(16))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, problem.state)
        data = dict(np.load(path))
        del data["omega_b1"]
        np.savez(path, **data)
        with pytest.raises(ValueError, match="missing array omega_b1"):
            load_checkpoint(path)


def test_attractor_forward_matches_manual():
    # the head runs through the extractor's forward kernel
    problem = make_small_problem(make_rng(17))
    state = problem.state
    u = make_rng(18).dirichlet(np.ones(state.num_classes), size=3)
    delta, (u_in, a) = features_with_cache(u, state.head_layers())
    assert u_in is u
    manual_a = np.maximum(u @ state.omega_w1 + state.omega_b1, 0)
    manual = manual_a @ state.omega_w2 + state.omega_b2
    assert np.array_equal(delta, manual)
    assert a.tobytes() == manual_a.tobytes()


def test_classifier_scores_affine():
    rng = make_rng(19)
    z = rng.standard_normal((4, 3))
    w = rng.standard_normal((3, 2))
    b = rng.standard_normal(2)
    assert np.array_equal(classifier_scores(z, w, b), z @ w + b)


@pytest.mark.parametrize("hidden", [(), (5,), (5, 4)])
def test_forward_passes_write_no_input_and_return_fresh_arrays(hidden):
    rng = make_rng(20)
    state = init_model([3, *hidden, 4], 3, 6, rng, "softmax_input")
    x = rng.standard_normal((7, 3))
    x_before = x.copy()
    params_before = [a.copy() for pair in state.theta for a in pair]
    z, cache = features_with_cache(x, state.theta)
    logits, train_cache = forward_train(x, state)
    eval_logits = forward_eval(x, state)
    assert x.tobytes() == x_before.tobytes()
    params = [a for pair in state.theta for a in pair]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(params, params_before))
    assert len(cache) == len(state.theta) and cache[0] is x
    for out in (z, logits, eval_logits, train_cache.z, train_cache.u, train_cache.a):
        assert not np.shares_memory(out, x)
    cache_before = [c.copy() for c in cache]
    features_backward(cache, state.theta, rng.standard_normal(z.shape))
    assert all(c.tobytes() == b.tobytes() for c, b in zip(cache, cache_before))


def test_relu_output_gate_matches_preactivation_gate_bitwise():
    rng = make_rng(21)
    pre = np.array([[0.0, -0.0, -1.5, 2.0], [-0.0, 0.5, 0.0, -3.0], [1.0, -2.0, -0.0, 0.0]])
    assert np.signbit(pre).any() and (pre == 0.0).sum() == 6 and (pre < 0.0).any()
    x = rng.standard_normal((3, 2))
    theta = [(rng.standard_normal((2, 4)), rng.standard_normal(4)),
             (rng.standard_normal((4, 3)), rng.standard_normal(3))]
    relu = pre.copy()
    np.maximum(relu, 0.0, out=relu)  # the layer output features_with_cache caches
    d_out = rng.standard_normal((3, 3))
    grads = features_backward([x, relu], theta, d_out)
    # reference: backward gated on the preactivation itself
    d = d_out @ theta[1][0].T
    d *= pre > 0.0
    ref = [x.T @ d, d.sum(axis=0), relu.T @ d_out, d_out.sum(axis=0)]
    assert len(grads) == len(ref)
    for g, r in zip(grads, ref):
        assert g.tobytes() == r.tobytes()
    with_nan = np.append(pre.ravel(), np.nan)
    assert np.array_equal(np.maximum(with_nan, 0.0) > 0.0, with_nan > 0.0)


def test_forward_eval_holds_one_array_per_layer():
    rows, widths = 4096, (64, 32)
    state = init_model([16, *widths], 10, 8, make_rng(22), "softmax_input")
    x = make_rng(23).standard_normal((rows, 16))
    forward_eval(x, state)  # warm up lazily allocated numpy/BLAS state
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        forward_eval(x, state)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the hidden ReLU output and z; a kept preactivation would add rows * 8 * 64
    assert peak <= rows * 8 * sum(widths) * 1.05


@pytest.mark.parametrize("width", [16, 32, 64])
def test_blocked_features_match_one_whole_pass_bitwise(width):
    rows = SCORE_BLOCK_ROWS * 5 // 2
    state = init_model([16, width, width], 10, 8, make_rng(24), "softmax_input")
    x = make_rng(25).standard_normal((rows, 16))
    whole, _ = features_with_cache(x, state.theta)
    z = forward_features(x, state.theta)
    assert z.shape == whole.shape and z.tobytes() == whole.tobytes()


@pytest.mark.parametrize("rows,passes", [(1, 1), (SCORE_BLOCK_ROWS, 1),
                                         (SCORE_BLOCK_ROWS + 1, 2), (3 * SCORE_BLOCK_ROWS, 3)])
def test_forward_features_passes_per_block(monkeypatch, rows, passes):
    # a batch of up to one block is one features_with_cache call on x itself
    state = init_model([3, 5, 4], 2, 4, make_rng(26), "softmax_input")
    x = make_rng(27).standard_normal((rows, 3))
    seen = []

    def spy(x_block, theta):
        seen.append(x_block)
        return features_with_cache(x_block, theta)

    monkeypatch.setattr(model, "features_with_cache", spy)
    forward_features(x, state.theta)
    assert [len(b) for b in seen] == [min(SCORE_BLOCK_ROWS, rows - i * SCORE_BLOCK_ROWS)
                                      for i in range(passes)]
    if passes == 1:
        assert seen[0] is x
