import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasadapt.numcore import (
    LOG_FLOOR,
    NonFinite,
    cross_entropy,
    fd_gradient,
    grad_check,
    log_softmax,
    make_rng,
    safe_log,
    softmax,
    weighted_ce,
)

# softmax([1,2,3]) evaluated by direct exp/sum before the build
SOFTMAX_123 = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
# -log p_2 for logits [1,2,3], target [0,0,1] (= logsumexp([1,2,3]) - 3)
CE_123 = 0.4076059644443806


class TestSoftmax:
    def test_symmetric_two(self):
        assert np.allclose(softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]], atol=1e-15)

    def test_symmetric_three(self):
        out = softmax(np.array([[5.0, 5.0, 5.0]]))
        assert np.allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_reference_values(self):
        out = softmax(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out[0], SOFTMAX_123, rtol=1e-15)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            softmax(np.array([[np.nan, 0.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            softmax(np.array([[np.inf, 0.0]]))

    def test_nonfinite_input_raises_nonfinite(self):
        with pytest.raises(NonFinite):
            log_softmax(np.array([[np.inf, 0.0]]))
        assert issubclass(NonFinite, ValueError)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="classes"):
            softmax(np.array([[1.0]]))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_rows_sum_to_one(self, seed):
        rng = make_rng(seed)
        x = rng.uniform(-50, 50, size=(rng.integers(1, 6), rng.integers(2, 9)))
        p = softmax(x)
        assert np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-12)
        # entries stay positive over this range; the max entry can round to
        # exactly 1.0 once the logit gap exceeds ~36 ulps worth of mass
        assert np.all(p > 0.0) and np.all(p <= 1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_shift_invariance(self, seed):
        rng = make_rng(seed)
        x = rng.uniform(-50, 50, size=(3, 5))
        c = rng.uniform(-40, 40, size=(3, 1))
        assert np.max(np.abs(softmax(x) - softmax(x + c))) < 1e-12


class TestCrossEntropy:
    def test_perfect_prediction(self):
        loss, _ = cross_entropy(np.array([[30.0, -30.0]]), np.array([[1.0, 0.0]]))
        assert abs(loss) < 1e-9

    def test_zero_weights_zero_everything(self):
        logits = np.array([[1.0, -2.0, 0.5], [0.0, 1.0, 2.0]])
        targets = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        loss, grad = cross_entropy(logits, targets, np.zeros(2))
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_reference_value_and_fd(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        targets = np.array([[0.0, 0.0, 1.0]])
        loss, _ = cross_entropy(logits, targets)
        assert abs(loss - CE_123) < 1e-14

        def f(flat):
            value, grad = cross_entropy(flat.reshape(1, 3), targets)
            return value, grad.ravel()

        assert grad_check(f, logits.ravel()) < 1e-6

    def test_xi_identity(self):
        # unweighted gradient is exactly the probabilities minus target, times
        # 1/batch, in the kernel's arithmetic (p = exp(log_softmax(logits)))
        rng = make_rng(7)
        logits = rng.standard_normal((5, 4))
        targets = rng.dirichlet(np.ones(4), size=5)
        _, grad = cross_entropy(logits, targets)
        expected = 0.2 * (np.exp(log_softmax(logits)) - targets)
        assert np.array_equal(grad, expected)

    def test_is_the_training_kernel(self):
        rng = make_rng(8)
        logits = rng.standard_normal((6, 5))
        targets = rng.dirichlet(np.ones(5), size=6)
        weights = rng.uniform(0, 2, size=6)
        loss, grad = cross_entropy(logits, targets, weights)
        k_loss, _, k_grad = weighted_ce(log_softmax(logits), targets, weights / 6)
        assert loss == k_loss
        assert np.array_equal(grad, k_grad)

    def test_rejects_bad_target_rows(self):
        with pytest.raises(ValueError, match="sums to"):
            cross_entropy(np.zeros((1, 2)), np.array([[0.5, 0.6]]))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="negative"):
            cross_entropy(np.zeros((1, 2)), np.array([[1.0, 0.0]]), np.array([-1.0]))

    def test_gradient_fd_random_instances(self):
        rng = make_rng(123)
        worst = 0.0
        for _ in range(100):
            batch = int(rng.integers(1, 9))
            k = int(rng.integers(2, 11))
            targets = rng.dirichlet(np.ones(k), size=batch)
            weights = rng.uniform(0, 2, size=batch)
            x0 = rng.standard_normal(batch * k)

            def f(flat):
                value, grad = cross_entropy(flat.reshape(batch, k), targets, weights)
                return value, grad.ravel()

            worst = max(worst, grad_check(f, x0))
        assert worst < 1e-6


class TestGradCheck:
    def test_quadratic(self):
        def f(x):
            return float(x[0] ** 2), np.array([2.0 * x[0]])

        assert grad_check(f, np.array([3.0])) < 1e-7
        numeric = fd_gradient(lambda x: f(x)[0], np.array([3.0]), 1e-6)
        assert numeric.shape == (1,) and abs(numeric[0] - 6.0) < 1e-7

    def test_constant(self):
        def f(x):
            return 1.5, np.zeros_like(x)

        assert grad_check(f, np.array([0.3, -2.0])) == 0.0

    def test_detects_wrong_gradient(self):
        def f(x):
            return float(x[0] ** 2), np.array([3.0 * x[0]])

        assert grad_check(f, np.array([3.0])) > 1e-2

    def test_nan_value_is_not_a_pass(self):
        def f(x):
            return float("nan"), np.zeros_like(x)

        assert not grad_check(f, np.array([3.0])) < 1e-6

    def test_epsilon_validation(self):
        def f(x):
            return 0.0, np.zeros_like(x)

        with pytest.raises(ValueError, match="epsilon"):
            grad_check(f, np.zeros(1), epsilon=1e-2)


def test_safe_log_floor():
    assert safe_log(np.array([[0.0]]))[0, 0] == np.log(LOG_FLOOR)
    assert np.isfinite(safe_log(np.zeros((2, 2)))).all()


def test_rng_reproducible():
    a = make_rng(42).standard_normal(5)
    b = make_rng(42).standard_normal(5)
    assert np.array_equal(a, b)
