import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasadapt.numcore import (
    NonFinite,
    log_softmax,
    make_rng,
    softmax,
    weighted_ce,
)
from biasadapt.testing import fd_gradient, grad_check

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

    def test_nonfinite_input_raises_nonfinite(self):
        assert issubclass(NonFinite, ValueError)
        # unchecked, a non-finite row comes out as a NaN row and leaves the
        # other rows alone, so a training loss built on it is NaN
        x = np.array([[np.inf, 0.0], [1.0, 2.0], [np.nan, 0.0]])
        with np.errstate(invalid="ignore"):
            for kernel in (softmax, log_softmax):
                out = kernel(x)
                assert np.isnan(out[[0, 2]]).all()
                assert np.array_equal(out[1], kernel(x[1:2])[0])

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
    # weighted_ce on log_softmax rows, with coeff = weights / batch: the
    # weighted-mean cross-entropy every caller computes
    def test_perfect_prediction(self):
        logp = log_softmax(np.array([[30.0, -30.0]]))
        loss, _, _ = weighted_ce(logp, np.array([[1.0, 0.0]]), np.ones(1))
        assert abs(loss) < 1e-9

    def test_zero_weights_zero_everything(self):
        logits = np.array([[1.0, -2.0, 0.5], [0.0, 1.0, 2.0]])
        targets = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        loss, _, grad = weighted_ce(log_softmax(logits), targets, np.zeros(2))
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_reference_value_and_fd(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        targets = np.array([[0.0, 0.0, 1.0]])
        loss, _, _ = weighted_ce(log_softmax(logits), targets, np.ones(1))
        assert abs(loss - CE_123) < 1e-14

        def f(flat):
            value, _, grad = weighted_ce(log_softmax(flat.reshape(1, 3)), targets, np.ones(1))
            return value, grad.ravel()

        assert grad_check(f, logits.ravel()) < 1e-6

    def test_xi_identity(self):
        # unweighted gradient is exactly the probabilities minus target, times
        # 1/batch, in the kernel's arithmetic (p = exp(log_softmax(logits)))
        rng = make_rng(7)
        logits = rng.standard_normal((5, 4))
        targets = rng.dirichlet(np.ones(4), size=5)
        _, _, grad = weighted_ce(log_softmax(logits), targets, np.full(5, 1.0 / 5))
        expected = 0.2 * (np.exp(log_softmax(logits)) - targets)
        assert np.array_equal(grad, expected)

    def test_weighted_mean_of_per_row_losses(self):
        # coeff = weights / batch gives the weighted-mean cross-entropy, row
        # by row -sum_k targets[i,k] * log p[i,k] scaled by weights[i] / batch
        rng = make_rng(8)
        logits = rng.standard_normal((6, 5))
        targets = rng.dirichlet(np.ones(5), size=6)
        weights = rng.uniform(0, 2, size=6)
        loss, _, _ = weighted_ce(log_softmax(logits), targets, weights / 6)
        rows = [
            -sum(t * np.log(p) for t, p in zip(targets[i], softmax(logits[i : i + 1])[0]))
            for i in range(6)
        ]
        assert abs(loss - float(np.dot(weights, rows)) / 6) < 1e-12

    def test_probabilities_are_the_softmax(self):
        rng = make_rng(9)
        logits = rng.uniform(-20, 20, size=(4, 7))
        _, p, _ = weighted_ce(log_softmax(logits), softmax(logits), np.ones(4))
        np.testing.assert_allclose(p, softmax(logits), rtol=1e-12, atol=1e-300)

    def test_loss_and_grad_scale_with_coeff(self):
        # doubling every coefficient is exact in floating point, so the loss
        # and the gradient double bit for bit
        rng = make_rng(10)
        logp = log_softmax(rng.standard_normal((5, 3)))
        targets = rng.dirichlet(np.ones(3), size=5)
        coeff = rng.uniform(0, 1, size=5)
        loss, _, grad = weighted_ce(logp, targets, coeff)
        loss2, _, grad2 = weighted_ce(logp, targets, 2.0 * coeff)
        assert loss2 == 2.0 * loss
        assert np.array_equal(grad2, 2.0 * grad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_logits_give_a_nan_loss(self, bad):
        # no scan: the bad row's NaN reaches the loss and its gradient row,
        # which training reports as divergence; the other row stays finite
        logits = np.array([[bad, 0.0], [1.0, 2.0]])
        targets = np.array([[1.0, 0.0], [0.0, 1.0]])
        with np.errstate(invalid="ignore"):
            loss, _, grad = weighted_ce(log_softmax(logits), targets, np.full(2, 0.5))
        assert np.isnan(loss)
        assert np.isnan(grad[0]).all() and np.isfinite(grad[1]).all()

    def test_gradient_fd_random_instances(self):
        rng = make_rng(123)
        worst = 0.0
        for _ in range(100):
            batch = int(rng.integers(1, 9))
            k = int(rng.integers(2, 11))
            targets = rng.dirichlet(np.ones(k), size=batch)
            coeff = rng.uniform(0, 2, size=batch) / batch
            x0 = rng.standard_normal(batch * k)

            def f(flat):
                value, _, grad = weighted_ce(log_softmax(flat.reshape(batch, k)), targets, coeff)
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


def test_rng_reproducible():
    a = make_rng(42).standard_normal(5)
    b = make_rng(42).standard_normal(5)
    assert np.array_equal(a, b)
