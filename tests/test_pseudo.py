import numpy as np

from biasadapt import pseudo
from biasadapt.numcore import make_rng, softmax
from biasadapt.pseudo import assign_pseudo_labels, augment


def normals(seed: int, shape: tuple) -> np.ndarray:
    return make_rng(seed).standard_normal((2, *shape))


class TestAugment:
    def test_zero_weak_noise_is_identity(self):
        x = make_rng(0).standard_normal((5, 3))
        x_weak, x_strong = augment(x, 0.0, 1.0, normals(1, x.shape))
        assert np.array_equal(x_weak, x)
        assert not np.array_equal(x_strong, x)

    def test_same_seed_same_pair(self):
        x = make_rng(2).standard_normal((4, 3))
        a = augment(x, 0.1, 0.7, normals(3, x.shape))
        b = augment(x, 0.1, 0.7, normals(3, x.shape))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_strong_noise_scale_monte_carlo(self):
        x = np.zeros((10_000, 4))
        _, x_strong = augment(x, 0.1, 0.8, normals(4, x.shape))
        stds = x_strong.std(axis=0)
        assert np.all(np.abs(stds - 0.8) < 0.03 * 0.8)

    def test_views_share_the_noise_and_match_additive_noise_bitwise(self):
        x = make_rng(6).standard_normal((5, 3))
        x_before = x.copy()
        noise = normals(7, x.shape)
        weak, strong = augment(x, 0.0, 0.5, noise)
        assert x.tobytes() == x_before.tobytes()
        assert np.shares_memory(weak, noise) and np.shares_memory(strong, noise)
        assert not np.shares_memory(weak, x) and not np.shares_memory(strong, x)
        fresh = normals(7, x.shape)
        assert weak.tobytes() == (x + 0.0 * fresh[0]).tobytes()
        assert strong.tobytes() == (x + 0.5 * fresh[1]).tobytes()


class TestAssignPseudoLabels:
    def test_confident_row_gets_weight(self):
        # max p ~ 0.96 >= tau 0.95 -> lambda = lambda_u
        logits = np.log(np.array([[0.96, 0.03, 0.01]]))
        y_hat, lam = assign_pseudo_labels(logits, tau=0.95, lambda_u=1.0)
        assert lam[0] == 1.0
        assert y_hat[0].tolist() == [1.0, 0.0, 0.0]

    def test_low_confidence_masked(self):
        logits = np.log(np.array([[0.50, 0.30, 0.20]]))
        _, lam = assign_pseudo_labels(logits, tau=0.95, lambda_u=1.0)
        assert lam[0] == 0.0

    # the sharpening formula at other temperatures than the one runs use
    def test_sharpen_t1_is_identity(self, monkeypatch):
        monkeypatch.setattr(pseudo, "SHARPEN_TEMPERATURE", 1.0)
        rng = make_rng(6)
        logits = rng.standard_normal((5, 4))
        y_hat, _ = assign_pseudo_labels(logits, 0.0, 1.0, mode="sharpen")
        assert np.max(np.abs(y_hat - softmax(logits))) < 1e-12

    def test_sharpen_low_temperature_approaches_onehot(self, monkeypatch):
        monkeypatch.setattr(pseudo, "SHARPEN_TEMPERATURE", 0.01)
        rng = make_rng(7)
        logits = rng.standard_normal((20, 5))
        y_hat, _ = assign_pseudo_labels(logits, 0.0, 1.0, mode="sharpen")
        assert np.all(y_hat.max(axis=1) >= 0.999)
        assert np.array_equal(y_hat.argmax(axis=1), logits.argmax(axis=1))

    def test_sharpen_rows_sum_to_one(self):
        logits = make_rng(8).uniform(-30, 30, size=(10, 6))
        y_hat, _ = assign_pseudo_labels(logits, 0.0, 1.0, mode="sharpen")
        assert np.all(np.abs(y_hat.sum(axis=1) - 1.0) < 1e-9)
        p = softmax(logits)
        expected = p**2 / (p**2).sum(axis=1, keepdims=True)  # T = 0.5
        assert np.max(np.abs(y_hat - expected)) < 1e-12

    def test_sharpen_rows_whose_powers_all_underflow_stay_finite(self, monkeypatch):
        # p^(1/T) underflows to 0 on every entry of a row whose top
        # probability is below exp(-745 T); such a row must still sum to 1
        temperature = 0.002
        monkeypatch.setattr(pseudo, "SHARPEN_TEMPERATURE", temperature)
        logits = 0.1 * make_rng(9).standard_normal((8, 6))
        assert softmax(logits).max() < np.exp(-745.0 * temperature)
        y_hat, _ = assign_pseudo_labels(logits, 0.0, 1.0, mode="sharpen")
        assert np.isfinite(y_hat).all()
        assert np.all(np.abs(y_hat.sum(axis=1) - 1.0) < 1e-12)
        assert np.array_equal(y_hat.argmax(axis=1), logits.argmax(axis=1))

    def test_hard_argmax_matches_logits_argmax_with_ties(self):
        logits = np.array([[2.0, 2.0, 1.0], [0.0, 3.0, 3.0]])
        y_hat, _ = assign_pseudo_labels(logits, 0.0, 1.0)
        assert y_hat.argmax(axis=1).tolist() == [0, 1]
        assert np.array_equal(y_hat.argmax(axis=1), logits.argmax(axis=1))

    def test_lambda_u_scales_weight(self):
        logits = np.array([[50.0, -50.0]])
        _, lam = assign_pseudo_labels(logits, 0.9, lambda_u=2.5)
        assert lam[0] == 2.5


class TestMaskingSoundness:
    def test_fully_masked_batch_contributes_nothing(self):
        from biasadapt.bilevel import lower_loss
        from biasadapt.pseudo import PseudoBatch
        from biasadapt.testing import make_small_problem

        problem = make_small_problem(make_rng(9), mask_some=False)
        pseudo = problem.pseudo
        masked = PseudoBatch(pseudo.x_strong, pseudo.y_hat, np.zeros(len(pseudo)))
        with_masked = lower_loss(problem.x_l, problem.y_l, masked, problem.state)
        labeled_only = lower_loss(problem.x_l, problem.y_l, None, problem.state)
        assert with_masked.loss == labeled_only.loss
        assert len(with_masked.grads) == len(labeled_only.grads)
        for g, h in zip(with_masked.grads, labeled_only.grads):
            assert np.array_equal(g, h)
        for ga, gb_ in zip(with_masked.grads_omega, labeled_only.grads_omega):
            assert np.array_equal(ga, gb_)
