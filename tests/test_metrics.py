import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from biasadapt.data import Dataset, synth_gaussian_mixture
from biasadapt.metrics import (
    balanced_accuracy,
    confusion,
    evaluate,
    geometric_mean,
    per_class_recall,
    plain_accuracy,
    predicted_distribution,
    pseudo_label_recall,
)
from biasadapt.model import SCORE_BLOCK_ROWS, init_model
from biasadapt.numcore import make_rng, softmax
from biasadapt.testing import make_small_problem


class TestConfusion:
    def test_perfect_diagonal(self):
        cm = confusion([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert np.array_equal(cm, np.diag([1, 2, 1]))

    def test_empty(self):
        assert np.array_equal(confusion([], [], 3), np.zeros((3, 3), dtype=np.int64))

    def test_direct_count(self):
        cm = confusion([0, 0, 1], [0, 1, 1], 2)
        assert cm[0, 0] == 1 and cm[0, 1] == 1 and cm[1, 1] == 1 and cm[1, 0] == 0


class TestBaccGm:
    def test_hand_values(self):
        # recalls [1.0, 0.5]
        recall = per_class_recall(np.array([[4, 0], [2, 2]]))
        assert balanced_accuracy(recall) == 0.75
        assert abs(geometric_mean(recall) - math.sqrt(0.5)) < 1e-15

    def test_zero_recall_kills_gm_not_bacc(self):
        recall = per_class_recall(np.array([[3, 0], [4, 0]]))
        assert geometric_mean(recall) == 0.0
        assert balanced_accuracy(recall) == 0.5

    def test_equal_recalls_equalize(self):
        recall = per_class_recall(np.array([[3, 1], [2, 6]]))  # 0.75, 0.75
        assert abs(balanced_accuracy(recall) - geometric_mean(recall)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_gm_never_exceeds_bacc(self, seed):
        rng = make_rng(seed)
        k = int(rng.integers(2, 8))
        cm = rng.integers(0, 50, size=(k, k))
        cm[np.arange(k), np.arange(k)] += 1  # nonzero rows
        recall = per_class_recall(cm)
        assert geometric_mean(recall) <= balanced_accuracy(recall) + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_duplication_invariance(self, seed):
        rng = make_rng(seed)
        k = int(rng.integers(2, 6))
        cm = rng.integers(0, 20, size=(k, k))
        cm[np.arange(k), np.arange(k)] += 1
        recall = per_class_recall(cm)
        dup = per_class_recall(np.diag(rng.integers(1, 7, size=k)) @ cm)
        assert abs(balanced_accuracy(recall) - balanced_accuracy(dup)) < 1e-12
        assert abs(geometric_mean(recall) - geometric_mean(dup)) < 1e-12


class TestPseudoRecall:
    def test_all_correct(self):
        y_hat = np.eye(3)[[0, 1, 2, 0]]
        lam = np.ones(4)
        assert pseudo_label_recall([0, 1, 2, 0], y_hat, lam) == [1.0, 1.0, 1.0]

    def test_all_masked_undefined(self):
        y_hat = np.eye(2)[[0, 1]]
        assert pseudo_label_recall([0, 1], y_hat, np.zeros(2)) == [None, None]

    def test_hand_case(self):
        # truths 0,0,1,1; labels 0,1,1,1; last row masked out
        y_hat = np.eye(2)[[0, 1, 1, 1]]
        lam = np.array([1.0, 1.0, 1.0, 0.0])
        assert pseudo_label_recall([0, 0, 1, 1], y_hat, lam) == [0.5, 1.0]

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 6), rows=st.integers(0, 40))
    @settings(max_examples=50, deadline=None)
    def test_equals_the_per_class_loop(self, seed, k, rows):
        rng = make_rng(seed)
        truth = rng.integers(0, k, rows)
        y_hat = rng.random((rows, k))
        lam = np.where(rng.random(rows) < 0.7, 1.0, 0.0)
        hard, selected = y_hat.argmax(axis=1), lam > 0.0
        loop = []
        for c in range(k):
            picked = selected & (truth == c)
            loop.append(float((hard[picked] == c).mean()) if picked.any() else None)
        assert pseudo_label_recall(truth, y_hat, lam) == loop


class TestPredictedDistribution:
    def test_single_sample_is_softmax(self):
        logits = np.array([[1.0, -2.0, 0.3]])
        assert np.array_equal(predicted_distribution(logits), softmax(logits)[0])

    def test_symmetric_logits_uniform(self):
        logits = np.zeros((7, 4))
        np.testing.assert_allclose(predicted_distribution(logits), 0.25, rtol=1e-15)

    def test_two_opposite_rows(self):
        logits = np.array([[100.0, -100.0], [-100.0, 100.0]])
        np.testing.assert_allclose(predicted_distribution(logits), [0.5, 0.5], atol=1e-15)

    def test_sums_to_one(self):
        logits = make_rng(3).standard_normal((20, 5))
        assert abs(predicted_distribution(logits).sum() - 1.0) < 1e-9


def balanced_test_set(seed=0, per_class=40, k=3):
    return synth_gaussian_mixture(k, 4, 4.0, [per_class] * k, make_rng(seed))


class TestEvaluate:
    def test_duplication_leaves_report_unchanged(self):
        problem = make_small_problem(make_rng(1), input_dim=4, num_classes=3)
        test = balanced_test_set()
        doubled = Dataset(
            np.vstack([test.features, test.features]),
            np.concatenate([test.labels, test.labels]),
            np.concatenate([test.true_labels, test.true_labels]),
            3,
        )
        a = evaluate(problem.state, test, use_ema=False)
        b = evaluate(problem.state, doubled, use_ema=False)
        assert a.bacc == b.bacc and a.gm == b.gm
        assert a.per_class_recall == b.per_class_recall
        np.testing.assert_allclose(a.predicted_distribution, b.predicted_distribution, atol=1e-12)

    def test_distribution_opt_out_changes_nothing_else(self):
        problem = make_small_problem(make_rng(3), input_dim=4, num_classes=3)
        test = balanced_test_set()
        full = evaluate(problem.state, test, use_ema=False)
        lean = evaluate(problem.state, test, use_ema=False, distribution=False)
        assert lean.predicted_distribution is None
        assert full.predicted_distribution is not None
        lean.predicted_distribution = full.predicted_distribution
        assert lean == full

    def test_recall_is_computed_once(self, monkeypatch):
        # bACC, GM and the per-class field all read one recall vector
        calls = []

        def counted(cm):
            calls.append(cm)
            return per_class_recall(cm)

        monkeypatch.setattr("biasadapt.metrics.per_class_recall", counted)
        problem = make_small_problem(make_rng(3), input_dim=4, num_classes=3)
        evaluate(problem.state, balanced_test_set(), use_ema=False)
        assert len(calls) == 1

    def test_scores_a_large_set_without_rows_x_hidden_arrays(self, alloc_peak):
        rows, hidden, feature_dim, k = 8 * SCORE_BLOCK_ROWS, 256, 8, 4
        state = init_model([4, hidden, feature_dim], k, 8, make_rng(5))
        labels = np.arange(rows) % k
        test = Dataset(make_rng(6).standard_normal((rows, 4)), labels, labels, k)
        peak = alloc_peak(lambda: evaluate(state, test, use_ema=False))
        # features and logits of every row, plus one block's hidden layer;
        # one whole-set pass would add rows * 8 * hidden (16.8 MB here)
        assert peak <= 1.25 * 8 * (rows * (feature_dim + k) + SCORE_BLOCK_ROWS * hidden)

    def test_hand_binary_case(self):
        state = init_model([2, 2], 2, 2, make_rng(3))
        state.theta[0] = (np.eye(2), np.zeros(2))
        state.phi_w = np.array([[10.0, -10.0], [-10.0, 10.0]])
        state.phi_b = np.zeros(2)
        x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([0, 0, 1, 1])  # last row mislabeled on purpose
        test = Dataset(x, y, y, 2)
        rep = evaluate(state, test, use_ema=False)
        assert rep.per_class_recall == [1.0, 0.5]
        assert rep.bacc == 0.75
        assert rep.acc == 0.75
        assert abs(rep.gm - math.sqrt(0.5)) < 1e-15

    def test_imbalanced_test_profiles_leave_metrics_unchanged(self):
        # fixed class-conditional accuracy, resampled class counts: bACC/GM
        # must not move (the class-imbalance insensitivity of both metrics)
        recalls = {0: 0.8, 1: 0.6, 2: 1.0}
        reports = []
        for counts in ([50, 20, 10], [10, 20, 50], [30, 30, 30]):
            true, pred = [], []
            for cls, n in enumerate(counts):
                hit = int(round(recalls[cls] * n))
                true += [cls] * n
                pred += [cls] * hit + [(cls + 1) % 3] * (n - hit)
            recall = per_class_recall(confusion(true, pred, 3))
            reports.append((balanced_accuracy(recall), geometric_mean(recall)))
        for bacc, gm in reports[1:]:
            assert abs(bacc - reports[0][0]) < 1e-9
            assert abs(gm - reports[0][1]) < 1e-9

    def test_plain_accuracy_tracks_imbalance(self):
        cm = np.array([[90, 10], [5, 5]])
        assert plain_accuracy(cm) == (95 / 110)
        assert per_class_recall(cm).tolist() == [0.9, 0.5]
