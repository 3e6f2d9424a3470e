import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasadapt.data import (
    BadRow,
    Dataset,
    ImbalanceProfile,
    balanced_batch,
    balanced_index,
    class_counts,
    class_means_on_sphere,
    load_csv_dataset,
    one_hot,
    save_csv_dataset,
    split_counts,
    synth_gaussian_mixture,
)
from biasadapt.numcore import make_rng

# floor(1500 * 100^(-k/9)) for k = 0..9, evaluated before the build
LONGTAIL_1500_100_10 = [1500, 899, 539, 323, 193, 116, 69, 41, 25, 15]


class TestClassCounts:
    def test_longtail_endpoints(self):
        counts = class_counts(ImbalanceProfile("longtail", 100.0, 1500), 10)
        assert counts[0] == 1500
        assert counts[9] == 15
        assert counts[0] / counts[9] == 100.0

    def test_longtail_reference_row(self):
        counts = class_counts(ImbalanceProfile("longtail", 100.0, 1500), 10)
        assert counts.tolist() == LONGTAIL_1500_100_10

    def test_uniform(self):
        counts = class_counts(ImbalanceProfile("uniform", 1.0, 150), 10)
        assert counts.tolist() == [150] * 10

    def test_reversed_is_reverse(self):
        lt = class_counts(ImbalanceProfile("longtail", 20.0, 100), 6)
        rev = class_counts(ImbalanceProfile("reversed_longtail", 20.0, 100), 6)
        assert rev.tolist() == lt.tolist()[::-1]

    def test_step_profile(self):
        counts = class_counts(ImbalanceProfile("step", 10.0, 100), 10)
        assert counts.tolist() == [100] * 5 + [10] * 5
        odd = class_counts(ImbalanceProfile("step", 10.0, 100), 5)
        assert odd.tolist() == [100] * 3 + [10] * 2

    def test_one_class_rejected(self):
        with pytest.raises(ValueError, match=r"^num_classes: expected >= 2, got 1$"):
            class_counts(ImbalanceProfile(), 1)

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            ImbalanceProfile("longtail", 0.5, 100)

    def test_min_count_clamped_to_one(self):
        counts = class_counts(ImbalanceProfile("longtail", 1000.0, 10), 4)
        assert counts.min() == 1
        assert counts[0] == 10

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=1.0, max_value=500.0),
        st.integers(min_value=2, max_value=5000),
        st.integers(min_value=2, max_value=20),
    )
    def test_longtail_monotone_and_ratio(self, gamma, n1, k):
        counts = class_counts(ImbalanceProfile("longtail", gamma, n1), k)
        assert counts[0] == n1
        assert np.all(np.diff(counts) <= 0)
        if n1 >= gamma:
            # flooring the tail makes the realized ratio land in
            # [gamma, gamma * (1 + 1/tail)]
            ratio = counts[0] / counts[-1]
            assert gamma - 1e-9 <= ratio <= gamma * (1.0 + 1.0 / counts[-1]) + 1e-9


class TestSynthMixture:
    def test_counts_bookkeeping(self):
        ds = synth_gaussian_mixture(2, 2, 1.0, [5, 5], make_rng(0))
        assert len(ds) == 10
        assert np.bincount(ds.true_labels, minlength=2).tolist() == [5, 5]
        assert np.array_equal(ds.labels, ds.true_labels)

    def test_zero_separation_indistinguishable(self):
        ds = synth_gaussian_mixture(4, 8, 0.0, [200] * 4, make_rng(1))
        # class-conditional means all at the origin: a nearest-mean rule
        # cannot beat chance by much
        mean_norms = [
            np.linalg.norm(ds.features[ds.true_labels == k].mean(axis=0))
            for k in range(4)
        ]
        assert max(mean_norms) < 0.5

    def test_separated_classes_probe(self, linear_probe_bacc):
        ds = synth_gaussian_mixture(4, 8, 8.0, [100] * 4, make_rng(2))
        test = synth_gaussian_mixture(4, 8, 8.0, [100] * 4, make_rng(2))
        assert linear_probe_bacc(ds, test) >= 0.99

    def test_probe_pinned_value(self, linear_probe_bacc):
        # pinned figures: a change to the shared cross-entropy kernel must not move them
        rng = make_rng(5)
        pool = synth_gaussian_mixture(3, 4, 1.0, [240, 220, 210], rng)
        train_ds, test_ds = split_counts(
            pool, [[40, 20, 10], [200, 200, 200]], [True, True], rng
        )
        assert linear_probe_bacc(train_ds, test_ds, iters=60) == 0.62
        assert linear_probe_bacc(train_ds, test_ds, iters=60, balanced=False) == 0.5783333333333334

    def test_matches_per_class_draws_bitwise(self):
        counts = [10, 0, 30]
        ds = synth_gaussian_mixture(3, 4, 2.0, counts, make_rng(9))
        rng = make_rng(9)
        means = 2.0 * class_means_on_sphere(3, 4, rng)
        ref = np.vstack([means[k] + rng.standard_normal((c, 4)) for k, c in enumerate(counts)])
        assert ds.features.tobytes() == ref.tobytes()
        assert ds.true_labels.tolist() == [0] * 10 + [2] * 30
        assert not np.shares_memory(ds.labels, ds.true_labels)

    def test_deterministic(self):
        a = synth_gaussian_mixture(3, 4, 2.0, [10, 20, 30], make_rng(9))
        b = synth_gaussian_mixture(3, 4, 2.0, [10, 20, 30], make_rng(9))
        assert np.array_equal(a.features, b.features)


class TestSplits:
    def make_pool(self):
        return synth_gaussian_mixture(2, 3, 2.0, [5, 5], make_rng(3))

    def test_basic_split(self):
        d_l, d_u = split_counts(self.make_pool(), [[2, 2], [3, 3]], [True, False], make_rng(4))
        assert len(d_l) == 4 and len(d_u) == 6
        assert np.all(d_u.labels == -1)
        assert np.all(d_l.labels >= 0)

    def test_subsets_share_no_memory_with_pool(self):
        pool = self.make_pool()
        d_l, d_u = split_counts(pool, [[2, 2], [3, 3]], [True, False], make_rng(4))
        for d in (d_l, d_u):
            assert not np.shares_memory(d.features, pool.features)
            assert not np.shares_memory(d.true_labels, pool.true_labels)
        assert not np.shares_memory(d_l.labels, d_l.true_labels)

    def test_empty_unlabeled(self):
        d_l, d_u = split_counts(self.make_pool(), [[2, 2], [0, 0]], [True, False], make_rng(4))
        assert len(d_u) == 0

    def test_disjoint_partition(self):
        pool = synth_gaussian_mixture(3, 4, 2.0, [20, 15, 10], make_rng(5))
        parts = split_counts(pool, [[5, 5, 5], [10, 5, 3], [5, 5, 2]], [True, False, True], make_rng(6))
        rows = np.vstack([p.features for p in parts])
        assert rows.shape[0] == sum(len(p) for p in parts)
        # disjointness: every row of every part appears exactly once in pool
        seen = {tuple(r) for r in rows}
        assert len(seen) == rows.shape[0]

    def test_insufficient_rows_names_class(self):
        with pytest.raises(ValueError, match="class 1"):
            split_counts(self.make_pool(), [[2, 4], [2, 3]], [True, False], make_rng(4))

    def test_reversed_scenario_structure(self):
        # labeled head-heavy, unlabeled tail-heavy
        counts_l = class_counts(ImbalanceProfile("longtail", 100.0, 50), 4)
        counts_u = class_counts(ImbalanceProfile("reversed_longtail", 100.0, 50), 4)
        pool = synth_gaussian_mixture(4, 4, 2.0, counts_l + counts_u, make_rng(7))
        d_l, d_u = split_counts(pool, [counts_l, counts_u], [True, False], make_rng(8))
        lc = np.bincount(d_l.true_labels, minlength=4)
        uc = np.bincount(d_u.true_labels, minlength=4)
        assert lc[0] == lc.max() and uc[3] == uc.max()
        assert lc[0] == 50 and uc[3] == 50


class TestBalancedBatch:
    def make_labeled(self):
        return synth_gaussian_mixture(5, 3, 1.0, [10, 5, 3, 2, 1], make_rng(10))

    def test_exact_stratification(self):
        ds = self.make_labeled()
        idx = balanced_batch(balanced_index(ds, 10), make_rng(11))
        counts = np.bincount(ds.labels[idx], minlength=5)
        assert counts.tolist() == [2, 2, 2, 2, 2]

    def test_replacement_forced_for_singleton_class(self):
        ds = self.make_labeled()
        idx = balanced_batch(balanced_index(ds, 15), make_rng(12))
        singleton_row = np.flatnonzero(ds.labels == 4)[0]
        assert np.sum(idx == singleton_row) == 3

    def test_batch_size_divisibility(self):
        with pytest.raises(ValueError, match="^balanced_n 7 not divisible by 5 classes$"):
            balanced_index(self.make_labeled(), 7)

    def test_missing_class_rejected(self):
        ds = synth_gaussian_mixture(2, 3, 1.0, [4, 4], make_rng(13))
        ds = Dataset(ds.features, np.where(ds.labels == 1, -1, ds.labels), ds.true_labels, 2)
        with pytest.raises(ValueError, match="class 1"):
            balanced_index(ds, 4)

    def test_cached_class_rows_match_per_call_scan(self):
        full = synth_gaussian_mixture(4, 3, 1.0, [12, 7, 5, 3], make_rng(16))
        hidden = make_rng(17).random(len(full)) < 0.4
        hidden[np.flatnonzero(full.labels == 3)[0]] = False  # keep class 3 labeled
        ds = Dataset(full.features, np.where(hidden, -1, full.labels), full.true_labels, 4)
        assert np.any(ds.labels == -1)
        index = balanced_index(ds, 8)
        cached_rng, inline_rng = make_rng(18), make_rng(18)
        for _ in range(20):
            want = []
            for k in range(4):
                scan = np.flatnonzero(ds.labels == k)
                want.append(scan[inline_rng.integers(0, scan.size, size=2)])
            got = balanced_batch(index, cached_rng)
            assert np.array_equal(got, np.concatenate(want))
            assert np.all(ds.labels[got] >= 0)
        # one draw for all classes leaves the stream where one per class does
        assert cached_rng.bit_generator.state == inline_rng.bit_generator.state

    def test_index_rejects_class_without_labeled_rows(self):
        ds = synth_gaussian_mixture(3, 3, 1.0, [4, 4, 4], make_rng(19))
        ds = Dataset(ds.features, np.where(ds.labels == 2, -1, ds.labels), ds.true_labels, 3)
        with pytest.raises(ValueError, match="class 2 has no labeled rows"):
            balanced_index(ds, 3)

    def test_within_class_uniform(self):
        ds = self.make_labeled()
        index = balanced_index(ds, 5)
        rng = make_rng(15)
        hits = np.zeros(len(ds))
        draws = 10_000
        for _ in range(draws):
            np.add.at(hits, balanced_batch(index, rng), 1)
        # class frequency is exact by construction; rows within a class
        # should be hit uniformly
        for k in range(5):
            rows = np.flatnonzero(ds.labels == k)
            freq = hits[rows] / draws
            assert np.all(np.abs(freq - 1.0 / rows.size) < 0.01)


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        ds = synth_gaussian_mixture(3, 5, 2.0, [4, 3, 2], make_rng(16))
        ds = Dataset(
            ds.features,
            np.where(np.arange(9) % 2 == 0, ds.true_labels, -1),
            ds.true_labels,
            3,
        )
        path = tmp_path / "ds.csv"
        save_csv_dataset(ds, path)
        back = load_csv_dataset(path)
        assert np.array_equal(ds.features, back.features)
        assert np.array_equal(ds.labels, back.labels)
        assert np.array_equal(ds.true_labels, back.true_labels)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_random(self, tmp_path_factory, seed):
        rng = make_rng(seed)
        n, d, k = int(rng.integers(1, 8)), int(rng.integers(1, 5)), int(rng.integers(2, 4))
        truth = rng.integers(0, k, n)
        truth[0] = k - 1  # pin num_classes inference
        labels = np.where(rng.random(n) < 0.5, truth, -1)
        scale = 10.0 ** float(rng.integers(-8, 8))
        ds = Dataset(rng.standard_normal((n, d)) * scale, labels, truth, k)
        path = tmp_path_factory.mktemp("csv") / "ds.csv"
        save_csv_dataset(ds, path)
        back = load_csv_dataset(path)
        assert np.array_equal(ds.features, back.features)
        assert np.array_equal(ds.labels, back.labels)
        assert np.array_equal(ds.true_labels, back.true_labels)

    def test_all_unlabeled(self, tmp_path):
        ds = synth_gaussian_mixture(2, 2, 1.0, [3, 3], make_rng(17))
        ds = Dataset(ds.features, np.full(6, -1), ds.true_labels, 2)
        path = tmp_path / "u.csv"
        save_csv_dataset(ds, path)
        assert np.all(load_csv_dataset(path).labels == -1)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        lines = ["f0,f1,label,true_label"]
        for i in range(8):
            lines.append("0.5,1.5,0,0")
        lines[6] = "0.5,oops,0,0"  # file line 7
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 7"):
            load_csv_dataset(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("f0,f1,label,true_label\n1.0,2.0,0,0\n1.0,0,0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv_dataset(path)

    def test_label_out_of_range_reports_line(self, tmp_path):
        path = tmp_path / "range.csv"
        path.write_text("f0,label,true_label\n1.0,0,0\n2.0,5,1\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv_dataset(path)

    @pytest.mark.parametrize(
        "row,message",
        [
            ("nan,1,1", r"line 4: non-finite features$"),
            ("2.0,3,1", r"line 4: label 3, true_label 1; labels must lie in \{-1, 0\.\.1\}$"),
            ("2.0,0,1", r"line 4: label 0, true_label 1; labeled rows must have labels == "
                        r"true_labels$"),
        ],
        ids=["nan-feature", "label-out-of-range", "label-differs-from-true-label"],
    )
    def test_bad_value_reports_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "values.csv"
        path.write_text(f"f0,label,true_label\n1.0,0,0\n1.5,-1,1\n{row}\n0.5,1,1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            load_csv_dataset(path)


class TestDatasetInvariants:
    def test_labeled_rows_must_match_truth(self):
        with pytest.raises(ValueError, match="labels == true_labels"):
            Dataset(np.zeros((2, 2)), np.array([0, 1]), np.array([0, 0]), 2)

    def test_label_range_checked(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(np.zeros((1, 2)), np.array([3]), np.array([0]), 2)

    @pytest.mark.parametrize(
        "features,labels,truth,row,rule",
        [
            ([[0.0], [np.inf], [np.nan]], [0, 1, 1], [0, 1, 1], 1, "non-finite features"),
            ([[0.0], [1.0], [2.0]], [0, -1, -2], [0, 1, 1], 2, "label -2, true_label 1; labels"),
            ([[0.0], [1.0], [2.0]], [0, -1, -1], [0, 2, 2], 1, "label -1, true_label 2; true_labels"),
            ([[0.0], [1.0], [2.0]], [0, -1, 0], [0, 1, 1], 2, "label 0, true_label 1; labeled rows"),
        ],
        ids=["features", "labels", "true_labels", "labels-differ"],
    )
    def test_first_bad_row_named(self, features, labels, truth, row, rule):
        with pytest.raises(BadRow, match=f"^row {row}: {re.escape(rule)}") as info:
            Dataset(np.array(features), np.array(labels), np.array(truth), 2)
        assert info.value.row == row and info.value.rule.startswith(rule)


def test_one_hot_rejects_labels_outside_range():
    assert one_hot(np.array([2, 0]), 3).tolist() == [[0, 0, 1], [1, 0, 0]]
    with pytest.raises(ValueError, match=r"label -1 outside 0\.\.2"):
        one_hot(np.array([-1, 0]), 3)
    with pytest.raises(ValueError, match=r"label 3 outside"):
        one_hot(np.array([0, 3]), 3)
