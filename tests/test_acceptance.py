"""Acceptance gate: every criterion exercised at its stated tolerance, one
printed pass/fail line each. Run with `pytest tests/test_acceptance.py -v -s`."""

import math
import os
import time

import numpy as np
import pytest

from biasadapt.benchmark import (
    BenchmarkSettings,
    build_benchmark_data,
    run_benchmark,
)
from biasadapt.data import (
    Dataset,
    ImbalanceProfile,
    balanced_batch,
    balanced_index,
    class_counts,
    synth_gaussian_mixture,
)
from biasadapt.metrics import balanced_accuracy, geometric_mean
from biasadapt.numcore import make_rng
from biasadapt.selfcheck import (
    check_cross_entropy_grad,
    check_eval_ignores_head,
    check_hypergrad_fd,
    check_hypergrad_oracle,
    check_lower_gradients,
    check_masking,
    check_residual_identity,
    check_theta_isolation,
    check_upper_gradient,
)


def report(num, passed, detail):
    line = f"{'PASS' if passed else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert passed, line


def test_criterion_1_hypergradient_oracle():
    t0 = time.monotonic()
    _, passed, detail = check_hypergrad_oracle(make_rng(2024), trials=120)
    elapsed = time.monotonic() - t0
    report(
        1,
        passed and elapsed < 10.0,
        f"unrolled vs closed-form over 120 instances: {detail} (tol 1e-6), "
        f"{elapsed:.1f}s (< 10s), same sign convention",
    )


def test_criterion_2_finite_difference_suite():
    rng = make_rng(2025)
    t0 = time.monotonic()
    checks = [
        check(rng)
        for check in (
            check_cross_entropy_grad, check_lower_gradients, check_upper_gradient, check_hypergrad_fd,
        )
    ]
    elapsed = time.monotonic() - t0
    report(
        2,
        all(ok for _, ok, _ in checks) and elapsed < 30.0,
        "analytic vs central differences: "
        + "; ".join(f"{name} {detail}" for name, _, detail in checks)
        + f" (tol 1e-6, composite 1e-5), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_masking_soundness():
    _, passed, _ = check_masking(make_rng(2026))
    report(3, passed, "fully masked unlabeled batch leaves every parameter gradient bitwise unchanged")


def test_criterion_4_residual_and_removal_identities():
    rng = make_rng(2027)
    checks = [
        check(rng) for check in (check_residual_identity, check_eval_ignores_head, check_theta_isolation)
    ]
    report(
        4,
        all(ok for _, ok, _ in checks),
        "zero head output => train path == eval path; head mutation invisible at eval; "
        "head step leaves extractor and classifier bitwise unchanged",
    )


def test_criterion_5_dataset_recipes():
    counts = class_counts(ImbalanceProfile("longtail", 100.0, 1500), 10)
    endpoints_ok = counts[0] == 1500 and counts[-1] == 15 and counts[0] / counts[-1] == 100.0

    lt = class_counts(ImbalanceProfile("longtail", 20.0, 100), 6)
    rev = class_counts(ImbalanceProfile("reversed_longtail", 20.0, 100), 6)
    reversed_ok = rev.tolist() == lt.tolist()[::-1]

    ds = synth_gaussian_mixture(5, 4, 2.0, [9, 7, 5, 3, 1], make_rng(11))
    rng = make_rng(12)
    stratified_ok = all(
        np.bincount(ds.labels[balanced_batch(balanced_index(ds, 20), rng)], minlength=5).tolist()
        == [4] * 5
        for _ in range(50)
    )
    report(
        5,
        bool(endpoints_ok and reversed_ok and stratified_ok),
        f"longtail endpoints {counts[0]}/{counts[-1]} = 100 exactly; reversed = reverse(longtail); "
        "50/50 balanced batches exactly stratified",
    )


def test_criterion_6_metric_identities():
    cm = np.array([[8, 0], [3, 3]])
    hand_ok = balanced_accuracy(cm) == 0.75 and abs(geometric_mean(cm) - math.sqrt(0.5)) < 1e-12

    rng = make_rng(13)
    amgm_ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 8))
        rand_cm = rng.integers(0, 40, size=(k, k))
        rand_cm[np.arange(k), np.arange(k)] += 1
        amgm_ok &= geometric_mean(rand_cm) <= balanced_accuracy(rand_cm) + 1e-12

    dup_ok = True
    for _ in range(100):
        k = int(rng.integers(2, 6))
        rand_cm = rng.integers(0, 30, size=(k, k))
        rand_cm[np.arange(k), np.arange(k)] += 1
        dup = np.diag(rng.integers(1, 9, size=k)) @ rand_cm
        dup_ok &= abs(balanced_accuracy(dup) - balanced_accuracy(rand_cm)) < 1e-12
        dup_ok &= abs(geometric_mean(dup) - geometric_mean(rand_cm)) < 1e-12
    report(
        6,
        bool(hand_ok and amgm_ok and dup_ok),
        "bACC/GM on [1.0, 0.5] recalls = 0.75 / 0.7071...; GM <= bACC on 1000 random "
        "matrices; per-class duplication invariance on 100",
    )


@pytest.fixture(scope="module")
def benchmark_results():
    settings = BenchmarkSettings(class_separation=3.5)
    t0 = time.monotonic()
    results = run_benchmark(settings, workers=os.cpu_count() or 1)
    results["elapsed"] = time.monotonic() - t0
    results["settings"] = settings
    return results


@pytest.mark.slow
def test_criterion_7_desk_scale_benchmark(benchmark_results, linear_probe_bacc):
    settings = benchmark_results["settings"]

    probe_floor = 1.0
    for scenario in settings.scenarios:
        d_l, d_u, d_test = build_benchmark_data(settings, scenario, settings.seeds[0])
        full = Dataset(
            np.vstack([d_l.features, d_u.features]),
            np.concatenate([d_l.true_labels, d_u.true_labels]),
            np.concatenate([d_l.true_labels, d_u.true_labels]),
            settings.num_classes,
        )
        probe_floor = min(probe_floor, linear_probe_bacc(full, d_test))

    crit = benchmark_results["criteria"]
    elapsed = benchmark_results["elapsed"]
    per_scenario = {
        sc: (crit[sc]["wins_bacc_gm"], crit[sc]["wins_min_recall"])
        for sc in settings.scenarios
    }
    agg = crit["aggregate_mean_bacc"]
    detail = (
        f"probe >= 0.95 (min {probe_floor:.3f}); per-scenario (bACC+GM wins, min-recall wins) "
        f"out of 5 seeds: {per_scenario}; aggregate mean bACC "
        f"baseline {agg['baseline']:.4f} < plain_attractor {agg['plain_attractor']:.4f} "
        f"< single_level... < l2ac {agg['l2ac']:.4f} ordering {crit['c_pass']}; "
        f"runtime {elapsed:.0f}s (< 600s)"
    )
    report(7, probe_floor >= 0.95 and crit["all_pass"] and elapsed < 600.0, detail)


def test_criterion_8_second_order_overhead():
    from biasadapt.harness import ExperimentConfig, bench_overhead

    result = bench_overhead(ExperimentConfig(), reps=30)
    report(
        8,
        result["ratio"] <= 2.0,
        f"backward-on-backward / full lower backward = {result['ratio']:.2f} "
        f"(claimed <= 1.0, asserted with 2x timer margin), / l2ac's lower backward "
        f"= {result['ratio_l2ac']:.2f} (not asserted); classifier holds "
        f"{result['params_ratio']:.1%} of parameters",
    )


def test_criterion_9_determinism(tmp_path):
    from biasadapt.harness import config_from_dict, run_train

    def payload(out):
        return {
            "seed": 11,
            "data": {
                "dim": 8,
                "num_classes": 4,
                "class_separation": 3.0,
                "labeled_profile": {"kind": "longtail", "gamma": 10.0, "n1": 30},
                "unlabeled_profile": {"kind": "uniform", "gamma": 1.0, "n1": 50},
                "test_per_class": 30,
            },
            "train": {
                "mode": "l2ac", "alpha": 0.05, "eta": 1.0, "tau": 0.7,
                "batch_n": 16, "batch_m": 32, "balanced_n": 16, "iters": 200,
                "extractor_hidden": [16], "feature_dim": 8, "attractor_hidden": 16,
                "seed": 11,
            },
            "eval": {"interval": 50, "last_e": 2, "out_dir": str(out)},
        }

    run_train(config_from_dict(payload(tmp_path / "a")))
    run_train(config_from_dict(payload(tmp_path / "b")))
    metrics_same = (tmp_path / "a" / "metrics.json").read_bytes() == (
        tmp_path / "b" / "metrics.json"
    ).read_bytes()
    trace_same = (tmp_path / "a" / "trace.csv").read_bytes() == (
        tmp_path / "b" / "trace.csv"
    ).read_bytes()
    report(
        9,
        metrics_same and trace_same,
        "two runs with identical config+seed: trace.csv and metrics.json byte-identical",
    )
