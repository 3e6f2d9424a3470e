"""Desk-scale end-to-end benchmark: a long-tailed Gaussian-mixture task where
the labeled set is imbalanced and the unlabeled set follows a matched,
uniform, or reversed profile. Trains every mode on shared per-seed data and
yields paired headline metrics (EMA-evaluated, averaged over the last
evaluations) plus the pass/fail verdicts the acceptance suite asserts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bilevel import TrainConfig, train
from .data import (
    Dataset, ImbalanceProfile, class_counts, one_hot, split_counts, synth_gaussian_mixture
)
from .metrics import balanced_accuracy, confusion, evaluate, headline_means
from .numcore import log_softmax, make_rng, weighted_ce

SCENARIOS = ("matched", "uniform", "reversed")
BENCH_MODES = ("baseline", "plain_attractor", "single_level", "l2ac")


@dataclass
class BenchmarkSettings:
    num_classes: int = 6
    dim: int = 16
    class_separation: float = 3.0
    labeled_n1: int = 100
    labeled_gamma: float = 20.0
    unlabeled_m1: int = 500
    unlabeled_gamma: float = 20.0
    test_per_class: int = 250
    seeds: tuple = (1, 2, 3, 4, 5)
    scenarios: tuple = SCENARIOS
    modes: tuple = BENCH_MODES
    iters: int = 4000
    eval_interval: int = 100
    last_e: int = 20


def benchmark_train_config(settings: BenchmarkSettings, mode: str, seed: int) -> TrainConfig:
    """Hyperparameters tuned for the desk-scale task; every mode shares them.

    The confidence threshold sits lower than the image-scale default so the
    early majority-biased pseudo-labels actually flow in and stress the
    baseline the way large-scale training does; weak/strong noise at 0.5/1.5
    gives the consistency objective real work on unit-variance clusters."""
    return TrainConfig(
        mode=mode,
        seed=seed,
        iters=settings.iters,
        alpha=0.08,
        eta=3.0,
        tau=0.8,
        lambda_u=1.0,
        batch_n=64,
        batch_m=128,
        balanced_n=60,
        ema_decay=0.999,
        lambda_bal=1.0,
        pseudo_source="plain",
        sigma_weak=0.5,
        sigma_strong=1.5,
        extractor_hidden=(32,),
        feature_dim=16,
        attractor_hidden=32,
        attractor_norm="softmax_input",
    )


def unlabeled_profile(settings: BenchmarkSettings, scenario: str) -> ImbalanceProfile:
    k = settings.num_classes
    if scenario == "matched":
        return ImbalanceProfile("longtail", settings.unlabeled_gamma, settings.unlabeled_m1, k)
    if scenario == "uniform":
        return ImbalanceProfile("uniform", 1.0, settings.unlabeled_m1, k)
    if scenario == "reversed":
        return ImbalanceProfile("reversed_longtail", settings.unlabeled_gamma, settings.unlabeled_m1, k)
    raise ValueError(f"unknown scenario {scenario!r}")


def build_benchmark_data(
    settings: BenchmarkSettings, scenario: str, seed: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Per-seed labeled/unlabeled/test datasets drawn from one mixture pool
    so all three share class means."""
    labeled = class_counts(
        ImbalanceProfile("longtail", settings.labeled_gamma, settings.labeled_n1, settings.num_classes)
    )
    unlabeled = class_counts(unlabeled_profile(settings, scenario))
    test = np.full(settings.num_classes, settings.test_per_class, dtype=np.int64)
    rng = make_rng(90_000 + 1000 * seed + SCENARIOS.index(scenario))
    pool = synth_gaussian_mixture(
        settings.num_classes,
        settings.dim,
        settings.class_separation,
        labeled + unlabeled + test,
        rng,
    )
    d_l, d_u, d_test = split_counts(pool, [labeled, unlabeled, test], [True, False, True], rng)
    return d_l, d_u, d_test


def linear_probe_bacc(
    train_ds: Dataset,
    test_ds: Dataset,
    iters: int = 400,
    lr: float = 0.5,
    balanced: bool = True,
) -> float:
    """Full-batch softmax regression on raw features with true labels; the
    fully-supervised sanity probe for mixture separability. Per-class
    balanced weighting by default so the probe measures separability rather
    than inheriting the pool's imbalance."""
    x = train_ds.features
    truth = train_ds.true_labels
    k = train_ds.num_classes
    y = one_hot(truth, k)
    if balanced:
        counts = np.bincount(truth, minlength=k).astype(np.float64)
        weights = (1.0 / (k * counts))[truth]
    else:
        weights = np.full(x.shape[0], 1.0 / x.shape[0])
    w = np.zeros((x.shape[1], k))
    b = np.zeros(k)
    for _ in range(iters):
        _, _, d = weighted_ce(log_softmax(x @ w + b), y, weights)
        w -= lr * (x.T @ d)
        b -= lr * d.sum(axis=0)
    preds = (test_ds.features @ w + b).argmax(axis=1)
    return balanced_accuracy(confusion(test_ds.true_labels, preds, test_ds.num_classes))


def run_single(
    config: TrainConfig, d_l: Dataset, d_u: Dataset, d_test: Dataset,
    eval_interval: int, last_e: int,
) -> dict:
    """Train one mode and compute headline numbers: the mean over the last
    `last_e` EMA evaluations of balanced accuracy, recall geometric mean,
    plain accuracy, and worst per-class recall."""
    reports = []

    def hook(iteration, state):
        reports.append(evaluate(state, d_test, use_ema=True, distribution=False))

    train(config, d_l, d_u, eval_hook=hook, eval_interval=eval_interval)
    tail = reports[-last_e:] if last_e > 0 else reports
    return {
        "mode": config.mode,
        "seed": config.seed,
        **headline_means(tail),
        "final_bacc": reports[-1].bacc,
        "evals": len(reports),
    }


def run_benchmark(settings: BenchmarkSettings, progress=None) -> dict:
    """Run every (scenario, seed, mode) cell sequentially. Returns
    {"cells": {scenario: {mode: [per-seed dicts]}}, "criteria": ...}."""
    cells: dict = {}
    for scenario in settings.scenarios:
        cells[scenario] = {mode: [] for mode in settings.modes}
        for seed in settings.seeds:
            d_l, d_u, d_test = build_benchmark_data(settings, scenario, seed)
            for mode in settings.modes:
                config = benchmark_train_config(settings, mode, seed)
                result = run_single(
                    config, d_l, d_u, d_test, settings.eval_interval, settings.last_e
                )
                cells[scenario][mode].append(result)
                if progress is not None:
                    progress(
                        f"{scenario:9s} seed {seed} {mode:16s} "
                        f"bACC {result['bacc']:.4f} GM {result['gm']:.4f} "
                        f"min-recall {result['min_recall']:.4f}"
                    )
    return {"cells": cells, "criteria": evaluate_criteria(cells, settings)}


def evaluate_criteria(cells: dict, settings: BenchmarkSettings) -> dict:
    """Verdicts: per scenario, (a) l2ac beats baseline on bACC and GM in
    >= 4/5 seeds and (b) likewise on worst-class recall; (c) over the
    scenario-aggregated mean bACC, the two ablation modes land strictly
    between baseline and l2ac."""
    out = {}
    n_seeds = len(settings.seeds)
    need = n_seeds - 1
    for scenario, by_mode in cells.items():
        baseline = by_mode["baseline"]
        l2ac = by_mode["l2ac"]
        wins_pair = sum(
            1
            for b, a in zip(baseline, l2ac)
            if a["bacc"] > b["bacc"] and a["gm"] > b["gm"]
        )
        wins_min = sum(
            1 for b, a in zip(baseline, l2ac) if a["min_recall"] > b["min_recall"]
        )
        means = {mode: float(np.mean([r["bacc"] for r in rs])) for mode, rs in by_mode.items()}
        out[scenario] = {
            "wins_bacc_gm": wins_pair,
            "wins_min_recall": wins_min,
            "mean_bacc": means,
            "a_pass": wins_pair >= need,
            "b_pass": wins_min >= need,
        }
    aggregate = {
        mode: float(np.mean([np.mean([r["bacc"] for r in cells[sc][mode]]) for sc in cells]))
        for mode in next(iter(cells.values()))
    }
    ordering = all(
        aggregate["baseline"] < aggregate[mode] < aggregate["l2ac"]
        for mode in ("plain_attractor", "single_level")
        if mode in aggregate
    )
    out["aggregate_mean_bacc"] = aggregate
    out["c_pass"] = ordering
    out["all_pass"] = ordering and all(
        v["a_pass"] and v["b_pass"]
        for k, v in out.items()
        if isinstance(v, dict) and "a_pass" in v
    )
    return out
