"""Desk-scale end-to-end benchmark: a long-tailed Gaussian-mixture task where
the labeled set is imbalanced and the unlabeled set follows a matched,
uniform, or reversed profile. Trains every mode on shared per-seed data and
yields paired headline metrics (EMA-evaluated, averaged over the last
evaluations) plus the pass/fail verdicts the acceptance suite asserts."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bilevel import MODES, TrainConfig, train
from .data import (
    Dataset, ImbalanceProfile, check_mixture, class_counts, split_counts, synth_gaussian_mixture,
)
from .metrics import evaluate, headline_means
from .numcore import check_seed, make_rng

LABELED_PROFILE = ImbalanceProfile("longtail", 20.0, 100)
# a scenario sets the unlabeled profile's kind; class_counts ignores gamma
# for uniform
UNLABELED_PROFILE = ImbalanceProfile(n1=500)
SCENARIO_KINDS = {"matched": "longtail", "uniform": "uniform", "reversed": "reversed_longtail"}
SCENARIOS = tuple(SCENARIO_KINDS)


@dataclass
class BenchmarkSettings:
    # the desk task's shape: class attributes, not fields, so no run sets them
    num_classes = 6
    dim = 16
    test_per_class = 250
    class_separation: float = 3.5
    seeds: tuple = (1, 2, 3, 4, 5)
    scenarios: tuple = SCENARIOS
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
        pseudo_source="plain",
        sigma_weak=0.5,
        sigma_strong=1.5,
        extractor_hidden=(32,),
        feature_dim=16,
        attractor_hidden=32,
    )


def build_benchmark_data(
    settings: BenchmarkSettings, scenario: str, seed: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Per-seed labeled/unlabeled/test datasets drawn from one mixture pool
    so all three share class means."""
    labeled = class_counts(LABELED_PROFILE, settings.num_classes)
    unlabeled_profile = replace(UNLABELED_PROFILE, kind=SCENARIO_KINDS[scenario])
    unlabeled = class_counts(unlabeled_profile, settings.num_classes)
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


def run_single(
    config: TrainConfig, d_l: Dataset, d_u: Dataset, d_test: Dataset,
    eval_interval: int, last_e: int,
) -> dict:
    """Train one mode; returns its cell, the headline numbers: the mean over
    the last `last_e` EMA evaluations of balanced accuracy, recall geometric
    mean, plain accuracy, and worst per-class recall. The interval and
    last_e are trusted: run_benchmark checks them before any group trains."""
    reports = []

    def hook(iteration, state):
        reports.append(evaluate(state, d_test, use_ema=True, distribution=False))

    train(config, d_l, d_u, eval_hook=hook, eval_interval=eval_interval)
    return {
        "mode": config.mode,
        "seed": config.seed,
        **headline_means(reports, last_e),
        "final_bacc": reports[-1].bacc,
        "evals": len(reports),
    }


def _run_group(settings: BenchmarkSettings, scenario: str, seed: int) -> list[dict]:
    """One (scenario, seed) group: its datasets, then every mode's cell in
    MODES order."""
    d_l, d_u, d_test = build_benchmark_data(settings, scenario, seed)
    return [
        run_single(
            benchmark_train_config(settings, mode, seed), d_l, d_u, d_test,
            settings.eval_interval, settings.last_e,
        )
        for mode in MODES
    ]


def _pooled_groups(settings: BenchmarkSettings, groups: list, workers: int):
    """Yields each group's cells in `groups` order, run in `workers`
    spawn-context processes whose BLAS is pinned to one thread."""
    import multiprocessing
    import os
    from concurrent.futures import ProcessPoolExecutor

    # the workers read the pin when NumPy loads, which is before any
    # initializer could run; this process's own BLAS has already started
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            scenarios, seeds = zip(*groups)
            yield from pool.map(_run_group, [settings] * len(groups), scenarios, seeds)
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved


def run_benchmark(settings: BenchmarkSettings, progress=None, workers: int = 1) -> dict:
    """Run every mode of MODES in every (scenario, seed) group, in this
    process or, with `workers` > 1, in that many worker processes; cells merge
    and progress lines print in scenario -> seed -> mode order either way.
    Raises before any group trains or worker starts when the grid is empty,
    names a seed or scenario twice, a negative seed or a scenario outside
    SCENARIOS, the mixture is one check_mixture refuses, eval_interval lies
    outside 1..iters or last_e is negative.
    Returns {"cells": {scenario: {mode: [per-seed dicts]}}, "criteria": ...}."""
    for name, values in (("seeds", settings.seeds), ("scenarios", settings.scenarios)):
        if not values or len(set(values)) < len(values):
            raise ValueError(f"{name} {tuple(values)}: expected at least one, none named twice")
    for seed in settings.seeds:
        check_seed(seed)
    for scenario in settings.scenarios:
        if scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}, expected one of {SCENARIOS}")
    check_mixture(settings.num_classes, settings.dim, settings.class_separation)
    interval, iters = settings.eval_interval, settings.iters
    if not 1 <= interval <= iters:
        raise ValueError(f"evaluation interval {interval} is outside 1..{iters} iterations")
    if settings.last_e < 0:
        raise ValueError(f"last_e: expected >= 0, got {settings.last_e!r}")
    groups = [(scenario, seed) for scenario in settings.scenarios for seed in settings.seeds]
    if workers > 1:
        results = _pooled_groups(settings, groups, workers)
    else:
        results = (_run_group(settings, *group) for group in groups)
    cells = {scenario: {mode: [] for mode in MODES} for scenario in settings.scenarios}
    for (scenario, seed), group_cells in zip(groups, results):
        for cell in group_cells:
            cells[scenario][cell["mode"]].append(cell)
            if progress is not None:
                progress(
                    f"{scenario:9s} seed {seed} {cell['mode']:16s} "
                    f"bACC {cell['bacc']:.4f} GM {cell['gm']:.4f} "
                    f"min-recall {cell['min_recall']:.4f}"
                )
    return {"cells": cells, "criteria": evaluate_criteria(cells, settings)}


def evaluate_criteria(cells: dict, settings: BenchmarkSettings) -> dict:
    """Verdicts: per scenario, (a) l2ac beats baseline on bACC and GM in
    all seeds but one, and in at least one (4 of 5, 1 of 2, 1 of 1), and
    (b) likewise on worst-class recall; (c) over the scenario-aggregated mean
    bACC, the two ablation modes land strictly between baseline and l2ac."""
    out = {}
    need = max(1, len(settings.seeds) - 1)
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
        mode: float(np.mean([out[sc]["mean_bacc"][mode] for sc in cells])) for mode in MODES
    }
    ordering = all(
        aggregate["baseline"] < aggregate[mode] < aggregate["l2ac"]
        for mode in ("plain_attractor", "single_level")
    )
    out["aggregate_mean_bacc"] = aggregate
    out["c_pass"] = ordering
    out["all_pass"] = ordering and all(out[sc]["a_pass"] and out[sc]["b_pass"] for sc in cells)
    return out
