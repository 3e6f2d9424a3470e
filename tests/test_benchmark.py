import dataclasses
import math
from dataclasses import replace
from pathlib import Path

import pytest

from biasadapt import benchmark
from biasadapt.benchmark import (
    LABELED_PROFILE,
    SCENARIO_KINDS,
    SCENARIOS,
    UNLABELED_PROFILE,
    BenchmarkSettings,
    benchmark_train_config,
    evaluate_criteria,
    run_benchmark,
)
from biasadapt.bilevel import MODES
from biasadapt.harness import DataConfig, load_config

ROOT = Path(__file__).resolve().parent.parent

SMALL = BenchmarkSettings(seeds=(1,), scenarios=("matched",), iters=100)


@pytest.fixture
def train_calls(monkeypatch):
    calls = []
    real = benchmark.train

    def counting(*args, **kwargs):
        calls.append(args[0].mode)
        return real(*args, **kwargs)

    monkeypatch.setattr(benchmark, "train", counting)
    return calls


@pytest.mark.parametrize(
    "settings,message",
    [
        (replace(SMALL, seeds=()), r"^seeds \(\): expected"),
        (replace(SMALL, seeds=(1, 1)), r"^seeds \(1, 1\): expected"),
        (replace(SMALL, scenarios=("matched", "matched")), r"^scenarios \('matched', 'matched'\)"),
        (replace(SMALL, iters=50), r"^evaluation interval 100 is outside 1\.\.50 "),
        (replace(SMALL, eval_interval=0), r"^evaluation interval 0 is outside 1\.\.100 "),
        (replace(SMALL, scenarios=("matched", "skewed")), r"^unknown scenario 'skewed'"),
        (replace(SMALL, last_e=-1), r"^last_e: expected >= 0, got -1$"),
        (replace(SMALL, seeds=(1, -100)), r"^seed: expected >= 0, got -100$"),
        (replace(SMALL, class_separation=-1.0), r"^class_separation: expected >= 0, got -1\.0$"),
        (replace(SMALL, class_separation=math.nan), r"^class_separation: expected >= 0, got nan$"),
    ],
)
def test_run_benchmark_refuses_a_grid_before_any_group_trains(train_calls, settings, message):
    with pytest.raises(ValueError, match=message):
        run_benchmark(settings)
    assert train_calls == []


@pytest.mark.parametrize(
    "settings,message",
    [
        (replace(SMALL, iters=50), r"^evaluation interval 100 is outside 1\.\.50 "),
    ],
    ids=["iters=50"],
)
def test_run_benchmark_refuses_a_grid_before_any_worker_starts(
    monkeypatch, train_calls, settings, message
):
    # the workers would run their groups out of this process, where
    # train_calls cannot see them; the grid must be refused before the pool
    pooled = []

    def pool(*args):
        pooled.append(args)
        return iter(())

    monkeypatch.setattr(benchmark, "_pooled_groups", pool)
    with pytest.raises(ValueError, match=message):
        run_benchmark(settings, workers=2)
    assert pooled == [] and train_calls == []


def test_worker_processes_give_the_in_process_cells_in_order():
    settings = replace(SMALL, seeds=(1, 2))
    lines = {1: [], 2: []}
    results = {
        workers: run_benchmark(settings, progress=lines[workers].append, workers=workers)
        for workers in (1, 2)
    }
    assert results[2] == results[1]
    assert lines[2] == lines[1]
    assert [line.split()[:3] for line in lines[1]] == [
        ["matched", "seed", str(seed)] for seed in (1, 2) for _ in MODES
    ]


def test_example_config_is_the_benchmarks_reversed_l2ac_cell():
    # the desk task is stated twice, in configs/example.yaml and in
    # BenchmarkSettings with benchmark_train_config; this keeps them equal
    config = load_config(ROOT / "configs" / "example.yaml")
    settings = BenchmarkSettings()
    # run_train derives the train seed from the master seed
    train = dataclasses.asdict(benchmark_train_config(settings, "l2ac", config.train.seed))
    assert dataclasses.asdict(config.train) == train
    assert config.data == DataConfig(
        dim=settings.dim,
        num_classes=settings.num_classes,
        class_separation=settings.class_separation,
        labeled_profile=LABELED_PROFILE,
        unlabeled_profile=replace(UNLABELED_PROFILE, kind=SCENARIO_KINDS["reversed"]),
        test_per_class=settings.test_per_class,
    )
    assert (config.eval.interval, config.eval.last_e) == (settings.eval_interval, settings.last_e)


def test_a_win_verdict_needs_every_seed_but_one_and_at_least_one():
    for n_seeds, need in ((1, 1), (2, 1), (5, 4)):
        settings = replace(SMALL, seeds=tuple(range(1, n_seeds + 1)), scenarios=SCENARIOS)
        for wins in range(n_seeds + 1):
            # l2ac scores 0.95 in its first `wins` seeds and 0.5 in the rest,
            # against 0.9 for every other mode in every seed
            scores = {mode: [0.9] * n_seeds for mode in MODES}
            scores["l2ac"] = [0.95] * wins + [0.5] * (n_seeds - wins)
            cells = {
                scenario: {mode: [{"bacc": v, "gm": v, "min_recall": v} for v in values]
                           for mode, values in scores.items()}
                for scenario in SCENARIOS
            }
            criteria = evaluate_criteria(cells, settings)
            for scenario in SCENARIOS:
                row = criteria[scenario]
                assert (row["wins_bacc_gm"], row["wins_min_recall"]) == (wins, wins)
                assert row["a_pass"] == row["b_pass"] == (wins >= need), (n_seeds, wins)
