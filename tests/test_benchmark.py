from dataclasses import replace

import pytest

from biasadapt import benchmark
from biasadapt.benchmark import (
    BenchmarkSettings,
    benchmark_train_config,
    build_benchmark_data,
    run_benchmark,
    run_single,
)
from biasadapt.bilevel import MODES

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
        (replace(SMALL, seeds=(1, -100)), r"^seeds: expected >= 0, got -100$"),
    ],
)
def test_run_benchmark_refuses_a_grid_before_any_group_trains(train_calls, settings, message):
    with pytest.raises(ValueError, match=message):
        run_benchmark(settings)
    assert train_calls == []


def test_run_single_refuses_a_run_with_no_evaluation_before_training(train_calls):
    settings = replace(SMALL, iters=50)
    d_l, d_u, d_test = build_benchmark_data(settings, "matched", 1)
    config = benchmark_train_config(settings, "l2ac", 1)
    with pytest.raises(ValueError, match=r"^evaluation interval 100 is outside 1\.\.50 "):
        run_single(config, d_l, d_u, d_test, 100, settings.last_e)
    assert train_calls == []


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
