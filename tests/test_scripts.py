import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args, cwd=None):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
        str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, "-m", "biasadapt.cli", *args],
        capture_output=True, text=True, timeout=300, cwd=cwd, env=env,
    )


def test_output_hashes_prints_one_row_per_combination():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_hashes.py"), "--iters", "3"],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    rows = [line.split(" | ") for line in out.splitlines()[2:]]
    assert len(rows) == 12
    assert len({tuple(r[:2]) for r in rows}) == 12
    for row in rows:
        digests = [cell.strip(" |") for cell in row[2:]]
        assert len(digests) == 3 and all(len(d) == 64 for d in digests)


def test_outputs_match_the_pinned_digests():
    # the bits of every artifact, pinned; a change that alters them on
    # purpose re-pins tests/golden_outputs.json and says why
    golden = json.loads((ROOT / "tests" / "golden_outputs.json").read_text())
    spec = importlib.util.spec_from_file_location(
        "output_hashes", ROOT / "scripts" / "output_hashes.py")
    hashes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hashes)
    build = hashes.build_provenance()
    pinned = {key: golden["provenance"][key] for key in build}
    assert build == pinned, f"digests pinned on {pinned}, this build is {build}"
    differ, seen = [], []
    for label, mode, digests in hashes.output_digests(golden["iters"]):
        key = f"{label}/{mode}"
        seen.append(key)
        differ += [
            f"{key}/{name}" for name, digest in digests.items()
            if golden["digests"][key][name] != digest
        ]
    assert not differ, "artifacts differ from the pinned digests: " + ", ".join(differ)
    assert seen == list(golden["digests"])


def test_perfbench_patches_resolve():
    # perfbench traces functions by (module, name); a rename in the package
    # must not leave one of its patches pointing at nothing
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracer as tracer_mod
        import worker
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    import biasadapt.benchmark
    import biasadapt.bilevel
    import biasadapt.data
    import biasadapt.harness
    import biasadapt.metrics
    import biasadapt.model
    import biasadapt.numcore
    import biasadapt.pseudo

    pkg = biasadapt
    original = pkg.bilevel.forward_train
    tracer = tracer_mod.Tracer()
    try:
        worker.install_entry(tracer, pkg)
        worker.install_layers(tracer, pkg)
        assert len(tracer._saved) == 35
        for owner, attr, fn in tracer._saved:
            assert callable(fn) and getattr(owner, attr) is not fn, attr
    finally:
        tracer.restore()
    assert pkg.bilevel.forward_train is original


def test_perfbench_spans_fire(tmp_path):
    # a span that never fires reads as a zero layer metric (a traced function
    # called under another name) or fails every repeat (a moved entry); each
    # one must fire in a short run of every mode and of the benchmark grid
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracer as tracer_mod
        import worker
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    import biasadapt.benchmark
    import biasadapt.bilevel
    import biasadapt.data
    import biasadapt.harness
    import biasadapt.metrics
    import biasadapt.model
    import biasadapt.numcore
    import biasadapt.pseudo

    pkg = biasadapt

    class Recording(tracer_mod.Tracer):
        def __init__(self):
            super().__init__()
            self.installed = set()

        def span(self, owner, attr, name, **kwargs):
            self.installed.add(name)
            super().span(owner, attr, name, **kwargs)

    tracer = Recording()
    try:
        worker.install_entry(tracer, pkg)
        worker.install_layers(tracer, pkg)
        for mode in pkg.bilevel.MODES:
            pkg.harness.run_train(pkg.harness.config_from_dict({
                "seed": 3,
                "data": {
                    "dim": 5, "num_classes": 3,
                    "labeled_profile": {"kind": "longtail", "gamma": 3.0, "n1": 12},
                    "unlabeled_profile": {"kind": "uniform", "gamma": 1.0, "n1": 12},
                    "test_per_class": 10,
                },
                "train": {
                    "mode": mode, "iters": 4, "batch_n": 6, "batch_m": 6, "balanced_n": 6,
                    "tau": 0.0, "extractor_hidden": [8], "feature_dim": 4,
                    "attractor_hidden": 4,
                },
                "eval": {"interval": 2, "last_e": 1, "out_dir": str(tmp_path / mode)},
            }))
        pkg.benchmark.run_benchmark(pkg.benchmark.BenchmarkSettings(
            seeds=(1,), scenarios=("matched",), iters=4, eval_interval=2, last_e=1))
    finally:
        tracer.restore()
    assert len(tracer.installed) == 22
    assert sorted(tracer.installed - set(tracer.names)) == []


def test_perfbench_blocks_leave_the_evaluation_out(tmp_path):
    # us_per_iter reads the training time between evaluation-hook calls; a
    # path whose hook escaped the patched `evaluate` name would give its
    # cells one block each, with every evaluation inside
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracer as tracer_mod
        import worker
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    import biasadapt.benchmark
    import biasadapt.harness

    pkg = biasadapt
    tracer = tracer_mod.Tracer()
    try:
        worker.install_entry(tracer, pkg)
        pkg.harness.run_train(pkg.harness.config_from_dict({
            "seed": 3,
            "data": {"dim": 5, "num_classes": 3, "test_per_class": 10},
            "train": {"iters": 6, "batch_n": 6, "batch_m": 6, "balanced_n": 6,
                      "extractor_hidden": [8], "feature_dim": 4, "attractor_hidden": 4},
            "eval": {"interval": 2, "last_e": 1, "out_dir": str(tmp_path / "run")},
        }))
        pkg.benchmark.run_benchmark(pkg.benchmark.BenchmarkSettings(
            seeds=(1,), scenarios=("matched",), iters=6, eval_interval=2, last_e=1))
    finally:
        tracer.restore()
    cells = worker.training_cells(tracer, 2)
    assert [len(cell["blocks"]) for cell in cells] == [3] * 5


@pytest.mark.parametrize(
    "command,args",
    [
        ("benchmark", ["--seeds", "1", "--scenarios", "matched"]),
    ],
    ids=["run_benchmark.py-args0"],
)
def test_experiment_scripts_refuse_runs_with_no_evaluation(tmp_path, command, args):
    proc = run_cli(command, *args, "--iters", "50", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == "error: evaluation interval 100 is outside 1..50 iterations\n"
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [["--seeds", "1", "1"], ["--scenarios", "matched", "matched"], ["--modes", "baseline", "l2ac"]],
)
def test_run_benchmark_refuses_a_grid_before_training(tmp_path, args):
    out = tmp_path / "bench.json"
    proc = run_cli("benchmark", "--iters", "100", *args, "--out", str(out))
    assert proc.returncode == 2
    assert len([line for line in proc.stderr.splitlines() if "error:" in line]) == 1
    assert proc.stdout == ""
    assert not out.exists()


def test_run_benchmark_smoke(tmp_path):
    out = tmp_path / "bench.json"
    proc = run_cli(
        "benchmark", "--seeds", "1", "--scenarios", "matched", "--iters", "100",
        "--out", str(out),
    )
    # one evaluation per run; the pass/fail criteria may go either way
    assert proc.returncode in (0, 1), proc.stderr
    cells = json.loads(out.read_text())["cells"]["matched"]
    assert sorted(cells) == sorted(["baseline", "plain_attractor", "single_level", "l2ac"])
    assert all(len(runs) == 1 and runs[0]["evals"] == 1 for runs in cells.values())
    lines = proc.stdout.splitlines()
    assert lines[-1] in ("all criteria: PASS", "all criteria: FAIL")
    assert any(line.startswith("matched   bACC+GM wins ") for line in lines)


@pytest.mark.parametrize(
    "args,message",
    [
        # the worker process's TrainingDiverged reaches main's error rule whole
        (["benchmark", "--seeds", "1", "--scenarios", "matched", "--iters", "200",
          "--separation", "1e8"], "iteration 5: non-finite grad_norm_theta (inf)"),
    ],
    ids=["benchmark-diverges"],
)
def test_experiments_fail_with_one_error_line_and_no_output(tmp_path, args, message):
    proc = run_cli(*args, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("taken_by", ["directory", "file"])
def test_benchmark_refuses_an_out_it_cannot_write_before_training(tmp_path, taken_by):
    # --out names a directory, or a path under a file: refused before the
    # grid trains, and nothing is created
    taken = tmp_path / "taken"
    if taken_by == "directory":
        taken.mkdir()
        out, reason = taken, "is a directory"
    else:
        taken.write_text("")
        out, reason = taken / "sub" / "bench.json", f"{taken} is not a directory"
    proc = run_cli(
        "benchmark", "--seeds", "1", "--scenarios", "matched", "--iters", "100",
        "--out", str(out),
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: --out {out}: {reason}\n"
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == [taken]
    assert taken.is_file() or list(taken.iterdir()) == []
