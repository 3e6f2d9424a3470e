import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd=None):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def test_output_hashes_prints_one_row_per_combination():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_hashes.py"), "--iters", "3"],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    rows = [line.split(" | ") for line in out.splitlines()[2:]]
    assert len(rows) == 24
    assert len({tuple(r[:3]) for r in rows}) == 24
    for row in rows:
        digests = [cell.strip(" |") for cell in row[3:]]
        assert len(digests) == 3 and all(len(d) == 64 for d in digests)


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


@pytest.mark.parametrize(
    "script,args",
    [
        ("run_benchmark.py", ["--seeds", "1", "--scenarios", "matched"]),
        ("compare_schedules.py", []),
    ],
)
def test_experiment_scripts_refuse_runs_with_no_evaluation(tmp_path, script, args):
    proc = run_script(script, *args, "--iters", "50", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stderr == (
        "error: --iters 50 is below the evaluation interval 100, so no run would be evaluated\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_run_benchmark_smoke(tmp_path):
    out = tmp_path / "bench.json"
    proc = run_script(
        "run_benchmark.py", "--seeds", "1", "--scenarios", "matched", "--iters", "100",
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


def test_compare_schedules_smoke():
    proc = run_script("compare_schedules.py", "--iters", "100")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["constant", "theorem_f"]
    assert not any("nan" in line for line in lines)
