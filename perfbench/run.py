#!/usr/bin/env python3
"""biasadapt benchmark: end-to-end and per-layer metrics, measured from outside.

    python3 perfbench/run.py --workload desk_l2ac --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from a checkout of the repository; the package is imported from its
`src/` directory. Each repeat of a workload is a fresh `python3
perfbench/worker.py` process, one at a time (closed loop, no pools), with
OpenBLAS held to one thread. The seed generates the workload's config; the
program receives only that config.

Workloads (see BENCHMARK.json for why each exists):

* desk_l2ac   - configs/example.yaml through harness.run_train;
* paper_scale - a CIFAR-10-LT-shaped l2ac config through harness.run_train;
* mode_grid   - benchmark.run_benchmark, 3 scenarios x 4 modes, one seed;
* all         - each of the above in turn, with one combined JSON line whose
                metric names are prefixed with the workload.

`--trace 0` runs start-up-only processes and untraced repeats until
`--seconds` is spent and reports every `end_to_end` metric of BENCHMARK.json.
`--trace 1` alternates untraced and traced repeats and reports every
`per_layer` metric, with `trace_overhead`, the traced us/iter over the
untraced one. Layer metrics that exist on only one workload path are printed
in the table but left out of the JSON line. The target end-to-end metric of
each layer metric is in perfbench/layers.json.

Checks, each failure counted in `failed`: `selfcheck.run_all()` passes; every
repeat exits cleanly with a finite headline above the workload's floor; the
sha256 of the run's outputs (trace.csv and metrics.json, or the grid's
cells) is equal across all repeats, traced ones included, which shows the
wrappers consume no randomness. The last stdout line is one JSON object; the
exit code is nonzero when any check failed or the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_REPEATS = 2  # untraced repeats per --trace 0 run, even past --seconds
SETUP_PROBES = 9  # extra start-up-only processes per --trace 0 run
HARD_LIMIT_S = 170  # a run ends within 180 s even when a repeat hangs
OVERHEAD_REPS = 100
# bACC far below what every seed reaches on every workload (about 0.95-0.99)
# and far above chance (1/6 or 1/10): a run under it is broken, not unlucky
BACC_FLOOR = 0.8
WORKLOADS = ("desk_l2ac", "paper_scale", "mode_grid")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def workload_spec(name: str, seed: int, pkg) -> dict:
    """Config of one workload for one seed, plus the config at whose shapes
    `bench_overhead` times the second-order step, and the eval interval."""
    harness = pkg.harness
    if name == "desk_l2ac":
        config = harness.config_to_dict(harness.load_config(ROOT / "configs" / "example.yaml"))
        config["seed"] = seed
        return {"kind": "train", "config": config, "overhead_config": config,
                "interval": config["eval"]["interval"]}
    if name == "paper_scale":
        # CIFAR-10-LT counts (gamma 100, n1 1500), matched unlabeled pool
        # (m1 3000), mu = 7 unlabeled rows per labeled row, 1000 test rows per
        # class. EMA decay 0.99 so 1000 iterations give a converged shadow;
        # separation 5.5 so the 15-row tail class is learnt on every seed and
        # min_recall varies little from seed to seed.
        config = {
            "seed": seed,
            "data": {
                "dim": 32, "num_classes": 10, "class_separation": 5.5,
                "labeled_profile": {"kind": "longtail", "gamma": 100.0, "n1": 1500},
                "unlabeled_profile": {"kind": "longtail", "gamma": 100.0, "n1": 3000},
                "test_per_class": 1000,
            },
            "train": {
                "mode": "l2ac", "alpha": 0.08, "eta": 3.0, "tau": 0.8,
                "batch_n": 64, "batch_m": 448, "balanced_n": 100, "iters": 1000,
                "ema_decay": 0.99, "sigma_weak": 0.5, "sigma_strong": 1.5,
                "extractor_hidden": [64], "feature_dim": 32, "attractor_hidden": 256,
            },
            "eval": {"interval": 25, "last_e": 8},
        }
        return {"kind": "train", "config": config, "overhead_config": config, "interval": 25}
    if name == "mode_grid":
        bm = pkg.benchmark
        settings = {"class_separation": 3.5, "seeds": [seed], "iters": 2000,
                    "eval_interval": 100, "last_e": 5}
        s = bm.BenchmarkSettings(**{**settings, "seeds": (seed,)})
        train = harness.config_to_dict(harness.ExperimentConfig(
            train=bm.benchmark_train_config(s, "l2ac", seed)))["train"]
        overhead = {"seed": seed,
                    "data": {"dim": s.dim, "num_classes": s.num_classes},
                    "train": train}
        return {"kind": "grid", "config": settings, "overhead_config": overhead,
                "interval": s.eval_interval}
    raise ValueError(f"unknown workload {name!r}")


def run_child(spec: dict, mode: str, tmp: Path, n: int, env: dict,
              timeout: float) -> tuple[dict | None, str]:
    """One worker process, killed after `timeout` seconds; (result, "") or
    (None, reason)."""
    child = dict(spec, mode=mode, src=str(SRC), result=str(tmp / f"result_{n}.json"),
                 spans=str(tmp / f"spans_{n}.csv"), overhead_reps=OVERHEAD_REPS)
    if spec["kind"] == "train":
        child["config"] = dict(spec["config"], eval=dict(spec["config"]["eval"],
                                                         out_dir=str(tmp / f"run_{n}")))
    spec_path = tmp / f"spec_{n}.json"
    spec_path.write_text(json.dumps(child))
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              env=env, cwd=str(HERE), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"{mode} repeat {n} timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return None, f"{mode} repeat {n} exited {proc.returncode}: {tail[0]}"
    result = json.loads(Path(child["result"]).read_text())
    result["setup_s"] = result["t_first_train"] - t_spawn
    if mode != "setup":
        result["wall_s"] = result["t_done"] - t_spawn
        result["mode"] = mode
        result["spans"] = child["spans"]
    return result, ""


def provenance(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads": THREAD_ENV["OPENBLAS_NUM_THREADS"]},
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is itself a git work tree; None otherwise."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def us_per_iter(runs: list[dict]) -> float:
    """Training wall-clock per iteration, summed over cells: for each cell
    (the k-th training call of a repeat) the median of its blocks pooled over
    the repeats, weighted by the cell's iterations. Medians keep a burst of
    host contention in a few blocks out of the figure."""
    cells = runs[0]["cells"]
    weighted = sum(
        statistics.median([b for r in runs for b in r["cells"][k]["blocks"]]) * cell["iters"]
        for k, cell in enumerate(cells)
    )
    return weighted / sum(cell["iters"] for cell in cells)


def measure(args, spec: dict, env: dict, tmp: Path,
            t_start: float) -> tuple[list, list, list, list[str]]:
    """Run repeats until --seconds is spent; start no repeat that would end
    after the deadline once the minimum is met. Returns (setup-only results,
    untraced, traced, failure reasons)."""
    start = time.monotonic()
    deadline = start + args.seconds
    setups, plain, traced, failures = [], [], [], []
    n = 0

    def one(mode):
        nonlocal n
        n += 1
        t0 = time.monotonic()
        result, reason = run_child(spec, mode, tmp, n, env,
                                   max(1.0, t_start + HARD_LIMIT_S - t0))
        if result is None:
            failures.append(reason)
        else:
            {"setup": setups, "plain": plain, "traced": traced}[mode].append(result)
        return time.monotonic() - t0

    if args.trace:
        last = one("plain") + one("traced")
        while time.monotonic() + last <= deadline:
            last = one("plain") + one("traced")
    else:
        for _ in range(SETUP_PROBES):
            one("setup")
        last = 0.0
        while len(plain) + sum(1 for f in failures if f.startswith("plain")) < MIN_REPEATS \
                or time.monotonic() + last <= deadline:
            last = one("plain")
    return setups, plain, traced, failures


def check(runs: list[dict], failures: list[str]) -> list[dict]:
    """The repeats whose outputs equal the first repeat's and whose headline
    clears the floor; every other repeat is added to `failures`."""
    passing = []
    for r in runs:
        if r["hashes"] != runs[0]["hashes"]:
            failures.append(f"{r['mode']} repeat outputs differ: {r['hashes']} vs {runs[0]['hashes']}")
        elif r["headline"]["bacc"] < BACC_FLOOR:
            failures.append(f"bACC {r['headline']['bacc']} below floor {BACC_FLOOR}")
        else:
            passing.append(r)
    return passing


def end_to_end(setups: list[dict], plain: list[dict]) -> tuple[dict, dict]:
    """(metric values, printed detail) over the untraced repeats."""
    blocks = [b for r in plain for cell in r["cells"] for b in cell["blocks"]]
    headline = plain[0]["headline"]
    values = {
        "setup_s": statistics.median([r["setup_s"] for r in setups + plain]),
        "wall_s": statistics.median([r["wall_s"] for r in plain]),
        "us_per_iter": us_per_iter(plain),
        "us_per_iter_p90": percentile(blocks, 90),
        "peak_rss_mb": statistics.median([r["rss_mb"] for r in plain]),
        "bacc": headline["bacc"],
        "gm": headline["gm"],
        "min_recall": headline["min_recall"],
    }
    detail = {
        "setup_s": f"median of {len(setups) + len(plain)} processes",
        "wall_s": f"median of {len(plain)} repeats",
        "us_per_iter": f"per-cell medians of {len(blocks)} blocks",
        "us_per_iter_p90": f"p90 of {len(blocks)} blocks"
        + ("" if len(blocks) >= 100 else " (under 100: fewer than 10 above p90)"),
        "peak_rss_mb": f"median of {len(plain)} processes",
    }
    return values, detail


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    names = traced[0]["layers"].keys()
    values = {k: statistics.median([r["layers"][k] for r in traced]) for k in names}
    values["trace_overhead"] = us_per_iter(traced) / us_per_iter(plain)
    return values


def bench_workload(workload: str, args, pkg, bench: dict, layers: dict, env: dict) -> dict:
    """Measure one workload, print its table and return its JSON result."""
    t_start = time.monotonic()
    prov = provenance(workload, args.seed)
    print("provenance " + json.dumps(prov, sort_keys=True))
    spec = workload_spec(workload, args.seed, pkg)
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}_", dir=WORK))
    try:
        setups, plain, traced, failures = measure(args, spec, env, tmp, t_start)
        attempted = len(setups) + len(plain) + len(traced) + len(failures)
        passing = check(plain + traced, failures)
        plain = [r for r in passing if r["mode"] == "plain"]
        traced = [r for r in passing if r["mode"] == "traced"]
        if traced:
            shutil.copy(traced[-1]["spans"], WORK / f"spans_{workload}_seed{args.seed}.csv")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"{workload} seed {args.seed}: {len(setups)} start-up-only, {len(plain)} untraced, "
          f"{len(traced)} traced processes; attempted {attempted}, failed {len(failures)}, "
          f"fail_rate {len(failures) / attempted:.4f}")
    for reason in failures:
        print(f"  FAILED {reason}")
    metrics: dict = {}
    report = {"provenance": prov, "attempted": attempted, "failures": failures}
    if plain and (traced or not args.trace):
        report["cells"] = [r["cells"] for r in plain]
        report["hashes"] = plain[0]["hashes"]
        report["headline"] = plain[0]["headline"]
        print("outputs sha256 " + " ".join(f"{k}={v}" for k, v in sorted(plain[0]["hashes"].items())))
        if args.trace:
            values, detail = per_layer(plain, traced), {}
            declared = bench["per_layer"]
            print(f"per-layer, median of {len(traced)} traced repeats; "
                  "target = end-to-end metric @ workload it should move")
        else:
            values, detail = end_to_end(setups, plain)
            declared = bench["end_to_end"]
            print("end-to-end, untraced")
        units = {m["name"]: m["unit"] for m in declared}
        for name, value in values.items():
            note = detail.get(name, "")
            if name in layers:
                note = f"-> {layers[name]['target']} @ {', '.join(layers[name]['workloads'])}"
            unit = units.get(name, "s" if name.endswith(".s") else "")
            print(f"  {name:48s} {value:14.6g} {unit:8s} {note}")
        for name, value in sorted(plain[0]["headline"].items()):
            if name not in values:
                print(f"  {name:48s} {value:14.6g} {'fraction':8s} (not in the JSON line)")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
        report["metrics"] = values
    elif not failures:
        failures.append("no passing repeat to measure")
    (WORK / f"report_{workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_path = ROOT / "BENCHMARK.json"
    if not (SRC / "biasadapt" / "__init__.py").is_file() or not bench_path.is_file():
        print(f"no biasadapt package under {SRC} or no {bench_path.name}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    os.environ.update(THREAD_ENV)
    env = {k: v for k, v in os.environ.items() if k != "BIASADAPT_OUT"}
    sys.path.insert(0, str(SRC))
    import biasadapt.benchmark
    import biasadapt.harness
    import biasadapt.selfcheck

    failed_checks = [c[0] for c in biasadapt.selfcheck.run_all() if not c[1]]
    if failed_checks:
        print(f"selfcheck failed: {failed_checks}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    if args.workload != "all":
        result = bench_workload(args.workload, args, biasadapt, bench, layers, env)
    else:  # every workload in turn; metric names prefixed with the workload
        results = {w: bench_workload(w, args, biasadapt, bench, layers, env) for w in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
