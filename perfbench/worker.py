"""One repeat of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

SPEC names the package source directory, the workload kind (`train`: one
`harness.run_train`; `grid`: one `benchmark.run_benchmark`), its generated
config, the artifact directory and the repeat mode:

* `plain`  - the workload with only the training entry and the evaluation
  hook timed (one span per call, a few hundred per run), for end-to-end
  numbers;
* `traced` - every layer boundary in `layers.json` wrapped, for per-layer
  numbers, then `harness.bench_overhead` at the workload's shapes;
* `setup`  - start-up only: the process stops at the first training call.

The result is written as JSON to SPEC's `result` path. Any exception, a
diverged run included, leaves no result and a nonzero exit code.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import ROOT, Tracer

TRAIN = "bilevel.train"
EVALUATE = "metrics.evaluate"


class _ReachedTraining(Exception):
    """Raised in place of the first training call of a `setup` repeat."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _note_pseudo(tracer: Tracer, out) -> None:
    lam = out[1]
    tracer.pseudo_drawn += lam.size
    tracer.pseudo_accepted += int((lam > 0.0).sum())


def install_entry(tracer: Tracer, pkg) -> None:
    """Spans on the training entry and the evaluation hook of both paths."""
    for mod in (pkg.harness, pkg.benchmark):
        tracer.span(mod, "train", TRAIN, info=lambda a: a[0].iters)
        tracer.span(mod, "evaluate", EVALUATE)


def install_layers(tracer: Tracer, pkg) -> None:
    """Spans at every layer boundary the training loop, the evaluation and the
    set-up cross, under the names the callers look them up by."""
    bl, md, hs, bm = pkg.bilevel, pkg.model, pkg.harness, pkg.benchmark
    tracer.span(bl, "balanced_batch", "data.balanced_batch")
    tracer.span(bl, "one_hot", "data.one_hot")
    tracer.span(bl, "augment", "pseudo.augment")
    tracer.span(bl, "assign_pseudo_labels", "pseudo.assign_pseudo_labels", after=_note_pseudo)
    tracer.span(bl, "forward_train", "model.forward_train", rows_arg=0)
    for mod in (bl, md):
        tracer.span(mod, "features_with_cache", "model.features_with_cache", rows_arg=0)
    tracer.span(bl, "features_backward", "model.features_backward", rows_arg=2)
    tracer.span(bl, "attractor_backward", "model.attractor_backward", rows_arg=3)
    tracer.span(bl, "ema_update", "model.ema_update")
    tracer.span(pkg.metrics, "forward_eval", "model.forward_eval", rows_arg=0)
    tracer.span(bl, "upper_loss", "bilevel.upper_loss")
    tracer.span(bl, "omega_step", "bilevel.omega_step")
    tracer.span(bl.LowerOptimizer, "step", "bilevel.LowerOptimizer.step")
    for mod in (hs, bm):
        tracer.span(mod, "synth_gaussian_mixture", "data.synth_gaussian_mixture")
        tracer.span(mod, "split_counts", "data.split_counts")
    tracer.span(hs, "build_datasets", "harness.build_datasets")
    tracer.span(hs, "write_trace_csv", "harness.write_trace_csv")
    tracer.span(hs, "save_checkpoint", "harness.save_checkpoint")
    tracer.span(bm, "build_benchmark_data", "benchmark.build_benchmark_data")
    tracer.span(bm, "run_single", "benchmark.run_single", info=lambda a: a[0].mode)
    for mod in (pkg.numcore, pkg.data):
        tracer.count(mod, "ensure_finite", "numcore.ensure_finite")
    for mod in (pkg.numcore, pkg.pseudo, md, pkg.metrics):
        tracer.count(mod, "softmax", "numcore.softmax")
    for mod in (pkg.numcore, bl):
        tracer.count(mod, "log_softmax", "numcore.log_softmax")


def training_cells(tracer: Tracer, interval: int) -> list[dict]:
    """One entry per training call (a cell): its iterations and its blocks.

    A block is the training time between two evaluation-hook calls, i.e.
    `interval` iterations with the evaluation taken out, in us/iter."""
    children: dict[int, list[int]] = {}
    for i, (n, p) in enumerate(zip(tracer.names, tracer.parents)):
        if n == EVALUATE and p != ROOT and tracer.names[p] == TRAIN:
            children.setdefault(p, []).append(i)
    cells = []
    for t, name in enumerate(tracer.names):
        if name != TRAIN:
            continue
        iters = tracer.info[t]
        prev = tracer.starts[t]
        blocks = []
        for e in children.get(t, []):
            blocks.append((tracer.starts[e] - prev) / interval * 1e6)
            prev = tracer.ends[e]
        if not blocks:  # no hook fired: the whole call is one block
            blocks.append((tracer.ends[t] - tracer.starts[t]) / iters * 1e6)
        cells.append({"iters": iters, "blocks": blocks})
    return cells


def layer_metrics(tracer: Tracer, iters: int, workload_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced repeat. `us_per_iter` and `per_iter`
    stats count only calls made by the training loop itself (not by the
    evaluation hook), divided by the iterations trained; `.s` stats are
    seconds per process."""
    dur = tracer.durations()
    self_t = tracer.self_times()
    in_train = tracer.ancestry_flags(TRAIN)
    in_eval = tracer.ancestry_flags(EVALUATE)
    in_omega = tracer.ancestry_flags("bilevel.omega_step")
    loop = [t and not e for t, e in zip(in_train, in_eval)]

    def loop_sum(name, values, extra=None):
        return sum(
            v for i, (n, v) in enumerate(zip(tracer.names, values))
            if n == name and loop[i] and (extra is None or extra(i))
        )

    def total(name):
        return sum(d for n, d in zip(tracer.names, dur) if n == name)

    def calls_per_iter(name):
        events = tracer.events.get(name, [])
        return sum(1 for p in events if p != ROOT and loop[p]) / iters

    rows = [tracer.rows.get(i, 0) for i in range(len(tracer.names))]
    per_iter_us = 1e6 / iters
    out = {
        "numcore.ensure_finite.calls_per_iter": calls_per_iter("numcore.ensure_finite"),
        "numcore.softmax.calls_per_iter": calls_per_iter("numcore.softmax"),
        "numcore.log_softmax.calls_per_iter": calls_per_iter("numcore.log_softmax"),
        "data.balanced_batch.calls_per_iter": sum(
            1 for i, n in enumerate(tracer.names) if n == "data.balanced_batch" and loop[i]
        ) / iters,
        "data.synth_gaussian_mixture.s": total("data.synth_gaussian_mixture"),
        "data.split_counts.s": total("data.split_counts"),
        "pseudo.accept_ratio": tracer.pseudo_accepted / tracer.pseudo_drawn,
        "pseudo.masked_rows_per_iter": (tracer.pseudo_drawn - tracer.pseudo_accepted) / iters,
        "model.attractor_backward.lower_us_per_iter": loop_sum(
            "model.attractor_backward", dur, lambda i: not in_omega[i]) * per_iter_us,
        "model.attractor_backward.omega_step_us_per_iter": loop_sum(
            "model.attractor_backward", dur, lambda i: in_omega[i]) * per_iter_us,
        "model.forward_eval.us_per_iter": total("model.forward_eval") * per_iter_us,
        "bilevel.train.self_us_per_iter": sum(
            s for n, s in zip(tracer.names, self_t) if n == TRAIN) * per_iter_us,
    }
    for name in (
        "data.balanced_batch", "data.one_hot", "pseudo.augment", "pseudo.assign_pseudo_labels",
        "model.forward_train", "model.features_with_cache", "model.features_backward",
        "model.ema_update", "bilevel.upper_loss", "bilevel.omega_step",
        "bilevel.LowerOptimizer.step",
    ):
        out[f"{name}.us_per_iter"] = loop_sum(name, dur) * per_iter_us
    for name in ("model.forward_train", "model.features_with_cache", "model.features_backward"):
        out[f"{name}.rows_per_iter"] = loop_sum(name, rows) / iters
    out["model.forward_eval.rows_per_iter"] = sum(
        r for n, r in zip(tracer.names, rows) if n == "model.forward_eval") / iters
    evals = [d for n, d in zip(tracer.names, dur) if n == EVALUATE]
    out["metrics.evaluate.us_per_call"] = statistics.fmean(evals) * 1e6
    out["metrics.evaluate.share"] = sum(evals) / workload_s
    # layers on one workload path only (printed, not part of the JSON line)
    for name in ("harness.build_datasets", "harness.write_trace_csv", "harness.save_checkpoint",
                 "benchmark.build_benchmark_data"):
        if name in tracer.names:
            out[f"{name}.s"] = total(name)
    for i, n in enumerate(tracer.names):
        if n == "benchmark.run_single":
            key = f"benchmark.run_single.{tracer.info[i]}.s"
            out[key] = out.get(key, 0.0) + dur[i]
    return out


def run_workload(spec: dict, pkg) -> tuple[dict, dict]:
    """Run the workload once; returns (headline, output hashes)."""
    if spec["kind"] == "train":
        config = pkg.harness.config_from_dict(spec["config"])
        payload = pkg.harness.run_train(config)
        out_dir = Path(config.eval.out_dir)
        hashes = {name: _sha256(out_dir / name) for name in ("trace.csv", "metrics.json")}
        h = payload["headline"]
        return {"bacc": h["bacc"], "gm": h["gm"], "min_recall": h["min_recall"]}, hashes
    settings_kw = dict(spec["config"])
    settings_kw["seeds"] = tuple(settings_kw["seeds"])
    result = pkg.benchmark.run_benchmark(pkg.benchmark.BenchmarkSettings(**settings_kw))
    cells = result["cells"]
    l2ac = [r for sc in cells.values() for r in sc["l2ac"]]
    base = [r for sc in cells.values() for r in sc["baseline"]]
    headline = {
        "bacc": statistics.fmean(r["bacc"] for r in l2ac),
        "gm": statistics.fmean(r["gm"] for r in l2ac),
        "min_recall": statistics.fmean(r["min_recall"] for r in l2ac),
        "bacc_margin": statistics.fmean(r["bacc"] for r in l2ac)
        - statistics.fmean(r["bacc"] for r in base),
    }
    blob = json.dumps(cells, sort_keys=True).encode()
    return headline, {"cells.json": hashlib.sha256(blob).hexdigest()}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import biasadapt.benchmark
    import biasadapt.bilevel
    import biasadapt.data
    import biasadapt.harness
    import biasadapt.metrics
    import biasadapt.model
    import biasadapt.numcore
    import biasadapt.pseudo

    pkg = biasadapt
    if spec["mode"] == "setup":
        def stop(*_args, **_kwargs):
            raise _ReachedTraining(time.monotonic())

        pkg.harness.train = pkg.benchmark.train = stop
        try:
            run_workload(spec, pkg)
        except _ReachedTraining as reached:
            Path(spec["result"]).write_text(json.dumps({"t_first_train": reached.args[0]}))
            return 0
        raise RuntimeError("the workload finished without a training call")

    tracer = Tracer()
    install_entry(tracer, pkg)
    if spec["mode"] == "traced":
        install_layers(tracer, pkg)
    t_start = time.monotonic()
    headline, hashes = run_workload(spec, pkg)
    t_done = time.monotonic()
    tracer.restore()

    cells = training_cells(tracer, spec["interval"])
    iters = sum(c["iters"] for c in cells)
    result = {
        "t_first_train": tracer.starts[tracer.names.index(TRAIN)],
        "t_done": t_done,
        "cells": cells,
        "headline": headline,
        "hashes": hashes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if not all(math.isfinite(v) for v in headline.values()):
        raise FloatingPointError(f"non-finite headline {headline}")
    if spec["mode"] == "traced":
        layers = layer_metrics(tracer, iters, t_done - t_start)
        overhead = pkg.harness.bench_overhead(
            pkg.harness.config_from_dict(spec["overhead_config"]), reps=spec["overhead_reps"]
        )
        layers["bilevel.second_order_ratio"] = overhead["ratio"]
        result["layers"] = layers
        tracer.write_csv(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
