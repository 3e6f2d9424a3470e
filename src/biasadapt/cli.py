"""Command-line interface.

Subcommands: gen-data (synthesize a profile-shaped dataset CSV), train (run
an experiment from a YAML config), eval (score a checkpoint on a test CSV),
selfcheck (run the executable invariant suite), bench-overhead (time the
second-order step against a full lower backward), compare (aggregate run
metrics into a mode table), benchmark (every mode on the desk task against
matched / uniform / reversed unlabeled profiles, across seeds). Flags
override config scalars. A refused argument, a path the OS refuses or a
diverged run prints one `error:` line to stderr and exits 2; a failed
check (selfcheck) or criterion (benchmark) exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .benchmark import SCENARIOS, BenchmarkSettings, run_benchmark
from .bilevel import MODES, TrainingDiverged
from .data import PROFILE_KINDS, ImbalanceProfile
from .harness import (
    bench_overhead,
    load_config,
    resolve_out_dir,
    run_compare,
    run_eval,
    run_gen_data,
    run_train,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="biasadapt")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="synthesize a dataset CSV from an imbalance profile")
    g.add_argument("--kind", required=True, choices=PROFILE_KINDS)
    g.add_argument("--gamma", type=float, default=100.0)
    g.add_argument("--n1", type=int, required=True)
    g.add_argument("--classes", type=int, required=True)
    g.add_argument("--dim", type=int, default=16)
    g.add_argument("--separation", type=float, default=3.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--force", action="store_true")

    t = sub.add_parser("train", help="train from a YAML experiment config")
    t.add_argument("--config", required=True)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--mode", choices=MODES, default=None)
    t.add_argument("--iters", type=int, default=None)
    t.add_argument("--out", default=None)
    t.add_argument("--force", action="store_true")

    e = sub.add_parser("eval", help="score a checkpoint on a test CSV")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--test", required=True)
    e.add_argument("--raw", action="store_true", help="use raw instead of EMA parameters")

    sub.add_parser("selfcheck", help="run the invariant suite; nonzero exit on failure")

    b = sub.add_parser("bench-overhead", help="time the second-order step vs a full lower backward")
    b.add_argument("--config", required=True)
    b.add_argument("--reps", type=int, default=30)

    c = sub.add_parser("compare", help="tabulate bACC/GM mean±std across completed runs")
    c.add_argument("runs", nargs="+")
    c.add_argument("--csv-out", default=None)

    bm = sub.add_parser(
        "benchmark",
        help="every mode x scenario x seed on the desk task, the (scenario, seed) "
        "groups on every core; exit 1 when a criterion fails",
    )
    bm.add_argument("--seeds", type=int, nargs="+", default=list(BenchmarkSettings.seeds))
    bm.add_argument("--iters", type=int, default=BenchmarkSettings.iters)
    bm.add_argument("--separation", type=float, default=BenchmarkSettings.class_separation)
    bm.add_argument("--scenarios", nargs="+", default=list(SCENARIOS), choices=SCENARIOS)
    bm.add_argument("--out", default="runs/benchmark.json")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "gen-data":
        profile = ImbalanceProfile(args.kind, args.gamma, args.n1)
        summary = run_gen_data(
            profile, args.classes, args.dim, args.separation, args.seed, args.out, args.force
        )
        print(json.dumps(summary, sort_keys=True))
        return 0

    if args.command == "train":
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
        if args.mode is not None:
            config.train.mode = args.mode
        if args.iters is not None:
            config.train.iters = args.iters
        if args.out is not None:
            config.eval.out_dir = args.out
        payload = run_train(config, force=args.force)
        headline = payload["headline"] or {}
        print(
            f"done: mode={payload['mode']} seed={payload['seed']} "
            f"bACC={headline.get('bacc', float('nan')):.4f} "
            f"GM={headline.get('gm', float('nan')):.4f} "
            f"-> {resolve_out_dir(config.eval.out_dir)}"
        )
        return 0

    if args.command == "eval":
        report = run_eval(args.ckpt, args.test, use_ema=not args.raw)
        print(report.to_json())
        return 0

    if args.command == "selfcheck":
        from .selfcheck import run_all

        checks = run_all()
        failed = 0
        for name, ok, detail in checks:
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
            failed += 0 if ok else 1
        print(f"{len(checks) - failed}/{len(checks)} checks passed")
        return 1 if failed else 0

    if args.command == "bench-overhead":
        config = load_config(args.config)
        result = bench_overhead(config, reps=args.reps)
        print(json.dumps(result, sort_keys=True, indent=2))
        return 0

    if args.command == "compare":
        text, csv_text = run_compare(args.runs)
        print(text)
        if args.csv_out:
            with open(args.csv_out, "w") as fh:
                fh.write(csv_text)
        return 0

    if args.command == "benchmark":
        settings = BenchmarkSettings(
            seeds=tuple(args.seeds),
            iters=args.iters,
            class_separation=args.separation,
            scenarios=tuple(args.scenarios),
        )
        # refused before the grid trains, so a bad path loses no results;
        # nothing is created until they are written
        out_path = resolve_out_dir(args.out)
        if out_path.is_dir():
            raise ValueError(f"--out {out_path}: is a directory")
        ancestor = next(p for p in out_path.parents if p.exists())
        if not ancestor.is_dir():
            raise ValueError(f"--out {out_path}: {ancestor} is not a directory")
        t0 = time.time()
        results = run_benchmark(settings, progress=print, workers=os.cpu_count() or 1)
        elapsed = time.time() - t0
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with out_path.open("w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
        print(f"\nwrote {out_path} ({elapsed:.0f}s)")
        crit = results["criteria"]
        for scenario in settings.scenarios:
            row = crit[scenario]
            print(
                f"{scenario:9s} bACC+GM wins {row['wins_bacc_gm']}/{len(settings.seeds)} "
                f"min-recall wins {row['wins_min_recall']}/{len(settings.seeds)} "
                f"mean bACC {row['mean_bacc']}"
            )
        print(f"aggregate mean bACC: {crit['aggregate_mean_bacc']}")
        print(f"ablation ordering: {'ok' if crit['c_pass'] else 'VIOLATED'}")
        print("all criteria:", "PASS" if crit["all_pass"] else "FAIL")
        return 0 if crit["all_pass"] else 1

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
