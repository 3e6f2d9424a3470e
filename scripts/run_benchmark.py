#!/usr/bin/env python3
"""Run the desk-scale benchmark: every training mode on long-tailed labeled
data against matched / uniform / reversed unlabeled profiles, across seeds.

Writes per-run rows and the pass/fail verdicts to a JSON file and prints a
progress line per run. Takes ~4 minutes per (scenarios x seeds x modes) at
the defaults on one core.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from biasadapt.benchmark import BENCH_MODES, SCENARIOS, BenchmarkSettings, run_benchmark


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(BenchmarkSettings.seeds))
    parser.add_argument("--iters", type=int, default=BenchmarkSettings.iters)
    parser.add_argument("--separation", type=float, default=BenchmarkSettings.class_separation)
    parser.add_argument("--scenarios", nargs="+", default=list(SCENARIOS), choices=SCENARIOS)
    parser.add_argument("--modes", nargs="+", default=list(BENCH_MODES), choices=BENCH_MODES)
    parser.add_argument("--out", default="runs/benchmark.json")
    args = parser.parse_args()
    # the criteria pair each seed's baseline cell with its l2ac cell
    if not {"baseline", "l2ac"} <= set(args.modes) or len(set(args.modes)) < len(args.modes):
        sys.exit("error: --modes must name baseline and l2ac, and no mode twice")

    settings = BenchmarkSettings(
        seeds=tuple(args.seeds),
        iters=args.iters,
        class_separation=args.separation,
        scenarios=tuple(args.scenarios),
        modes=tuple(args.modes),
    )
    if args.iters < settings.eval_interval:
        sys.exit(f"error: --iters {args.iters} is below the evaluation interval "
                 f"{settings.eval_interval}, so no run would be evaluated")
    t0 = time.time()
    results = run_benchmark(settings, progress=print)
    elapsed = time.time() - t0

    out_path = Path(args.out)
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


if __name__ == "__main__":
    sys.exit(main())
