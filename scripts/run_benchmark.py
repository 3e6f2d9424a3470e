#!/usr/bin/env python3
"""Run the desk-scale benchmark: every training mode on long-tailed labeled
data against matched / uniform / reversed unlabeled profiles, across seeds.

Writes per-run rows and the pass/fail verdicts to a JSON file and prints a
progress line per run. The (scenario, seed) groups run on every core; the
defaults take ~4 minutes on one. Exits 0 when every criterion passes, 1 when
one fails, and 2 when the arguments are refused, before anything trains.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from biasadapt.benchmark import SCENARIOS, BenchmarkSettings, run_benchmark


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(BenchmarkSettings.seeds))
    parser.add_argument("--iters", type=int, default=BenchmarkSettings.iters)
    parser.add_argument("--separation", type=float, default=BenchmarkSettings.class_separation)
    parser.add_argument("--scenarios", nargs="+", default=list(SCENARIOS), choices=SCENARIOS)
    parser.add_argument("--out", default="runs/benchmark.json")
    args = parser.parse_args()

    settings = BenchmarkSettings(
        seeds=tuple(args.seeds),
        iters=args.iters,
        class_separation=args.separation,
        scenarios=tuple(args.scenarios),
    )
    t0 = time.time()
    try:
        results = run_benchmark(settings, progress=print, workers=os.cpu_count() or 1)
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")
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
