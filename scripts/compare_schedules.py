#!/usr/bin/env python3
"""Compare the constant learning-rate pair against the decaying schedule
(alpha_t = c1/t, eta_t = c2/sqrt(t)) on one benchmark dataset, plotting-free:
prints headline metrics and the upper-loss tail mean for each."""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from biasadapt.benchmark import BenchmarkSettings, benchmark_train_config, build_benchmark_data
from biasadapt.bilevel import train
from biasadapt.metrics import evaluate, headline_means


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="matched", choices=["matched", "uniform", "reversed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--iters", type=int, default=4000)
    parser.add_argument("--c1", type=float, default=1.0, help="alpha_t = c1 / t")
    parser.add_argument("--c2", type=float, default=10.0, help="eta_t = c2 / sqrt(t)")
    args = parser.parse_args()

    settings = BenchmarkSettings(iters=args.iters, class_separation=3.5)
    if args.iters < settings.eval_interval:
        sys.exit(f"error: --iters {args.iters} is below the evaluation interval "
                 f"{settings.eval_interval}, so no run would be evaluated")
    d_l, d_u, d_test = build_benchmark_data(settings, args.scenario, args.seed)

    for label, overrides in (
        ("constant", {}),
        ("theorem_f", {"schedule": "theorem_f", "c1": args.c1, "c2": args.c2}),
    ):
        config = replace(benchmark_train_config(settings, "l2ac", args.seed), **overrides)
        reports = []
        _, traces = train(
            config, d_l, d_u,
            eval_hook=lambda _it, state: reports.append(
                evaluate(state, d_test, use_ema=True, distribution=False)
            ),
            eval_interval=settings.eval_interval,
        )
        result = headline_means(reports[-settings.last_e :])
        upper_tail = float(np.mean(traces["upper_loss"][-200:]))
        print(
            f"{label:10s} bACC {result['bacc']:.4f} GM {result['gm']:.4f} "
            f"min-recall {result['min_recall']:.4f} upper-loss tail {upper_tail:.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
