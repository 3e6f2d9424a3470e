#!/usr/bin/env python3
"""Print the sha256 of trace.csv, metrics.json and ckpt_final.npz for every
training mode x lower optimizer x config, as a markdown table.

Three configs: configs/example.yaml; the determinism-criterion config of
tests/test_acceptance.py with pseudo_source biased, pseudo_mode sharpen and
attractor_norm l2_input; and the CIFAR-10-LT-shaped paper_scale config of
perfbench/run.py (head width 256, 512-row lower batches, 10k test rows
scored every 25 iterations), where the arrays are large enough for BLAS to
block them. Each of the 24 runs goes through harness.run_train into a
temporary directory with --iters iterations. Running this on two
commits and diffing the output shows whether a change kept the artifacts
byte-identical.

    python scripts/output_hashes.py --iters 600
"""

import argparse
import copy
import hashlib
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from biasadapt.harness import config_from_dict, run_train

ARTIFACTS = ("trace.csv", "metrics.json", "ckpt_final.npz")
MODES = ("baseline", "plain_attractor", "single_level", "l2ac")
OPTIMIZERS = ("sgd", "adam")
CRIT9_BIASED = {
    "seed": 11,
    "data": {
        "dim": 8,
        "num_classes": 4,
        "class_separation": 3.0,
        "labeled_profile": {"kind": "longtail", "gamma": 10.0, "n1": 30},
        "unlabeled_profile": {"kind": "uniform", "gamma": 1.0, "n1": 50},
        "test_per_class": 30,
    },
    "train": {
        "alpha": 0.05, "eta": 1.0, "tau": 0.7,
        "batch_n": 16, "batch_m": 32, "balanced_n": 16,
        "extractor_hidden": [16], "feature_dim": 8, "attractor_hidden": 16,
        "pseudo_source": "biased", "pseudo_mode": "sharpen", "attractor_norm": "l2_input",
    },
    "eval": {"interval": 50, "last_e": 2},
}
PAPER_SCALE = {
    "seed": 1,
    "data": {
        "dim": 32, "num_classes": 10, "class_separation": 5.5,
        "labeled_profile": {"kind": "longtail", "gamma": 100.0, "n1": 1500},
        "unlabeled_profile": {"kind": "longtail", "gamma": 100.0, "n1": 3000},
        "test_per_class": 1000,
    },
    "train": {
        "alpha": 0.08, "eta": 3.0, "tau": 0.8,
        "batch_n": 64, "batch_m": 448, "balanced_n": 100,
        "ema_decay": 0.99, "sigma_weak": 0.5, "sigma_strong": 1.5,
        "extractor_hidden": [64], "feature_dim": 32, "attractor_hidden": 256,
    },
    "eval": {"interval": 25, "last_e": 8},
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--iters", type=int, default=600)
    args = parser.parse_args()

    with open(ROOT / "configs" / "example.yaml") as fh:
        configs = {
            "example": yaml.safe_load(fh),
            "crit9-biased": CRIT9_BIASED,
            "paper-scale": PAPER_SCALE,
        }

    print(f"| config@{args.iters} | mode | opt | " + " | ".join(ARTIFACTS) + " |")
    print("|---|---|---|" + "---|" * len(ARTIFACTS))
    with tempfile.TemporaryDirectory() as tmp:
        for label, base in configs.items():
            for mode in MODES:
                for opt in OPTIMIZERS:
                    out = Path(tmp) / f"{label}_{mode}_{opt}"
                    payload = copy.deepcopy(base)
                    payload["train"].update(mode=mode, lower_optimizer=opt, iters=args.iters)
                    payload["eval"]["out_dir"] = str(out)
                    run_train(config_from_dict(payload))
                    digests = " | ".join(_sha256(out / name) for name in ARTIFACTS)
                    print(f"| {label} | {mode} | {opt} | {digests} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
