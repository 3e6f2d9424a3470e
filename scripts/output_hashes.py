#!/usr/bin/env python3
"""Print the sha256 of trace.csv, metrics.json and ckpt_final.npz for every
training mode x config, as a markdown table.

Three configs: configs/example.yaml; the determinism-criterion config of
tests/test_acceptance.py with pseudo_source biased and pseudo_mode sharpen;
and the CIFAR-10-LT-shaped paper_scale config of perfbench/run.py (head
width 256, 512-row lower batches, 10k test rows scored every 25
iterations), where the arrays are large enough for BLAS to block them. Each of the 12 runs goes through harness.run_train into a
temporary directory with --iters iterations. Running this on two
commits and diffing the output shows whether a change kept the artifacts
byte-identical. tests/golden_outputs.json pins the table at 100 iterations,
and tests/test_scripts.py reruns it through `output_digests`.

    python scripts/output_hashes.py --iters 600
"""

import argparse
import copy
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from biasadapt.bilevel import MODES
from biasadapt.harness import config_from_dict, run_train

ARTIFACTS = ("trace.csv", "metrics.json", "ckpt_final.npz")
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
        "pseudo_source": "biased", "pseudo_mode": "sharpen",
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


def build_provenance() -> dict:
    """The NumPy and BLAS build the digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def output_digests(iters: int):
    """Run every (config, mode) for `iters` iterations in a temporary
    directory; yield (config, mode, {artifact: sha256}) in table order."""
    with open(ROOT / "configs" / "example.yaml") as fh:
        configs = {
            "example": yaml.safe_load(fh),
            "crit9-biased": CRIT9_BIASED,
            "paper-scale": PAPER_SCALE,
        }
    with tempfile.TemporaryDirectory() as tmp:
        for label, base in configs.items():
            for mode in MODES:
                out = Path(tmp) / f"{label}_{mode}"
                payload = copy.deepcopy(base)
                payload["train"].update(mode=mode, iters=iters)
                payload["eval"]["out_dir"] = str(out)
                run_train(config_from_dict(payload))
                yield label, mode, {name: _sha256(out / name) for name in ARTIFACTS}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--iters", type=int, default=600)
    args = parser.parse_args()

    print(f"| config@{args.iters} | mode | " + " | ".join(ARTIFACTS) + " |")
    print("|---|---|" + "---|" * len(ARTIFACTS))
    for label, mode, digests in output_digests(args.iters):
        print(f"| {label} | {mode} | " + " | ".join(digests.values()) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
