"""Every config the loader accepts trains: a property test over small
synthetic configs, drawn over every field ExperimentConfig.validate reads.

Each draw ends in one of three ways: loading refuses it, naming the key; in
a mode with a balanced loss, run_train refuses a balanced_n the class count
does not divide (bilevel.balanced_sampler); or a few iterations train to a
finite trace.csv and metrics.json. Step sizes stay small (alpha <= 0.1,
eta <= 3), so no draw can diverge within 5 iterations: a TrainingDiverged or
a RuntimeWarning fails the test.
"""

import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from biasadapt.bilevel import MODES, TRACE_DTYPE
from biasadapt.data import PROFILE_KINDS
from biasadapt.harness import config_from_dict, run_train

WIDTHS = st.integers(1, 4)
# (section, key, a value validate refuses, how its message starts): one
# refused value per draw, or none
BREAKS = [
    ("", "seed", -1, "seed"),
    ("train", "mode", "bogus", "unknown mode"),
    ("train", "pseudo_source", "bogus", "unknown pseudo_source"),
    ("train", "alpha", 0.0, "alpha"),
    ("train", "eta", 0.0, "eta"),
    ("train", "lambda_u", -0.5, "lambda_u"),
    ("train", "batch_m", -1, "batch_m"),
    ("train", "iters", -1, "iters"),
    ("train", "balanced_n", 0, "balanced_n"),
    ("train", "tau", 1.5, "tau"),
    ("train", "ema_decay", -0.5, "ema_decay"),
    ("train", "extractor_hidden", [0], "extractor_hidden"),
    ("train", "sigma_weak", 2.0, "sigma_weak"),
    ("data", "num_classes", 1, "data.num_classes"),
    ("data", "dim", 1, "data.dim"),
    ("data", "class_separation", -1.0, "data.class_separation"),
    ("data", "test_per_class", 0, "data.test_per_class"),
    ("data", "test_csv", "test.csv", "data.test_csv"),
    ("data", "unlabeled_csv", "unlabeled.csv", "data.unlabeled_csv"),
    ("data", "labeled_csv", "labeled.csv", "data.test_csv"),
    ("eval", "interval", -1, "eval.interval"),
]


@st.composite
def payloads(draw) -> tuple[dict, str | None]:
    """A config mapping at small shapes, every value accepted, then at most
    one value replaced by one that validate refuses; returns the mapping and
    how the refusal's message starts (None when nothing is refused)."""
    profile = st.fixed_dictionaries({
        "kind": st.sampled_from(PROFILE_KINDS),
        "gamma": st.floats(1.0, 20.0),
        "n1": st.integers(1, 8),
    })
    sigma_strong = draw(st.floats(0.01, 1.5))
    payload = {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "data": {
            "dim": draw(st.integers(2, 4)),
            "num_classes": draw(st.integers(2, 4)),
            "class_separation": draw(st.floats(0.0, 5.0)),
            "labeled_profile": draw(profile),
            "unlabeled_profile": draw(profile),
            "test_per_class": draw(st.integers(1, 3)),
        },
        "train": {
            "mode": draw(st.sampled_from(MODES)),
            "pseudo_mode": draw(st.sampled_from(["hard", "sharpen"])),
            "pseudo_source": draw(st.sampled_from(["plain", "biased"])),
            "alpha": draw(st.floats(0.0, 0.1, exclude_min=True)),
            "eta": draw(st.floats(0.0, 3.0, exclude_min=True)),
            "tau": draw(st.floats(0.0, 1.0)),
            "lambda_u": draw(st.floats(0.0, 2.0)),
            "ema_decay": draw(st.floats(0.0, 1.0)),
            "sigma_weak": draw(st.floats(0.0, sigma_strong, exclude_max=True)),
            "sigma_strong": sigma_strong,
            "batch_n": draw(WIDTHS),
            "batch_m": draw(st.integers(0, 4)),
            "balanced_n": draw(WIDTHS),
            "iters": draw(st.integers(0, 5)),
            "feature_dim": draw(WIDTHS),
            "attractor_hidden": draw(WIDTHS),
            "extractor_hidden": draw(st.lists(WIDTHS, max_size=2)),
        },
        "eval": {
            "interval": draw(st.integers(0, 3)),
            "last_e": draw(st.integers(0, 3)),
        },
    }
    broken = draw(st.none() | st.sampled_from(BREAKS))
    if broken is None:
        return payload, None
    section, key, value, message = broken
    (payload[section] if section else payload)[key] = value
    return payload, message


def _refuse_constant(token: str):
    raise AssertionError(f"metrics.json holds {token}")


@settings(max_examples=150, deadline=None)
@given(drawn=payloads())
def test_every_accepted_config_trains_to_finite_artifacts(drawn):
    payload, refusal = drawn
    if refusal is not None:
        event("refused at load")
        with pytest.raises(ValueError) as info:
            config_from_dict(payload)
        assert str(info.value).startswith(refusal), str(info.value)
        return
    config = config_from_dict(payload)
    tc = config.train
    k = config.data.num_classes
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        config.eval.out_dir = out
        if tc.mode in ("l2ac", "single_level") and tc.balanced_n % k:
            event("refused by balanced_sampler")
            with pytest.raises(ValueError, match="draws class-balanced batches"):
                run_train(config)
            assert not (Path(out) / "trace.csv").exists()
            return
        event(f"trained {tc.mode}")
        run_train(config)
        trace = np.genfromtxt(Path(out) / "trace.csv", delimiter=",", names=True, ndmin=1)
        text = (Path(out) / "metrics.json").read_text()
    assert trace.dtype.names == TRACE_DTYPE.names and trace.size == tc.iters
    for name in TRACE_DTYPE.names:
        # upper_loss is NaN by definition in a mode without a balanced loss
        if name != "upper_loss" or tc.mode in ("l2ac", "single_level"):
            assert np.isfinite(trace[name]).all(), name
    json.loads(text, parse_constant=_refuse_constant)  # NaN, Infinity or -Infinity
