"""Dense float64 training kernel: softmax, cross-entropy, RNG.

`weighted_ce` is the one cross-entropy kernel; every caller, training and
selfcheck's finite-difference check included, applies it to `log_softmax`
rows. `softmax` and `log_softmax` check nothing: a NaN or inf input comes out
as NaN rows, which training's per-iteration loss and gradient-norm checks
report as divergence. Randomness everywhere in the package flows through
explicitly passed `numpy.random.Generator` instances backed by PCG64, so a
seed fully determines every stream.
"""

from __future__ import annotations

import numpy as np

# log() inputs are clamped here to avoid -inf; log(1e-300) ~= -690.78
LOG_FLOOR = 1e-300


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator; the same seed yields the same stream on any platform."""
    return np.random.Generator(np.random.PCG64(seed))


def check_seed(seed: int) -> None:
    """Refuse a negative master seed by name; numpy's refusal names neither."""
    if seed < 0:
        raise ValueError(f"seed: expected >= 0, got {seed!r}")


def child_seeds(seed: int, n: int) -> list[int]:
    """Derive n independent child seeds from a master seed (SeedSequence spawn)."""
    return [int(s.generate_state(1, np.uint64)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


class NonFinite(ValueError):
    """A value that must be finite is not: an overflow, not a bad argument."""


def ensure_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"non-finite {name}")


def safe_log(x: np.ndarray) -> np.ndarray:
    """Elementwise log with inputs clamped at LOG_FLOOR (never returns -inf)."""
    return np.log(np.maximum(x, LOG_FLOOR))


def _shift_rows(logits) -> np.ndarray:
    """Logits minus each row's maximum, for an (N, K) input: K >= 2, as
    init_model refuses fewer for every config, labeled CSV and checkpoint.
    The maxima are reduced over a class-major copy: the same values as
    x.max(axis=1, keepdims=True), since a max is exact in any order, for a
    fraction of the per-call cost on short rows."""
    x = np.asarray(logits, dtype=np.float64)
    return x - np.ascontiguousarray(x.T).max(axis=0)[:, None]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction; rows sum to 1 within 1e-12."""
    e = np.exp(_shift_rows(logits))
    return e / e.sum(axis=1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = _shift_rows(logits)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def weighted_ce(
    logp: np.ndarray, targets: np.ndarray, coeff: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """loss = sum_i coeff[i] * (-sum_k targets[i,k] * logp[i,k]) over
    log-probability rows; returns (loss, probabilities, logit gradient), the
    gradient being the exact coeff[i] * (p[i] - targets[i]). No validation."""
    p = np.exp(logp)
    loss = float((coeff * -(targets * logp).sum(axis=1)).sum())
    d_logits = coeff[:, None] * (p - targets)
    return loss, p, d_logits

