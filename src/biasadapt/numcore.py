"""Dense float64 numeric kernel: softmax, cross-entropy, central differences, RNG.

`weighted_ce` is the one cross-entropy kernel: training calls it directly on
log-probabilities, and `cross_entropy` is its validating entry (shapes,
target rows, weights), the form the gradient checks exercise. `softmax`
and `log_softmax` check that their input is finite and raise `NonFinite`
otherwise. Randomness everywhere in the package flows through explicitly
passed `numpy.random.Generator` instances backed by PCG64, so a seed fully
determines every stream.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

# log() inputs are clamped here to avoid -inf; log(1e-300) ~= -690.78
LOG_FLOOR = 1e-300


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator; the same seed yields the same stream on any platform."""
    return np.random.Generator(np.random.PCG64(seed))


def child_seeds(seed: int, n: int) -> list[int]:
    """Derive n independent child seeds from a master seed (SeedSequence spawn)."""
    return [int(s.generate_state(1, np.uint64)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


class NonFinite(ValueError):
    """A value that must be finite is not: an overflow, not a bad argument."""


def ensure_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"non-finite {name}")


def as_matrix(arr, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array and check finiteness."""
    out = np.asarray(arr, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    ensure_finite(name, out)
    return out


def safe_log(x: np.ndarray) -> np.ndarray:
    """Elementwise log with inputs clamped at LOG_FLOOR (never returns -inf)."""
    return np.log(np.maximum(x, LOG_FLOOR))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction.

    Rows sum to 1 within 1e-12; requires at least two columns and finite input.
    """
    logits = as_matrix(logits, "logits")
    if logits.shape[1] < 2:
        raise ValueError(f"softmax needs >= 2 classes, got {logits.shape[1]}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    logits = as_matrix(logits, "logits")
    shifted = logits - logits.max(axis=1, keepdims=True)
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


def cross_entropy(
    logits: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Weighted-mean cross-entropy between softmax(logits) and target rows:
    `weighted_ce` with coeff = weights / batch, after validation.

    loss = (1/batch) * sum_i weights[i] * (-sum_k targets[i,k] * log p[i,k])

    Returns (loss, grad) where grad[i] = weights[i] * (p[i] - targets[i]) / batch,
    the exact analytic gradient of the loss w.r.t. the logits.

    Target rows must be probability vectors (sum to 1 within 1e-9); weights
    must be non-negative. weights=None means all ones.
    """
    logits = as_matrix(logits, "logits")
    targets = as_matrix(targets, "targets")
    if logits.shape != targets.shape:
        raise ValueError(f"shape mismatch: logits {logits.shape} vs targets {targets.shape}")
    batch = logits.shape[0]
    if weights is None:
        weights = np.ones(batch)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (batch,):
        raise ValueError(f"weights must have shape ({batch},), got {weights.shape}")
    if np.any(weights < 0):
        raise ValueError("negative weights")
    row_sums = targets.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-9):
        bad = int(np.argmax(np.abs(row_sums - 1.0)))
        raise ValueError(f"target row {bad} sums to {row_sums[bad]!r}, not 1")

    loss, _, grad = weighted_ce(log_softmax(logits), targets, weights / batch)
    return loss, grad


def fd_gradient(
    value: Callable[[np.ndarray], float], point: np.ndarray, epsilon: float
) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    point = np.asarray(point, dtype=np.float64).ravel()
    grad = np.empty_like(point)
    for i in range(point.size):
        delta = np.zeros_like(point)
        delta[i] = epsilon
        grad[i] = (value(point + delta) - value(point - delta)) / (2.0 * epsilon)
    return grad


def grad_check(
    f: Callable[[np.ndarray], tuple[float, np.ndarray]],
    point: np.ndarray,
    epsilon: float = 1e-6,
) -> float:
    """Max relative error between f's analytic gradient and central differences.

    f maps a flat parameter vector to (value, gradient). Per-coordinate error
    is |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    if not (1e-8 <= epsilon <= 1e-3):
        raise ValueError(f"epsilon {epsilon} outside [1e-8, 1e-3]")
    point = np.asarray(point, dtype=np.float64).ravel()
    analytic = np.asarray(f(point)[1], dtype=np.float64).ravel()
    numeric = fd_gradient(lambda x: f(x)[0], point, epsilon)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom, initial=0.0))


def flatten_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate([a.ravel() for a in arrays])


def unflatten_like(flat: np.ndarray, templates: Sequence[np.ndarray]) -> list[np.ndarray]:
    out = []
    start = 0
    for t in templates:
        out.append(flat[start : start + t.size].reshape(t.shape))
        start += t.size
    if start != flat.size:
        raise ValueError(f"flat vector has {flat.size} entries, templates need {start}")
    return out


def relative_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max |a-b| / max(1e-12, max|a|, max|b|), used to compare gradient routes."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(1e-12, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / denom
