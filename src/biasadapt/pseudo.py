"""Pseudo-label assignment with confidence masking, plus the feature-space
weak/strong augmentation pair used in place of image augmentations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import log_softmax, softmax


@dataclass
class PseudoBatch:
    """One unlabeled mini-batch ready for the lower-level loss: the strong
    view, per-row targets y_hat (one-hot or sharpened, read from the weak
    view), and per-row loss weights lam (0 for masked-out rows)."""

    x_strong: np.ndarray
    y_hat: np.ndarray
    lam: np.ndarray

    def __len__(self) -> int:
        return self.x_strong.shape[0]


def augment(
    x: np.ndarray,
    sigma_weak: float,
    sigma_strong: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Two independent additive-Gaussian views of x, weak drawn first: one
    fresh noise draw for both views (the same stream as a weak then a strong
    draw), each half scaled and shifted in place, so x is never written.
    TrainConfig.validate has checked 0 <= sigma_weak < sigma_strong."""
    x = np.asarray(x, dtype=np.float64)
    weak, strong = rng.standard_normal((2, *x.shape))
    weak *= sigma_weak
    weak += x
    strong *= sigma_strong
    strong += x
    return weak, strong


def assign_pseudo_labels(
    logits_weak: np.ndarray,
    tau: float,
    lambda_u: float,
    mode: str = "hard",
    temperature: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Targets and confidence-mask weights from weak-view logits.

    hard: one-hot argmax (ties toward the lowest class index). sharpen:
    p^(1/T) renormalized per row, computed as softmax(log p / T), whose
    largest entry is exp(0), so a row whose every p^(1/T) underflows still
    sums to 1. Either way lam[i] = lambda_u when max p[i] >= tau, else 0.
    TrainConfig.validate has checked tau, mode and (under sharpen)
    temperature.
    """
    p = softmax(logits_weak)
    rows = np.arange(p.shape[0])
    top = p.argmax(axis=1)
    lam = np.where(p[rows, top] >= tau, float(lambda_u), 0.0)
    if mode == "hard":
        y_hat = np.zeros_like(p)
        y_hat[rows, top] = 1.0
    else:
        y_hat = softmax(log_softmax(logits_weak) / temperature)
    return y_hat, lam
