"""Evaluation metrics: confusion matrix, balanced accuracy, geometric mean of
per-class recall, pseudo-label recall diagnostics, predicted class
distribution, and the full report."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset
from .model import ModelState, forward_eval
from .numcore import softmax


def confusion(true_labels, predicted_labels, num_classes: int) -> np.ndarray:
    """K x K integer grid: rows index the true class, columns the prediction."""
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted_labels, dtype=np.int64)
    if t.shape != p.shape:
        raise ValueError("label arrays differ in length")
    if t.size and (t.min() < 0 or t.max() >= num_classes or p.min() < 0 or p.max() >= num_classes):
        raise ValueError(f"labels outside 0..{num_classes - 1}")
    k = num_classes
    return np.bincount(t * k + p, minlength=k * k).reshape(k, k)


def per_class_recall(cm: np.ndarray) -> np.ndarray:
    row_sums = cm.sum(axis=1)
    empty = np.flatnonzero(row_sums == 0)
    if empty.size:
        raise ValueError(f"class {int(empty[0])} has no true samples")
    return np.diag(cm) / row_sums


def balanced_accuracy(cm: np.ndarray) -> float:
    """Arithmetic mean of per-class recall."""
    return float(per_class_recall(cm).mean())


def geometric_mean(cm: np.ndarray) -> float:
    """Geometric mean of per-class recall; exactly 0 if any recall is 0."""
    recalls = per_class_recall(cm)
    if np.any(recalls == 0.0):
        return 0.0
    return float(np.exp(np.log(recalls).mean()))


def plain_accuracy(cm: np.ndarray) -> float:
    total = cm.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.diag(cm).sum() / total)


def predicted_distribution(logits: np.ndarray) -> np.ndarray:
    """Mean softmax row over the evaluated set."""
    if logits.shape[0] == 0:
        raise ValueError("empty logit matrix")
    return softmax(logits).mean(axis=0)


def pseudo_label_recall(true_labels, y_hat: np.ndarray, lam: np.ndarray) -> list[float | None]:
    """Per-class recall of hard pseudo-labels over mask-passing rows only;
    classes with no mask-passing rows report None (never selected, as opposed
    to always wrong)."""
    t = np.asarray(true_labels, dtype=np.int64)
    hard = np.asarray(y_hat).argmax(axis=1)
    selected = np.asarray(lam) > 0.0
    k = y_hat.shape[1]
    out: list[float | None] = []
    for c in range(k):
        rows = selected & (t == c)
        if not rows.any():
            out.append(None)
        else:
            out.append(float((hard[rows] == c).mean()))
    return out


@dataclass
class MetricsReport:
    bacc: float
    gm: float
    acc: float
    per_class_recall: list[float]
    predicted_distribution: list[float] | None
    confusion: list[list[int]]
    pseudo_recall: list[float | None] | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def evaluate(
    state: ModelState, test: Dataset, use_ema: bool = True, distribution: bool = True
) -> MetricsReport:
    """Score the plain classifier path on a fully labeled test set. argmax
    ties break toward the lowest class index. distribution=False leaves
    predicted_distribution None and skips its softmax over every test row,
    for callers that read only the recall figures. Every test label is
    trusted: harness.load_labeled_csv refuses a -1 row in a test CSV, and a
    synthesized test split labels every row."""
    logits = forward_eval(test.features, state, use_ema=use_ema)
    preds = logits.argmax(axis=1)
    cm = confusion(test.labels, preds, test.num_classes)
    return MetricsReport(
        bacc=balanced_accuracy(cm),
        gm=geometric_mean(cm),
        acc=plain_accuracy(cm),
        per_class_recall=[float(r) for r in per_class_recall(cm)],
        predicted_distribution=(
            [float(v) for v in predicted_distribution(logits)] if distribution else None
        ),
        confusion=cm.tolist(),
    )


def headline_means(reports: list[MetricsReport], last_e: int) -> dict[str, float]:
    """Headline numbers over a run's last last_e evaluations (all of them
    when last_e is 0): the means of balanced accuracy, recall geometric mean,
    plain accuracy and worst per-class recall."""
    reports = reports[-last_e:]
    return {
        "bacc": float(np.mean([r.bacc for r in reports])),
        "gm": float(np.mean([r.gm for r in reports])),
        "acc": float(np.mean([r.acc for r in reports])),
        "min_recall": float(np.mean([min(r.per_class_recall) for r in reports])),
    }
