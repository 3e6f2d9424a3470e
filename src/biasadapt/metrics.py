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
    """K x K integer grid: rows index the true class, columns the prediction,
    both trusted to lie in 0..K-1: in evaluate, Dataset checks the labels and
    harness.check_fits gives the test set the model's K classes."""
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted_labels, dtype=np.int64)
    k = num_classes
    return np.bincount(t * k + p, minlength=k * k).reshape(k, k)


def per_class_recall(cm: np.ndarray) -> np.ndarray:
    """Diagonal over row sums. No row is empty in evaluate: harness.check_fits
    and test_per_class >= 1 give the test set a row of every class."""
    return np.diag(cm) / cm.sum(axis=1)


def balanced_accuracy(recall: np.ndarray) -> float:
    """Arithmetic mean of per-class recall."""
    return float(recall.mean())


def geometric_mean(recall: np.ndarray) -> float:
    """Geometric mean of per-class recall; exactly 0 if any recall is 0."""
    if np.any(recall == 0.0):
        return 0.0
    return float(np.exp(np.log(recall).mean()))


def plain_accuracy(cm: np.ndarray) -> float:
    return float(np.diag(cm).sum() / cm.sum())


def predicted_distribution(logits: np.ndarray) -> np.ndarray:
    """Mean softmax row over the evaluated set (nonempty, as per_class_recall)."""
    return softmax(logits).mean(axis=0)


def pseudo_label_recall(true_labels, y_hat: np.ndarray, lam: np.ndarray) -> list[float | None]:
    """Per-class recall of hard pseudo-labels over mask-passing rows only;
    classes with no mask-passing rows report None (never selected, as opposed
    to always wrong). Dataset keeps true labels in 0..K-1, and check_fits
    gives an unlabeled CSV no class the model lacks."""
    selected = np.asarray(lam) > 0.0
    k = y_hat.shape[1]
    cm = confusion(np.asarray(true_labels)[selected], y_hat.argmax(axis=1)[selected], k)
    rows = cm.sum(axis=1)
    return [float(cm[c, c] / rows[c]) if rows[c] else None for c in range(k)]


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
    recall = per_class_recall(cm)
    return MetricsReport(
        bacc=balanced_accuracy(recall),
        gm=geometric_mean(recall),
        acc=plain_accuracy(cm),
        per_class_recall=[float(r) for r in recall],
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
