"""Imbalanced dataset construction: count recipes, synthetic Gaussian mixtures,
labeled/unlabeled splits, class-balanced batches, CSV round-trip."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numcore import NonFinite, ensure_finite

UNLABELED = -1

PROFILE_KINDS = ("longtail", "step", "reversed_longtail", "uniform")


@dataclass(frozen=True)
class ImbalanceProfile:
    """Per-class count recipe, for any class count. gamma is the max/min
    count ratio, n1 the largest class count. The defaults are a config's, so
    a config's profile mapping may leave a key out."""

    kind: str = "longtail"
    gamma: float = 20.0
    n1: int = 100

    def __post_init__(self):
        # each message starts with its field's name, which a config prefixes
        # with the field's key path
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"kind: expected one of {PROFILE_KINDS}, got {self.kind!r}")
        if not self.gamma >= 1.0:
            raise ValueError(f"gamma: expected >= 1, got {self.gamma}")
        if self.n1 < 1:
            raise ValueError(f"n1: expected >= 1, got {self.n1}")


def check_mixture(num_classes: int, dim: int, class_separation: float, key: str = "") -> None:
    """Refuse a Gaussian mixture that synth_gaussian_mixture cannot draw,
    each message starting with `key` and its field's name; a NaN or infinite
    separation fails."""
    for name, value, low in (
        ("num_classes", num_classes, 2), ("dim", dim, 2), ("class_separation", class_separation, 0)
    ):
        if not low <= value < math.inf:
            raise ValueError(f"{key}{name}: expected >= {low}, got {value!r}")


def class_counts(profile: ImbalanceProfile, num_classes: int) -> np.ndarray:
    """Per-class sample counts, length num_classes, every entry >= 1.

    longtail decays geometrically from n1 at class 0 down to n1/gamma at the
    last class; reversed_longtail is that sequence reversed; step gives the
    first ceil(K/2) classes n1 and the rest n1/gamma; uniform gives n1 to all.
    Fractional counts are floored (with a 1e-9 guard so exact ratios like
    1500/100 stay exact in floating point) and clamped at 1.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes: expected >= 2, got {num_classes!r}")
    k = num_classes
    g = profile.gamma
    n1 = profile.n1
    if profile.kind == "uniform":
        return np.full(k, n1, dtype=np.int64)
    if profile.kind == "step":
        head = math.ceil(k / 2)
        tail_count = max(1, math.floor(n1 / g + 1e-9))
        return np.array([n1] * head + [tail_count] * (k - head), dtype=np.int64)
    decay = np.array(
        [max(1, math.floor(n1 * g ** (-i / (k - 1)) + 1e-9)) for i in range(k)],
        dtype=np.int64,
    )
    if profile.kind == "reversed_longtail":
        return decay[::-1].copy()
    return decay


class BadRow(ValueError):
    """A Dataset row breaks a rule: `row` is its index, `rule` the message without it."""

    def __init__(self, row: int, rule: str):
        super().__init__(f"row {row}: {rule}")
        self.row, self.rule = row, rule


@dataclass
class Dataset:
    """Feature matrix with observed labels (-1 = unlabeled) and hidden
    ground-truth labels kept only for diagnostics. Building one is the one
    scan of its values: BadRow names the first bad row."""

    features: np.ndarray
    labels: np.ndarray
    true_labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.true_labels = np.asarray(self.true_labels, dtype=np.int64)
        rows = self.features.shape[:1]
        if self.features.ndim != 2 or not self.labels.shape == self.true_labels.shape == rows:
            raise ValueError("features must be 2-D, with one label and true_label per row")
        try:
            ensure_finite("features", self.features)
        except NonFinite:
            row = np.flatnonzero(~np.isfinite(self.features).all(axis=1))[0]
            raise BadRow(int(row), "non-finite features") from None
        y, truth, k = self.labels, self.true_labels, self.num_classes
        for bad, rule in (
            (truth < 0, "true_labels must be >= 0"),
            ((y < UNLABELED) | (y >= k), f"labels must lie in {{-1, 0..{k - 1}}}"),
            (truth >= k, f"true_labels must lie in {{0..{k - 1}}}"),
            ((y >= 0) & (y != truth), "labeled rows must have labels == true_labels"),
        ):
            if bad.any():
                r = int(bad.argmax())
                raise BadRow(r, f"label {y[r]}, true_label {truth[r]}; {rule}")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def class_means_on_sphere(num_classes: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """K unit vectors from the rng stream; orthonormalized (modified
    Gram-Schmidt) when K <= dim so the spread is exact."""
    raw = rng.standard_normal((num_classes, dim))
    if num_classes <= dim:
        basis = np.empty_like(raw)
        for i in range(num_classes):
            v = raw[i].copy()
            for j in range(i):
                v -= (v @ basis[j]) * basis[j]
            basis[i] = v / np.linalg.norm(v)
        return basis
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def synth_gaussian_mixture(
    num_classes: int,
    dim: int,
    class_separation: float,
    counts,
    rng: np.random.Generator,
) -> Dataset:
    """Fully-labeled mixture dataset: class k gets counts[k] rows drawn from an
    isotropic unit-variance Gaussian at class_separation * (unit direction k)."""
    check_mixture(num_classes, dim, class_separation)
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (num_classes,):
        raise ValueError(f"counts must have length {num_classes}")
    means = class_separation * class_means_on_sphere(num_classes, dim, rng)
    features = np.empty((int(counts.sum()), dim))
    start = 0
    for k in range(num_classes):
        block = features[start : start + int(counts[k])]
        rng.standard_normal(out=block)
        block += means[k]
        start += int(counts[k])
    y = np.repeat(np.arange(num_classes, dtype=np.int64), counts)
    return Dataset(features, y.copy(), y, num_classes)


def _subset(full: Dataset, idx: np.ndarray, labeled: bool) -> Dataset:
    truth = full.true_labels[idx]
    labels = truth.copy() if labeled else np.full(idx.size, UNLABELED, dtype=np.int64)
    # fancy indexing already copies: the subset shares no memory with full
    return Dataset(full.features[idx], labels, truth, full.num_classes)


def split_counts(full: Dataset, parts, labeled_flags, rng: np.random.Generator) -> list[Dataset]:
    """Partition a fully-labeled dataset into disjoint per-class subsets.

    parts is a sequence of per-class count arrays (one per output dataset)
    whose sum is at most full's per-class counts: both callers draw full from
    exactly that sum. labeled_flags says which outputs keep their labels.
    """
    parts = [np.asarray(p, dtype=np.int64) for p in parts]
    perms = [rng.permutation(np.flatnonzero(full.true_labels == k)) for k in range(full.num_classes)]
    outputs = []
    offsets = np.zeros(full.num_classes, dtype=np.int64)
    for counts, labeled in zip(parts, labeled_flags):
        take = []
        for k in range(full.num_classes):
            c = int(counts[k])
            take.append(perms[k][offsets[k] : offsets[k] + c])
            offsets[k] += c
        idx = np.concatenate(take)
        outputs.append(_subset(full, idx, labeled))
    return outputs


def balanced_index(dataset: Dataset, batch_size: int) -> tuple[np.ndarray, ...]:
    """(flat, low, high): every labeled row, class by class, and for each
    draw of a balanced batch of batch_size rows the span [low, high) of its
    class in flat. Raises when the class count does not divide batch_size
    (the config's balanced_n) or naming the first class without labeled
    rows."""
    k = dataset.num_classes
    if batch_size % k != 0:
        raise ValueError(f"balanced_n {batch_size} not divisible by {k} classes")
    rows = [np.flatnonzero(dataset.labels == c) for c in range(k)]
    sizes = np.array([r.size for r in rows])
    if not sizes.all():
        raise ValueError(f"class {int(np.argmin(sizes))} has no labeled rows")
    low = np.repeat(np.cumsum(sizes) - sizes, batch_size // k)
    return np.concatenate(rows), low, low + np.repeat(sizes, batch_size // k)


def balanced_batch(index: tuple[np.ndarray, ...], rng: np.random.Generator) -> np.ndarray:
    """Exactly stratified class-aware sample from index = balanced_index(...):
    the same number of rows per class, drawn with replacement within each
    class. One draw for every class's positions is the same stream as one
    rng.integers(0, size, size=per_class) call per class in turn."""
    flat, low, high = index
    return flat[rng.integers(low, high)]


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Indicator rows of labels in 0..K-1, unchecked: harness.load_labeled_csv
    refuses a -1 row, and a synthetic labeled split labels every row."""
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def save_csv_dataset(dataset: Dataset, path) -> None:
    """CSV with columns f0..f{d-1}, label, true_label; floats carry 17
    significant digits so save -> load is bit-exact."""
    path = Path(path)
    d = dataset.dim
    header = ",".join([f"f{i}" for i in range(d)] + ["label", "true_label"])
    with path.open("w") as fh:
        fh.write(header + "\n")
        for i in range(len(dataset)):
            feats = ",".join(f"{v:.17g}" for v in dataset.features[i])
            fh.write(f"{feats},{dataset.labels[i]},{dataset.true_labels[i]}\n")


def load_csv_dataset(path) -> Dataset:
    path = Path(path)
    with path.open() as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].split(",")
    if len(header) < 3 or header[-2] != "label" or header[-1] != "true_label":
        raise ValueError(f"{path}: line 1: bad header, want f0..fd,label,true_label")
    d = len(header) - 2
    features = np.empty((len(lines) - 1, d))
    labels, truths = np.empty((2, len(lines) - 1), dtype=np.int64)
    for row, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != d + 2:
            raise ValueError(f"{path}: line {row + 2}: expected {d + 2} cells, got {len(cells)}")
        try:
            features[row] = [float(c) for c in cells[:d]]
            labels[row] = int(cells[d])
            truths[row] = int(cells[d + 1])
        except ValueError as exc:
            raise ValueError(f"{path}: line {row + 2}: {exc}") from None
    if truths.size == 0:
        raise ValueError(f"{path}: no data rows")
    try:
        return Dataset(features, labels, truths, int(truths.max()) + 1)
    except BadRow as exc:
        raise ValueError(f"{path}: line {exc.row + 2}: {exc.rule}") from None
