import threading
import tracemalloc

import numpy as np
import pytest

from biasadapt.data import Dataset, one_hot
from biasadapt.metrics import balanced_accuracy, confusion, per_class_recall
from biasadapt.numcore import HELPER_NAME, log_softmax, weighted_ce


def _helpers_alive() -> int:
    return sum(thread.name == HELPER_NAME for thread in threading.enumerate())


@pytest.fixture
def helpers_alive():
    """How many noise helper threads are alive now."""
    return _helpers_alive


@pytest.fixture(autouse=True)
def no_helper_outlives_its_test():
    """A noise helper is joined when its draws are closed, so one still alive
    after a test means a caller let its draws go unclosed."""
    yield
    assert _helpers_alive() == 0, f"a {HELPER_NAME} thread outlived the test"


@pytest.fixture
def alloc_peak():
    """Peak bytes traced by tracemalloc during one call of fn, above what was
    held when it started; fn runs once before, to warm up lazily allocated
    NumPy state."""

    def measure(fn) -> int:
        fn()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return measure


@pytest.fixture
def linear_probe_bacc():
    """Balanced accuracy on test_ds of a full-batch softmax regression fitted
    to train_ds's raw features and true labels: the fully-supervised sanity
    probe for mixture separability. Per-class balanced weighting by default,
    so the probe measures separability rather than inheriting the pool's
    imbalance."""

    def probe(
        train_ds: Dataset, test_ds: Dataset, iters: int = 400, lr: float = 0.5,
        balanced: bool = True,
    ) -> float:
        x = train_ds.features
        truth = train_ds.true_labels
        k = train_ds.num_classes
        y = one_hot(truth, k)
        if balanced:
            counts = np.bincount(truth, minlength=k).astype(np.float64)
            weights = (1.0 / (k * counts))[truth]
        else:
            weights = np.full(x.shape[0], 1.0 / x.shape[0])
        w = np.zeros((x.shape[1], k))
        b = np.zeros(k)
        for _ in range(iters):
            _, _, d = weighted_ce(log_softmax(x @ w + b), y, weights)
            w -= lr * (x.T @ d)
            b -= lr * d.sum(axis=0)
        preds = (test_ds.features @ w + b).argmax(axis=1)
        cm = confusion(test_ds.true_labels, preds, test_ds.num_classes)
        return balanced_accuracy(per_class_recall(cm))

    return probe
