"""Dense float64 training kernel: softmax, cross-entropy, RNG.

`weighted_ce` is the one cross-entropy kernel; every caller, training and
selfcheck's finite-difference check included, applies it to `log_softmax`
rows. `softmax` and `log_softmax` check nothing: a NaN or inf input comes out
as NaN rows, which training's per-iteration loss and gradient-norm checks
report as divergence. Randomness everywhere in the package flows through
explicitly passed `numpy.random.Generator` instances backed by PCG64, so a
seed fully determines every stream. `normals_ahead` is an iterator of one
such stream's draws; where a CPU is free it draws them ahead of its reader,
on a helper thread, without changing a single draw.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from contextlib import suppress

import numpy as np


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


BLOCK_BYTES = 128 * 1024  # a helper buffer holds this much in whole draws, and one at least
HELPER_NAME = "biasadapt-normals-ahead"


def _runnable() -> int:
    """How many threads the machine runs or queues now, the caller's
    included (/proc/loadavg); a huge number where that cannot be read."""
    try:
        with open("/proc/loadavg") as fh:
            return int(fh.read().split()[3].split("/")[0])
    except (OSError, ValueError, IndexError):
        return 1 << 30


def _other_cpus() -> set[int]:
    """The CPUs this thread may run on, less the one it runs on now; empty
    where the platform lacks the affinity calls or /proc/thread-self."""
    try:
        allowed = os.sched_getaffinity(0)
        with open("/proc/thread-self/stat") as fh:
            # field 39 is the processor; the name in field 2 may hold spaces
            current = int(fh.read().rsplit(")", 1)[1].split()[36])
    except (AttributeError, OSError, ValueError, IndexError):
        return set()
    return allowed - {current}


def normals_ahead(rng: np.random.Generator, shape: tuple, count: int):
    """Yields `count` draws of `rng.standard_normal(shape)` in order, leaving
    rng where `count` calls leave it; nothing else may use rng meanwhile.

    They are drawn inline when there is no other allowed CPU, or when no
    other CPU is free as the first draw is asked for: a pinned helper on a
    busy CPU would keep the caller waiting, so a process that starts beside
    other busy ones, such as a benchmark pool worker, draws inline.
    Otherwise one helper thread pinned to the other CPUs draws ahead into
    two preallocated buffers in turn, each holding as many whole draws as
    fit in BLOCK_BYTES (at least one); filling B draws at once gives the
    stream of B calls. Such a draw is a view into a buffer that the helper
    refills once the next draw is asked for. An exception in the helper is
    raised by the next draw; closing the generator joins the helper.
    """
    cpus = _other_cpus()
    # the caller is one of the runnable threads, so fewer than len(cpus)
    # others leave one of cpus free
    if not cpus or _runnable() > len(cpus):
        for _ in range(count):
            yield rng.standard_normal(shape)
        return
    per_block = max(1, BLOCK_BYTES // (8 * math.prod(shape)))
    free, full = queue.SimpleQueue(), queue.SimpleQueue()
    for _ in range(2):
        free.put(np.empty((min(count, per_block), *shape)))

    def fill() -> None:
        try:
            with suppress(OSError):  # unpinned, the helper draws the same stream
                os.sched_setaffinity(0, cpus)
            for start in range(0, count, per_block):
                buf = free.get()
                if buf is None:  # closed
                    return
                block = buf[: count - start]
                rng.standard_normal(out=block)
                full.put(block)
        except Exception as exc:
            full.put(exc)

    helper = threading.Thread(target=fill, name=HELPER_NAME, daemon=True)
    helper.start()
    try:
        for _ in range(0, count, per_block):
            block = full.get()
            if isinstance(block, Exception):
                raise block
            yield from block
            free.put(block)
    finally:
        free.put(None)
        helper.join()


class NonFinite(ValueError):
    """A value that must be finite is not: an overflow, not a bad argument."""


def ensure_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"non-finite {name}")


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

