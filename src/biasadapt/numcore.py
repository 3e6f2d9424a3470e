"""Dense float64 training kernel: softmax, cross-entropy, RNG.

`weighted_ce` is the one cross-entropy kernel; every caller, training and
selfcheck's finite-difference check included, applies it to `log_softmax`
rows. `softmax` and `log_softmax` check nothing: a NaN or inf input comes out
as NaN rows, which training's per-iteration loss and gradient-norm checks
report as divergence. Randomness everywhere in the package flows through
explicitly passed `numpy.random.Generator` instances backed by PCG64, so a
seed fully determines every stream. `normals_ahead` draws one such stream
ahead of its reader, on a helper thread, without changing a single draw.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from contextlib import contextmanager, suppress

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


BLOCK_BYTES = 128 * 1024  # a NormalsAhead buffer holds this much in whole draws, and one at least
HELPER_NAME = "biasadapt-normals-ahead"


class NormalsAhead:
    """Stands in for `rng.standard_normal(shape)` over `count` calls: the same
    draws in the same order, drawn ahead by one helper thread pinned to `cpus`.

    The helper fills two preallocated buffers in turn, each with as many
    whole draws as fit in BLOCK_BYTES (at least one); filling B draws at once
    gives the stream of B sequential calls, so after `count` draws rng's state
    is that of `count` calls. Unlike a Generator's, a returned draw is not a
    fresh array: it is a view into a buffer the helper refills, valid only
    until the next call. An exception in the helper is raised by the next
    call. `close` joins the helper; nothing else may use rng meanwhile.
    """

    def __init__(self, rng: np.random.Generator, shape: tuple, count: int, cpus: set[int]):
        self.shape = tuple(shape)
        per_block = min(count, max(1, BLOCK_BYTES // (8 * math.prod(self.shape))))
        self._left = count
        # the block being read and the index of its next draw
        self._block: np.ndarray | None = None
        self._next = 0
        self._free: queue.SimpleQueue = queue.SimpleQueue()
        self._full: queue.SimpleQueue = queue.SimpleQueue()
        for _ in range(2):
            self._free.put(np.empty((per_block, *self.shape)))
        self._helper = threading.Thread(
            target=self._fill, args=(rng, count, cpus), name=HELPER_NAME, daemon=True)
        self._helper.start()

    def _fill(self, rng: np.random.Generator, count: int, cpus: set[int]) -> None:
        try:
            with suppress(OSError):  # unpinned, the helper draws the same stream
                os.sched_setaffinity(0, cpus)
            while count > 0:
                buf = self._free.get()
                if buf is None:  # closed
                    return
                n = min(count, len(buf))
                rng.standard_normal(out=buf[:n])
                self._full.put(buf)
                count -= n
        except Exception as exc:
            self._full.put(exc)

    def standard_normal(self, shape) -> np.ndarray:
        if tuple(shape) != self.shape:
            raise ValueError(f"shape {tuple(shape)}: this stream draws {self.shape}")
        if self._left == 0:
            raise RuntimeError("every draw of this stream has been taken")
        if self._block is None or self._next == len(self._block):
            if self._block is not None:
                self._free.put(self._block)
            item = self._full.get()
            if isinstance(item, Exception):
                raise item
            self._block, self._next = item, 0
        draw = self._block[self._next]
        self._next += 1
        self._left -= 1
        return draw

    def close(self) -> None:
        self._free.put(None)
        self._helper.join()


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


@contextmanager
def normals_ahead(rng: np.random.Generator, shape: tuple, count: int):
    """Yields what `count` calls of `standard_normal(shape)` read from: a
    NormalsAhead over rng pinned to the other allowed CPUs, or rng itself
    when count is 0, there is no other CPU, or no other CPU is free as it
    starts. A pinned helper on a busy CPU would keep the caller waiting, so
    a process that starts beside other busy ones, such as a benchmark pool
    worker, draws inline. The helper is joined on every way out."""
    cpus = _other_cpus() if count > 0 else set()
    # the caller is one of the runnable threads, so fewer than len(cpus)
    # others leave one of cpus free
    if not cpus or _runnable() > len(cpus):
        yield rng
        return
    ahead = NormalsAhead(rng, shape, count, cpus)
    try:
        yield ahead
    finally:
        ahead.close()


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

