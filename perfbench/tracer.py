"""In-memory span recorder that times the program's functions from outside.

A function is traced by replacing it, under the name its caller looks it up
by, with a wrapper that records one span (name, start, end, parent). `from .x
import y` copies `y` into the importing module, so the same function is often
patched under several module names with one canonical span name. Every
replaced name is put back by `restore()`. The wrappers read only the clock and
the shapes and values the function returns; they consume no randomness.

Times come from `time.monotonic` (CLOCK_MONOTONIC on Linux), one clock for
every process on the machine, so a child's span can be set against the moment
its parent spawned it.
"""

from __future__ import annotations

import time
from collections import defaultdict

ROOT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.info: dict[int, object] = {}
        self.rows: dict[int, int] = {}
        # count-only events: name -> list of the enclosing span index
        self.events: dict[str, list[int]] = defaultdict(list)
        self.pseudo_drawn = 0
        self.pseudo_accepted = 0
        self._stack = [ROOT]
        self._saved: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, rows_arg=None, info=None, after=None):
        """Time every call of owner.attr as a span called `name`. rows_arg is
        the index of the argument whose leading dimension is the row count;
        info(args) is stored with the span; after(tracer, result) sees the
        result."""
        fn = getattr(owner, attr)
        clock = time.monotonic

        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.ends.append(0.0)
            if rows_arg is not None:
                self.rows[idx] = args[rows_arg].shape[0]
            if info is not None:
                self.info[idx] = info(args)
            self._stack.append(idx)
            self.starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self._stack.pop()
            if after is not None:
                after(self, out)
            return out

        self._replace(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count the calls of owner.attr with their enclosing span; no timing."""
        fn = getattr(owner, attr)
        events = self.events[name]
        stack = self._stack

        def wrapper(*args, **kwargs):
            events.append(stack[-1])
            return fn(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        dur = self.durations()
        out = list(dur)
        for i, p in enumerate(self.parents):
            if p != ROOT:
                out[p] -= dur[i]
        return out

    def ancestry_flags(self, name: str) -> list[bool]:
        """flags[i] is true when span i or one of its ancestors is `name`.
        Parents always precede their children, so one forward pass suffices."""
        flags: list[bool] = []
        for i, (n, p) in enumerate(zip(self.names, self.parents)):
            flags.append(n == name or (p != ROOT and flags[p]))
        return flags

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,info,start,end,parent\n")
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                fh.write(f"{i},{n},{self.info.get(i, '')},{s!r},{e!r},{p}\n")
