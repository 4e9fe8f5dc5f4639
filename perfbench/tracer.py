"""In-memory spans recorded by the benchmark around calls into gabor_recover.

A span has a name, start, end, ``parent`` (the index of the enclosing span,
-1 for a root), ``op`` (the index of the root span it belongs to, so every
span of one trial shares an identifier) and an optional width. Spans stay in
memory while the workload runs and are written out once it ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from collections import defaultdict

import numpy as np

_clock = time.perf_counter


class Tracer:
    """Records spans when enabled; when disabled, ``call`` only calls.

    Spans live in flat arrays rather than one object each, so a long run
    does not hand the garbage collector a growing heap to traverse.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.names: list = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.widths = array("q")          # -1 for spans without a width
        self._stack: list = []

    def __len__(self) -> int:
        return len(self.names)

    def call(self, name: str, width, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``width`` tags the span for per-width metrics (``None`` for none).
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.parents.append(parent)
        self.ops.append(self.ops[parent] if parent >= 0 else idx)
        self.widths.append(-1 if width is None else width)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(_clock())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = _clock()
            self._stack.pop()

    def root_wall(self, first: int = 0) -> float:
        """Summed duration of the root spans from index ``first`` on."""
        return sum(self.ends[i] - self.starts[i]
                   for i in range(first, len(self.names)) if self.parents[i] < 0)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                width = self.widths[i]
                fh.write(json.dumps({"name": name, "start": self.starts[i],
                                     "end": self.ends[i], "parent": self.parents[i],
                                     "op": self.ops[i],
                                     "n": None if width < 0 else width}) + "\n")


@contextlib.contextmanager
def patched(module, attr: str, replacement):
    """Rebind ``module.attr`` for the duration of the block."""
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield
    finally:
        setattr(module, attr, original)


def tail_quantile(count: int) -> float:
    """The highest percentile, up to p99, with at least ten samples beyond it."""
    if count <= 20:
        return 0.5
    return min(0.99, 1.0 - 10.0 / count)


def span_stats(tracer: Tracer) -> dict:
    """Per name and per (name, width): calls, busy (self) seconds, durations."""
    durations = np.asarray(tracer.ends) - np.asarray(tracer.starts)
    parents = np.asarray(tracer.parents)
    child_time = np.zeros(len(tracer))
    nested = parents >= 0
    np.add.at(child_time, parents[nested], durations[nested])
    busy = durations - child_time
    stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "durations": []})
    for idx in range(len(tracer)):
        name, width = tracer.names[idx], tracer.widths[idx]
        for key in ((name, None), (name, width)) if width >= 0 else ((name, None),):
            entry = stats[key]
            entry["calls"] += 1
            entry["busy_s"] += float(busy[idx])
            entry["durations"].append(float(durations[idx]))
    return stats


def layer_metrics(entry) -> dict:
    """``calls``, ``busy_s``, ``p50_ms`` and ``p99_ms`` of one stats entry."""
    if entry is None or entry["calls"] == 0:
        return {"calls": 0, "busy_s": 0.0, "p50_ms": 0.0, "p99_ms": 0.0}
    durations = np.asarray(entry["durations"]) * 1e3
    return {
        "calls": entry["calls"],
        "busy_s": entry["busy_s"],
        "p50_ms": float(np.quantile(durations, 0.5)),
        "p99_ms": float(np.quantile(durations, tail_quantile(durations.size))),
    }
