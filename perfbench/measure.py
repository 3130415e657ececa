"""Latency statistics with the sample-count rule the benchmark reports by,
and the host-speed reference that timed metrics are scaled by."""

from __future__ import annotations

import gc
import math
import time
from typing import Dict, Optional, Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10
#: About the median :func:`reference_chunk` time on the 2-vCPU Xeon host the
#: bounds were set on.  Timed metrics are scaled by this over the chunk times
#: around them, so they read as if the host had run at that speed.
REFERENCE_CHUNK_S = 0.0065


def reference_chunk() -> float:
    """Seconds taken by one fixed piece of pure-Python work that uses no
    library code: a dict-update loop and a depth-first enumeration of every
    path through a small DAG, the kind of work the library's ops are made of.

    Timed between ops, it measures how fast the shared host runs at that
    moment.  Nothing the library does may change its cost, so the collector
    is off while it runs.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        table: Dict[int, int] = {}
        for i in range(20000):
            table[i & 1023] = table.get(i & 1023, 0) + i * i % 7
        successors = {u: range(u + 1, min(15, u + 4)) for u in range(15)}
        paths = []
        stack = [(0, (0,))]
        while stack:
            node, path = stack.pop()
            if node == 14:
                paths.append(frozenset(path))
            for successor in successors[node]:
                stack.append((successor, path + (successor,)))
        return time.perf_counter() - started
    finally:
        gc.enable()


def at_reference_speed(seconds: float, chunks: Sequence[float]) -> float:
    """``seconds`` as if the host had run at the reference speed: scaled by
    :data:`REFERENCE_CHUNK_S` over the mean of the ``chunks`` timed around
    it."""
    return seconds * REFERENCE_CHUNK_S * len(chunks) / sum(chunks)


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (linear interpolation between closest ranks),
    or ``None`` when fewer than :data:`MIN_TAIL_SAMPLES` samples lie beyond
    it — so p50 needs 20 samples and p90 needs 100."""
    n = len(values)
    if n == 0 or n * (100.0 - q) / 100.0 < MIN_TAIL_SAMPLES - 1e-9:
        return None
    ordered = sorted(values)
    rank = (n - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def latency_summary(seconds: Sequence[float], completed: int) -> Dict[str, float]:
    """End-to-end op metrics from per-op wall times (closed loop, one client).

    ``ops_per_s`` is completed ops over the summed op time; a percentile the
    sample count cannot support is left out.
    """
    summary: Dict[str, float] = {}
    total = sum(seconds)
    if total > 0:
        summary["ops_per_s"] = completed / total
    for name, q in (("op_p50_ms", 50.0), ("op_p90_ms", 90.0)):
        value = percentile(seconds, q)
        if value is not None:
            summary[name] = 1000.0 * value
    return summary
