"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's evaluation artifacts (a table,
a theorem's tight value, or an ablation) and asserts the *shape* claims the
paper makes about it — who wins, by roughly what factor — while
pytest-benchmark records the runtime.  Results that belong in EXPERIMENTS.md
are attached to ``benchmark.extra_info`` so a ``--benchmark-json`` run carries
the measured values alongside the timings.

Machine-readable output
-----------------------

Setting the ``BENCH_JSON`` environment variable to a file path makes the
session write one JSON document collecting every benchmark that went through
:func:`run_once`: name, wall-clock seconds and the final ``extra_info``
payload (serialised with ``default=str`` so tuples/nodes degrade gracefully).
CI uses this to append a point to the perf trajectory (``BENCH_pr<N>.json``)
without depending on pytest-benchmark's own storage format.

Trial counts are reduced relative to the paper where the paper-sized run would
take minutes (the drivers accept the full counts; see each module docstring).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List

import pytest

#: Master seed used by every benchmark for reproducibility.
BENCH_SEED = 2018

#: Records collected by run_once for the BENCH_JSON emitter.  Each entry
#: keeps a live reference to the benchmark's extra_info dict, so values the
#: test attaches *after* run_once returns are still serialised.
_RECORDS: List[Dict[str, Any]] = []


@pytest.fixture(scope="session")
def bench_seed() -> int:
    return BENCH_SEED


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The experiment drivers are deterministic for a fixed seed, so repeating
    them only burns wall-clock time; one round with one iteration is enough
    for a stable, meaningful measurement of the end-to-end experiment cost.
    """
    from repro.resilience.pool import pool_counters

    before = pool_counters().as_dict()
    start = time.perf_counter()
    result = benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
    seconds = time.perf_counter() - start
    after = pool_counters().as_dict()
    _RECORDS.append(
        {
            "benchmark": getattr(benchmark, "name", None) or func.__name__,
            "seconds": seconds,
            "extra_info": benchmark.extra_info,
            # Fault-handling deltas for this benchmark: a clean host reports
            # all-zero; nonzero retries/failures explain timing outliers.
            "pool_events": {
                name: after[name] - before[name] for name in after
            },
        }
    )
    return result


def exact_mu(graph, placement) -> int:
    """Exact µ(G|χ) under CSP on the :class:`repro.Scenario` facade.

    Enumeration bypasses the process-wide pathset cache, so the large path
    sets of the theorem benchmarks are freed after their measurement.
    """
    from repro.api import EngineConfig, Scenario

    scenario = Scenario.from_components(
        graph, placement, engine=EngineConfig(cache=False)
    )
    return scenario.mu().value


def pytest_sessionfinish(session, exitstatus):
    """Write the collected records to ``$BENCH_JSON``, if requested."""
    path = os.environ.get("BENCH_JSON")
    if not path or not _RECORDS:
        return
    totals: Dict[str, int] = {}
    for record in _RECORDS:
        for name, value in record.get("pool_events", {}).items():
            totals[name] = totals.get(name, 0) + value
    document = {
        "seed": BENCH_SEED,
        "exit_status": int(exitstatus),
        "pool_events": totals,
        "benchmarks": _RECORDS,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, default=str)
        handle.write("\n")
