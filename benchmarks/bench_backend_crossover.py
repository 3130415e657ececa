"""Satellite sweep backing the column kernels' choice: numpy whenever it imports.

One synthetic cell (40 elements; each path column's touch set drawn from a
pool of a third as many patterns, so duplicate columns exist to merge) is
rebuilt at a ladder of path-universe widths, and the two column kernels of
:mod:`repro.engine.columns` alternate on two workloads:
:func:`~repro.engine.compress.compress_universe` (one ``dedup_columns``) and
a churn-shaped ``gather_columns`` (about 5 % of the columns removed, the
survivors moved, about 5 % new columns scattered in), the write path of
``PathSet.apply_delta`` and the engine patch.

Asserted hard at every width: both kernels return the **identical** plan
(members, and touch keys read on demand on each kernel), compressed rows and
gathered rows.  Asserted soft
(generous tolerance, env-overridable): numpy wins both workloads at every
width of the ladder, which is why it runs whenever it is importable and the
big-int kernel serves numpy-less installs only.  The measured ladder and the
empirical crossover width (first width where numpy wins both workloads) are
recorded in ``extra_info``.
"""

from __future__ import annotations

import contextlib
import os
import random
import time
from typing import Dict, Iterator, List, Optional

import pytest

from conftest import run_once

from repro.engine import columns
from repro.engine.columns import gather_columns, numpy_available
from repro.engine.compress import compress_universe
from repro.utils.tables import format_table

#: Path-universe widths swept.
WIDTHS = (32, 64, 128, 256, 512, 1024, 4096, 16384, 65536)

#: Elements (rows) per synthetic cell.
N_ELEMENTS = 40

#: Share of columns a churn step removes, and share it adds.
CHURN_SHARE = 0.05

#: Timing repetitions per (width, kernel): at least this many, and more
#: until one kernel has run for ``MIN_TIMING_SECONDS``, so the sub-ms cells
#: at the bottom of the ladder get enough tries for a stable minimum.  The
#: minimum is reported.
TIMING_REPEATS = 3
MIN_TIMING_SECONDS = 0.2

KERNELS = ("python", "numpy")
WORKLOADS = ("compress", "gather")

#: Soft-claim tolerance: the winning side must be at least this much
#: faster before the ladder calls the comparison conclusive.
CROSSOVER_TOLERANCE = float(os.environ.get("BENCH_CROSSOVER_TOLERANCE", "1.1"))


@contextlib.contextmanager
def _kernel(name: str) -> Iterator[None]:
    """Every column primitive on the ``name`` kernel inside the block."""
    saved = columns._np
    if name == "python":
        columns._np = None
    try:
        yield
    finally:
        columns._np = saved


def _cell(width: int, seed: int):
    """``(nodes, masks, sources, scatter)``: the cell's rows and one churn
    step's gather over them."""
    rng = random.Random(seed * 1000 + width)
    patterns = [rng.getrandbits(N_ELEMENTS) for _ in range(max(1, width // 3))]
    rows = [0] * N_ELEMENTS
    for column in range(width):
        touch = rng.choice(patterns)
        for i in range(N_ELEMENTS):
            if touch >> i & 1:
                rows[i] |= 1 << column
    nodes = [f"e{i}" for i in range(N_ELEMENTS)]
    removed = set(rng.sample(range(width), max(1, int(width * CHURN_SHARE))))
    sources = [column for column in range(width) if column not in removed]
    n_added = max(1, int(width * CHURN_SHARE))
    for _ in range(n_added):
        sources.insert(rng.randrange(len(sources) + 1), -1)
    added = [j for j, source in enumerate(sources) if source < 0]
    scatter = [
        [j for j in added if rng.random() < 0.3] for _ in range(N_ELEMENTS)
    ]
    return nodes, dict(zip(nodes, rows)), sources, scatter


def _measurements(width: int, seed: int) -> Dict[str, Dict[str, object]]:
    """Per workload: the best seconds of each kernel, with the results of
    both asserted identical.  The kernels alternate within each repetition,
    so a drift in host speed hits both alike."""
    nodes, masks, sources, scatter = _cell(width, seed)
    rows = [masks[node] for node in nodes]
    calls = {
        "compress": lambda: compress_universe(nodes, masks, width),
        "gather": lambda: gather_columns(rows, sources, width, scatter),
    }
    measured: Dict[str, Dict[str, object]] = {}
    for workload, call in calls.items():
        best = dict.fromkeys(KERNELS, float("inf"))
        spent = dict.fromkeys(KERNELS, 0.0)
        results = {}
        touch_keys = {}
        repeats = 0
        while repeats < TIMING_REPEATS or max(spent.values()) < MIN_TIMING_SECONDS:
            for kernel in KERNELS:
                with _kernel(kernel):
                    start = time.perf_counter()
                    results[kernel] = call()
                    seconds = time.perf_counter() - start
                    if workload == "compress":
                        # The plan's touch keys are read on demand (only
                        # churn reads them): read them, untimed, on this
                        # kernel.
                        touch_keys[kernel] = results[kernel][0].touch_keys
                best[kernel] = min(best[kernel], seconds)
                spent[kernel] += seconds
            repeats += 1
        python_result, numpy_result = results["python"], results["numpy"]
        if workload == "compress":
            # Plan equality ignores the touch keys; compare them too.
            assert touch_keys["python"] == touch_keys["numpy"], width
        assert python_result == numpy_result, (workload, width)
        measured[workload] = {
            "python_seconds": best["python"],
            "numpy_seconds": best["numpy"],
            "numpy_over_python": best["numpy"] / best["python"],
        }
    return measured


def _crossover_suite(seed: int) -> List[Dict[str, object]]:
    return [
        {"width": width, **_measurements(width, seed)} for width in WIDTHS
    ]


def _empirical_crossover(ladder: List[Dict[str, object]]) -> Optional[int]:
    for row in ladder:
        if all(row[workload]["numpy_over_python"] <= 1.0 for workload in WORKLOADS):
            return row["width"]
    return None


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_backend_crossover(benchmark, bench_seed):
    ladder = run_once(benchmark, _crossover_suite, bench_seed)

    # Soft claim: numpy wins both workloads at every width.
    for row in ladder:
        for workload in WORKLOADS:
            ratio = row[workload]["numpy_over_python"]
            assert ratio <= 1 / CROSSOVER_TOLERANCE, (
                f"width {row['width']}, {workload}: expected the numpy kernel "
                f"to win, measured {ratio:.2f}x"
            )

    print()
    print(
        format_table(
            ["|P|"]
            + [f"{workload} {kernel} (s)" for workload in WORKLOADS for kernel in KERNELS]
            + [f"{workload} np/py" for workload in WORKLOADS],
            [
                [row["width"]]
                + [
                    row[workload][f"{kernel}_seconds"]
                    for workload in WORKLOADS
                    for kernel in KERNELS
                ]
                + [round(row[workload]["numpy_over_python"], 3) for workload in WORKLOADS]
                for row in ladder
            ],
            title="Column-kernel crossover ladder",
        )
    )

    benchmark.extra_info["experiment"] = (
        "big-int/numpy column-kernel ladder (compress_universe and a "
        f"churn-shaped gather_columns, {N_ELEMENTS}-element cells)"
    )
    benchmark.extra_info["widths"] = list(WIDTHS)
    benchmark.extra_info["empirical_crossover_width"] = _empirical_crossover(
        ladder
    )
    benchmark.extra_info["measured"] = {
        str(row["width"]): row for row in ladder
    }
