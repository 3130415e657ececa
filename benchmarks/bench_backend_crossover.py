"""Satellite sweep calibrating the ``NUMPY_MIN_PATHS = 256`` auto-crossover.

One synthetic census cell (40 random elements, the ``C(40, 3) = 9880``
size-3 subsets, no compression so the width under test is the width
measured) is rebuilt and its size-3 subsets grouped by signature at a
ladder of path-universe widths spanning the crossover, once per backend.
Both backends run the one subset frontier: numpy through its vectorized
block ops, python through the pure-python fallback of the same ops.  (The
µ search runs on big-int rows whatever the backend, so the census is where
the backends differ.)  The cell times the grouping pass that
``inseparable_pairs`` and ``separability_matrix`` share, not the pair list
they build from it, whose Python cost does not depend on the backend.
Timings include engine construction, so signature interning is part of
the bill exactly as it is for a real ``resolve_backend`` decision.

Asserted hard at every width: both backends report the **identical**
result.  Asserted soft (generous tolerances, env-overridable): CPython
big-int ops win outright at the bottom of the ladder, numpy wins at the
top — the shape that puts the crossover in between.  The measured ladder
and the empirical crossover width (first width where numpy wins) are
recorded in ``extra_info``; :data:`repro.engine.backends.NUMPY_MIN_PATHS`
documents how to override the constant when a deployment's measurements
disagree.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List, Optional, Tuple

import pytest

from conftest import run_once

from repro.engine.backends import numpy_available
from repro.engine.signatures import SignatureEngine
from repro.utils.tables import format_table

#: Path-universe widths swept, from below NUMPY_MIN_PATHS = 256 up to a
#: width where the numpy frontier wins.
WIDTHS = (32, 64, 128, 256, 512, 1024, 4096, 16384, 65536)

#: Elements per synthetic cell; C(40, 3) = 9880 size-3 subsets.
N_ELEMENTS = 40

#: Timing repetitions per (width, backend); the minimum is reported.
TIMING_REPEATS = 3

#: Soft-claim tolerance: the winning side must be at least this much
#: faster before the ladder calls the comparison conclusive.
CROSSOVER_TOLERANCE = float(os.environ.get("BENCH_CROSSOVER_TOLERANCE", "1.1"))


def _census(width: int, backend: str, seed: int) -> Tuple[object, float]:
    rng = random.Random(seed * 1000 + width)
    nodes = [f"e{i}" for i in range(N_ELEMENTS)]
    masks = {
        node: rng.getrandbits(width) | (1 << rng.randrange(width))
        for node in nodes
    }
    best, result = float("inf"), None
    for _ in range(TIMING_REPEATS):
        start = time.perf_counter()
        engine = SignatureEngine(
            nodes, masks, width, backend=backend, compress=False
        )
        result = engine._subset_census(3, None, None)[1]
        best = min(best, time.perf_counter() - start)
    return result, best


def _crossover_suite(seed: int) -> List[Dict[str, object]]:
    ladder: List[Dict[str, object]] = []
    for width in WIDTHS:
        python_result, python_seconds = _census(width, "python", seed)
        numpy_result, numpy_seconds = _census(width, "numpy", seed)
        assert numpy_result == python_result, (width, python_result, numpy_result)
        ladder.append(
            {
                "width": width,
                "collision_groups": sum(
                    len(group) > 1 for group in python_result
                ),
                "python_seconds": python_seconds,
                "numpy_seconds": numpy_seconds,
                "numpy_over_python": numpy_seconds / python_seconds,
            }
        )
    return ladder


def _empirical_crossover(ladder: List[Dict[str, object]]) -> Optional[int]:
    for row in ladder:
        if row["numpy_over_python"] <= 1.0:
            return row["width"]
    return None


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_backend_crossover(benchmark, bench_seed):
    ladder = run_once(benchmark, _crossover_suite, bench_seed)

    # Soft shape claims bracketing NUMPY_MIN_PATHS: big ints win outright at
    # the bottom of the ladder, numpy wins at the top.
    bottom, top = ladder[0], ladder[-1]
    assert bottom["numpy_over_python"] >= CROSSOVER_TOLERANCE, (
        f"width {bottom['width']}: expected CPython big ints to win below "
        f"the crossover, measured {bottom['numpy_over_python']:.2f}x"
    )
    assert top["numpy_over_python"] <= 1 / CROSSOVER_TOLERANCE, (
        f"width {top['width']}: expected numpy to win above the crossover, "
        f"measured {top['numpy_over_python']:.2f}x"
    )

    print()
    print(
        format_table(
            ["|P|", "collision groups", "python (s)", "numpy (s)", "np/py"],
            [
                [
                    row["width"],
                    row["collision_groups"],
                    row["python_seconds"],
                    row["numpy_seconds"],
                    round(row["numpy_over_python"], 3),
                ]
                for row in ladder
            ],
            title="Backend auto-crossover ladder (NUMPY_MIN_PATHS = 256)",
        )
    )

    benchmark.extra_info["experiment"] = (
        "python/numpy backend crossover ladder (the subset-frontier census, "
        f"{N_ELEMENTS}-element cells)"
    )
    benchmark.extra_info["widths"] = list(WIDTHS)
    benchmark.extra_info["empirical_crossover_width"] = _empirical_crossover(
        ladder
    )
    benchmark.extra_info["measured"] = {
        str(row["width"]): row for row in ladder
    }
