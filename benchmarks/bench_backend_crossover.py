"""Satellite sweep calibrating the ``NUMPY_MIN_PATHS = 256`` auto-crossover.

One synthetic cell (40 random elements, no compression so the width under
test is the width measured) is rebuilt at a ladder of path-universe widths
spanning the crossover, the two backends alternating, and measures a fixed
list of failure sets: one Boolean measurement vector (Equation (1)) per set, the
signature layer the backend still decides.  (The µ search, local µ and the
separability census run on big-int rows whatever the backend, so they no
longer tell the backends apart.)  Timings include engine construction, so
signature packing and interning are part of the bill exactly as they are
for a real ``resolve_backend`` decision.

Asserted hard at every width: both backends report the **identical**
measurement vectors.  Asserted soft (generous tolerances, env-overridable):
CPython big ints win outright at the bottom of the ladder, numpy wins at
the top — the shape that puts the crossover in between.  The measured
ladder and the empirical crossover width (first width where numpy wins)
are recorded in ``extra_info``; :data:`repro.engine.backends.NUMPY_MIN_PATHS`
documents how to override the constant when a deployment's measurements
disagree.
"""

from __future__ import annotations

import hashlib
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
#: width where numpy wins.
WIDTHS = (32, 64, 128, 256, 512, 1024, 4096, 16384, 65536)

#: Elements per synthetic cell.
N_ELEMENTS = 40

#: Failure sets measured per cell (one to three random elements each).
N_FAILURE_SETS = 100

#: Timing repetitions per (width, backend): at least this many, and more
#: until one backend has run for ``MIN_TIMING_SECONDS``, so the sub-ms
#: cells at the bottom of the ladder get enough tries for a stable minimum.
#: The minimum is reported.
TIMING_REPEATS = 3
MIN_TIMING_SECONDS = 0.2

BACKENDS = ("python", "numpy")

#: Soft-claim tolerance: the winning side must be at least this much
#: faster before the ladder calls the comparison conclusive.
CROSSOVER_TOLERANCE = float(os.environ.get("BENCH_CROSSOVER_TOLERANCE", "1.1"))


def _measurements(
    width: int, seed: int
) -> Dict[str, Tuple[Tuple[str, int], float]]:
    """Per backend: a digest of the measurement vectors with their total
    ones, and the best seconds to build the engine and measure every
    failure set.  The backends alternate within each repetition, so a
    drift in host speed hits both alike."""
    rng = random.Random(seed * 1000 + width)
    nodes = [f"e{i}" for i in range(N_ELEMENTS)]
    masks = {
        node: rng.getrandbits(width) | (1 << rng.randrange(width))
        for node in nodes
    }
    failure_sets = [
        rng.sample(nodes, rng.randint(1, 3)) for _ in range(N_FAILURE_SETS)
    ]
    best = dict.fromkeys(BACKENDS, float("inf"))
    spent = dict.fromkeys(BACKENDS, 0.0)
    engines: Dict[str, SignatureEngine] = {}
    repeats = 0
    while repeats < TIMING_REPEATS or max(spent.values()) < MIN_TIMING_SECONDS:
        for backend in BACKENDS:
            start = time.perf_counter()
            engine = SignatureEngine(
                nodes, masks, width, backend=backend, compress=False
            )
            for failed in failure_sets:
                engine.measurement_vector(failed)
            seconds = time.perf_counter() - start
            best[backend] = min(best[backend], seconds)
            spent[backend] += seconds
            engines[backend] = engine
        repeats += 1
    measured = {}
    for backend, engine in engines.items():
        digest, ones = hashlib.sha256(), 0
        for failed in failure_sets:
            vector = engine.measurement_vector(failed)
            digest.update(bytes(vector))
            ones += sum(vector)
        measured[backend] = ((digest.hexdigest(), ones), best[backend])
    return measured


def _crossover_suite(seed: int) -> List[Dict[str, object]]:
    ladder: List[Dict[str, object]] = []
    for width in WIDTHS:
        measured = _measurements(width, seed)
        python_result, python_seconds = measured["python"]
        numpy_result, numpy_seconds = measured["numpy"]
        assert numpy_result == python_result, (width, python_result, numpy_result)
        ladder.append(
            {
                "width": width,
                "failing_paths": python_result[1],
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
            ["|P|", "failing paths", "python (s)", "numpy (s)", "np/py"],
            [
                [
                    row["width"],
                    row["failing_paths"],
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
        "python/numpy backend crossover ladder (engine build plus "
        f"{N_FAILURE_SETS} measurement vectors, {N_ELEMENTS}-element cells)"
    )
    benchmark.extra_info["widths"] = list(WIDTHS)
    benchmark.extra_info["empirical_crossover_width"] = _empirical_crossover(
        ladder
    )
    benchmark.extra_info["measured"] = {
        str(row["width"]): row for row in ladder
    }
