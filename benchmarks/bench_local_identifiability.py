"""Local µ on the dominance search: χ_g hypergrid scopes and a DLP scope.

Local identifiability w.r.t. a scope ``S`` (:mod:`repro.core.local`) runs
the µ search with its dominated targets restricted to ``S``.  The cells are
singleton scopes of the directed hypergrid H_{3,4} under its grid placement
χ_g (81 nodes, 21,152 CSP paths):

* ``centre`` — (2, 2, 2, 2), the only node of H_{3,4} on no monitor face;
* ``face`` — (1, 2, 2, 2), an input-face node;
* ``dlp`` — (1, 1, 1, 3), both an input and an output monitor, under CAP,
  where its degenerate loop path is a path no other node is on (Section 9:
  its local µ is the universe size).

Each scope is timed at cap 4 and uncapped.  Hard assertions: every scope at
cap 3 equals ``naive_local_mu`` (the brute-force sweep of
``tests/oracles.py``, feasible up to cap 3 here), the full scope ``S = V``
equals µ at every cap timed, and the DLP scope reaches the universe size.
``extra_info`` records the best-of-``TIMING_REPEATS`` seconds per cell.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Dict, Optional

from conftest import run_once

from repro.monitors.grid_placement import chi_g
from repro.routing.paths import enumerate_paths
from repro.topology.grids import directed_hypergrid

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tests"))
from oracles import naive_local_mu  # noqa: E402

#: Timing repetitions per cell; the minimum is reported.
TIMING_REPEATS = 3

#: The largest cap the naive sweep checks (C(81, 3) subsets per scope).
NAIVE_CAP = 3

SCOPES = {
    "centre": ("CSP", (2, 2, 2, 2)),
    "face": ("CSP", (1, 2, 2, 2)),
    "dlp": ("CAP", (1, 1, 1, 3)),
}


def _timed(engine, scope, cap: Optional[int]):
    best, value = float("inf"), None
    for _ in range(TIMING_REPEATS):
        start = time.perf_counter()
        value = engine.local_identifiability(scope, cap)
        best = min(best, time.perf_counter() - start)
    return value, best


def _local_suite() -> Dict[str, object]:
    grid = directed_hypergrid(3, 4)
    placement = chi_g(grid)
    pathsets = {
        mechanism: enumerate_paths(grid, placement, mechanism=mechanism)
        for mechanism in ("CSP", "CAP")
    }
    measured: Dict[str, object] = {}
    for name, (mechanism, node) in SCOPES.items():
        pathset = pathsets[mechanism]
        engine = pathset.engine()
        universe = pathset.universe("node")
        cell: Dict[str, object] = {
            "mechanism": mechanism,
            "node": node,
            "n_elements": len(engine.nodes),
            "n_paths": pathset.n_paths,
        }
        for cap, label in ((4, "cap4"), (None, "uncapped")):
            value, seconds = _timed(engine, {node}, cap)
            cell[f"{label}_value"] = value
            cell[f"{label}_seconds"] = seconds
        naive = naive_local_mu(universe.elements, universe.masks, {node}, NAIVE_CAP)
        assert engine.local_identifiability({node}, NAIVE_CAP) == naive, (name, naive)
        cell["naive_cap3_value"] = naive
        measured[name] = cell

    # S = V is µ itself, capped.
    for mechanism, pathset in pathsets.items():
        engine = pathset.engine()
        mu = engine.identifiability().value
        for cap in (NAIVE_CAP, 4, None):
            bound = mu if cap is None else min(mu, cap)
            assert engine.local_identifiability(engine.nodes, cap) == bound, (
                mechanism,
                cap,
            )
        measured[f"full_scope_{mechanism}"] = {"mu": mu}
    return measured


def test_local_identifiability_hypergrid(benchmark):
    measured = run_once(benchmark, _local_suite)

    # Theorem 4.8 bounds the singleton scopes from below: local µ ≥ µ = d.
    assert measured["full_scope_CSP"]["mu"] == 4, measured["full_scope_CSP"]
    for name in ("centre", "face"):
        assert measured[name]["cap4_value"] == 4, measured[name]
    # Section 9: the DLP node separates itself from every set.
    dlp = measured["dlp"]
    assert dlp["uncapped_value"] == dlp["n_elements"], dlp

    benchmark.extra_info["experiment"] = (
        "Local µ of singleton scopes on H_{3,4} under χ_g (CSP centre and "
        "face nodes, CAP DLP node), cap 4 and uncapped, dominance search"
    )
    benchmark.extra_info["measured"] = measured
