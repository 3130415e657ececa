"""Perf trajectory: the µ search on its largest certification cells.

Two exhaustive-certification cells on the Table 3 topology (Claranet under
the d-4 log-N Agrid boost), node **and** link universes:

* the boosted path universe is restricted to a fixed **probe budget**
  (``PROBE_BUDGET`` seeded sample of the enumerated paths, via
  ``PathSet.restrict_to_paths``) — the regime a deployed monitor actually
  operates in: exhaustive path enumeration on the boosted graph yields
  ~150k distinct path classes;

* confusable witnesses are excised until the *residual* universe certifies
  up to size 3 with no surviving collision, so the dominance search runs
  every level up to the cap without finding a dominator — its whole
  search tree, the worst case of a capped query.

Each cell times the search on the default (compressed) engine and asserts
**hard bit-parity** against the same search on the raw engine: same µ,
same witness, same ``searched_up_to`` and the same search tree
(``tree_nodes``, ``subsets_enumerated``, ``table_entries``).  The recorded
``block_seconds`` — the historical name of the timed search, kept so the
trajectory stays comparable — are held, softly, to the committed
``BENCH_pr10.json`` point by CI, which timed the subset sweep then.
"""

from __future__ import annotations

import math
import random
import time
from typing import Dict, Optional

from conftest import run_once

from repro.agrid.algorithm import agrid
from repro.engine.signatures import SignatureEngine
from repro.routing.paths import enumerate_paths
from repro.topology import zoo

#: Probe paths kept from the boosted enumeration (seeded sample).
PROBE_BUDGET = 8192

#: Timing repetitions per cell; the minimum is reported (the deterministic
#: search's best-of-N is its intrinsic cost, the rest is scheduler noise).
TIMING_REPEATS = 3


def _timed(engine, max_size: Optional[int], nodes):
    best, result = float("inf"), None
    for _ in range(TIMING_REPEATS):
        start = time.perf_counter()
        result = engine.identifiability(max_size=max_size, nodes=nodes)
        best = min(best, time.perf_counter() - start)
    return result, best


def _certification_cell(pathset, kind: str) -> Dict[str, object]:
    engine = pathset.engine(universe=kind)
    # Excise confusable witnesses until the residual universe certifies up
    # to size 3: the timed searches then run every level to the cap.
    residual = list(engine.nodes)
    excision_rounds = 0
    while True:
        probe = engine.identifiability(max_size=3, nodes=residual)
        if probe.witness is None:
            break
        excised = probe.witness.first | probe.witness.second
        residual = [element for element in residual if element not in excised]
        excision_rounds += 1

    result, block_seconds = _timed(engine, 3, residual)
    fallback, raw_seconds = _timed(
        SignatureEngine.from_universe(pathset.universe(kind), compress=False),
        3,
        residual,
    )

    # Hard bit-parity with the raw engine: dataclass equality covers value,
    # witness, searched_up_to and exhausted_search; the search tree must
    # match too.
    assert result == fallback, (result, fallback)
    assert result.stats == fallback.stats, (result.stats, fallback.stats)
    assert result.stats.tree_nodes > 0, result.stats

    return {
        "universe": kind,
        "mu": result.value,
        "witness": result.witness,
        "searched_up_to": result.searched_up_to,
        "excision_rounds": excision_rounds,
        "n_elements": len(engine.nodes),
        "n_residual": len(residual),
        "n_columns": engine.n_columns,
        "frontier_size_3": math.comb(len(residual), 3),
        "subsets_enumerated": result.stats.subsets_enumerated,
        "tree_nodes": result.stats.tree_nodes,
        "block_seconds": block_seconds,
        "raw_seconds": raw_seconds,
    }


def _block_kernel_suite(seed: int) -> Dict[str, object]:
    graph = zoo.load("claranet")
    boost4 = agrid(graph, 4, rng=seed)
    full = enumerate_paths(boost4.boosted, boost4.placement_boosted)
    probes = sorted(random.Random(seed).sample(range(full.n_paths), PROBE_BUDGET))
    pathset = full.restrict_to_paths(probes)
    return {
        f"residual_certification_{kind}_d4": _certification_cell(pathset, kind)
        for kind in ("node", "link")
    }


def test_block_kernel_claranet(benchmark, bench_seed):
    measured = run_once(benchmark, _block_kernel_suite, bench_seed)

    for name, cell in measured.items():
        # The certification search must actually certify: no collision up
        # to the cap, so every level's whole tree was searched.
        assert cell["mu"] == cell["searched_up_to"] == 3, (name, cell)
        assert cell["witness"] is None, (name, cell)

    benchmark.extra_info["experiment"] = (
        "Dominance µ search on Claranet d-4 residual certification cells "
        f"(node + link universes, {PROBE_BUDGET}-path probe budget), compressed "
        "vs raw engine"
    )
    benchmark.extra_info["probe_budget"] = PROBE_BUDGET
    benchmark.extra_info["measured"] = measured
