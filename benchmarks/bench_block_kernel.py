"""Perf trajectory: the subset sweep on its largest certification cells.

Two exhaustive-certification cells on the Table 3 topology (Claranet under
the d-4 log-N Agrid boost), node **and** link universes:

* the boosted path universe is restricted to a fixed **probe budget**
  (``PROBE_BUDGET`` seeded sample of the enumerated paths, via
  ``PathSet.restrict_to_paths``) — the regime a deployed monitor actually
  operates in: exhaustive path enumeration on the boosted graph yields
  ~150k distinct path classes, where the sweep is memory-bound on
  2000-word rows;

* confusable witnesses are excised until the *residual* universe certifies
  up to size 3 with no surviving collision, so the sweep walks the whole
  ``C(n, 3)`` frontier — the batched-union / batched-dominance /
  batched-digest workload the chunked evaluator exists for.

Each cell times the sweep on the numpy backend (when installed) and asserts
**hard bit-parity** against the same sweep on the pure-python fallback ops:
same µ, same witness, same ``searched_up_to`` and the same
``subsets_enumerated``/``table_entries`` accounting.  The recorded
``block_seconds`` are held, softly, to the committed ``BENCH_pr10.json``
point by CI.
"""

from __future__ import annotations

import math
import random
import time
from typing import Dict, Optional

from conftest import run_once

from repro.agrid.algorithm import agrid
from repro.engine.backends import numpy_available
from repro.engine.signatures import DEFAULT_BLOCK_SIZE
from repro.routing.paths import enumerate_paths
from repro.topology import zoo

#: Probe paths kept from the boosted enumeration (seeded sample).
PROBE_BUDGET = 8192

#: Timing repetitions per cell; the minimum is reported (the deterministic
#: sweep's best-of-N is its intrinsic cost, the rest is scheduler noise).
TIMING_REPEATS = 3


def _timed(engine, max_size: Optional[int], nodes):
    best, result = float("inf"), None
    for _ in range(TIMING_REPEATS):
        start = time.perf_counter()
        result = engine.identifiability(max_size=max_size, nodes=nodes)
        best = min(best, time.perf_counter() - start)
    return result, best


def _certification_cell(pathset, kind: str) -> Dict[str, object]:
    engine = pathset.engine(
        "numpy" if numpy_available() else "python", universe=kind
    )
    # Excise confusable witnesses until the residual universe certifies up
    # to size 3: the timed sweeps then walk the full C(n, 3) frontier.
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
    fallback, python_seconds = _timed(
        pathset.engine("python", universe=kind), 3, residual
    )

    # Hard bit-parity across the vectorized ops and the pure-python
    # fallback: dataclass equality covers value, witness, searched_up_to and
    # exhausted_search; the accounting must match too.
    assert result == fallback, (result, fallback)
    assert (
        result.stats.subsets_enumerated == fallback.stats.subsets_enumerated
    ), (result.stats, fallback.stats)
    assert result.stats.table_entries == fallback.stats.table_entries, (
        result.stats,
        fallback.stats,
    )
    assert result.stats.blocks_evaluated > 0, result.stats

    return {
        "universe": kind,
        "mu": result.value,
        "witness": result.witness,
        "searched_up_to": result.searched_up_to,
        "excision_rounds": excision_rounds,
        "n_elements": len(engine.nodes),
        "n_residual": len(residual),
        "n_words": getattr(engine.backend, "n_words", None),
        "frontier_size_3": math.comb(len(residual), 3),
        "subsets_enumerated": result.stats.subsets_enumerated,
        "blocks_evaluated": result.stats.blocks_evaluated,
        "block_rows_pruned": result.stats.block_rows_pruned,
        "block_seconds": block_seconds,
        "python_seconds": python_seconds,
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
        # The certification sweep must actually certify: no collision up to
        # the cap, so the whole C(n, 3) frontier was walked.
        assert cell["mu"] == cell["searched_up_to"] == 3, (name, cell)
        assert cell["witness"] is None, (name, cell)

    benchmark.extra_info["experiment"] = (
        "Subset sweep on Claranet d-4 residual certification cells (node + "
        f"link universes, {PROBE_BUDGET}-path probe budget), numpy ops vs "
        "the pure-python fallback"
    )
    benchmark.extra_info["numpy"] = numpy_available()
    benchmark.extra_info["block_size"] = DEFAULT_BLOCK_SIZE
    benchmark.extra_info["probe_budget"] = PROBE_BUDGET
    benchmark.extra_info["measured"] = measured
