"""PR 3 perf pipeline: compressed universes + mask-native enumeration.

Two real table cells are computed twice, end to end:

* **raw** — the pre-PR pipeline, reproduced verbatim: ``networkx``'s
  ``all_simple_paths`` per source with a global tuple dedup set, node masks
  rebuilt afterwards by an O(|P|·|path|) incremental big-int OR re-scan, and
  the signature engine running on the uncompressed ``|P|``-bit universe.
* **optimized** — the shipped pipeline: the native multi-target DFS that
  accumulates the node-incidence lists while it emits paths, plus the engine
  on the duplicate-column-compressed universe.

The cells are Table 3 (Claranet under the log-N Agrid boost: the boosted
graph G^A has a highly duplicate path universe, ~3.3 raw columns per
distinct one) and one Table 6 cell (Erdős–Rényi n = 10, d = sqrt(log n)).
Every reported number — µ, the confusable witness, |P|, the per-trial
improvements — must be bit-identical between the two pipelines, and the
boosted Table 3 cell must come out ≥ 1.5× faster end to end.

A third cell is the identity universe of the directed-grid results: H_{4,3}
under χ_g, whose 14,838 path columns are all distinct and covered.  Its plan
must be the identity, the raw and compressed engines must agree on µ and
the witness, and the ``compress_universe`` time is recorded (the dedup
builds nothing on an identity, so that time is the cost of finding out).
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List, Tuple

import networkx as nx

from conftest import run_once

from repro.agrid.algorithm import agrid
from repro.core.bounds import structural_upper_bound
from repro.engine.compress import compress_universe
from repro.engine.signatures import SignatureEngine
from repro.experiments.common import DIMENSION_RULES
from repro.monitors.grid_placement import chi_g
from repro.monitors.heuristics import mdmp_placement
from repro.routing.paths import enumerate_paths
from repro.topology import zoo
from repro.topology.grids import directed_hypergrid
from repro.topology.random_graphs import (
    DEFAULT_EDGE_PROBABILITY,
    erdos_renyi_connected,
)
from repro.utils.seeds import spawn_seed

#: Required end-to-end advantage on the compressible Table 3 boosted cell.
#: Local margin is ~2.5x; noisy shared CI runners can set BENCH_MIN_SPEEDUP
#: (e.g. to 1.0) to keep the threshold advisory there while the bit-identity
#: assertions stay hard everywhere.
MIN_SPEEDUP = float(os.environ.get("BENCH_MIN_SPEEDUP", "1.5"))


def _raw_pipeline(graph, placement) -> Dict[str, object]:
    """The pre-PR CSP cell computation, kept verbatim as the raw baseline."""
    node_universe = tuple(sorted(graph.nodes, key=repr))
    paths: List[Tuple] = []
    seen: set = set()
    for source in sorted(placement.inputs, key=repr):
        targets = {t for t in placement.outputs if t != source}
        if not targets:
            continue
        for path in nx.all_simple_paths(graph, source, targets):
            tupled = tuple(path)
            if tupled not in seen:
                seen.add(tupled)
                paths.append(tupled)
    masks = {node: 0 for node in node_universe}
    for index, path in enumerate(paths):  # the old post-hoc mask re-scan
        bit = 1 << index
        for node in set(path):
            masks[node] |= bit
    engine = SignatureEngine(
        node_universe, masks, len(paths), compress=False
    )
    cap = structural_upper_bound(graph, placement).combined + 1
    result = engine.identifiability(max_size=cap)
    return {
        "mu": result.value,
        "witness": result.witness,
        "n_paths": len(paths),
        "n_columns": engine.n_columns,
    }


def _optimized_pipeline(graph, placement) -> Dict[str, object]:
    """The shipped pipeline: native DFS enumeration + compressed engine."""
    pathset = enumerate_paths(graph, placement)
    engine = pathset.engine()
    cap = structural_upper_bound(graph, placement).combined + 1
    result = engine.identifiability(max_size=cap)
    return {
        "mu": result.value,
        "witness": result.witness,
        "n_paths": pathset.n_paths,
        "n_columns": engine.n_columns,
    }


def _assert_identical_cell(raw: Dict[str, object], fast: Dict[str, object]) -> None:
    assert fast["mu"] == raw["mu"], (raw, fast)
    assert fast["n_paths"] == raw["n_paths"], (raw, fast)
    raw_witness, fast_witness = raw["witness"], fast["witness"]
    if raw_witness is None:
        assert fast_witness is None
    else:
        assert fast_witness is not None
        assert fast_witness.first == raw_witness.first
        assert fast_witness.second == raw_witness.second


def _table3_suite(seed: int) -> Dict[str, Dict[str, object]]:
    """Both columns of the Table 3 log-N row, raw and optimized."""
    graph = zoo.load("claranet")
    boost = agrid(graph, 3, rng=seed)
    cells = {
        "original": (graph, boost.placement_original),
        "boosted": (boost.boosted, boost.placement_boosted),
    }
    measured: Dict[str, Dict[str, object]] = {}
    for label, (cell_graph, placement) in cells.items():
        start = time.perf_counter()
        raw = _raw_pipeline(cell_graph, placement)
        raw_seconds = time.perf_counter() - start
        start = time.perf_counter()
        fast = _optimized_pipeline(cell_graph, placement)
        fast_seconds = time.perf_counter() - start
        _assert_identical_cell(raw, fast)
        measured[label] = {
            "mu": raw["mu"],
            "n_paths": raw["n_paths"],
            "raw_columns": raw["n_columns"],
            "compressed_columns": fast["n_columns"],
            "raw_seconds": raw_seconds,
            "optimized_seconds": fast_seconds,
            "speedup": raw_seconds / fast_seconds if fast_seconds else float("inf"),
        }
    return measured


def _table6_suite(seed: int, n_nodes: int = 10, n_trials: int = 10) -> Dict[str, object]:
    """One Table 6 cell (n = 10, d = sqrt(log n)), raw and optimized."""
    raw_improvements: List[int] = []
    fast_improvements: List[int] = []
    raw_seconds = 0.0
    fast_seconds = 0.0
    for trial in range(n_trials):
        trial_seed = spawn_seed(seed, trial)
        for flavour in ("raw", "optimized"):
            trial_rng = random.Random(trial_seed)
            graph = erdos_renyi_connected(
                n_nodes, DEFAULT_EDGE_PROBABILITY, trial_rng
            )
            dimension = DIMENSION_RULES["sqrt_log"](n_nodes, graph)
            dimension = min(dimension, n_nodes - 1, n_nodes // 2)
            boost = agrid(graph, dimension, rng=trial_rng)
            pipeline = _raw_pipeline if flavour == "raw" else _optimized_pipeline
            start = time.perf_counter()
            original = pipeline(graph, boost.placement_original)
            boosted = pipeline(boost.boosted, boost.placement_boosted)
            elapsed = time.perf_counter() - start
            improvement = boosted["mu"] - original["mu"]
            if flavour == "raw":
                raw_improvements.append(improvement)
                raw_seconds += elapsed
            else:
                fast_improvements.append(improvement)
                fast_seconds += elapsed
    return {
        "n_trials": n_trials,
        "improvements": raw_improvements,
        "raw_seconds": raw_seconds,
        "optimized_seconds": fast_seconds,
        "speedup": raw_seconds / fast_seconds if fast_seconds else float("inf"),
        "identical": raw_improvements == fast_improvements,
    }


def _identity_suite(repeats: int = 5) -> Dict[str, object]:
    """H_{4,3} under χ_g: the identity plan, raw-vs-compressed parity and
    the best ``compress_universe`` time over ``repeats`` calls."""
    grid = directed_hypergrid(4, 3)
    pathset = enumerate_paths(grid, chi_g(grid))
    masks = {node: pathset.paths_through(node) for node in pathset.nodes}
    seconds = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        plan, _ = compress_universe(pathset.nodes, masks, pathset.n_paths)
        seconds = min(seconds, time.perf_counter() - start)
    raw = SignatureEngine.from_pathset(pathset, compress=False).identifiability()
    compressed = SignatureEngine.from_pathset(pathset).identifiability()
    return {
        "n_paths": pathset.n_paths,
        "is_identity": plan.is_identity,
        "raw": {"mu": raw.value, "witness": raw.witness},
        "compressed": {"mu": compressed.value, "witness": compressed.witness},
        "compress_seconds": seconds,
    }


def test_compression_pipeline_table3(benchmark, bench_seed):
    measured = run_once(benchmark, _table3_suite, bench_seed)

    boosted = measured["boosted"]
    # The boosted Claranet universe is the compressible cell: thousands of
    # paths, a few distinct columns per raw one.
    assert boosted["n_paths"] > 1000
    assert boosted["compressed_columns"] < boosted["raw_columns"] / 2
    assert boosted["speedup"] >= MIN_SPEEDUP, (
        f"end-to-end speedup {boosted['speedup']:.2f}x below the "
        f"{MIN_SPEEDUP}x bar: {boosted}"
    )

    benchmark.extra_info["experiment"] = (
        "Table 3 cell, raw vs compressed+mask-native pipeline"
    )
    benchmark.extra_info["measured"] = {
        label: {key: value for key, value in row.items() if key != "witness"}
        for label, row in measured.items()
    }


def test_compression_pipeline_table6(benchmark, bench_seed):
    measured = run_once(benchmark, _table6_suite, bench_seed)

    assert measured["identical"], "raw and optimized pipelines disagree"
    assert measured["speedup"] > 0
    assert all(delta >= 0 for delta in measured["improvements"])

    benchmark.extra_info["experiment"] = (
        "Table 6 cell (n=10, sqrt(log n)), raw vs compressed+mask-native pipeline"
    )
    benchmark.extra_info["measured"] = measured


def test_compression_identity_hypergrid(benchmark):
    measured = run_once(benchmark, _identity_suite)

    assert measured["is_identity"], measured
    assert measured["raw"] == measured["compressed"], measured
    assert measured["raw"]["mu"] == 3  # µ = d on the d-dimensional hypergrid

    benchmark.extra_info["experiment"] = (
        "H_{4,3} / chi_g identity universe: compress_universe time and "
        "raw-vs-compressed parity"
    )
    benchmark.extra_info["measured"] = {
        "n_paths": measured["n_paths"],
        "is_identity": measured["is_identity"],
        "mu": measured["raw"]["mu"],
        "compress_seconds": measured["compress_seconds"],
    }
