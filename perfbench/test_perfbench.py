"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys

import networkx as nx
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from measure import (  # noqa: E402
    REFERENCE_CHUNK_S,
    at_reference_speed,
    latency_summary,
    percentile,
    reference_chunk,
)
from spans import Tracer, instrument, span_self_times, union_length  # noqa: E402
from workloads import (  # noqa: E402
    ChurnReplay,
    ServeLocalize,
    SpecBatch,
    churn_walk,
    documents_digest,
    has_monitor_path,
    op_count,
)


# -- percentile rule ---------------------------------------------------------

def test_p90_needs_a_hundred_samples():
    assert percentile([float(i) for i in range(99)], 90) is None
    assert percentile([float(i) for i in range(100)], 90) == pytest.approx(89.1)


def test_p50_needs_twenty_samples():
    assert percentile([1.0] * 19, 50) is None
    assert percentile([1.0] * 19 + [3.0], 50) == 1.0


def test_summary_omits_unsupported_percentiles():
    summary = latency_summary([0.1] * 50, completed=50)
    assert summary["ops_per_s"] == pytest.approx(10.0)
    assert summary["op_p50_ms"] == pytest.approx(100.0)
    assert "op_p90_ms" not in summary


def test_op_count_is_fixed_by_seconds_in_even_cycles():
    assert op_count("spec-batch", 30) == 120
    assert op_count("spec-batch", 30) % 8 == 0
    assert op_count("churn-replay", 30) == 300
    assert op_count("serve-localize", 30) % 8 == 0


def test_default_run_length_gives_every_workload_a_p90():
    for workload in ("spec-batch", "serve-localize", "churn-replay"):
        assert op_count(workload, 25) >= 100


# -- host-speed scaling ----------------------------------------------------------

def test_reference_chunk_restores_the_collector():
    import gc

    assert reference_chunk() > 0
    assert gc.isenabled()


def test_a_slow_host_scales_times_down_by_the_chunks_around_them():
    assert at_reference_speed(0.1, [REFERENCE_CHUNK_S] * 2) == pytest.approx(0.1)
    assert at_reference_speed(0.1, [REFERENCE_CHUNK_S, 3 * REFERENCE_CHUNK_S]) == pytest.approx(0.05)


# -- span self time ------------------------------------------------------------

def test_union_counts_overlaps_once():
    assert union_length([(1, 4), (3, 6), (8, 9)]) == 6
    assert union_length([]) == 0


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],  # overlaps a (another thread)
        ["c", 8.0, 12.0, 0, 0],  # runs past the parent's end: clipped
        ["d", 2.0, 3.0, 1, 0],  # grandchild: only a's self time shrinks
    ]
    self_times = {layer: seconds for layer, _, seconds in span_self_times(spans)}
    assert self_times["root"] == pytest.approx(10 - (5 + 2))
    assert self_times["a"] == pytest.approx(2.0)
    assert self_times["c"] == pytest.approx(4.0)


def test_spans_outside_an_op_are_dropped_and_threads_nest_under_the_op():
    import threading

    tracer = Tracer()
    assert tracer.open("x") is None
    tracer.begin_op("kind", root_layer="service")
    worker = threading.Thread(target=lambda: tracer.close(tracer.open("inner")))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.end_op()
    assert [span[0] for span in tracer.spans] == ["service", "inner"]
    assert tracer.spans[1][3] == 0


def test_instrument_wraps_where_callers_resolve_and_restores():
    from repro.api.scenario import Scenario
    from repro.api.spec import ScenarioSpec
    import repro.core.bounds as bounds
    import repro.tomography.scenario as tomography

    original = bounds.structural_upper_bound
    tracer = Tracer()
    restore = instrument(tracer, [("repro.core.bounds", "structural_upper_bound", "bounds")])
    try:
        assert tomography.structural_upper_bound is not original
        spec = ScenarioSpec.from_dict(
            {"topology": {"name": "directed_grid", "params": {"n": 3}},
             "placement": {"strategy": "chi_g", "params": {}}}
        )
        tracer.begin_op("grid")
        Scenario(spec).bounds()
        tracer.end_op()
    finally:
        restore()
    assert bounds.structural_upper_bound is original
    assert tomography.structural_upper_bound is original
    assert "bounds" in [span[0] for span in tracer.spans]


# -- seed -> op list -------------------------------------------------------------

@pytest.mark.parametrize("workload", [SpecBatch, ServeLocalize, ChurnReplay])
def test_op_lists_depend_only_on_the_seed(workload):
    first, again, other = workload(3, 16), workload(3, 16), workload(4, 16)
    assert documents_digest(first.ops) == documents_digest(again.ops)
    assert first.kinds == again.kinds
    assert documents_digest(first.ops) != documents_digest(other.ops)


def test_spec_batch_cycles_the_four_families():
    batch = SpecBatch(1, 8)
    assert batch.kinds == ["claranet", "eunetworks", "grid", "hypergrid"] * 2


# -- churn walk ------------------------------------------------------------------

def test_walk_never_cuts_every_monitor_path_on_a_small_graph():
    graph = nx.Graph([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    for seed in range(20):
        down = []
        for delta in churn_walk(graph, ["a"], ["d"], seed, 40):
            for link in delta.get("add_links", []):
                assert tuple(link) == down.pop(0)  # the oldest comes back first
            for link in delta.get("remove_links", []):
                down.append(tuple(link))
            assert len(down) <= 2
            assert ("c", "d") not in down  # the bridge to the only output
            assert has_monitor_path(graph, down, ["a"], ["d"])


def test_walk_settles_into_swaps_of_the_oldest_link():
    graph = nx.cycle_graph(8)
    deltas = churn_walk(graph, [0], [4], 3, 12)
    assert [d["label"].split("-")[1] for d in deltas[:3]] == ["down", "down", "swap"]
    assert all(d["add_links"] == deltas[i]["remove_links"] for i, d in enumerate(deltas[2:]))


def test_walk_keeps_the_churn_base_measurable():
    from repro.api.scenario import Scenario
    from repro.api.spec import ScenarioSpec
    from repro.routing.paths import count_paths

    churn = ChurnReplay(7, 24)
    base = Scenario(ScenarioSpec.from_dict(churn.base))
    graph = base.graph.copy()
    for delta in churn.warmup + churn.ops:
        graph.remove_edges_from(delta.get("remove_links", []))
        graph.add_edges_from(delta.get("add_links", []))
        assert count_paths(graph, base.placement, "CSP") > 0
