"""Tests for routing mechanisms and measurement-path enumeration."""

from __future__ import annotations

import time
from collections import Counter
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import compress as compress_module
from repro.exceptions import PathExplosionError, RoutingError
from repro.monitors.placement import MonitorPlacement
from repro.monitors.grid_placement import chi_g
from repro.routing.mechanisms import RoutingMechanism
from repro.routing.paths import (
    PathSet,
    PathSetDelta,
    _adjacency,
    _dfs_touch_classes,
    _open_paths,
    _touch_classes,
    count_paths,
    enumerate_paths,
    path_length_histogram,
)
from repro.topology.grids import directed_grid, undirected_grid
from repro.topology.lines import line_graph

from conftest import COLUMN_KERNELS, column_kernel


class TestRoutingMechanism:
    def test_parse_strings(self):
        assert RoutingMechanism.parse("csp") is RoutingMechanism.CSP
        assert RoutingMechanism.parse("CAP-") is RoutingMechanism.CAP_MINUS
        assert RoutingMechanism.parse("cap_minus") is RoutingMechanism.CAP_MINUS
        assert RoutingMechanism.parse("CAP") is RoutingMechanism.CAP

    def test_parse_enum_passthrough(self):
        assert RoutingMechanism.parse(RoutingMechanism.CSP) is RoutingMechanism.CSP

    def test_parse_unknown_raises(self):
        with pytest.raises(ValueError):
            RoutingMechanism.parse("UDP")

    def test_flags(self):
        assert RoutingMechanism.CAP.allows_dlp
        assert not RoutingMechanism.CAP_MINUS.allows_dlp
        assert RoutingMechanism.CAP_MINUS.allows_cycles
        assert not RoutingMechanism.CSP.allows_cycles
        assert RoutingMechanism.CSP.requires_distinct_endpoints


class TestPathSet:
    def _toy(self) -> PathSet:
        return PathSet(nodes=("a", "b", "c", "d"), paths=(("a", "b"), ("b", "c"), ("a", "c")))

    def test_paths_through(self):
        pathset = self._toy()
        assert pathset.paths_through("b") == 0b011
        assert pathset.path_indices_through("b") == (0, 1)

    def test_paths_through_set_union(self):
        pathset = self._toy()
        assert pathset.paths_through_set({"a", "c"}) == 0b111

    def test_unknown_node_raises(self):
        with pytest.raises(RoutingError):
            self._toy().paths_through("z")

    def test_path_outside_universe_rejected(self):
        with pytest.raises(RoutingError):
            PathSet(nodes=("a",), paths=(("a", "z"),))

    def test_uncovered_nodes(self):
        pathset = self._toy()
        assert pathset.uncovered_nodes() == frozenset({"d"})
        assert pathset.touched_nodes() == frozenset({"a", "b", "c"})

    def test_separates(self):
        pathset = self._toy()
        assert pathset.separates({"a"}, {"b"})
        # {a} and {a, d} are NOT separated: d lies on no path.
        assert not pathset.separates({"a"}, {"a", "d"})

    def test_separating_paths(self):
        pathset = self._toy()
        witnesses = pathset.separating_paths({"a"}, {"b"})
        assert ("a", "c") in witnesses and ("b", "c") in witnesses

    def test_restrict_to_paths(self):
        restricted = self._toy().restrict_to_paths([0])
        assert restricted.n_paths == 1
        assert restricted.paths_through("c") == 0

    def test_describe_mentions_counts(self):
        assert "|P|=3" in self._toy().describe()


class TestEnumerationCSP:
    def test_line_graph_paths(self):
        graph = line_graph(4)
        placement = MonitorPlacement.of(inputs={0}, outputs={3})
        pathset = enumerate_paths(graph, placement, "CSP")
        assert pathset.paths == ((0, 1, 2, 3),)

    def test_csp_excludes_same_endpoint(self):
        graph = nx.cycle_graph(4)
        placement = MonitorPlacement.of(inputs={0}, outputs={0, 2})
        pathset = enumerate_paths(graph, placement, "CSP")
        assert all(path[0] != path[-1] for path in pathset.paths)

    def test_all_paths_start_in_inputs_and_end_in_outputs(self, directed_grid_4, grid4_pathset):
        placement = chi_g(directed_grid_4)
        for path in grid4_pathset.paths:
            assert path[0] in placement.inputs
            assert path[-1] in placement.outputs

    def test_paths_are_simple_under_csp(self, grid4_pathset):
        for path in grid4_pathset.paths:
            assert len(set(path)) == len(path)

    def test_paths_follow_edges(self, directed_grid_4, grid4_pathset):
        for path in grid4_pathset.paths[:50]:
            for u, v in zip(path, path[1:]):
                assert directed_grid_4.has_edge(u, v)

    def test_count_paths_matches_enumeration(self, directed_grid_4, grid4_pathset):
        assert count_paths(directed_grid_4, chi_g(directed_grid_4)) == grid4_pathset.n_paths

    def test_no_paths_raises(self):
        graph = nx.DiGraph()
        graph.add_edge("a", "b")
        graph.add_node("c")
        placement = MonitorPlacement.of(inputs={"b"}, outputs={"c"})
        with pytest.raises(RoutingError):
            enumerate_paths(graph, placement, "CSP")

    def test_max_paths_guard(self, directed_grid_4):
        with pytest.raises(PathExplosionError):
            enumerate_paths(directed_grid_4, chi_g(directed_grid_4), "CSP", max_paths=10)

    def test_cutoff_limits_path_length(self):
        graph = undirected_grid(3)
        placement = MonitorPlacement.of(inputs={(1, 1)}, outputs={(3, 3)})
        pathset = enumerate_paths(graph, placement, "CSP", cutoff=4)
        assert all(len(path) <= 5 for path in pathset.paths)


class TestEnumerationCapVariants:
    def test_cap_includes_dlp_for_double_monitored_node(self):
        graph = nx.cycle_graph(4)
        placement = MonitorPlacement.of(inputs={0, 1}, outputs={0, 2})
        cap = enumerate_paths(graph, placement, "CAP")
        cap_minus = enumerate_paths(graph, placement, "CAP-")
        assert (0, 0) in cap.paths
        assert (0, 0) not in cap_minus.paths

    def test_cap_minus_superset_of_csp(self):
        graph = nx.cycle_graph(5)
        placement = MonitorPlacement.of(inputs={0, 1}, outputs={0, 3})
        csp = set(enumerate_paths(graph, placement, "CSP").paths)
        cap_minus = set(enumerate_paths(graph, placement, "CAP-").paths)
        assert csp <= cap_minus

    def test_cap_minus_cycles_are_anchored_at_dlp_candidates(self):
        graph = nx.cycle_graph(5)
        placement = MonitorPlacement.of(inputs={0}, outputs={0, 2})
        cap_minus = enumerate_paths(graph, placement, "CAP-")
        cycles = [p for p in cap_minus.paths if p[0] == p[-1] and len(p) > 1]
        assert cycles, "the input/output node 0 should anchor at least one cycle"
        assert all(p[0] == 0 for p in cycles)

    def test_directed_cycle_enumeration(self):
        graph = nx.DiGraph([(0, 1), (1, 2), (2, 0)])
        placement = MonitorPlacement.of(inputs={0}, outputs={0})
        cap_minus = enumerate_paths(graph, placement, "CAP-")
        assert (0, 1, 2, 0) in cap_minus.paths

    def test_k4_distinct_cycles_over_same_node_set_both_kept(self):
        # Regression: cycles used to be deduped by *node set*, collapsing
        # genuinely different simple cycles like (0,1,2,3,0) and (0,2,1,3,0)
        # — different edge sets, same nodes — and undercounting |P|.
        graph = nx.complete_graph(4)
        placement = MonitorPlacement.of(inputs={0}, outputs={0, 2})
        cap_minus = enumerate_paths(graph, placement, "CAP-")
        cycles = [p for p in cap_minus.paths if p[0] == 0 and p[-1] == 0 and len(p) > 2]
        edge_sets = {
            frozenset(frozenset(pair) for pair in zip(cycle, cycle[1:]))
            for cycle in cycles
        }
        # K4 through a fixed node: 3 triangles + 3 quadrilaterals, one
        # representative each (reversals still suppressed).
        assert len(cycles) == 6
        assert len(edge_sets) == 6, "every kept cycle has a distinct edge set"
        four_cycles = {cycle for cycle in cycles if len(cycle) == 5}
        assert {frozenset(c[1:-1]) for c in four_cycles} == {frozenset({1, 2, 3})}
        assert len(four_cycles) == 3

    def test_undirected_cycle_reversals_still_suppressed(self):
        graph = nx.cycle_graph(5)
        placement = MonitorPlacement.of(inputs={0}, outputs={0, 2})
        cap_minus = enumerate_paths(graph, placement, "CAP-")
        cycles = [p for p in cap_minus.paths if p[0] == 0 and p[-1] == 0 and len(p) > 2]
        # C5 has exactly one simple cycle; only one orientation is kept.
        assert len(cycles) == 1


class TestHistogram:
    def test_path_length_histogram(self):
        pathset = PathSet(nodes=(0, 1, 2, 3), paths=((0, 1), (0, 1, 2), (1, 2, 3)))
        assert path_length_histogram(pathset) == {1: 1, 2: 2}


@given(n=st.integers(min_value=3, max_value=5))
@settings(max_examples=5, deadline=None)
def test_number_of_grid_paths_grows_with_n(n):
    """More rows/columns means more monitor pairs and more simple paths."""
    smaller = count_paths(directed_grid(n), chi_g(directed_grid(n)))
    if n < 5:
        larger = count_paths(directed_grid(n + 1), chi_g(directed_grid(n + 1)))
        assert larger > smaller


def class_major(paths):
    """A depth-first ordered path family stably re-sorted into class-major
    order: the open paths grouped by touch set (their node set), groups in
    order of their first path by length and then depth-first, and the
    closed CAP/CAP⁻ family after them as it stands."""
    opened = [path for path in paths if path[0] != path[-1]]
    closed = [path for path in paths if path[0] == path[-1]]
    rank: dict = {}
    for path in sorted(opened, key=len):
        rank.setdefault(frozenset(path), len(rank))
    return sorted(opened, key=lambda path: rank[frozenset(path)]) + closed


@st.composite
def random_graphs(draw, max_nodes=7):
    """A random directed or undirected simple graph on 2..max_nodes nodes."""
    directed = draw(st.booleans())
    n = draw(st.integers(2, max_nodes))
    pairs = [
        (u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n))
    graph = nx.DiGraph() if directed else nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    return graph


@st.composite
def random_cases(draw):
    """(graph, placement, mechanism, cutoff) for the enumeration oracle."""
    graph = draw(random_graphs())
    nodes = st.sets(st.sampled_from(sorted(graph.nodes)), min_size=1, max_size=3)
    placement = MonitorPlacement.of(inputs=draw(nodes), outputs=draw(nodes))
    mechanism = draw(st.sampled_from(("CSP", "CAP-", "CAP")))
    cutoff = draw(st.sampled_from((None, 1, 2, 3, 4)))
    return graph, placement, mechanism, cutoff


class TestNativeEnumerationOracle:
    """The native multi-target DFS must reproduce the networkx path family."""

    @staticmethod
    def _nx_reference_paths(graph, placement, mechanism, cutoff=None):
        """Pre-refactor reference: nx.all_simple_paths + a global dedup set,
        with every path (cycles included) longer than ``cutoff`` edges
        dropped.  Filtering keeps the depth-first order, and the two
        orientations of an undirected cycle have the same length, so it
        commutes with the dedup."""
        from repro.routing.mechanisms import RoutingMechanism

        mechanism = RoutingMechanism.parse(mechanism)
        paths: list = []
        seen: set = set()

        def push(path):
            if cutoff is not None and len(path) - 1 > cutoff:
                return
            if path not in seen:
                seen.add(path)
                paths.append(path)

        for source in sorted(placement.inputs, key=repr):
            targets = {t for t in placement.outputs if t != source}
            if targets:
                for path in nx.all_simple_paths(graph, source, targets):
                    push(tuple(path))
        if mechanism.allows_cycles:
            for anchor in sorted(placement.dlp_candidates, key=repr):
                if graph.is_directed():
                    for successor in graph.successors(anchor):
                        if successor == anchor:
                            continue
                        for path in nx.all_simple_paths(graph, successor, anchor):
                            push((anchor,) + tuple(path))
                else:
                    cycle_seen: set = set()
                    for neighbour in graph.neighbors(anchor):
                        for path in nx.all_simple_paths(graph, neighbour, anchor):
                            if len(path) < 3:
                                continue
                            cycle = (anchor,) + tuple(path)
                            key = frozenset(
                                frozenset(pair) for pair in zip(cycle, cycle[1:])
                            )
                            if key not in cycle_seen:
                                cycle_seen.add(key)
                                push(cycle)
        if mechanism.allows_dlp:
            for anchor in sorted(placement.dlp_candidates, key=repr):
                push((anchor, anchor))
        return paths

    @pytest.mark.parametrize("mechanism", ("CSP", "CAP-", "CAP"))
    @pytest.mark.parametrize("seed", tuple(range(8)))
    def test_matches_networkx_on_random_graphs(self, seed, mechanism):
        from repro.monitors.heuristics import mdmp_placement, random_placement
        from repro.topology.random_graphs import erdos_renyi_connected

        graph = erdos_renyi_connected(5 + seed % 3, 0.5, rng=seed)
        if seed % 3 == 2:
            ordered = sorted(graph.nodes, key=repr)
            placement = MonitorPlacement.of(
                inputs=ordered[:2], outputs=[ordered[1], ordered[-1]]
            )
        elif seed % 2:
            placement = random_placement(graph, 2, 2, rng=seed)
        else:
            placement = mdmp_placement(graph, 2)
        expected = self._nx_reference_paths(graph, placement, mechanism)
        actual = enumerate_paths(graph, placement, mechanism)
        assert set(actual.paths) == set(expected)
        assert len(actual.paths) == len(expected), "duplicate or missing paths"

    def test_matches_networkx_on_directed_grid(self, directed_grid_3):
        placement = chi_g(directed_grid_3)
        expected = self._nx_reference_paths(directed_grid_3, placement, "CSP")
        actual = enumerate_paths(directed_grid_3, placement, "CSP")
        assert list(actual.paths) == class_major(expected)  # same order too

    @pytest.mark.parametrize("cutoff", (2, 3, 4))
    def test_cutoff_matches_networkx(self, cutoff):
        graph = undirected_grid(3)
        placement = MonitorPlacement.of(inputs={(1, 1)}, outputs={(3, 3), (1, 3)})
        expected = set()
        for source in sorted(placement.inputs, key=repr):
            targets = {t for t in placement.outputs if t != source}
            for path in nx.all_simple_paths(graph, source, targets, cutoff=cutoff):
                expected.add(tuple(path))
        actual = enumerate_paths(graph, placement, "CSP", cutoff=cutoff)
        assert set(actual.paths) == expected

    def test_masks_match_rederivation(self):
        """The single-pass accumulated masks equal the masks_from_paths scan."""
        from repro.utils.bitset import masks_from_paths

        graph = nx.cycle_graph(5)
        placement = MonitorPlacement.of(inputs={0, 1}, outputs={0, 3})
        pathset = enumerate_paths(graph, placement, "CAP")
        rederived = masks_from_paths(pathset.nodes, pathset.paths)
        assert {n: pathset.paths_through(n) for n in pathset.nodes} == rederived

    @settings(max_examples=150, deadline=None)
    @given(case=random_cases())
    def test_exact_oracle(self, case):
        """Paths in order (the reference stably re-sorted by class), the
        class-run masks, count and the max_paths guard all match the
        networkx reference, for every mechanism and cutoff."""
        from repro.utils.bitset import masks_from_paths

        graph, placement, mechanism, cutoff = case
        expected = self._nx_reference_paths(graph, placement, mechanism, cutoff)
        if not expected:
            with pytest.raises(RoutingError):
                enumerate_paths(graph, placement, mechanism, cutoff)
            with pytest.raises(RoutingError):
                count_paths(graph, placement, mechanism, cutoff)
            return
        pathset = enumerate_paths(graph, placement, mechanism, cutoff)
        assert list(pathset.paths) == class_major(expected)
        assert pathset._node_masks == masks_from_paths(pathset.nodes, pathset.paths)
        n = pathset.n_paths
        assert count_paths(graph, placement, mechanism, cutoff) == n
        assert enumerate_paths(graph, placement, mechanism, cutoff, n).paths == (
            pathset.paths
        )
        assert count_paths(graph, placement, mechanism, cutoff, n) == n
        for function in (enumerate_paths, count_paths):
            with pytest.raises(PathExplosionError):
                function(graph, placement, mechanism, cutoff, n - 1)


@st.composite
def dp_cases(draw):
    """(graph, placement, mechanism, cutoff) for the DP-against-DFS law:
    directed and undirected graphs with isolated nodes, monitors that may
    overlap (a node both input and output) and cutoffs from 0 to none."""
    graph = draw(random_graphs())
    graph.add_nodes_from(("iso", k) for k in range(draw(st.integers(0, 2))))
    nodes = st.sets(st.sampled_from(sorted(graph.nodes, key=repr)), min_size=1, max_size=3)
    inputs = draw(nodes)
    outputs = draw(nodes) | draw(st.sets(st.sampled_from(sorted(inputs, key=repr))))
    placement = MonitorPlacement.of(inputs=inputs, outputs=outputs)
    mechanism = draw(st.sampled_from(("CSP", "CAP-", "CAP")))
    cutoff = draw(st.sampled_from((None, 0, 1, 2, 3, 4, 6)))
    return graph, placement, mechanism, cutoff


class TestTouchClassDP:
    """The layered subset DP behind ``enumerate_paths`` against the DFS it
    replaced, which ``count_paths`` and the lazy ``paths`` still run."""

    @settings(max_examples=200, deadline=None)
    @given(case=dp_cases())
    def test_classes_match_the_dfs(self, case):
        from repro.utils.bitset import masks_from_paths

        graph, placement, mechanism, cutoff = case
        try:
            n = count_paths(graph, placement, mechanism, cutoff)
        except RoutingError:
            with pytest.raises(RoutingError):
                enumerate_paths(graph, placement, mechanism, cutoff)
            return
        pathset = enumerate_paths(graph, placement, mechanism, cutoff)
        assert pathset.__dict__["paths"] is None
        assert pathset.n_paths == len(pathset) == n
        histogram = path_length_histogram(pathset)
        family = pathset._family
        adjacency = _adjacency(graph)
        classes = Counter()
        for key, count in zip(family.keys, family.counts):
            touched = (node for i, node in enumerate(adjacency.nodes) if key >> i & 1)
            classes[frozenset(touched)] += count
        reference = Counter(
            frozenset(path) for path in nx_simple_paths(graph, placement, cutoff)
        )
        assert classes == reference
        assert len(family.keys) == len(set(family.keys))
        open_paths = list(_open_paths(adjacency, placement, cutoff))
        assert sum(family.counts) == len(open_paths)
        assert pathset.paths[: len(open_paths)] == tuple(class_major(open_paths))
        assert histogram == dict(
            sorted(Counter(len(path) - 1 for path in pathset.paths).items())
        )
        assert pathset._node_masks == masks_from_paths(pathset.nodes, pathset.paths)
        for function in (enumerate_paths, count_paths):
            with pytest.raises(PathExplosionError):
                function(graph, placement, mechanism, cutoff, n - 1)

    def test_numbers_need_no_path_tuples(self):
        graph = nx.cycle_graph(6)
        placement = MonitorPlacement.of(inputs={0, 1}, outputs={0, 3})
        pathset = enumerate_paths(graph, placement, "CAP")
        nbytes = pathset.approximate_nbytes()
        histogram = path_length_histogram(pathset)
        assert pathset.__dict__["paths"] is None  # nothing above built them
        per_path = sum(56 + 8 * len(path) for path in pathset.paths)
        masks = sum(32 + (m.bit_length() + 7) // 8 for m in pathset._node_masks.values())
        assert nbytes == masks + per_path
        assert histogram == dict(
            sorted(Counter(len(path) - 1 for path in pathset.paths).items())
        )

    def test_cap_aborts_inside_the_dp(self):
        """Breadth-first layers may grow past where the DFS stopped: the cap
        is checked against the running count, not after the last layer."""
        graph = nx.complete_graph(14)
        placement = MonitorPlacement.of(inputs={0}, outputs={13})
        started = time.perf_counter()
        with pytest.raises(PathExplosionError):
            enumerate_paths(graph, placement, "CSP", max_paths=1000)
        assert time.perf_counter() - started < 0.5

    def test_sparse_outputs_count_on_the_dfs(self, monkeypatch):
        """A layer of more states than ``max_paths`` (prefixes wandering a
        dead-end clique, every one still extended while the output lies
        outside it) hands the count to the DFS: the same classes in the same
        order, columns and histogram as an uncapped DP."""
        from repro.routing import paths as paths_module

        graph = nx.DiGraph(
            [("s", "t"), ("s", "a"), ("a", "t"), ("a", "b"), ("b", "t"), ("s", "b")]
        )
        clique = [f"k{i}" for i in range(7)]
        graph.add_edges_from(("s", k) for k in clique)
        graph.add_edges_from((u, v) for u in clique for v in clique if u != v)
        placement = MonitorPlacement.of(inputs={"s"}, outputs={"t"})
        uncapped = enumerate_paths(graph, placement, "CSP")
        handed = []
        original = paths_module._dfs_touch_classes

        def spy(*args):
            handed.append(args)
            return original(*args)

        monkeypatch.setattr(paths_module, "_dfs_touch_classes", spy)
        capped = enumerate_paths(graph, placement, "CSP", max_paths=20)
        assert handed
        assert capped.n_paths == uncapped.n_paths == 4
        assert capped._family.keys == uncapped._family.keys
        assert capped._family.counts == uncapped._family.counts
        assert capped._node_masks == uncapped._node_masks
        assert capped.paths == uncapped.paths
        assert path_length_histogram(capped) == path_length_histogram(uncapped)
        with pytest.raises(PathExplosionError):
            enumerate_paths(graph, placement, "CSP", max_paths=3)


    @settings(max_examples=150, deadline=None)
    @given(case=dp_cases())
    def test_layer_totals_are_the_open_histogram(self, case):
        """Layer ``d`` of the DP adds the paths of ``d`` edges, so its totals
        are the open family's length histogram; the DFS fallback counts the
        same classes and totals."""
        graph, placement, _, cutoff = case
        adjacency = _adjacency(graph)
        open_paths = list(_open_paths(adjacency, placement, cutoff))
        expected = dict(sorted(Counter(len(path) - 1 for path in open_paths).items()))
        cap = len(open_paths) + 1
        classes, lengths = _touch_classes(adjacency, placement, cutoff, cap)
        assert lengths == expected
        assert _dfs_touch_classes(adjacency, placement, cutoff, cap) == (
            classes,
            lengths,
        )

    def test_dfs_fallback_records_the_layer_totals(self, monkeypatch):
        """The sparse-output case of ``test_sparse_outputs_count_on_the_dfs``:
        the family counted on the DFS carries the same length totals as the
        DP's, and both equal the materialised histogram."""
        from repro.routing import paths as paths_module

        graph = nx.DiGraph(
            [("s", "t"), ("s", "a"), ("a", "t"), ("a", "b"), ("b", "t"), ("s", "b")]
        )
        clique = [f"k{i}" for i in range(7)]
        graph.add_edges_from(("s", k) for k in clique)
        graph.add_edges_from((u, v) for u in clique for v in clique if u != v)
        placement = MonitorPlacement.of(inputs={"s"}, outputs={"t"})
        uncapped = enumerate_paths(graph, placement, "CSP")
        handed = []
        original = paths_module._dfs_touch_classes

        def spy(*args):
            handed.append(args)
            return original(*args)

        monkeypatch.setattr(paths_module, "_dfs_touch_classes", spy)
        capped = enumerate_paths(graph, placement, "CSP", max_paths=20)
        assert handed
        materialised = tuple(
            sorted(Counter(len(path) - 1 for path in capped.paths).items())
        )
        assert capped._family.open_lengths == materialised
        assert uncapped._family.open_lengths == materialised == ((1, 1), (2, 2), (3, 1))


def assert_engine_reads_the_classes(pathset):
    """The node engine of an enumerated path set builds its plan from the
    family's class runs, never running the dedup, and its plan and rows
    equal the dedup route's."""
    masks = {node: pathset.paths_through(node) for node in pathset.nodes}
    plan, rows = compress_module.compress_universe(
        pathset.nodes, masks, pathset.n_paths
    )
    refuse = mock.patch.object(
        compress_module, "dedup_columns", side_effect=AssertionError("dedup ran")
    )
    with refuse:
        engine = pathset.engine()
        runs = pathset._family.column_runs
        from_runs, runs_rows = compress_module.compress_universe(
            pathset.nodes, pathset._node_masks, pathset.n_paths, runs
        )
    assert from_runs == plan  # n_original and members
    assert from_runs.compressed_rows == plan.compressed_rows
    assert runs_rows == rows
    assert from_runs.touch_keys == plan.touch_keys
    assert (engine.compression is None) == plan.is_identity
    if engine.compression is not None:
        assert engine.compression == plan
    assert {node: engine.signature(node) for node in pathset.nodes} == rows
    return plan


class TestEngineFromClasses:
    """``PathSet.engine`` on an enumerated node universe: the plan read off
    the touch classes equals ``compress_universe`` over the same rows by the
    column dedup, on the numpy kernels and on the column references."""

    @settings(max_examples=200, deadline=None)
    @given(case=dp_cases())
    def test_plan_equals_the_dedup_route(self, case):
        graph, placement, mechanism, cutoff = case
        try:
            pathset = enumerate_paths(graph, placement, mechanism, cutoff)
        except RoutingError:
            return
        for name in COLUMN_KERNELS:
            with column_kernel(name):
                assert_engine_reads_the_classes(
                    enumerate_paths(graph, placement, mechanism, cutoff)
                )
        assert pathset.__dict__["paths"] is None  # the engine built no paths
        pathset.engine()
        assert pathset.__dict__["paths"] is None

    @pytest.mark.parametrize("name", COLUMN_KERNELS)
    def test_closed_paths_join_an_open_class(self, name):
        """On the triangle with ``a`` both input and output, the cycle
        (a, b, c, a) touches what the open path (a, b, c) does, and the
        CAP loop (a, a) is a class of its own."""
        graph = nx.Graph([("a", "b"), ("b", "c"), ("c", "a")])
        placement = MonitorPlacement.of(inputs={"a"}, outputs={"a", "c"})
        with column_kernel(name):
            for mechanism in ("CAP-", "CAP"):
                pathset = enumerate_paths(graph, placement, mechanism)
                plan = assert_engine_reads_the_classes(pathset)
                joined = [
                    tuple(pathset.paths[j] for j in group)
                    for group in plan.members
                    if len(group) > 1
                ]
                assert joined == [(("a", "b", "c"), ("a", "b", "c", "a"))]

    @pytest.mark.parametrize("name", COLUMN_KERNELS)
    def test_closed_paths_join_each_other(self, name):
        """On K4 anchored at ``a`` (input and output, no other monitor) there
        is no open path; the three Hamiltonian cycles through ``a`` touch
        the same four nodes and form one class."""
        graph = nx.complete_graph("abcd")
        placement = MonitorPlacement.of(inputs={"a"}, outputs={"a"})
        with column_kernel(name):
            pathset = enumerate_paths(graph, placement, "CAP-")
            plan = assert_engine_reads_the_classes(pathset)
        assert pathset._family.keys == ()
        assert sorted(map(len, plan.members)) == [1, 1, 1, 3]

    @pytest.mark.parametrize("name", COLUMN_KERNELS)
    def test_dag_families_are_the_identity(self, name):
        grid = directed_grid(4)
        with column_kernel(name):
            pathset = enumerate_paths(grid, chi_g(grid))
            plan = assert_engine_reads_the_classes(pathset)
        assert plan.is_identity
        assert pathset.engine().compression is None


def nx_simple_paths(graph, placement, cutoff):
    """The open family by ``nx.all_simple_paths`` (networkx reads ``cutoff``
    0 as no limit, so it is filtered here instead)."""
    for source in sorted(placement.inputs, key=repr):
        targets = {t for t in placement.outputs if t != source}
        if targets:
            for path in nx.all_simple_paths(graph, source, targets):
                if cutoff is None or len(path) - 1 <= cutoff:
                    yield tuple(path)


class TestCycleCutoff:
    """CAP/CAP⁻ monitor cycles obey ``cutoff`` like every other path: the
    anchor's outgoing edge counts towards the limit."""

    EDGES = (("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"))

    @pytest.mark.parametrize("directed", (True, False))
    def test_cycle_longer_than_cutoff_is_dropped(self, directed):
        graph = (nx.DiGraph if directed else nx.Graph)(self.EDGES)
        placement = MonitorPlacement.of(inputs={"a"}, outputs={"a", "d"})
        if directed:
            # Only 3-edge paths exist — (a, b, c, d) and the cycle
            # (a, b, c, a) — so a 2-edge cutoff leaves no measurement path.
            with pytest.raises(RoutingError):
                enumerate_paths(graph, placement, "CAP-", cutoff=2)
            with pytest.raises(RoutingError):
                count_paths(graph, placement, "CAP-", cutoff=2)
        else:
            paths = enumerate_paths(graph, placement, "CAP-", cutoff=2).paths
            assert paths == (("a", "c", "d"),)
        assert ("a", "b", "c", "a") in enumerate_paths(
            graph, placement, "CAP-", cutoff=3
        ).paths

    @pytest.mark.parametrize("directed", (True, False))
    @pytest.mark.parametrize("cutoff", (1, 2, 3, 4))
    def test_cutoff_filters_the_full_family(self, directed, cutoff):
        graph = (nx.DiGraph if directed else nx.Graph)(self.EDGES + (("a", "d"),))
        placement = MonitorPlacement.of(inputs={"a"}, outputs={"a", "d"})
        for mechanism in ("CAP-", "CAP"):
            full = enumerate_paths(graph, placement, mechanism).paths
            cut = enumerate_paths(graph, placement, mechanism, cutoff=cutoff).paths
            assert cut == tuple(path for path in full if len(path) - 1 <= cutoff)

    @pytest.mark.parametrize("directed", (True, False))
    def test_apply_delta_respects_cutoff(self, directed):
        kind = nx.DiGraph if directed else nx.Graph
        before = kind(self.EDGES + (("a", "d"),))
        after = kind(self.EDGES + (("a", "d"), ("b", "d")))
        placement = MonitorPlacement.of(inputs={"a"}, outputs={"a", "d"})
        pathset = enumerate_paths(before, placement, "CAP-", cutoff=2)
        evolved = pathset.apply_delta(
            after, placement, "CAP-", PathSetDelta(add_links=(("b", "d"),)), cutoff=2
        )
        fresh = enumerate_paths(after, placement, "CAP-", cutoff=2)
        assert evolved.paths == fresh.paths
        assert evolved._node_masks == fresh._node_masks
        assert ("a", "b", "c", "a") not in evolved.paths
        assert all(len(path) - 1 <= 2 for path in evolved.paths)


class TestCountPathsStreaming:
    def test_count_does_not_build_a_pathset(self, monkeypatch):
        import repro.routing.paths as paths_module

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("count_paths must not construct a PathSet")

        monkeypatch.setattr(paths_module, "PathSet", explode)
        graph = line_graph(4)
        placement = MonitorPlacement.of(inputs={0}, outputs={3})
        assert count_paths(graph, placement, "CSP") == 1

    def test_count_matches_enumeration_across_mechanisms(self):
        graph = nx.cycle_graph(5)
        placement = MonitorPlacement.of(inputs={0, 1}, outputs={0, 3})
        for mechanism in ("CSP", "CAP-", "CAP"):
            assert count_paths(graph, placement, mechanism) == enumerate_paths(
                graph, placement, mechanism
            ).n_paths

    def test_count_respects_max_paths_guard(self, directed_grid_4):
        with pytest.raises(PathExplosionError):
            count_paths(directed_grid_4, chi_g(directed_grid_4), max_paths=10)

    def test_count_raises_on_empty_family(self):
        graph = nx.DiGraph()
        graph.add_edge("a", "b")
        graph.add_node("c")
        placement = MonitorPlacement.of(inputs={"b"}, outputs={"c"})
        with pytest.raises(RoutingError):
            count_paths(graph, placement, "CSP")


class TestRestrictToPathsValidation:
    def _toy(self) -> PathSet:
        return PathSet(
            nodes=("a", "b", "c", "d"),
            paths=(("a", "b"), ("b", "c"), ("a", "c")),
        )

    def test_out_of_range_raises(self):
        with pytest.raises(RoutingError):
            self._toy().restrict_to_paths([0, 3])

    def test_negative_index_raises(self):
        with pytest.raises(RoutingError):
            self._toy().restrict_to_paths([-1])

    def test_duplicate_index_raises(self):
        with pytest.raises(RoutingError):
            self._toy().restrict_to_paths([1, 1])

    def test_column_selection_matches_rederivation(self):
        from repro.utils.bitset import masks_from_paths

        parent = self._toy()
        restricted = parent.restrict_to_paths([2, 0])
        assert restricted.paths == (("a", "c"), ("a", "b"))
        rederived = masks_from_paths(restricted.nodes, restricted.paths)
        assert {
            n: restricted.paths_through(n) for n in restricted.nodes
        } == rederived

    def test_restriction_preserves_universe(self):
        restricted = self._toy().restrict_to_paths([1])
        assert restricted.nodes == ("a", "b", "c", "d")
        assert restricted.paths_through("a") == 0


class TestPrecomputedMasks:
    def test_wrong_mask_cover_rejected(self):
        with pytest.raises(RoutingError):
            PathSet(nodes=("a", "b"), paths=(("a", "b"),), _node_masks={"a": 1})

    def test_enumerated_masks_power_the_engine(self):
        graph = nx.complete_graph(4)
        placement = MonitorPlacement.of(inputs={0}, outputs={0, 2})
        pathset = enumerate_paths(graph, placement, "CAP")
        engine = pathset.engine()
        failed = frozenset({1})
        expected = tuple(
            int(any(node in failed for node in path)) for path in pathset.paths
        )
        assert engine.measurement_vector(failed) == expected


class TestReviewRegressions:
    """Regressions from the PR 3 review pass."""

    def test_cutoff_zero_admits_no_path(self):
        # networkx semantics: cutoff=0 edges means no path exists at all.
        graph = line_graph(3)
        placement = MonitorPlacement.of(inputs={0}, outputs={2, 1})
        with pytest.raises(RoutingError):
            enumerate_paths(graph, placement, "CSP", cutoff=0)

    def test_restrict_accepts_one_shot_iterables(self):
        pathset = PathSet(
            nodes=("a", "b", "c"), paths=(("a", "b"), ("b", "c"), ("a", "c"))
        )
        restricted = pathset.restrict_to_paths(iter([2, 0]))
        assert restricted.paths == (("a", "c"), ("a", "b"))
        assert restricted.paths_through("a") == 0b11
