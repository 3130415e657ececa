"""Tests for routing mechanisms and measurement-path enumeration."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PathExplosionError, RoutingError
from repro.monitors.placement import MonitorPlacement
from repro.monitors.grid_placement import chi_g
from repro.routing.mechanisms import RoutingMechanism
from repro.routing.paths import (
    PathSet,
    PathSetDelta,
    _adjacency,
    _paths_through_edge,
    count_paths,
    enumerate_paths,
    path_length_histogram,
)
from repro.topology.grids import directed_grid, undirected_grid
from repro.topology.lines import line_graph


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
        assert list(actual.paths) == expected  # same depth-first order too

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
        """Paths in order, row-run masks, count and the max_paths guard all
        match the networkx reference, for every mechanism and cutoff."""
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
        assert list(pathset.paths) == expected
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


class TestPathsThroughEdge:
    """The delta layer's two-segment search yields exactly the from-scratch
    paths through one edge, in from-scratch order."""

    @settings(max_examples=120, deadline=None)
    @given(
        graph=random_graphs(),
        data=st.data(),
        cutoff=st.sampled_from((None, 1, 2, 3, 4)),
    )
    def test_matches_filtered_reference(self, graph, data, cutoff):
        edges = sorted(graph.edges)
        if not edges:
            return
        tail, head = data.draw(st.sampled_from(edges))
        if not graph.is_directed() and data.draw(st.booleans()):
            tail, head = head, tail
        nodes = sorted(graph.nodes)
        source = data.draw(st.sampled_from(nodes))
        targets = frozenset(data.draw(st.sets(st.sampled_from(nodes), min_size=1)))
        expected = [
            tuple(path)
            for path in nx.all_simple_paths(graph, source, targets - {source})
            if (cutoff is None or len(path) - 1 <= cutoff)
            and (tail, head) in zip(path, path[1:])
        ]
        actual = list(
            _paths_through_edge(
                _adjacency(graph), source, targets, tail, head, cutoff
            )
        )
        assert actual == expected


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
