"""Tests for the exact maximal-identifiability computation (Definitions 2.1/2.2)."""

from __future__ import annotations

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.scenario import Scenario
from repro.core.identifiability import (
    ConfusablePair,
    find_confusable_pair,
    is_k_identifiable,
    maximal_identifiability,
    maximal_identifiability_detailed,
    separability_matrix,
)
from repro.core.separability import verify_k_identifiability_by_separation
from repro.exceptions import IdentifiabilityError
from repro.monitors.placement import MonitorPlacement
from repro.routing.paths import PathSet, enumerate_paths
from repro.topology.lines import line_graph
from repro.topology.random_graphs import erdos_renyi_connected
from repro.monitors.heuristics import mdmp_placement


def toy_pathset() -> PathSet:
    """Four nodes, three paths; node 'd' is on no path."""
    return PathSet(nodes=("a", "b", "c", "d"), paths=(("a", "b"), ("b", "c"), ("a", "c")))


class TestMaximalIdentifiability:
    def test_uncovered_node_forces_zero(self):
        # 'd' lies on no path, so {d} is confusable with the empty set.
        assert maximal_identifiability(toy_pathset()) == 0

    def test_fully_covered_triangle(self):
        pathset = PathSet(nodes=("a", "b", "c"), paths=(("a", "b"), ("b", "c"), ("a", "c")))
        # Each node has a distinct pair of paths; singletons are separable,
        # but {a,b} vs {a,b,c} (and any 2-vs-2) cover all three paths alike.
        assert maximal_identifiability(pathset) == 1

    def test_detailed_result_witness_levels(self):
        result = maximal_identifiability_detailed(toy_pathset())
        assert result.value == 0
        assert result.witness is not None
        assert result.witness.level <= 1
        assert not result.exhausted_search

    def test_detailed_result_exhausted_when_capped(self):
        pathset = PathSet(nodes=("a",), paths=(("a",),))
        result = maximal_identifiability_detailed(pathset, max_size=1)
        assert result.exhausted_search
        assert result.value == 1

    def test_empty_universe_raises(self):
        pathset = toy_pathset()
        with pytest.raises(IdentifiabilityError):
            maximal_identifiability(pathset, nodes=[])

    def test_restricted_universe(self):
        # Ignoring the uncovered node 'd', singletons become separable.
        assert maximal_identifiability(toy_pathset(), nodes=["a", "b", "c"]) == 1

    def test_monotonicity_of_k_identifiability(self):
        pathset = PathSet(nodes=("a", "b", "c"), paths=(("a", "b"), ("b", "c"), ("a", "c")))
        value = maximal_identifiability(pathset)
        for k in range(0, value + 1):
            assert is_k_identifiable(pathset, k)
        assert not is_k_identifiable(pathset, value + 1)

    def test_k_zero_is_always_true(self):
        assert is_k_identifiable(toy_pathset(), 0)

    def test_negative_k_raises(self):
        with pytest.raises(IdentifiabilityError):
            is_k_identifiable(toy_pathset(), -1)

    def test_find_confusable_pair_is_actually_confusable(self):
        pathset = toy_pathset()
        pair = find_confusable_pair(pathset)
        assert pair is not None
        assert pathset.paths_through_set(pair.first) == pathset.paths_through_set(pair.second)
        assert pair.first != pair.second

    def test_confusable_pair_iterates_two_sets(self):
        pair = ConfusablePair(frozenset({"a"}), frozenset({"b", "c"}))
        first, second = pair
        assert first == frozenset({"a"})
        assert pair.level == 2

    def test_separability_matrix_small(self):
        pathset = PathSet(nodes=("a", "b"), paths=(("a",), ("b",), ("a", "b")))
        table = separability_matrix(pathset, 1)
        assert table[(frozenset({"a"}), frozenset({"b"}))] is True

    def test_separability_matrix_bad_size(self):
        with pytest.raises(IdentifiabilityError):
            separability_matrix(toy_pathset(), 0)


class TestAgainstBruteForceDefinition:
    """The fast signature algorithm must agree with the literal definition."""

    @given(seed=st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_matches_brute_force_on_random_graphs(self, seed):
        graph = erdos_renyi_connected(6, 0.5, rng=seed)
        placement = mdmp_placement(graph, 2)
        pathset = enumerate_paths(graph, placement, "CSP")
        fast = maximal_identifiability(pathset, max_size=4)
        # Brute force from the definition.
        for k in range(0, 5):
            holds, _ = verify_k_identifiability_by_separation(pathset, k)
            if not holds:
                assert fast == k - 1
                break
        else:
            assert fast >= 4

    def test_line_graph_mu_zero(self):
        graph = line_graph(5)
        placement = MonitorPlacement.of(inputs={0}, outputs={4})
        assert Scenario.from_components(graph, placement).mu().value == 0

    def test_mu_detailed_reports_paths_and_bound(self):
        graph = line_graph(4)
        placement = MonitorPlacement.of(inputs={0}, outputs={3})
        result = Scenario.from_components(graph, placement).identifiability()
        assert result.value == 0
        assert result.witness is not None


class TestMuConvenience:
    def test_mu_with_explicit_max_size(self, directed_grid_3):
        from repro.monitors.grid_placement import chi_g

        placement = chi_g(directed_grid_3)
        assert Scenario.from_components(directed_grid_3, placement).mu(max_size=3).value == 2

    def test_mu_accepts_mechanism_string(self, directed_grid_3):
        from repro.monitors.grid_placement import chi_g

        placement = chi_g(directed_grid_3)
        assert Scenario.from_components(directed_grid_3, placement, "CAP-").mu().value >= 2


@st.composite
def random_pathsets(draw):
    """Random small PathSets for property testing."""
    n_nodes = draw(st.integers(min_value=2, max_value=6))
    nodes = tuple(range(n_nodes))
    n_paths = draw(st.integers(min_value=1, max_value=6))
    paths = []
    for _ in range(n_paths):
        size = draw(st.integers(min_value=1, max_value=n_nodes))
        subset = draw(st.permutations(list(nodes)))[:size]
        paths.append(tuple(subset))
    return PathSet(nodes=nodes, paths=tuple(paths))


class TestProperties:
    @given(pathset=random_pathsets())
    @settings(max_examples=50, deadline=None)
    def test_mu_bounded_by_universe(self, pathset):
        value = maximal_identifiability(pathset)
        assert 0 <= value <= len(pathset.nodes)

    @given(pathset=random_pathsets())
    @settings(max_examples=50, deadline=None)
    def test_witness_respects_value(self, pathset):
        result = maximal_identifiability_detailed(pathset)
        if result.witness is not None:
            assert result.witness.level == result.value + 1
            assert pathset.paths_through_set(result.witness.first) == \
                pathset.paths_through_set(result.witness.second)

    @given(pathset=random_pathsets())
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_k(self, pathset):
        value = maximal_identifiability(pathset)
        if value >= 1:
            assert is_k_identifiable(pathset, value)
            assert is_k_identifiable(pathset, max(value - 1, 0))

    @given(pathset=random_pathsets(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_separation_is_symmetric(self, pathset, data):
        nodes = list(pathset.nodes)
        first = frozenset(data.draw(st.sets(st.sampled_from(nodes), max_size=2)))
        second = frozenset(data.draw(st.sets(st.sampled_from(nodes), max_size=2)))
        assert pathset.separates(first, second) == pathset.separates(second, first)

    @given(pathset=random_pathsets())
    @settings(max_examples=40, deadline=None)
    def test_adding_paths_never_decreases_mu(self, pathset):
        """More measurement paths can only help separate node sets."""
        if pathset.n_paths < 2:
            return
        fewer = pathset.restrict_to_paths(range(pathset.n_paths - 1))
        assert maximal_identifiability(pathset) >= maximal_identifiability(fewer)
