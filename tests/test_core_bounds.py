"""Tests for the structural upper bounds of Section 3."""

from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import (
    classify_sources,
    degree_bound,
    delta_hat,
    edge_count_bound,
    lemma_3_2_witness,
    lemma_3_4_witness,
    min_degree_bound,
    monitor_count_bound,
    structural_upper_bound,
)
from repro.api.scenario import Scenario
from repro.exceptions import TopologyError
from repro.monitors.grid_placement import chi_g
from repro.monitors.heuristics import mdmp_placement
from repro.monitors.placement import MonitorPlacement
from repro.routing.paths import enumerate_paths
from repro.topology.grids import directed_grid, undirected_grid
from repro.topology.random_graphs import erdos_renyi_connected
from repro.topology.zoo import claranet, eunetworks


class TestTheorem31:
    def test_monitor_count_bound_value(self):
        placement = MonitorPlacement.of(inputs={1, 2, 3}, outputs={4})
        assert monitor_count_bound(placement) == 2

    def test_bound_is_respected_on_grid(self, directed_grid_3):
        placement = chi_g(directed_grid_3)
        value = Scenario.from_components(directed_grid_3, placement).mu().value
        assert value <= monitor_count_bound(placement)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_bound_is_respected_on_random_graphs(self, seed):
        graph = erdos_renyi_connected(7, 0.5, rng=seed)
        placement = mdmp_placement(graph, 2)
        value = Scenario.from_components(graph, placement).mu().value
        assert value <= monitor_count_bound(placement)


class TestLemma32:
    def test_min_degree_bound_undirected_only(self):
        with pytest.raises(TopologyError):
            min_degree_bound(nx.DiGraph([(0, 1)]))

    def test_value_on_grid(self):
        assert min_degree_bound(undirected_grid(3)) == 2

    def test_witness_is_confusable(self):
        graph = claranet()
        witness = lemma_3_2_witness(graph)
        placement = mdmp_placement(graph, 3)
        pathset = enumerate_paths(graph, placement, "CSP")
        assert pathset.paths_through_set(witness["U"]) == pathset.paths_through_set(
            witness["W"]
        )

    @given(seed=st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_mu_never_exceeds_min_degree(self, seed):
        graph = erdos_renyi_connected(6, 0.5, rng=seed)
        placement = mdmp_placement(graph, 2)
        assert Scenario.from_components(graph, placement).mu().value <= min_degree_bound(graph)


class TestCorollary33:
    def test_formula(self):
        graph = undirected_grid(3)
        n, m = graph.number_of_nodes(), graph.number_of_edges()
        assert edge_count_bound(graph) == min(n, math.ceil(2 * m / n))

    def test_directed_rejected(self):
        with pytest.raises(TopologyError):
            edge_count_bound(directed_grid(3))

    def test_never_below_min_degree(self):
        for builder in (claranet, eunetworks):
            graph = builder()
            assert edge_count_bound(graph) >= min_degree_bound(graph)


class TestLemma34:
    def test_classify_sources_on_grid(self, directed_grid_4):
        placement = chi_g(directed_grid_4)
        groups = classify_sources(directed_grid_4, placement)
        assert groups["simple"] == frozenset({(1, 1)})
        assert (1, 4) in groups["complex"]
        assert groups["rest"] | groups["complex"] | groups["simple"] == frozenset(
            directed_grid_4.nodes
        )

    def test_delta_hat_on_grid_is_two(self, directed_grid_4):
        placement = chi_g(directed_grid_4)
        assert delta_hat(directed_grid_4, placement) == 2

    def test_mu_respects_delta_hat(self, directed_grid_3):
        placement = chi_g(directed_grid_3)
        value = Scenario.from_components(directed_grid_3, placement).mu().value
        assert value <= delta_hat(directed_grid_3, placement)

    def test_witness_is_confusable_on_grid(self, directed_grid_3):
        placement = chi_g(directed_grid_3)
        witness = lemma_3_4_witness(directed_grid_3, placement)
        pathset = enumerate_paths(directed_grid_3, placement, "CSP")
        assert pathset.paths_through_set(witness["U"]) == pathset.paths_through_set(
            witness["W"]
        )

    def test_classify_sources_requires_directed(self):
        with pytest.raises(TopologyError):
            classify_sources(undirected_grid(3), MonitorPlacement.of({(1, 1)}, {(3, 3)}))


class TestCombinedBound:
    def test_degree_bound_dispatch(self, directed_grid_3):
        placement = chi_g(directed_grid_3)
        assert degree_bound(directed_grid_3, placement) == delta_hat(
            directed_grid_3, placement
        )
        assert degree_bound(undirected_grid(3)) == 2

    def test_structural_upper_bound_csp(self):
        graph = claranet()
        placement = mdmp_placement(graph, 3)
        report = structural_upper_bound(graph, placement, "CSP")
        assert report.degree == 1
        assert report.monitor_count == 2
        assert report.combined == 1

    def test_structural_upper_bound_cap_minus_has_no_monitor_bound(self):
        graph = claranet()
        placement = mdmp_placement(graph, 3)
        report = structural_upper_bound(graph, placement, "CAP-")
        assert report.monitor_count is None
        assert report.combined == 1

    def test_structural_upper_bound_cap_falls_back_to_n(self):
        graph = claranet()
        placement = mdmp_placement(graph, 3)
        report = structural_upper_bound(graph, placement, "CAP")
        assert report.combined == graph.number_of_nodes()

    def test_report_str_mentions_combined(self):
        graph = claranet()
        report = structural_upper_bound(graph, mdmp_placement(graph, 3))
        assert "combined" in str(report)

    def test_empty_graph_rejected(self):
        with pytest.raises(TopologyError):
            structural_upper_bound(nx.Graph(), None)

    @given(seed=st.integers(0, 60))
    @settings(max_examples=12, deadline=None)
    def test_mu_never_exceeds_combined_bound(self, seed):
        graph = erdos_renyi_connected(7, 0.45, rng=seed)
        placement = mdmp_placement(graph, 2)
        report = structural_upper_bound(graph, placement, "CSP")
        assert Scenario.from_components(graph, placement).mu().value <= report.combined
