"""Tests for the Agrid heuristic, the design recipe and the trade-off models."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agrid.algorithm import (
    agrid,
    boost_min_degree,
    far_away_selector,
    low_degree_selector,
    subnetwork_agrid,
)
from repro.agrid.design import (
    achievable_identifiability,
    address_map,
    best_parameters,
    design_network,
)
from repro.agrid.tradeoffs import (
    dynamic_benefit,
    dynamic_benefit_series,
    identifiability_scaled_test_cost,
    static_tradeoff,
    uniform_edge_cost,
)
from repro.api.scenario import Scenario
from repro.exceptions import DesignError, TopologyError
from repro.topology.base import min_degree
from repro.topology.random_graphs import erdos_renyi_connected
from repro.topology.zoo import claranet, eunetworks, getnet


class TestBoostMinDegree:
    def test_reaches_target_degree(self):
        graph = claranet()
        boosted, added = boost_min_degree(graph, 3, rng=1)
        assert min_degree(boosted) >= 3
        assert len(added) == boosted.number_of_edges() - graph.number_of_edges()

    def test_original_graph_untouched(self):
        graph = claranet()
        edges_before = set(graph.edges)
        boost_min_degree(graph, 3, rng=1)
        assert set(graph.edges) == edges_before

    def test_noop_when_degree_already_sufficient(self):
        graph = nx.complete_graph(5)
        boosted, added = boost_min_degree(graph, 2, rng=1)
        assert added == ()
        assert set(boosted.edges) == set(graph.edges)

    def test_deterministic_for_seed(self):
        graph = eunetworks()
        _, first = boost_min_degree(graph, 3, rng=42)
        _, second = boost_min_degree(graph, 3, rng=42)
        assert first == second

    def test_rejects_directed(self):
        with pytest.raises(TopologyError):
            boost_min_degree(nx.DiGraph([(0, 1)]), 2)

    def test_rejects_unreachable_degree(self):
        with pytest.raises(TopologyError):
            boost_min_degree(nx.path_graph(3), 5)

    @given(seed=st.integers(0, 200), d=st.integers(2, 3))
    @settings(max_examples=20, deadline=None)
    def test_property_min_degree_reached_on_random_graphs(self, seed, d):
        graph = erdos_renyi_connected(8, 0.3, rng=seed)
        boosted, _ = boost_min_degree(graph, d, rng=seed)
        assert min_degree(boosted) >= d

    def test_selector_variants_also_reach_degree(self):
        graph = getnet()
        for selector in (low_degree_selector, far_away_selector):
            boosted, _ = boost_min_degree(graph, 3, rng=3, selector=selector)
            assert min_degree(boosted) >= 3


class TestAgrid:
    def test_result_contains_both_placements(self):
        result = agrid(claranet(), 3, rng=1)
        assert result.placement_original.n_monitors == 6
        assert result.placement_boosted.n_monitors == 6
        assert result.dimension == 3

    def test_boost_improves_or_preserves_mu(self):
        graph = eunetworks()
        result = agrid(graph, 3, rng=2018)
        original = Scenario.from_components(graph, result.placement_original).mu().value
        boosted = Scenario.from_components(result.boosted, result.placement_boosted).mu().value
        assert boosted >= original

    def test_added_edges_reported(self):
        result = agrid(claranet(), 3, rng=5)
        for u, v in result.added_edges:
            assert result.boosted.has_edge(u, v)
            assert not result.original.has_edge(u, v)

    def test_subnetwork_agrid_uses_only_supernetwork_edges(self):
        supernetwork = nx.complete_graph(list(getnet().nodes))
        result = subnetwork_agrid(getnet(), supernetwork, 3, rng=1)
        assert min_degree(result.boosted) >= 3
        for u, v in result.added_edges:
            assert supernetwork.has_edge(u, v)

    def test_subnetwork_agrid_fails_when_supernetwork_too_sparse(self):
        subnetwork = nx.path_graph(5)
        supernetwork = nx.path_graph(5)  # no extra links available
        with pytest.raises(TopologyError):
            subnetwork_agrid(subnetwork, supernetwork, 3, rng=1)

    def test_subnetwork_nodes_must_exist_in_supernetwork(self):
        with pytest.raises(TopologyError):
            subnetwork_agrid(nx.path_graph(4), nx.path_graph(3), 2)


class TestDesign:
    def test_best_parameters_exact_powers(self):
        assert best_parameters(9) == (3, 2)
        assert best_parameters(27) == (3, 3)
        assert best_parameters(81) == (3, 4)

    def test_best_parameters_non_powers(self):
        support, dimension = best_parameters(64)
        assert support**dimension >= 64
        assert support >= 3

    def test_best_parameters_too_small(self):
        with pytest.raises(DesignError):
            best_parameters(2)

    def test_design_network_plan(self):
        plan = design_network(9)
        assert plan.n_nodes == 9
        assert plan.n_monitors == 4
        assert plan.guaranteed_mu_lower == 1 and plan.guaranteed_mu_upper == 2
        assert plan.spare_nodes == 0

    def test_design_network_with_forced_dimension(self):
        plan = design_network(10, dimension=2)
        assert plan.dimension == 2
        assert plan.n_nodes >= 10

    def test_design_guarantee_verified_exactly_on_small_plan(self):
        plan = design_network(9)
        value = Scenario.from_components(plan.graph, plan.placement).mu().value
        assert plan.guaranteed_mu_lower <= value <= plan.guaranteed_mu_upper

    def test_achievable_identifiability_grows_with_n(self):
        assert achievable_identifiability(243) > achievable_identifiability(9)

    def test_address_map_covers_requested_nodes(self):
        plan = design_network(10)
        mapping = address_map(plan)
        assert len(mapping) == 10
        assert len(set(mapping.values())) == 10

    def test_design_rejects_bad_dimension(self):
        with pytest.raises(DesignError):
            design_network(9, dimension=0)


class TestTradeoffs:
    def test_static_tradeoff_kappa(self):
        tradeoff = static_tradeoff(
            added_edges=[(1, 2), (2, 3)],
            times=range(10),
            baseline_test_cost=lambda t: 100.0,
            boosted_test_cost=lambda t: 25.0,
            edge_cost=uniform_edge_cost(50.0),
        )
        assert tradeoff.baseline_testing_cost == 1000.0
        assert tradeoff.link_installation_cost == 100.0
        assert tradeoff.boosted_testing_cost == 250.0
        assert tradeoff.kappa == pytest.approx(1000.0 / 350.0)
        assert tradeoff.worthwhile

    def test_static_tradeoff_not_worthwhile(self):
        tradeoff = static_tradeoff(
            added_edges=[(1, 2)],
            times=[0],
            baseline_test_cost=lambda t: 10.0,
            boosted_test_cost=lambda t: 9.0,
            edge_cost=uniform_edge_cost(1000.0),
        )
        assert not tradeoff.worthwhile

    def test_static_tradeoff_requires_times(self):
        with pytest.raises(DesignError):
            static_tradeoff([], [], lambda t: 1.0, lambda t: 1.0, uniform_edge_cost(1.0))

    def test_dynamic_benefit(self):
        assert dynamic_benefit([(1, 2)], 10.0, uniform_edge_cost(3.0)) == 7.0
        assert dynamic_benefit([(1, 2), (2, 3)], 5.0, uniform_edge_cost(3.0)) == -1.0

    def test_dynamic_benefit_series_length_check(self):
        with pytest.raises(DesignError):
            dynamic_benefit_series([[(1, 2)]], [1.0, 2.0], uniform_edge_cost(1.0))

    def test_dynamic_benefit_series_values(self):
        series = dynamic_benefit_series(
            [[(1, 2)], []], [5.0, 2.0], uniform_edge_cost(1.0)
        )
        assert series == (4.0, 2.0)

    def test_identifiability_scaled_test_cost(self):
        cost_mu0 = identifiability_scaled_test_cost(100.0, 0)
        cost_mu2 = identifiability_scaled_test_cost(100.0, 2)
        assert cost_mu0(0) == 100.0
        assert cost_mu2(0) == 25.0

    def test_cost_validation(self):
        with pytest.raises(DesignError):
            uniform_edge_cost(-1.0)
        with pytest.raises(DesignError):
            identifiability_scaled_test_cost(-5.0, 1)
