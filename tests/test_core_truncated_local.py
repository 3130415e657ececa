"""Tests for truncated (µ_α) and local identifiability."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.scenario import Scenario
from repro.core.identifiability import maximal_identifiability
from repro.core.local import (
    is_locally_k_identifiable,
    local_identifiability_per_node,
    local_maximal_identifiability,
)
from repro.core.truncated import (
    default_truncation_level,
    truncated_identifiability,
    truncated_identifiability_detailed,
    truncation_error_for_graph,
    truncation_error_fraction,
)
from repro.exceptions import IdentifiabilityError
from repro.monitors.heuristics import mdmp_placement
from repro.monitors.placement import MonitorPlacement
from repro.routing.paths import PathSet, enumerate_paths
from repro.topology.random_graphs import erdos_renyi_connected
from repro.topology.zoo import eunetwork_small, gridnetwork


def toy_pathset() -> PathSet:
    return PathSet(nodes=("a", "b", "c", "d"), paths=(("a", "b"), ("b", "c"), ("a", "c")))


class TestTruncated:
    def test_truncated_equals_exact_when_mu_below_alpha(self):
        pathset = toy_pathset()
        assert truncated_identifiability(pathset, 3) == maximal_identifiability(pathset)

    def test_truncated_caps_at_alpha(self):
        # A pathset where every singleton is separable: mu_1 reports 1 even if
        # larger sets would collide.
        pathset = PathSet(nodes=("a", "b", "c"), paths=(("a",), ("b",), ("c",), ("a", "b", "c")))
        assert truncated_identifiability(pathset, 1) == 1

    def test_alpha_must_be_positive(self):
        with pytest.raises(IdentifiabilityError):
            truncated_identifiability(toy_pathset(), 0)

    def test_detailed_variant_consistency(self):
        pathset = toy_pathset()
        detailed = truncated_identifiability_detailed(pathset, 2)
        assert detailed.value == truncated_identifiability(pathset, 2)

    def test_default_truncation_level_is_average_degree(self):
        graph = gridnetwork()
        assert default_truncation_level(graph) == 4
        assert default_truncation_level(eunetwork_small()) == 2

    def test_mu_truncated_end_to_end(self):
        graph = eunetwork_small()
        placement = mdmp_placement(graph, 2)
        value = Scenario.from_components(graph, placement).truncated().value
        assert 0 <= value <= default_truncation_level(graph)

    @given(seed=st.integers(0, 60), alpha=st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_truncated_upper_bounds_exact(self, seed, alpha):
        """µ_α never underestimates µ when µ < α, never exceeds α otherwise."""
        graph = erdos_renyi_connected(6, 0.5, rng=seed)
        placement = mdmp_placement(graph, 2)
        pathset = enumerate_paths(graph, placement, "CSP")
        exact = maximal_identifiability(pathset)
        truncated = truncated_identifiability(pathset, alpha)
        if exact < alpha:
            assert truncated == exact
        else:
            assert truncated == alpha


class TestTruncationErrorFormula:
    def test_zero_when_alpha_is_n(self):
        assert truncation_error_fraction(8, 2, 8) == 0.0

    def test_decreasing_in_alpha(self):
        values = [truncation_error_fraction(10, 2, alpha) for alpha in range(2, 10)]
        assert values == sorted(values, reverse=True)

    def test_invalid_arguments(self):
        with pytest.raises(IdentifiabilityError):
            truncation_error_fraction(5, 0, 3)
        with pytest.raises(IdentifiabilityError):
            truncation_error_fraction(5, 3, 2)

    def test_graph_wrapper(self):
        value = truncation_error_for_graph(gridnetwork())
        assert 0.0 <= value <= 1.0


class TestLocalIdentifiability:
    def test_scope_must_be_in_universe(self):
        with pytest.raises(IdentifiabilityError):
            is_locally_k_identifiable(toy_pathset(), {"z"}, 1)

    @pytest.mark.parametrize("k", (0, 1, 3))
    def test_unknown_scope_raises_in_every_entry_point(self, k):
        pathset = toy_pathset()
        for call in (
            lambda: is_locally_k_identifiable(pathset, {"a", "z"}, k),
            lambda: local_maximal_identifiability(pathset, {"z"}, max_size=k),
            lambda: local_maximal_identifiability(pathset, {"z"}),
            lambda: pathset.engine().local_identifiability({"z"}, k),
        ):
            with pytest.raises(IdentifiabilityError, match="not in the engine"):
                call()

    def test_negative_sizes_raise(self):
        pathset = toy_pathset()
        with pytest.raises(IdentifiabilityError, match="k must be >= 0"):
            is_locally_k_identifiable(pathset, {"a"}, -1)
        for call in (
            lambda: local_maximal_identifiability(pathset, {"a"}, max_size=-1),
            lambda: local_identifiability_per_node(pathset, max_size=-1),
        ):
            with pytest.raises(IdentifiabilityError, match="max_size must be >= 0"):
                call()

    def test_local_at_least_global(self):
        pathset = toy_pathset()
        global_mu = maximal_identifiability(pathset)
        local_mu = local_maximal_identifiability(pathset, {"a"}, max_size=3)
        assert local_mu >= global_mu

    def test_uncovered_node_scope(self):
        # Scope {d}: {d} and {} have equal paths but different projections on
        # the scope, so local 1-identifiability fails.
        pathset = toy_pathset()
        assert not is_locally_k_identifiable(pathset, {"d"}, 1)

    def test_well_covered_scope_is_highly_identifiable(self):
        # Node 'a' has a unique path signature; sets differing on 'a' are
        # always separable, so the local measure reaches the cap.
        pathset = PathSet(nodes=("a", "b", "c"), paths=(("a",), ("b", "c"), ("a", "b")))
        assert local_maximal_identifiability(pathset, {"a"}, max_size=3) == 3

    def test_k_zero_is_true(self):
        assert is_locally_k_identifiable(toy_pathset(), {"a"}, 0)

    def test_per_node_report(self):
        pathset = toy_pathset()
        report = local_identifiability_per_node(pathset, max_size=2)
        assert set(report) == set(pathset.nodes)
        assert report["d"] == 0

    def test_dlp_node_trivially_identifiable(self):
        """Section 9: a DLP node separates itself from everything."""
        # Path ('v','v') is the degenerate loop of v; 'v' is the only node on it.
        pathset = PathSet(
            nodes=("v", "x", "y"),
            paths=(("v", "v"), ("x", "v", "y"), ("x", "y")),
        )
        assert local_maximal_identifiability(pathset, {"v"}, max_size=3) == 3
