"""Paper-level tests for the undirected-topology theorems (Section 5).

* Lemma 5.2 — a tree that is not monitor-balanced has µ < 1.
* Theorem 5.3 — a monitor-balanced tree has µ = 1.
* Theorem 5.4 — undirected hypergrids with any 2d-monitor placement satisfy
  d − 1 ≤ µ ≤ d (checked for d = 2 over several placements).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.theory import (
    predicted_mu_undirected_hypergrid,
    predicted_mu_undirected_tree,
)
from repro.api.scenario import Scenario
from repro.monitors.grid_placement import chi_corners
from repro.monitors.heuristics import random_placement
from repro.monitors.placement import MonitorPlacement
from repro.monitors.tree_placement import balanced_leaf_placement, is_monitor_balanced
from repro.routing.mechanisms import RoutingMechanism
from repro.topology.grids import undirected_grid, undirected_hypergrid
from repro.topology.trees import caterpillar_tree, complete_kary_tree


class TestTreesUndirected:
    def test_balanced_tree_mu_is_one(self):
        tree = complete_kary_tree(3, 2).to_undirected()
        placement = balanced_leaf_placement(tree)
        assert Scenario.from_components(tree, placement).mu().value == 1

    def test_prediction_for_balanced_tree(self):
        tree = complete_kary_tree(3, 2).to_undirected()
        placement = balanced_leaf_placement(tree)
        assert predicted_mu_undirected_tree(tree, placement).exact == 1

    def test_unbalanced_tree_mu_is_zero(self):
        """Lemma 5.2: concentrating inputs on one side of an internal node
        leaves only one input subtree, so µ < 1."""
        tree = complete_kary_tree(2, 2).to_undirected()
        # All inputs under subtree '0', all outputs under subtree '1'.
        placement = MonitorPlacement.of(inputs={"00", "01"}, outputs={"10", "11"})
        assert not is_monitor_balanced(tree, placement)
        assert Scenario.from_components(tree, placement).mu().value == 0

    def test_prediction_for_unbalanced_tree(self):
        tree = complete_kary_tree(2, 2).to_undirected()
        placement = MonitorPlacement.of(inputs={"00", "01"}, outputs={"10", "11"})
        assert predicted_mu_undirected_tree(tree, placement).exact == 0

    def test_caterpillar_balanced_placement(self):
        tree = caterpillar_tree(3, legs=2)
        placement = balanced_leaf_placement(tree)
        assert is_monitor_balanced(tree, placement)
        assert Scenario.from_components(tree, placement).mu().value == 1


class TestTheorem54Hypergrids:
    def test_corner_placement_within_bounds(self):
        grid = undirected_grid(3)
        placement = chi_corners(grid)
        value = Scenario.from_components(grid, placement).mu().value
        assert 1 <= value <= 2

    def test_corner_placement_h4(self):
        grid = undirected_grid(4)
        placement = chi_corners(grid)
        assert 1 <= Scenario.from_components(grid, placement).mu().value <= 2

    def test_prediction_bounds(self):
        grid = undirected_grid(3)
        prediction = predicted_mu_undirected_hypergrid(grid)
        assert (prediction.lower, prediction.upper) == (1, 2)

    def test_cap_minus_agrees(self):
        grid = undirected_grid(3)
        placement = chi_corners(grid)
        scenario = Scenario.from_components(
            grid, placement, RoutingMechanism.CAP_MINUS
        )
        assert 1 <= scenario.mu(max_size=3).value <= 2

    @given(seed=st.integers(0, 30))
    @settings(max_examples=8, deadline=None)
    def test_any_2d_monitor_placement_respects_bounds(self, seed):
        """Theorem 5.4 is placement-independent: random 2d placements stay in
        [d-1, d] on the 3x3 grid."""
        grid = undirected_grid(3)
        placement = random_placement(grid, 2, 2, rng=seed)
        value = Scenario.from_components(grid, placement).mu().value
        assert 1 <= value <= 2

    def test_uses_only_2d_monitors(self):
        grid = undirected_hypergrid(3, 2)
        assert chi_corners(grid).n_monitors == 4
