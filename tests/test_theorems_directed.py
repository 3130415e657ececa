"""Paper-level tests for the directed-topology theorems (Section 4).

These are the headline results of the paper, checked by exact computation:

* Theorem 4.1 — line-free directed trees under χ_t have µ = 1, and the
  placement is optimal (removing a leaf monitor drops µ to 0).
* Theorem 4.8 — directed grids H_n under χ_g have µ = 2 (n ≥ 3).
* Theorem 4.9 — directed hypergrids H_{n,d} under χ_g have µ = d.
* Optimality of χ_g — removing the input links to (1,2) and (2,1) makes
  {(1,2),(2,1)} and {(1,1)} inseparable.
"""

from __future__ import annotations

import pytest

from repro.analysis.theory import (
    predicted_mu_directed_hypergrid,
    predicted_mu_directed_tree,
)
from repro.analysis.verification import verify
from repro.api import PlacementSpec, Scenario, ScenarioSpec, TopologySpec
from repro.monitors.grid_placement import chi_g, reduced_chi_g
from repro.monitors.tree_placement import chi_t, chi_t_with_missing_leaf
from repro.routing.mechanisms import RoutingMechanism
from repro.routing.paths import enumerate_paths
from repro.topology.grids import directed_grid, directed_hypergrid
from repro.topology.trees import complete_kary_tree, tree_leaves


class TestTheorem41Trees:
    @pytest.mark.parametrize("depth,arity", [(2, 2), (3, 2), (2, 3)])
    def test_downward_tree_mu_is_one(self, depth, arity):
        tree = complete_kary_tree(depth, arity)
        assert Scenario.from_components(tree, chi_t(tree)).mu().value == 1

    @pytest.mark.parametrize("depth,arity", [(2, 2), (2, 3)])
    def test_upward_tree_mu_is_one(self, depth, arity):
        tree = complete_kary_tree(depth, arity, direction="up")
        assert Scenario.from_components(tree, chi_t(tree)).mu().value == 1

    def test_cap_minus_agrees(self):
        tree = complete_kary_tree(2, 2)
        scenario = Scenario.from_components(
            tree, chi_t(tree), RoutingMechanism.CAP_MINUS
        )
        assert scenario.mu().value == 1

    def test_prediction_matches(self):
        tree = complete_kary_tree(3, 2)
        prediction = predicted_mu_directed_tree(tree)
        assert prediction.exact == 1
        assert prediction.contains(Scenario.from_components(tree, chi_t(tree)).mu().value)

    def test_optimality_removing_leaf_monitor_drops_mu_to_zero(self):
        tree = complete_kary_tree(2, 2)
        leaf = sorted(tree_leaves(tree))[0]
        weakened = chi_t_with_missing_leaf(tree, leaf)
        assert Scenario.from_components(tree, weakened).mu().value == 0

    def test_verification_report_passes(self):
        tree = complete_kary_tree(2, 2)
        report = verify(tree, chi_t(tree))
        assert report.mu_value == 1
        assert report.all_checks_pass


class TestTheorem48Grids:
    @pytest.mark.parametrize("n", [3, 4])
    def test_directed_grid_mu_is_two(self, n):
        grid = directed_grid(n)
        assert Scenario.from_components(grid, chi_g(grid)).mu().value == 2

    def test_cap_minus_agrees_on_h3(self):
        grid = directed_grid(3)
        scenario = Scenario.from_components(
            grid, chi_g(grid), RoutingMechanism.CAP_MINUS
        )
        assert scenario.mu().value == 2

    def test_prediction_matches(self):
        grid = directed_grid(4)
        prediction = predicted_mu_directed_hypergrid(grid)
        assert prediction.exact == 2

    def test_number_of_monitors_is_4n_minus_2(self):
        grid = directed_grid(5)
        assert chi_g(grid).n_monitors == 4 * 5 - 2

    def test_verification_report_passes(self, directed_grid_4):
        report = verify(directed_grid_4, chi_g(directed_grid_4))
        assert report.mu_value == 2
        assert report.all_checks_pass

    def test_optimality_of_chi_g(self):
        """Section 4.1: with 4n-5 monitors, {(1,2),(2,1)} and {(1,1)} are
        inseparable, so the identifiability drops below 2."""
        grid = directed_grid(3)
        weakened = reduced_chi_g(grid)
        pathset = enumerate_paths(grid, weakened, "CSP")
        assert not pathset.separates({(1, 2), (2, 1)}, {(1, 1)})
        assert Scenario.from_components(grid, weakened).mu().value < 2


class TestTheorem49Hypergrids:
    def test_three_dimensional_hypergrid_mu_is_three(self, hypergrid_333):
        assert Scenario.from_components(hypergrid_333, chi_g(hypergrid_333)).mu().value == 3

    def test_four_dimensional_hypergrid_mu_is_four(self):
        """Theorem 4.9 at d = 4: H_{3,4} has 81 nodes and 21,152 paths, and
        its witness sits at size 5 — past C(81, 5) ≈ 25.6 M subsets, out of
        reach of a size-ordered subset sweep."""
        scenario = Scenario(
            ScenarioSpec(
                topology=TopologySpec("directed_hypergrid", {"n": 3, "d": 4}),
                placement=PlacementSpec("chi_g"),
            )
        )
        report = scenario.mu()
        assert (report.value, report.searched_up_to) == (4, 5)
        assert report.exhausted_search is False
        first, second = scenario.engine.identifiability().witness
        assert len(second) == 5
        assert scenario.pathset.paths_through_set(
            first
        ) == scenario.pathset.paths_through_set(second)

    def test_prediction_matches(self, hypergrid_333):
        assert predicted_mu_directed_hypergrid(hypergrid_333).exact == 3

    def test_monitor_count_is_twice_the_face_size(self, hypergrid_333):
        # The face placement attaches monitors to every node with a coordinate
        # equal to 1 (inputs) or n (outputs): n^d - (n-1)^d nodes per side.
        assert chi_g(hypergrid_333).n_monitors == 2 * (3**3 - 2**3)

    def test_verification_report_passes(self, hypergrid_333):
        report = verify(hypergrid_333, chi_g(hypergrid_333))
        assert report.mu_value == 3
        assert report.all_checks_pass
