#!/usr/bin/env python3
"""Quickstart: the declarative scenario API on the paper's flagship topologies.

Every question the library answers is a question about one *scenario* —
a topology + a monitor placement + a routing mechanism — so the stable API
is a spec-driven facade:

1. describe the scenario as a (JSON-round-trippable) ``ScenarioSpec``;
2. build the ``Scenario`` facade; graph, paths and signature engine are
   materialised lazily;
3. call analysis methods (``mu()``, ``truncated()``, ``bounds()``,
   ``localization_campaign()``, ``agrid_tradeoff()``, ...) — each returns a
   typed, ``to_dict()``/``to_json()``-able report.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import repro
from repro import (
    PlacementSpec,
    Scenario,
    ScenarioSpec,
    TopologySpec,
)
from repro.analysis import verify
from repro.monitors import chi_g, chi_t
from repro.topology import complete_kary_tree, directed_grid


def demo_five_lines() -> None:
    print("=== Five lines: zoo topology -> CSP routing -> MDMP placement -> mu ===")
    spec = ScenarioSpec(
        topology=TopologySpec("claranet"),
        placement=PlacementSpec("mdmp", {"d": 4}),
    )
    print(f"  {Scenario(spec).mu().to_json(indent=None)}")
    print()


def demo_directed_grid() -> None:
    print("=== Directed grid H_4 under chi_g (Theorem 4.8) ===")
    spec = ScenarioSpec(
        topology=TopologySpec("directed_grid", {"n": 4}),
        placement=PlacementSpec("chi_g"),
    )
    scenario = Scenario(spec)
    report = scenario.mu()
    placement = scenario.placement
    print(f"  monitors: |m| = {placement.n_inputs}, |M| = {placement.n_outputs}")
    print(f"  mu = {report.value} (theorem: exactly 2), |P| = {report.n_paths}")
    print()


def demo_directed_tree() -> None:
    print("=== Directed binary tree under chi_t (Theorem 4.1) ===")
    spec = ScenarioSpec(
        topology=TopologySpec(
            "complete_kary_tree", {"depth": 3, "arity": 2}
        ),
        placement=PlacementSpec("chi_t"),
    )
    scenario = Scenario(spec)
    print(f"  nodes: {scenario.graph.number_of_nodes()}, leaves (output "
          f"monitors): {scenario.placement.n_outputs}")
    print(f"  mu = {scenario.mu().value} (theorem: exactly 1)")
    print()


def demo_undirected_hypergrid() -> None:
    print("=== Undirected grid H_3 (d = 2) with only 2d = 4 monitors (Theorem 5.4) ===")
    spec = ScenarioSpec(
        topology=TopologySpec("undirected_hypergrid", {"n": 3, "d": 2}),
        placement=PlacementSpec("chi_corners"),
    )
    scenario = Scenario(spec)
    print(f"  nodes: {scenario.graph.number_of_nodes()}, "
          f"monitors: {scenario.placement.n_monitors}")
    print(f"  measured mu = {scenario.mu().value} "
          "(theorem guarantees d-1 = 1 <= mu <= d = 2)")
    print()


def demo_bounds_agrid_and_json() -> None:
    print("=== Claranet: bounds, Agrid trade-off, JSON round trip ===")
    spec = ScenarioSpec(
        topology=TopologySpec("claranet"),
        placement=PlacementSpec("mdmp", {"d": 3}),
        seed=2018,
    )
    scenario = Scenario(spec)
    bounds = scenario.bounds()
    print(f"  structural bound: mu <= {bounds.combined}; "
          f"measured mu = {scenario.mu().value}")
    tradeoff = scenario.agrid_tradeoff(dimension=3, horizon=12)
    print(f"  Agrid(d=3) added {tradeoff.comparison.n_added_edges} edges -> "
          f"mu = {tradeoff.comparison.boosted.mu} "
          f"(improvement +{tradeoff.comparison.improvement})")
    print(f"  kappa(G, T) = {tradeoff.kappa:.2f} "
          f"({'worthwhile' if tradeoff.worthwhile else 'not worthwhile'})")
    # The spec is a value: serialise it, ship it, rebuild the same scenario.
    rebuilt = repro.ScenarioSpec.from_json(spec.to_json())
    assert rebuilt == spec and Scenario(rebuilt).mu() == scenario.mu()
    print("  spec JSON round trip: identical scenario, identical mu")
    print()


def demo_legacy_components() -> None:
    print("=== In-memory components still work (Scenario.from_components) ===")
    grid = directed_grid(4)
    scenario = Scenario.from_components(grid, chi_g(grid))
    print(f"  grid mu = {scenario.mu().value} over |P| = {scenario.pathset.n_paths}")
    print(f"  {verify(grid, chi_g(grid)).summary()}")
    tree = complete_kary_tree(depth=3, arity=2)
    print(f"  tree mu = {Scenario.from_components(tree, chi_t(tree)).mu().value}")
    print()


def main() -> None:
    demo_five_lines()
    demo_directed_grid()
    demo_directed_tree()
    demo_undirected_hypergrid()
    demo_bounds_agrid_and_json()
    demo_legacy_components()


if __name__ == "__main__":
    main()
