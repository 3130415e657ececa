#!/usr/bin/env python3
"""Failure universes: the same µ machinery over nodes, links and SRLGs.

The paper defines maximal identifiability over *node* failures, but the
signature algebra underneath is agnostic to what a failure element is.  This
example runs the whole pipeline on Claranet three times:

1. the classic node universe (the paper's Tables 3-5 measure);
2. the link universe — every edge of the topology is a failure element, a
   path "sees" a link when it traverses it;
3. a shared-risk link group (SRLG) universe — links that share a conduit
   fail together, so each named group is one failure element.

Run:  python examples/link_failures.py
"""

from __future__ import annotations

import repro
from repro import (
    FailureModel,
    PlacementSpec,
    Scenario,
    ScenarioSpec,
    TopologySpec,
    UniverseSpec,
)


def scenario_for(universe: UniverseSpec) -> Scenario:
    return Scenario(
        ScenarioSpec(
            topology=TopologySpec("claranet"),
            placement=PlacementSpec("mdmp", {"d": 4}),
            failures=FailureModel(size=1, n_trials=25, universe=universe),
            seed=2018,
        )
    )


def demo_node_vs_link() -> None:
    print("=== Claranet / MDMP d=4: node µ vs link µ ===")
    node = scenario_for(UniverseSpec(kind="node"))
    link = scenario_for(UniverseSpec(kind="link"))
    for label, scenario in (("node", node), ("link", link)):
        report = scenario.mu()
        print(
            f"  {label:>4} universe: mu = {report.value}, "
            f"|elements| = {report.n_nodes}, |P| = {report.n_paths}"
        )
        if report.witness:
            print(f"        confusable: {report.witness[0]} ~ {report.witness[1]}")
    print()


def demo_link_localization() -> None:
    print("=== Link-failure localisation campaign ===")
    scenario = scenario_for(UniverseSpec(kind="link"))
    campaign = scenario.localization_campaign()
    print(
        f"  single-link failures: {campaign.n_unique}/{campaign.n_trials} "
        f"uniquely localised (mean ambiguity {campaign.mean_ambiguity:.2f}, "
        f"link mu = {campaign.mu})"
    )
    print()


def demo_srlg() -> None:
    print("=== SRLG universe: conduits that fail together ===")
    # Group Claranet's links by a crude geography: every link incident to
    # Amsterdam shares one conduit, everything else is split in two.
    probe = scenario_for(UniverseSpec(kind="link"))
    links = probe.pathset.links
    amsterdam = [list(l) for l in links if "Amsterdam" in l]
    rest = [list(l) for l in links if "Amsterdam" not in l]
    groups = {
        "amsterdam-conduit": amsterdam,
        "south-conduit": rest[: len(rest) // 2],
        "north-conduit": rest[len(rest) // 2:],
    }
    scenario = scenario_for(UniverseSpec(kind="srlg", groups=groups))
    report = scenario.mu()
    print(f"  {len(groups)} groups, srlg mu = {report.value}")
    campaign = scenario.localization_campaign()
    print(
        f"  single-conduit failures: {campaign.n_unique}/{campaign.n_trials} "
        "uniquely localised"
    )
    print()


def demo_path_statistics() -> None:
    print("=== Measurement report now carries path statistics ===")
    report = scenario_for(UniverseSpec(kind="link")).measurement()
    print(f"  universe = {report.universe}, mu = {report.mu}")
    histogram = ", ".join(
        f"{length}: {count}" for length, count in sorted(
            report.path_lengths.items(), key=lambda item: int(item[0])
        )
    )
    print(f"  path lengths (edges -> count): {histogram}")
    print()


def main() -> None:
    print(f"repro {repro.__version__} — element-generic failure universes\n")
    demo_node_vs_link()
    demo_link_localization()
    demo_srlg()
    demo_path_statistics()


if __name__ == "__main__":
    main()
