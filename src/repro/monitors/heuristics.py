"""Monitor-placement heuristics (Section 7.1 and Section 8).

* **MDMP** ("Minimal Degree Monitor Placement"): order nodes by degree and
  attach the 2d monitors to the 2d nodes of smallest degree, alternating
  between input and output roles.  The paper motivates the heuristic with
  Theorem 5.4, which holds for any placement — in particular when monitors sit
  on corner (minimal-degree) nodes of a hypergrid.
* **Random placement**: 2d monitors on uniformly random distinct nodes, used
  by the Tables 11-13 experiments to show the Agrid gain is not an artefact of
  MDMP.
* **Degree-extremes placement**: an ablation variant that puts inputs on the
  lowest-degree nodes and outputs on the highest-degree nodes.
"""

from __future__ import annotations

from typing import List

from repro._typing import AnyGraph, Node
from repro.exceptions import MonitorPlacementError
from repro.monitors.placement import MonitorPlacement
from repro.topology.base import degree
from repro.utils.seeds import RngLike, resolve_rng


def _sorted_by_degree(graph: AnyGraph) -> List[Node]:
    """Nodes sorted by (degree, repr) — the deterministic MDMP order."""
    return sorted(graph.nodes, key=lambda node: (degree(graph, node), repr(node)))


def _check_budget(graph: AnyGraph, n_inputs: int, n_outputs: int) -> None:
    if n_inputs < 1 or n_outputs < 1:
        raise MonitorPlacementError("need at least one input and one output monitor")
    if n_inputs + n_outputs > graph.number_of_nodes():
        raise MonitorPlacementError(
            f"cannot place {n_inputs + n_outputs} monitors on distinct nodes of a "
            f"{graph.number_of_nodes()}-node graph"
        )


def mdmp_placement(graph: AnyGraph, d: int) -> MonitorPlacement:
    """MDMP: 2d monitors on the 2d nodes of minimal degree.

    The 2d lowest-degree nodes (ties broken deterministically by node repr)
    are assigned alternately to ``m`` and ``M`` so that both roles receive d
    nodes and the two sets are disjoint, as required by Algorithm 1 ("a same
    monitor cannot be chosen to be both in m and in M").
    """
    if d < 1:
        raise MonitorPlacementError(f"d must be >= 1, got {d}")
    _check_budget(graph, d, d)
    chosen = _sorted_by_degree(graph)[: 2 * d]
    inputs = frozenset(chosen[0::2])
    outputs = frozenset(chosen[1::2])
    placement = MonitorPlacement(inputs, outputs)
    placement.validate(graph)
    return placement


def random_placement(
    graph: AnyGraph, n_inputs: int, n_outputs: int, rng: RngLike = None
) -> MonitorPlacement:
    """Uniformly random placement of monitors on distinct nodes.

    Used by the random-monitor experiments (Tables 11-13): the Agrid gain
    should survive even when monitors are not placed by MDMP.
    """
    _check_budget(graph, n_inputs, n_outputs)
    generator = resolve_rng(rng)
    nodes = sorted(graph.nodes, key=repr)
    chosen = generator.sample(nodes, n_inputs + n_outputs)
    placement = MonitorPlacement(frozenset(chosen[:n_inputs]), frozenset(chosen[n_inputs:]))
    placement.validate(graph)
    return placement


def degree_extremes_placement(graph: AnyGraph, d: int) -> MonitorPlacement:
    """Ablation variant: inputs on the d lowest-degree nodes, outputs on the d
    highest-degree nodes.

    Not part of the paper's evaluation; included to quantify how much of the
    Agrid gain is attributable to the MDMP choice (benchmarks/bench_ablation_placement.py).
    """
    if d < 1:
        raise MonitorPlacementError(f"d must be >= 1, got {d}")
    _check_budget(graph, d, d)
    order = _sorted_by_degree(graph)
    inputs = frozenset(order[:d])
    outputs = frozenset(order[-d:])
    if inputs & outputs:
        raise MonitorPlacementError(
            "degree-extremes placement needs at least 2d distinct nodes"
        )
    placement = MonitorPlacement(inputs, outputs)
    placement.validate(graph)
    return placement


def all_pairs_placement(graph: AnyGraph) -> MonitorPlacement:
    """Every node is both an input and an output node.

    This is the most permissive placement (a "CAP with DLP everywhere"
    strawman).  The paper argues (Section 9) that such DLP strategies make the
    identifiability question trivial and decoupled from the topology; the
    placement is provided so that claim can be demonstrated in tests and
    examples.
    """
    nodes = frozenset(graph.nodes)
    if not nodes:
        raise MonitorPlacementError("cannot place monitors on the empty graph")
    return MonitorPlacement(nodes, nodes)
