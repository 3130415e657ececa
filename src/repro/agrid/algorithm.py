"""The Agrid heuristic (Algorithm 1, Section 7.1).

Given an undirected network ``G`` and a target dimension ``d``, Agrid

1. raises the minimal degree of ``G`` to ``d`` by giving every node of degree
   below ``d`` enough randomly chosen new neighbours (lines 1-4 of
   Algorithm 1), producing the boosted network ``G^A``;
2. selects ``2d`` monitor nodes according to the MDMP heuristic — d input and
   d output nodes of minimal degree — on both ``G`` and ``G^A`` (lines 5-8).

The intent is to make ``G^A`` "simulate" a d-dimensional hypergrid: by Theorem
5.4 an undirected hypergrid of dimension d reaches identifiability at least
``d − 1`` with only 2d monitors under any placement, so raising δ(G) to d
removes the structural obstruction of Lemma 3.2 and empirically boosts µ
towards d (Section 8).

Variants of the edge-selection rule discussed in Section 9 — attach only to
low-degree nodes, attach only to far-away nodes — are provided for the
ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import networkx as nx

from repro._typing import Node
from repro.exceptions import TopologyError
from repro.monitors.heuristics import mdmp_placement
from repro.monitors.placement import MonitorPlacement
from repro.utils.seeds import RngLike, resolve_rng

#: Signature of an edge-selection strategy: given the working graph, the node
#: being boosted, the candidate endpoints and the RNG, return the chosen
#: endpoints (ordered, duplicates not allowed).
EdgeSelector = Callable[[nx.Graph, Node, Sequence[Node], int, "random.Random"], List[Node]]


@dataclass(frozen=True)
class AgridResult:
    """Output of a run of Agrid.

    Attributes
    ----------
    original:
        The input graph ``G`` (never mutated).
    boosted:
        The boosted graph ``G^A`` with minimal degree ≥ d.
    added_edges:
        The edges added to ``G`` to obtain ``G^A``.
    placement_original:
        The MDMP placement of 2d monitors computed on ``G``.
    placement_boosted:
        The MDMP placement of 2d monitors computed on ``G^A``.
    dimension:
        The parameter ``d``.
    """

    original: nx.Graph
    boosted: nx.Graph
    added_edges: Tuple[Tuple[Node, Node], ...]
    placement_original: MonitorPlacement
    placement_boosted: MonitorPlacement
    dimension: int

    @property
    def n_added_edges(self) -> int:
        return len(self.added_edges)


def _uniform_selector(
    graph: nx.Graph, node: Node, candidates: Sequence[Node], count: int, rng
) -> List[Node]:
    """Line 2 of Algorithm 1: choose the new neighbours uniformly at random."""
    return rng.sample(list(candidates), count)


def low_degree_selector(
    graph: nx.Graph, node: Node, candidates: Sequence[Node], count: int, rng
) -> List[Node]:
    """Section 9 variant (1): prefer candidates of currently low degree.

    Candidates are sorted by degree (random tie-break) and the lowest-degree
    ones are chosen, spreading the new edges across under-connected nodes.
    """
    shuffled = list(candidates)
    rng.shuffle(shuffled)
    shuffled.sort(key=lambda other: graph.degree(other))
    return shuffled[:count]


def far_away_selector(
    graph: nx.Graph, node: Node, candidates: Sequence[Node], count: int, rng
) -> List[Node]:
    """Section 9 variant (2): prefer candidates far from ``node``.

    New edges act as shortcuts; attaching to distant nodes mimics the
    long-range structure of a hypergrid better than attaching to neighbours'
    neighbours.
    """
    lengths = nx.single_source_shortest_path_length(graph, node)
    shuffled = list(candidates)
    rng.shuffle(shuffled)
    shuffled.sort(key=lambda other: -lengths.get(other, graph.number_of_nodes()))
    return shuffled[:count]


def boost_min_degree(
    graph: nx.Graph,
    d: int,
    rng: RngLike = None,
    selector: EdgeSelector = _uniform_selector,
) -> Tuple[nx.Graph, Tuple[Tuple[Node, Node], ...]]:
    """Lines 1-4 of Algorithm 1: add edges until every node has degree ≥ d.

    Returns the boosted copy and the list of added edges.  The input graph is
    left untouched.  Nodes are processed in deterministic order; the edge
    endpoints are chosen by ``selector`` (uniformly at random by default).
    """
    if graph.is_directed():
        raise TopologyError("Agrid operates on undirected networks")
    if d < 1:
        raise TopologyError(f"the target minimal degree d must be >= 1, got {d}")
    if d > graph.number_of_nodes() - 1:
        raise TopologyError(
            f"cannot raise the minimal degree to {d} on a graph with only "
            f"{graph.number_of_nodes()} nodes"
        )
    generator = resolve_rng(rng)
    boosted = graph.copy()
    boosted.graph["name"] = f"{graph.name or 'G'}^A(d={d})"
    added: List[Tuple[Node, Node]] = []
    for node in sorted(boosted.nodes, key=repr):
        deficit = d - boosted.degree(node)
        if deficit <= 0:
            continue
        candidates = [
            other
            for other in sorted(boosted.nodes, key=repr)
            if other != node and not boosted.has_edge(node, other)
        ]
        if len(candidates) < deficit:
            raise TopologyError(
                f"node {node!r} cannot reach degree {d}: only {len(candidates)} "
                "non-neighbours available"
            )
        for other in selector(boosted, node, candidates, deficit, generator):
            boosted.add_edge(node, other)
            added.append((node, other))
    return boosted, tuple(added)


def agrid(
    graph: nx.Graph,
    d: int,
    rng: RngLike = None,
    selector: EdgeSelector = _uniform_selector,
    placement_heuristic: Callable[[nx.Graph, int], MonitorPlacement] = mdmp_placement,
) -> AgridResult:
    """Run Algorithm 1 end to end.

    Parameters
    ----------
    graph:
        The undirected network ``G`` (monitors not yet placed).
    d:
        The target dimension / minimal degree.
    rng:
        Seed or generator controlling the random edge choices.
    selector:
        Edge-selection strategy (uniform by default; see the Section 9
        variants above).
    placement_heuristic:
        How to choose the 2d monitors on each graph; MDMP by default, as in
        the paper.
    """
    boosted, added = boost_min_degree(graph, d, rng=rng, selector=selector)
    placement_original = placement_heuristic(graph, d)
    placement_boosted = placement_heuristic(boosted, d)
    return AgridResult(
        original=graph,
        boosted=boosted,
        added_edges=added,
        placement_original=placement_original,
        placement_boosted=placement_boosted,
        dimension=d,
    )


def subnetwork_agrid(
    subnetwork: nx.Graph,
    supernetwork: nx.Graph,
    d: int,
    rng: RngLike = None,
) -> AgridResult:
    """Agrid restricted to edges available in a super-network (Section 7.1.1).

    In the *subnetworks* scenario a new link between ``u`` and ``v`` may only
    be activated when the super-network already contains the edge ``(u, v)``,
    in which case no physical intervention is needed.  The achievable minimal
    degree is therefore capped by the super-network's degrees; if the cap
    prevents reaching ``d`` a :class:`TopologyError` explains which node is
    stuck.
    """
    if subnetwork.is_directed() or supernetwork.is_directed():
        raise TopologyError("subnetwork_agrid operates on undirected networks")
    missing = [node for node in subnetwork.nodes if node not in supernetwork]
    if missing:
        raise TopologyError(
            f"subnetwork nodes {missing!r} do not belong to the super-network"
        )

    def restricted_selector(graph: nx.Graph, node: Node, candidates, count, generator):
        allowed = [
            other for other in candidates if supernetwork.has_edge(node, other)
        ]
        if len(allowed) < count:
            raise TopologyError(
                f"node {node!r} cannot reach degree {d} inside the super-network: "
                f"only {len(allowed)} candidate links exist"
            )
        return generator.sample(allowed, count)

    return agrid(subnetwork, d, rng=rng, selector=restricted_selector)
