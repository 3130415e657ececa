"""Order embeddings between DAGs (Section 6).

A mapping ``f : V(G) -> V(H)`` between two DAGs (viewed as posets under
reachability) is an *embedding* when it is injective and respects the order in
both directions: ``u ⪯_G v`` iff ``f(u) ⪯_H f(v)``.  The paper additionally
distinguishes

* bijective embeddings (order isomorphisms onto the image of V(H)),
* *distance-increasing* (d.i.) embeddings — ``d_G(x, y) ≤ d_H(f(x), f(y))``,
* *distance-preserving* (d.p.) embeddings — equality of distances,

and proves how µ transfers along each class (Theorems 6.2 and 6.4,
Corollary 6.5).  This module checks these properties and searches for
embeddings between small DAGs by backtracking.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import networkx as nx

from repro._typing import Node
from repro.exceptions import EmbeddingError
from repro.embeddings.poset import distance, reachability_order
from repro.monitors.placement import MonitorPlacement
from repro.topology.base import require_dag


def is_injective(mapping: Mapping[Node, Node]) -> bool:
    """True when ``mapping`` is injective."""
    return len(set(mapping.values())) == len(mapping)


def is_order_embedding(
    source: nx.DiGraph, target: nx.DiGraph, mapping: Mapping[Node, Node]
) -> bool:
    """Check that ``mapping`` embeds the poset of ``source`` into ``target``.

    Requirements: defined on every node of ``source``, injective, images in
    ``target``, and ``u ⪯ v`` iff ``f(u) ⪯ f(v)`` for every ordered node pair.
    """
    require_dag(source)
    require_dag(target)
    if set(mapping) != set(source.nodes):
        return False
    if not is_injective(mapping):
        return False
    if any(image not in target for image in mapping.values()):
        return False
    source_order = reachability_order(source)
    target_order = reachability_order(target)
    for u in source.nodes:
        for v in source.nodes:
            forward = v in source_order[u]
            image_forward = mapping[v] in target_order[mapping[u]]
            if forward != image_forward:
                return False
    return True


def is_distance_increasing(
    source: nx.DiGraph, target: nx.DiGraph, mapping: Mapping[Node, Node]
) -> bool:
    """d.i. embedding check: ``d_G(x, y) ≤ d_H(f(x), f(y))`` for all pairs.

    Pairs at infinite distance in ``source`` impose no constraint (any value
    is ≥ nothing smaller than infinity only when the target is also infinite
    or larger — infinity ≤ infinity holds).
    """
    if not is_order_embedding(source, target, mapping):
        return False
    for x in source.nodes:
        for y in source.nodes:
            if x == y:
                continue
            d_source = distance(source, x, y)
            if d_source == float("inf"):
                continue
            if d_source > distance(target, mapping[x], mapping[y]):
                return False
    return True


def is_distance_preserving(
    source: nx.DiGraph, target: nx.DiGraph, mapping: Mapping[Node, Node]
) -> bool:
    """d.p. embedding check: ``d_G(x, y) = d_H(f(x), f(y))`` for all pairs."""
    if not is_order_embedding(source, target, mapping):
        return False
    for x in source.nodes:
        for y in source.nodes:
            if x == y:
                continue
            if distance(source, x, y) != distance(target, mapping[x], mapping[y]):
                return False
    return True


def find_order_embedding(
    source: nx.DiGraph,
    target: nx.DiGraph,
    bijective: bool = False,
    max_assignments: int = 2_000_000,
) -> Optional[Dict[Node, Node]]:
    """Backtracking search for an order embedding of ``source`` into ``target``.

    Parameters
    ----------
    source, target:
        DAGs; the reachability posets are what gets embedded.
    bijective:
        Require ``|V(source)| = |V(target)|`` and an onto mapping (an order
        isomorphism), as in the second part of Section 6.
    max_assignments:
        Safety valve on the number of partial assignments explored.

    Returns the mapping, or ``None`` when no embedding exists.
    """
    require_dag(source)
    require_dag(target)
    if bijective and source.number_of_nodes() != target.number_of_nodes():
        return None
    if source.number_of_nodes() > target.number_of_nodes():
        return None

    source_order = reachability_order(source)
    target_order = reachability_order(target)
    source_nodes = sorted(source.nodes, key=lambda n: (-len(source_order[n]), repr(n)))
    target_nodes = sorted(target.nodes, key=repr)

    assignment: Dict[Node, Node] = {}
    used: set = set()
    budget = [max_assignments]

    def consistent(node: Node, image: Node) -> bool:
        for other, other_image in assignment.items():
            forward = other in source_order[node]
            backward = node in source_order[other]
            image_forward = other_image in target_order[image]
            image_backward = image in target_order[other_image]
            if forward != image_forward or backward != image_backward:
                return False
        return True

    def backtrack(index: int) -> bool:
        if budget[0] <= 0:
            raise EmbeddingError(
                "embedding search exceeded its assignment budget; the graphs "
                "are too large for the exact backtracking search"
            )
        if index == len(source_nodes):
            return True
        node = source_nodes[index]
        for image in target_nodes:
            if image in used:
                continue
            budget[0] -= 1
            if consistent(node, image):
                assignment[node] = image
                used.add(image)
                if backtrack(index + 1):
                    return True
                del assignment[node]
                used.remove(image)
        return False

    if backtrack(0):
        return dict(assignment)
    return None


def is_embeddable(source: nx.DiGraph, target: nx.DiGraph, bijective: bool = False) -> bool:
    """``G ↪ H``: does an order embedding exist?"""
    return find_order_embedding(source, target, bijective=bijective) is not None


def induced_placement(
    placement: MonitorPlacement, mapping: Mapping[Node, Node]
) -> MonitorPlacement:
    """``χ_f = (f ∘ χ_i, f ∘ χ_o)``: the placement induced on the target graph.

    Section 6 transfers a monitor placement along an embedding this way before
    comparing µ(G|χ) with µ(H|χ_f).
    """
    missing = [
        node for node in placement.monitor_nodes if node not in mapping
    ]
    if missing:
        raise EmbeddingError(
            f"the embedding is not defined on monitor nodes {missing!r}"
        )
    return MonitorPlacement(
        frozenset(mapping[node] for node in placement.inputs),
        frozenset(mapping[node] for node in placement.outputs),
    )


def identity_embedding(graph: nx.DiGraph) -> Dict[Node, Node]:
    """The identity mapping, an order embedding of ``G*`` into ``G`` and of
    ``G`` into ``G^k`` (used by Lemma 6.6 and Corollary 6.8)."""
    return {node: node for node in graph.nodes}


def image_subgraph(target: nx.DiGraph, mapping: Mapping[Node, Node]) -> nx.DiGraph:
    """The subgraph of ``target`` induced by the image of an embedding."""
    return target.subgraph(set(mapping.values())).copy()
