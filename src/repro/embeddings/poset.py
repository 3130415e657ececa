"""DAGs as posets (Section 2, "Embeddings", and Section 6).

Every DAG ``G`` is equivalent to the poset of its nodes under reachability:
``u ⪯_G v`` iff ``v`` is reachable from ``u``.  The embedding results of
Section 6 are stated in this language, so the module provides the reachability
order, comparability tests, transitive closures, graph powers (``G^k``,
Corollary 6.8) and the routing-consistency property (Definition 6.1) used by
Theorem 6.2.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Tuple

import networkx as nx

from repro._typing import Node
from repro.exceptions import EmbeddingError, TopologyError
from repro.routing.paths import PathSet
from repro.topology.base import require_dag


def reachability_order(graph: nx.DiGraph) -> Dict[Node, FrozenSet[Node]]:
    """Map every node ``u`` to the set ``{v : u ⪯ v}`` (including ``u`` itself)."""
    require_dag(graph)
    order: Dict[Node, FrozenSet[Node]] = {}
    for node in graph.nodes:
        order[node] = frozenset(nx.descendants(graph, node)) | {node}
    return order


def leq(graph: nx.DiGraph, first: Node, second: Node) -> bool:
    """``first ⪯_G second``: is ``second`` reachable from ``first``?"""
    require_dag(graph)
    if first not in graph or second not in graph:
        raise TopologyError("both nodes must belong to the graph")
    if first == second:
        return True
    return nx.has_path(graph, first, second)


def strictly_less(graph: nx.DiGraph, first: Node, second: Node) -> bool:
    """``first ≺_G second``."""
    return first != second and leq(graph, first, second)


def comparable(graph: nx.DiGraph, first: Node, second: Node) -> bool:
    """Comparability in the reachability order."""
    return leq(graph, first, second) or leq(graph, second, first)


def incomparable_pairs(graph: nx.DiGraph) -> Tuple[Tuple[Node, Node], ...]:
    """All *ordered* incomparable pairs ``(u, v)`` of the reachability poset.

    These are the "critical pairs" the order-dimension search must reverse.
    """
    order = reachability_order(graph)
    nodes = sorted(graph.nodes, key=repr)
    pairs: List[Tuple[Node, Node]] = []
    for u in nodes:
        for v in nodes:
            if u == v:
                continue
            if v not in order[u] and u not in order[v]:
                pairs.append((u, v))
    return tuple(pairs)


def transitive_closure(graph: nx.DiGraph) -> nx.DiGraph:
    """``G*``: the transitive closure of a DAG (Lemma 6.6)."""
    require_dag(graph)
    closure = nx.transitive_closure_dag(graph)
    closure.graph.update(graph.graph)
    closure.graph["name"] = f"{graph.name or 'G'}*"
    return closure


def is_transitively_closed(graph: nx.DiGraph) -> bool:
    """True when ``G`` equals its transitive closure (needed by Theorem 6.7)."""
    require_dag(graph)
    for node in graph.nodes:
        descendants = nx.descendants(graph, node)
        if descendants != set(graph.successors(node)):
            return False
    return True


def graph_power(graph: nx.DiGraph, k: int) -> nx.DiGraph:
    """``G^k``: edges between nodes at directed distance at most ``k``.

    Used by Corollary 6.8 — adding shortcut edges (as a k-transitive-closure
    spanner does) can only increase maximal identifiability.
    """
    require_dag(graph)
    if k < 1:
        raise EmbeddingError(f"k must be >= 1, got {k}")
    power = nx.DiGraph()
    power.add_nodes_from(graph.nodes(data=True))
    lengths = dict(nx.all_pairs_shortest_path_length(graph, cutoff=k))
    for source, targets in lengths.items():
        for target, distance in targets.items():
            if 1 <= distance <= k:
                power.add_edge(source, target)
    power.graph.update(graph.graph)
    power.graph["name"] = f"{graph.name or 'G'}^{k}"
    return power


def linear_extension(graph: nx.DiGraph, reversed_pairs: Iterable[Tuple[Node, Node]] = ()) -> Tuple[Node, ...]:
    """A linear extension of the reachability order.

    ``reversed_pairs`` is a collection of ordered incomparable pairs ``(u, v)``
    that the extension must *reverse* (place ``v`` before ``u``).  Raises
    :class:`EmbeddingError` if the constraints are cyclic.
    """
    require_dag(graph)
    constrained = nx.DiGraph()
    constrained.add_nodes_from(graph.nodes)
    constrained.add_edges_from(graph.edges)
    for u, v in reversed_pairs:
        constrained.add_edge(v, u)
    if not nx.is_directed_acyclic_graph(constrained):
        raise EmbeddingError("the requested reversed pairs are not simultaneously realisable")
    # Deterministic topological sort (lexicographic tie-break on repr).
    return tuple(nx.lexicographical_topological_sort(constrained, key=repr))


def distance(graph: nx.DiGraph, first: Node, second: Node) -> float:
    """``d_G(u, v)``: length of the shortest path, ``inf`` when unreachable.

    The distance-increasing / distance-preserving embedding definitions of
    Section 6 compare these quantities across graphs.
    """
    if first not in graph or second not in graph:
        raise TopologyError("both nodes must belong to the graph")
    try:
        return float(nx.shortest_path_length(graph, first, second))
    except nx.NetworkXNoPath:
        return float("inf")


def is_routing_consistent(pathset: PathSet) -> bool:
    """Definition 6.1: any two paths sharing two nodes follow the same subpath
    between them.

    The check is quadratic in the number of paths and linear in their length;
    it is used by Theorem 6.2 which only applies to routing-consistent sets.
    """
    indexed: List[Dict[Node, int]] = []
    for path in pathset.paths:
        positions: Dict[Node, int] = {}
        for position, node in enumerate(path):
            # Paths with repeated nodes (CAP cycles) index the first visit.
            positions.setdefault(node, position)
        indexed.append(positions)
    paths = pathset.paths
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            common = set(indexed[i]) & set(indexed[j])
            if len(common) < 2:
                continue
            for u in common:
                for w in common:
                    if u is w:
                        continue
                    iu, iw = indexed[i][u], indexed[i][w]
                    ju, jw = indexed[j][u], indexed[j][w]
                    if iu < iw and ju < jw:
                        if paths[i][iu : iw + 1] != paths[j][ju : jw + 1]:
                            return False
    return True


def routing_consistent_graph(graph: nx.DiGraph) -> bool:
    """A sufficient structural condition for routing consistency: between any
    ordered node pair there is at most one directed path.

    Trees and in-/out-branchings satisfy it; grids do not.  Provided as a
    cheap pre-check before enumerating the full path set.
    """
    require_dag(graph)
    order = list(nx.topological_sort(graph))
    for source in graph.nodes:
        # Count directed paths from ``source`` by dynamic programming over a
        # topological order; more than one path to any node breaks consistency.
        counts: Dict[Node, int] = {node: 0 for node in graph.nodes}
        counts[source] = 1
        for node in order:
            if counts[node] == 0:
                continue
            for successor in graph.successors(node):
                counts[successor] += counts[node]
                if counts[successor] > 1:
                    return False
    return True
