"""Lines and line-freeness (Section 3.3).

A path ``p = (u_0 u_1) ... (u_k u_{k+1})`` in an undirected graph is a *line*
when every interior node ``u_i`` (``1 <= i <= k``) has neighbourhood exactly
``{u_{i-1}, u_{i+1}}``.  If the measurement path set contains a line the
maximal identifiability drops below 1, so meaningful topologies are
*Line-Free* (LF): every node is linked to at least two other nodes.
"""

from __future__ import annotations

from typing import List

import networkx as nx

from repro._typing import AnyGraph, Path
from repro.exceptions import TopologyError
from repro.topology.base import neighbourhood, underlying_undirected


def is_line_free(graph: AnyGraph) -> bool:
    """True when every node of ``graph`` has at least two distinct neighbours.

    This is the paper's LF property.  For directed graphs the underlying
    undirected neighbourhood is used (a node with a single in-neighbour that is
    also its single out-neighbour has one neighbour, hence is not LF).
    """
    if graph.number_of_nodes() == 0:
        raise TopologyError("line-freeness of the empty graph is undefined")
    return all(len(neighbourhood(graph, node)) >= 2 for node in graph.nodes)


def is_line(graph: AnyGraph, path: Path) -> bool:
    """True when ``path`` is a line of ``graph``.

    ``path`` is given as its node sequence.  Every interior node must have
    exactly the two path-adjacent nodes as its (undirected) neighbourhood.
    A path with fewer than 3 nodes has no interior node and is vacuously a
    line only if it has at least one edge.
    """
    if len(path) < 2:
        return False
    undirected = underlying_undirected(graph)
    for u, v in zip(path, path[1:]):
        if not undirected.has_edge(u, v):
            raise TopologyError(f"({u!r}, {v!r}) is not an edge of the graph")
    for i in range(1, len(path) - 1):
        interior = path[i]
        expected = {path[i - 1], path[i + 1]}
        if set(undirected[interior]) != expected:
            return False
    return True


def find_lines(graph: AnyGraph, min_interior: int = 1) -> List[Path]:
    """Enumerate the maximal lines of ``graph`` with at least ``min_interior``
    interior nodes.

    A maximal line is a path all of whose interior nodes have degree exactly 2
    and that cannot be extended at either end while keeping that property.
    Used by the analysis layer to explain why a topology has identifiability
    below 1 and by Agrid-style heuristics to decide where extra edges help.
    """
    undirected = underlying_undirected(graph)
    degree_two = {node for node in undirected.nodes if undirected.degree(node) == 2}
    interior_subgraph = undirected.subgraph(degree_two)
    lines: List[Path] = []
    for component in nx.connected_components(interior_subgraph):
        component_graph = interior_subgraph.subgraph(component)
        endpoints = sorted(
            (n for n in component_graph if component_graph.degree(n) <= 1), key=repr
        )
        if not endpoints:
            # A cycle made entirely of degree-2 nodes has no endpoints of
            # higher degree and is not a line in the paper's sense; skip it.
            continue
        if len(endpoints) == 1:
            chain = [endpoints[0]]
        else:
            chain = nx.shortest_path(component_graph, endpoints[0], endpoints[-1])
        # Extend each end with an adjacent non-interior node, if any, so the
        # reported line is maximal.
        left_outer = sorted(
            (n for n in undirected[chain[0]] if n not in component), key=repr
        )
        if left_outer:
            chain = [left_outer[0]] + chain
        right_outer = sorted(
            (
                n
                for n in undirected[chain[-1]]
                if n not in component and n != chain[0]
            ),
            key=repr,
        )
        if right_outer:
            chain = chain + [right_outer[0]]
        interior = [n for n in chain[1:-1]]
        if len(interior) >= min_interior and all(n in degree_two for n in interior):
            lines.append(tuple(chain))
    return lines


def line_graph(n_nodes: int, directed: bool = False) -> AnyGraph:
    """A plain path graph on ``n_nodes`` nodes ``0 .. n_nodes-1``.

    The canonical example of a topology whose identifiability is 0: every
    measurement path through an interior node also crosses its neighbours.
    """
    if n_nodes < 2:
        raise TopologyError(f"a line needs at least 2 nodes, got {n_nodes}")
    graph: AnyGraph = nx.DiGraph() if directed else nx.Graph()
    graph.add_nodes_from(range(n_nodes))
    graph.add_edges_from((i, i + 1) for i in range(n_nodes - 1))
    graph.graph["name"] = f"line on {n_nodes} nodes"
    return graph
