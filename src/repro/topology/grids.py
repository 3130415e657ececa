"""Hypergrid topologies ``H_{n,d}`` (Section 2, "Topologies").

The *directed hypergrid of dimension d over support [n]* has vertex set
``[n]^d`` (coordinates are 1-based, matching the paper) and a directed edge
from ``x`` to ``y`` whenever ``y`` increases exactly one coordinate of ``x``
by one.  The undirected hypergrid connects nodes at L1 distance one.  The
2-dimensional grid over support ``n`` is written ``H_n``.

The module also exposes the border structure (``∂_i`` and border nodes) used
by the grid monitor placement χ_g and by the undirected lower-bound argument
of Theorem 5.4.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Tuple

import networkx as nx

from repro.exceptions import TopologyError

GridNode = Tuple[int, ...]

#: Minimal support allowed by the paper's theorems ("we always assume n >= 3").
MIN_SUPPORT = 2


def _validate(n: int, d: int) -> None:
    if d < 1:
        raise TopologyError(f"hypergrid dimension must be >= 1, got d={d}")
    if n < MIN_SUPPORT:
        raise TopologyError(f"hypergrid support must be >= {MIN_SUPPORT}, got n={n}")


def grid_nodes(n: int, d: int) -> Iterator[GridNode]:
    """Iterate over the vertex set ``[n]^d`` in lexicographic order."""
    _validate(n, d)
    return itertools.product(range(1, n + 1), repeat=d)


def directed_hypergrid(n: int, d: int) -> nx.DiGraph:
    """Build the directed hypergrid ``H_{n,d}``.

    Edges go from ``x`` to ``y`` when ``y_i - x_i = 1`` for exactly one
    coordinate ``i`` and all other coordinates agree (Section 2).

    >>> H = directed_hypergrid(3, 2)
    >>> H.number_of_nodes(), H.number_of_edges()
    (9, 12)
    """
    _validate(n, d)
    graph = nx.DiGraph(name=f"H_{{{n},{d}}} (directed)")
    graph.add_nodes_from(grid_nodes(n, d))
    for node in grid_nodes(n, d):
        for i in range(d):
            if node[i] < n:
                successor = node[:i] + (node[i] + 1,) + node[i + 1 :]
                graph.add_edge(node, successor)
    graph.graph["support"] = n
    graph.graph["dimension"] = d
    return graph


def undirected_hypergrid(n: int, d: int) -> nx.Graph:
    """Build the undirected hypergrid ``H_{n,d}``.

    Nodes ``x`` and ``y`` are adjacent when ``|x_i - y_i| = 1`` for exactly one
    coordinate and all others agree.
    """
    _validate(n, d)
    graph = nx.Graph(name=f"H_{{{n},{d}}} (undirected)")
    graph.add_nodes_from(grid_nodes(n, d))
    for node in grid_nodes(n, d):
        for i in range(d):
            if node[i] < n:
                neighbour = node[:i] + (node[i] + 1,) + node[i + 1 :]
                graph.add_edge(node, neighbour)
    graph.graph["support"] = n
    graph.graph["dimension"] = d
    return graph


def directed_grid(n: int) -> nx.DiGraph:
    """The 2-dimensional directed grid ``H_n`` over support ``n`` (Figure 1)."""
    return directed_hypergrid(n, 2)


def undirected_grid(n: int) -> nx.Graph:
    """The 2-dimensional undirected grid ``H_n``."""
    return undirected_hypergrid(n, 2)


def grid_parameters(graph: nx.Graph | nx.DiGraph) -> Tuple[int, int]:
    """Recover ``(n, d)`` from a hypergrid built by this module.

    Raises :class:`TopologyError` if the graph was not built by this module
    (the parameters are stored as graph attributes at construction time and
    revalidated against the node count here).
    """
    try:
        n = graph.graph["support"]
        d = graph.graph["dimension"]
    except KeyError as exc:
        raise TopologyError(
            "graph does not carry hypergrid metadata; build it with "
            "directed_hypergrid/undirected_hypergrid"
        ) from exc
    if graph.number_of_nodes() != n**d:
        raise TopologyError("hypergrid metadata is inconsistent with the node count")
    return n, d


def boundary(graph: nx.Graph | nx.DiGraph, axis: int) -> frozenset:
    """``∂_i``: the nodes whose ``axis``-th coordinate equals 1 (Section 2)."""
    n, d = grid_parameters(graph)
    if not 0 <= axis < d:
        raise TopologyError(f"axis must be in [0, {d}), got {axis}")
    return frozenset(node for node in graph.nodes if node[axis] == 1)


def border_nodes(graph: nx.Graph | nx.DiGraph) -> frozenset:
    """Nodes lying on any face of the hypergrid (coordinate 1 or ``n``)."""
    n, d = grid_parameters(graph)
    return frozenset(
        node for node in graph.nodes if any(c == 1 or c == n for c in node)
    )


def corner_nodes(graph: nx.Graph | nx.DiGraph) -> frozenset:
    """The ``2^d`` corners of the hypergrid (every coordinate is 1 or ``n``)."""
    n, d = grid_parameters(graph)
    return frozenset(
        node for node in graph.nodes if all(c == 1 or c == n for c in node)
    )


def is_internal(graph: nx.Graph | nx.DiGraph, node: GridNode) -> bool:
    """True when ``node`` is not a border node of the hypergrid."""
    if node not in graph:
        raise TopologyError(f"{node!r} is not a node of the hypergrid")
    return node not in border_nodes(graph)


def expected_mu_directed(d: int) -> int:
    """Maximal identifiability of the directed ``H_{n,d}`` under χ_g.

    Theorem 4.8 (d = 2) and Theorem 4.9 (d > 2): µ(H_{n,d}|χ_g) = d for
    n >= 3.  Dimension 1 is a directed line whose identifiability is 0.
    """
    if d < 1:
        raise TopologyError(f"dimension must be >= 1, got {d}")
    return d if d >= 2 else 0


def expected_mu_undirected_bounds(d: int) -> Tuple[int, int]:
    """Bounds for the undirected ``H_{n,d}`` with any 2d-monitor placement.

    Theorem 5.4: ``d - 1 <= µ(H_{n,d}|χ) <= d`` for n >= 3 and any monitor
    placement χ using 2d monitors, under CSP or CAP⁻ routing.
    """
    if d < 1:
        raise TopologyError(f"dimension must be >= 1, got {d}")
    return max(d - 1, 0), d


def monitor_count_directed(n: int, d: int) -> int:
    """Number of monitors quoted by the paper's abstract for directed ``H_{n,d}``.

    The abstract states 2d(n-1) + 2 monitors; for d = 2 this equals the
    4n - 2 of Section 4.1 and matches the face placement χ_g exactly.  For
    d > 2 the face placement actually used by the library (and needed for
    Lemma 3.4 to give δ̂ = d) attaches 2·(n^d − (n−1)^d) monitors; this
    function keeps returning the abstract's formula so the discrepancy is
    visible and testable (see EXPERIMENTS.md).
    """
    _validate(n, d)
    return 2 * d * (n - 1) + 2
