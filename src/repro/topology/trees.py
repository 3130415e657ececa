"""Tree topologies (Sections 4 and 5).

The paper considers three flavours of trees:

* *downward* directed rooted trees ``T_n``: the root is the only source node
  and the leaves the only targets (every node has in-degree at most 1);
* *upward* directed rooted trees: the mirror image (out-degree at most 1);
* undirected trees, where the monitor placement must be *monitor-balanced*
  (Definition 5.1) for the identifiability to be positive.

Builders in this module produce deterministic example trees (complete k-ary
trees, "caterpillar" trees, random trees) plus predicates used by the theorem
checks (line-freeness for trees, downward/upward classification, subtree
decomposition used by Definition 5.1).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

import networkx as nx

from repro._typing import AnyGraph, Node
from repro.exceptions import TopologyError
from repro.topology.base import sinks, sources
from repro.utils.seeds import RngLike, resolve_rng


def complete_kary_tree(depth: int, arity: int, direction: str = "down") -> nx.DiGraph:
    """Directed complete ``arity``-ary tree of the given ``depth``.

    ``direction='down'`` builds a downward tree (edges point away from the
    root); ``direction='up'`` reverses every edge.  Nodes are labelled by the
    string of child indices from the root, e.g. ``''`` (root), ``'0'``,
    ``'01'``...

    >>> t = complete_kary_tree(2, 2)
    >>> sorted(t.nodes)
    ['', '0', '00', '01', '1', '10', '11']
    """
    if depth < 1:
        raise TopologyError(f"tree depth must be >= 1, got {depth}")
    if arity < 2:
        raise TopologyError(
            f"tree arity must be >= 2 for a line-free tree, got {arity}"
        )
    if direction not in {"down", "up"}:
        raise TopologyError(f"direction must be 'down' or 'up', got {direction!r}")
    graph = nx.DiGraph(name=f"complete {arity}-ary tree, depth {depth} ({direction})")
    frontier = [""]
    graph.add_node("")
    for _ in range(depth):
        next_frontier = []
        for parent in frontier:
            for child_index in range(arity):
                child = parent + str(child_index)
                if direction == "down":
                    graph.add_edge(parent, child)
                else:
                    graph.add_edge(child, parent)
                next_frontier.append(child)
        frontier = next_frontier
    graph.graph["root"] = ""
    graph.graph["direction"] = direction
    return graph


def random_tree(
    n_nodes: int, rng: RngLike = None, direction: Optional[str] = "down"
) -> AnyGraph:
    """Random labelled tree over ``n_nodes`` nodes ``0 .. n_nodes-1``.

    Built by attaching node ``i`` to a uniformly random earlier node (a random
    recursive tree).  ``direction=None`` returns an undirected tree, otherwise
    a downward (``'down'``) or upward (``'up'``) orientation rooted at 0.
    """
    if n_nodes < 2:
        raise TopologyError(f"a tree needs at least 2 nodes, got {n_nodes}")
    generator = resolve_rng(rng)
    edges = [(generator.randrange(i), i) for i in range(1, n_nodes)]
    if direction is None:
        graph: AnyGraph = nx.Graph(name=f"random tree on {n_nodes} nodes")
        graph.add_nodes_from(range(n_nodes))
        graph.add_edges_from(edges)
        return graph
    if direction not in {"down", "up"}:
        raise TopologyError(f"direction must be 'down', 'up' or None, got {direction!r}")
    digraph = nx.DiGraph(name=f"random {direction}ward tree on {n_nodes} nodes")
    digraph.add_nodes_from(range(n_nodes))
    for parent, child in edges:
        if direction == "down":
            digraph.add_edge(parent, child)
        else:
            digraph.add_edge(child, parent)
    digraph.graph["root"] = 0
    digraph.graph["direction"] = direction
    return digraph


def is_tree(graph: AnyGraph) -> bool:
    """True when ``graph`` is a tree (of its own directedness flavour)."""
    if graph.number_of_nodes() == 0:
        return False
    if graph.is_directed():
        return nx.is_tree(graph.to_undirected(as_view=True)) and nx.is_directed_acyclic_graph(graph)
    return nx.is_tree(graph)


def is_downward_tree(graph: nx.DiGraph) -> bool:
    """True for a directed tree whose root is the only source (``Δ_i <= 1``)."""
    if not graph.is_directed() or not is_tree(graph):
        return False
    return max(d for _, d in graph.in_degree()) <= 1 and len(sources(graph)) == 1


def is_upward_tree(graph: nx.DiGraph) -> bool:
    """True for a directed tree whose root is the only sink (``Δ_o <= 1``)."""
    if not graph.is_directed() or not is_tree(graph):
        return False
    return max(d for _, d in graph.out_degree()) <= 1 and len(sinks(graph)) == 1


def tree_root(graph: nx.DiGraph) -> Node:
    """Root of a downward or upward directed tree."""
    if is_downward_tree(graph):
        (root,) = sources(graph)
        return root
    if is_upward_tree(graph):
        (root,) = sinks(graph)
        return root
    raise TopologyError("graph is not a downward or upward directed tree")


def tree_leaves(graph: nx.DiGraph) -> FrozenSet[Node]:
    """Leaves of a downward (sinks) or upward (sources) directed tree."""
    if is_downward_tree(graph):
        return sinks(graph)
    if is_upward_tree(graph):
        return sources(graph)
    raise TopologyError("graph is not a downward or upward directed tree")


def is_line_free_tree(graph: AnyGraph) -> bool:
    """Line-free check specialised to trees.

    Theorem 4.1 assumes the tree is line-free, i.e. every internal node has
    branching at least 2 (in the directed case: in-degree >= 2 or out-degree
    >= 2; in the undirected case: no internal node of degree exactly 2).
    """
    if not is_tree(graph):
        raise TopologyError("is_line_free_tree requires a tree")
    if graph.is_directed():
        for node in graph.nodes:
            indeg = graph.in_degree(node)
            outdeg = graph.out_degree(node)
            if indeg + outdeg >= 2 and indeg < 2 and outdeg < 2:
                # An internal node with exactly one parent and one child forms
                # a line segment.
                if indeg == 1 and outdeg == 1:
                    return False
        return True
    return all(graph.degree(node) != 2 for node in graph.nodes)


def subtree_after_cut(tree: nx.Graph, keep: Node, cut: Node) -> nx.Graph:
    """``T^{(keep,cut)}(keep)``: the component of ``tree - (keep, cut)`` containing ``keep``.

    This is the subtree notation of Section 5 used to define monitor-balanced
    trees: cutting the edge ``(keep, cut)`` splits the tree in two; the
    returned subgraph is the side rooted at ``keep``.
    """
    if tree.is_directed():
        raise TopologyError("subtree_after_cut operates on undirected trees")
    if not tree.has_edge(keep, cut):
        raise TopologyError(f"({keep!r}, {cut!r}) is not an edge of the tree")
    pruned = tree.copy()
    pruned.remove_edge(keep, cut)
    component = nx.node_connected_component(pruned, keep)
    return tree.subgraph(component).copy()


def node_subtrees(tree: nx.Graph, node: Node) -> Dict[Node, nx.Graph]:
    """The family ``{T^{(w,node)}(w)}_{w in N(node)}`` of ``node``-subtrees."""
    if tree.is_directed():
        raise TopologyError("node_subtrees operates on undirected trees")
    if node not in tree:
        raise TopologyError(f"{node!r} is not a node of the tree")
    return {
        neighbour: subtree_after_cut(tree, neighbour, node)
        for neighbour in tree.neighbors(node)
    }


def internal_nodes(tree: AnyGraph) -> FrozenSet[Node]:
    """Non-leaf nodes of a tree (degree >= 2 in the undirected sense)."""
    undirected = tree.to_undirected(as_view=True) if tree.is_directed() else tree
    return frozenset(node for node in undirected.nodes if undirected.degree(node) >= 2)


def caterpillar_tree(spine: int, legs: int = 2) -> nx.Graph:
    """Undirected caterpillar: a path of ``spine`` nodes, each with ``legs`` leaves.

    Caterpillars are the quintessential "quasi-tree" access-network shape the
    paper's experimental section mentions (real topologies are "trees,
    quasi-trees or grids"); they are used by the tests and examples to exercise
    the monitor-balanced machinery.
    """
    if spine < 1:
        raise TopologyError(f"spine length must be >= 1, got {spine}")
    if legs < 1:
        raise TopologyError(f"legs per spine node must be >= 1, got {legs}")
    graph = nx.Graph(name=f"caterpillar({spine},{legs})")
    for i in range(spine):
        graph.add_node(("s", i))
        if i > 0:
            graph.add_edge(("s", i - 1), ("s", i))
        for j in range(legs):
            graph.add_edge(("s", i), ("l", i, j))
    return graph
