"""Tree monitor placements: χ_t (Section 4) and monitor-balancedness (Section 5).

For a *downward* directed tree the placement χ_t puts the root in ``m`` and
every leaf in ``M``; for an *upward* tree the roles are reversed.  Theorem 4.1
shows µ(T_n|χ_t) = 1 for line-free directed trees, and the placement is
optimal: removing a single leaf monitor drops µ to 0.

For undirected trees the relevant notion is Definition 5.1: a tree is
*monitor-balanced* under χ when, for every non-leaf node ``u``, the family of
``u``-subtrees contains at least two input trees and at least two output
trees.  Lemma 5.2: if the tree is not monitor-balanced then µ < 1; Theorem
5.3: if it is, µ = 1.
"""

from __future__ import annotations

from typing import Dict

import networkx as nx

from repro._typing import Node
from repro.exceptions import MonitorPlacementError, TopologyError
from repro.monitors.placement import MonitorPlacement
from repro.topology.trees import (
    internal_nodes,
    is_downward_tree,
    is_tree,
    is_upward_tree,
    node_subtrees,
    tree_leaves,
    tree_root,
)


def chi_t(tree: nx.DiGraph) -> MonitorPlacement:
    """The placement χ_t for a downward or upward directed tree.

    Downward tree: ``m = {root}``, ``M = leaves``.
    Upward tree:   ``m = leaves``, ``M = {root}``.
    """
    if not (is_downward_tree(tree) or is_upward_tree(tree)):
        raise MonitorPlacementError(
            "chi_t requires a downward or upward directed tree"
        )
    root = tree_root(tree)
    leaves = tree_leaves(tree)
    if is_downward_tree(tree):
        placement = MonitorPlacement(frozenset({root}), leaves)
    else:
        placement = MonitorPlacement(leaves, frozenset({root}))
    placement.validate(tree)
    return placement


def chi_t_with_missing_leaf(tree: nx.DiGraph, leaf: Node) -> MonitorPlacement:
    """χ_t with the monitor on ``leaf`` removed (optimality check of Thm 4.1).

    The paper observes that dropping one leaf monitor makes {leaf's sibling}
    and {leaf's parent} inseparable, so µ falls to 0.  This helper is used by
    tests and benchmarks that verify the optimality claim.
    """
    base = chi_t(tree)
    if leaf not in tree_leaves(tree):
        raise MonitorPlacementError(f"{leaf!r} is not a leaf of the tree")
    if is_downward_tree(tree):
        outputs = base.outputs - {leaf}
        if not outputs:
            raise MonitorPlacementError("cannot remove the only output monitor")
        return MonitorPlacement(base.inputs, outputs)
    inputs = base.inputs - {leaf}
    if not inputs:
        raise MonitorPlacementError("cannot remove the only input monitor")
    return MonitorPlacement(inputs, base.outputs)


def is_input_tree(subtree: nx.Graph, placement: MonitorPlacement) -> bool:
    """True when ``subtree`` contains a node of ``m`` (an *input tree*)."""
    return any(node in placement.inputs for node in subtree.nodes)


def is_output_tree(subtree: nx.Graph, placement: MonitorPlacement) -> bool:
    """True when ``subtree`` contains a node of ``M`` (an *output tree*)."""
    return any(node in placement.outputs for node in subtree.nodes)


def is_monitor_balanced(tree: nx.Graph, placement: MonitorPlacement) -> bool:
    """Definition 5.1: every non-leaf node's subtree family contains at least
    two input trees and at least two output trees.

    Only defined for undirected trees.
    """
    if tree.is_directed():
        raise TopologyError("monitor-balancedness is defined for undirected trees")
    if not is_tree(tree):
        raise TopologyError("is_monitor_balanced requires a tree")
    placement.validate(tree)
    for node in internal_nodes(tree):
        subtrees = node_subtrees(tree, node)
        input_count = sum(
            1 for sub in subtrees.values() if is_input_tree(sub, placement)
        )
        output_count = sum(
            1 for sub in subtrees.values() if is_output_tree(sub, placement)
        )
        if input_count < 2 or output_count < 2:
            return False
    return True


def unbalanced_witness(
    tree: nx.Graph, placement: MonitorPlacement
) -> Dict[str, object]:
    """Return a witness of non-balancedness, or an empty dict if balanced.

    The witness mirrors the three cases of Lemma 5.2 / Figure 7: the internal
    node ``u`` whose subtree family has fewer than two input trees or fewer
    than two output trees, together with the counts.
    """
    if tree.is_directed():
        raise TopologyError("monitor-balancedness is defined for undirected trees")
    placement.validate(tree)
    for node in internal_nodes(tree):
        subtrees = node_subtrees(tree, node)
        input_count = sum(
            1 for sub in subtrees.values() if is_input_tree(sub, placement)
        )
        output_count = sum(
            1 for sub in subtrees.values() if is_output_tree(sub, placement)
        )
        if input_count < 2 or output_count < 2:
            return {
                "node": node,
                "input_trees": input_count,
                "output_trees": output_count,
                "n_subtrees": len(subtrees),
            }
    return {}


def balanced_leaf_placement(tree: nx.Graph) -> MonitorPlacement:
    """Construct a monitor-balanced placement on an undirected tree when possible.

    Strategy: alternate the leaves (in a deterministic order given by a DFS
    from an arbitrary root) between ``m`` and ``M``.  On line-free trees whose
    every internal node has at least two leaf-bearing subtrees on each side
    this yields a balanced placement; when the alternation fails to balance
    the tree a :class:`MonitorPlacementError` is raised with the witness node,
    reflecting the structural limit stated by Lemma 5.2.
    """
    if tree.is_directed():
        raise TopologyError("balanced_leaf_placement requires an undirected tree")
    if not is_tree(tree):
        raise TopologyError("balanced_leaf_placement requires a tree")
    leaves = [node for node in tree.nodes if tree.degree(node) == 1]
    if len(leaves) < 4:
        raise MonitorPlacementError(
            "a monitor-balanced placement needs at least 4 leaves"
        )
    # Deterministic order: DFS preorder from the smallest-repr node.
    root = min(tree.nodes, key=repr)
    order = list(nx.dfs_preorder_nodes(tree, root))
    ordered_leaves = [node for node in order if tree.degree(node) == 1]
    inputs = frozenset(ordered_leaves[0::2])
    outputs = frozenset(ordered_leaves[1::2])
    placement = MonitorPlacement(inputs, outputs)
    witness = unbalanced_witness(tree, placement)
    if witness:
        raise MonitorPlacementError(
            "could not balance the tree by alternating leaves; "
            f"witness node {witness['node']!r} has {witness['input_trees']} input "
            f"trees and {witness['output_trees']} output trees"
        )
    return placement
