"""Theorem 4.1 and Theorem 5.3/Lemma 5.2 — trees have µ = 1 (or 0 if the
monitor placement is not balanced).

The benchmark measures the exact computation on directed (χ_t) and undirected
(monitor-balanced) trees and asserts the tight values.
"""

from __future__ import annotations

from conftest import exact_mu, run_once

from repro.monitors.placement import MonitorPlacement
from repro.monitors.tree_placement import balanced_leaf_placement, chi_t, chi_t_with_missing_leaf
from repro.topology.trees import complete_kary_tree, tree_leaves


def _run_tree_suite() -> dict:
    results = {}
    downward = complete_kary_tree(depth=3, arity=2)
    results["directed_downward"] = exact_mu(downward, chi_t(downward))
    upward = complete_kary_tree(depth=2, arity=3, direction="up")
    results["directed_upward"] = exact_mu(upward, chi_t(upward))
    # Optimality: drop one leaf monitor.
    leaf = sorted(tree_leaves(downward))[0]
    results["directed_missing_leaf"] = exact_mu(downward, chi_t_with_missing_leaf(downward, leaf))
    # Undirected, monitor-balanced.
    undirected = complete_kary_tree(depth=3, arity=2).to_undirected()
    results["undirected_balanced"] = exact_mu(undirected, balanced_leaf_placement(undirected))
    # Undirected, unbalanced (all inputs in one subtree).
    small = complete_kary_tree(depth=2, arity=2).to_undirected()
    unbalanced = MonitorPlacement.of(inputs={"00", "01"}, outputs={"10", "11"})
    results["undirected_unbalanced"] = exact_mu(small, unbalanced)
    return results


def test_theorem_trees(benchmark):
    results = run_once(benchmark, _run_tree_suite)

    assert results["directed_downward"] == 1   # Theorem 4.1
    assert results["directed_upward"] == 1     # Theorem 4.1 (upward case)
    assert results["directed_missing_leaf"] == 0  # optimality of chi_t
    assert results["undirected_balanced"] == 1    # Theorem 5.3
    assert results["undirected_unbalanced"] == 0  # Lemma 5.2

    benchmark.extra_info["experiment"] = "Theorems 4.1 / 5.3, Lemma 5.2 (trees)"
    benchmark.extra_info["measured"] = results
