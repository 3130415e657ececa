"""Section 6 — identifiability through embeddings and order dimension.

Covers Theorem 6.2 (routing-consistent source), Theorem 6.4 / Corollary 6.5
(distance-increasing / preserving embeddings), Theorem 6.7 (µ ≥ dim for
transitively closed DAGs) and Corollary 6.8 (transitive closure never hurts),
all evaluated exactly on small DAG instances.
"""

from __future__ import annotations

import networkx as nx
from conftest import exact_mu, run_once

from repro.embeddings.dimension import order_dimension
from repro.embeddings.embedding import find_order_embedding, identity_embedding
from repro.embeddings.poset import transitive_closure
from repro.embeddings.theorems import compare_under_embedding, theorem_6_7_report
from repro.monitors.grid_placement import chi_g
from repro.monitors.placement import MonitorPlacement
from repro.monitors.tree_placement import chi_t
from repro.topology.grids import directed_grid, directed_hypergrid
from repro.topology.trees import complete_kary_tree


def _run_embedding_suite() -> dict:
    results = {}

    # Theorem 6.4 / Corollary 6.5: diamond -> H_3 (distance increasing).
    diamond = nx.DiGraph([("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])
    grid = directed_hypergrid(3, 2)
    mapping = find_order_embedding(diamond, grid)
    placement = MonitorPlacement.of(inputs={"s"}, outputs={"t"})
    comparison = compare_under_embedding(diamond, grid, mapping, placement)
    results["thm_6_4_holds"] = comparison.theorem_6_4_holds
    results["cor_6_5_holds"] = comparison.corollary_6_5_holds

    # Theorem 6.2: a routing-consistent tree embedded (identity) into its
    # transitive closure.
    tree = complete_kary_tree(depth=2, arity=2)
    closure = transitive_closure(tree)
    tree_comparison = compare_under_embedding(
        tree, closure, identity_embedding(tree), chi_t(tree)
    )
    results["thm_6_2_applicable"] = tree_comparison.routing_consistent_source
    results["thm_6_2_holds"] = tree_comparison.theorem_6_2_holds

    # Theorem 6.7 and Corollary 6.8 on the closure of the directed grid H_3.
    h3 = directed_grid(3)
    h3_closure = transitive_closure(h3)
    report = theorem_6_7_report(h3_closure, chi_g(h3))
    results["thm_6_7_mu"] = report.mu_value
    results["thm_6_7_dim"] = report.dimension
    results["thm_6_7_holds"] = report.holds
    results["cor_6_8_holds"] = report.mu_value >= exact_mu(h3, chi_g(h3))

    # Order dimension of reference posets.
    results["dim_diamond"] = order_dimension(diamond)
    results["dim_grid_closure"] = order_dimension(h3_closure)
    return results


def test_embeddings_and_dimension(benchmark):
    results = run_once(benchmark, _run_embedding_suite)

    assert results["thm_6_4_holds"]
    assert results["cor_6_5_holds"]
    assert results["thm_6_2_applicable"] and results["thm_6_2_holds"]
    assert results["thm_6_7_holds"] and results["thm_6_7_mu"] >= results["thm_6_7_dim"]
    assert results["cor_6_8_holds"]
    assert results["dim_diamond"] == 2
    assert results["dim_grid_closure"] == 2

    benchmark.extra_info["experiment"] = "Section 6 (embeddings, dimension)"
    benchmark.extra_info["measured"] = results
