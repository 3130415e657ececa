"""Theory oracle: the µ values and bounds the paper predicts for each topology.

The benchmark harness compares exact computed values against these
predictions; EXPERIMENTS.md records the comparison.  Every entry cites the
theorem it encodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import networkx as nx

from repro._typing import AnyGraph
from repro.exceptions import TopologyError
from repro.monitors.placement import MonitorPlacement
from repro.monitors.tree_placement import is_monitor_balanced
from repro.topology.grids import grid_parameters
from repro.topology.trees import is_downward_tree, is_line_free_tree, is_tree, is_upward_tree


@dataclass(frozen=True)
class Prediction:
    """A predicted range ``[lower, upper]`` for µ with its provenance.

    ``lower == upper`` encodes an exact prediction (a tight bound).
    """

    lower: int
    upper: int
    theorem: str

    @property
    def exact(self) -> Optional[int]:
        return self.lower if self.lower == self.upper else None

    def contains(self, value: int) -> bool:
        """Whether a measured µ is consistent with the prediction."""
        return self.lower <= value <= self.upper


def predicted_mu_directed_tree(tree: nx.DiGraph) -> Prediction:
    """Theorem 4.1: line-free directed trees under χ_t have µ = 1."""
    if not (is_downward_tree(tree) or is_upward_tree(tree)):
        raise TopologyError("expected a downward or upward directed tree")
    if not is_line_free_tree(tree):
        raise TopologyError("Theorem 4.1 assumes a line-free tree")
    return Prediction(lower=1, upper=1, theorem="Theorem 4.1")


def predicted_mu_directed_hypergrid(grid: nx.DiGraph) -> Prediction:
    """Theorems 4.8 / 4.9: directed H_{n,d} under χ_g has µ = d (n ≥ 3)."""
    n, d = grid_parameters(grid)
    if not grid.is_directed():
        raise TopologyError("expected a directed hypergrid")
    if n < 3:
        raise TopologyError("Theorems 4.8/4.9 require support n >= 3")
    if d < 2:
        raise TopologyError("Theorems 4.8/4.9 require dimension d >= 2")
    theorem = "Theorem 4.8" if d == 2 else "Theorem 4.9"
    return Prediction(lower=d, upper=d, theorem=theorem)


def predicted_mu_undirected_tree(
    tree: nx.Graph, placement: MonitorPlacement
) -> Prediction:
    """Lemma 5.2 / Theorem 5.3: undirected trees have µ = 1 iff monitor-balanced."""
    if tree.is_directed() or not is_tree(tree):
        raise TopologyError("expected an undirected tree")
    if is_monitor_balanced(tree, placement):
        return Prediction(lower=1, upper=1, theorem="Theorem 5.3")
    return Prediction(lower=0, upper=0, theorem="Lemma 5.2")


def predicted_mu_undirected_hypergrid(grid: nx.Graph) -> Prediction:
    """Theorem 5.4: undirected H_{n,d} with any 2d-monitor placement has
    d − 1 ≤ µ ≤ d (n ≥ 3)."""
    n, d = grid_parameters(grid)
    if grid.is_directed():
        raise TopologyError("expected an undirected hypergrid")
    if n < 3:
        raise TopologyError("Theorem 5.4 requires support n >= 3")
    return Prediction(lower=max(d - 1, 0), upper=d, theorem="Theorem 5.4")


def predicted_mu_line(n_nodes: int) -> Prediction:
    """Section 3.3: a topology that is a line has µ < 1, i.e. µ = 0."""
    if n_nodes < 2:
        raise TopologyError("a line needs at least 2 nodes")
    return Prediction(lower=0, upper=0, theorem="Section 3.3 (lines)")


def predicted_design_bounds(dimension: int) -> Prediction:
    """Section 7 design rule: the designed H_{n,d} guarantees d − 1 ≤ µ ≤ d."""
    if dimension < 1:
        raise TopologyError("dimension must be >= 1")
    return Prediction(
        lower=max(dimension - 1, 0), upper=dimension, theorem="Section 7 / Theorem 5.4"
    )


def predict(graph: AnyGraph, placement: Optional[MonitorPlacement] = None) -> Optional[Prediction]:
    """Best applicable prediction for a graph, or ``None`` when no theorem applies.

    Dispatches on the topology type: hypergrids (directed/undirected), directed
    trees, undirected trees with a placement.  General graphs return ``None`` —
    for those only the Section 3 upper bounds apply (see
    :func:`repro.core.bounds.structural_upper_bound`).
    """
    if "support" in graph.graph and "dimension" in graph.graph:
        if graph.is_directed():
            try:
                return predicted_mu_directed_hypergrid(graph)
            except TopologyError:
                return None
        try:
            return predicted_mu_undirected_hypergrid(graph)
        except TopologyError:
            return None
    if graph.is_directed() and (is_downward_tree(graph) or is_upward_tree(graph)):
        try:
            return predicted_mu_directed_tree(graph)
        except TopologyError:
            return None
    if not graph.is_directed() and is_tree(graph) and placement is not None:
        return predicted_mu_undirected_tree(graph, placement)
    return None
