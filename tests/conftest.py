"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
from typing import ContextManager

import networkx as nx
import pytest

from repro.monitors import MonitorPlacement, chi_corners, chi_g, chi_t, mdmp_placement
from repro.routing import RoutingMechanism, enumerate_paths
from repro.topology import (
    claranet,
    complete_kary_tree,
    directed_grid,
    directed_hypergrid,
    undirected_grid,
    undirected_hypergrid,
)

from oracles import reference_columns


@pytest.fixture(scope="session")
def directed_grid_4() -> nx.DiGraph:
    """The directed 4x4 grid H_4 (Figure 1 / Figure 5)."""
    return directed_grid(4)


@pytest.fixture(scope="session")
def directed_grid_3() -> nx.DiGraph:
    """The directed 3x3 grid H_3 (smallest grid covered by the theorems)."""
    return directed_grid(3)


@pytest.fixture(scope="session")
def undirected_grid_3() -> nx.Graph:
    """The undirected 3x3 grid."""
    return undirected_grid(3)


@pytest.fixture(scope="session")
def hypergrid_333() -> nx.DiGraph:
    """The directed 3-dimensional hypergrid H_{3,3}."""
    return directed_hypergrid(3, 3)


@pytest.fixture(scope="session")
def binary_tree() -> nx.DiGraph:
    """A depth-3 downward binary tree (line-free)."""
    return complete_kary_tree(depth=3, arity=2)


@pytest.fixture(scope="session")
def upward_binary_tree() -> nx.DiGraph:
    """A depth-2 upward binary tree."""
    return complete_kary_tree(depth=2, arity=2, direction="up")


@pytest.fixture(scope="session")
def claranet_graph() -> nx.Graph:
    """The Claranet zoo stand-in (15 nodes)."""
    return claranet()


@pytest.fixture(scope="session")
def grid4_pathset(directed_grid_4):
    """CSP paths of H_4 under chi_g (shared: expensive to enumerate)."""
    return enumerate_paths(directed_grid_4, chi_g(directed_grid_4), RoutingMechanism.CSP)


@pytest.fixture(scope="session")
def tree_pathset(binary_tree):
    """CSP paths of the binary tree under chi_t."""
    return enumerate_paths(binary_tree, chi_t(binary_tree), RoutingMechanism.CSP)


@pytest.fixture()
def simple_diamond() -> nx.DiGraph:
    """A 4-node diamond DAG: s -> {a, b} -> t."""
    graph = nx.DiGraph(name="diamond")
    graph.add_edges_from([("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])
    return graph


@pytest.fixture()
def diamond_placement() -> MonitorPlacement:
    """Source/sink placement on the diamond."""
    return MonitorPlacement.of(inputs={"s"}, outputs={"t"})


#: The column kernels of the kernel-parametrized tests: ``numpy`` is the
#: library's own, ``python`` the bit-by-bit references of
#: :func:`oracles.reference_columns`.
COLUMN_KERNELS = ("numpy", "python")

#: The ``compress`` settings of the parity matrices: the compressed engine
#: against the raw reference engine, which interns its rows as given.
ENGINE_CONFIGS = (True, False)


def column_kernel(name: str) -> ContextManager[None]:
    """Run every column primitive on the ``name`` kernel inside the block."""
    return reference_columns() if name == "python" else contextlib.nullcontext()
