"""Tests for the embedding machinery and the Section 6 theorems."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embeddings.dimension import (
    hypergrid_coordinates,
    hypergrid_dimension,
    is_chain,
    order_dimension,
    realizer,
    verify_realizer,
)
from repro.embeddings.embedding import (
    find_order_embedding,
    identity_embedding,
    image_subgraph,
    induced_placement,
    is_distance_increasing,
    is_distance_preserving,
    is_embeddable,
    is_order_embedding,
)
from repro.embeddings.poset import (
    comparable,
    distance,
    graph_power,
    incomparable_pairs,
    is_routing_consistent,
    is_transitively_closed,
    leq,
    linear_extension,
    reachability_order,
    routing_consistent_graph,
    transitive_closure,
)
from repro.embeddings.theorems import compare_under_embedding, theorem_6_7_report
from repro.exceptions import EmbeddingError, TopologyError
from repro.api.scenario import Scenario
from repro.monitors.grid_placement import chi_g
from repro.monitors.placement import MonitorPlacement
from repro.routing.paths import enumerate_paths
from repro.topology.grids import directed_hypergrid
from repro.topology.trees import complete_kary_tree


def diamond() -> nx.DiGraph:
    graph = nx.DiGraph(name="diamond")
    graph.add_edges_from([("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])
    return graph


def chain(n: int) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_edges_from((i, i + 1) for i in range(n - 1))
    return graph


class TestPoset:
    def test_reachability_order(self):
        order = reachability_order(diamond())
        assert order["s"] == frozenset({"s", "a", "b", "t"})
        assert order["a"] == frozenset({"a", "t"})

    def test_leq_and_comparable(self):
        graph = diamond()
        assert leq(graph, "s", "t")
        assert not leq(graph, "a", "b")
        assert comparable(graph, "s", "a")
        assert not comparable(graph, "a", "b")

    def test_leq_requires_dag(self):
        cyclic = nx.DiGraph([(0, 1), (1, 0)])
        with pytest.raises(TopologyError):
            leq(cyclic, 0, 1)

    def test_incomparable_pairs_of_diamond(self):
        pairs = set(incomparable_pairs(diamond()))
        assert pairs == {("a", "b"), ("b", "a")}

    def test_transitive_closure_adds_shortcut(self):
        closed = transitive_closure(diamond())
        assert closed.has_edge("s", "t")
        assert is_transitively_closed(closed)
        assert not is_transitively_closed(diamond())

    def test_graph_power(self):
        powered = graph_power(chain(4), 2)
        assert powered.has_edge(0, 2)
        assert not powered.has_edge(0, 3)

    def test_graph_power_validates_k(self):
        with pytest.raises(EmbeddingError):
            graph_power(chain(3), 0)

    def test_linear_extension_respects_order(self):
        extension = linear_extension(diamond())
        assert extension.index("s") < extension.index("a") < extension.index("t")

    def test_linear_extension_with_reversed_pair(self):
        extension = linear_extension(diamond(), reversed_pairs=[("a", "b")])
        assert extension.index("b") < extension.index("a")

    def test_linear_extension_rejects_cyclic_constraints(self):
        with pytest.raises(EmbeddingError):
            linear_extension(diamond(), reversed_pairs=[("a", "b"), ("b", "a")])

    def test_distance(self):
        graph = chain(4)
        assert distance(graph, 0, 3) == 3
        assert distance(graph, 3, 0) == float("inf")


class TestRoutingConsistency:
    def test_tree_paths_are_routing_consistent(self, binary_tree, tree_pathset):
        assert is_routing_consistent(tree_pathset)
        assert routing_consistent_graph(binary_tree)

    def test_grid_is_not_routing_consistent(self, directed_grid_3):
        placement = chi_g(directed_grid_3)
        pathset = enumerate_paths(directed_grid_3, placement, "CSP")
        assert not is_routing_consistent(pathset)
        assert not routing_consistent_graph(directed_grid_3)


class TestOrderEmbeddings:
    def test_identity_is_an_embedding(self):
        graph = diamond()
        assert is_order_embedding(graph, graph, identity_embedding(graph))

    def test_diamond_embeds_into_grid(self):
        graph = diamond()
        grid = directed_hypergrid(3, 2)
        mapping = find_order_embedding(graph, grid)
        assert mapping is not None
        assert is_order_embedding(graph, grid, mapping)

    def test_chain_embeds_into_longer_chain(self):
        assert is_embeddable(chain(3), chain(5))

    def test_incompatible_graphs_not_embeddable(self):
        # A 3-antichain cannot order-embed into a 3-chain.
        antichain = nx.DiGraph()
        antichain.add_nodes_from(["x", "y", "z"])
        assert not is_embeddable(antichain, chain(3))

    def test_bijective_requires_equal_sizes(self):
        assert find_order_embedding(chain(3), chain(4), bijective=True) is None

    def test_non_injective_mapping_rejected(self):
        graph = diamond()
        mapping = {node: "s" for node in graph.nodes}
        assert not is_order_embedding(graph, graph, mapping)

    def test_distance_increasing_and_preserving(self):
        graph = chain(3)
        target = chain(5)
        stretch = {0: 0, 1: 2, 2: 4}
        assert is_distance_increasing(graph, target, stretch)
        assert not is_distance_preserving(graph, target, stretch)
        exact = {0: 0, 1: 1, 2: 2}
        assert is_distance_preserving(graph, target, exact)

    def test_induced_placement(self):
        placement = MonitorPlacement.of(inputs={"s"}, outputs={"t"})
        mapping = {"s": (1, 1), "a": (1, 2), "b": (2, 1), "t": (2, 2)}
        induced = induced_placement(placement, mapping)
        assert induced.inputs == frozenset({(1, 1)})
        assert induced.outputs == frozenset({(2, 2)})

    def test_induced_placement_requires_monitor_coverage(self):
        placement = MonitorPlacement.of(inputs={"s"}, outputs={"t"})
        with pytest.raises(EmbeddingError):
            induced_placement(placement, {"s": (1, 1)})

    def test_image_subgraph(self):
        grid = directed_hypergrid(3, 2)
        mapping = find_order_embedding(diamond(), grid)
        image = image_subgraph(grid, mapping)
        assert image.number_of_nodes() == 4


class TestDimension:
    def test_chain_has_dimension_one(self):
        assert order_dimension(chain(4)) == 1
        assert is_chain(chain(4))

    def test_diamond_has_dimension_two(self):
        assert order_dimension(diamond()) == 2

    def test_antichain_has_dimension_two(self):
        antichain = nx.DiGraph()
        antichain.add_nodes_from(range(4))
        assert order_dimension(antichain) == 2

    def test_grid_poset_dimension_two(self):
        closure = transitive_closure(directed_hypergrid(3, 2))
        assert order_dimension(closure) == 2

    def test_hypergrid_dimension_shortcut(self):
        assert hypergrid_dimension(directed_hypergrid(3, 3)) == 3

    def test_realizer_is_verified(self):
        graph = diamond()
        extensions = realizer(graph)
        assert verify_realizer(graph, extensions)
        assert len(extensions) == 2

    def test_verify_realizer_rejects_wrong_intersection(self):
        graph = diamond()
        # A single extension cannot realise a non-chain poset.
        assert not verify_realizer(graph, [linear_extension(graph)])

    def test_hypergrid_coordinates_are_order_embedding(self):
        graph = diamond()
        coords = hypergrid_coordinates(graph)
        order = reachability_order(graph)
        for u in graph.nodes:
            for v in graph.nodes:
                expected = v in order[u]
                actual = all(a <= b for a, b in zip(coords[u], coords[v]))
                assert expected == actual

    def test_dimension_cap_raises(self):
        # The "standard example" S_3 has dimension 3 > max_dim=2.
        s3 = nx.DiGraph()
        for i in range(3):
            for j in range(3):
                if i != j:
                    s3.add_edge(("a", i), ("b", j))
        with pytest.raises(EmbeddingError):
            order_dimension(s3, max_dim=2)
        assert order_dimension(s3, max_dim=4) == 3


class TestSection6Theorems:
    def test_theorem_6_4_distance_increasing(self):
        """A d.i. embedding transfers mu downwards: mu(G) >= mu(G')."""
        graph = diamond()
        grid = directed_hypergrid(3, 2)
        mapping = find_order_embedding(graph, grid)
        placement = MonitorPlacement.of(inputs={"s"}, outputs={"t"})
        comparison = compare_under_embedding(graph, grid, mapping, placement)
        assert comparison.theorem_6_4_holds
        assert comparison.corollary_6_5_holds

    def test_theorem_6_2_on_routing_consistent_tree(self, binary_tree):
        """Embedding a routing-consistent tree into its own transitive closure
        cannot decrease mu."""
        closure = transitive_closure(binary_tree)
        mapping = identity_embedding(binary_tree)
        from repro.monitors.tree_placement import chi_t

        placement = chi_t(binary_tree)
        comparison = compare_under_embedding(binary_tree, closure, mapping, placement)
        assert comparison.routing_consistent_source
        assert comparison.theorem_6_2_holds

    def test_theorem_6_7_on_grid_closure(self, directed_grid_3):
        closure = transitive_closure(directed_grid_3)
        report = theorem_6_7_report(closure, chi_g(directed_grid_3))
        assert report.transitively_closed
        assert report.holds

    def test_corollary_6_8_transitive_closure_never_hurts(self, directed_grid_3):
        placement = chi_g(directed_grid_3)
        closure = transitive_closure(directed_grid_3)
        closure_mu = Scenario.from_components(closure, placement).mu().value
        grid_mu = Scenario.from_components(directed_grid_3, placement).mu().value
        assert closure_mu >= grid_mu

    def test_compare_rejects_non_embedding(self):
        graph = diamond()
        grid = directed_hypergrid(3, 2)
        bad_mapping = {node: (1, 1) for node in graph.nodes}
        placement = MonitorPlacement.of(inputs={"s"}, outputs={"t"})
        with pytest.raises(EmbeddingError):
            compare_under_embedding(graph, grid, bad_mapping, placement)
