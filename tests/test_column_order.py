"""Path column order is not observable: every engine answer survives a
permutation of the path columns.

The node rows ``P(v)`` index paths by column, and the enumerator is free to
choose that order.  Everything the paper computes reads the rows only
through unions, equalities and inclusions, which a column permutation
preserves; the search's branching order ("first un-hit column in (coverer
count, column index) order") is the one place an order enters, and it only
picks *which* column of a tie to branch on.  These tests permute the columns
of enumerated node rows with :func:`~repro.engine.columns.gather_columns`
and require identical µ (value, witness, ``searched_up_to``, exhaustion),
µ_α, local µ per node, the size-1 and size-2 separability census, the
equivalence classes and the localization consistent sets of fixed failure
sets.

The two layouts the enumerator has used — depth-first emission order and
the class-major order (touch-set classes one after another, in order of
their first path by length, then depth-first) — must also agree on the
:class:`SearchStats` of the fixed cases.  Arbitrary permutations may branch
on another column of a tie, so for them only the results are compared.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.agrid.algorithm import agrid
from repro.engine.columns import gather_columns
from repro.engine.signatures import SignatureEngine
from repro.exceptions import RoutingError
from repro.monitors.grid_placement import chi_corners, chi_g
from repro.routing.paths import enumerate_paths
from repro.tomography.inference import consistent_signature_sets
from repro.topology.grids import directed_grid, directed_hypergrid, undirected_grid
from repro.topology.zoo import claranet, eunetworks

from test_routing_paths import class_major, random_cases


def _boosted(network):
    result = agrid(network(), 2, rng=3)
    return result.boosted, result.placement_boosted, "CSP"


def _grid():
    graph = directed_grid(4)
    return graph, chi_g(graph), "CSP"


def _hypergrid():
    graph = directed_hypergrid(3, 3)
    return graph, chi_g(graph), "CSP"


def _undirected_cap_minus():
    graph = undirected_grid(3)
    return graph, chi_corners(graph), "CAP-"


CASES = {
    "claranet": lambda: _boosted(claranet),
    "eunetworks": lambda: _boosted(eunetworks),
    "grid": _grid,
    "hypergrid": _hypergrid,
    "undirected-cap-minus": _undirected_cap_minus,
}


def _answers(engine, failure_sets, with_stats):
    """Everything observable about ``engine``, in one comparable dict."""
    nodes = engine.nodes
    mu = engine.identifiability()
    answers = {
        "mu": mu,
        "truncated": [engine.identifiability(max_size=a) for a in (1, 2, 3)],
        "local": [engine.local_identifiability({v}) for v in nodes],
        "pairs": [engine.inseparable_pairs(size) for size in (1, 2)],
        "classes": engine.equivalence_classes(),
        "localized": [
            consistent_signature_sets(engine, engine.union_signature(failed), 2)
            for failed in failure_sets
        ],
    }
    if with_stats:
        answers["stats"] = mu.stats
    return answers


def _engine(pathset, order):
    """An engine over ``pathset``'s node rows with column ``j`` moved from
    column ``order[j]``."""
    rows = [pathset.paths_through(node) for node in pathset.nodes]
    moved = gather_columns(rows, order, pathset.n_paths)
    return SignatureEngine(pathset.nodes, dict(zip(pathset.nodes, moved)), pathset.n_paths)


def _dfs_order(graph, placement, paths):
    """The columns of ``paths`` in depth-first emission order: open paths by
    (source in repr order, adjacency positions of their hops), the closed
    CAP/CAP⁻ family after them as it stands."""
    hop = {u: {v: i for i, v in enumerate(graph.adj[u])} for u in graph.adj}
    rank = {s: r for r, s in enumerate(sorted(placement.inputs, key=repr))}

    def key(j):
        path = paths[j]
        return [rank[path[0]]] + [hop[u][v] for u, v in zip(path, path[1:])]

    closed = [j for j, path in enumerate(paths) if path[0] == path[-1]]
    opened = sorted((j for j, path in enumerate(paths) if path[0] != path[-1]), key=key)
    return opened + closed


def _orders(graph, placement, pathset, seed):
    paths = pathset.paths
    dfs = _dfs_order(graph, placement, paths)
    column_of = {path: j for j, path in enumerate(paths)}
    shuffled = list(range(pathset.n_paths))
    random.Random(seed).shuffle(shuffled)
    return {
        "dfs": dfs,
        "class-major": [column_of[path] for path in class_major([paths[j] for j in dfs])],
        "reversed": list(range(pathset.n_paths))[::-1],
        "shuffled": shuffled,
    }


def _failure_sets(nodes, seed):
    rng = random.Random(seed)
    ordered = sorted(nodes, key=repr)
    return [frozenset(rng.sample(ordered, min(k, len(ordered)))) for k in (1, 2, 2, 3)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_fixed_cases_ignore_column_order(name):
    graph, placement, mechanism = CASES[name]()
    pathset = enumerate_paths(graph, placement, mechanism)
    failure_sets = _failure_sets(pathset.nodes, 11)
    orders = _orders(graph, placement, pathset, 5)
    assert sorted(orders["class-major"]) == list(range(pathset.n_paths))
    reference = _answers(_engine(pathset, orders.pop("dfs")), failure_sets, True)
    assert _answers(
        _engine(pathset, orders.pop("class-major")), failure_sets, True
    ) == reference, name
    del reference["stats"]
    for label, order in orders.items():
        assert _answers(_engine(pathset, order), failure_sets, False) == reference, (
            f"{name}/{label}"
        )


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(case=random_cases(), seed=st.integers(0, 2**16))
def test_random_cases_ignore_column_order(case, seed):
    graph, placement, mechanism, cutoff = case
    try:
        pathset = enumerate_paths(graph, placement, mechanism, cutoff)
    except RoutingError:
        return
    failure_sets = _failure_sets(pathset.nodes, seed)
    orders = _orders(graph, placement, pathset, seed)
    reference = _answers(_engine(pathset, orders.pop("dfs")), failure_sets, False)
    for order in orders.values():
        assert _answers(_engine(pathset, order), failure_sets, False) == reference
