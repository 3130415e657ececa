"""Separation utilities (Sections 2.0.1 and 2.0.2).

Upper bounds on µ are proved by exhibiting two node sets with identical path
sets; lower bounds by exhibiting, for every pair of small node sets, a path
touching exactly one of them.  This module provides both directions as
reusable primitives:

* :func:`separating_path` — a measurement path witnessing ``P(U) △ P(W) ≠ ∅``;
* :func:`verify_k_identifiability_by_separation` — a brute-force double check
  of k-identifiability that runs the *definition* (all pairs, separation
  witness for each) rather than the signature algorithm.  Tests use it as an
  independent oracle for the fast implementation.
* :func:`path_through_avoiding` — a graph-level search for a measurement path
  through a prescribed node avoiding a forbidden set.  This mirrors the
  constructive Lemmas 4.4/4.5 (and Claim 5.5 for the undirected grid) that the
  paper uses to build separating paths explicitly.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, Optional, Tuple

import networkx as nx

from repro._typing import AnyGraph, Node, Path
from repro.core.identifiability import UniverseLike, resolve_universe
from repro.exceptions import IdentifiabilityError
from repro.monitors.placement import MonitorPlacement
from repro.resilience.budget import Budget
from repro.routing.paths import PathSet


def separating_path(
    pathset: PathSet, first: Iterable[Node], second: Iterable[Node]
) -> Optional[Path]:
    """A measurement path touching exactly one of ``first`` / ``second``.

    Returns ``None`` when the two sets are inseparable (``P(U) = P(W)``).
    """
    witnesses = pathset.separating_paths(first, second)
    return witnesses[0] if witnesses else None


def verify_k_identifiability_by_separation(
    pathset: PathSet,
    k: int,
    nodes: Optional[Iterable[Node]] = None,
    universe: UniverseLike = None,
) -> Tuple[bool, Optional[Tuple[FrozenSet[Node], FrozenSet[Node]]]]:
    """Check Definition 2.1 literally: every pair of distinct sets of size ≤ k
    must admit a separating path.

    Returns ``(True, None)`` when k-identifiability holds, otherwise
    ``(False, (U, W))`` with an inseparable witness pair.  Exponential in k —
    intended for tests and small graphs, not for production computation (use
    :func:`repro.core.identifiability.is_k_identifiable`).  With a
    ``universe`` the definition is checked over that universe's elements and
    masks — the naive oracle the engine-parity tests run for the link and
    SRLG variants.
    """
    if k < 0:
        raise IdentifiabilityError(f"k must be >= 0, got {k}")
    resolved = resolve_universe(pathset, universe)
    elements = (
        tuple(sorted(set(nodes), key=repr)) if nodes is not None else resolved.elements
    )
    subsets = [
        frozenset(combo)
        for size in range(0, k + 1)
        for combo in itertools.combinations(elements, size)
    ]
    for i, first in enumerate(subsets):
        for second in subsets[i + 1 :]:
            if first == second:
                continue
            if not resolved.separates(first, second):
                return False, (first, second)
    return True, None


def path_through_avoiding(
    graph: AnyGraph,
    placement: MonitorPlacement,
    through: Node,
    avoid: Iterable[Node] = (),
    cutoff: Optional[int] = None,
) -> Optional[Path]:
    """Find a simple input→output path through ``through`` avoiding ``avoid``.

    This is the constructive primitive behind the paper's lower-bound proofs
    (Lemmas 4.4/4.5, Claim 4.6, Claim 5.5): to separate U from W one exhibits a
    measurement path crossing a node of U while dodging every node of W.

    The search works on the subgraph with the ``avoid`` nodes removed: it
    tries every (input, output) monitor pair and looks for a simple path via
    ``through`` composed of a prefix (input → through) and a suffix
    (through → output) that share no node besides ``through``.  Returns the
    first such path found, or ``None``.
    """
    forbidden = frozenset(avoid)
    if through in forbidden:
        raise IdentifiabilityError("the 'through' node cannot also be avoided")
    if through not in graph:
        raise IdentifiabilityError(f"{through!r} is not a node of the graph")
    placement.validate(graph)

    allowed_nodes = [n for n in graph.nodes if n not in forbidden]
    reduced = graph.subgraph(allowed_nodes)
    if through not in reduced:
        return None

    inputs = sorted((n for n in placement.inputs if n in reduced), key=repr)
    outputs = sorted((n for n in placement.outputs if n in reduced), key=repr)
    for source in inputs:
        prefixes = _simple_paths_or_single(reduced, source, through, cutoff)
        for prefix in prefixes:
            prefix_interior = set(prefix) - {through}
            # The suffix must not reuse prefix nodes (other than ``through``)
            # to keep the overall path simple.
            suffix_graph = reduced.subgraph(
                [n for n in reduced.nodes if n not in prefix_interior]
            )
            for target in outputs:
                if target == source and len(prefix) == 1:
                    continue
                if target in prefix_interior:
                    continue
                if target not in suffix_graph:
                    continue
                suffixes = _simple_paths_or_single(suffix_graph, through, target, cutoff)
                for suffix in suffixes:
                    full = tuple(prefix) + tuple(suffix[1:])
                    if len(full) >= 2 and len(set(full)) == len(full):
                        return full
    return None


def _simple_paths_or_single(
    graph: AnyGraph, source: Node, target: Node, cutoff: Optional[int]
) -> Iterable[Tuple[Node, ...]]:
    """All simple paths source→target; a single-node path when they coincide."""
    if source == target:
        return [(source,)]
    if source not in graph or target not in graph:
        return []
    return (tuple(p) for p in nx.all_simple_paths(graph, source, target, cutoff=cutoff))


def inseparable_pairs_of_size(
    pathset: PathSet,
    size: int,
    *,
    universe: UniverseLike = None,
    budget: Optional[Budget] = None,
) -> Tuple[Tuple[FrozenSet[Node], FrozenSet[Node]], ...]:
    """All unordered pairs of distinct element sets of exactly ``size``
    elements with identical path sets.  Exponential; meant for diagnostics on
    small graphs.

    Delegates the signature grouping to the engine, which computes each
    subset's signature incrementally instead of re-deriving ``P(U)`` per
    subset.  ``universe`` selects the failure universe (nodes by default).
    An expired ``budget`` raises
    :class:`~repro.exceptions.BudgetExceededError` (no partial census).
    """
    return pathset.engine(universe=universe).inseparable_pairs(
        size, budget=budget
    )
