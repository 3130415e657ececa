"""Local identifiability (the original measure of Ma et al., Definition 2.1's
footnote in Section 2).

The paper's µ asks every pair of small node sets to be separable.  The
*local* variant of [16, 2] only asks separation for pairs that differ inside a
designated subset ``S ⊆ V`` of "interesting" nodes: the condition
``U △ W ≠ ∅`` is replaced by ``(U ∩ S) △ (W ∩ S) ≠ ∅``.

Local identifiability is what degenerate loop paths trivially boost (Section
9): a DLP node ``v`` separates ``{v}`` from everything else, so its local
identifiability w.r.t. ``S = {v}`` is as large as the universe.  The module
exists both as public API and to back the DLP discussion tests.

The local subset sweep runs on the signature engine
(:meth:`PathSet.engine <repro.routing.paths.PathSet.engine>`): subsets are
read off the engine's chunked frontier instead of recomputing ``P(U)`` per
subset, and exact-verified signature keys group the S-projections.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Optional

from repro._typing import Node
from repro.core.identifiability import UniverseLike, resolve_universe
from repro.engine.backends import BackendSpec
from repro.exceptions import IdentifiabilityError
from repro.routing.paths import PathSet


def _local_search(
    pathset: PathSet,
    scope_set: FrozenSet[Node],
    cap: int,
    backend: BackendSpec = None,
    compress: Optional[bool] = None,
    universe: UniverseLike = None,
) -> int:
    """Largest k ≤ cap with local k-identifiability (cap when none fails).

    Walks subsets in increasing size through the engine's digest stream
    (:meth:`SignatureEngine.iter_subset_digests`); a failure at size s is two
    subsets with the same signature but different S-projections, giving
    ``s − 1``.  Digest matches are exact-verified through
    :meth:`SignatureEngine.union_key`, so distinct signatures sharing a
    digest never merge.
    """
    engine = pathset.engine(backend, compress, universe=universe)
    # digest -> [[representative subset, its exact key (computed lazily),
    # the S-projections observed for that key], ...]
    buckets: Dict[int, List[List[Any]]] = {}
    for subset, digest in engine.iter_subset_digests(range(0, cap + 1)):
        projection = frozenset(subset) & scope_set
        groups = buckets.get(digest)
        if groups is None:
            buckets[digest] = [[subset, None, {projection}]]
            continue
        exact = engine.union_key(subset)
        for group in groups:
            if group[1] is None:
                group[1] = engine.union_key(group[0])
            if group[1] == exact:
                if any(other != projection for other in group[2]):
                    return len(subset) - 1
                group[2].add(projection)
                break
        else:
            groups.append([subset, exact, {projection}])
    return cap


def is_locally_k_identifiable(
    pathset: PathSet,
    scope: Iterable[Node],
    k: int,
    backend: BackendSpec = None,
    compress: Optional[bool] = None,
    universe: UniverseLike = None,
) -> bool:
    """Local k-identifiability w.r.t. the scope ``S``.

    For all ``U, W`` with ``|U|, |W| ≤ k`` and ``(U ∩ S) △ (W ∩ S) ≠ ∅`` we
    require ``P(U) △ P(W) ≠ ∅``.  ``scope`` must consist of elements of the
    chosen failure universe (nodes by default).
    """
    if k < 0:
        raise IdentifiabilityError(f"k must be >= 0, got {k}")
    scope_set = frozenset(scope)
    resolved = resolve_universe(pathset, universe)
    unknown = scope_set - frozenset(resolved.elements)
    if unknown:
        raise IdentifiabilityError(
            f"scope elements {sorted(map(repr, unknown))} not in universe"
        )
    if k == 0:
        return True
    return _local_search(pathset, scope_set, k, backend, compress, resolved) >= k


def local_maximal_identifiability(
    pathset: PathSet,
    scope: Iterable[Node],
    max_size: Optional[int] = None,
    backend: BackendSpec = None,
    compress: Optional[bool] = None,
    universe: UniverseLike = None,
) -> int:
    """The largest k such that the universe is locally k-identifiable w.r.t. S.

    Capped at ``max_size`` (default: the universe size).  Note that, unlike
    the global measure, local identifiability can legitimately reach the size
    of the universe when ``S`` is a single well-covered element.
    """
    scope_set = frozenset(scope)
    resolved = resolve_universe(pathset, universe)
    n = len(resolved.elements)
    cap = n if max_size is None else max(0, min(max_size, n))
    return _local_search(pathset, scope_set, cap, backend, compress, resolved)


def local_identifiability_per_node(
    pathset: PathSet,
    max_size: int = 3,
    backend: BackendSpec = None,
    compress: Optional[bool] = None,
    universe: UniverseLike = None,
) -> Dict[Node, int]:
    """Local maximal identifiability of every singleton scope ``S = {v}``.

    This is the per-element measure used informally in the DLP discussion: a
    DLP node reaches the cap, while an element sharing all its paths with a
    neighbour stays at 0.  ``max_size`` caps the (expensive) per-element
    searches.
    """
    resolved = resolve_universe(pathset, universe)
    return {
        element: local_maximal_identifiability(
            pathset, {element}, max_size=max_size, backend=backend,
            compress=compress, universe=resolved,
        )
        for element in resolved.elements
    }
