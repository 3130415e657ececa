"""Naive reference oracles shared by the engine-parity suites.

Each oracle runs a paper definition directly — a flat
``itertools.combinations`` sweep that recomputes ``P(U)`` from the element
masks for every subset — with no signature engine in between, so the
engine's single subset sweep can be held to it bit for bit.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple


def naive_sweep(
    elements: Sequence[Any],
    masks: Mapping[Any, int],
    max_size: Optional[int] = None,
    subset_budget: Optional[int] = None,
) -> Dict[str, Any]:
    """Definition 2.2 by brute force over ``elements`` (in the given order).

    Returns ``value``, ``witness`` (``(partner, subset)`` frozensets, or
    ``None``), ``searched_up_to``, ``exhausted``, ``budget_exhausted`` and
    ``subsets_enumerated``.  The count follows the engine's contract: sizes
    0 and 1 are certified as one block of ``n + 1`` subsets, and a collision
    at size ≥ 2 counts every subset up to and including the colliding one.
    ``subset_budget`` replays the engine's deterministic subset-budget
    truncation: one unit per collision-free subset, checked after each
    insertion and at every size boundary past size 1.
    """
    n = len(elements)
    cap = n if max_size is None else max(0, min(max_size, n))

    def result(value, witness, searched, subsets, budget_exhausted=False):
        return {
            "value": value,
            "witness": witness,
            "searched_up_to": searched,
            "exhausted": witness is None and not budget_exhausted,
            "budget_exhausted": budget_exhausted,
            "subsets_enumerated": subsets,
        }

    if cap == 0:
        return result(0, None, 0, 0)
    table: Dict[int, Tuple[Any, ...]] = {}
    for size in (0, 1):
        for subset in itertools.combinations(elements, size):
            signature = union_mask(masks, subset)
            if signature in table:
                witness = (frozenset(table[signature]), frozenset(subset))
                return result(0, witness, 1, n + 1)
            table[signature] = subset
    enumerated = consumed = n + 1
    for size in range(2, cap + 1):
        if subset_budget is not None and consumed >= subset_budget:
            return result(size - 1, None, size - 1, consumed, True)
        for rank, subset in enumerate(itertools.combinations(elements, size)):
            signature = union_mask(masks, subset)
            if signature in table:
                witness = (frozenset(table[signature]), frozenset(subset))
                return result(size - 1, witness, size, enumerated + rank + 1)
            table[signature] = subset
            consumed += 1
            if subset_budget is not None and consumed >= subset_budget:
                return result(size - 1, None, size - 1, consumed, True)
        enumerated += math.comb(n, size)
    return result(cap, None, cap, enumerated)


def naive_maximal_identifiability_detailed(
    pathset,
    max_size: Optional[int] = None,
    nodes: Optional[Iterable[Any]] = None,
    universe=None,
    subset_budget: Optional[int] = None,
) -> Dict[str, Any]:
    """:func:`naive_sweep` over a path set's node universe (or over
    ``universe``, a :class:`~repro.failures.FailureUniverse` built over it),
    optionally restricted to ``nodes`` in the engine's canonical order."""
    if universe is None:
        masks = {node: pathset.paths_through(node) for node in pathset.nodes}
        elements = pathset.nodes
    else:
        masks, elements = universe.masks, universe.elements
    if nodes is not None:
        elements = tuple(sorted(set(nodes), key=repr))
    return naive_sweep(elements, masks, max_size, subset_budget)


def naive_inseparable_pairs(universe, size: int):
    """Every unordered pair of distinct ``size``-subsets with identical path
    sets, by the literal separation test of
    :func:`repro.core.separability.verify_k_identifiability_by_separation`
    (pairs in lexicographic order; compare against the engine as a set)."""
    subsets = [
        frozenset(combo) for combo in itertools.combinations(universe.elements, size)
    ]
    pairs = []
    for i, first in enumerate(subsets):
        for second in subsets[i + 1 :]:
            if not universe.separates(first, second):
                pairs.append((first, second))
    return pairs


def assert_matches_oracle(result, oracle: Dict[str, Any], context=None) -> None:
    """An engine :class:`IdentifiabilityResult` must reproduce the oracle:
    value, witness, ``searched_up_to``, ``exhausted_search`` and the
    ``subsets_enumerated`` count."""
    assert result.value == oracle["value"], (context, result, oracle)
    witness = None if result.witness is None else tuple(result.witness)
    assert witness == oracle["witness"], (context, result, oracle)
    assert result.searched_up_to == oracle["searched_up_to"], (context, oracle)
    assert result.exhausted_search == oracle["exhausted"], (context, oracle)
    assert result.stats.budget_exhausted == oracle["budget_exhausted"], (
        context,
        oracle,
    )
    assert (
        result.stats.subsets_enumerated == oracle["subsets_enumerated"]
    ), (context, result.stats, oracle)


def naive_local_mu(
    elements: Sequence[Any], masks: Mapping[Any, int], scope, cap: int
) -> int:
    """Local maximal identifiability w.r.t. ``scope`` by brute force: the
    first size at which two subsets share a signature but differ inside the
    scope, minus one (``cap`` when no size up to it fails)."""
    scope = frozenset(scope)
    projections: Dict[int, set] = {}
    for size in range(0, cap + 1):
        for subset in itertools.combinations(elements, size):
            projection = frozenset(subset) & scope
            seen = projections.setdefault(union_mask(masks, subset), set())
            if any(other != projection for other in seen):
                return size - 1
            seen.add(projection)
    return cap


def union_mask(masks: Mapping[Any, int], subset: Iterable[Any]) -> int:
    """``P(U)`` straight from the element masks."""
    signature = 0
    for element in subset:
        signature |= masks[element]
    return signature
