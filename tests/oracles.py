"""Naive reference oracles shared by the engine-parity suites.

Each oracle runs a paper definition directly — a flat
``itertools.combinations`` sweep that recomputes ``P(U)`` from the element
masks for every subset — with no signature engine in between, so the
engine's µ search and subset census can be held to it bit for bit.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple


def naive_sweep(
    elements: Sequence[Any],
    masks: Mapping[Any, int],
    max_size: Optional[int] = None,
) -> Dict[str, Any]:
    """Definition 2.2 by brute force over ``elements`` (in the given order).

    Returns ``value``, ``witness`` (``(partner, subset)`` frozensets of the
    first collision in enumeration order, or ``None``), ``searched_up_to``
    and ``exhausted``.  The engine matches everything but the witness, whose
    contract is :func:`naive_canonical_witness`; the two coincide at µ = 0.
    """
    n = len(elements)
    cap = n if max_size is None else max(0, min(max_size, n))

    def result(value, witness, searched):
        return {
            "value": value,
            "witness": witness,
            "searched_up_to": searched,
            "exhausted": witness is None,
        }

    if cap == 0:
        return result(0, None, 0)
    table: Dict[int, Tuple[Any, ...]] = {}
    for size in range(0, cap + 1):
        for subset in itertools.combinations(elements, size):
            signature = union_mask(masks, subset)
            if signature in table:
                witness = (frozenset(table[signature]), frozenset(subset))
                return result(max(size - 1, 0), witness, max(size, 1))
            table[signature] = subset
    return result(cap, None, cap)


def naive_maximal_identifiability_detailed(
    pathset,
    max_size: Optional[int] = None,
    nodes: Optional[Iterable[Any]] = None,
    universe=None,
) -> Dict[str, Any]:
    """:func:`naive_sweep` over a path set's node universe (or over
    ``universe``, a :class:`~repro.failures.FailureUniverse` built over it),
    optionally restricted to ``nodes`` in the engine's canonical order; the
    canonical witness rides along as ``canonical_witness``."""
    if universe is None:
        masks = {node: pathset.paths_through(node) for node in pathset.nodes}
        elements = pathset.nodes
    else:
        masks, elements = universe.masks, universe.elements
    if nodes is not None:
        elements = tuple(sorted(set(nodes), key=repr))
    return naive_oracle(elements, masks, max_size)


def naive_oracle(
    elements: Sequence[Any],
    masks: Mapping[Any, int],
    max_size: Optional[int] = None,
) -> Dict[str, Any]:
    """:func:`naive_sweep` plus the :func:`naive_canonical_witness` as
    ``canonical_witness`` — what :func:`assert_matches_oracle` checks."""
    oracle = naive_sweep(elements, masks, max_size)
    oracle["canonical_witness"] = naive_canonical_witness(elements, masks, max_size)
    return oracle


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


def naive_canonical_witness(
    elements: Sequence[Any],
    masks: Mapping[Any, int],
    max_size: Optional[int] = None,
) -> Optional[Tuple[frozenset, frozenset]]:
    """The engine's witness contract by brute force over ``elements`` (in
    the given order), as ``(first, second)`` frozensets or ``None``.

    µ = 0 keeps the fast-path witness (the naive sweep's).  Otherwise let
    ``m`` be the smallest ``|W|`` with some ``v ∉ W``, ``P(v) ⊆ P(W)``
    (a *dominator*), found by trying every ``W`` by size.  No witness when
    ``m`` does not exist or exceeds the cap.  Two size-``m`` dominators with
    the same union give the lex-min such pair ``(W, U)``; failing that, a
    cap of ``m`` has no witness, and a larger one gives ``(W, W ∪ {v})``
    for the lex-min dominator ``W`` and the smallest ``v`` it dominates.
    Lex order compares element positions.
    """
    n = len(elements)
    cap = n if max_size is None else max(0, min(max_size, n))
    if cap == 0:
        return None
    fast = naive_sweep(elements, masks, 1)
    if fast["witness"] is not None:
        return fast["witness"]
    rows = [masks[element] for element in elements]
    for size in range(1, cap + 1):
        dominated = {}
        for combo in itertools.combinations(range(n), size):
            union = union_mask(rows, combo)
            for v in range(n):
                if v not in combo and rows[v] | union == union:
                    dominated[combo] = v
                    break
        if dominated:
            break
    else:
        return None

    def named(positions):
        return frozenset(elements[i] for i in positions)

    groups: Dict[int, list] = {}
    for combo in dominated:  # lexicographic order
        groups.setdefault(union_mask(rows, combo), []).append(combo)
    pairs = [group[:2] for group in groups.values() if len(group) > 1]
    if pairs:
        first, second = min(pairs)
        return named(first), named(second)
    if cap == size:
        return None
    first = min(dominated)
    return named(first), named(first + (dominated[first],))


def assert_matches_oracle(result, oracle: Dict[str, Any], context=None) -> None:
    """An engine :class:`IdentifiabilityResult` must reproduce a
    :func:`naive_oracle`: the naive sweep's value, ``searched_up_to`` and
    ``exhausted_search``, the canonical witness, and no budget expiry."""
    assert result.value == oracle["value"], (context, result, oracle)
    assert result.searched_up_to == oracle["searched_up_to"], (context, oracle)
    assert result.exhausted_search == oracle["exhausted"], (context, oracle)
    witness = None if result.witness is None else tuple(result.witness)
    assert witness == oracle["canonical_witness"], (context, result, oracle)
    # (The core layer's uncovered-element early exit carries no stats.)
    assert result.stats is None or not result.stats.budget_exhausted, context


def assert_budget_law(result, exact: Dict[str, Any], context=None) -> None:
    """A budgeted µ result is the exact one (``exact`` is the unbudgeted
    :func:`naive_sweep`) or, when the budget ran out, a certified lower
    bound: ``value == searched_up_to ≤ µ``, no witness, not exhausted."""
    if not result.stats.budget_exhausted:
        assert (result.value, result.searched_up_to, result.exhausted_search) == (
            exact["value"],
            exact["searched_up_to"],
            exact["exhausted"],
        ), (context, result, exact)
        return
    assert result.witness is None, (context, result)
    assert result.exhausted_search is False, (context, result)
    assert result.value == result.searched_up_to <= exact["value"], (
        context,
        result,
        exact,
    )


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


def union_mask(masks, subset: Iterable[Any]) -> int:
    """``P(U)`` straight from the element masks (a mapping, or a sequence
    indexed by position)."""
    signature = 0
    for element in subset:
        signature |= masks[element]
    return signature
