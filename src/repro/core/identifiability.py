"""Exact maximal identifiability (Definitions 2.1 and 2.2).

A node universe ``N`` is *k-identifiable* with respect to a path set ``P``
iff for all ``U, W ⊆ N`` with ``U △ W ≠ ∅`` and ``|U|, |W| ≤ k`` it holds that
``P(U) △ P(W) ≠ ∅``.  The *maximal identifiability* µ is the largest such k.

Exact algorithm
---------------

The definition suggests enumerating subsets in order of increasing size
(including the empty set — an element crossed by no path is confusable with
∅ and forces µ = 0) until two share a signature, the set of paths they
touch.  The tests keep that sweep as the naive oracle; the engine computes
the same µ, ``searched_up_to`` and exhaustion without enumerating subsets.
After an O(|V|) equivalence-class fast path (µ = 0 iff two elements share a
signature or one is uncovered) it reduces µ to the size ``m`` of the
smallest *dominator* — a set ``W`` with ``P(v) ⊆ P(W)`` for some
``v ∉ W`` — found by a bounded hitting-set search over the path columns:
µ = m − 1 when two size-``m`` dominators have the same union, µ = m
otherwise.  The section "The µ search" of :mod:`repro.engine.signatures`
proves the reduction and describes the search, the canonical witness and
the search memo.

This module is a thin client of the :mod:`repro.engine` subsystem.  The
search is capped by the structural bounds of Section 3 (see
:func:`repro.core.bounds.structural_upper_bound`), so the computation is
exact whenever the cap itself is a correct upper bound — which the paper
proves for CSP and CAP⁻ — and otherwise certifies identifiability up to
``max_size``.  The graph-level entry point is
:meth:`repro.Scenario.mu`, which derives that cap.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Tuple, Union

from repro._typing import Node
from repro.engine.signatures import (
    ConfusablePair,
    IdentifiabilityResult,
    _require_int,
)
from repro.exceptions import IdentifiabilityError
from repro.failures.universe import FailureUniverse
from repro.resilience.budget import Budget
from repro.routing.paths import PathSet

#: How the ``universe=`` argument of the thin clients is spelled: ``None``
#: (node mode, the historical default), a kind name (``"node"``/``"link"``),
#: or a built :class:`~repro.failures.FailureUniverse` (required for SRLGs,
#: which carry their groups).
UniverseLike = Optional[Union[FailureUniverse, str]]

__all__ = [
    "ConfusablePair",
    "IdentifiabilityResult",
    "maximal_identifiability_detailed",
    "maximal_identifiability",
    "is_k_identifiable",
    "find_confusable_pair",
    "resolve_universe",
    "separability_matrix",
]


def resolve_universe(pathset: PathSet, universe: UniverseLike) -> FailureUniverse:
    """Canonicalise a ``universe=`` argument into a :class:`FailureUniverse`.

    ``None`` and ``"node"`` resolve to the pathset's node universe, a kind
    name to the memoised universe of that kind, and a
    :class:`FailureUniverse` instance passes through after an ownership
    check; anything else raises :class:`IdentifiabilityError`.  The
    resolution is :meth:`PathSet.universe`'s, so the engine accessor and
    the thin clients accept and refuse the same arguments.
    """
    return pathset.universe(universe)


def maximal_identifiability_detailed(
    pathset: PathSet,
    max_size: Optional[int] = None,
    nodes: Optional[Iterable[Node]] = None,
    *,
    universe: UniverseLike = None,
    budget: Optional["Budget"] = None,
) -> IdentifiabilityResult:
    """Compute µ with full diagnostics.

    Parameters
    ----------
    pathset:
        The measurement paths.
    max_size:
        Cap on the subset size explored.  ``None`` means the universe size
        (fully exhaustive).  When the cap is reached without a collision the
        result reports ``exhausted_search=True`` and ``value = max_size``.
    nodes:
        Restrict the universe to these elements (defaults to the whole
        universe).  Used by the local-identifiability and what-if analyses.
    universe:
        The failure universe µ ranges over: ``None``/``"node"`` (the paper's
        node measure, bit-identical to the historical behaviour), ``"link"``,
        or a :class:`~repro.failures.FailureUniverse` built over ``pathset``
        (the SRLG route).  Witnesses are frozensets of that universe's
        elements.
    budget:
        A :class:`repro.resilience.Budget` bounding the search (``None`` =
        unbounded).  On expiry
        the result truncates at the last fully completed search level with
        ``exhausted_search=False`` and ``stats.budget_exhausted=True`` — a
        certified lower bound, same semantics as a ``max_size`` cap.
    """
    if max_size is not None:
        _require_int("max_size", max_size)
    resolved = resolve_universe(pathset, universe)
    if nodes is None and (max_size is None or max_size >= 1) and resolved.elements:
        # µ = 0 early exit: an uncovered element is confusable with the
        # empty set, so no subset enumeration (or engine construction) is
        # needed.  Over the node universe this is exactly the historical
        # uncovered-node check.
        uncovered = resolved.uncovered_elements()
        if uncovered:
            witness = ConfusablePair(
                frozenset(), frozenset({min(uncovered, key=repr)})
            )
            return IdentifiabilityResult(
                value=0, witness=witness, searched_up_to=1, exhausted_search=False
            )
    return pathset.engine(universe=resolved).identifiability(
        max_size=max_size, nodes=nodes, budget=budget
    )


def maximal_identifiability(
    pathset: PathSet,
    max_size: Optional[int] = None,
    nodes: Optional[Iterable[Node]] = None,
    *,
    universe: UniverseLike = None,
    budget: Optional["Budget"] = None,
) -> int:
    """µ of the failure universe with respect to ``pathset`` (Definition 2.2,
    generalised from nodes to arbitrary failure elements)."""
    return maximal_identifiability_detailed(
        pathset, max_size, nodes, universe=universe, budget=budget
    ).value


def is_k_identifiable(
    pathset: PathSet,
    k: int,
    nodes: Optional[Iterable[Node]] = None,
    *,
    universe: UniverseLike = None,
) -> bool:
    """Definition 2.1: is the failure universe k-identifiable w.r.t.
    ``pathset``?

    ``k = 0`` is vacuously true.
    """
    if k < 0:
        raise IdentifiabilityError(f"k must be >= 0, got {k}")
    if k == 0:
        return True
    result = maximal_identifiability_detailed(
        pathset, max_size=k, nodes=nodes, universe=universe
    )
    return result.value >= k


def find_confusable_pair(
    pathset: PathSet,
    max_size: Optional[int] = None,
    nodes: Optional[Iterable[Node]] = None,
    *,
    universe: UniverseLike = None,
) -> Optional[ConfusablePair]:
    """Smallest confusable pair (the witness of Section 2.0.1), if any."""
    return maximal_identifiability_detailed(
        pathset, max_size, nodes, universe=universe
    ).witness


def separability_matrix(
    pathset: PathSet,
    size: int,
    *,
    universe: UniverseLike = None,
    budget: Optional[Budget] = None,
) -> Dict[Tuple[FrozenSet[Node], FrozenSet[Node]], bool]:
    """Explicit separation table for all pairs of element sets of a given size.

    Mainly a debugging/teaching aid (and used by small-scale tests): maps each
    unordered pair ``{U, W}`` of distinct subsets of the given size to whether
    a measurement path separates them.  Grows combinatorially — callers are
    expected to use it on small universes only.  Signatures are computed once
    per subset by the engine, so each pair costs one key comparison.

    A census has no sound partial result, so an expired ``budget`` raises
    :class:`~repro.exceptions.BudgetExceededError` instead of truncating.
    """
    return pathset.engine(universe=universe).separability_matrix(
        size, budget=budget
    )
