"""Truncated maximal identifiability µ_α (Section 8.0.3).

Computing µ exactly requires comparing node sets of every size up to the
structural bound plus one.  The paper speeds the experimental search up by
*truncating* the comparison: ``µ_α(G) ≤ α − 1`` whenever two sets ``U`` and
``W`` **both** of size at most α have identical path sets.  Pairs in which one
set is larger than α (Zone C of the matrix in Figure 12) are never examined,
so µ_α can overestimate µ; the paper bounds the fraction of pairs the
truncated search can miss, and we expose that bound as
:func:`truncation_error_fraction`.

The recommended truncation level is the average degree λ(G) of the graph
(hence the paper's notation µ_λ).
"""

from __future__ import annotations

import math
from typing import Optional

from repro._typing import AnyGraph
from repro.core.identifiability import (
    IdentifiabilityResult,
    UniverseLike,
    maximal_identifiability_detailed,
)
from repro.engine.signatures import _require_int
from repro.exceptions import IdentifiabilityError
from repro.resilience.budget import Budget
from repro.routing.paths import PathSet
from repro.topology.base import average_degree, min_degree


def truncated_identifiability_detailed(
    pathset: PathSet,
    alpha: int,
    *,
    universe: UniverseLike = None,
    budget: Optional[Budget] = None,
) -> IdentifiabilityResult:
    """µ_α with diagnostics: the engine search capped at subset size α.

    ``universe`` follows :func:`repro.core.identifiability.resolve_universe`
    — node mode by default, ``"link"`` or a
    :class:`~repro.failures.FailureUniverse` for the element-generic
    variants.  ``budget`` adds a run-time bound on top of the size cap with
    the same truncation semantics (``stats.budget_exhausted`` distinguishes
    a budget stop from cap exhaustion).
    """
    if _require_int("alpha", alpha) < 1:
        raise IdentifiabilityError(f"alpha must be >= 1, got {alpha}")
    return maximal_identifiability_detailed(
        pathset, max_size=alpha, universe=universe, budget=budget
    )


def truncated_identifiability(
    pathset: PathSet,
    alpha: int,
    *,
    universe: UniverseLike = None,
    budget: Optional[Budget] = None,
) -> int:
    """µ_α(G): the truncated maximal identifiability.

    Equal to µ whenever µ < α; otherwise the search certifies identifiability
    up to α and returns α (the truncated measure cannot distinguish higher
    values).
    """
    return truncated_identifiability_detailed(
        pathset, alpha, universe=universe, budget=budget
    ).value


def default_truncation_level(graph: AnyGraph) -> int:
    """The paper's choice α = λ(G), the average degree rounded to an integer."""
    return max(1, round(average_degree(graph)))


def _zeta(n: int, i: int, j: int) -> int:
    """ζ(i, j) = C(n, i) * (C(n, j) − 1): the number of (U, W) pairs stored in
    entry (i, j) of the matrix M of Figure 12."""
    return math.comb(n, i) * max(math.comb(n, j) - 1, 0)


def truncation_error_fraction(n: int, delta: int, alpha: int) -> float:
    """Maximal fraction of candidate pairs missed by the truncated search.

    This is the closed-form expression at the end of Section 8.0.3::

        sum_{i=1}^{δ} sum_{j=α+1}^{n} ζ(i, j)
        --------------------------------------------------------------
        sum_{i=1}^{δ} sum_{j=i}^{δ} ζ(i, j) + sum_{i=1}^{δ} sum_{j=δ}^{n} ζ(i, j)

    where δ is the minimal degree (so that µ ≤ δ guarantees a witness pair in
    the first δ rows of the matrix) and α ≥ δ is the truncation level.
    The fraction shrinks as α − δ grows, which is the paper's argument for the
    average degree being a good truncation level.
    """
    if n < 1:
        raise IdentifiabilityError(f"n must be >= 1, got {n}")
    if delta < 1 or delta > n:
        raise IdentifiabilityError(f"delta must be in [1, {n}], got {delta}")
    if alpha < delta:
        raise IdentifiabilityError(
            f"alpha must be >= delta (got alpha={alpha}, delta={delta})"
        )
    missed = sum(
        _zeta(n, i, j) for i in range(1, delta + 1) for j in range(alpha + 1, n + 1)
    )
    searched = sum(
        _zeta(n, i, j) for i in range(1, delta + 1) for j in range(i, delta + 1)
    ) + sum(
        _zeta(n, i, j) for i in range(1, delta + 1) for j in range(delta, n + 1)
    )
    if searched == 0:
        return 0.0
    return missed / searched


def truncation_error_for_graph(graph: AnyGraph, alpha: Optional[int] = None) -> float:
    """Convenience wrapper of :func:`truncation_error_fraction` for a graph."""
    if alpha is None:
        alpha = default_truncation_level(graph)
    n = graph.number_of_nodes()
    delta = max(1, min_degree(graph))
    alpha = max(alpha, delta)
    return truncation_error_fraction(n, delta, alpha)
