"""Exact maximal identifiability (Definitions 2.1 and 2.2).

A node universe ``N`` is *k-identifiable* with respect to a path set ``P``
iff for all ``U, W ⊆ N`` with ``U △ W ≠ ∅`` and ``|U|, |W| ≤ k`` it holds that
``P(U) △ P(W) ≠ ∅``.  The *maximal identifiability* µ is the largest such k.

Exact algorithm
---------------

Enumerate node subsets in order of increasing size (including the empty set —
a node crossed by no path is confusable with ∅ and forces µ = 0).  Each
subset's *signature* is the set of paths it touches.  The first size ``s`` at
which a signature collision occurs yields ``µ = s − 1``:

* a collision between subsets of sizes ``s₁ ≤ s₂ = s`` falsifies
  ``s``-identifiability (both sets have size ≤ s and differ);
* no collision occurred among subsets of size < s (they were enumerated
  earlier), so ``(s−1)``-identifiability holds;
* monotonicity (noted after Definition 2.2) does the rest.

This module is a thin client of the :mod:`repro.engine` subsystem: the search
itself — equivalence-class fast paths, incremental DFS with prefix unions,
subset-dominance pruning, interchangeable python/numpy signature backends —
lives in :class:`repro.engine.signatures.SignatureEngine`.  The search is
capped by the structural bounds of Section 3 (see
:func:`repro.core.bounds.structural_upper_bound`), so the computation is exact
whenever the cap itself is a correct upper bound — which the paper proves for
CSP and CAP⁻ — and otherwise explores up to ``max_size`` subsets.
"""

from __future__ import annotations

import warnings
from typing import Dict, FrozenSet, Iterable, Optional, Tuple, Union

from repro._typing import AnyGraph, Node
from repro.core.bounds import structural_upper_bound
from repro.engine.backends import BackendSpec
from repro.engine.signatures import (
    ConfusablePair,
    IdentifiabilityResult,
    _require_int,
)
from repro.exceptions import IdentifiabilityError
from repro.failures.universe import FailureUniverse
from repro.resilience.budget import Budget
from repro.monitors.placement import MonitorPlacement
from repro.routing.mechanisms import RoutingMechanism
from repro.routing.paths import PathSet, enumerate_paths

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
    "mu",
    "mu_detailed",
    "resolve_universe",
    "separability_matrix",
]


def resolve_universe(pathset: PathSet, universe: UniverseLike) -> FailureUniverse:
    """Canonicalise a ``universe=`` argument into a :class:`FailureUniverse`.

    ``None`` and ``"node"`` resolve to the pathset's node universe; a kind
    name resolves through :meth:`PathSet.universe` (memoised); a
    :class:`FailureUniverse` instance passes through after an ownership
    check (:meth:`FailureUniverse.check_built_over`) — its masks index the
    owner's path order, and a universe carried over from a different path
    set (even one with the same path count) would silently compute wrong
    values.
    """
    if universe is None or isinstance(universe, str):
        return pathset.universe(universe or "node")
    if not isinstance(universe, FailureUniverse):
        raise IdentifiabilityError(
            f"universe must be None, a kind name or a FailureUniverse, "
            f"got {type(universe).__name__}"
        )
    universe.check_built_over(pathset)
    return universe


def maximal_identifiability_detailed(
    pathset: PathSet,
    max_size: Optional[int] = None,
    nodes: Optional[Iterable[Node]] = None,
    backend: BackendSpec = None,
    compress: Optional[bool] = None,
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
    backend:
        Signature backend override (see :func:`repro.engine.select_backend`).
    compress:
        Signature-universe compression override (see
        :func:`repro.engine.select_compression`); ``None`` follows the global
        policy.  The computed result is identical either way.
    universe:
        The failure universe µ ranges over: ``None``/``"node"`` (the paper's
        node measure, bit-identical to the historical behaviour), ``"link"``,
        or a :class:`~repro.failures.FailureUniverse` built over ``pathset``
        (the SRLG route).  Witnesses are frozensets of that universe's
        elements.
    budget:
        A :class:`repro.resilience.Budget` bounding the search (``None`` =
        the global :func:`repro.resilience.budget_policy` limits).  On expiry
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
    return pathset.engine(backend, compress, universe=resolved).identifiability(
        max_size=max_size, nodes=nodes, budget=budget
    )


def maximal_identifiability(
    pathset: PathSet,
    max_size: Optional[int] = None,
    nodes: Optional[Iterable[Node]] = None,
    backend: BackendSpec = None,
    compress: Optional[bool] = None,
    universe: UniverseLike = None,
    budget: Optional["Budget"] = None,
) -> int:
    """µ of the failure universe with respect to ``pathset`` (Definition 2.2,
    generalised from nodes to arbitrary failure elements)."""
    return maximal_identifiability_detailed(
        pathset, max_size, nodes, backend, compress, universe, budget
    ).value


def is_k_identifiable(
    pathset: PathSet,
    k: int,
    nodes: Optional[Iterable[Node]] = None,
    backend: BackendSpec = None,
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
        pathset, max_size=k, nodes=nodes, backend=backend, universe=universe
    )
    return result.value >= k


def find_confusable_pair(
    pathset: PathSet,
    max_size: Optional[int] = None,
    nodes: Optional[Iterable[Node]] = None,
    backend: BackendSpec = None,
    universe: UniverseLike = None,
) -> Optional[ConfusablePair]:
    """Smallest confusable pair (the witness of Section 2.0.1), if any."""
    return maximal_identifiability_detailed(
        pathset, max_size, nodes, backend, universe=universe
    ).witness


def _warn_graph_level_shim(old: str) -> None:
    warnings.warn(
        f"repro.core.{old}(graph, placement, ...) is a legacy shim; build a "
        "repro.Scenario (repro.Scenario.from_components or a ScenarioSpec) "
        "and call its analysis methods instead",
        DeprecationWarning,
        stacklevel=3,
    )


def _graph_level_detailed(
    graph: AnyGraph,
    placement: MonitorPlacement,
    mechanism: RoutingMechanism | str,
    max_size: Optional[int],
    cutoff: Optional[int],
    max_paths: Optional[int],
    backend: BackendSpec,
) -> IdentifiabilityResult:
    """The shared engine room of the deprecated graph-level wrappers and of
    :func:`repro.analysis.verification.verify` (which is not deprecated)."""
    mechanism = RoutingMechanism.parse(mechanism)
    if isinstance(backend, str) or backend is None:
        # The facade path: a spec-scoped engine config capturing the current
        # global policies, so legacy global-policy callers see no change.
        from repro.api.scenario import Scenario
        from repro.api.spec import EngineConfig

        config = EngineConfig.from_policy(cache=False)
        if backend is not None:
            config = EngineConfig(
                backend=backend, compress=config.compress, cache=False
            )
        scenario = Scenario.from_components(
            graph,
            placement,
            mechanism,
            cutoff=cutoff,
            max_paths=max_paths,
            engine=config,
        )
        return scenario.identifiability(max_size=max_size)
    # A concrete SignatureBackend instance cannot ride in a serialisable
    # engine config; run the pathset-level computation directly.
    kwargs = {}
    if cutoff is not None:
        kwargs["cutoff"] = cutoff
    if max_paths is not None:
        kwargs["max_paths"] = max_paths
    pathset = enumerate_paths(graph, placement, mechanism, **kwargs)
    if max_size is None:
        bound = structural_upper_bound(graph, placement, mechanism)
        max_size = bound.combined + 1
    return maximal_identifiability_detailed(pathset, max_size=max_size, backend=backend)


def mu(
    graph: AnyGraph,
    placement: MonitorPlacement,
    mechanism: RoutingMechanism | str = RoutingMechanism.CSP,
    max_size: Optional[int] = None,
    cutoff: Optional[int] = None,
    max_paths: Optional[int] = None,
    backend: BackendSpec = None,
) -> int:
    """End-to-end convenience: µ(G|χ) under a routing mechanism.

    Enumerates ``P(G|χ)``, derives the structural search cap of Section 3 and
    runs the exact computation.  ``max_size`` overrides the cap (useful for
    CAP, where the degree bounds do not apply).

    .. deprecated::
        A thin shim over :meth:`repro.Scenario.mu` — prefer
        ``Scenario.from_components(graph, placement, mechanism).mu().value``
        (bit-identical results).
    """
    _warn_graph_level_shim("mu")
    return _graph_level_detailed(
        graph, placement, mechanism, max_size, cutoff, max_paths, backend
    ).value


def mu_detailed(
    graph: AnyGraph,
    placement: MonitorPlacement,
    mechanism: RoutingMechanism | str = RoutingMechanism.CSP,
    max_size: Optional[int] = None,
    cutoff: Optional[int] = None,
    max_paths: Optional[int] = None,
    backend: BackendSpec = None,
) -> IdentifiabilityResult:
    """Like :func:`mu` but returning the full :class:`IdentifiabilityResult`.

    .. deprecated::
        A thin shim over :meth:`repro.Scenario.mu`; see :func:`mu`.
    """
    _warn_graph_level_shim("mu_detailed")
    return _graph_level_detailed(
        graph, placement, mechanism, max_size, cutoff, max_paths, backend
    )


def separability_matrix(
    pathset: PathSet,
    size: int,
    backend: BackendSpec = None,
    compress: Optional[bool] = None,
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
    return pathset.engine(backend, compress, universe=universe).separability_matrix(
        size, budget=budget
    )
