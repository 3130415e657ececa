"""Local identifiability (the original measure of Ma et al., Definition 2.1's
footnote in Section 2).

The paper's µ asks every pair of small node sets to be separable.  The
*local* variant of [16, 2] only asks separation for pairs that differ inside a
designated subset ``S ⊆ V`` of "interesting" nodes: the condition
``U △ W ≠ ∅`` is replaced by ``(U ∩ S) △ (W ∩ S) ≠ ∅``.  Local µ_S is the
largest ``k`` for which every such pair with ``|U|, |W| ≤ k`` has
``P(U) ≠ P(W)``.

Local identifiability is what degenerate loop paths trivially boost (Section
9): a DLP node ``v`` separates ``{v}`` from everything else, so its local
identifiability w.r.t. ``S = {v}`` is as large as the universe.  The module
exists both as public API and to back the DLP discussion tests.

The reduction to the µ search
-----------------------------

Call ``W`` an *S-dominator* of ``v`` when ``v ∈ S∖W`` and
``P(v) ⊆ P(W)``, and let ``m_S`` be the smallest size of an S-dominator.

* ``W`` and ``W ∪ {v}`` differ inside ``S`` (in ``v``) and have the same
  path set, so local identifiability fails at size ``m_S + 1``:
  µ_S ≤ m_S.
* Any failing pair ``(A, B)`` — ``P(A) = P(B)`` and
  ``(A ∩ S) △ (B ∩ S) ≠ ∅`` — has some ``v ∈ (A △ B) ∩ S``; name the sides
  so that ``v ∈ A∖B``.  Then ``P(v) ⊆ P(A) = P(B)``, so ``B`` is an
  S-dominator of ``v`` and the pair fails at size ``max(|A|, |B|) ≥ m_S``:
  µ_S ≥ m_S − 1.  Hence µ_S ∈ {m_S − 1, m_S}.
* µ_S = m_S − 1 exactly when a failing pair has both sides of size at most
  ``m_S``.  Its side ``B`` without ``v`` is then a *minimum* S-dominator of
  ``v``, and its side ``A ∋ v`` has ``|A| ≤ m_S`` and ``P(A) = P(B)``.
  Conversely any such ``A`` and ``B`` fail at size ``m_S``.  Writing
  ``A = {v} ∪ A'``, ``P(A) = P(B)`` says that every row of ``A'`` lies
  inside ``P(B)`` and that ``A'`` hits ``P(B)∖P(v)``.  So µ_S = m_S − 1
  iff, for some ``v ∈ S`` and some minimum S-dominator ``B`` of ``v``,
  ``P(B)∖P(v)`` is covered by at most ``m_S − 1`` elements whose rows lie
  inside ``P(B)``.

Both steps are the bounded hitting-set search of the µ search
(:class:`~repro.engine.signatures.SignatureEngine`, module docstring "The µ
search"): finding ``m_S`` is its iterative deepening with the dominated
targets restricted to ``S``, and the decision is the same descent with
target ``P(B)∖P(v)``, the elements whose rows leave ``P(B)`` excluded, at
depths ``0 .. m_S − 1``.  Three edge cases: ``m_S = 0`` (a scope element on
no path, confusable with ∅) gives 0; no S-dominator up to the cap gives the
cap; and ``S = V`` is µ itself (capped).

These functions are thin clients of
:meth:`SignatureEngine.local_identifiability
<repro.engine.signatures.SignatureEngine.local_identifiability>`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro._typing import Node
from repro.core.identifiability import UniverseLike, resolve_universe
from repro.engine.signatures import _require_int
from repro.exceptions import IdentifiabilityError
from repro.routing.paths import PathSet


def is_locally_k_identifiable(
    pathset: PathSet,
    scope: Iterable[Node],
    k: int,
    *,
    universe: UniverseLike = None,
) -> bool:
    """Local k-identifiability w.r.t. the scope ``S``.

    For all ``U, W`` with ``|U|, |W| ≤ k`` and ``(U ∩ S) △ (W ∩ S) ≠ ∅`` we
    require ``P(U) △ P(W) ≠ ∅``.  ``scope`` must consist of elements of the
    chosen failure universe (nodes by default).
    """
    if _require_int("k", k) < 0:
        raise IdentifiabilityError(f"k must be >= 0, got {k}")
    engine = pathset.engine(universe=resolve_universe(pathset, universe))
    return engine.local_identifiability(scope, k) >= k


def local_maximal_identifiability(
    pathset: PathSet,
    scope: Iterable[Node],
    max_size: Optional[int] = None,
    *,
    universe: UniverseLike = None,
) -> int:
    """The largest k such that the universe is locally k-identifiable w.r.t. S.

    Capped at ``max_size`` (default: the universe size).  Note that, unlike
    the global measure, local identifiability can legitimately reach the size
    of the universe when ``S`` is a single well-covered element.
    """
    engine = pathset.engine(universe=resolve_universe(pathset, universe))
    return engine.local_identifiability(scope, max_size)


def local_identifiability_per_node(
    pathset: PathSet,
    max_size: int = 3,
    *,
    universe: UniverseLike = None,
) -> Dict[Node, int]:
    """Local maximal identifiability of every singleton scope ``S = {v}``.

    This is the per-element measure used informally in the DLP discussion: a
    DLP node reaches the cap, while an element sharing all its paths with a
    neighbour stays at 0.  ``max_size`` caps the per-element searches.
    """
    engine = pathset.engine(universe=resolve_universe(pathset, universe))
    return {
        element: engine.local_identifiability({element}, max_size)
        for element in engine.elements
    }
