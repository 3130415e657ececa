"""Failure-set inference from Boolean end-to-end measurements.

Given a path set and the measurement vector, the consistent failure sets are
exactly the solutions of the Boolean system (Equation 1).  Identifiability is
the statement that, among failure sets of size at most k, the solution is
unique — this module turns that statement into an operational localiser and a
report object used by the examples and the what-if analyses.

There is one localiser, :func:`consistent_signature_sets`, and it runs on a
:class:`~repro.engine.signatures.SignatureEngine`'s big-int rows.  A set of
elements explains the observations iff the union of its rows equals the
failing paths, so a candidate element is one whose row is a non-empty subset
of them (it touches a failing path and no healthy one), and a candidate set
is consistent iff its union is exactly the failing mask.  Both tests are
``|`` and ``==`` on ints, so under the engine's column compression they run
at the compressed width: every row is class-closed, and
the compressed image preserves union and equality (see
:mod:`repro.engine.compress`).  An observation vector that is not itself
class-closed — a compressed class whose member paths read different bits, or
a 1 on a column no element touches — has no solution at any width, so it
folds to ``()`` before any search.  Node, link and SRLG universes, the
:class:`~repro.tomography.scenario.TomographySession` and the four public
functions below all share this path; the tests hold it to a clause-level
reference oracle of Equation (1).  The forward model,
:func:`measurement_vector`, lives here too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Sequence, Tuple

from repro._typing import MeasurementVector, Node
from repro.engine.signatures import SignatureEngine
from repro.exceptions import IdentifiabilityError
from repro.failures.universe import FailureUniverse
from repro.routing.paths import PathSet
from repro.utils.bitset import indicator, mask_from_indices


def measurement_vector(pathset: PathSet, failure_set: Iterable[Node]) -> MeasurementVector:
    """Simulate the end-to-end measurement: 1 for each path crossing a failure.

    This is the forward model of Boolean network tomography — a path reports 1
    iff at least one of its nodes is in the failure set.  The observation
    vector is the indicator of ``P(F)``: the OR of the failed nodes'
    original-width rows ``P(v)``, read off its binary digits in one C-level
    pass instead of scanning every node of every path, so it is indexed by
    the original paths of ``pathset`` and needs no engine.
    """
    failed = frozenset(failure_set)
    unknown = failed - pathset.node_universe
    if unknown:
        raise IdentifiabilityError(
            f"failure nodes {sorted(map(repr, unknown))} are outside the node universe"
        )
    return indicator(pathset.paths_through_set(failed), pathset.n_paths)



@dataclass(frozen=True)
class LocalizationResult:
    """Outcome of a localisation attempt.

    Attributes
    ----------
    consistent_sets:
        Every failure set of size ≤ ``max_failures`` consistent with the
        observations, in increasing size order.
    unique:
        True when exactly one consistent set exists — the failure is uniquely
        localised.
    localized_set:
        The unique consistent set when ``unique`` is true, else ``None``.
    max_failures:
        The size bound used for the search.
    """

    consistent_sets: Tuple[FrozenSet[Node], ...]
    max_failures: int

    @property
    def unique(self) -> bool:
        return len(self.consistent_sets) == 1

    @property
    def localized_set(self) -> Optional[FrozenSet[Node]]:
        return self.consistent_sets[0] if self.unique else None

    @property
    def ambiguity(self) -> int:
        """Number of consistent candidate failure sets (1 = unique)."""
        return len(self.consistent_sets)

    def contains_truth(self, true_failure_set: Iterable[Node]) -> bool:
        """Whether the true failure set is among the consistent candidates."""
        truth = frozenset(true_failure_set)
        return truth in self.consistent_sets


def fold_observations(
    engine: SignatureEngine, observations: Sequence[int]
) -> Optional[int]:
    """The signature of the failing paths, in ``engine``'s columns.

    ``observations`` is an original-width 0/1 vector.  Returns ``None`` when
    the vector is not class-closed under the engine's compression — a
    compressed class whose member paths read different bits, or a 1 on a
    dropped (element-free) column — because no element set can produce such
    a vector, so it has no consistent explanation.  Raises
    :class:`~repro.exceptions.IdentifiabilityError` on a wrong length or a
    bit other than 0/1.
    """
    observations = tuple(observations)
    if len(observations) != engine.n_paths:
        raise IdentifiabilityError(
            f"expected {engine.n_paths} observations, got {len(observations)}"
        )
    for bit in observations:
        if bit not in (0, 1):
            raise IdentifiabilityError(f"observation must be 0 or 1, got {bit!r}")
    if engine.compression is not None:
        observations = engine.compression.compress_indicator(observations)
        if observations is None:
            return None
    failing = itertools.compress(range(len(observations)), observations)
    return mask_from_indices(failing)


def consistent_signature_sets(
    engine: SignatureEngine,
    failing: Optional[int],
    max_failures: int,
    allowed: Optional[Iterable[Node]] = None,
) -> Tuple[FrozenSet[Node], ...]:
    """All element sets of size ≤ ``max_failures`` whose union signature is
    ``failing`` (a signature in ``engine``'s columns, or ``None`` for
    a vector :func:`fold_observations` found inconsistent).

    Candidates are the elements whose row is a non-empty subset of
    ``failing`` (restricted to ``allowed`` when given), in repr order; sets
    are reported size-ascending, each size in :func:`itertools.combinations`
    order — the order of the clause-level reference oracle.
    """
    if max_failures < 0:
        raise IdentifiabilityError(f"max_failures must be >= 0, got {max_failures}")
    if failing is None:
        return ()
    allowed = None if allowed is None else frozenset(allowed)
    rows = {}
    for element in engine.elements:
        if allowed is not None and element not in allowed:
            continue
        row = engine.signature(element)
        if row and row | failing == failing:
            rows[element] = row
    candidates = sorted(rows, key=repr)
    solutions = []
    for size in range(min(max_failures, len(candidates)) + 1):
        for combo in itertools.combinations(candidates, size):
            covered = 0
            for element in combo:
                covered |= rows[element]
            if covered == failing:
                solutions.append(frozenset(combo))
    return tuple(solutions)


def consistent_failure_sets(
    pathset: PathSet,
    observations: Sequence[int],
    max_failures: int,
    universe: Optional[Iterable[Node]] = None,
) -> Tuple[FrozenSet[Node], ...]:
    """All failure sets of size ≤ ``max_failures`` consistent with the
    observations, over the path set's node universe.

    ``universe``, when given, restricts the candidate nodes.
    """
    engine = pathset.engine()
    failing = fold_observations(engine, observations)
    return consistent_signature_sets(engine, failing, max_failures, universe)


def localize_failures(
    pathset: PathSet,
    observations: Sequence[int],
    max_failures: int,
    universe: Optional[Iterable[Node]] = None,
) -> LocalizationResult:
    """Run the Boolean localiser and report uniqueness/ambiguity."""
    sets = consistent_failure_sets(pathset, observations, max_failures, universe)
    return LocalizationResult(consistent_sets=sets, max_failures=max_failures)


def _universe_engine(universe: FailureUniverse) -> SignatureEngine:
    """The engine over ``universe``: its path set's memoised engine, or a
    fresh one for a hand-built (owner-less) universe."""
    owner = universe.owner
    if owner is not None:
        return owner.engine(universe=universe)
    return SignatureEngine.from_universe(universe)


def consistent_element_sets(
    universe: FailureUniverse,
    observations: Sequence[int],
    max_failures: int,
) -> Tuple[FrozenSet[Node], ...]:
    """All element sets of size ≤ ``max_failures`` consistent with the
    observations, over an arbitrary failure universe.

    For the node universe this is exactly :func:`consistent_failure_sets`.
    """
    engine = _universe_engine(universe)
    failing = fold_observations(engine, observations)
    return consistent_signature_sets(engine, failing, max_failures)


def localize_element_failures(
    universe: FailureUniverse,
    observations: Sequence[int],
    max_failures: int,
) -> LocalizationResult:
    """Run the Boolean localiser over an arbitrary failure universe."""
    sets = consistent_element_sets(universe, observations, max_failures)
    return LocalizationResult(consistent_sets=sets, max_failures=max_failures)


def localization_is_unique(
    pathset: PathSet, failure_set: Iterable[Node], max_failures: Optional[int] = None
) -> bool:
    """Simulate a failure and check whether measurements localise it uniquely.

    ``max_failures`` defaults to ``len(failure_set)``, matching the semantics
    of k-identifiability: among failure sets no larger than the true one, the
    truth is the only consistent explanation.
    """
    failed = frozenset(failure_set)
    bound = len(failed) if max_failures is None else max_failures
    observations = measurement_vector(pathset, failed)
    result = localize_failures(pathset, observations, bound)
    return result.unique and result.localized_set == failed


def identifiability_implies_unique_localization(
    pathset: PathSet, failure_sets: Iterable[Iterable[Node]], k: int
) -> bool:
    """Operational restatement of Definition 2.1 used by tests and examples.

    If the universe is k-identifiable, then every failure set of size ≤ k is
    uniquely localised among candidates of size ≤ k.  This helper checks the
    conclusion for an explicit family of failure sets.
    """
    for failure_set in failure_sets:
        failed = frozenset(failure_set)
        if len(failed) > k:
            raise IdentifiabilityError(
                f"failure set {sorted(map(repr, failed))} exceeds the size bound k={k}"
            )
        if not localization_is_unique(pathset, failed, max_failures=k):
            return False
    return True
