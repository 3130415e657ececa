"""End-to-end failure scenarios: sample failures, measure, localise, score.

This is the "systems" face of the library: given a topology, a monitor
placement and a routing mechanism, a :class:`TomographySession` owns the
measurement path set and can

* simulate random failure sets of a given size,
* produce the Boolean measurement vector each failure generates,
* run the localiser and report whether the failure was uniquely identified,
* aggregate success rates over many trials (used by the examples and the
  ablation benchmarks to connect µ with operational localisation accuracy).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, FrozenSet, Iterable, Optional, Sequence, Tuple

from repro._typing import AnyGraph, MeasurementVector, Node
from repro.engine.signatures import SignatureEngine
from repro.exceptions import IdentifiabilityError
from repro.core.bounds import structural_upper_bound
from repro.core.identifiability import resolve_universe
from repro.failures.universe import FailureUniverse
from repro.monitors.placement import MonitorPlacement
from repro.routing.mechanisms import RoutingMechanism
from repro.routing.paths import PathSet, enumerate_paths
from repro.tomography.inference import (
    LocalizationResult,
    consistent_signature_sets,
    fold_observations,
)
from repro.utils.bitset import indicator
from repro.utils.seeds import RngLike, resolve_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api sits above)
    from repro.api.scenario import Scenario


def _check_count(name: str, value: int, minimum: int) -> None:
    """Require a real ``int`` (``bool`` excluded) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise IdentifiabilityError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise IdentifiabilityError(f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class TrialOutcome:
    """Result of a single simulated failure trial."""

    failure_set: FrozenSet[Node]
    observations: MeasurementVector
    localization: LocalizationResult

    @property
    def uniquely_identified(self) -> bool:
        """True when the localiser returned exactly the injected failure set."""
        return (
            self.localization.unique
            and self.localization.localized_set == self.failure_set
        )


@dataclass(frozen=True)
class CampaignReport:
    """Aggregate over a batch of failure trials of a fixed failure size."""

    failure_size: int
    n_trials: int
    n_unique: int
    mean_ambiguity: float

    @property
    def unique_rate(self) -> float:
        """Fraction of trials where the failure was uniquely localised."""
        return self.n_unique / self.n_trials if self.n_trials else 0.0


class TomographySession:
    """Owns the measurement paths of ``(graph, placement, mechanism)``.

    Parameters mirror :func:`repro.routing.paths.enumerate_paths`; the path
    set is computed eagerly at construction so repeated trials are cheap.

    ``universe`` selects the failure universe the session simulates and
    localises over: ``None``/``"node"`` (the default, bit-identical to the
    historical node sessions), ``"link"``, or a built
    :class:`~repro.failures.FailureUniverse` (the SRLG route).  Failure
    sets, measurement vectors and localisation candidates are then sets of
    that universe's elements.
    """

    def __init__(
        self,
        graph: AnyGraph,
        placement: MonitorPlacement,
        mechanism: RoutingMechanism | str = RoutingMechanism.CSP,
        cutoff: Optional[int] = None,
        max_paths: Optional[int] = None,
        *,
        pathset: Optional[PathSet] = None,
        universe: Optional["FailureUniverse | str"] = None,
    ) -> None:
        self.graph = graph
        self.placement = placement
        self.mechanism = RoutingMechanism.parse(mechanism)
        if pathset is None:
            kwargs = {}
            if cutoff is not None:
                kwargs["cutoff"] = cutoff
            if max_paths is not None:
                kwargs["max_paths"] = max_paths
            pathset = enumerate_paths(graph, placement, self.mechanism, **kwargs)
        self.pathset: PathSet = pathset
        #: The failure universe of the session (node mode by default).
        self.universe: FailureUniverse = resolve_universe(pathset, universe)
        #: The shared signature engine; every identifiability and measurement
        #: query of the session runs on these signatures.
        self.engine: SignatureEngine = self.pathset.engine(universe=self.universe)
        #: ``(observations, union signature)`` of the last :meth:`measure`.
        self._measured: Optional[Tuple[MeasurementVector, int]] = None

    @classmethod
    def from_scenario(cls, scenario: "Scenario") -> "TomographySession":
        """A session over a :class:`repro.api.scenario.Scenario`'s pipeline.

        Reuses the scenario's already-enumerated path set and its failure
        universe, so the session shares the interned signatures instead of
        re-enumerating.
        """
        return cls(
            scenario.graph,
            scenario.placement,
            scenario.mechanism,
            pathset=scenario.pathset,
            universe=scenario.universe,
        )

    @property
    def _node_mode(self) -> bool:
        return self.universe.kind == "node"

    # -- identifiability ----------------------------------------------------
    @property
    def mu(self) -> int:
        """Exact maximal identifiability of the session's universe (a repeat
        is answered by the engine's search memo)."""
        bound = structural_upper_bound(
            self.graph, self.placement, self.mechanism,
            universe=None if self._node_mode else self.universe,
        )
        return self.engine.identifiability(max_size=bound.combined + 1).value

    # -- forward model ------------------------------------------------------
    def measure(self, failure_set: Iterable[Node]) -> MeasurementVector:
        """Boolean measurement vector produced by ``failure_set`` (a set of
        this session's universe elements).

        The vector is the indicator of ``P(F)``, the OR of the universe's
        original-width rows, so it needs no trip back through the engine's
        column compression.  The engine's union signature is kept next to
        it: localising this very vector (``run_trial``) reuses it instead of
        folding the vector back into engine columns.
        """
        failed = frozenset(failure_set)
        observations = indicator(
            self.universe.mask_of_set(failed), self.universe.n_paths
        )
        self._measured = (observations, self.engine.union_signature(failed))
        return observations

    def localize(
        self, observations: Sequence[int], max_failures: int
    ) -> LocalizationResult:
        """Run the localiser on an observation vector, over the session
        engine's (compressed) rows; ``()`` when no failure set produces it."""
        measured = self._measured
        if measured is not None and measured[0] is observations:
            failing = measured[1]
        else:
            failing = fold_observations(self.engine, observations)
        sets = consistent_signature_sets(self.engine, failing, max_failures)
        return LocalizationResult(consistent_sets=sets, max_failures=max_failures)

    # -- simulation ---------------------------------------------------------
    @cached_property
    def _sample_pools(self) -> Tuple[Tuple[Node, ...], Tuple[Node, ...]]:
        """The ``(preferred, whole)`` pools of :meth:`sample_failure_set`,
        sorted by ``repr`` once per session: the universe's elements, and in
        node mode the preferred pool leaves out the monitors."""
        elements = tuple(sorted(self.universe.elements, key=repr))
        if not self._node_mode:
            return elements, elements
        monitors = self.placement.monitor_nodes
        return tuple(e for e in elements if e not in monitors), elements

    def sample_failure_set(self, size: int, rng: RngLike = None) -> FrozenSet[Node]:
        """Uniformly random failure set of the given size.

        In node mode, monitors are assumed reliable (Section 2: "monitors by
        default must be reliable"), so failures are drawn from the remaining
        nodes whenever enough of them exist; otherwise from the whole
        universe.  Link and SRLG universes have no monitor elements, so their
        failures are drawn uniformly from all elements.
        """
        _check_count("failure size", size, 0)
        generator = resolve_rng(rng)
        preferred, everything = self._sample_pools
        pool = preferred if len(preferred) >= size else everything
        if size > len(pool):
            raise IdentifiabilityError(
                f"cannot sample {size} failing elements from a pool of {len(pool)}"
            )
        return frozenset(generator.sample(pool, size))

    def run_trial(self, failure_set: Iterable[Node], max_failures: Optional[int] = None) -> TrialOutcome:
        """Inject a failure set, measure, localise."""
        failed = frozenset(failure_set)
        observations = self.measure(failed)
        bound = len(failed) if max_failures is None else max_failures
        localization = self.localize(observations, bound)
        return TrialOutcome(failed, observations, localization)

    def run_campaign(
        self, failure_size: int, n_trials: int, rng: RngLike = None
    ) -> CampaignReport:
        """Aggregate unique-localisation rate over ``n_trials`` random failures.

        When µ ≥ ``failure_size`` the unique rate is guaranteed to be 1.0;
        below µ the rate measures how much practical localisation power the
        topology retains beyond the worst-case guarantee.
        """
        _check_count("failure size", failure_size, 0)
        _check_count("n_trials", n_trials, 1)
        generator = resolve_rng(rng)
        n_unique = 0
        total_ambiguity = 0
        for _ in range(n_trials):
            failure = self.sample_failure_set(failure_size, generator)
            outcome = self.run_trial(failure)
            if outcome.uniquely_identified:
                n_unique += 1
            total_ambiguity += outcome.localization.ambiguity
        return CampaignReport(
            failure_size=failure_size,
            n_trials=n_trials,
            n_unique=n_unique,
            mean_ambiguity=total_ambiguity / n_trials,
        )

    def describe(self) -> str:
        """One-line summary used by examples."""
        universe = "" if self._node_mode else f", universe={self.universe.kind}"
        return (
            f"TomographySession({self.graph.name or 'graph'}, "
            f"|m|={self.placement.n_inputs}, |M|={self.placement.n_outputs}, "
            f"{self.mechanism.value}, |P|={self.pathset.n_paths}{universe})"
        )
