"""Bound verification: measure µ exactly and check it against every applicable
theoretical statement.

This is the glue used by the benchmark harness: for a (graph, placement,
mechanism) triple it produces a :class:`VerificationReport` with the computed
µ, the structural upper bounds of Section 3, the topology-specific prediction
(when one applies) and pass/fail flags for each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro._typing import AnyGraph
from repro.analysis.theory import Prediction, predict
from repro.core.bounds import BoundReport, structural_upper_bound
from repro.core.identifiability import IdentifiabilityResult
from repro.monitors.placement import MonitorPlacement
from repro.routing.mechanisms import RoutingMechanism


@dataclass(frozen=True)
class VerificationReport:
    """Exact µ next to every applicable bound / prediction."""

    mu_value: int
    n_paths: int
    bounds: BoundReport
    prediction: Optional[Prediction]
    mechanism: RoutingMechanism
    search_exhausted: bool

    @property
    def respects_upper_bounds(self) -> bool:
        """µ never exceeds the Section 3 combined structural upper bound."""
        return self.mu_value <= self.bounds.combined

    @property
    def matches_prediction(self) -> bool:
        """µ falls in the predicted range (vacuously true with no prediction)."""
        if self.prediction is None:
            return True
        return self.prediction.contains(self.mu_value)

    @property
    def all_checks_pass(self) -> bool:
        return self.respects_upper_bounds and self.matches_prediction

    def summary(self) -> str:
        """One-line summary for logs and benchmark output."""
        predicted = (
            f"{self.prediction.lower}..{self.prediction.upper} ({self.prediction.theorem})"
            if self.prediction
            else "n/a"
        )
        return (
            f"mu={self.mu_value} |P|={self.n_paths} bound<={self.bounds.combined} "
            f"predicted={predicted} "
            f"[{'OK' if self.all_checks_pass else 'MISMATCH'}]"
        )


def verify(
    graph: AnyGraph,
    placement: MonitorPlacement,
    mechanism: RoutingMechanism | str = RoutingMechanism.CSP,
    max_size: Optional[int] = None,
) -> VerificationReport:
    """Compute µ exactly and check it against bounds and predictions.

    Runs on the :class:`repro.api.scenario.Scenario` facade with the default
    engine config (uncached enumeration).
    """
    from repro.api.scenario import Scenario
    from repro.api.spec import EngineConfig

    mechanism = RoutingMechanism.parse(mechanism)
    scenario = Scenario.from_components(
        graph, placement, mechanism, engine=EngineConfig(cache=False)
    )
    result: IdentifiabilityResult = scenario.identifiability(max_size=max_size)
    bounds = structural_upper_bound(graph, placement, mechanism)
    prediction = predict(graph, placement)
    return VerificationReport(
        mu_value=result.value,
        n_paths=scenario.pathset.n_paths,
        bounds=bounds,
        prediction=prediction,
        mechanism=mechanism,
        search_exhausted=result.exhausted_search,
    )
