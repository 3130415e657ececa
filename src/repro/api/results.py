"""Typed result objects returned by the :class:`~repro.api.scenario.Scenario`
facade.

Every analysis method returns one of these frozen dataclasses; all of them
serialise with ``to_dict()`` (JSON-normal data via
:func:`repro.api.serialize.to_jsonable`) and ``to_json()``, so a scenario's
whole output can be archived or shipped over the wire without bespoke glue.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.api.serialize import to_jsonable


class AnalysisReport:
    """Serialisation mixin shared by every facade result."""

    def to_dict(self) -> Dict[str, Any]:
        return to_jsonable(self)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)


@dataclass(frozen=True)
class MuReport(AnalysisReport):
    """Exact maximal identifiability µ plus the search diagnostics."""

    value: int
    searched_up_to: int
    exhausted_search: bool
    #: The smallest confusable pair found, as a pair of sorted element lists
    #: (``None`` when the search exhausted without a collision).
    witness: Optional[Tuple[Tuple[Any, ...], Tuple[Any, ...]]]
    #: The structural upper bound that capped the search — Section 3 for the
    #: node universe, the conservative universe-size cap otherwise (``None``
    #: when the caller overrode ``max_size``).
    bound: Optional[int]
    n_paths: int
    #: Number of failure elements in the universe µ was computed over (the
    #: node count in node mode — the field name predates the element-generic
    #: universes and is kept for output compatibility).
    n_nodes: int
    mechanism: str
    #: The failure-universe kind the search ranged over.
    universe: str = "node"


@dataclass(frozen=True)
class TruncatedMuReport(AnalysisReport):
    """Truncated maximal identifiability µ_α."""

    value: int
    alpha: int
    exhausted_search: bool
    n_paths: int
    mechanism: str
    universe: str = "node"


@dataclass(frozen=True)
class SeparabilityReport(AnalysisReport):
    """Pairwise separation census at a fixed subset size."""

    size: int
    n_pairs: int
    n_inseparable: int
    #: The inseparable pairs themselves (each a pair of sorted element lists).
    inseparable: Tuple[Tuple[Tuple[Any, ...], Tuple[Any, ...]], ...]
    universe: str = "node"

    @property
    def all_separable(self) -> bool:
        return self.n_inseparable == 0


@dataclass(frozen=True)
class LocalizationReport(AnalysisReport):
    """Aggregate of a Monte-Carlo failure-localisation campaign."""

    failure_size: int
    n_trials: int
    n_unique: int
    unique_rate: float
    mean_ambiguity: float
    mu: int
    universe: str = "node"


@dataclass(frozen=True)
class MeasurementReport(AnalysisReport):
    """µ plus the structural statistics of one (graph, placement) evaluation
    — the column format of the paper's Tables 3-5."""

    mu: int
    n_paths: int
    n_edges: int
    min_degree: int
    n_inputs: int
    n_outputs: int
    #: The failure universe µ was computed over.
    universe: str
    #: Histogram ``length (in edges, as str) -> path count`` of the
    #: measurement paths (:func:`repro.routing.paths.path_length_histogram`),
    #: so path statistics are reachable from the report without dropping to
    #: the routing layer.
    path_lengths: Dict[str, int]

    @property
    def n_monitors(self) -> int:
        return self.n_inputs + self.n_outputs


@dataclass(frozen=True)
class BoundsReport(AnalysisReport):
    """The structural upper bounds — Section 3 for the node universe; for
    link/SRLG universes only ``combined`` is set (the conservative
    universe-size cap), since no Section-3 theorem applies there."""

    combined: int
    degree: Optional[int]
    monitor_count: Optional[int]
    edge_count: Optional[int]
    mechanism: str
    universe: str = "node"


@dataclass(frozen=True)
class AgridComparisonReport(AnalysisReport):
    """µ and statistics for a (G, G^A) Agrid pair."""

    dimension: int
    original: MeasurementReport
    boosted: MeasurementReport
    n_added_edges: int

    @property
    def improvement(self) -> int:
        """µ(G^A) − µ(G); the paper reports it is never negative."""
        return self.boosted.mu - self.original.mu


@dataclass(frozen=True)
class AgridTradeoffReport(AnalysisReport):
    """The Section-7.1.1 cost-benefit picture for boosting this scenario."""

    comparison: AgridComparisonReport
    horizon: int
    baseline_testing_cost: float
    link_installation_cost: float
    boosted_testing_cost: float
    kappa: float
    worthwhile: bool
