"""repro.api — the declarative scenario API.

One spec-driven facade over topology, routing, placement, engine policy and
every analysis:

* :class:`ScenarioSpec` — a frozen, JSON-round-trippable description of one
  scenario (topology source, placement strategy, routing mechanism, failure
  model, :class:`EngineConfig`, seed, requested analyses).
* :mod:`repro.api.registries` — named builders (``topologies``,
  ``placements``, ``mechanisms``); new workloads register with a decorator
  and become addressable from specs, the CLI and pool workers.
* :class:`Scenario` — the facade: lazily materialises graph → paths →
  engine and exposes every analysis as a method returning a typed,
  ``to_dict()``/``to_json()``-able report.

The experiment drivers, the parallel trial executor and the CLI ``--spec``
path are all built on these types.
"""

from repro.api import registries
from repro.api.registries import (
    Registry,
    build_placement,
    build_topology,
    mechanisms,
    placements,
    resolve_mechanism,
    topologies,
)
from repro.api.results import (
    AgridComparisonReport,
    AgridTradeoffReport,
    AnalysisReport,
    BoundsReport,
    LocalizationReport,
    MeasurementReport,
    MuReport,
    SeparabilityReport,
    TruncatedMuReport,
)
from repro.api.scenario import Scenario
from repro.api.serialize import to_jsonable
from repro.api.spec import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    AnalysisSpec,
    EngineConfig,
    FailureModel,
    PlacementSpec,
    RoutingSpec,
    ScenarioSpec,
    TopologySpec,
    UniverseSpec,
    load_spec_batch,
)

__all__ = [
    # spec
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "ScenarioSpec",
    "UniverseSpec",
    "TopologySpec",
    "PlacementSpec",
    "RoutingSpec",
    "FailureModel",
    "AnalysisSpec",
    "EngineConfig",
    "load_spec_batch",
    # facade
    "Scenario",
    # registries
    "registries",
    "Registry",
    "topologies",
    "placements",
    "mechanisms",
    "build_topology",
    "build_placement",
    "resolve_mechanism",
    # results
    "AnalysisReport",
    "MuReport",
    "TruncatedMuReport",
    "SeparabilityReport",
    "LocalizationReport",
    "MeasurementReport",
    "BoundsReport",
    "AgridComparisonReport",
    "AgridTradeoffReport",
    # serialisation
    "to_jsonable",
]
