"""repro — Boolean network tomography: maximal identifiability of failure nodes.

A complete, laptop-scale reproduction of

    Galesi & Ranjbar, "Tight bounds for maximal identifiability of failure
    nodes in Boolean network tomography", ICDCS 2018 (arXiv:1712.09856).

The package provides:

* **Topologies** (:mod:`repro.topology`) — directed/undirected d-dimensional
  hypergrids, trees, lines, Erdős–Rényi graphs and the small "zoo" networks of
  the experimental section.
* **Monitor placements** (:mod:`repro.monitors`) — the χ_g and χ_t placements,
  the MDMP heuristic and random placements.
* **Routing** (:mod:`repro.routing`) — CAP / CAP⁻ / CSP measurement-path
  enumeration.
* **Signature engine** (:mod:`repro.engine`) — the shared substrate for all
  identifiability queries: interned path-mask signatures, equivalence-class
  collapsing, the exact dominance search for µ, big-int signatures with
  numpy column kernels (numpy is a dependency), and the keyed pathset cache.
* **Identifiability core** (:mod:`repro.core`) — exact maximal identifiability
  µ, truncated µ_α, local identifiability, structural upper bounds and
  separation primitives (thin clients of the engine).
* **Failure universes** (:mod:`repro.failures`) — element-generic failure
  models: the same µ machinery over node failures (the paper's measure), link
  failures, or shared-risk link groups (SRLGs).
* **Boolean tomography** (:mod:`repro.tomography`) — the measurement system of
  Equation (1), failure simulation and localisation, over any failure
  universe.
* **Embeddings** (:mod:`repro.embeddings`) — order embeddings, distance
  increasing/preserving embeddings, order dimension and the Section-6 theorems
  as executable checks.
* **Agrid** (:mod:`repro.agrid`) — the edge-addition heuristic, the Section-7
  network-design recipe and cost-benefit trade-off models.
* **Experiments** (:mod:`repro.experiments`) — drivers regenerating Tables
  3-13 and the ablations.

* **Declarative API** (:mod:`repro.api`) — the stable, spec-driven surface:
  :class:`ScenarioSpec` (JSON-round-trippable scenario descriptions),
  :class:`Scenario` (the facade over graph → paths → engine → analyses) and
  the extensible builder registries (:data:`repro.registries`).

Quickstart
----------

>>> import repro
>>> spec = repro.ScenarioSpec(
...     topology=repro.TopologySpec("claranet"),        # zoo topology
...     placement=repro.PlacementSpec("mdmp", {"d": 4}),  # MDMP monitors
... )                                                   # CSP routing (default)
>>> repro.Scenario(spec).mu().value                     # exact µ(G|χ)
1

Version 3.0.0 removed the graph-level ``mu`` / ``mu_detailed`` /
``mu_truncated`` shims and the process-global engine policies; the README's
"Migration to 3.0.0" table maps each removed name to its replacement.
"""

from repro.__about__ import __version__
from repro.agrid import agrid, design_network
from repro.analysis import verify
from repro.api import registries
from repro.api.scenario import Scenario
from repro.api.spec import (
    AnalysisSpec,
    DeltaSpec,
    EngineConfig,
    FailureModel,
    PlacementSpec,
    RoutingSpec,
    ScenarioSpec,
    TopologySpec,
    UniverseSpec,
)
from repro.failures import FailureUniverse
from repro.engine import SignatureEngine
from repro.core import (
    is_k_identifiable,
    maximal_identifiability,
    structural_upper_bound,
)
from repro.monitors import (
    MonitorPlacement,
    chi_corners,
    chi_g,
    chi_t,
    mdmp_placement,
    random_placement,
)
from repro.exceptions import BudgetExceededError
from repro.resilience import Budget, ChaosConfig, CheckpointJournal, TrialFailure
from repro.routing import PathSet, RoutingMechanism, enumerate_paths
from repro.tomography import TomographySession, localize_failures, measurement_vector
from repro.topology import (
    claranet,
    directed_grid,
    directed_hypergrid,
    erdos_renyi_connected,
    undirected_grid,
    undirected_hypergrid,
)

__all__ = [
    "__version__",
    # declarative scenario API (the stable surface)
    "Scenario",
    "ScenarioSpec",
    "TopologySpec",
    "PlacementSpec",
    "RoutingSpec",
    "FailureModel",
    "UniverseSpec",
    "DeltaSpec",
    "FailureUniverse",
    "AnalysisSpec",
    "EngineConfig",
    "registries",
    # core measure
    "maximal_identifiability",
    "is_k_identifiable",
    "structural_upper_bound",
    "verify",
    # signature engine
    "SignatureEngine",
    # routing
    "PathSet",
    "RoutingMechanism",
    "enumerate_paths",
    # monitors
    "MonitorPlacement",
    "chi_corners",
    "chi_g",
    "chi_t",
    "mdmp_placement",
    "random_placement",
    # topologies
    "claranet",
    "directed_grid",
    "directed_hypergrid",
    "undirected_grid",
    "undirected_hypergrid",
    "erdos_renyi_connected",
    # tomography
    "TomographySession",
    "localize_failures",
    "measurement_vector",
    # resilience
    "Budget",
    "BudgetExceededError",
    "ChaosConfig",
    "CheckpointJournal",
    "TrialFailure",
    # applications
    "agrid",
    "design_network",
]
