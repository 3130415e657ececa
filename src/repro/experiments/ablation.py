"""Ablation studies (not in the paper's tables; motivated by Section 9).

Two design choices of Agrid/MDMP are ablated:

1. **Monitor-placement heuristic** — MDMP (minimal degree) vs uniformly random
   vs degree-extremes.  Theorem 5.4 says the hypergrid guarantee is placement
   independent; the ablation measures how much the heuristic matters on the
   quasi-tree zoo networks.
2. **Agrid edge-selection rule** — uniform random endpoints (Algorithm 1) vs
   the Section-9 variants (prefer low-degree endpoints, prefer far-away
   endpoints).

Both ablations report the mean µ over repeated randomised runs so the
benchmark harness can print a compact comparison table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import networkx as nx

from repro.api.registries import AGRID_SELECTORS
from repro.api.spec import (
    EngineConfig,
    FailureModel,
    PlacementSpec,
    RoutingSpec,
    ScenarioSpec,
    TopologySpec,
)
from repro.exceptions import ExperimentError
from repro.experiments.common import coerce_universe_spec, resolve_dimension
from repro.experiments.parallel import TrialSpec, run_trials
from repro.resilience.pool import ExecutionPolicy
from repro.routing.mechanisms import RoutingMechanism
from repro.utils.seeds import RngLike, spawn_rng, spawn_seed
from repro.utils.tables import format_table


@dataclass(frozen=True)
class AblationCell:
    """Mean µ (and extremes) of one ablation variant over repeated runs."""

    variant: str
    n_runs: int
    mean_mu: float
    min_mu: int
    max_mu: int


@dataclass(frozen=True)
class AblationResult:
    """All variants of one ablation on one network."""

    network: str
    dimension: int
    cells: Dict[str, AblationCell]

    def render(self, title: str) -> str:
        headers = ("variant", "runs", "mean mu", "min", "max")
        rows = [
            (cell.variant, cell.n_runs, round(cell.mean_mu, 3), cell.min_mu, cell.max_mu)
            for cell in self.cells.values()
        ]
        return format_table(headers, rows, title=f"{title} — {self.network}")

    def best_variant(self) -> str:
        return max(self.cells.values(), key=lambda cell: cell.mean_mu).variant


#: The placement variants of ablation 1, expressed as spec fragments: each
#: maps to a registered strategy of :data:`repro.api.registries.placements`
#: plus the parameters it needs at dimension ``d``.
PLACEMENT_VARIANTS = ("mdmp", "random", "degree_extremes")

#: The Agrid edge-selection variants of ablation 2 (Section 9), resolved by
#: name through :data:`repro.api.registries.AGRID_SELECTORS`.
SELECTOR_VARIANTS = tuple(AGRID_SELECTORS)


def _placement_spec(placement_name: str, dimension: int) -> PlacementSpec:
    if placement_name == "random":
        return PlacementSpec(
            "random", {"n_inputs": dimension, "n_outputs": dimension}
        )
    return PlacementSpec(placement_name, {"d": dimension})


def ablation_trial(spec: ScenarioSpec) -> int:
    """One ablation run: boost with the named selector, place with the named
    heuristic, return µ(G^A).

    The run is one pickled :class:`~repro.api.spec.ScenarioSpec`: an
    ``agrid``-boosted literal topology (the boost and a stochastic placement
    share the spec's seeded stream, in that order — exactly the pre-spec
    trial flow) materialised through the facade.
    """
    return spec.build().measurement().mu


def _run_variant(
    graph: nx.Graph,
    dimension: int,
    n_runs: int,
    rng: RngLike,
    variant: str,
    selector_name: str,
    placement_name: str,
    mechanism: RoutingMechanism | str,
    jobs: int = 1,
    universe: str = "node",
    engine: Optional[EngineConfig] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> AblationCell:
    mechanism = RoutingMechanism.parse(mechanism)
    engine = engine or EngineConfig()
    failures = FailureModel(universe=coerce_universe_spec(universe))
    base_topology = TopologySpec.from_graph(graph).to_dict()
    specs = [
        TrialSpec(
            ablation_trial,
            (
                ScenarioSpec(
                    topology=TopologySpec(
                        "agrid",
                        {
                            "base": base_topology,
                            "dimension": dimension,
                            "selector": selector_name,
                        },
                    ),
                    placement=_placement_spec(placement_name, dimension),
                    routing=RoutingSpec(mechanism=mechanism.value),
                    failures=failures,
                    engine=engine,
                    seed=spawn_seed(rng, run),
                    label=f"ablation {variant} run={run}",
                ),
            ),
            label=f"ablation {variant} run={run}",
        )
        for run in range(n_runs)
    ]
    values = run_trials(specs, jobs=jobs, policy=policy)
    return AblationCell(
        variant=variant,
        n_runs=n_runs,
        mean_mu=sum(values) / len(values),
        min_mu=min(values),
        max_mu=max(values),
    )


def placement_ablation(
    graph: nx.Graph,
    n_runs: int = 5,
    rng: RngLike = 2018,
    mechanism: RoutingMechanism | str = RoutingMechanism.CSP,
    dimension: Optional[int] = None,
    jobs: int = 1,
    universe: str = "node",
    engine: Optional[EngineConfig] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> AblationResult:
    """Ablation 1: how the monitor-placement heuristic affects µ(G^A).

    Each variant's runs are seeded by the variant's *position* in the
    registry (an earlier version salted with ``hash(name)``, which Python
    randomises per process, making results irreproducible across runs).
    """
    if n_runs < 1:
        raise ExperimentError(f"n_runs must be >= 1, got {n_runs}")
    d = dimension if dimension is not None else resolve_dimension("log", graph)

    cells = {
        name: _run_variant(
            graph, d, n_runs, spawn_rng(rng, index), name,
            "uniform", name, mechanism, jobs=jobs, universe=universe,
            engine=engine, policy=policy,
        )
        for index, name in enumerate(PLACEMENT_VARIANTS)
    }
    return AblationResult(network=graph.name or "G", dimension=d, cells=cells)


def selector_ablation(
    graph: nx.Graph,
    n_runs: int = 5,
    rng: RngLike = 2018,
    mechanism: RoutingMechanism | str = RoutingMechanism.CSP,
    dimension: Optional[int] = None,
    jobs: int = 1,
    universe: str = "node",
    engine: Optional[EngineConfig] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> AblationResult:
    """Ablation 2: how Agrid's edge-selection rule affects µ(G^A)."""
    if n_runs < 1:
        raise ExperimentError(f"n_runs must be >= 1, got {n_runs}")
    d = dimension if dimension is not None else resolve_dimension("log", graph)

    cells = {
        name: _run_variant(
            graph, d, n_runs, spawn_rng(rng, index), name,
            name, "mdmp", mechanism, jobs=jobs, universe=universe,
            engine=engine, policy=policy,
        )
        for index, name in enumerate(SELECTOR_VARIANTS)
    }
    return AblationResult(network=graph.name or "G", dimension=d, cells=cells)
