"""Tables 8-10: truncated maximal identifiability µ_λ (Section 8.0.3).

Computing exact µ for many Agrid samples is expensive, so the paper compares
``µ_λ(G)`` with ``µ_λ(G^A)`` where the truncation level λ is the average
degree of the graph being measured.  For a fixed network G the experiment
draws 30 independent G^A samples (Agrid is randomised) and reports, for each
possible value of µ_λ, the percentage of samples attaining it — one row for
the (deterministic) G and one for the G^A distribution, as in Tables 8, 9
and 10.  Only the ``d = log N`` case is reported, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import networkx as nx

from repro.api.spec import (
    EngineConfig,
    FailureModel,
    PlacementSpec,
    RoutingSpec,
    ScenarioSpec,
    TopologySpec,
)
from repro.core.truncated import default_truncation_level
from repro.exceptions import ExperimentError
from repro.experiments.common import coerce_universe_spec, resolve_dimension
from repro.experiments.parallel import TrialSpec, run_trials
from repro.resilience.pool import ExecutionPolicy
from repro.routing.mechanisms import RoutingMechanism
from repro.topology import zoo
from repro.utils.seeds import RngLike, spawn_rng, spawn_seed
from repro.utils.tables import format_percentage, format_table

#: The networks of Tables 8, 9 and 10 in paper order.
TRUNCATED_TABLES: Dict[str, str] = {
    "claranet": "Table 8",
    "gridnetwork": "Table 9",
    "eunetwork_small": "Table 10",
}

#: Number of independent G^A samples, as in the paper.
PAPER_N_SAMPLES = 30


@dataclass(frozen=True)
class TruncatedDistribution:
    """Distribution of µ_λ values over Agrid samples (or the single G value)."""

    truncation: int
    counts: Dict[int, int]

    @property
    def n_samples(self) -> int:
        return sum(self.counts.values())

    def fraction(self, value: int) -> float:
        if self.n_samples == 0:
            return 0.0
        return self.counts.get(value, 0) / self.n_samples

    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(self.counts))

    @property
    def mean(self) -> float:
        if self.n_samples == 0:
            return 0.0
        return sum(value * count for value, count in self.counts.items()) / self.n_samples


@dataclass(frozen=True)
class TruncatedResult:
    """One full Table 8/9/10 for one network."""

    network: str
    n_nodes: int
    dimension: int
    original: TruncatedDistribution
    boosted: TruncatedDistribution

    def render(self) -> str:
        values = sorted(set(self.original.support()) | set(self.boosted.support()) | {0, 1, 2})
        headers = ["graph \\ mu_lambda"] + [str(v) for v in values]
        rows = [
            [f"[{self.original.truncation}]G"]
            + [format_percentage(self.original.fraction(v)) for v in values],
            [f"[{self.boosted.truncation}]G^A"]
            + [format_percentage(self.boosted.fraction(v)) for v in values],
        ]
        title = f"{self.network} (|V| = {self.n_nodes}, d = {self.dimension})"
        return format_table(headers, rows, title=title)

    @property
    def boosted_dominates(self) -> bool:
        """The qualitative claim of Tables 8-10: the G^A distribution puts all
        of its mass at values at least as large as the best value G attains."""
        return self.boosted.mean >= self.original.mean


def truncated_trial(spec: ScenarioSpec) -> Tuple[int, int]:
    """One Table-8/9/10 sample: draw G^A, return (µ_λ(G^A), λ).

    The whole sample is one pickled, self-contained
    :class:`~repro.api.spec.ScenarioSpec`: an ``agrid``-boosted literal
    topology (the boost consumes the spec's seeded stream, exactly as the
    old hand-rolled trial did), MDMP placement, mechanism and engine config.
    Materialised through the :class:`~repro.api.scenario.Scenario` facade, so
    the Agrid samples can be fanned out over a process pool by
    :mod:`repro.experiments.parallel` with no process-global state.
    """
    scenario = spec.build()
    truncation = default_truncation_level(scenario.graph)
    return scenario.truncated(truncation).value, truncation


def run_truncated_experiment(
    graph: nx.Graph,
    n_samples: int = PAPER_N_SAMPLES,
    rng: RngLike = 2018,
    mechanism: RoutingMechanism | str = RoutingMechanism.CSP,
    dimension: Optional[int] = None,
    jobs: int = 1,
    universe: str = "node",
    engine: Optional[EngineConfig] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> TruncatedResult:
    """Run the µ_λ comparison on one network (``jobs`` workers).

    ``universe`` selects the failure universe of every µ_λ (``"node"`` — the
    bit-identical default — or ``"link"``); it travels inside each sample's
    pickled spec and the facade's ``truncated`` analysis honours it, like
    ``engine`` (default: ``EngineConfig()``).  ``policy`` is the pool's
    execution policy."""
    if n_samples < 1:
        raise ExperimentError(f"n_samples must be >= 1, got {n_samples}")
    mechanism = RoutingMechanism.parse(mechanism)
    d = dimension if dimension is not None else resolve_dimension("log", graph)

    engine = engine or EngineConfig()
    routing = RoutingSpec(mechanism=mechanism.value)
    failures = FailureModel(universe=coerce_universe_spec(universe))
    base_topology = TopologySpec.from_graph(graph)
    placement = PlacementSpec("mdmp", {"d": d})

    # The base graph is one more sample: its literal topology, measured in
    # the seed slot the driver has always spent on it.
    original_mu, original_truncation = truncated_trial(
        ScenarioSpec(
            topology=base_topology,
            placement=placement,
            routing=routing,
            failures=failures,
            engine=engine,
            seed=spawn_seed(rng, 0),
        )
    )
    original = TruncatedDistribution(
        truncation=original_truncation, counts={original_mu: 1}
    )

    specs = [
        TrialSpec(
            truncated_trial,
            (
                ScenarioSpec(
                    topology=TopologySpec(
                        "agrid", {"base": base_topology.to_dict(), "dimension": d}
                    ),
                    placement=placement,
                    routing=routing,
                    failures=failures,
                    engine=engine,
                    seed=spawn_seed(rng, sample + 1),
                    label=f"truncated {graph.name or 'G'} sample={sample}",
                ),
            ),
            label=f"truncated {graph.name or 'G'} sample={sample}",
        )
        for sample in range(n_samples)
    ]
    boosted_counts: Dict[int, int] = {}
    boosted_truncation = original_truncation
    for mu, truncation in run_trials(specs, jobs=jobs, policy=policy):
        boosted_truncation = truncation
        boosted_counts[mu] = boosted_counts.get(mu, 0) + 1
    boosted = TruncatedDistribution(truncation=boosted_truncation, counts=boosted_counts)
    return TruncatedResult(
        network=graph.name or "G",
        n_nodes=graph.number_of_nodes(),
        dimension=d,
        original=original,
        boosted=boosted,
    )


def run_table8(
    n_samples: int = PAPER_N_SAMPLES, rng: RngLike = 2018, jobs: int = 1,
    universe: str = "node",
) -> TruncatedResult:
    """Table 8: Claranet."""
    return run_truncated_experiment(
        zoo.claranet(), n_samples, rng, jobs=jobs, universe=universe
    )


def run_table9(
    n_samples: int = PAPER_N_SAMPLES, rng: RngLike = 2018, jobs: int = 1,
    universe: str = "node",
) -> TruncatedResult:
    """Table 9: GridNetwork (|V| = 7)."""
    return run_truncated_experiment(
        zoo.gridnetwork(), n_samples, rng, jobs=jobs, universe=universe
    )


def run_table10(
    n_samples: int = PAPER_N_SAMPLES, rng: RngLike = 2018, jobs: int = 1,
    universe: str = "node",
) -> TruncatedResult:
    """Table 10: the 7-node EuNetwork."""
    return run_truncated_experiment(
        zoo.eunetwork_small(), n_samples, rng, jobs=jobs, universe=universe
    )


def run_all_truncated(
    n_samples: int = PAPER_N_SAMPLES, rng: RngLike = 2018, jobs: int = 1,
    universe: str = "node",
    engine: Optional[EngineConfig] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> Dict[str, TruncatedResult]:
    """Run Tables 8-10 and return results keyed by network name."""
    return {
        name: run_truncated_experiment(
            zoo.load(name), n_samples, spawn_rng(rng, i), jobs=jobs,
            universe=universe, engine=engine, policy=policy,
        )
        for i, name in enumerate(TRUNCATED_TABLES)
    }
