"""Tables 11-13: Agrid gain under random monitor placement (Section 8.0.4).

MDMP is only a heuristic; Theorem 5.4 holds for *any* placement of 2d
monitors, so the Agrid gain should survive random placements.  For a fixed
network G and its Agrid boost G^A (computed once, d = log N), the experiment
draws 20 independent random placements of d input and d output monitors on
each graph, computes exact µ for every placement, and reports the distribution
of µ values for G and for G^A — the layout of Tables 11, 12 and 13.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import networkx as nx

from repro.agrid.algorithm import agrid
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
from repro.topology import zoo
from repro.utils.seeds import RngLike, spawn_rng, spawn_seed
from repro.utils.tables import format_percentage, format_table

#: The networks of Tables 11, 12 and 13 in paper order.
RANDOM_MONITOR_TABLES: Dict[str, str] = {
    "claranet": "Table 11",
    "eunetworks": "Table 12",
    "getnet": "Table 13",
}

#: Number of random placements per graph, as in the paper.
PAPER_N_PLACEMENTS = 20


@dataclass(frozen=True)
class MuDistribution:
    """Distribution of exact µ values over random monitor placements."""

    counts: Dict[int, int]

    @property
    def n_samples(self) -> int:
        return sum(self.counts.values())

    def fraction(self, value: int) -> float:
        if self.n_samples == 0:
            return 0.0
        return self.counts.get(value, 0) / self.n_samples

    @property
    def mean(self) -> float:
        if self.n_samples == 0:
            return 0.0
        return sum(v * c for v, c in self.counts.items()) / self.n_samples

    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(self.counts))


@dataclass(frozen=True)
class RandomMonitorResult:
    """One full Table 11/12/13 for one network."""

    network: str
    n_nodes: int
    dimension: int
    original: MuDistribution
    boosted: MuDistribution

    def render(self) -> str:
        values = sorted(set(self.original.support()) | set(self.boosted.support()) | {0, 1, 2})
        headers = ["graph \\ mu"] + [str(v) for v in values]
        rows = [
            ["G"] + [format_percentage(self.original.fraction(v)) for v in values],
            ["G^A"] + [format_percentage(self.boosted.fraction(v)) for v in values],
        ]
        title = (
            f"{self.network} (|V| = {self.n_nodes}, |m| = |M| = d = {self.dimension}, "
            "random monitors)"
        )
        return format_table(headers, rows, title=title)

    @property
    def boosted_dominates(self) -> bool:
        """The qualitative claim of Tables 11-13: the boosted network's µ
        distribution has a larger mean than the original's."""
        return self.boosted.mean >= self.original.mean


def random_monitor_trial(
    spec_original: ScenarioSpec, spec_boosted: ScenarioSpec
) -> Tuple[int, int]:
    """One Table-11/12/13 trial: draw a random placement pair, measure both µ.

    Each half of the trial is one pickled, fully self-contained
    :class:`~repro.api.spec.ScenarioSpec` — literal graph, random-placement
    strategy, seed and engine config — materialised through the
    :class:`~repro.api.scenario.Scenario` facade, so the trial needs no
    process-global state and can be fanned out over a process pool by
    :mod:`repro.experiments.parallel`.
    """
    return (
        spec_original.build().measurement().mu,
        spec_boosted.build().measurement().mu,
    )


def run_random_monitor_experiment(
    graph: nx.Graph,
    n_placements: int = PAPER_N_PLACEMENTS,
    rng: RngLike = 2018,
    mechanism: RoutingMechanism | str = RoutingMechanism.CSP,
    dimension: Optional[int] = None,
    jobs: int = 1,
    universe: str = "node",
    engine: Optional[EngineConfig] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> RandomMonitorResult:
    """Run the random-monitor comparison on one network (``jobs`` workers).

    ``universe`` selects the failure universe of every µ (``"node"`` — the
    bit-identical default — or ``"link"``); it rides inside each trial's
    pickled spec, and the facade's ``measurement`` analysis honours it, like
    ``engine`` (default: ``EngineConfig()``).  ``policy`` is the pool's
    execution policy."""
    if n_placements < 1:
        raise ExperimentError(f"n_placements must be >= 1, got {n_placements}")
    mechanism = RoutingMechanism.parse(mechanism)
    d = dimension if dimension is not None else resolve_dimension("log", graph)
    boost = agrid(graph, d, rng=spawn_rng(rng, 0))

    engine = engine or EngineConfig()
    routing = RoutingSpec(mechanism=mechanism.value)
    failures = FailureModel(universe=coerce_universe_spec(universe))
    placement_spec = PlacementSpec("random", {"n_inputs": d, "n_outputs": d})
    topology_original = TopologySpec.from_graph(graph)
    topology_boosted = TopologySpec.from_graph(boost.boosted)

    # Seeds are derived in the exact order the serial loop would have used
    # them, so serial and parallel runs see identical placements.
    specs = [
        TrialSpec(
            random_monitor_trial,
            (
                ScenarioSpec(
                    topology=topology_original,
                    placement=placement_spec,
                    routing=routing,
                    failures=failures,
                    engine=engine,
                    seed=spawn_seed(rng, 2 * trial + 1),
                    label=f"{graph.name or 'G'} trial={trial}",
                ),
                ScenarioSpec(
                    topology=topology_boosted,
                    placement=placement_spec,
                    routing=routing,
                    failures=failures,
                    engine=engine,
                    seed=spawn_seed(rng, 2 * trial + 2),
                    label=f"{graph.name or 'G'}^A trial={trial}",
                ),
            ),
            label=f"random-monitor {graph.name or 'G'} trial={trial}",
        )
        for trial in range(n_placements)
    ]
    original_counts: Dict[int, int] = {}
    boosted_counts: Dict[int, int] = {}
    for mu_original, mu_boosted in run_trials(specs, jobs=jobs, policy=policy):
        original_counts[mu_original] = original_counts.get(mu_original, 0) + 1
        boosted_counts[mu_boosted] = boosted_counts.get(mu_boosted, 0) + 1
    return RandomMonitorResult(
        network=graph.name or "G",
        n_nodes=graph.number_of_nodes(),
        dimension=d,
        original=MuDistribution(original_counts),
        boosted=MuDistribution(boosted_counts),
    )


def run_table11(
    n_placements: int = PAPER_N_PLACEMENTS, rng: RngLike = 2018, jobs: int = 1,
    universe: str = "node",
) -> RandomMonitorResult:
    """Table 11: Claranet with random monitors."""
    return run_random_monitor_experiment(
        zoo.claranet(), n_placements, rng, jobs=jobs, universe=universe
    )


def run_table12(
    n_placements: int = PAPER_N_PLACEMENTS, rng: RngLike = 2018, jobs: int = 1,
    universe: str = "node",
) -> RandomMonitorResult:
    """Table 12: EuNetworks with random monitors."""
    return run_random_monitor_experiment(
        zoo.eunetworks(), n_placements, rng, jobs=jobs, universe=universe
    )


def run_table13(
    n_placements: int = PAPER_N_PLACEMENTS, rng: RngLike = 2018, jobs: int = 1,
    universe: str = "node",
) -> RandomMonitorResult:
    """Table 13: GetNet with random monitors."""
    return run_random_monitor_experiment(
        zoo.getnet(), n_placements, rng, jobs=jobs, universe=universe
    )


def run_all_random_monitors(
    n_placements: int = PAPER_N_PLACEMENTS, rng: RngLike = 2018, jobs: int = 1,
    universe: str = "node",
    engine: Optional[EngineConfig] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> Dict[str, RandomMonitorResult]:
    """Run Tables 11-13 and return results keyed by network name."""
    return {
        name: run_random_monitor_experiment(
            zoo.load(name), n_placements, spawn_rng(rng, index), jobs=jobs,
            universe=universe, engine=engine, policy=policy,
        )
        for index, name in enumerate(RANDOM_MONITOR_TABLES)
    }
