"""Tables 6 and 7: Agrid on Erdős–Rényi random graphs (Section 8.0.2).

For each node count n ∈ {5, 8, 10} and each batch size (50, 100, 500 in the
paper) the experiment samples connected G(n, p) graphs, applies Agrid with
``d = sqrt(log n)`` (Table 6) or ``d = log n`` (Table 7), places MDMP monitors
on both G and G^A and compares µ.  Reported per cell: the percentage of trials
where µ strictly increased, the percentage where it stayed equal (it never
decreases), and the maximal increment observed (the ``[k]`` prefix in the
paper's cells).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.api.registries import build_topology
from repro.api.scenario import _agrid_comparison
from repro.api.spec import (
    EngineConfig,
    FailureModel,
    PlacementSpec,
    RoutingSpec,
    ScenarioSpec,
    TopologySpec,
)
from repro.exceptions import ExperimentError
from repro.experiments.common import DIMENSION_RULES, coerce_universe_spec
from repro.experiments.parallel import TrialSpec, run_trials
from repro.resilience.pool import ExecutionPolicy
from repro.routing.mechanisms import RoutingMechanism
from repro.topology.random_graphs import DEFAULT_EDGE_PROBABILITY
from repro.utils.seeds import RngLike, spawn_rng, spawn_seed
from repro.utils.tables import format_percentage, format_table

#: Node counts used by the paper.
PAPER_NODE_COUNTS: Tuple[int, ...] = (5, 8, 10)

#: Batch sizes used by the paper (the 500-trial row is omitted for n=10).
PAPER_BATCH_SIZES: Tuple[int, ...] = (50, 100, 500)


@dataclass(frozen=True)
class RandomGraphCell:
    """One cell of Table 6/7: a batch of trials at fixed (n, batch size)."""

    n_nodes: int
    n_trials: int
    dimension_rule: str
    n_improved: int
    n_equal: int
    n_decreased: int
    max_increment: int

    @property
    def fraction_improved(self) -> float:
        return self.n_improved / self.n_trials if self.n_trials else 0.0

    @property
    def fraction_equal(self) -> float:
        return self.n_equal / self.n_trials if self.n_trials else 0.0

    @property
    def never_decreased(self) -> bool:
        """The paper reports µ(G^A) is never strictly smaller than µ(G)."""
        return self.n_decreased == 0

    def render_cell(self) -> str:
        """The paper's cell format, e.g. ``[2]16%`` / ``84%``."""
        return (
            f"[{self.max_increment}]{format_percentage(self.fraction_improved)}"
            f" / {format_percentage(self.fraction_equal)}"
        )


def random_graph_trial(spec: ScenarioSpec, dimension_rule: str) -> int:
    """One Table-6/7 trial: sample G, boost it, return µ(G^A) − µ(G).

    The whole trial — topology source and its parameters, routing mechanism,
    failure universe, engine config and seed — travels inside one pickled
    :class:`~repro.api.spec.ScenarioSpec`; only the dimension rule rides
    alongside, because the dimension depends on the graph that is sampled
    *inside* the trial.  The seed string fully determines both the sampled
    graph and Agrid's randomness (one shared stream, consumed topology-first
    as always), so one cell's trials can be fanned out over a process pool by
    :mod:`repro.experiments.parallel`.
    """
    trial_rng = random.Random(spec.seed)
    graph = build_topology(spec.topology, trial_rng)
    n_nodes = graph.number_of_nodes()
    dimension = DIMENSION_RULES[dimension_rule](n_nodes, graph)
    # Agrid needs d <= n - 1 new-neighbour candidates and MDMP needs 2d
    # distinct monitor nodes, so cap the dimension accordingly.
    dimension = min(dimension, n_nodes - 1, n_nodes // 2)
    routing = spec.routing
    comparison, _ = _agrid_comparison(
        graph, dimension, trial_rng, spec.mechanism, routing.cutoff,
        routing.max_paths, spec.engine, spec.failures,
    )
    return comparison.improvement


def run_random_graph_cell(
    n_nodes: int,
    n_trials: int,
    dimension_rule: str = "log",
    probability: float = DEFAULT_EDGE_PROBABILITY,
    rng: RngLike = 2018,
    mechanism: RoutingMechanism | str = RoutingMechanism.CSP,
    jobs: int = 1,
    universe: str = "node",
    engine: Optional[EngineConfig] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> RandomGraphCell:
    """Run one batch of Agrid-on-random-graph trials (``jobs`` workers).

    ``universe`` selects the failure universe of every µ in the cell
    (``"node"``, the paper's measure and the bit-identical default, or
    ``"link"``); it is stamped into each trial's pickled spec, so it reaches
    the pool workers with no extra plumbing, like ``engine`` (default:
    ``EngineConfig()``).  ``policy`` is the pool's execution policy."""
    if n_trials < 1:
        raise ExperimentError(f"n_trials must be >= 1, got {n_trials}")
    if dimension_rule not in DIMENSION_RULES:
        raise ExperimentError(
            f"unknown dimension rule {dimension_rule!r}; "
            f"expected one of {sorted(DIMENSION_RULES)}"
        )
    mechanism = RoutingMechanism.parse(mechanism)
    engine = engine or EngineConfig()
    failures = FailureModel(universe=coerce_universe_spec(universe))
    specs = [
        TrialSpec(
            random_graph_trial,
            (
                ScenarioSpec(
                    topology=TopologySpec(
                        "erdos_renyi_connected",
                        {"n_nodes": n_nodes, "probability": probability},
                    ),
                    # The MDMP d is resolved in-trial from the sampled graph;
                    # the strategy is recorded here for provenance.
                    placement=PlacementSpec("mdmp"),
                    routing=RoutingSpec(mechanism=mechanism.value),
                    failures=failures,
                    engine=engine,
                    seed=spawn_seed(rng, trial),
                    label=f"random-graph n={n_nodes} trial={trial}",
                ),
                dimension_rule,
            ),
            label=f"random-graph n={n_nodes} trial={trial}",
        )
        for trial in range(n_trials)
    ]
    improvements = run_trials(specs, jobs=jobs, policy=policy)
    improved = sum(1 for delta in improvements if delta > 0)
    equal = sum(1 for delta in improvements if delta == 0)
    decreased = sum(1 for delta in improvements if delta < 0)
    max_increment = max(max(improvements), 0)
    return RandomGraphCell(
        n_nodes=n_nodes,
        n_trials=n_trials,
        dimension_rule=dimension_rule,
        n_improved=improved,
        n_equal=equal,
        n_decreased=decreased,
        max_increment=max_increment,
    )


@dataclass(frozen=True)
class RandomGraphTable:
    """A full Table 6 or Table 7: cells indexed by (batch size, node count)."""

    dimension_rule: str
    cells: Dict[Tuple[int, int], RandomGraphCell]

    def render(self) -> str:
        batch_sizes = sorted({key[0] for key in self.cells})
        node_counts = sorted({key[1] for key in self.cells})
        headers = ["trials"] + [f"n={n}" for n in node_counts]
        rows = []
        for batch in batch_sizes:
            row = [batch]
            for n in node_counts:
                cell = self.cells.get((batch, n))
                row.append(cell.render_cell() if cell else "-")
            rows.append(row)
        title = f"Random graphs, d = {self.dimension_rule}"
        return format_table(headers, rows, title=title)

    @property
    def never_decreased(self) -> bool:
        return all(cell.never_decreased for cell in self.cells.values())


def run_random_graph_table(
    dimension_rule: str,
    node_counts: Sequence[int] = PAPER_NODE_COUNTS,
    batch_sizes: Sequence[int] = (50, 100),
    probability: float = DEFAULT_EDGE_PROBABILITY,
    rng: RngLike = 2018,
    jobs: int = 1,
    universe: str = "node",
    engine: Optional[EngineConfig] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> RandomGraphTable:
    """Run a full random-graph table.

    ``batch_sizes`` defaults to (50, 100); pass ``PAPER_BATCH_SIZES`` to add
    the 500-trial row of the paper (slower, same qualitative picture).
    ``jobs`` fans each cell's trials out over that many worker processes.
    """
    cells: Dict[Tuple[int, int], RandomGraphCell] = {}
    for batch_index, batch in enumerate(batch_sizes):
        for node_index, n_nodes in enumerate(node_counts):
            cell_rng = spawn_rng(rng, 1000 * batch_index + node_index)
            cells[(batch, n_nodes)] = run_random_graph_cell(
                n_nodes,
                batch,
                dimension_rule=dimension_rule,
                probability=probability,
                rng=cell_rng,
                jobs=jobs,
                universe=universe,
                engine=engine,
                policy=policy,
            )
    return RandomGraphTable(dimension_rule=dimension_rule, cells=cells)


def run_table6(
    node_counts: Sequence[int] = PAPER_NODE_COUNTS,
    batch_sizes: Sequence[int] = (50, 100),
    rng: RngLike = 2018,
    jobs: int = 1,
    universe: str = "node",
    engine: Optional[EngineConfig] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> RandomGraphTable:
    """Table 6: the d = sqrt(log n) case."""
    return run_random_graph_table(
        "sqrt_log", node_counts, batch_sizes, rng=rng, jobs=jobs, universe=universe,
        engine=engine, policy=policy,
    )


def run_table7(
    node_counts: Sequence[int] = PAPER_NODE_COUNTS,
    batch_sizes: Sequence[int] = (50, 100),
    rng: RngLike = 2018,
    jobs: int = 1,
    universe: str = "node",
    engine: Optional[EngineConfig] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> RandomGraphTable:
    """Table 7: the d = log n case."""
    return run_random_graph_table(
        "log", node_counts, batch_sizes, rng=rng, jobs=jobs, universe=universe,
        engine=engine, policy=policy,
    )
