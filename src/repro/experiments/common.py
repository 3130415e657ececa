"""Shared plumbing for the experiment drivers (Section 8).

The paper's experiments all follow the same skeleton: take a network ``G``,
pick a dimension ``d`` (``log N`` or ``sqrt(log N)``), run Agrid to obtain
``G^A``, place 2d monitors on both graphs (MDMP or random), enumerate the CSP
measurement paths and compute µ (exact or truncated) on both.  This module
factors that skeleton out so each table driver stays small and declarative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import networkx as nx

from repro._typing import AnyGraph
from repro.agrid.algorithm import AgridResult, agrid
from repro.api.spec import EngineConfig, UniverseSpec
from repro.core.bounds import structural_upper_bound
from repro.core.identifiability import maximal_identifiability_detailed
from repro.core.truncated import truncated_identifiability
from repro.engine.cache import cached_enumerate_paths
from repro.exceptions import ExperimentError
from repro.failures.universe import FailureUniverse
from repro.routing.paths import enumerate_paths
from repro.monitors.placement import MonitorPlacement
from repro.routing.mechanisms import RoutingMechanism
from repro.routing.paths import PathSet
from repro.topology.base import min_degree
from repro.utils.seeds import RngLike, resolve_rng

def _resolve_measure_universe(
    pathset: PathSet, universe
) -> Optional[FailureUniverse]:
    """Resolve a driver-level ``universe`` argument against a path set.

    Returns ``None`` for node mode — so the node-mode code path below stays
    exactly the pre-universe computation — and a built
    :class:`FailureUniverse` otherwise.
    """
    if universe is None:
        return None
    if isinstance(universe, str):
        if universe == "node":
            return None
        return pathset.universe(universe)
    if isinstance(universe, UniverseSpec):
        if universe.kind == "node":
            return None
        return universe.resolve(pathset)
    raise ExperimentError(
        f"universe must be None, a kind name or a UniverseSpec, "
        f"got {type(universe).__name__}"
    )


def coerce_universe_spec(universe) -> UniverseSpec:
    """A driver-level ``universe`` argument as a :class:`UniverseSpec`.

    The table drivers historically took a kind *name* (``"node"`` /
    ``"link"``); the CLI's ``srlg:<groups.json>`` form hands them a full
    :class:`UniverseSpec` instead.  Both coerce here, so every driver
    threads one spec object into its per-trial :class:`FailureModel`.
    """
    if isinstance(universe, UniverseSpec):
        return universe
    return UniverseSpec(kind=universe)


def dimension_log(n_nodes: int, graph: Optional[AnyGraph] = None) -> int:
    """The ``d = log N`` rule of Section 8 (base-2 log, floored, minimum 2).

    With base 2 the rule reproduces the monitor counts of the paper's tables
    (d = 3 for the 14/15-node networks and for the 8-10 node random graphs).
    When the resulting d does not exceed the minimal degree of the graph —
    so that Agrid would leave the graph unchanged — one extra dimension is
    added, as the paper does for the smallest networks (Table 5).
    """
    if n_nodes < 2:
        raise ExperimentError(f"need at least 2 nodes, got {n_nodes}")
    d = max(2, math.floor(math.log2(n_nodes)))
    if graph is not None and d <= min_degree(graph):
        d += 1
    return d


def dimension_sqrt_log(n_nodes: int, graph: Optional[AnyGraph] = None) -> int:
    """The ``d = sqrt(log N)`` rule of Section 8 (floored, minimum 2)."""
    if n_nodes < 2:
        raise ExperimentError(f"need at least 2 nodes, got {n_nodes}")
    d = max(2, math.floor(math.sqrt(math.log2(n_nodes))))
    if graph is not None and d <= min_degree(graph):
        d += 1
    return d


DIMENSION_RULES: dict = {
    "log": dimension_log,
    "sqrt_log": dimension_sqrt_log,
}


def resolve_dimension(rule: str, graph: AnyGraph) -> int:
    """Apply a named dimension rule ('log' or 'sqrt_log') to a graph."""
    if rule not in DIMENSION_RULES:
        raise ExperimentError(
            f"unknown dimension rule {rule!r}; expected one of {sorted(DIMENSION_RULES)}"
        )
    return DIMENSION_RULES[rule](graph.number_of_nodes(), graph)


@dataclass(frozen=True)
class NetworkMeasurement:
    """µ and the structural statistics of one (graph, placement) evaluation —
    one column of Tables 3-5."""

    mu: int
    n_paths: int
    n_edges: int
    min_degree: int
    n_inputs: int
    n_outputs: int

    @property
    def n_monitors(self) -> int:
        return self.n_inputs + self.n_outputs


def measure_network(
    graph: AnyGraph,
    placement: MonitorPlacement,
    mechanism: RoutingMechanism | str = RoutingMechanism.CSP,
    truncation: Optional[int] = None,
    max_paths: Optional[int] = None,
    cutoff: Optional[int] = None,
    engine: Optional[EngineConfig] = None,
    universe=None,
) -> NetworkMeasurement:
    """Enumerate paths and compute (possibly truncated) µ for one network.

    Path sets are obtained through the keyed cache of
    :mod:`repro.engine.cache`, so repeated table rows over the same
    ``(graph, placement, mechanism)`` triple enumerate (and intern
    signatures) only once per process.  The enumeration limits are forwarded
    explicitly — ``None`` means "the enumeration default" for both — and the
    cache normalises them, so equal requests always share one entry however
    the defaults are spelled.

    ``engine`` scopes the signature-engine configuration (compression,
    cache use, budgets) to this measurement; ``None`` means
    ``EngineConfig()``.

    ``universe`` selects the failure universe µ ranges over: ``None`` /
    ``"node"`` (the bit-identical historical behaviour), ``"link"``, or a
    :class:`~repro.api.spec.UniverseSpec` (the SRLG route).  Because the
    universes of one path set share its cache entry, a node-mode and a
    link-mode measurement of the same triple enumerate paths only once.
    """
    mechanism = RoutingMechanism.parse(mechanism)
    engine = engine or EngineConfig()
    if engine.cache:
        pathset: PathSet = cached_enumerate_paths(
            graph, placement, mechanism, cutoff=cutoff, max_paths=max_paths
        )
    else:
        kwargs = {}
        if cutoff is not None:
            kwargs["cutoff"] = cutoff
        if max_paths is not None:
            kwargs["max_paths"] = max_paths
        pathset = enumerate_paths(graph, placement, mechanism, **kwargs)
    resolved = _resolve_measure_universe(pathset, universe)
    if truncation is not None:
        mu_value = truncated_identifiability(
            pathset, truncation, compress=engine.compress,
            universe=resolved, budget=engine.budget(),
        )
    else:
        bound = structural_upper_bound(
            graph, placement, mechanism, universe=resolved
        )
        mu_value = maximal_identifiability_detailed(
            pathset,
            max_size=bound.combined + 1,
            compress=engine.compress,
            universe=resolved,
            budget=engine.budget(),
        ).value
    return NetworkMeasurement(
        mu=mu_value,
        n_paths=pathset.n_paths,
        n_edges=graph.number_of_edges(),
        min_degree=min_degree(graph),
        n_inputs=placement.n_inputs,
        n_outputs=placement.n_outputs,
    )


@dataclass(frozen=True)
class AgridComparison:
    """µ and statistics for a (G, G^A) pair — one half of a Tables 3-5 column
    pair, or one trial of the random-graph / random-monitor experiments."""

    dimension: int
    original: NetworkMeasurement
    boosted: NetworkMeasurement
    n_added_edges: int

    @property
    def improvement(self) -> int:
        """µ(G^A) − µ(G); the paper reports it is never negative."""
        return self.boosted.mu - self.original.mu


def compare_with_agrid(
    graph: nx.Graph,
    dimension: int,
    rng: RngLike = None,
    mechanism: RoutingMechanism | str = RoutingMechanism.CSP,
    truncation: Optional[int] = None,
    placement_builder: Optional[
        Callable[[nx.Graph, int], MonitorPlacement]
    ] = None,
    max_paths: Optional[int] = None,
    engine: Optional[EngineConfig] = None,
    universe=None,
) -> AgridComparison:
    """Run Agrid and measure both G and G^A under the same experiment settings.

    ``placement_builder`` defaults to Agrid's own MDMP placements; passing a
    callable (e.g. a random placement closure) overrides how monitors are
    chosen on *both* graphs, which is what the Tables 11-13 experiments do.
    ``engine`` scopes the signature-engine configuration to both
    measurements (``None`` = ``EngineConfig()``);
    ``universe`` selects the failure universe for both (node mode when
    omitted).
    """
    generator = resolve_rng(rng)
    result: AgridResult = agrid(graph, dimension, rng=generator)
    if placement_builder is None:
        placement_original = result.placement_original
        placement_boosted = result.placement_boosted
    else:
        placement_original = placement_builder(graph, dimension)
        placement_boosted = placement_builder(result.boosted, dimension)
    original = measure_network(
        graph, placement_original, mechanism, truncation, max_paths,
        engine=engine, universe=universe,
    )
    boosted = measure_network(
        result.boosted, placement_boosted, mechanism, truncation, max_paths,
        engine=engine, universe=universe,
    )
    return AgridComparison(
        dimension=dimension,
        original=original,
        boosted=boosted,
        n_added_edges=result.n_added_edges,
    )
