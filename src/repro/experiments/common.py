"""Dimension rules and universe coercion shared by the experiment drivers
(Section 8).

Every Agrid table picks a dimension ``d`` from the network size — ``log N``
or ``sqrt(log N)`` — and every driver threads one failure universe into its
trials.  Both rules live here; the measurement itself goes through the
:class:`~repro.api.scenario.Scenario` facade.
"""

from __future__ import annotations

import math
from typing import Optional

from repro._typing import AnyGraph
from repro.api.spec import UniverseSpec
from repro.exceptions import ExperimentError
from repro.topology.base import min_degree


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
