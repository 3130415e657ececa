"""Named builder registries behind :class:`~repro.api.spec.ScenarioSpec`.

A spec never carries Python objects — it carries *names* plus JSON-normal
parameters, and the three registries below resolve those names when a
:class:`~repro.api.scenario.Scenario` is materialised:

* :data:`topologies` — ``name -> builder(params, rng) -> graph``
* :data:`placements` — ``name -> builder(graph, params, rng) -> MonitorPlacement``
* :data:`mechanisms` — ``name -> RoutingMechanism`` (plus user aliases)

Registering a new workload is one decorator away::

    from repro.api.registries import topologies

    @topologies.register("ring")
    def _ring(params, rng):
        import networkx as nx
        return nx.cycle_graph(params.get("n", 8))

after which ``{"topology": {"name": "ring", "params": {"n": 12}}}`` is a
valid spec fragment, the CLI ``--spec`` path can run it, and every analysis
of the facade works on it unchanged.

Builders must be deterministic given ``(params, rng)``: all randomness comes
from the ``random.Random`` instance the scenario hands in (derived from the
spec's seed), never from global state.  A scenario consumes its stream in a
fixed order — topology first, then placement — so results are reproducible
and a pickled spec computes identically in any process.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List

from repro.agrid.algorithm import agrid, far_away_selector, low_degree_selector
from repro.api.serialize import decode_node
from repro.exceptions import SpecError
from repro.monitors.grid_placement import chi_corners, chi_g
from repro.monitors.heuristics import (
    all_pairs_placement,
    degree_extremes_placement,
    mdmp_placement,
    random_placement,
)
from repro.monitors.placement import MonitorPlacement
from repro.monitors.tree_placement import chi_t
from repro.routing.mechanisms import RoutingMechanism
from repro.topology import zoo
from repro.topology.grids import (
    directed_grid,
    directed_hypergrid,
    undirected_grid,
    undirected_hypergrid,
)
from repro.topology.random_graphs import (
    DEFAULT_EDGE_PROBABILITY,
    erdos_renyi_connected,
    random_connected_sparse,
)
from repro.topology.trees import complete_kary_tree


class Registry:
    """A name -> builder mapping with decorator registration."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._builders: Dict[str, Callable[..., Any]] = {}

    def register(
        self, name: str, *, overwrite: bool = False
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator: register ``func`` under ``name`` (case-insensitive)."""
        key = str(name).strip().lower()
        if not key:
            raise SpecError(f"{self.kind} names must be non-empty")

        def decorator(func: Callable[..., Any]) -> Callable[..., Any]:
            if key in self._builders and not overwrite:
                raise SpecError(
                    f"{self.kind} {name!r} is already registered; "
                    "pass overwrite=True to replace it"
                )
            self._builders[key] = func
            return func

        return decorator

    def get(self, name: str) -> Callable[..., Any]:
        key = str(name).strip().lower()
        builder = self._builders.get(key)
        if builder is None:
            raise SpecError(
                f"unknown {self.kind} {name!r}; registered: {self.names()}"
            )
        return builder

    def build(self, name: str, *args: Any, **kwargs: Any) -> Any:
        return self.get(name)(*args, **kwargs)

    def names(self) -> List[str]:
        return sorted(self._builders)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.strip().lower() in self._builders

    def __len__(self) -> int:
        return len(self._builders)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self.kind!r}, {len(self)} entries)"


#: Topology builders: ``builder(params, rng) -> graph``.
topologies = Registry("topology")

#: Placement builders: ``builder(graph, params, rng) -> MonitorPlacement``.
placements = Registry("placement")

#: Routing-mechanism resolvers: ``builder() -> RoutingMechanism``.
mechanisms = Registry("mechanism")

#: Agrid edge-selection rules addressable from specs (``None`` = Algorithm 1's
#: uniform choice); shared with the ablation driver.
AGRID_SELECTORS: Dict[str, Any] = {
    "uniform": None,
    "low_degree": low_degree_selector,
    "far_away": far_away_selector,
}


def _require(params: Dict[str, Any], key: str, kind: str) -> Any:
    if key not in params:
        raise SpecError(f"{kind} spec is missing required parameter {key!r}")
    return params[key]


# --------------------------------------------------------------------------
# Topology builders
# --------------------------------------------------------------------------

@topologies.register("zoo")
def _build_zoo(params: Dict[str, Any], rng: random.Random):
    return zoo.load(_require(params, "network", "topology 'zoo'"))


def _register_zoo_networks() -> None:
    for name in zoo.ZOO_REGISTRY:
        @topologies.register(name)
        def _build(params: Dict[str, Any], rng: random.Random, _name=name):
            return zoo.load(_name)


_register_zoo_networks()


@topologies.register("directed_grid")
def _build_directed_grid(params: Dict[str, Any], rng: random.Random):
    return directed_grid(_require(params, "n", "topology 'directed_grid'"))


@topologies.register("undirected_grid")
def _build_undirected_grid(params: Dict[str, Any], rng: random.Random):
    return undirected_grid(_require(params, "n", "topology 'undirected_grid'"))


@topologies.register("directed_hypergrid")
def _build_directed_hypergrid(params: Dict[str, Any], rng: random.Random):
    kind = "topology 'directed_hypergrid'"
    return directed_hypergrid(_require(params, "n", kind), _require(params, "d", kind))


@topologies.register("undirected_hypergrid")
def _build_undirected_hypergrid(params: Dict[str, Any], rng: random.Random):
    kind = "topology 'undirected_hypergrid'"
    return undirected_hypergrid(_require(params, "n", kind), _require(params, "d", kind))


@topologies.register("complete_kary_tree")
def _build_tree(params: Dict[str, Any], rng: random.Random):
    kind = "topology 'complete_kary_tree'"
    return complete_kary_tree(
        depth=_require(params, "depth", kind),
        arity=_require(params, "arity", kind),
        direction=params.get("direction", "down"),
    )


@topologies.register("erdos_renyi_connected")
def _build_erdos_renyi(params: Dict[str, Any], rng: random.Random):
    return erdos_renyi_connected(
        _require(params, "n_nodes", "topology 'erdos_renyi_connected'"),
        params.get("probability", DEFAULT_EDGE_PROBABILITY),
        rng,
    )


@topologies.register("random_connected_sparse")
def _build_sparse(params: Dict[str, Any], rng: random.Random):
    return random_connected_sparse(
        _require(params, "n_nodes", "topology 'random_connected_sparse'"),
        params.get("extra_edges", 0),
        rng,
    )


@topologies.register("graph")
def _build_literal_graph(params: Dict[str, Any], rng: random.Random):
    """The literal escape hatch: an explicit node/edge list.

    Nodes and edges are decoded with :func:`~repro.api.serialize.decode_node`
    (lists become tuples) and added in listed order, so the rebuilt graph has
    the same iteration order as the graph the spec was derived from.
    """
    import networkx as nx

    kind = "topology 'graph'"
    graph = nx.DiGraph() if params.get("directed", False) else nx.Graph()
    name = params.get("name", "")
    if name:
        graph.graph["name"] = name
    graph.add_nodes_from(decode_node(node) for node in _require(params, "nodes", kind))
    for edge in _require(params, "edges", kind):
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            raise SpecError(f"{kind} edges must be [u, v] pairs, got {edge!r}")
        graph.add_edge(decode_node(edge[0]), decode_node(edge[1]))
    return graph


@topologies.register("agrid")
def _build_agrid_boost(params: Dict[str, Any], rng: random.Random):
    """The Agrid-boosted version of a base topology.

    ``params``: ``base`` (a nested topology spec dict), ``dimension`` and an
    optional ``selector`` (one of :data:`AGRID_SELECTORS`).  The base topology
    is built first (consuming the scenario stream if it is stochastic), then
    Algorithm 1 runs on the same stream — the exact order the experiment
    drivers have always used.
    """
    from repro.api.spec import TopologySpec

    kind = "topology 'agrid'"
    base = TopologySpec.from_dict(_require(params, "base", kind))
    dimension = _require(params, "dimension", kind)
    selector_name = params.get("selector", "uniform")
    if selector_name not in AGRID_SELECTORS:
        raise SpecError(
            f"unknown agrid selector {selector_name!r}; "
            f"expected one of {sorted(AGRID_SELECTORS)}"
        )
    graph = build_topology(base, rng)
    selector = AGRID_SELECTORS[selector_name]
    if selector is None:
        return agrid(graph, dimension, rng=rng).boosted
    return agrid(graph, dimension, rng=rng, selector=selector).boosted


# --------------------------------------------------------------------------
# Placement builders
# --------------------------------------------------------------------------

@placements.register("mdmp")
def _place_mdmp(graph, params: Dict[str, Any], rng: random.Random):
    return mdmp_placement(graph, _require(params, "d", "placement 'mdmp'"))


@placements.register("random")
def _place_random(graph, params: Dict[str, Any], rng: random.Random):
    kind = "placement 'random'"
    return random_placement(
        graph,
        _require(params, "n_inputs", kind),
        _require(params, "n_outputs", kind),
        rng=rng,
    )


@placements.register("degree_extremes")
def _place_degree_extremes(graph, params: Dict[str, Any], rng: random.Random):
    return degree_extremes_placement(
        graph, _require(params, "d", "placement 'degree_extremes'")
    )


@placements.register("chi_g")
def _place_chi_g(graph, params: Dict[str, Any], rng: random.Random):
    return chi_g(graph)


@placements.register("chi_corners")
def _place_chi_corners(graph, params: Dict[str, Any], rng: random.Random):
    return chi_corners(graph)


@placements.register("chi_t")
def _place_chi_t(graph, params: Dict[str, Any], rng: random.Random):
    return chi_t(graph)


@placements.register("all_pairs")
def _place_all_pairs(graph, params: Dict[str, Any], rng: random.Random):
    return all_pairs_placement(graph)


@placements.register("explicit")
def _place_explicit(graph, params: Dict[str, Any], rng: random.Random):
    kind = "placement 'explicit'"
    inputs = [decode_node(node) for node in _require(params, "inputs", kind)]
    outputs = [decode_node(node) for node in _require(params, "outputs", kind)]
    return MonitorPlacement.of(inputs, outputs)


# --------------------------------------------------------------------------
# Mechanism resolvers
# --------------------------------------------------------------------------

def _register_mechanisms() -> None:
    for member in RoutingMechanism:
        @mechanisms.register(member.value)
        def _resolve(_member=member) -> RoutingMechanism:
            return _member
    @mechanisms.register("cap_minus")
    def _resolve_cap_minus() -> RoutingMechanism:
        return RoutingMechanism.CAP_MINUS


_register_mechanisms()


# --------------------------------------------------------------------------
# Spec-level build helpers (used by Scenario and the trial functions)
# --------------------------------------------------------------------------

def build_topology(spec: "TopologySpec", rng: random.Random):
    """Materialise a :class:`~repro.api.spec.TopologySpec` into a graph."""
    return topologies.build(spec.name, dict(spec.params), rng)


def build_placement(spec: "PlacementSpec", graph, rng: random.Random):
    """Materialise a :class:`~repro.api.spec.PlacementSpec` on ``graph``."""
    return placements.build(spec.strategy, graph, dict(spec.params), rng)


def resolve_mechanism(name: "str | RoutingMechanism") -> RoutingMechanism:
    """Resolve a mechanism name through the registry (falling back to
    :meth:`RoutingMechanism.parse` for the enum's own aliases)."""
    if isinstance(name, RoutingMechanism):
        return name
    if name in mechanisms:
        return mechanisms.build(name)
    return RoutingMechanism.parse(name)


if False:  # pragma: no cover - typing-only imports without a runtime cycle
    from repro.api.spec import PlacementSpec, TopologySpec
