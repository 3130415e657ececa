"""The :class:`Scenario` facade — one object over topology, placement,
routing, engine policy and every analysis.

A scenario is built from a :class:`~repro.api.spec.ScenarioSpec` (or from
in-memory components via :meth:`Scenario.from_components`) and lazily owns
the whole pipeline::

    spec -> graph -> placement -> PathSet -> SignatureEngine -> analyses

Nothing is computed at construction time; the graph and placement are
materialised together on first access (consuming the spec's seeded RNG
stream in a fixed order — topology first, then placement — so results are
reproducible and identical across processes), the path set on first query,
the signature engine on first identifiability question.

Engine policy is **spec-scoped**: the scenario passes its
:class:`~repro.api.spec.EngineConfig` explicitly into every engine
construction, so two scenarios with different configs coexist in one process
(the engine has no global policy to consult).

Quickstart::

    >>> import repro
    >>> spec = repro.ScenarioSpec(
    ...     topology=repro.TopologySpec("claranet"),
    ...     placement=repro.PlacementSpec("mdmp", {"d": 4}),
    ... )
    >>> repro.Scenario(spec).mu().value
    1
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro._typing import AnyGraph
from repro.api.registries import build_placement, build_topology, resolve_mechanism
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
from repro.api.serialize import encode_node
from repro.api.spec import (
    AnalysisSpec,
    EngineConfig,
    FailureModel,
    PlacementSpec,
    RoutingSpec,
    ScenarioSpec,
    TopologySpec,
)
from repro.exceptions import SpecError
from repro.monitors.placement import MonitorPlacement
from repro.routing.mechanisms import RoutingMechanism
from repro.utils.seeds import RngLike, resolve_rng, spawn_rng

if TYPE_CHECKING:
    from repro.agrid.algorithm import AgridResult

#: Salts deriving the analysis-local RNG streams from the spec seed, so each
#: stochastic analysis is reproducible and independent of the construction
#: stream (which topology/placement building consumes).
_CAMPAIGN_SALT = 101
_AGRID_SALT = 103


def _encode_pair(pair) -> Optional[Tuple[Tuple[Any, ...], Tuple[Any, ...]]]:
    """A ConfusablePair as two sorted, JSON-encodable node tuples."""
    if pair is None:
        return None
    return (
        tuple(encode_node(node) for node in sorted(pair.first, key=repr)),
        tuple(encode_node(node) for node in sorted(pair.second, key=repr)),
    )


class Scenario:
    """Lazily-materialised facade over one tomography scenario."""

    def __init__(self, spec: ScenarioSpec) -> None:
        if not isinstance(spec, ScenarioSpec):
            raise SpecError(f"Scenario expects a ScenarioSpec, got {type(spec).__name__}")
        self.spec = spec
        self._graph: Optional[AnyGraph] = None
        self._placement: Optional[MonitorPlacement] = None
        self._pathset = None
        self._universe = None
        self._mu_report: Optional[MuReport] = None

    # -- construction --------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: ScenarioSpec) -> "Scenario":
        return cls(spec)

    @classmethod
    def from_components(
        cls,
        graph: AnyGraph,
        placement: MonitorPlacement,
        mechanism: RoutingMechanism | str = RoutingMechanism.CSP,
        cutoff: Optional[int] = None,
        max_paths: Optional[int] = None,
        engine: Optional[EngineConfig] = None,
        seed: Optional[int] = None,
        label: str = "",
        failures: Optional[FailureModel] = None,
    ) -> "Scenario":
        """Wrap in-memory components in a facade.

        The graph and placement are embedded as *literal* specs, so the
        resulting scenario is still fully serialisable; the provided objects
        are used directly (no rebuild) for exact behavioural parity with code
        that constructed them by hand.
        """
        mechanism = resolve_mechanism(mechanism)
        spec = ScenarioSpec(
            topology=TopologySpec.from_graph(graph),
            placement=PlacementSpec.from_placement(placement),
            routing=RoutingSpec(
                mechanism=mechanism.value, cutoff=cutoff, max_paths=max_paths
            ),
            failures=failures or FailureModel(),
            engine=engine or EngineConfig(),
            seed=seed,
            label=label or (graph.name or ""),
        )
        scenario = cls(spec)
        scenario._graph = graph
        scenario._placement = placement
        return scenario

    # -- lazy pipeline -------------------------------------------------------
    def _materialize(self) -> None:
        """Build graph and placement together, in spec-stream order."""
        if self._graph is None or self._placement is None:
            rng = resolve_rng(self.spec.seed)
            if self._graph is None:
                self._graph = build_topology(self.spec.topology, rng)
            if self._placement is None:
                self._placement = build_placement(
                    self.spec.placement, self._graph, rng
                )
                self._placement.validate(self._graph)

    @property
    def graph(self) -> AnyGraph:
        """The materialised topology."""
        self._materialize()
        return self._graph

    @property
    def placement(self) -> MonitorPlacement:
        """The materialised monitor placement."""
        self._materialize()
        return self._placement

    @property
    def mechanism(self) -> RoutingMechanism:
        return self.spec.mechanism

    @property
    def pathset(self):
        """The measurement paths ``P(G|χ)`` (cached per scenario; enumerated
        through the keyed pathset cache unless ``engine.cache`` is off)."""
        if self._pathset is None:
            self._pathset = self._route()
        return self._pathset

    def _route(self, patch=None):
        """This scenario's path set: ``patch(graph, placement, mechanism,
        cutoff, max_paths)`` when given (an evolve step), else a fresh
        enumeration.  With ``engine.cache`` on, both are filed in the
        pathset cache under this scenario's own (post-delta) enumeration
        inputs, so a fresh scenario of an evolved spec finds its entry."""
        from repro.engine.cache import normalize_limits, pathset_cache
        from repro.routing.paths import enumerate_paths

        routing = self.spec.routing
        args = (
            self.graph,
            self.placement,
            self.mechanism,
            *normalize_limits(routing.cutoff, routing.max_paths),
        )
        if not self.spec.engine.cache:
            return enumerate_paths(*args) if patch is None else patch(*args)
        if patch is None:
            return pathset_cache().get_or_enumerate(*args)
        return pathset_cache().get_or_evolve(*args, lambda: patch(*args))

    @property
    def universe(self):
        """The :class:`~repro.failures.FailureUniverse` of this scenario —
        what the spec's ``failures.universe`` declares can fail (nodes by
        default; links or SRLGs in schema-v2 specs).  Cached per scenario
        (and memoised on the path set), so every analysis shares one
        instance."""
        from repro.exceptions import IdentifiabilityError

        if self._universe is None:
            spec_universe = self.spec.failures.universe
            try:
                self._universe = spec_universe.resolve(self.pathset)
            except IdentifiabilityError as exc:
                raise SpecError(
                    f"invalid failure universe {spec_universe.to_dict()!r}: {exc}"
                ) from exc
        return self._universe

    @property
    def engine(self):
        """The :class:`~repro.engine.signatures.SignatureEngine` over this
        scenario's failure universe."""
        return self.pathset.engine(universe=self.universe)

    # -- evolution -----------------------------------------------------------
    def evolve(self, delta) -> "Scenario":
        """A new scenario with ``delta`` applied, reusing everything untouched.

        ``delta`` is a :class:`~repro.api.spec.DeltaSpec` (or a mapping in its
        JSON shape): link flaps, monitor joins/leaves and optionally a full
        SRLG re-definition.  The returned scenario is indistinguishable from
        building the post-delta spec from scratch — its spec is a literal,
        serialisable :class:`ScenarioSpec` and every analysis result is
        bit-identical — but the measurement paths are *patched* from this
        scenario's path set (:meth:`PathSet.apply_delta
        <repro.routing.paths.PathSet.apply_delta>`) rather than re-enumerated,
        and the signature engines are re-interned only on the dirty rows.
        When the spec's engine cache is on, the evolved path set is filed
        under the post-delta enumeration inputs (the rebuilt literal graph's
        adjacency, the placement, the mechanism and the limits) — the key a
        fresh ``Scenario`` of the returned spec computes — so replayed churn
        sequences pay for each distinct state once.

        The node universe is fixed: delta links must connect existing nodes
        and monitors must name existing nodes.  Removing a link that an SRLG
        group references without re-defining the groups leaves the evolved
        universe unresolvable (a :class:`SpecError` on first use).
        """
        from dataclasses import replace

        from repro.api.spec import DeltaSpec, UniverseSpec
        from repro.routing.paths import PathSetDelta

        if isinstance(delta, dict):
            delta = DeltaSpec.from_dict(delta)
        if not isinstance(delta, DeltaSpec):
            raise SpecError(
                f"evolve expects a DeltaSpec (or its dict form), got "
                f"{type(delta).__name__}"
            )

        graph = self.graph
        placement = self.placement
        new_graph = graph.copy()
        for u, v in delta.remove_links:
            if not new_graph.has_edge(u, v):
                raise SpecError(
                    f"delta removes link ({u!r}, {v!r}) which is not in the "
                    f"scenario's graph"
                )
            new_graph.remove_edge(u, v)
        for u, v in delta.add_links:
            if u not in graph or v not in graph:
                raise SpecError(
                    f"delta adds link ({u!r}, {v!r}) with an unknown endpoint "
                    f"(the node universe is fixed under evolution)"
                )
            if graph.has_edge(u, v) or new_graph.has_edge(u, v):
                raise SpecError(
                    f"delta adds link ({u!r}, {v!r}) which is already present"
                )
            new_graph.add_edge(u, v)

        def edit_monitors(current, role, removals, additions):
            nodes = set(current)
            for node in removals:
                if node not in nodes:
                    raise SpecError(
                        f"delta removes {role} monitor {node!r} which is not "
                        f"placed"
                    )
                nodes.discard(node)
            for node in additions:
                if node not in new_graph:
                    raise SpecError(
                        f"delta adds {role} monitor {node!r} which is not a "
                        f"node of the graph"
                    )
                if node in nodes:
                    raise SpecError(
                        f"delta adds {role} monitor {node!r} which is already "
                        f"placed"
                    )
                nodes.add(node)
            if not nodes:
                raise SpecError(f"delta leaves the scenario with no {role} monitors")
            return nodes

        inputs = edit_monitors(
            placement.inputs, "input", delta.remove_inputs, delta.add_inputs
        )
        outputs = edit_monitors(
            placement.outputs, "output", delta.remove_outputs, delta.add_outputs
        )
        new_placement = MonitorPlacement.of(inputs, outputs)

        failures = self.spec.failures
        if delta.srlg_groups is not None:
            failures = replace(
                failures,
                universe=UniverseSpec(kind="srlg", groups=delta.srlg_groups),
            )
        label = self.spec.label
        if delta.label:
            label = f"{label}+{delta.label}" if label else delta.label
        new_spec = replace(
            self.spec,
            topology=TopologySpec.from_graph(new_graph),
            placement=PlacementSpec.from_placement(new_placement),
            failures=failures,
            label=label,
        )
        evolved = Scenario(new_spec)

        path_delta = PathSetDelta(
            add_links=delta.add_links,
            remove_links=delta.remove_links,
            add_inputs=delta.add_inputs,
            remove_inputs=delta.remove_inputs,
            add_outputs=delta.add_outputs,
            remove_outputs=delta.remove_outputs,
        )
        evolved._pathset = evolved._route(
            lambda graph, placement, mechanism, cutoff, max_paths: (
                self.pathset.apply_delta(
                    graph, placement, mechanism, path_delta, cutoff, max_paths
                )
            )
        )
        return evolved

    # -- analyses ------------------------------------------------------------
    def _identifiability_detailed(self, max_size: Optional[int]):
        """Raw engine search result plus the structural bound (if derived)."""
        from repro.core.bounds import structural_upper_bound
        from repro.core.identifiability import maximal_identifiability_detailed

        universe = self.universe
        node_mode = universe.kind == "node"
        bound_value: Optional[int] = None
        cap = max_size
        if cap is None:
            bound = structural_upper_bound(
                self.graph, self.placement, self.mechanism,
                universe=None if node_mode else universe,
            )
            bound_value = bound.combined
            cap = bound.combined + 1
        result = maximal_identifiability_detailed(
            self.pathset,
            max_size=cap,
            universe=None if node_mode else universe,
            budget=self.spec.engine.budget(),
        )
        return result, bound_value

    def identifiability(self, max_size: Optional[int] = None):
        """The raw :class:`~repro.engine.signatures.IdentifiabilityResult`
        (witness as node frozensets) — the engine-native counterpart of
        :meth:`mu`, for callers that need the un-encoded witness."""
        return self._identifiability_detailed(max_size)[0]

    def mu(self, max_size: Optional[int] = None) -> MuReport:
        """Exact maximal identifiability µ (Definition 2.2), with diagnostics.

        ``max_size=None`` caps the search one level above the Section-3
        structural bound (the exactness-preserving default); an explicit cap
        gives the truncated-search semantics of
        :func:`~repro.core.identifiability.maximal_identifiability_detailed`.
        """
        if max_size is None and self._mu_report is not None:
            return self._mu_report
        result, bound_value = self._identifiability_detailed(max_size)
        universe = self.universe
        report = MuReport(
            value=result.value,
            searched_up_to=result.searched_up_to,
            exhausted_search=result.exhausted_search,
            witness=_encode_pair(result.witness),
            bound=bound_value,
            n_paths=self.pathset.n_paths,
            n_nodes=len(universe.elements),
            mechanism=self.mechanism.value,
            universe=universe.kind,
        )
        if max_size is None:
            self._mu_report = report
        return report

    def truncated(self, alpha: Optional[int] = None) -> TruncatedMuReport:
        """Truncated maximal identifiability µ_α (Section 8.0.3).

        ``alpha=None`` uses the paper's default truncation level — the
        rounded average degree λ(G).
        """
        from repro.core.truncated import (
            default_truncation_level,
            truncated_identifiability_detailed,
        )

        if alpha is None:
            alpha = default_truncation_level(self.graph)
        universe = self.universe
        result = truncated_identifiability_detailed(
            self.pathset,
            alpha,
            universe=None if universe.kind == "node" else universe,
            budget=self.spec.engine.budget(),
        )
        return TruncatedMuReport(
            value=result.value,
            alpha=alpha,
            exhausted_search=result.exhausted_search,
            n_paths=self.pathset.n_paths,
            mechanism=self.mechanism.value,
            universe=universe.kind,
        )

    def separability(self, size: int = 1) -> SeparabilityReport:
        """Census of inseparable subset pairs at a fixed size (Section 2.0.1).

        Exponential in ``size``; intended for the small universes of the
        paper's networks.
        """
        import math

        universe = self.universe
        pairs = self.engine.inseparable_pairs(
            size, budget=self.spec.engine.budget()
        )
        n_subsets = math.comb(len(universe.elements), size)
        return SeparabilityReport(
            size=size,
            n_pairs=n_subsets * (n_subsets - 1) // 2,
            n_inseparable=len(pairs),
            inseparable=tuple(
                (
                    tuple(encode_node(n) for n in sorted(first, key=repr)),
                    tuple(encode_node(n) for n in sorted(second, key=repr)),
                )
                for first, second in pairs
            ),
            universe=universe.kind,
        )

    def localization_campaign(
        self,
        failure_size: Optional[int] = None,
        n_trials: Optional[int] = None,
        rng: RngLike = None,
    ) -> LocalizationReport:
        """Monte-Carlo unique-localisation rate (the operational face of µ).

        Defaults come from the spec's failure model; the RNG defaults to a
        stream derived from the spec seed, so campaigns are reproducible
        without being correlated with topology/placement sampling.
        """
        from repro.tomography.scenario import TomographySession

        failures = self.spec.failures
        size = failures.size if failure_size is None else failure_size
        trials = failures.n_trials if n_trials is None else n_trials
        if rng is None and self.spec.seed is not None:
            rng = spawn_rng(_seed_to_int(self.spec.seed), _CAMPAIGN_SALT)
        session = TomographySession.from_scenario(self)
        report = session.run_campaign(size, trials, rng=rng)
        return LocalizationReport(
            failure_size=report.failure_size,
            n_trials=report.n_trials,
            n_unique=report.n_unique,
            unique_rate=report.unique_rate,
            mean_ambiguity=report.mean_ambiguity,
            mu=self.mu().value,
            universe=self.universe.kind,
        )

    def measurement(self) -> MeasurementReport:
        """µ plus the structural statistics — one Tables-3-5 column,
        extended with the path-length histogram and the failure universe.

        Computed from the scenario's own (cached) path set and µ report, so
        it never enumerates a second time.  The Agrid analyses and the paper
        tables measure every G and G^A through this method.
        """
        from repro.routing.paths import path_length_histogram
        from repro.topology.base import min_degree

        pathset = self.pathset
        return MeasurementReport(
            mu=self.mu().value,
            n_paths=pathset.n_paths,
            n_edges=self.graph.number_of_edges(),
            min_degree=min_degree(self.graph),
            n_inputs=self.placement.n_inputs,
            n_outputs=self.placement.n_outputs,
            universe=self.universe.kind,
            path_lengths={
                str(length): count
                for length, count in path_length_histogram(pathset).items()
            },
        )

    def bounds(self) -> BoundsReport:
        """The structural upper bounds for this scenario (Section 3 in node
        mode, the conservative universe-size cap otherwise)."""
        from repro.core.bounds import structural_upper_bound

        universe = self.universe
        bound = structural_upper_bound(
            self.graph, self.placement, self.mechanism,
            universe=None if universe.kind == "node" else universe,
        )
        return BoundsReport(
            combined=bound.combined,
            degree=bound.degree,
            monitor_count=bound.monitor_count,
            edge_count=bound.edge_count,
            mechanism=self.mechanism.value,
            universe=universe.kind,
        )

    def _agrid(
        self, dimension: Optional[int], rng: RngLike
    ) -> Tuple[AgridComparisonReport, "AgridResult"]:
        """Boost this scenario's graph under its routing, engine and failure
        settings; ``dimension`` defaults to the ``d = log N`` rule and ``rng``
        to a stream derived from the spec seed."""
        from repro.experiments.common import resolve_dimension

        if dimension is None:
            dimension = resolve_dimension("log", self.graph)
        if rng is None and self.spec.seed is not None:
            rng = spawn_rng(_seed_to_int(self.spec.seed), _AGRID_SALT)
        routing = self.spec.routing
        return _agrid_comparison(
            self.graph, dimension, rng, self.mechanism, routing.cutoff,
            routing.max_paths, self.spec.engine, self.spec.failures,
        )

    def agrid_comparison(
        self, dimension: Optional[int] = None, rng: RngLike = None
    ) -> AgridComparisonReport:
        """Measure G against its Agrid boost G^A (the Tables 3-13 core step),
        both under this spec's routing limits, engine config and failure
        universe."""
        return self._agrid(dimension, rng)[0]

    def agrid_tradeoff(
        self,
        dimension: Optional[int] = None,
        horizon: int = 10,
        edge_cost: float = 1.0,
        test_cost: float = 1.0,
        scale: float = 0.5,
        rng: RngLike = None,
    ) -> AgridTradeoffReport:
        """The Section-7.1.1 κ(G, T) cost-benefit picture for this scenario.

        Runs Agrid, measures both graphs, and evaluates the static trade-off
        with the identifiability-scaled per-test cost model over ``horizon``
        test rounds and a uniform per-link installation cost.
        """
        from repro.agrid.tradeoffs import (
            identifiability_scaled_test_cost,
            static_tradeoff,
            uniform_edge_cost,
        )

        comparison, result = self._agrid(dimension, rng)
        tradeoff = static_tradeoff(
            result.added_edges,
            times=range(horizon),
            baseline_test_cost=identifiability_scaled_test_cost(
                test_cost, comparison.original.mu, scale
            ),
            boosted_test_cost=identifiability_scaled_test_cost(
                test_cost, comparison.boosted.mu, scale
            ),
            edge_cost=uniform_edge_cost(edge_cost),
        )
        return AgridTradeoffReport(
            comparison=comparison,
            horizon=horizon,
            baseline_testing_cost=tradeoff.baseline_testing_cost,
            link_installation_cost=tradeoff.link_installation_cost,
            boosted_testing_cost=tradeoff.boosted_testing_cost,
            kappa=tradeoff.kappa,
            worthwhile=tradeoff.worthwhile,
        )

    # -- dispatch ------------------------------------------------------------
    _ANALYSES = {
        "mu": "mu",
        "truncated": "truncated",
        "separability": "separability",
        "localization": "localization_campaign",
        "measurement": "measurement",
        "bounds": "bounds",
        "agrid_comparison": "agrid_comparison",
        "agrid_tradeoff": "agrid_tradeoff",
    }

    @classmethod
    def available_analyses(cls) -> Tuple[str, ...]:
        """The analysis names ``run_analysis`` (and ``--spec``) dispatch to."""
        return tuple(sorted(cls._ANALYSES))

    def run_analysis(self, request: AnalysisSpec | str) -> AnalysisReport:
        """Dispatch one analysis request (from a spec's ``analyses`` list)."""
        if isinstance(request, str):
            request = AnalysisSpec.from_dict(request)
        method_name = self._ANALYSES.get(request.analysis)
        if method_name is None:
            raise SpecError(
                f"unknown analysis {request.analysis!r}; "
                f"available: {self.available_analyses()}"
            )
        method = getattr(self, method_name)
        try:
            return method(**dict(request.params))
        except TypeError as exc:
            raise SpecError(
                f"invalid parameters {request.params!r} for analysis "
                f"{request.analysis!r}: {exc}"
            ) from exc

    def run_all(self) -> Dict[str, AnalysisReport]:
        """Run every analysis declared in the spec, keyed by analysis name.

        Duplicate analysis names are disambiguated with a ``#n`` suffix in
        declaration order.
        """
        reports: Dict[str, AnalysisReport] = {}
        for request in self.spec.analyses:
            key = request.analysis
            counter = 2
            while key in reports:
                key = f"{request.analysis}#{counter}"
                counter += 1
            reports[key] = self.run_analysis(request)
        return reports

    def describe(self) -> str:
        """One-line human-readable summary."""
        return f"Scenario({self.spec.display_name()}, seed={self.spec.seed!r})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


def _agrid_comparison(
    graph: AnyGraph,
    dimension: int,
    rng: RngLike,
    mechanism: RoutingMechanism | str,
    cutoff: Optional[int],
    max_paths: Optional[int],
    engine: Optional[EngineConfig],
    failures: FailureModel,
) -> Tuple[AgridComparisonReport, "AgridResult"]:
    """Run Agrid once on ``graph`` and measure G and G^A on its MDMP
    placements — the step every Agrid table of Section 8 repeats.

    ``rng`` is consumed by Agrid alone.  Each half is the
    :meth:`Scenario.measurement` of a :meth:`Scenario.from_components`
    scenario with the given routing limits, engine config and failure model,
    so a table cell and a ``--spec`` analysis measure through one code path.
    The :class:`~repro.agrid.algorithm.AgridResult` is returned alongside
    for callers that need the added edges.
    """
    from repro.agrid.algorithm import agrid

    result = agrid(graph, dimension, rng=resolve_rng(rng))

    def measure(measured: AnyGraph, placement: MonitorPlacement) -> MeasurementReport:
        return Scenario.from_components(
            measured, placement, mechanism, cutoff=cutoff, max_paths=max_paths,
            engine=engine, failures=failures,
        ).measurement()

    report = AgridComparisonReport(
        dimension=dimension,
        original=measure(graph, result.placement_original),
        boosted=measure(result.boosted, result.placement_boosted),
        n_added_edges=result.n_added_edges,
    )
    return report, result


def _seed_to_int(seed: int | str) -> int:
    """Map a spec seed (int or spawn-seed string) to RNG seed material."""
    if isinstance(seed, int):
        return seed
    return int.from_bytes(str(seed).encode("utf-8"), "big") % (2**63)
