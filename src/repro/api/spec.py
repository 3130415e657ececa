"""The declarative, JSON-round-trippable scenario schema.

A :class:`ScenarioSpec` is the single value object describing one tomography
scenario end to end — topology source, monitor-placement strategy, routing
mechanism, failure model, engine policy and seed — in purely JSON-normal
data.  Specs are frozen, picklable, comparable, and round-trip losslessly
through ``to_json``/``from_json``; :meth:`ScenarioSpec.build` resolves the
registries of :mod:`repro.api.registries` into a live
:class:`~repro.api.scenario.Scenario`.

Schema (version 2)::

    {
      "schema_version": 2,
      "label": "",                                   # optional display name
      "topology":  {"name": "claranet", "params": {}},
      "placement": {"strategy": "mdmp", "params": {"d": 3}},
      "routing":   {"mechanism": "CSP", "cutoff": null, "max_paths": null},
      "failures":  {"model": "uniform", "size": 1, "n_trials": 10,
                    "universe": {"kind": "node", "groups": {}}},
      "engine":    {"cache": true},
      "seed": 2018,                                  # int, string or null
      "analyses": [{"analysis": "mu", "params": {}}]
    }

Version 2 added ``failures.universe`` — the failure universe every analysis
of the scenario ranges over: ``{"kind": "node"}`` (the paper's measure, the
default), ``{"kind": "link"}`` (link failures), or ``{"kind": "srlg",
"groups": {"name": [["u", "v"], ...], ...}}`` (named shared-risk link
groups; node labels use the literal-spec codec, so tuple labels are lists).
Version-1 documents parse unchanged and auto-upgrade to node mode — a v1
spec and its v2 upgrade build bit-identical scenarios.

The engine axes (``cache`` and the budgets) are
**spec-scoped**: the engine has no process-global policy to read, so
scenarios with different engine configs coexist in one process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.serialize import decode_node, encode_node, json_normalize
from repro.exceptions import SpecError
from repro.failures.universe import UNIVERSE_KINDS
from repro.routing.mechanisms import RoutingMechanism

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.resilience.budget import Budget

#: Version stamp embedded in every serialised spec.
SCHEMA_VERSION = 2

#: Schema versions :meth:`ScenarioSpec.from_dict` accepts.  Version 1 (no
#: ``failures.universe``) auto-upgrades to version 2 in node mode.
SUPPORTED_SCHEMA_VERSIONS = (1, 2)

#: Seeds are ints (CLI style), strings (spawned child-stream material from
#: :func:`repro.utils.seeds.spawn_seed`) or ``None`` (non-reproducible).
SeedLike = Union[int, str, None]


def _freeze_params(params: Optional[Mapping[str, Any]], kind: str) -> Dict[str, Any]:
    if params is None:
        return {}
    try:
        return json_normalize(_expect_mapping(params, f"{kind} params"))
    except TypeError as exc:
        raise SpecError(f"{kind} params are not JSON-normalisable: {exc}") from exc


def _expect_mapping(payload: Any, kind: str) -> Dict[str, Any]:
    if not isinstance(payload, Mapping):
        raise SpecError(f"{kind} must be a JSON object, got {type(payload).__name__}")
    return dict(payload)


#: Engine keys of earlier v2 documents that no longer select anything; they
#: parse and are dropped.
_RETIRED_ENGINE_FIELDS = frozenset(
    {
        "search_jobs",
        "kernel",
        "block_size",
        "backend",
        "compress",
        "cache_maxsize",
    }
)


@dataclass(frozen=True)
class EngineConfig:
    """Spec-scoped engine policy: whether to use the pathset cache, and the
    search budgets.

    Defaults match the library defaults (cache on, unbounded): a
    default-constructed config computes exactly what ``budget=None``
    computes at the pathset level.  The signature universe is always
    compressed (see :mod:`repro.engine.compress`): duplicate path columns
    cannot change any reported value, so there is nothing to choose.

    ``time_budget`` (wall-clock seconds) and ``subset_budget`` bound each
    search cooperatively.  ``subset_budget`` counts search-tree nodes for µ
    (see :mod:`repro.engine.signatures`, "The µ search") and enumerated
    subsets for the census queries.  On expiry ``identifiability()``
    truncates at the last fully completed level
    (``stats.budget_exhausted=True``, a certified lower bound) and the census
    queries raise :class:`~repro.exceptions.BudgetExceededError`.  Both are
    additive too — v1/v2 documents without them parse unchanged and mean
    "unbounded".

    The retired knobs ``search_jobs``, ``kernel``, ``block_size``,
    ``backend``, ``compress`` and ``cache_maxsize`` are still accepted by
    :meth:`from_dict` so existing v2 documents parse, and discarded: none
    of them ever changed a reported result.  The capacity of the shared
    pathset cache is a process setting
    (:meth:`~repro.engine.cache.PathSetCache.resize`, ``repro-serve
    --cache-size``), not something a spec can reach.
    """

    cache: bool = True
    time_budget: Optional[float] = None
    subset_budget: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "cache", bool(self.cache))
        if self.time_budget is not None:
            if (
                isinstance(self.time_budget, bool)
                or not isinstance(self.time_budget, (int, float))
                or self.time_budget <= 0
            ):
                raise SpecError(
                    f"engine time_budget must be a positive number of "
                    f"seconds or null, got {self.time_budget!r}"
                )
            object.__setattr__(self, "time_budget", float(self.time_budget))
        if self.subset_budget is not None and (
            isinstance(self.subset_budget, bool)
            or not isinstance(self.subset_budget, int)
            or self.subset_budget <= 0
        ):
            raise SpecError(
                f"engine subset_budget must be a positive int or null, "
                f"got {self.subset_budget!r}"
            )

    def budget(self) -> Optional[Budget]:
        """A fresh per-search :class:`~repro.resilience.Budget` from this
        config's limits, or ``None`` when both are unset."""
        if self.time_budget is None and self.subset_budget is None:
            return None
        from repro.resilience.budget import Budget

        return Budget(self.time_budget, self.subset_budget)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cache": self.cache,
            "time_budget": self.time_budget,
            "subset_budget": self.subset_budget,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EngineConfig":
        data = _expect_mapping(payload, "engine config")
        unknown = set(data) - _RETIRED_ENGINE_FIELDS - {
            "cache",
            "time_budget",
            "subset_budget",
        }
        if unknown:
            raise SpecError(f"unknown engine config fields {sorted(unknown)}")
        return cls(
            cache=data.get("cache", True),
            time_budget=data.get("time_budget"),
            subset_budget=data.get("subset_budget"),
        )


@dataclass(frozen=True)
class TopologySpec:
    """A named topology source plus its JSON-normal parameters."""

    name: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SpecError(f"topology name must be a non-empty string, got {self.name!r}")
        object.__setattr__(self, "params", _freeze_params(self.params, "topology"))

    @classmethod
    def from_graph(cls, graph) -> "TopologySpec":
        """A literal spec for an in-memory graph (nodes/edges listed in
        iteration order, so the rebuilt graph iterates identically)."""
        return cls(
            name="graph",
            params={
                "directed": bool(graph.is_directed()),
                "name": graph.name or "",
                "nodes": [encode_node(node) for node in graph.nodes],
                "edges": [
                    [encode_node(u), encode_node(v)] for u, v in graph.edges
                ],
            },
        )

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TopologySpec":
        data = _expect_mapping(payload, "topology spec")
        unknown = set(data) - {"name", "params"}
        if unknown:
            raise SpecError(f"unknown topology spec fields {sorted(unknown)}")
        if "name" not in data:
            raise SpecError("topology spec requires a 'name'")
        return cls(name=data["name"], params=data.get("params") or {})


@dataclass(frozen=True)
class PlacementSpec:
    """A named monitor-placement strategy plus its parameters."""

    strategy: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.strategy or not isinstance(self.strategy, str):
            raise SpecError(
                f"placement strategy must be a non-empty string, got {self.strategy!r}"
            )
        object.__setattr__(self, "params", _freeze_params(self.params, "placement"))

    @classmethod
    def from_placement(cls, placement) -> "PlacementSpec":
        """A literal spec for an in-memory :class:`MonitorPlacement`."""
        return cls(
            strategy="explicit",
            params={
                "inputs": [encode_node(n) for n in sorted(placement.inputs, key=repr)],
                "outputs": [encode_node(n) for n in sorted(placement.outputs, key=repr)],
            },
        )

    def to_dict(self) -> Dict[str, Any]:
        return {"strategy": self.strategy, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PlacementSpec":
        data = _expect_mapping(payload, "placement spec")
        unknown = set(data) - {"strategy", "params"}
        if unknown:
            raise SpecError(f"unknown placement spec fields {sorted(unknown)}")
        if "strategy" not in data:
            raise SpecError("placement spec requires a 'strategy'")
        return cls(strategy=data["strategy"], params=data.get("params") or {})


@dataclass(frozen=True)
class RoutingSpec:
    """Routing mechanism plus the enumeration limits."""

    mechanism: str = "CSP"
    cutoff: Optional[int] = None
    max_paths: Optional[int] = None

    def __post_init__(self) -> None:
        try:
            parsed = RoutingMechanism.parse(self.mechanism)
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
        object.__setattr__(self, "mechanism", parsed.value)
        # Out-of-range limits used to surface only deep inside enumeration
        # (a ValueError mid-analysis); reject them at parse time so a bad
        # document is a SpecError at the boundary, not a 500 in a worker.
        for name in ("cutoff", "max_paths"):
            value = getattr(self, name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int) or value < 1
            ):
                raise SpecError(
                    f"routing {name} must be an int >= 1 or null, got {value!r}"
                )

    @property
    def mechanism_enum(self) -> RoutingMechanism:
        return RoutingMechanism.parse(self.mechanism)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mechanism": self.mechanism,
            "cutoff": self.cutoff,
            "max_paths": self.max_paths,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RoutingSpec":
        data = _expect_mapping(payload, "routing spec")
        unknown = set(data) - {"mechanism", "cutoff", "max_paths"}
        if unknown:
            raise SpecError(f"unknown routing spec fields {sorted(unknown)}")
        return cls(
            mechanism=data.get("mechanism", "CSP"),
            cutoff=data.get("cutoff"),
            max_paths=data.get("max_paths"),
        )


@dataclass(frozen=True)
class UniverseSpec:
    """The failure universe a scenario's analyses range over (schema v2).

    ``kind`` is ``"node"`` (the paper's measure, the default), ``"link"``,
    or ``"srlg"``; SRLG universes carry their ``groups`` — a mapping of group
    name to the member links, each link a two-item ``[u, v]`` list in the
    literal-spec node codec.
    """

    kind: str = "node"
    groups: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in UNIVERSE_KINDS:
            raise SpecError(
                f"unknown failure universe kind {self.kind!r}; "
                f"expected one of {UNIVERSE_KINDS}"
            )
        groups = _freeze_params(self.groups, "failure universe")
        if self.kind == "srlg":
            if not groups:
                raise SpecError(
                    "an 'srlg' universe needs a non-empty 'groups' mapping of "
                    "group name -> [[u, v], ...] member links"
                )
            for name, members in groups.items():
                if not isinstance(members, list) or not members:
                    raise SpecError(
                        f"srlg group {name!r} must be a non-empty list of "
                        f"[u, v] links, got {members!r}"
                    )
                for link in members:
                    if not isinstance(link, list) or len(link) != 2:
                        raise SpecError(
                            f"srlg group {name!r} member {link!r} is not a "
                            "[u, v] link"
                        )
        elif groups:
            raise SpecError(
                f"a {self.kind!r} universe takes no srlg groups, got "
                f"{sorted(groups)}"
            )
        object.__setattr__(self, "groups", groups)

    def decoded_groups(self) -> Dict[str, Tuple[Tuple[Any, Any], ...]]:
        """The groups with node labels decoded (lists back to tuples)."""
        return {
            name: tuple(
                (decode_node(link[0]), decode_node(link[1])) for link in members
            )
            for name, members in self.groups.items()
        }

    def resolve(self, pathset) -> Any:
        """The :class:`~repro.failures.FailureUniverse` this spec names,
        built (and memoised) over ``pathset`` — the one place the
        spec-to-universe translation is spelled."""
        return pathset.universe(self.kind, groups=self.decoded_groups() or None)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "groups": dict(self.groups)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "UniverseSpec":
        data = _expect_mapping(payload, "failure universe")
        unknown = set(data) - {"kind", "groups"}
        if unknown:
            raise SpecError(f"unknown failure universe fields {sorted(unknown)}")
        return cls(kind=data.get("kind", "node"), groups=data.get("groups") or {})


@dataclass(frozen=True)
class FailureModel:
    """Failure-sampling defaults for the localisation campaign analysis,
    plus the failure universe every analysis of the scenario ranges over."""

    model: str = "uniform"
    size: int = 1
    n_trials: int = 10
    universe: UniverseSpec = field(default_factory=UniverseSpec)

    def __post_init__(self) -> None:
        if self.model != "uniform":
            raise SpecError(
                f"unknown failure model {self.model!r}; only 'uniform' is "
                "currently implemented"
            )
        for name, minimum in (("size", 0), ("n_trials", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise SpecError(f"failure {name} must be an int, got {value!r}")
            if value < minimum:
                raise SpecError(
                    f"failure {name} must be >= {minimum}, got {value}"
                )
        if not isinstance(self.universe, UniverseSpec):
            # Accept the JSON spellings too: None (and a mapping) mean what
            # they mean in a serialised document — node mode by default.
            object.__setattr__(
                self, "universe", UniverseSpec.from_dict(self.universe or {})
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "model": self.model,
            "size": self.size,
            "n_trials": self.n_trials,
            "universe": self.universe.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FailureModel":
        data = _expect_mapping(payload, "failure model")
        unknown = set(data) - {"model", "size", "n_trials", "universe"}
        if unknown:
            raise SpecError(f"unknown failure model fields {sorted(unknown)}")
        return cls(
            model=data.get("model", "uniform"),
            size=data.get("size", 1),
            n_trials=data.get("n_trials", 10),
            # Absent in schema-v1 documents: upgrade to the node universe.
            universe=UniverseSpec.from_dict(data.get("universe") or {}),
        )


@dataclass(frozen=True)
class AnalysisSpec:
    """One analysis request: a facade method name plus keyword parameters."""

    analysis: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.analysis or not isinstance(self.analysis, str):
            raise SpecError(
                f"analysis name must be a non-empty string, got {self.analysis!r}"
            )
        object.__setattr__(self, "params", _freeze_params(self.params, "analysis"))

    def to_dict(self) -> Dict[str, Any]:
        return {"analysis": self.analysis, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, payload: Any) -> "AnalysisSpec":
        if isinstance(payload, str):  # "mu" shorthand
            return cls(analysis=payload)
        data = _expect_mapping(payload, "analysis spec")
        unknown = set(data) - {"analysis", "params"}
        if unknown:
            raise SpecError(f"unknown analysis spec fields {sorted(unknown)}")
        if "analysis" not in data:
            raise SpecError("analysis spec requires an 'analysis' name")
        return cls(analysis=data["analysis"], params=data.get("params") or {})


_DELTA_FIELDS = {
    "add_links",
    "remove_links",
    "add_inputs",
    "remove_inputs",
    "add_outputs",
    "remove_outputs",
    "srlg_groups",
    "label",
}


def _check_node_labels(attribute: str, labels: Iterable[Any]) -> None:
    """Refuse a delta entry that cannot name a node: node labels must be
    hashable, and a JSON object (even one nested in a tuple label) is not."""
    for label in labels:
        try:
            hash(label)
        except TypeError:
            raise SpecError(
                f"delta {attribute} entry {label!r} is not a node label"
            ) from None


@dataclass(frozen=True)
class DeltaSpec:
    """A JSON-round-trippable scenario delta for :meth:`Scenario.evolve
    <repro.api.scenario.Scenario.evolve>`.

    Describes a small change to a live scenario — link flaps, monitor
    joins/leaves, an SRLG re-definition — without restating the scenario::

        {
          "add_links":      [["u", "v"], ...],
          "remove_links":   [["u", "v"], ...],
          "add_inputs":     ["u", ...],
          "remove_inputs":  ["u", ...],
          "add_outputs":    ["u", ...],
          "remove_outputs": ["u", ...],
          "srlg_groups":    null,      # or {"name": [["u","v"], ...], ...}
          "label": ""                  # optional display name
        }

    The schema is **additive**: deltas are a standalone document type (the
    ``--churn`` driver's ``deltas`` entries), and :class:`ScenarioSpec`
    documents are untouched — existing v2 specs parse unchanged.  Node
    labels use the literal-spec codec (tuples as lists), links are endpoint
    pairs in either orientation for undirected topologies, and
    ``srlg_groups`` is ``None`` ("keep the scenario's universe") or a full
    replacement group mapping, which switches the evolved scenario to an
    SRLG universe over those groups.  The node universe itself is fixed —
    links may only connect existing nodes and monitors must name existing
    nodes.  Every edit must be a real change (removals must exist, additions
    must not), which keeps :meth:`inverse` exact.
    """

    add_links: Tuple[Tuple[Any, Any], ...] = ()
    remove_links: Tuple[Tuple[Any, Any], ...] = ()
    add_inputs: Tuple[Any, ...] = ()
    remove_inputs: Tuple[Any, ...] = ()
    add_outputs: Tuple[Any, ...] = ()
    remove_outputs: Tuple[Any, ...] = ()
    srlg_groups: Optional[Dict[str, Any]] = None
    label: str = ""

    def __post_init__(self) -> None:
        for attribute in ("add_links", "remove_links"):
            links = []
            for link in getattr(self, attribute):
                pair = tuple(link)
                if len(pair) != 2:
                    raise SpecError(
                        f"delta {attribute} entry {link!r} is not a (u, v) link"
                    )
                _check_node_labels(attribute, pair)
                links.append(pair)
            if len(set(links)) != len(links):
                raise SpecError(f"delta {attribute} lists a link twice")
            object.__setattr__(self, attribute, tuple(links))
        for attribute in (
            "add_inputs", "remove_inputs", "add_outputs", "remove_outputs"
        ):
            nodes = tuple(getattr(self, attribute))
            _check_node_labels(attribute, nodes)
            if len(set(nodes)) != len(nodes):
                raise SpecError(f"delta {attribute} lists a node twice")
            object.__setattr__(self, attribute, nodes)
        if set(self.add_links) & set(self.remove_links):
            raise SpecError("a delta cannot both add and remove the same link")
        if set(self.add_inputs) & set(self.remove_inputs):
            raise SpecError("a delta cannot both add and remove the same input")
        if set(self.add_outputs) & set(self.remove_outputs):
            raise SpecError("a delta cannot both add and remove the same output")
        if self.srlg_groups is not None:
            # Reuse the universe-spec validation (and its JSON freezing).
            validated = UniverseSpec(kind="srlg", groups=self.srlg_groups)
            object.__setattr__(self, "srlg_groups", validated.groups)
        if not isinstance(self.label, str):
            raise SpecError(f"delta label must be a string, got {self.label!r}")

    def is_noop(self) -> bool:
        """True when the delta changes nothing."""
        return self.srlg_groups is None and not (
            self.add_links
            or self.remove_links
            or self.add_inputs
            or self.remove_inputs
            or self.add_outputs
            or self.remove_outputs
        )

    def inverse(
        self, previous_universe: Optional[UniverseSpec] = None
    ) -> "DeltaSpec":
        """The delta undoing this one (adds and removes swapped).

        An SRLG re-definition is only invertible when the pre-delta universe
        — passed as ``previous_universe`` — was itself an SRLG universe to
        restore; anything else raises :class:`SpecError`.
        """
        groups: Optional[Dict[str, Any]] = None
        if self.srlg_groups is not None:
            if previous_universe is None or previous_universe.kind != "srlg":
                raise SpecError(
                    "inverting an SRLG re-definition needs the previous "
                    "universe to restore, and it must be an srlg universe"
                )
            groups = dict(previous_universe.groups)
        return DeltaSpec(
            add_links=self.remove_links,
            remove_links=self.add_links,
            add_inputs=self.remove_inputs,
            remove_inputs=self.add_inputs,
            add_outputs=self.remove_outputs,
            remove_outputs=self.add_outputs,
            srlg_groups=groups,
            label=f"inverse({self.label})" if self.label else "",
        )

    # -- serialisation ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "add_links": [[encode_node(u), encode_node(v)] for u, v in self.add_links],
            "remove_links": [
                [encode_node(u), encode_node(v)] for u, v in self.remove_links
            ],
            "add_inputs": [encode_node(n) for n in self.add_inputs],
            "remove_inputs": [encode_node(n) for n in self.remove_inputs],
            "add_outputs": [encode_node(n) for n in self.add_outputs],
            "remove_outputs": [encode_node(n) for n in self.remove_outputs],
            "srlg_groups": dict(self.srlg_groups)
            if self.srlg_groups is not None
            else None,
            "label": self.label,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DeltaSpec":
        data = _expect_mapping(payload, "delta spec")
        unknown = set(data) - _DELTA_FIELDS
        if unknown:
            raise SpecError(f"unknown delta spec fields {sorted(unknown)}")

        def links(field_name: str) -> Tuple[Tuple[Any, Any], ...]:
            entries = data.get(field_name) or []
            if not isinstance(entries, Sequence) or isinstance(entries, str):
                raise SpecError(f"delta {field_name} must be a list of [u, v] links")
            decoded = []
            for link in entries:
                if not isinstance(link, Sequence) or isinstance(link, str) or len(link) != 2:
                    raise SpecError(
                        f"delta {field_name} entry {link!r} is not a [u, v] link"
                    )
                decoded.append((decode_node(link[0]), decode_node(link[1])))
            return tuple(decoded)

        def nodes(field_name: str) -> Tuple[Any, ...]:
            entries = data.get(field_name) or []
            if not isinstance(entries, Sequence) or isinstance(entries, str):
                raise SpecError(f"delta {field_name} must be a list of nodes")
            return tuple(decode_node(node) for node in entries)

        return cls(
            add_links=links("add_links"),
            remove_links=links("remove_links"),
            add_inputs=nodes("add_inputs"),
            remove_inputs=nodes("remove_inputs"),
            add_outputs=nodes("add_outputs"),
            remove_outputs=nodes("remove_outputs"),
            srlg_groups=data.get("srlg_groups"),
            label=data.get("label", ""),
        )

    @classmethod
    def from_json(cls, document: str) -> "DeltaSpec":
        try:
            payload = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid delta JSON: {exc}") from exc
        return cls.from_dict(payload)


_SPEC_FIELDS = {
    "schema_version",
    "label",
    "topology",
    "placement",
    "routing",
    "failures",
    "engine",
    "seed",
    "analyses",
}


@dataclass(frozen=True)
class ScenarioSpec:
    """The complete, serialisable description of one tomography scenario."""

    topology: TopologySpec
    placement: PlacementSpec
    routing: RoutingSpec = field(default_factory=RoutingSpec)
    failures: FailureModel = field(default_factory=FailureModel)
    engine: EngineConfig = field(default_factory=EngineConfig)
    seed: SeedLike = None
    analyses: Tuple[AnalysisSpec, ...] = (AnalysisSpec("mu"),)
    label: str = ""

    def __post_init__(self) -> None:
        if self.seed is not None and not isinstance(self.seed, (int, str)):
            raise SpecError(f"seed must be an int, a string or None, got {self.seed!r}")
        object.__setattr__(self, "analyses", tuple(self.analyses))

    # -- construction helpers ----------------------------------------------
    @property
    def mechanism(self) -> RoutingMechanism:
        """The routing mechanism as an enum member."""
        return self.routing.mechanism_enum

    def with_seed(self, seed: SeedLike) -> "ScenarioSpec":
        return replace(self, seed=seed)

    def with_engine(self, engine: EngineConfig) -> "ScenarioSpec":
        return replace(self, engine=engine)

    def with_time_budget(self, seconds: Optional[float]) -> "ScenarioSpec":
        """Override only the engine's ``time_budget`` (the CLI
        ``--time-budget`` and the service's ``?budget=``); the spec's other
        engine settings stand, and ``None`` returns the spec unchanged."""
        if seconds is None:
            return self
        return replace(self, engine=replace(self.engine, time_budget=seconds))

    def with_trials(self, n_trials: int) -> "ScenarioSpec":
        """Override the failure-campaign trial count (the CLI ``--trials``)."""
        return replace(self, failures=replace(self.failures, n_trials=n_trials))

    def with_universe(self, universe: "UniverseSpec | str") -> "ScenarioSpec":
        """Override the failure universe (how the CLI ``--universe`` reaches
        the paper-table drivers' per-trial specs)."""
        if isinstance(universe, str):
            universe = UniverseSpec(kind=universe)
        return replace(self, failures=replace(self.failures, universe=universe))

    def display_name(self) -> str:
        if self.label:
            return self.label
        return (
            f"{self.topology.name}/{self.placement.strategy}/{self.routing.mechanism}"
        )

    def build(self) -> "Scenario":
        """Materialise the spec into a live :class:`Scenario` facade."""
        from repro.api.scenario import Scenario

        return Scenario(self)

    # -- serialisation ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "label": self.label,
            "topology": self.topology.to_dict(),
            "placement": self.placement.to_dict(),
            "routing": self.routing.to_dict(),
            "failures": self.failures.to_dict(),
            "engine": self.engine.to_dict(),
            "seed": self.seed,
            "analyses": [analysis.to_dict() for analysis in self.analyses],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        data = _expect_mapping(payload, "scenario spec")
        unknown = set(data) - _SPEC_FIELDS
        if unknown:
            raise SpecError(f"unknown scenario spec fields {sorted(unknown)}")
        version = data.get("schema_version", SCHEMA_VERSION)
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            raise SpecError(
                f"unsupported scenario schema version {version!r}; "
                f"this library speaks versions {SUPPORTED_SCHEMA_VERSIONS} "
                f"(current: {SCHEMA_VERSION})"
            )
        if "topology" not in data or "placement" not in data:
            raise SpecError("scenario spec requires 'topology' and 'placement'")
        analyses_payload: Sequence[Any] = data.get("analyses") or ["mu"]
        if not isinstance(analyses_payload, (list, tuple)):
            raise SpecError(
                f"scenario analyses must be a JSON array, got "
                f"{type(analyses_payload).__name__}"
            )
        return cls(
            topology=TopologySpec.from_dict(data["topology"]),
            placement=PlacementSpec.from_dict(data["placement"]),
            routing=RoutingSpec.from_dict(data.get("routing") or {}),
            failures=FailureModel.from_dict(data.get("failures") or {}),
            engine=EngineConfig.from_dict(data.get("engine") or {}),
            seed=data.get("seed"),
            analyses=tuple(
                AnalysisSpec.from_dict(entry) for entry in analyses_payload
            ),
            label=data.get("label", ""),
        )

    @classmethod
    def from_json(cls, document: str) -> "ScenarioSpec":
        try:
            payload = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid scenario JSON: {exc}") from exc
        return cls.from_dict(payload)

    @classmethod
    def from_file(cls, path: str) -> "ScenarioSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def load_spec_batch(document: str) -> Tuple[ScenarioSpec, ...]:
    """Parse a ``--spec`` document into scenario specs.

    Accepts a bare spec object, a bare JSON list of specs, or a wrapper
    ``{"scenarios": [...]}`` document.
    """
    try:
        payload = json.loads(document)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid spec document: {exc}") from exc
    if isinstance(payload, Mapping) and "scenarios" in payload:
        unknown = set(payload) - {"scenarios"}
        if unknown:
            raise SpecError(f"unknown spec document fields {sorted(unknown)}")
        entries = payload["scenarios"]
    elif isinstance(payload, list):
        entries = payload
    else:
        entries = [payload]
    if not isinstance(entries, list) or not entries:
        raise SpecError("spec document contains no scenarios")
    return tuple(ScenarioSpec.from_dict(entry) for entry in entries)


def parse_churn_document(
    payload: Any, what: str = "churn document"
) -> Tuple[ScenarioSpec, List[DeltaSpec]]:
    """Parse a decoded churn document, ``{"base": <ScenarioSpec>, "deltas":
    [<DeltaSpec>, ...]}`` (the ``--churn`` file and the ``/v1/churn`` body),
    into ``(base, deltas)``.  Both keys are required; ``what`` names the
    document in error messages."""
    if not isinstance(payload, dict):
        raise SpecError(
            f"{what} must be an object with 'base' and 'deltas', "
            f"got {type(payload).__name__}"
        )
    unknown = set(payload) - {"base", "deltas"}
    if unknown:
        raise SpecError(f"unknown {what} fields {sorted(unknown)}")
    if "base" not in payload or "deltas" not in payload:
        raise SpecError(f"{what} requires both 'base' and 'deltas'")
    deltas = payload["deltas"]
    if not isinstance(deltas, list):
        raise SpecError(f"'deltas' must be a list, got {type(deltas).__name__}")
    base = ScenarioSpec.from_dict(payload["base"])
    return base, [DeltaSpec.from_dict(entry) for entry in deltas]


if False:  # pragma: no cover - typing-only import without a runtime cycle
    from repro.api.scenario import Scenario
