"""The benchmark's three workloads: op documents from a seed, set-up, the
timed op at the public entry point, and the untimed output check.

Every op list is a pure function of ``(workload seed, op count)``; the
library only ever sees the generated spec, request and delta documents.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
from dataclasses import replace
from http.client import HTTPConnection
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import networkx as nx

#: Agrid seeds whose boosted (d=3) network under MDMP(d=3) placement has
#: µ = 2 and 6,500-7,500 CSP paths, about as many as the n=7 directed grid
#: (6,926).  Every op of the three cheaper spec-batch families then does
#: about the same work, so p50 falls inside one cluster and a run's figures
#: do not hinge on which cells the seed drew.
CLARANET_SEEDS = (
    28, 40, 50, 53, 58, 72, 78, 87, 88, 90, 103, 104, 135, 160, 173, 175, 194,
)
EUNETWORKS_SEEDS = (
    2, 5, 9, 12, 19, 30, 32, 45, 55, 64, 68, 83, 85, 91, 94, 98, 99, 129, 133,
    134, 135, 148, 155, 157, 160, 166, 174, 176, 181, 184, 194,
)
#: The churn base: boosted Claranet from this agrid seed (7,871 paths).
CHURN_BASE_SEED = 1
#: The churn walk never has more links down at once than this.
MAX_LINKS_DOWN = 2

SPEC_BATCH_ANALYSES = ("mu", "truncated", "bounds", "measurement")
#: spec-batch cycles through these families; grid families carry their d.
FAMILIES = ("claranet", "eunetworks", "grid", "hypergrid")
GRID_DIMENSION = {"grid": 2, "hypergrid": 3}


class CheckFailed(Exception):
    """An op's output violates the paper's guarantees or its reference."""


def documents_digest(documents: Sequence[Any]) -> str:
    canonical = json.dumps(list(documents), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def boosted_spec(network: str, agrid_seed: int, label: str) -> Dict[str, Any]:
    return {
        "schema_version": 2,
        "label": label,
        "topology": {
            "name": "agrid",
            "params": {
                "base": {"name": network, "params": {}},
                "dimension": 3,
                "selector": "uniform",
            },
        },
        "placement": {"strategy": "mdmp", "params": {"d": 3}},
        "routing": {"mechanism": "CSP", "cutoff": None, "max_paths": None},
        "seed": agrid_seed,
    }


def family_spec(family: str, rng: random.Random, label: str) -> Dict[str, Any]:
    """One spec-batch scenario document of ``family``."""
    if family == "claranet":
        spec = boosted_spec("claranet", rng.choice(CLARANET_SEEDS), label)
    elif family == "eunetworks":
        spec = boosted_spec("eunetworks", rng.choice(EUNETWORKS_SEEDS), label)
    else:
        topology = (
            {"name": "directed_grid", "params": {"n": 7}}
            if family == "grid"
            else {"name": "directed_hypergrid", "params": {"n": 4, "d": 3}}
        )
        spec = {
            "schema_version": 2,
            "label": label,
            "topology": topology,
            "placement": {"strategy": "chi_g", "params": {}},
            "routing": {"mechanism": "CSP", "cutoff": None, "max_paths": None},
            "seed": rng.randrange(2**31),
        }
    spec["analyses"] = [{"analysis": name, "params": {}} for name in SPEC_BATCH_ANALYSES]
    return spec


def churn_walk(
    graph: nx.Graph,
    inputs: Sequence[Any],
    outputs: Sequence[Any],
    seed: int,
    n: int,
) -> List[Dict[str, Any]]:
    """A seeded walk of link flaps as delta documents.

    Links go down one per step until :data:`MAX_LINKS_DOWN` are down.  From then on
    each step brings the oldest back and takes another down in one delta,
    so every later step patches the same kind of change over a state with
    the same number of links down, and step costs form one cluster rather
    than one per delta kind.  A link only goes down if some input still
    reaches a distinct output afterwards, so the evolved scenario always has
    a measurement path.
    """
    rng = random.Random(f"churn:{seed}")
    links = sorted((tuple(sorted(edge, key=repr)) for edge in graph.edges()), key=repr)
    down: List[Tuple[Any, Any]] = []
    deltas: List[Dict[str, Any]] = []
    for step in range(n):
        delta: Dict[str, Any] = {}
        back = down.pop(0) if len(down) == MAX_LINKS_DOWN else None
        candidates = [
            link for link in links
            if link not in down and link != back
            and has_monitor_path(graph, down + [link], inputs, outputs)
        ]
        if candidates:
            link = rng.choice(candidates)
            down.append(link)
            delta["remove_links"] = [list(link)]
        elif back is None and down:
            back = down.pop(0)
        elif back is None:
            raise ValueError("no link can go down without cutting every monitor path")
        if back is not None:
            delta["add_links"] = [list(back)]
        kind = "swap" if len(delta) == 2 else ("up" if back else "down")
        deltas.append({"label": f"{step}-{kind}", **delta})
    return deltas


def has_monitor_path(
    graph: nx.Graph, removed: Sequence[Tuple[Any, Any]], inputs: Sequence[Any],
    outputs: Sequence[Any],
) -> bool:
    """Whether some input reaches a distinct output once ``removed`` is cut."""
    view = nx.restricted_view(graph, [], removed)
    return any(
        source != target and nx.has_path(view, source, target)
        for source in inputs
        for target in outputs
    )


class Workload:
    """Base: a fixed list of op documents run in a closed loop."""

    name = ""
    #: Layer of the op's root span in the traced run (``None``: unattributed).
    root_layer: Optional[str] = None

    def __init__(self) -> None:
        self.ops: List[Dict[str, Any]] = []
        self.kinds: List[str] = []
        self.tracer = None

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """A span around the benchmark's own call into a layer."""
        index = None if self.tracer is None else self.tracer.open(layer)
        try:
            yield
        finally:
            if index is not None:
                self.tracer.close(index)

    def counter_sources(self) -> List[Callable[[], Dict[str, float]]]:
        from repro.engine.cache import cache_stats
        from repro.engine.signatures import search_counters

        def search() -> Dict[str, float]:
            counters = search_counters()
            return {
                "search.calls": counters.searches,
                "search.subsets": counters.subsets_enumerated,
                "search.prunes": counters.dominance_prunes,
                "search.blocks": counters.blocks_evaluated,
            }

        def pathsets() -> Dict[str, float]:
            stats = cache_stats()
            return {
                "cache.pathset_hits": stats.hits,
                "cache.pathset_misses": stats.misses,
                "cache.pathset_evictions": stats.evictions,
            }

        return [search, pathsets]

    def setup(self) -> None:
        """One set-up: bring the process to the state op 0 expects."""

    def run_op(self, index: int) -> Any:
        raise NotImplementedError

    def check(self, index: int, result: Any) -> None:
        """Untimed output check; raises :class:`CheckFailed`."""

    def after_op(self, index: int) -> None:
        """Untimed clean-up between ops."""

    def close(self) -> None:
        """Stop what set-up started."""


# --------------------------------------------------------------------------
# spec-batch: cold `repro-experiments --spec` work, one op per scenario
# --------------------------------------------------------------------------

class SpecBatch(Workload):
    name = "spec-batch"

    def __init__(self, seed: int, n_ops: int) -> None:
        super().__init__()
        rng = random.Random(f"spec-batch:{seed}")
        self.warmup = [family_spec(f, rng, f"warm-up {f}") for f in FAMILIES]
        for index in range(n_ops):
            family = FAMILIES[index % len(FAMILIES)]
            self.ops.append(family_spec(family, rng, f"op {index} {family}"))
            self.kinds.append(family)

    def _run(self, document: Dict[str, Any]) -> str:
        from repro.api import spec as api_spec
        from repro.experiments import runner

        spec = api_spec.ScenarioSpec.from_dict(document)
        sections = runner.run_spec_sections([spec], jobs=1)
        with self.span("api.serialize"):
            return runner.render_json(sections, seed=0, jobs=1)

    def setup(self) -> None:
        from repro.engine.cache import clear_pathset_cache

        for index, document in enumerate(self.warmup):
            clear_pathset_cache()
            self._check(FAMILIES[index], self._run(document))
        clear_pathset_cache()

    def run_op(self, index: int) -> str:
        return self._run(self.ops[index])

    def check(self, index: int, result: str) -> None:
        self._check(self.kinds[index], result)

    def _check(self, family: str, text: str) -> None:
        analyses = json.loads(text)["sections"][0]["data"]["analyses"]
        mu = analyses["mu"]["value"]
        if mu > analyses["bounds"]["combined"]:
            raise CheckFailed(f"{family}: µ={mu} exceeds its structural bound")
        if family in GRID_DIMENSION and mu != GRID_DIMENSION[family]:
            raise CheckFailed(
                f"{family}: µ={mu}, the directed-grid theorem gives d={GRID_DIMENSION[family]}"
            )
        if analyses["measurement"]["mu"] != mu:
            raise CheckFailed(f"{family}: measurement µ disagrees with mu")

    def after_op(self, index: int) -> None:
        from repro.engine.cache import clear_pathset_cache

        clear_pathset_cache()


# --------------------------------------------------------------------------
# serve-localize: warm /v1/analyze localization requests, one keep-alive client
# --------------------------------------------------------------------------

class ServeLocalize(Workload):
    name = "serve-localize"
    root_layer = "service"
    n_cells = 4

    def __init__(self, seed: int, n_ops: int) -> None:
        super().__init__()
        rng = random.Random(f"serve-localize:{seed}")
        self.cells = [
            boosted_spec("claranet", agrid_seed, f"cell {agrid_seed}")
            for agrid_seed in rng.sample(CLARANET_SEEDS, self.n_cells)
        ]
        self.warmup = [self._request(cell, rng) for cell in self.cells]
        for index in range(n_ops):
            self.ops.append(self._request(self.cells[index % self.n_cells], rng))
            self.kinds.append("localize")
        self.server = None
        self.connection: Optional[HTTPConnection] = None
        self._referenced: set = set()

    @staticmethod
    def _request(cell: Dict[str, Any], rng: random.Random) -> Dict[str, Any]:
        document = dict(cell)
        document["failures"] = {"model": "uniform", "size": 2, "n_trials": 3}
        document["analyses"] = [
            {
                "analysis": "localization",
                "params": {"failure_size": 2, "n_trials": 3, "rng": rng.randrange(2**31)},
            }
        ]
        return document

    def counter_sources(self) -> List[Callable[[], Dict[str, float]]]:
        def scenarios() -> Dict[str, float]:
            stats = self.server.server.cache.stats()
            return {
                "service.scenario_hits": stats.hits,
                "service.scenario_misses": stats.misses,
            }

        return super().counter_sources() + [scenarios]

    def setup(self) -> None:
        from repro.engine.cache import clear_pathset_cache
        from repro.service.app import BackgroundServer

        self.close()
        clear_pathset_cache()
        self.server = BackgroundServer(workers=1).start()
        self.connection = HTTPConnection("127.0.0.1", self.server.port, timeout=120)
        for document in self.warmup:
            self.check(-1, self._post(document))

    def _post(self, document: Dict[str, Any]) -> Dict[str, Any]:
        body = json.dumps(document).encode("utf-8")
        self.connection.request(
            "POST", "/v1/analyze", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = self.connection.getresponse()
        payload = response.read()
        if response.status != 200:
            raise CheckFailed(f"/v1/analyze answered {response.status}: {payload[:200]!r}")
        return json.loads(payload)

    def run_op(self, index: int) -> Dict[str, Any]:
        return self._post(self.ops[index])

    def check(self, index: int, result: Dict[str, Any]) -> None:
        report = result["analyses"]["localization"]
        # Failure size 2 ≤ µ = 2, so Definition 2.1 guarantees unique
        # localization of every trial.
        if report["unique_rate"] != 1.0 or report["mu"] != 2:
            raise CheckFailed(f"localization {report} is not unique at µ=2")
        cell = index % self.n_cells
        if index >= 0 and cell not in self._referenced:
            from repro.api.scenario import Scenario
            from repro.api.spec import ScenarioSpec

            local = Scenario(ScenarioSpec.from_dict(self.ops[index])).run_all()
            expected = json.loads(
                json.dumps({name: r.to_dict() for name, r in local.items()})
            )
            if expected != result["analyses"]:
                raise CheckFailed(f"served cell {cell} differs from Scenario.run_all()")
            self._referenced.add(cell)

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        if self.server is not None:
            self.server.stop()
            self.server = None


# --------------------------------------------------------------------------
# churn-replay: Scenario.evolve(delta) + mu() + serialization per step
# --------------------------------------------------------------------------

class ChurnReplay(Workload):
    name = "churn-replay"
    n_warmup = 4
    #: Every k-th step is rebuilt from its serialized spec and compared.
    verify_every = 16

    def __init__(self, seed: int, n_ops: int) -> None:
        super().__init__()
        from repro.api.scenario import Scenario
        from repro.api.spec import ScenarioSpec

        self.base = boosted_spec("claranet", CHURN_BASE_SEED, "churn base")
        base = Scenario(ScenarioSpec.from_dict(self.base))
        deltas = churn_walk(
            base.graph,
            sorted(base.placement.inputs, key=repr),
            sorted(base.placement.outputs, key=repr),
            seed,
            self.n_warmup + n_ops,
        )
        self.warmup, self.ops = deltas[: self.n_warmup], deltas[self.n_warmup:]
        self.kinds = [delta["label"].split("-")[1] for delta in self.ops]
        self.scenario = None

    def setup(self) -> None:
        from repro.api.scenario import Scenario
        from repro.api.spec import DeltaSpec, ScenarioSpec
        from repro.engine.cache import clear_pathset_cache

        clear_pathset_cache()
        self.scenario = Scenario(ScenarioSpec.from_dict(self.base))
        self.scenario.mu()
        for delta in self.warmup:
            self.scenario = self.scenario.evolve(DeltaSpec.from_dict(delta))
            self.scenario.mu()

    def run_op(self, index: int) -> Tuple[Any, str]:
        from repro.api.spec import DeltaSpec

        evolved = self.scenario.evolve(DeltaSpec.from_dict(self.ops[index]))
        report = evolved.mu()
        with self.span("api.serialize"):
            text = json.dumps(
                {"step": index, "mu": report.to_dict(), "spec": evolved.spec.to_dict()}
            )
        self.scenario = evolved
        return report, text

    def check(self, index: int, result: Tuple[Any, str]) -> None:
        report, text = result
        if report.bound is not None and report.value > report.bound:
            raise CheckFailed(f"step {index}: µ={report.value} exceeds its bound")
        if index % self.verify_every:
            return
        from repro.api.scenario import Scenario
        from repro.api.spec import ScenarioSpec

        spec = ScenarioSpec.from_dict(json.loads(text)["spec"])
        rebuilt = Scenario(replace(spec, engine=replace(spec.engine, cache=False)))
        if rebuilt.mu().to_dict() != report.to_dict():
            raise CheckFailed(f"step {index}: evolved µ differs from a rebuild")


WORKLOADS = {cls.name: cls for cls in (SpecBatch, ServeLocalize, ChurnReplay)}

#: Nominal ops per second on a 2-vCPU host: a run's op count is
#: ``seconds × rate`` rounded up to an even number of whole cycles (a traced
#: run replays the first half), never measured, so every run of one
#: ``--seconds`` ranks the same op set.
NOMINAL_RATE = {"spec-batch": 4.0, "serve-localize": 7.0, "churn-replay": 10.0}
CYCLE = {"spec-batch": len(FAMILIES), "serve-localize": ServeLocalize.n_cells, "churn-replay": 1}


def op_count(workload: str, seconds: float) -> int:
    cycle = CYCLE[workload]
    wanted = max(1, round(seconds * NOMINAL_RATE[workload]))
    return -(-wanted // (2 * cycle)) * 2 * cycle

