"""Chained evolve parity: a churn walk stays bit-identical at every step.

``PathSet.apply_delta`` checks each delta against the path set it evolves
and re-enumerates the post-delta inputs, and ``PathSet.engine`` builds the
evolved engines.  The law is checked after *every* step of walks of 8–10
link flaps and monitor edits, on random directed and undirected graphs under
CSP, CAP⁻ and CAP (CAP⁻ also under a path-length cutoff), on every
available column kernel: the evolved path set equals a fresh
``enumerate_paths`` (paths and their order, node masks, link masks when the
parent had derived them), and every evolved engine equals a fresh
``SignatureEngine`` (plan members, touch keys, rows).

Walks are generated as explicit JSON-able cases, so a shrunk failure can be
committed as ``tests/corpus/evolve_chain_*.json`` and replayed as is.

The file also pins the µ = 0 contract of a churn step that leaves an element
on no path: µ is 0 with witness ∅ / {v}, the evolved scenario and a rebuild
agree on ``mu()`` and ``localization_campaign()``, and the localizer reports
∅ as the unique explanation of the all-zero observation.
"""

from __future__ import annotations

import glob
import json
import os

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.scenario import Scenario
from repro.api.spec import (
    DeltaSpec,
    FailureModel,
    PlacementSpec,
    ScenarioSpec,
    TopologySpec,
)
from repro.engine.cache import clear_pathset_cache
from repro.engine.signatures import SignatureEngine
from repro.exceptions import IdentifiabilityError, RoutingError
from repro.monitors.placement import MonitorPlacement
from repro.routing.paths import PathSetDelta, count_paths, enumerate_paths
from repro.tomography.scenario import TomographySession

from conftest import BACKENDS, auto_backend

MECHANISMS = ("CSP", "CAP-", "CAP")
CORPUS_GLOB = os.path.join(os.path.dirname(__file__), "corpus", "evolve_chain_*.json")
DELTA_FIELDS = (
    "add_links", "remove_links", "add_inputs", "remove_inputs", "add_outputs",
    "remove_outputs",
)


# -- walks ---------------------------------------------------------------------


def _graph(case, edges):
    graph = nx.DiGraph() if case["directed"] else nx.Graph()
    graph.add_nodes_from(range(case["n_nodes"]))
    graph.add_edges_from(tuple(edge) for edge in edges)
    return graph


def _has_paths(case, edges, inputs, outputs) -> bool:
    try:
        count_paths(
            _graph(case, edges),
            MonitorPlacement(inputs, outputs),
            case["mechanism"],
            case.get("cutoff"),
        )
    except RoutingError:
        return False
    return True


def _step(edges, inputs, outputs, delta):
    """The (edges, inputs, outputs) state after one delta document."""
    edges = set(edges) - {tuple(link) for link in delta.get("remove_links", ())}
    edges |= {tuple(link) for link in delta.get("add_links", ())}
    inputs = (set(inputs) - set(delta.get("remove_inputs", ()))) | set(
        delta.get("add_inputs", ())
    )
    outputs = (set(outputs) - set(delta.get("remove_outputs", ()))) | set(
        delta.get("add_outputs", ())
    )
    return edges, inputs, outputs


def _flap(graph, delta):
    """A copy of ``graph`` with the delta's links flapped, the way
    ``Scenario.evolve`` edits its graph (re-added edges append)."""
    graph = graph.copy()
    graph.remove_edges_from(tuple(link) for link in delta.get("remove_links", ()))
    graph.add_edges_from(tuple(link) for link in delta.get("add_links", ()))
    return graph


@st.composite
def walks(draw, mechanisms=MECHANISMS, cutoffs=(None,)):
    """A random graph, placement, mechanism and path-length cutoff plus a
    walk of 8–10 deltas, each leaving at least one measurement path."""
    directed = draw(st.booleans())
    n = draw(st.integers(4, 7))
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges.add((v, u) if directed and draw(st.booleans()) else (u, v))
    for u, v in draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4)
    ):
        if u != v and (u, v) not in edges and (directed or (v, u) not in edges):
            edges.add((u, v))
    case = {
        "directed": directed,
        "n_nodes": n,
        "mechanism": draw(st.sampled_from(mechanisms)),
        "cutoff": draw(st.sampled_from(cutoffs)),
        "links_derived": draw(st.booleans()),
        "edges": sorted(edges),
        "inputs": sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2))),
        "outputs": sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2))),
        "steps": [],
    }
    if not _has_paths(case, edges, case["inputs"], case["outputs"]):
        case["inputs"] = case["outputs"] = [0]
        case["mechanism"] = "CAP"  # the loop at node 0 is always a path
    state = (edges, set(case["inputs"]), set(case["outputs"]))
    target = draw(st.integers(8, 10))
    attempts = 0
    while len(case["steps"]) < target and attempts < 60:
        attempts += 1
        edges, inputs, outputs = state
        present = sorted(edges)
        absent = sorted(
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v
            and (u, v) not in edges
            and (directed or (u < v and (v, u) not in edges))
        )
        kind = draw(st.sampled_from(("down", "up", "swap", "monitor")))
        delta = {}
        if kind in ("down", "swap") and present:
            delta["remove_links"] = [list(draw(st.sampled_from(present)))]
        if kind in ("up", "swap") and absent:
            delta["add_links"] = [list(draw(st.sampled_from(absent)))]
        if kind == "monitor":
            role = draw(st.sampled_from(("inputs", "outputs")))
            current = inputs if role == "inputs" else outputs
            spare = sorted(set(range(n)) - current)
            if len(current) > 1 and (not spare or draw(st.booleans())):
                delta[f"remove_{role}"] = [draw(st.sampled_from(sorted(current)))]
            elif spare:
                delta[f"add_{role}"] = [draw(st.sampled_from(spare))]
        if not delta:
            continue
        after = _step(edges, inputs, outputs, delta)
        if _has_paths(case, *after):
            case["steps"].append(delta)
            state = after
    return case


# -- the law -------------------------------------------------------------------


def _srlg_groups(case):
    links = sorted(tuple(edge) for edge in case["edges"])
    return {f"g{i}": links[i::3] for i in range(3) if links[i::3]}


def _universes(pathset, case):
    """The universes the walk keeps engines for (SRLG only while every
    grouped link is still present)."""
    universes = [pathset.universe("node")]
    if case["links_derived"]:
        universes.append(pathset.universe("link"))
        try:
            universes.append(pathset.universe("srlg", _srlg_groups(case)))
        except IdentifiabilityError:
            pass
    return universes


def _engine_state(engine):
    plan = engine.compression
    return {
        "elements": engine.elements,
        "members": None if plan is None else plan.members,
        "touch_keys": None if plan is None else plan.touch_keys,
        "rows": {e: engine.signature(e) for e in engine.elements},
    }


def _assert_pathset_parity(parent, evolved, fresh, tag):
    assert evolved.paths == fresh.paths, tag
    assert evolved.nodes == fresh.nodes, tag
    assert evolved._node_masks == fresh._node_masks, tag
    if parent._link_masks is None:
        assert evolved._link_masks is None, tag
    else:
        assert evolved.links == fresh.links, tag
        for link in fresh.links:
            assert evolved.paths_through_link(link) == fresh.paths_through_link(link), tag


def _run_walk(case, backend):
    mechanism, cutoff = case["mechanism"], case.get("cutoff")
    edges, inputs, outputs = set(map(tuple, case["edges"])), case["inputs"], case["outputs"]
    graph = _graph(case, case["edges"])
    with auto_backend(backend):
        pathset = enumerate_paths(
            graph, MonitorPlacement(inputs, outputs), mechanism, cutoff
        )
        for universe in _universes(pathset, case):
            pathset.engine(universe=universe)
        for number, step in enumerate(case["steps"]):
            tag = f"{backend}/step {number}: {step}"
            edges, inputs, outputs = _step(edges, inputs, outputs, step)
            graph = _flap(graph, step)
            placement = MonitorPlacement(inputs, outputs)
            delta = PathSetDelta(
                **{name: tuple(map(tuple, step[name])) if "links" in name
                   else tuple(step[name]) for name in DELTA_FIELDS if name in step}
            )
            evolved = pathset.apply_delta(graph, placement, mechanism, delta, cutoff)
            fresh = enumerate_paths(graph, placement, mechanism, cutoff)
            _assert_pathset_parity(pathset, evolved, fresh, tag)
            for universe in _universes(evolved, case):
                patched = evolved.engine(universe=universe)
                rebuilt = SignatureEngine.from_universe(
                    fresh.universe(universe.kind, dict(universe.groups or ()) or None)
                )
                assert _engine_state(patched) == _engine_state(rebuilt), (
                    f"{tag} [{universe.kind}]"
                )
            pathset = evolved


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(case=walks())
def test_chained_evolve_parity(case):
    for backend in BACKENDS:
        _run_walk(case, backend)


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(case=walks(mechanisms=("CAP-",), cutoffs=(1, 2, 3, 4)))
def test_cap_minus_cutoff_walk(case):
    """Link flaps under CAP⁻ with a path-length cutoff: the re-emitted
    cycle family and the scoped additions obey the cutoff at every step."""
    for backend in BACKENDS:
        _run_walk(case, backend)


@pytest.mark.parametrize(
    "path", sorted(glob.glob(CORPUS_GLOB)), ids=os.path.basename
)
@pytest.mark.parametrize("backend", BACKENDS)
def test_corpus_walks(path, backend):
    """Pinned walks replay."""
    with open(path) as handle:
        case = json.load(handle)
    assert len(case["steps"]) >= 8
    _run_walk(case, backend)


def test_corpus_is_present():
    assert len(glob.glob(CORPUS_GLOB)) >= 3


# -- µ = 0 after a flap ------------------------------------------------------------


CENTRE = (2, 2)
CENTRE_LINKS = (((1, 2), (2, 2)), ((2, 1), (2, 2)), ((2, 2), (2, 3)), ((2, 2), (3, 2)))


@pytest.mark.parametrize("backend", BACKENDS)
def test_uncovered_after_flap_gives_mu_zero(backend):
    """Cutting every link of the grid centre leaves it on no path: µ = 0 with
    witness ∅ / {centre}, identical to a rebuild, and the localizer explains
    the all-zero observation by ∅ alone."""
    with auto_backend(backend):
        spec = ScenarioSpec(
            topology=TopologySpec("undirected_grid", {"n": 3}),
            placement=PlacementSpec("chi_corners"),
            failures=FailureModel(n_trials=6, size=1),
            seed=5,
        )
        base = Scenario(spec)
        assert base.mu().value > 0
        evolved = base.evolve(DeltaSpec(remove_links=CENTRE_LINKS, label="cut centre"))
        assert evolved.pathset.uncovered_nodes() == {CENTRE}
        report = evolved.mu()
        assert report.value == 0
        result = evolved.identifiability()
        assert {result.witness.first, result.witness.second} == {
            frozenset(), frozenset({CENTRE})
        }

        clear_pathset_cache()
        rebuilt = Scenario(ScenarioSpec.from_dict(evolved.spec.to_dict()))
        assert rebuilt.pathset.paths == evolved.pathset.paths
        assert report.to_dict() == rebuilt.mu().to_dict()
        assert (
            evolved.localization_campaign().to_dict()
            == rebuilt.localization_campaign().to_dict()
        )

        session = TomographySession.from_scenario(evolved)
        zeros = evolved.engine.measurement_vector({CENTRE})
        assert zeros == (0,) * evolved.pathset.n_paths
        assert session.localize(zeros, 1).consistent_sets == (frozenset(),)


# -- apply_delta input validation ----------------------------------------------


def _square():
    graph = nx.Graph([(0, 1), (1, 2), (2, 3), (3, 0)])
    placement = MonitorPlacement({0}, {2})
    return graph, placement, enumerate_paths(graph, placement, "CSP")


def _without(graph, *links):
    graph = graph.copy()
    graph.remove_edges_from(links)
    return graph


@pytest.mark.parametrize(
    "make",
    [
        # directedness cannot change
        lambda g, p: (nx.DiGraph(g), p, PathSetDelta()),
        # the node universe is fixed
        lambda g, p: (nx.Graph(list(g.edges) + [(3, 4)]), p, PathSetDelta()),
        # removing a link outside the universe
        lambda g, p: (g, p, PathSetDelta(remove_links=((0, 2),))),
        # adding a link already present
        lambda g, p: (g, p, PathSetDelta(add_links=((0, 1),))),
        # the graph does not reflect the delta
        lambda g, p: (g, p, PathSetDelta(remove_links=((0, 1),))),
        # the placement does not reflect the delta
        lambda g, p: (g, p, PathSetDelta(add_inputs=(1,))),
        lambda g, p: (g, p, PathSetDelta(remove_outputs=(2,))),
        # every measurement path is cut
        lambda g, p: (
            _without(g, (0, 1), (0, 3)), p,
            PathSetDelta(remove_links=((0, 1), (0, 3))),
        ),
    ],
)
@pytest.mark.parametrize("backend", BACKENDS)
def test_apply_delta_validation_errors(make, backend):
    graph, placement, pathset = _square()
    new_graph, new_placement, delta = make(graph, placement)
    with auto_backend(backend), pytest.raises(RoutingError):
        pathset.apply_delta(new_graph, new_placement, "CSP", delta)
