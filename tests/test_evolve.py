"""Incremental scenarios: ``Scenario.evolve`` delta updates end to end.

The load-bearing property of the PR-7 refactor is **bit-identical parity**:
a scenario evolved through :meth:`Scenario.evolve` must be indistinguishable
from building its post-delta spec from scratch — same path tuples in the
same order, same links, same µ report (value, witness, ``searched_up_to``),
same separability census and same localization campaign.  The matrix test
sweeps 20 seeds × 3 mechanisms × {node, link, srlg} over small random
graphs; the engine tests additionally require the *internals* (compression
plan, signature rows) to match a fresh build, not merely observationally —
an evolve step re-enumerates its path set and builds its engines afresh.

Satellites covered here: the eviction counter of the pathset cache, the
``srlg:<groups.json>`` CLI universe, ``restrict_to_paths`` composed with an
SRLG universe, the Hypothesis metamorphic inverse test (with committed
regression cases), and the ``--churn`` replay driver.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro.api.scenario import Scenario
from repro.api.spec import (
    DeltaSpec,
    EngineConfig,
    FailureModel,
    PlacementSpec,
    ScenarioSpec,
    TopologySpec,
    UniverseSpec,
)
from repro.engine.cache import PathSetCache, clear_pathset_cache, pathset_cache
from repro.exceptions import (
    ExperimentError,
    IdentifiabilityError,
    RoutingError,
    SpecError,
)
from repro.experiments.runner import (
    load_churn_file,
    parse_universe_argument,
    run_churn_sections,
)
from repro.routing.paths import PathExplosionError
from repro.utils.bitset import bit_indices

MECHANISMS = ("CSP", "CAP", "CAP-")
EVOLVE_ERRORS = (SpecError, RoutingError, IdentifiabilityError, PathExplosionError)


def _random_spec(seed: int, mechanism: str, failures: FailureModel) -> ScenarioSpec:
    return ScenarioSpec(
        topology=TopologySpec("random_connected_sparse", {"n_nodes": 8, "extra_edges": 3}),
        placement=PlacementSpec("random", {"n_inputs": 2, "n_outputs": 2}),
        routing=repro.RoutingSpec(mechanism=mechanism),
        failures=failures,
        seed=seed,
    )


def _delta_for(base: Scenario, seed: int, protected=()) -> DeltaSpec:
    """A deterministic non-trivial delta for ``base``: one removable link,
    one absent link added, and (on odd seeds) a monitor join."""
    links = [tuple(link) for link in base.pathset.links if tuple(link) not in set(protected)]
    graph = base.graph
    nodes = sorted(graph.nodes)
    absent = [
        (u, v)
        for i, u in enumerate(nodes)
        for v in nodes[i + 1:]
        if not graph.has_edge(u, v)
    ]
    remove = (links[seed % len(links)],) if links else ()
    add = (absent[seed % len(absent)],) if absent else ()
    kwargs = {"remove_links": remove, "add_links": add}
    if seed % 2:
        spare = [
            n for n in nodes
            if n not in base.placement.inputs
        ]
        if spare:
            kwargs["add_inputs"] = (spare[seed % len(spare)],)
    return DeltaSpec(**kwargs)


def _assert_bit_identical(evolved: Scenario, tag: str) -> None:
    """Evolved scenario vs a from-scratch build of its own serialised spec."""
    clear_pathset_cache()
    scratch = Scenario(ScenarioSpec.from_dict(evolved.spec.to_dict()))
    assert evolved.pathset.paths == scratch.pathset.paths, tag
    assert evolved.pathset.nodes == scratch.pathset.nodes, tag
    assert evolved.pathset.links == scratch.pathset.links, tag
    assert evolved.mu().to_dict() == scratch.mu().to_dict(), tag
    assert evolved.separability().to_dict() == scratch.separability().to_dict(), tag
    assert (
        evolved.localization_campaign().to_dict()
        == scratch.localization_campaign().to_dict()
    ), tag
    assert evolved.measurement().to_dict() == scratch.measurement().to_dict(), tag


class TestEvolveParityMatrix:
    """20 seeds × 3 mechanisms × {node, link, srlg}: evolved ≡ from-scratch."""

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("kind", ("node", "link"))
    def test_parity(self, mechanism, kind):
        ran = 0
        for seed in range(20):
            failures = FailureModel(n_trials=4, universe=UniverseSpec(kind=kind))
            base = Scenario(_random_spec(seed, mechanism, failures))
            try:
                delta = _delta_for(base, seed)
                evolved = base.evolve(delta)
                evolved.pathset
            except EVOLVE_ERRORS:
                continue
            _assert_bit_identical(evolved, f"{mechanism}/{kind}/seed={seed}")
            ran += 1
        assert ran >= 12, f"too few viable cases ran ({ran}/20)"

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_parity_srlg(self, mechanism):
        ran = 0
        for seed in range(20):
            probe = Scenario(_random_spec(seed, mechanism, FailureModel(n_trials=4)))
            try:
                links = [tuple(link) for link in probe.pathset.links]
            except EVOLVE_ERRORS:
                continue
            if len(links) < 4:
                continue
            delta = _delta_for(probe, seed, protected=links[:3])
            groups = {
                "g1": [list(links[0])],
                "g2": [list(links[1]), list(links[2])],
            }
            failures = FailureModel(
                n_trials=4, universe=UniverseSpec(kind="srlg", groups=groups)
            )
            base = Scenario(_random_spec(seed, mechanism, failures))
            try:
                evolved = base.evolve(delta)
                evolved.pathset
                evolved.universe
            except EVOLVE_ERRORS:
                continue
            _assert_bit_identical(evolved, f"{mechanism}/srlg/seed={seed}")
            ran += 1
        assert ran >= 10, f"too few viable srlg cases ran ({ran}/20)"

    def test_removing_grouped_link_without_redefinition_fails(self):
        groups = {"west": [[[1, 1], [2, 1]]]}
        spec = ScenarioSpec(
            topology=TopologySpec("undirected_grid", {"n": 3}),
            placement=PlacementSpec("chi_corners"),
            failures=FailureModel(universe=UniverseSpec(kind="srlg", groups=groups)),
        )
        base = Scenario(spec)
        base.mu()
        evolved = base.evolve(DeltaSpec(remove_links=(((1, 1), (2, 1)),)))
        with pytest.raises(SpecError):
            evolved.mu()
        # ... but redefining the groups in the same delta is fine.
        redefined = base.evolve(
            DeltaSpec(
                remove_links=(((1, 1), (2, 1)),),
                srlg_groups={"east": [[[1, 3], [2, 3]]]},
            )
        )
        _assert_bit_identical(redefined, "srlg redefinition")


@pytest.fixture(scope="module")
def grid_base() -> Scenario:
    spec = ScenarioSpec(
        topology=TopologySpec("undirected_grid", {"n": 3}),
        placement=PlacementSpec("chi_corners"),
        failures=FailureModel(n_trials=4),
        seed=7,
    )
    return Scenario(spec)


class TestEngineInternals:
    """The evolved engine is structurally equal to a fresh one."""

    def test_patched_plan_and_signatures_match_fresh(self, grid_base):
        evolved = grid_base.evolve(DeltaSpec(remove_links=(((1, 1), (1, 2)),)))
        clear_pathset_cache()
        scratch = Scenario(ScenarioSpec.from_dict(evolved.spec.to_dict()))
        left, right = evolved.engine, scratch.engine
        assert left.compression == right.compression
        assert left._signatures == right._signatures
        assert left.nodes == right.nodes
        assert left.n_paths == right.n_paths

    def test_evolved_engine_is_built_fresh(self, grid_base, monkeypatch):
        from repro.engine.signatures import SignatureEngine

        def refuse(cls, *args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("evolve must not patch the parent engine")

        monkeypatch.setattr(SignatureEngine, "from_delta", classmethod(refuse))
        base = Scenario(ScenarioSpec.from_dict(grid_base.spec.to_dict()))
        base.mu()  # build the parent engine first
        evolved = base.evolve(DeltaSpec(add_links=(((1, 1), (2, 2)),)))
        report = evolved.mu()
        assert evolved.pathset is not base.pathset
        assert evolved.engine is not base.engine
        clear_pathset_cache()
        scratch = Scenario(ScenarioSpec.from_dict(evolved.spec.to_dict()))
        assert report.to_dict() == scratch.mu().to_dict()
        assert evolved.engine.compression == scratch.engine.compression

    def test_evolve_without_cache_still_has_parity(self, grid_base):
        spec = grid_base.spec.with_engine(EngineConfig(cache=False))
        base = Scenario(spec)
        evolved = base.evolve(DeltaSpec(remove_links=(((2, 2), (2, 3)),)))
        _assert_bit_identical(evolved, "cache-off evolve")


class TestEvolveCache:
    def test_get_or_evolve_hits_on_repeat(self, grid_base):
        evolved = grid_base.evolve(DeltaSpec(remove_links=(((1, 1), (1, 2)),)))
        inputs = (evolved.graph, evolved.placement, "CSP", None, None)
        builds = []

        def build():
            builds.append(1)
            return evolved.pathset

        cache = PathSetCache()
        first = cache.get_or_evolve(*inputs, build)
        second = cache.get_or_evolve(*inputs, build)
        assert first is second is evolved.pathset
        assert len(builds) == 1
        # An evolved entry is keyed like a fresh enumeration of its inputs.
        assert cache.get_or_enumerate(*inputs) is first
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (2, 1, 1)

    def test_flapped_graph_does_not_hit_the_base_entry(self):
        """A removed and re-added link lists its neighbour last, which
        permutes the enumeration: the cache must not serve the base's paths
        for it."""
        base_spec = ScenarioSpec(
            topology=TopologySpec("undirected_grid", {"n": 3}),
            placement=PlacementSpec("chi_corners"),
            seed=3,
        )
        link = ((1, 2), (2, 2))
        flapped = (
            Scenario(base_spec)
            .evolve(DeltaSpec(remove_links=(link,)))
            .evolve(DeltaSpec(add_links=(link,)))
            .spec
        )
        clear_pathset_cache()
        Scenario(ScenarioSpec.from_dict(base_spec.to_dict())).pathset
        cached = Scenario(ScenarioSpec.from_dict(flapped.to_dict())).pathset
        uncached = Scenario(flapped.with_engine(EngineConfig(cache=False))).pathset
        assert cached.paths == uncached.paths

    def test_fresh_scenario_of_evolved_spec_hits_the_evolved_entry(self, grid_base):
        evolved = grid_base.evolve(DeltaSpec(remove_links=(((1, 1), (1, 2)),)))
        entry = evolved.pathset
        hits = pathset_cache().stats().hits
        fresh = Scenario(ScenarioSpec.from_dict(evolved.spec.to_dict()))
        assert fresh.pathset is entry
        assert pathset_cache().stats().hits == hits + 1

    def test_delta_routes_to_one_adjacency_share_an_entry(self, grid_base):
        first = ((1, 1), (1, 2))
        second = ((3, 2), (3, 3))
        stepwise = grid_base.evolve(DeltaSpec(remove_links=(first,))).evolve(
            DeltaSpec(remove_links=(second,))
        )
        stepwise.pathset
        misses = pathset_cache().stats().misses
        at_once = grid_base.evolve(DeltaSpec(remove_links=(second, first)))
        assert at_once.pathset is stepwise.pathset
        assert pathset_cache().stats().misses == misses

    def test_chained_evolve_enumerates_only_what_an_analysis_reads(self, grid_base):
        clear_pathset_cache()
        evolved = (
            Scenario(ScenarioSpec.from_dict(grid_base.spec.to_dict()))
            .evolve(DeltaSpec(remove_links=(((1, 1), (1, 2)),)))
            .evolve(DeltaSpec(remove_links=(((3, 2), (3, 3)),)))
        )
        stats = pathset_cache().stats()
        assert (stats.hits, stats.misses) == (0, 0)
        evolved.mu()
        stats = pathset_cache().stats()
        assert (stats.hits, stats.misses) == (0, 1)

    def test_chained_flap_hits_cache_in_steady_state(self, grid_base):
        base = Scenario(ScenarioSpec.from_dict(grid_base.spec.to_dict()))
        down = DeltaSpec(remove_links=(((1, 1), (1, 2)),), label="down")
        up = DeltaSpec(add_links=(((1, 1), (1, 2)),), label="up")
        scenario = base
        seen = []
        for _ in range(4):
            scenario = scenario.evolve(down)
            scenario = scenario.evolve(up)
            seen.append(scenario.pathset)
        # After the first full flap every transition is a cache hit: the same
        # PathSet objects cycle.
        assert seen[1] is seen[2] is seen[3]

    def test_eviction_counter(self):
        cache = PathSetCache(maxsize=1)
        for n in (2, 3):
            scenario = Scenario(
                ScenarioSpec(
                    topology=TopologySpec("undirected_grid", {"n": n}),
                    placement=PlacementSpec("chi_corners"),
                )
            )
            cache.get_or_evolve(
                scenario.graph,
                scenario.placement,
                "CSP",
                None,
                None,
                lambda: scenario.pathset,
            )
            assert cache.stats().evictions == n - 2
        stats = cache.stats()
        assert stats.size == 1
        assert "1 evictions" in str(stats)

    def test_counter_merge_folds_evictions(self):
        cache = PathSetCache()
        cache.counters.merge({"hits": 2, "misses": 3, "evictions": 4})
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (2, 3, 4)
        with pytest.raises(ValueError):
            cache.counters.merge({"evictions": -1})
        cache.clear()
        assert cache.stats().evictions == 0


class TestRestrictWithSrlg:
    """Satellite: ``restrict_to_paths`` composed with an SRLG universe."""

    GROUPS = {
        "north": [((1, 1), (1, 2)), ((1, 2), (1, 3))],
        "south": [((3, 1), (3, 2))],
    }

    def _pathset(self):
        spec = ScenarioSpec(
            topology=TopologySpec("undirected_grid", {"n": 3}),
            placement=PlacementSpec("chi_corners"),
        )
        return Scenario(spec).pathset

    def test_column_selection_matches_full_universe(self):
        pathset = self._pathset()
        indices = list(range(0, pathset.n_paths, 2))
        restricted = pathset.restrict_to_paths(indices)
        full = pathset.universe("srlg", self.GROUPS)
        small = restricted.universe("srlg", self.GROUPS)
        assert small.elements == full.elements
        position = {old: new for new, old in enumerate(indices)}
        for element in full.elements:
            expected = {
                position[i]
                for i in bit_indices(full.masks[element])
                if i in position
            }
            assert set(bit_indices(small.masks[element])) == expected

    def test_group_normalisation_survives_restriction(self):
        pathset = self._pathset()
        restricted = pathset.restrict_to_paths(range(pathset.n_paths - 1, -1, -1))
        # Same canonical groups however the members are spelled.
        reversed_members = {
            name: [list(reversed(link)) for link in links]
            for name, links in self.GROUPS.items()
        }
        left = restricted.universe("srlg", self.GROUPS)
        right = restricted.universe("srlg", reversed_members)
        assert left is right  # memoised under one canonical fingerprint

    def test_restriction_then_engine_parity(self):
        pathset = self._pathset()
        indices = [i for i in range(pathset.n_paths) if i % 3 != 0]
        restricted = pathset.restrict_to_paths(indices)
        universe = restricted.universe("srlg", self.GROUPS)
        engine = restricted.engine(universe=universe)
        from repro.engine.signatures import SignatureEngine

        fresh = SignatureEngine(
            universe.elements, universe.masks, restricted.n_paths
        )
        assert engine._signatures == fresh._signatures


class TestDeltaSpec:
    def test_json_round_trip(self):
        delta = DeltaSpec(
            add_links=((("a", 1), ("b", 2)),),
            remove_links=((("c", 3), ("d", 4)),),
            add_inputs=(("a", 1),),
            remove_outputs=(("d", 4),),
            srlg_groups={"g": [[["a", 1], ["b", 2]]]},
            label="round-trip",
        )
        again = DeltaSpec.from_json(delta.to_json())
        assert again == delta

    def test_validation(self):
        with pytest.raises(SpecError):
            DeltaSpec(add_links=((1, 2, 3),))
        with pytest.raises(SpecError):
            DeltaSpec(add_links=((1, 2),), remove_links=((1, 2),))
        with pytest.raises(SpecError):
            DeltaSpec(add_inputs=("a", "a"))
        with pytest.raises(SpecError):
            DeltaSpec(srlg_groups={})
        with pytest.raises(SpecError):
            DeltaSpec.from_dict({"bogus": 1})
        with pytest.raises(SpecError):
            DeltaSpec.from_json("{not json")
        assert DeltaSpec().is_noop()
        assert not DeltaSpec(add_inputs=("a",)).is_noop()

    def test_inverse(self):
        delta = DeltaSpec(
            add_links=((1, 2),), remove_links=((3, 4),), add_inputs=(5,)
        )
        inverse = delta.inverse()
        assert inverse.add_links == ((3, 4),)
        assert inverse.remove_links == ((1, 2),)
        assert inverse.remove_inputs == (5,)
        redefinition = DeltaSpec(srlg_groups={"g": [[1, 2]]})
        with pytest.raises(SpecError):
            redefinition.inverse()
        with pytest.raises(SpecError):
            redefinition.inverse(UniverseSpec(kind="link"))
        previous = UniverseSpec(kind="srlg", groups={"h": [[3, 4]]})
        assert redefinition.inverse(previous).srlg_groups == previous.groups

    def test_evolve_rejects_bad_deltas(self, grid_base):
        with pytest.raises(SpecError):
            grid_base.evolve("not a delta")
        with pytest.raises(SpecError):
            grid_base.evolve(DeltaSpec(remove_links=(((1, 1), (3, 3)),)))
        with pytest.raises(SpecError):
            grid_base.evolve(DeltaSpec(add_links=(((1, 1), (1, 2)),)))
        with pytest.raises(SpecError):
            grid_base.evolve(DeltaSpec(add_links=(((1, 1), "mars"),)))
        with pytest.raises(SpecError):
            grid_base.evolve(DeltaSpec(remove_inputs=((2, 2),)))
        with pytest.raises(SpecError):
            grid_base.evolve(
                DeltaSpec(remove_inputs=tuple(grid_base.placement.inputs))
            )


def _report_triple(scenario: Scenario):
    return (
        scenario.mu().to_dict(),
        scenario.measurement().to_dict(),
        scenario.separability().to_dict(),
    )


def _round_trip(base: Scenario, delta: DeltaSpec) -> Scenario:
    """``base`` evolved by ``delta`` and then by its inverse.  The pathset
    cache is cleared before each step: a round trip that restores the
    adjacency has the base's key, and a hit would hand back a cached entry
    without running the patch."""
    clear_pathset_cache()
    evolved = base.evolve(delta)
    evolved.pathset
    clear_pathset_cache()
    back = evolved.evolve(delta.inverse())
    assert back.pathset is not base.pathset
    return back


class TestMetamorphicInverse:
    """apply(delta) then apply(inverse(delta)) ≡ original, at report level.

    Path *order* is allowed to differ after a remove/re-add round trip (the
    re-added edge appends to the adjacency), so the invariant is stated over
    the analysis reports, which are permutation-invariant.
    """

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_delta_round_trip(self, grid_base, data):
        links = [tuple(link) for link in grid_base.pathset.links]
        nodes = sorted(grid_base.graph.nodes)
        absent = [
            (u, v)
            for i, u in enumerate(nodes)
            for v in nodes[i + 1:]
            if not grid_base.graph.has_edge(u, v)
        ]
        removals = data.draw(
            st.lists(st.sampled_from(links), max_size=2, unique=True)
        )
        additions = data.draw(
            st.lists(st.sampled_from(absent), max_size=2, unique=True)
        )
        monitor = data.draw(st.booleans())
        kwargs = {
            "remove_links": tuple(removals),
            "add_links": tuple(additions),
        }
        if monitor:
            spare = [n for n in nodes if n not in grid_base.placement.inputs]
            kwargs["add_inputs"] = (spare[0],)
        delta = DeltaSpec(**kwargs)
        assume(not delta.is_noop())
        baseline = _report_triple(grid_base)
        try:
            back = _round_trip(grid_base, delta)
        except EVOLVE_ERRORS:
            assume(False)
        assert _report_triple(back) == baseline

    # Committed regression cases: delta sequences that exercise the trickiest
    # order-sensitive machinery directly (no shrinking required to re-run).

    def test_regression_flap_permutes_but_reports_match(self, grid_base):
        """Remove + re-add the same link: the edge re-appends to the edge
        list, so the path family may be a permutation of the original —
        reports must still match exactly."""
        delta = DeltaSpec(remove_links=(((1, 2), (2, 2)),))
        back = _round_trip(grid_base, delta)
        assert sorted(back.pathset.paths) == sorted(grid_base.pathset.paths)
        assert _report_triple(back) == _report_triple(grid_base)
        _assert_bit_identical(back, "flap regression")

    def test_regression_cap_minus_cycles_round_trip(self):
        """CAP⁻ re-emits closed families canonically; a flap touching a
        monitor cycle must survive the round trip."""
        spec = ScenarioSpec(
            topology=TopologySpec("undirected_grid", {"n": 3}),
            placement=PlacementSpec("chi_corners"),
            routing=repro.RoutingSpec(mechanism="CAP-"),
            failures=FailureModel(n_trials=4),
            seed=11,
        )
        base = Scenario(spec)
        delta = DeltaSpec(
            remove_links=(((1, 1), (2, 1)),), add_links=(((1, 1), (3, 3)),)
        )
        clear_pathset_cache()
        evolved = base.evolve(delta)
        _assert_bit_identical(evolved, "CAP- evolve")
        back = _round_trip(base, delta)
        assert _report_triple(back) == _report_triple(base)

    def test_regression_monitor_round_trip(self, grid_base):
        delta = DeltaSpec(add_inputs=((2, 2),), add_outputs=((2, 1),))
        back = _round_trip(grid_base, delta)
        assert back.pathset.paths == grid_base.pathset.paths
        assert _report_triple(back) == _report_triple(grid_base)


class TestChurnRunner:
    def _churn_payload(self):
        return {
            "base": {
                "topology": {"name": "undirected_grid", "params": {"n": 3}},
                "placement": {"strategy": "chi_corners", "params": {}},
                "seed": 3,
            },
            "deltas": [
                {"label": "down", "remove_links": [[[1, 1], [1, 2]]]},
                {"label": "up", "add_links": [[[1, 1], [1, 2]]]},
            ],
        }

    def test_replay_with_verify(self, tmp_path):
        path = tmp_path / "churn.json"
        path.write_text(json.dumps(self._churn_payload()))
        base_spec, deltas = load_churn_file(str(path))
        sections = run_churn_sections(base_spec, deltas, verify=True)
        assert len(sections) == 1
        data = sections[0].data
        assert data["verified"] is True
        assert [step["step"] for step in data["steps"]] == [0, 1, 2]
        assert data["steps"][0]["mu"] == data["steps"][2]["mu"]
        assert "verified" in sections[0].body

    def test_replay_without_verify(self, tmp_path):
        path = tmp_path / "churn.json"
        path.write_text(json.dumps(self._churn_payload()))
        sections = run_churn_sections(*load_churn_file(str(path)))
        assert sections[0].data["verified"] is None

    def test_unseeded_random_base_is_the_one_step_one_evolves(self, monkeypatch):
        """The base is built once, so step 0 measures the graph and
        placement step 1 edits even when both are drawn without a seed."""
        from repro.api import registries

        builder = registries.topologies.get("erdos_renyi_connected")
        graphs = []

        def recording(params, rng):
            graphs.append(builder(params, rng))
            return graphs[-1]

        monkeypatch.setitem(
            registries.topologies._builders, "erdos_renyi_connected", recording
        )
        base_spec = ScenarioSpec(
            topology=TopologySpec(
                "erdos_renyi_connected", {"n_nodes": 8, "probability": 0.4}
            ),
            placement=PlacementSpec("random", {"n_inputs": 2, "n_outputs": 2}),
        )
        steps = run_churn_sections(base_spec, [DeltaSpec(label="noop")])[0].data[
            "steps"
        ]
        assert len(graphs) == 1
        assert steps[0]["spec"] == base_spec.to_dict()
        assert steps[1]["spec"]["topology"] == TopologySpec.from_graph(
            graphs[0]
        ).to_dict()
        assert (steps[0]["mu"], steps[0]["n_paths"]) == (
            steps[1]["mu"],
            steps[1]["n_paths"],
        )

    def test_malformed_files(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(SpecError, match="cannot read"):
            load_churn_file(str(missing))
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{nope")
        with pytest.raises(SpecError, match="not valid JSON"):
            load_churn_file(str(bad_json))
        wrong_shape = tmp_path / "shape.json"
        wrong_shape.write_text("[]")
        with pytest.raises(SpecError, match="object"):
            load_churn_file(str(wrong_shape))
        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({"base": {}, "deltas": [], "extra": 1}))
        with pytest.raises(SpecError, match="unknown churn file fields"):
            load_churn_file(str(unknown))
        no_base = tmp_path / "nobase.json"
        no_base.write_text(json.dumps({"deltas": []}))
        with pytest.raises(SpecError, match="base"):
            load_churn_file(str(no_base))

    def test_churn_file_requires_deltas(self, tmp_path):
        """The CLI and ``/v1/churn`` share one parser: ``deltas`` is required
        (an empty list replays the base alone)."""
        path = tmp_path / "nodeltas.json"
        path.write_text(json.dumps({"base": self._churn_payload()["base"]}))
        with pytest.raises(SpecError, match="deltas"):
            load_churn_file(str(path))

    def test_verify_failure_is_loud(self, tmp_path, monkeypatch):
        import dataclasses

        payload = self._churn_payload()
        path = tmp_path / "churn.json"
        path.write_text(json.dumps(payload))
        base_spec, deltas = load_churn_file(str(path))

        original = Scenario.measurement
        state = {"count": 0}

        def flaky(self):
            report = original(self)
            state["count"] += 1
            if state["count"] % 2 == 0:  # tamper with every rebuilt report
                return dataclasses.replace(report, n_paths=report.n_paths + 1)
            return report

        monkeypatch.setattr(Scenario, "measurement", flaky)
        with pytest.raises(ExperimentError, match="churn step"):
            run_churn_sections(base_spec, deltas, verify=True)

    def test_verify_rebuilds_with_the_cache_off(self, tmp_path, monkeypatch):
        """A step whose cached path order is wrong must not pass by the
        rebuild hitting the evolved entry in the pathset cache."""
        path = tmp_path / "churn.json"
        path.write_text(json.dumps(self._churn_payload()))
        base_spec, deltas = load_churn_file(str(path))
        original = PathSetCache.get_or_enumerate
        calls = []

        def swapped(self, *args, **kwargs):
            pathset = original(self, *args, **kwargs)
            calls.append(1)
            if len(calls) == 1:  # leave the base step intact
                return pathset
            order = list(range(pathset.n_paths))
            order[0], order[1] = order[1], order[0]
            return pathset.restrict_to_paths(order)

        monkeypatch.setattr(PathSetCache, "get_or_enumerate", swapped)
        try:
            with pytest.raises(ExperimentError, match="churn step 1"):
                run_churn_sections(base_spec, deltas, verify=True)
        finally:
            # The swapped path set sits in the cache under the real key of
            # that state; no later test may be handed it.
            clear_pathset_cache()


class TestUniverseArgument:
    def test_node_and_link_pass_through(self):
        assert parse_universe_argument("node") == "node"
        assert parse_universe_argument("link") == "link"

    def test_srlg_file(self, tmp_path):
        groups_file = tmp_path / "groups.json"
        groups_file.write_text(
            json.dumps({"west": [[[1, 1], [2, 1]]], "east": [[[1, 3], [2, 3]]]})
        )
        universe = parse_universe_argument(f"srlg:{groups_file}")
        assert isinstance(universe, UniverseSpec)
        assert universe.kind == "srlg"
        assert set(universe.groups) == {"west", "east"}
        # The parsed spec drives a real measurement end to end.
        spec = ScenarioSpec(
            topology=TopologySpec("undirected_grid", {"n": 3}),
            placement=PlacementSpec("chi_corners"),
            failures=FailureModel(universe=universe),
        )
        report = Scenario(spec).mu()
        assert report.universe == "srlg"

    def test_srlg_errors_are_clear(self, tmp_path):
        with pytest.raises(SpecError, match="groups file"):
            parse_universe_argument("srlg:")
        with pytest.raises(SpecError, match="cannot read"):
            parse_universe_argument(f"srlg:{tmp_path / 'missing.json'}")
        bad = tmp_path / "bad.json"
        bad.write_text("]")
        with pytest.raises(SpecError, match="not valid JSON"):
            parse_universe_argument(f"srlg:{bad}")
        malformed = tmp_path / "malformed.json"
        malformed.write_text(json.dumps({"g": "oops"}))
        with pytest.raises(SpecError, match=str(malformed.name)):
            parse_universe_argument(f"srlg:{malformed}")
        with pytest.raises(SpecError, match="unknown universe"):
            parse_universe_argument("mesh")

    def test_driver_accepts_universe_spec(self, tmp_path):
        from repro.experiments.common import coerce_universe_spec

        universe = UniverseSpec(kind="link")
        assert coerce_universe_spec(universe) is universe
        assert coerce_universe_spec("node").kind == "node"
