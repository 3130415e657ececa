"""Tests for the declarative scenario API (spec, registries, facade).

The load-bearing properties:

* **Round trips** — a random spec survives ``to_json``/``from_json`` exactly,
  and the rebuilt scenario computes identical µ / witness / table values.
* **Facade parity** — the facade and the pathset-level functions are
  bit-identical, and every driver trial routed through a pickled
  ``ScenarioSpec`` equals the hand-rolled pre-spec computation.
* **Globals-free engine config** — scenarios with different engine configs
  coexist in one process, even interleaved on threads, with correct,
  independent results.
"""

from __future__ import annotations

import json
import random
import sys
import threading

import pytest

import repro
from repro.api import registries as reg
from repro.api.scenario import Scenario
from repro.api.spec import (
    AnalysisSpec,
    DeltaSpec,
    EngineConfig,
    FailureModel,
    PlacementSpec,
    RoutingSpec,
    ScenarioSpec,
    TopologySpec,
    load_spec_batch,
)
from repro.core.bounds import structural_upper_bound
from repro.core.identifiability import maximal_identifiability_detailed
from repro.core.truncated import default_truncation_level
from repro.engine.cache import clear_pathset_cache
from repro.exceptions import IdentifiabilityError, SpecError
from repro.monitors import chi_g, mdmp_placement, random_placement
from repro.routing import RoutingMechanism, enumerate_paths
from repro.topology import claranet, directed_grid, erdos_renyi_connected
from repro.utils.seeds import spawn_seed

from oracles import core_mu, core_truncated_mu

MECHANISMS = ("CSP", "CAP-", "CAP")


def _random_spec(rng: random.Random, mechanism: str) -> ScenarioSpec:
    """A random but valid spec over small universes (fast exact µ)."""
    kind = rng.choice(("zoo", "er", "grid"))
    if kind == "zoo":
        network = rng.choice(("dataxchange", "eunetwork_small", "getnet"))
        topology = TopologySpec("zoo", {"network": network})
    elif kind == "er":
        topology = TopologySpec(
            "erdos_renyi_connected",
            {"n_nodes": rng.randint(5, 7), "probability": 0.5},
        )
    else:
        topology = TopologySpec("undirected_grid", {"n": 3})
    strategy = rng.choice(("mdmp", "random"))
    if strategy == "mdmp":
        placement = PlacementSpec("mdmp", {"d": 2})
    else:
        placement = PlacementSpec("random", {"n_inputs": 2, "n_outputs": 2})
    return ScenarioSpec(
        topology=topology,
        placement=placement,
        routing=RoutingSpec(mechanism=mechanism),
        engine=EngineConfig(cache=rng.random() < 0.5),
        seed=rng.randrange(2**32),
    )


class TestSpecRoundTrip:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_random_specs_round_trip_with_identical_results(self, mechanism):
        rng = random.Random(f"api-roundtrip:{mechanism}")
        for _ in range(20):
            spec = _random_spec(rng, mechanism)
            rebuilt = ScenarioSpec.from_json(spec.to_json())
            assert rebuilt == spec
            original = Scenario(spec)
            clone = Scenario(rebuilt)
            assert clone.mu() == original.mu()  # value, witness, diagnostics
            assert clone.measurement() == original.measurement()  # table values
            assert clone.truncated() == original.truncated()

    def test_round_trip_preserves_tuple_node_labels(self):
        grid = directed_grid(3)
        spec = ScenarioSpec(
            topology=TopologySpec.from_graph(grid),
            placement=PlacementSpec.from_placement(chi_g(grid)),
        )
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt == spec
        scenario = Scenario(rebuilt)
        assert set(scenario.graph.nodes) == set(grid.nodes)
        assert scenario.placement == chi_g(grid)
        assert scenario.mu().value == Scenario.from_components(grid, chi_g(grid)).mu().value

    def test_from_dict_rejects_unknown_fields_and_versions(self):
        base = ScenarioSpec(
            topology=TopologySpec("claranet"), placement=PlacementSpec("mdmp", {"d": 3})
        ).to_dict()
        bad = dict(base, schema_version=99)
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict(bad)
        bad = dict(base, surprise=1)
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict(bad)
        with pytest.raises(SpecError):
            ScenarioSpec.from_json("not json at all {")

    def test_load_spec_batch_accepts_all_document_shapes(self):
        spec = ScenarioSpec(
            topology=TopologySpec("claranet"), placement=PlacementSpec("mdmp", {"d": 3})
        )
        single = json.dumps(spec.to_dict())
        listed = json.dumps([spec.to_dict(), spec.to_dict()])
        wrapped = json.dumps({"scenarios": [spec.to_dict()]})
        assert load_spec_batch(single) == (spec,)
        assert load_spec_batch(listed) == (spec, spec)
        assert load_spec_batch(wrapped) == (spec,)
        with pytest.raises(SpecError):
            load_spec_batch(json.dumps({"scenarios": []}))
        with pytest.raises(SpecError):
            load_spec_batch(json.dumps({"scenarios": [spec.to_dict()], "x": 1}))

    def test_failure_model_and_engine_validation(self):
        with pytest.raises(SpecError):
            FailureModel(model="adversarial")
        with pytest.raises(SpecError):
            FailureModel(n_trials=0)
        with pytest.raises(TypeError):
            EngineConfig(backend="python")

    @pytest.mark.parametrize(
        "failures",
        [{"size": True}, {"size": 1.5}, {"size": "2"}, {"size": None},
         {"n_trials": 2.5}, {"n_trials": False}, {"n_trials": "3"}],
    )
    def test_failure_sizes_and_trial_counts_must_be_ints(self, failures):
        with pytest.raises(SpecError, match="must be an int"):
            FailureModel(**failures)
        document = ScenarioSpec(
            topology=TopologySpec("claranet"), placement=PlacementSpec("mdmp", {"d": 3})
        ).to_dict()
        document["failures"] = dict(document["failures"], **failures)
        with pytest.raises(SpecError, match="must be an int"):
            ScenarioSpec.from_dict(document)

    @pytest.mark.parametrize(
        "params",
        [{"failure_size": True}, {"failure_size": 1.5}, {"failure_size": "2"},
         {"n_trials": 2.5}, {"n_trials": True}],
    )
    def test_localization_params_must_be_ints(self, params):
        scenario = Scenario(ScenarioSpec(
            topology=TopologySpec("dataxchange"),
            placement=PlacementSpec("mdmp", {"d": 2}),
            seed=3,
        ))
        with pytest.raises(IdentifiabilityError, match="must be an int"):
            scenario.run_analysis(AnalysisSpec("localization", params))
        with pytest.raises(IdentifiabilityError, match="must be an int"):
            scenario.localization_campaign(**params)


def _example_scenario(path: str, index: int = 0):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["scenarios"][index]


def _set_field(scenario, field, value):
    """``scenario`` with the field at the ``field`` key path replaced."""
    node = scenario
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    return scenario


SRLG_SCENARIO = {
    "topology": {"name": "claranet"},
    "placement": {"strategy": "mdmp", "params": {"d": 4}},
    "failures": {"universe": {"kind": "srlg", "groups": {"g": [[0, 1]]}}},
}


class TestMalformedSpecShapes:
    """A field of the wrong JSON type is a :class:`SpecError`, never a raw
    ``ValueError``/``TypeError`` out of the parser."""

    @pytest.mark.parametrize("bad", ["x", [[1]], 5, [1, 2]], ids=repr)
    @pytest.mark.parametrize(
        "field",
        [
            ("topology", "params"),
            ("placement", "params"),
            ("analyses", 0, "params"),
            ("analyses",),
            ("failures", "universe", "groups"),
        ],
        ids=lambda field: ".".join(map(str, field)),
    )
    def test_wrong_shape_is_a_spec_error(self, field, bad):
        if field[0] == "failures":
            scenario = json.loads(json.dumps(SRLG_SCENARIO))
        else:
            scenario = _example_scenario("examples/specs/claranet.json")
        ScenarioSpec.from_dict(scenario)  # well-formed before the edit
        payload = _set_field(scenario, field, bad)
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict(payload)

    def test_analyses_string_is_not_a_list_of_names(self):
        payload = _example_scenario("examples/specs/claranet.json")
        payload["analyses"] = "mu"
        with pytest.raises(SpecError, match="analyses must be a JSON array"):
            ScenarioSpec.from_dict(payload)

    @pytest.mark.parametrize("label", [{}, [1, {"a": 1}]], ids=repr)
    @pytest.mark.parametrize(
        "field",
        [
            "add_links",
            "remove_links",
            "add_inputs",
            "remove_inputs",
            "add_outputs",
            "remove_outputs",
        ],
    )
    def test_unhashable_delta_node_label_is_a_spec_error(self, field, label):
        entry = ["London", label] if field.endswith("_links") else label
        with pytest.raises(SpecError, match=f"delta {field} entry"):
            DeltaSpec.from_dict({field: [entry]})


class TestRegistries:
    def test_unknown_names_raise_spec_error(self):
        with pytest.raises(SpecError):
            reg.topologies.get("no-such-topology")
        with pytest.raises(SpecError):
            Scenario(
                ScenarioSpec(
                    topology=TopologySpec("no-such-topology"),
                    placement=PlacementSpec("mdmp", {"d": 2}),
                )
            ).graph

    def test_custom_topology_and_placement_are_one_decorator_away(self):
        @reg.topologies.register("test_api_ring")
        def _ring(params, rng):
            import networkx as nx

            return nx.cycle_graph(params.get("n", 6))

        @reg.placements.register("test_api_endpoints")
        def _endpoints(graph, params, rng):
            from repro.monitors.placement import MonitorPlacement

            nodes = sorted(graph.nodes, key=repr)
            return MonitorPlacement.of({nodes[0]}, {nodes[len(nodes) // 2]})

        spec = ScenarioSpec(
            topology=TopologySpec("test_api_ring", {"n": 6}),
            placement=PlacementSpec("test_api_endpoints"),
        )
        report = Scenario(spec).mu()
        assert report.n_nodes == 6
        assert report.value >= 0
        # Duplicate registration is refused unless explicitly overwritten.
        with pytest.raises(SpecError):
            reg.topologies.register("test_api_ring")(_ring)
        reg.topologies.register("test_api_ring", overwrite=True)(_ring)

    def test_mechanism_resolution_covers_aliases(self):
        assert reg.resolve_mechanism("csp") is RoutingMechanism.CSP
        assert reg.resolve_mechanism("cap-") is RoutingMechanism.CAP_MINUS
        assert reg.resolve_mechanism("cap_minus") is RoutingMechanism.CAP_MINUS
        assert reg.resolve_mechanism(RoutingMechanism.CAP) is RoutingMechanism.CAP


class TestFacadeParity:
    def test_facade_mu_matches_pathset_level_computation(self):
        for graph, placement in (
            (directed_grid(3), chi_g(directed_grid(3))),
            (claranet(), mdmp_placement(claranet(), 4)),
        ):
            pathset = enumerate_paths(graph, placement, RoutingMechanism.CSP)
            bound = structural_upper_bound(graph, placement, RoutingMechanism.CSP)
            expected = maximal_identifiability_detailed(
                pathset, max_size=bound.combined + 1
            )
            scenario = Scenario.from_components(graph, placement)
            assert scenario.identifiability() == expected
            assert scenario.mu().value == expected.value
            assert scenario.mu().bound == bound.combined

    def test_localization_campaign_matches_tomography_session(self):
        grid = directed_grid(3)
        scenario = Scenario.from_components(grid, chi_g(grid), seed=5)
        from repro.tomography import TomographySession

        session = TomographySession.from_scenario(scenario)
        assert session.pathset is scenario.pathset  # shared interned signatures
        direct = session.run_campaign(1, 5, rng=99)
        facade = scenario.localization_campaign(failure_size=1, n_trials=5, rng=99)
        assert facade.n_unique == direct.n_unique
        assert facade.mean_ambiguity == direct.mean_ambiguity
        assert facade.mu == session.mu

    def test_localization_report_mu_honours_the_spec_budget(self):
        """The campaign's µ is the scenario's µ report, so a subset budget
        that truncates ``mu()`` truncates the localization report too."""
        spec = ScenarioSpec(
            topology=TopologySpec("directed_hypergrid", {"n": 3, "d": 3}),
            placement=PlacementSpec("chi_g"),
            engine=EngineConfig(subset_budget=50),
        )
        scenario = Scenario(spec)
        truncated = scenario.mu()
        assert (truncated.value, truncated.exhausted_search) == (1, False)
        report = scenario.localization_campaign(1, 2)
        assert report.mu == truncated.value == 1
        unbounded = Scenario(spec.with_engine(EngineConfig()))
        assert unbounded.localization_campaign(1, 2).mu == unbounded.mu().value == 3


class TestAgridRoutingLimits:
    """Both Agrid analyses measure the path family the spec's routing
    declares — ``max_paths`` and ``cutoff`` included."""

    @staticmethod
    def _spec(**routing) -> ScenarioSpec:
        return ScenarioSpec(
            topology=TopologySpec("dataxchange"),
            placement=PlacementSpec("mdmp", {"d": 2}),
            routing=RoutingSpec(**routing),
            seed=5,
        )

    def test_max_paths_below_the_boosted_family_fails_both(self):
        from repro.exceptions import PathExplosionError

        unlimited = Scenario(self._spec()).agrid_comparison(dimension=2, rng=7)
        cap = unlimited.boosted.n_paths - 1
        assert unlimited.original.n_paths <= cap  # only G^A overflows
        scenario = Scenario(self._spec(max_paths=cap))
        with pytest.raises(PathExplosionError):
            scenario.agrid_comparison(dimension=2, rng=7)
        with pytest.raises(PathExplosionError):
            scenario.agrid_tradeoff(dimension=2, rng=7)

    def test_cutoff_reaches_both_halves(self):
        from repro.agrid.algorithm import agrid

        scenario = Scenario(self._spec(cutoff=3))
        boost = agrid(scenario.graph, 2, rng=7)
        expected = tuple(
            Scenario.from_components(graph, placement, cutoff=3).pathset.n_paths
            for graph, placement in (
                (scenario.graph, boost.placement_original),
                (boost.boosted, boost.placement_boosted),
            )
        )
        unlimited = Scenario(self._spec()).agrid_comparison(dimension=2, rng=7)
        assert expected[0] < unlimited.original.n_paths
        assert expected[1] < unlimited.boosted.n_paths
        for comparison in (
            scenario.agrid_comparison(dimension=2, rng=7),
            scenario.agrid_tradeoff(dimension=2, rng=7).comparison,
        ):
            assert (comparison.original.n_paths, comparison.boosted.n_paths) == expected


class TestDriverSpecParity:
    """Each driver trial fed a pickled ScenarioSpec must equal the same
    computation done by hand (same seed, same shared-RNG consumption order),
    with µ taken from ``enumerate_paths`` and :mod:`repro.core` alone."""

    def test_random_graph_trial(self):
        from repro.agrid.algorithm import agrid
        from repro.experiments.common import DIMENSION_RULES
        from repro.experiments.random_graphs import random_graph_trial

        seed = spawn_seed(11, 0)
        # The trial's flow, reproduced inline.
        legacy_rng = random.Random(seed)
        graph = erdos_renyi_connected(6, 0.4, legacy_rng)
        d = min(DIMENSION_RULES["log"](6, graph), 5, 3)
        boost = agrid(graph, d, rng=legacy_rng)
        expected = core_mu(boost.boosted, boost.placement_boosted) - core_mu(
            graph, boost.placement_original
        )
        spec = ScenarioSpec(
            topology=TopologySpec(
                "erdos_renyi_connected", {"n_nodes": 6, "probability": 0.4}
            ),
            placement=PlacementSpec("mdmp"),
            seed=seed,
        )
        assert random_graph_trial(spec, "log") == expected

    def test_truncated_trial(self):
        from repro.agrid.algorithm import agrid
        from repro.experiments.truncated import truncated_trial

        graph = repro.topology.eunetwork_small()
        seed = spawn_seed(13, 1)
        result = agrid(graph, 3, rng=random.Random(seed))
        truncation = default_truncation_level(result.boosted)
        expected = core_truncated_mu(
            result.boosted, result.placement_boosted, truncation
        )
        spec = ScenarioSpec(
            topology=TopologySpec(
                "agrid",
                {"base": TopologySpec.from_graph(graph).to_dict(), "dimension": 3},
            ),
            placement=PlacementSpec("mdmp", {"d": 3}),
            seed=seed,
        )
        assert truncated_trial(spec) == (expected, truncation)

    def test_random_monitor_trial(self):
        from repro.experiments.random_monitors import random_monitor_trial

        graph = repro.topology.getnet()
        seed_a, seed_b = spawn_seed(17, 1), spawn_seed(17, 2)
        placement_a = random_placement(graph, 3, 3, rng=random.Random(seed_a))
        placement_b = random_placement(graph, 3, 3, rng=random.Random(seed_b))
        expected = (core_mu(graph, placement_a), core_mu(graph, placement_b))
        topology = TopologySpec.from_graph(graph)
        placement = PlacementSpec("random", {"n_inputs": 3, "n_outputs": 3})
        specs = tuple(
            ScenarioSpec(topology=topology, placement=placement, seed=seed)
            for seed in (seed_a, seed_b)
        )
        assert random_monitor_trial(*specs) == expected

    def test_ablation_trial(self):
        from repro.agrid.algorithm import agrid
        from repro.experiments.ablation import ablation_trial

        graph = repro.topology.eunetwork_small()
        seed = spawn_seed(19, 4)
        legacy_rng = random.Random(seed)
        boost = agrid(graph, 3, rng=legacy_rng)
        placement = random_placement(boost.boosted, 3, 3, rng=legacy_rng)
        expected = core_mu(boost.boosted, placement)
        spec = ScenarioSpec(
            topology=TopologySpec(
                "agrid",
                {
                    "base": TopologySpec.from_graph(graph).to_dict(),
                    "dimension": 3,
                    "selector": "uniform",
                },
            ),
            placement=PlacementSpec("random", {"n_inputs": 3, "n_outputs": 3}),
            seed=seed,
        )
        assert ablation_trial(spec) == expected


class TestEngineConfigIsolation:
    """Acceptance: the new path is globals-free — scenarios with different
    EngineConfigs run concurrently in one process with independent results."""

    def _specs(self):
        topology = TopologySpec("claranet")
        placement = PlacementSpec("mdmp", {"d": 4})
        configs = [EngineConfig(), EngineConfig(cache=False)]
        return [
            ScenarioSpec(topology=topology, placement=placement, engine=config)
            for config in configs
        ]

    def test_interleaved_scenarios_agree_and_stay_independent(self):
        clear_pathset_cache()
        scenarios = [Scenario(spec) for spec in self._specs()]
        # Interleave queries across all engine configurations.
        mu_values = [scenario.mu() for scenario in scenarios]
        truncated = [scenario.truncated(2) for scenario in scenarios]
        mu_again = [scenario.mu() for scenario in scenarios]
        reference = mu_values[0]
        assert all(report == reference for report in mu_values)
        assert mu_again == mu_values
        assert len({report.value for report in truncated}) == 1
        # Engines are genuinely distinct (the uncached scenario enumerates
        # its own path set), not a shared global.
        engines = {id(scenario.engine) for scenario in scenarios}
        assert len(engines) == len(scenarios)

    @staticmethod
    def _reports(spec):
        """A fresh scenario's engine identity, µ report and µ_2 report."""
        scenario = Scenario(spec)
        engine = scenario.engine
        return (
            engine.compression,
            scenario.mu(),
            scenario.truncated(2),
        )

    @pytest.mark.parametrize(
        "cell, configs",
        [
            (
                # Compression merges 64 paths into 24 columns here; a
                # one-node search budget stops µ at level 1 without a
                # witness, the unbounded search finds one at level 2.
                (TopologySpec("dataxchange"), PlacementSpec("mdmp", {"d": 2})),
                (EngineConfig(subset_budget=1), EngineConfig()),
            ),
            (
                (
                    TopologySpec("directed_hypergrid", {"n": 3, "d": 3}),
                    PlacementSpec("chi_g"),
                ),
                (EngineConfig(subset_budget=50), EngineConfig()),
            ),
        ],
        ids=["compressed-truncated-vs-unbounded", "budgeted-vs-unbounded"],
    )
    def test_threaded_scenarios_match_their_solo_runs(self, cell, configs):
        """Two configs interleaved on threads each get exactly their solo
        result — witness and ``searched_up_to`` included — because no
        engine setting lives outside the spec."""
        topology, placement = cell
        specs = [
            ScenarioSpec(topology=topology, placement=placement, engine=config)
            for config in configs
        ]
        clear_pathset_cache()
        solo = [self._reports(spec) for spec in specs]
        assert solo[0] != solo[1]
        # Two threads per config (more threads than cores), switching often.
        assignments = [index % len(specs) for index in range(2 * len(specs))]
        rounds = 10
        barrier = threading.Barrier(len(assignments))
        results = [[] for _ in assignments]
        errors = []

        def work(slot):
            try:
                barrier.wait()
                for _ in range(rounds):
                    results[slot].append(self._reports(specs[assignments[slot]]))
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=work, args=(slot,))
            for slot in range(len(assignments))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for slot, reports in enumerate(results):
            assert reports == [solo[assignments[slot]]] * rounds


#: Specs whose topology or placement builder chokes on a mistyped param,
#: each with the part the error must name and the analysis it declares.
BAD_BUILDER_PARAMS = [
    (
        {"topology": {"name": "claranet"},
         "placement": {"strategy": "mdmp", "params": {"d": "two"}},
         "analyses": ["mu"]},
        "invalid placement {'strategy': 'mdmp', 'params': {'d': 'two'}}: ",
    ),
    (
        {"topology": {"name": "undirected_grid", "params": {"n": "3"}},
         "placement": {"strategy": "mdmp"},
         "analyses": ["bounds"]},
        "invalid topology {'name': 'undirected_grid', 'params': {'n': '3'}}: ",
    ),
]


class TestBuilderParamErrors:
    """A builder's TypeError on bad params is a spec error naming the
    topology or placement, never an analysis-parameter error."""

    @pytest.mark.parametrize("document, message", BAD_BUILDER_PARAMS)
    def test_scenario_names_the_part(self, document, message):
        spec = ScenarioSpec.from_dict(document)
        for call in (lambda: Scenario(spec).mu(), lambda: Scenario(spec).run_all()):
            with pytest.raises(SpecError) as excinfo:
                call()
            assert str(excinfo.value).startswith(message)
            assert "analysis" not in str(excinfo.value)

    @pytest.mark.parametrize("document, message", BAD_BUILDER_PARAMS)
    def test_spec_batch_failed_section_names_the_part(
        self, tmp_path, document, message
    ):
        from repro.experiments import runner

        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(document))
        out_path = tmp_path / "out.json"
        code = runner.main(
            ["--spec", str(spec_path), "--format", "json",
             "--output", str(out_path)]
        )
        assert code == 1
        section = json.loads(out_path.read_text())["sections"][0]
        assert section["title"].startswith("FAILED: ")
        assert section["data"]["failure"]["error"].startswith(message)
        assert message.split(":")[0] in section["text"]


class TestSpecRunner:
    def test_run_spec_sections_jobs_parity(self):
        from repro.experiments import runner

        spec = ScenarioSpec(
            topology=TopologySpec("dataxchange"),
            placement=PlacementSpec("mdmp", {"d": 2}),
            seed=3,
            analyses=(AnalysisSpec("mu"), AnalysisSpec("bounds"),
                      AnalysisSpec("localization")),
        )
        serial = runner.run_spec_sections([spec, spec], jobs=1, trials=3)
        parallel = runner.run_spec_sections([spec, spec], jobs=2, trials=3)
        assert serial == parallel
        assert all(section.group == "spec" for section in serial)
        payload = serial[0].data
        assert payload["analyses"]["localization"]["n_trials"] == 3

    def test_unknown_analysis_raises_spec_error(self):
        spec = ScenarioSpec(
            topology=TopologySpec("dataxchange"),
            placement=PlacementSpec("mdmp", {"d": 2}),
            analyses=(AnalysisSpec("frobnicate"),),
        )
        with pytest.raises(SpecError):
            Scenario(spec).run_all()

    def test_main_spec_file_with_atomic_nested_output(self, tmp_path):
        from repro.experiments import runner

        spec_path = tmp_path / "batch.json"
        spec_path.write_text(
            ScenarioSpec(
                topology=TopologySpec("dataxchange"),
                placement=PlacementSpec("mdmp", {"d": 2}),
                label="smoke",
            ).to_json()
        )
        out_path = tmp_path / "deep" / "nested" / "out.json"
        code = runner.main(
            [
                "--spec", str(spec_path),
                "--trials", "2",
                "--jobs", "1",
                "--format", "json",
                "--output", str(out_path),
            ]
        )
        assert code == 0
        document = json.loads(out_path.read_text())
        assert document["sections"][0]["title"] == "smoke"
        assert document["sections"][0]["data"]["analyses"]["mu"]["value"] >= 0
        # No temp droppings left next to the artifact.
        assert list(out_path.parent.glob(".repro-output-*")) == []

    def test_cli_engine_flags_override_spec_engine(self, tmp_path):
        from repro.experiments import runner

        spec_path = tmp_path / "batch.json"
        spec_path.write_text(
            ScenarioSpec(
                topology=TopologySpec("dataxchange"),
                placement=PlacementSpec("mdmp", {"d": 2}),
                label="flags",
            ).to_json()
        )
        out_path = tmp_path / "out.json"
        code = runner.main(
            [
                "--spec", str(spec_path),
                "--time-budget", "3600",
                "--format", "json",
                "--output", str(out_path),
            ]
        )
        assert code == 0
        engine = json.loads(out_path.read_text())["sections"][0]["data"]["spec"]["engine"]
        assert engine == {"cache": True, "time_budget": 3600.0, "subset_budget": None}

    def test_cli_malformed_spec_is_one_error_line(self, tmp_path, capsys):
        from repro.experiments import runner

        scenario = _example_scenario("examples/specs/claranet.json")
        scenario["topology"]["params"] = "x"
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"scenarios": [scenario]}))
        code = runner.main(["--spec", str(spec_path), "--trials", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("repro-experiments: error: spec file ")
        assert "topology params must be a JSON object" in lines[0]
        assert "Traceback" not in captured.err

    def test_cli_malformed_churn_delta_is_one_error_line(self, tmp_path, capsys):
        from repro.experiments import runner

        document = {
            "base": _example_scenario("examples/specs/claranet.json"),
            "deltas": [{"add_inputs": [{}]}],
        }
        churn_path = tmp_path / "churn.json"
        churn_path.write_text(json.dumps(document))
        assert runner.main(["--churn", str(churn_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("repro-experiments: error: ")
        assert "add_inputs" in lines[0]

    @pytest.mark.parametrize(
        "outputs, deltas, step",
        [
            # The only links of input (1, 1) go down: no measurement path.
            (
                [[2, 2]],
                [{"label": "cut", "remove_links": [[[1, 1], [1, 2]], [[1, 1], [2, 1]]]}],
                "churn step 1 ('cut'): no measurement path exists",
            ),
            # The base's output monitor is not a node of the graph.
            ([[9, 9]], [], "churn step 0 ('base'): monitor nodes"),
            # The same base refused while the evolve chain is built.
            ([[9, 9]], [{"label": "late"}], "churn step 0 ('base'): monitor nodes"),
        ],
        ids=["no-path", "off-graph-monitor", "off-graph-monitor-before-a-delta"],
    )
    def test_cli_refused_churn_step_is_one_error_line(
        self, tmp_path, capsys, outputs, deltas, step
    ):
        from repro.experiments import runner

        document = {
            "base": {
                "topology": {"name": "undirected_grid", "params": {"n": 2}},
                "placement": {
                    "strategy": "explicit",
                    "params": {"inputs": [[1, 1]], "outputs": outputs},
                },
            },
            "deltas": deltas,
        }
        churn_path = tmp_path / "churn.json"
        churn_path.write_text(json.dumps(document))
        assert runner.main(["--churn", str(churn_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith(f"repro-experiments: error: {step}")

    def test_cli_no_compress_flag_is_retired(self, capsys):
        from repro.experiments import runner

        with pytest.raises(SystemExit) as exit_info:
            runner.main(["--tables", "real", "--no-compress"])
        assert exit_info.value.code == 2
        assert "--no-compress" in capsys.readouterr().err

    def test_write_output_atomic_replaces_existing_content(self, tmp_path):
        from repro.experiments.runner import write_output_atomic

        target = tmp_path / "artifact.json"
        write_output_atomic(str(target), "first")
        write_output_atomic(str(target), "second")
        assert target.read_text() == "second"

    def test_example_spec_file_parses(self):
        specs = load_spec_batch(
            open("examples/specs/claranet.json", encoding="utf-8").read()
        )
        assert len(specs) == 2
        assert specs[0].topology.name == "claranet"
        assert specs[1].topology.name == "agrid"
