"""Public-API snapshot: accidental surface breaks must fail CI.

Frozen contracts:

* ``repro.__all__`` — the names the package promises to export.  Additions
  are deliberate (update the snapshot in the same PR); removals/renames are
  breaking changes and should be caught here, not by downstream users.
* ``repro.engine.__all__`` and ``repro.resilience.__all__`` — the engine and
  execution settings travel in :class:`repro.EngineConfig` /
  ``ExecutionPolicy`` values, so a process-global setter that comes back
  shows up here.
* The :class:`repro.ScenarioSpec` JSON schema — field names and defaults of
  every sub-spec.  Serialized specs are a wire format (CLI ``--spec`` files,
  archived experiment artifacts), so silent default changes are breaking.
"""

from __future__ import annotations

import ast
import importlib
import inspect

import pytest

import repro
import repro.engine
import repro.resilience
from repro.api.scenario import Scenario
from repro.api.spec import SCHEMA_VERSION, PlacementSpec, ScenarioSpec, TopologySpec

EXPECTED_ALL = [
    "AnalysisSpec",
    "Budget",
    "BudgetExceededError",
    "ChaosConfig",
    "CheckpointJournal",
    "DeltaSpec",
    "EngineConfig",
    "FailureModel",
    "FailureUniverse",
    "MonitorPlacement",
    "PathSet",
    "PlacementSpec",
    "RoutingMechanism",
    "RoutingSpec",
    "Scenario",
    "ScenarioSpec",
    "SignatureEngine",
    "TomographySession",
    "TopologySpec",
    "TrialFailure",
    "UniverseSpec",
    "__version__",
    "agrid",
    "chi_corners",
    "chi_g",
    "chi_t",
    "claranet",
    "design_network",
    "directed_grid",
    "directed_hypergrid",
    "enumerate_paths",
    "erdos_renyi_connected",
    "is_k_identifiable",
    "localize_failures",
    "maximal_identifiability",
    "mdmp_placement",
    "measurement_vector",
    "random_placement",
    "registries",
    "structural_upper_bound",
    "undirected_grid",
    "undirected_hypergrid",
    "verify",
]

EXPECTED_ENGINE_ALL = [
    "CacheStats",
    "CompressionPlan",
    "ConfusablePair",
    "IdentifiabilityResult",
    "PathSetCache",
    "SearchCounters",
    "SearchStats",
    "SignatureEngine",
    "cache_stats",
    "clear_pathset_cache",
    "compress_universe",
    "dedup_columns",
    "gather_columns",
    "graph_fingerprint",
    "normalize_limits",
    "pathset_cache",
    "reset_search_counters",
    "search_counters",
]

EXPECTED_RESILIENCE_ALL = [
    "Budget",
    "BudgetExceededError",
    "ChaosConfig",
    "ChaosInjectedError",
    "CheckpointJournal",
    "ExecutionPolicy",
    "PoolCounters",
    "TrialFailure",
    "fingerprint_call",
    "fingerprint_payload",
    "pool_counters",
    "reset_pool_counters",
    "resolve_budget",
]

#: The full serialised form of a minimal spec — field names AND defaults.
#: Schema v2 (PR 5) added ``failures.universe``; v1 documents still parse
#: and auto-upgrade to node mode (see test_universes.py for the snapshot).
EXPECTED_SPEC_SCHEMA = {
    "schema_version": 2,
    "label": "",
    "topology": {"name": "claranet", "params": {}},
    "placement": {"strategy": "mdmp", "params": {"d": 3}},
    "routing": {"mechanism": "CSP", "cutoff": None, "max_paths": None},
    "failures": {
        "model": "uniform",
        "size": 1,
        "n_trials": 10,
        "universe": {"kind": "node", "groups": {}},
    },
    "engine": {"cache": True, "time_budget": None, "subset_budget": None},
    "seed": None,
    "analyses": [{"analysis": "mu", "params": {}}],
}

EXPECTED_ANALYSES = (
    "agrid_comparison",
    "agrid_tradeoff",
    "bounds",
    "localization",
    "measurement",
    "mu",
    "separability",
    "truncated",
)


class TestPublicSurface:
    def test_all_snapshot(self):
        assert sorted(repro.__all__) == EXPECTED_ALL

    def test_every_exported_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_engine_and_resilience_all_snapshots(self):
        assert sorted(repro.engine.__all__) == EXPECTED_ENGINE_ALL
        assert sorted(repro.resilience.__all__) == EXPECTED_RESILIENCE_ALL

    @pytest.mark.parametrize(
        "module",
        [
            "repro.engine.columns",
            "repro.engine.compress",
            "repro.resilience.budget",
            "repro.resilience.pool",
        ],
    )
    def test_engine_setting_modules_have_no_global_statement(self, module):
        tree = ast.parse(inspect.getsource(importlib.import_module(module)))
        assert not any(isinstance(node, ast.Global) for node in ast.walk(tree))

    @pytest.mark.parametrize(
        "module, owner, name",
        [
            ("repro.engine.signatures", None, "record_external_search"),
            ("repro.engine.cache", "PathSetCache", "record_external"),
            ("repro.service.executor", "AnalysisExecutor", "run_sync"),
        ],
    )
    def test_names_removed_in_11_are_gone(self, module, owner, name):
        """The 11.0.0 removals (README "Migration to 11.0.0")."""
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        assert not hasattr(target, name)

    def test_names_removed_in_16_are_gone(self):
        """The 16.0.0 removals (README "Migration to 16.0.0")."""
        from repro.api.scenario import Scenario
        from repro.experiments import runner

        assert not hasattr(Scenario, "from_spec")
        assert not hasattr(runner, "run_spec_file")

    def test_schema_version(self):
        assert SCHEMA_VERSION == 2
        from repro.api.spec import SUPPORTED_SCHEMA_VERSIONS

        assert SUPPORTED_SCHEMA_VERSIONS == (1, 2)

    def test_scenario_spec_schema_snapshot(self):
        spec = ScenarioSpec(
            topology=TopologySpec("claranet"),
            placement=PlacementSpec("mdmp", {"d": 3}),
        )
        assert spec.to_dict() == EXPECTED_SPEC_SCHEMA
        # And the document is valid input for the parser.
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_engine_config_defaults_snapshot(self):
        assert repro.EngineConfig().to_dict() == {
            "cache": True,
            "time_budget": None,
            "subset_budget": None,
        }

    def test_available_analyses_snapshot(self):
        assert Scenario.available_analyses() == EXPECTED_ANALYSES

    def test_builtin_registry_entries_are_stable(self):
        from repro.api import registries

        required_topologies = {
            "zoo", "graph", "agrid", "claranet", "eunetworks", "dataxchange",
            "gridnetwork", "eunetwork_small", "getnet", "directed_grid",
            "undirected_grid", "directed_hypergrid", "undirected_hypergrid",
            "complete_kary_tree", "erdos_renyi_connected",
            "random_connected_sparse",
        }
        required_placements = {
            "mdmp", "random", "degree_extremes", "chi_g", "chi_t",
            "chi_corners", "all_pairs", "explicit",
        }
        assert required_topologies <= set(registries.topologies.names())
        assert required_placements <= set(registries.placements.names())
