"""Tests for the parallel trial-execution subsystem and the runner formats.

The load-bearing property is *determinism*: fanning a batch out over worker
processes must render bit-identical tables to the serial path for the same
seed.  These tests use tiny batches so the pool overhead stays small.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.api import EngineConfig, PlacementSpec, ScenarioSpec, TopologySpec
from repro.engine import (
    cache_stats,
    clear_pathset_cache,
    normalize_limits,
    pathset_cache,
)
from repro.exceptions import ExperimentError
from repro.experiments import runner
from repro.experiments.ablation import selector_ablation
from repro.experiments.parallel import (
    TrialSpec,
    resolve_jobs,
    run_trials,
)
from repro.experiments.random_graphs import run_random_graph_cell, run_table6
from repro.experiments.random_monitors import run_random_monitor_experiment
from repro.experiments.truncated import run_truncated_experiment
from repro.topology.zoo import eunetwork_small, getnet
from repro.utils.seeds import spawn_rng, spawn_seed


def _square(value: int) -> int:
    """Module-level so it pickles into pool workers."""
    return value * value


def _seeded_draw(seed: str) -> float:
    return random.Random(seed).random()


def _mu_of(spec: ScenarioSpec) -> tuple:
    """µ, ``searched_up_to`` and the budget flag of a trial's spec."""
    result = spec.build().identifiability()
    return result.value, result.searched_up_to, result.stats.budget_exhausted


class TestRunTrials:
    def test_empty_batch(self):
        assert run_trials([], jobs=2) == []

    def test_serial_preserves_order(self):
        specs = [TrialSpec(_square, (i,)) for i in range(7)]
        assert run_trials(specs, jobs=1) == [i * i for i in range(7)]

    def test_parallel_matches_serial(self):
        specs = [TrialSpec(_square, (i,)) for i in range(9)]
        assert run_trials(specs, jobs=2) == run_trials(specs, jobs=1)

    def test_seeded_trials_are_schedule_independent(self):
        specs = [TrialSpec(_seeded_draw, (f"seed:{i}",)) for i in range(6)]
        assert run_trials(specs, jobs=3) == run_trials(specs, jobs=1)

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs(0) >= 1  # all cores
        with pytest.raises(ExperimentError):
            resolve_jobs(-1)

    def test_spec_run_applies_kwargs(self):
        spec = TrialSpec(_square, kwargs={"value": 3}, label="sq")
        assert spec.run() == 9

    def test_engine_config_reaches_serial_and_parallel_trials(self):
        # µ = 2 on the 3x3 directed grid under χ_g; a one-node search budget
        # truncates it at the certified level-1 lower bound.
        spec = ScenarioSpec(
            topology=TopologySpec("directed_grid", {"n": 3}),
            placement=PlacementSpec("chi_g"),
            engine=EngineConfig(subset_budget=1),
        )
        specs = [TrialSpec(_mu_of, (spec,)) for _ in range(2)]
        assert run_trials(specs, jobs=1) == [(1, 1, True)] * 2
        assert run_trials(specs, jobs=2) == [(1, 1, True)] * 2


class TestSeedDerivation:
    def test_spawn_seed_reproduces_spawn_rng(self):
        seed = spawn_seed(5, 3)
        assert random.Random(seed).random() == spawn_rng(5, 3).random()

    def test_spawn_seed_consumes_shared_stream_in_order(self):
        shared_a, shared_b = random.Random(1), random.Random(1)
        seeds = [spawn_seed(shared_a, i) for i in range(4)]
        rngs = [spawn_rng(shared_b, i) for i in range(4)]
        assert [random.Random(s).random() for s in seeds] == [
            r.random() for r in rngs
        ]
        assert len(set(seeds)) == 4


class TestDriverParity:
    """--jobs N must be bit-identical to serial for the same seed."""

    def test_random_graph_cell_parity(self):
        serial = run_random_graph_cell(5, 6, "log", rng=3, jobs=1)
        parallel = run_random_graph_cell(5, 6, "log", rng=3, jobs=2)
        assert serial == parallel

    def test_table6_render_parity(self):
        serial = run_table6(node_counts=(5,), batch_sizes=(4,), rng=7, jobs=1)
        parallel = run_table6(node_counts=(5,), batch_sizes=(4,), rng=7, jobs=2)
        assert serial.render() == parallel.render()
        assert serial.cells == parallel.cells

    def test_random_monitor_parity(self):
        serial = run_random_monitor_experiment(getnet(), 4, rng=2, jobs=1)
        parallel = run_random_monitor_experiment(getnet(), 4, rng=2, jobs=2)
        assert serial.render() == parallel.render()

    def test_truncated_parity(self):
        serial = run_truncated_experiment(eunetwork_small(), 4, rng=2, jobs=1)
        parallel = run_truncated_experiment(eunetwork_small(), 4, rng=2, jobs=2)
        assert serial.render() == parallel.render()

    def test_ablation_parity(self):
        serial = selector_ablation(eunetwork_small(), n_runs=2, rng=1, jobs=1)
        parallel = selector_ablation(eunetwork_small(), n_runs=2, rng=1, jobs=2)
        assert serial == parallel

    def test_explicit_engine_config_keeps_parallel_results(self):
        generous = EngineConfig(time_budget=3600)
        default = run_random_graph_cell(5, 4, "log", rng=3, jobs=2)
        explicit = run_random_graph_cell(
            5, 4, "log", rng=3, jobs=2, engine=generous
        )
        assert explicit == default


class TestCacheStatsMerging:
    def test_worker_deltas_merge_into_parent(self):
        clear_pathset_cache()
        run_random_monitor_experiment(getnet(), 4, rng=2, jobs=2)
        stats = cache_stats()
        # Eight µ computations happen in the workers; their misses must be
        # visible in the parent's counters even though the entries are not.
        assert stats.hits + stats.misses >= 8
        clear_pathset_cache()

    def test_worker_delta_validates(self):
        """A malformed worker delta is rejected whole, before it counts."""
        from repro.experiments.parallel import TrialResult, _merge_worker_counters

        before = cache_stats()
        for delta in ({"hits": 2, "misses": -1}, {"hits": 2, "lookups": 1}):
            with pytest.raises((ValueError, KeyError)):
                _merge_worker_counters(
                    [TrialResult(index=0, value=None, counters={"pathset": delta})]
                )
        assert cache_stats() == before

    def test_normalize_limits(self):
        assert normalize_limits(None, None) == normalize_limits()
        assert normalize_limits(3, None)[0] == 3
        with pytest.raises(ValueError):
            normalize_limits(0, None)

    def test_explicit_default_limits_share_cache_entry(self):
        from repro.engine import PathSetCache
        from repro.monitors.placement import MonitorPlacement
        from repro.routing.paths import DEFAULT_MAX_PATHS
        from repro.topology.lines import line_graph

        cache = PathSetCache()
        graph = line_graph(4)
        placement = MonitorPlacement.of(inputs={0}, outputs={3})
        cache.get_or_enumerate(graph, placement, "CSP")
        cache.get_or_enumerate(
            graph, placement, "CSP", cutoff=None, max_paths=DEFAULT_MAX_PATHS
        )
        cache.get_or_enumerate(graph, placement, "CSP", max_paths=None)
        assert cache.stats().misses == 1
        assert cache.stats().hits == 2


class TestJsonFormat:
    def test_json_round_trip(self):
        sections = runner.run("ablation", seed=1, trials=2)
        document = json.loads(runner.render_json(sections, seed=1, jobs=2))
        assert document["seed"] == 1
        assert document["jobs"] == 2
        assert len(document["sections"]) == len(sections)
        for rendered, section in zip(document["sections"], sections):
            assert rendered["title"] == section.title
            assert rendered["group"] == "ablation"
            assert rendered["text"] == section.body
            assert rendered["data"]["cells"]

    def test_json_cell_keys_are_strings(self):
        table = run_table6(node_counts=(5,), batch_sizes=(2,), rng=4)
        data = runner.to_jsonable(table)
        assert "2,5" in data["cells"]
        json.dumps(data)  # must be serialisable as-is

    def test_main_json_output_file(self, tmp_path):
        out = tmp_path / "tables.json"
        exit_code = runner.main(
            ["--tables", "random", "--trials", "2", "--jobs", "2",
             "--format", "json", "--output", str(out)]
        )
        assert exit_code == 0
        document = json.loads(out.read_text())
        assert {s["title"] for s in document["sections"]} == {"Table 6", "Table 7"}

    def test_cli_text_and_json_carry_same_tables(self):
        sections = runner.run("random", seed=5, trials=2, jobs=2)
        text = runner.render_text(sections)
        document = json.loads(runner.render_json(sections, seed=5, jobs=2))
        for rendered in document["sections"]:
            assert rendered["text"] in text
