"""Integration tests for the experiment drivers (Tables 3-13 and ablations).

These use reduced trial counts so the whole suite stays fast; the benchmark
harness runs the paper-sized versions.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.agrid.algorithm import agrid
from repro.api.scenario import Scenario
from repro.api.spec import FailureModel, UniverseSpec
from repro.exceptions import ExperimentError
from repro.experiments.ablation import placement_ablation, selector_ablation
from repro.experiments.common import (
    dimension_log,
    dimension_sqrt_log,
    resolve_dimension,
)
from repro.experiments.random_graphs import (
    run_random_graph_cell,
    run_table6,
    run_table7,
)
from repro.experiments.random_monitors import run_random_monitor_experiment
from repro.experiments.real_networks import (
    REAL_NETWORK_TABLES,
    run_real_network,
    run_table5,
)
from repro.experiments.truncated import run_truncated_experiment
from repro.experiments import runner
from repro.monitors.heuristics import mdmp_placement
from repro.routing.paths import enumerate_paths
from repro.topology.zoo import dataxchange, eunetwork_small, getnet, gridnetwork
from repro.utils.seeds import spawn_rng

from oracles import core_mu


class TestDimensionRules:
    def test_log_rule_values(self):
        assert dimension_log(15) == 3
        assert dimension_log(14) == 3
        assert dimension_log(6) == 2

    def test_sqrt_log_rule_values(self):
        assert dimension_sqrt_log(15) == 2
        assert dimension_sqrt_log(6) == 2

    def test_bump_when_graph_already_dense(self):
        graph = gridnetwork()  # minimal degree 4 > log(7) ~ 2
        assert dimension_log(graph.number_of_nodes(), graph) > 2

    def test_resolve_dimension_unknown_rule(self):
        with pytest.raises(ExperimentError):
            resolve_dimension("cubic", dataxchange())

    def test_rules_reject_tiny_graphs(self):
        with pytest.raises(ExperimentError):
            dimension_log(1)


class TestAgridMeasurement:
    def test_measurement_fields(self):
        graph = eunetwork_small()
        placement = mdmp_placement(graph, 2)
        measurement = Scenario.from_components(graph, placement).measurement()
        assert measurement.n_edges == graph.number_of_edges()
        assert measurement.n_monitors == 4
        assert measurement.n_paths == enumerate_paths(graph, placement).n_paths
        assert measurement.mu == core_mu(graph, placement)

    def test_agrid_comparison_never_decreases(self):
        graph = eunetwork_small()
        scenario = Scenario.from_components(graph, mdmp_placement(graph, 2))
        comparison = scenario.agrid_comparison(2, rng=0)
        assert comparison.improvement >= 0
        assert comparison.boosted.min_degree >= 2
        boost = agrid(graph, 2, rng=0)
        assert comparison.original.mu == core_mu(graph, boost.placement_original)
        assert comparison.boosted.mu == core_mu(
            boost.boosted, boost.placement_boosted
        )


class TestRealNetworks:
    def test_table5_structure(self):
        result = run_table5(rng=1)
        assert result.n_nodes == 6
        assert result.never_decreases
        rows = result.rows()
        assert rows[0][0] == "mu"
        assert "DataXchange" in result.render()

    def test_table_registry_names(self):
        assert set(REAL_NETWORK_TABLES) == {"claranet", "eunetworks", "dataxchange"}

    @pytest.mark.parametrize("universe", ["node", "link"])
    def test_halves_are_facade_measurements(self, universe):
        """Each half of a real table is the facade's measurement of Agrid's
        MDMP placement on G or G^A, path-length histogram included."""
        result = run_real_network("dataxchange", rng=7, universe=universe)
        graph = dataxchange()
        failures = FailureModel(universe=UniverseSpec(kind=universe))
        for slot, rule, comparison in (
            (1, "sqrt_log", result.sqrt_log),
            (2, "log", result.log),
        ):
            boost = agrid(graph, resolve_dimension(rule, graph), rng=spawn_rng(7, slot))
            for half, measured, placement in (
                (comparison.original, graph, boost.placement_original),
                (comparison.boosted, boost.boosted, boost.placement_boosted),
            ):
                expected = Scenario.from_components(
                    measured, placement, failures=failures
                ).measurement()
                assert half == expected
                assert half.universe == universe and half.path_lengths

    def test_run_real_network_on_small_net_is_consistent(self):
        result = run_real_network("dataxchange", rng=7)
        # The boosted graph always has at least as many edges and a higher
        # minimal degree than the original.
        for comparison in (result.sqrt_log, result.log):
            assert comparison.boosted.n_edges >= comparison.original.n_edges
            assert comparison.boosted.min_degree >= comparison.original.min_degree


class TestRandomGraphs:
    def test_cell_counts_add_up(self):
        cell = run_random_graph_cell(5, 6, "log", rng=3)
        assert cell.n_improved + cell.n_equal + cell.n_decreased == 6
        assert cell.never_decreased
        assert "%" in cell.render_cell()

    def test_cell_rejects_bad_arguments(self):
        with pytest.raises(ExperimentError):
            run_random_graph_cell(5, 0)
        with pytest.raises(ExperimentError):
            run_random_graph_cell(5, 5, "cubic")

    def test_table_render_contains_all_cells(self):
        table = run_table6(node_counts=(5,), batch_sizes=(3,), rng=4)
        assert (3, 5) in table.cells
        assert table.never_decreased
        assert "n=5" in table.render()

    def test_table7_uses_log_rule(self):
        table = run_table7(node_counts=(5,), batch_sizes=(2,), rng=4)
        assert table.dimension_rule == "log"


class TestTruncatedExperiments:
    def test_distribution_sums_to_samples(self):
        result = run_truncated_experiment(eunetwork_small(), n_samples=4, rng=2)
        assert result.boosted.n_samples == 4
        assert result.original.n_samples == 1
        assert abs(sum(result.boosted.fraction(v) for v in result.boosted.support()) - 1.0) < 1e-9

    def test_boosted_dominates(self):
        result = run_truncated_experiment(eunetwork_small(), n_samples=4, rng=2)
        assert result.boosted_dominates
        assert "G^A" in result.render()

    def test_rejects_zero_samples(self):
        with pytest.raises(ExperimentError):
            run_truncated_experiment(eunetwork_small(), n_samples=0)


class TestRandomMonitorExperiments:
    def test_distributions_have_right_sample_count(self):
        result = run_random_monitor_experiment(getnet(), n_placements=4, rng=2)
        assert result.original.n_samples == 4
        assert result.boosted.n_samples == 4

    def test_boosted_dominates_on_getnet(self):
        result = run_random_monitor_experiment(getnet(), n_placements=4, rng=2)
        assert result.boosted_dominates
        assert "random monitors" in result.render()

    def test_rejects_zero_placements(self):
        with pytest.raises(ExperimentError):
            run_random_monitor_experiment(getnet(), n_placements=0)


class TestAblation:
    def test_placement_ablation_variants(self):
        result = placement_ablation(eunetwork_small(), n_runs=2, rng=1)
        assert set(result.cells) == {"mdmp", "random", "degree_extremes"}
        assert result.best_variant() in result.cells
        assert "mean mu" in result.render("Ablation")

    def test_selector_ablation_variants(self):
        result = selector_ablation(eunetwork_small(), n_runs=2, rng=1)
        assert set(result.cells) == {"uniform", "low_degree", "far_away"}

    def test_rejects_zero_runs(self):
        with pytest.raises(ExperimentError):
            placement_ablation(eunetwork_small(), n_runs=0)


class TestRunner:
    def test_available_groups(self):
        assert "all" in runner.available_groups()
        assert "real" in runner.available_groups()

    def test_parser_defaults(self):
        args = runner.build_parser().parse_args([])
        assert args.tables == "all"
        assert args.seed == 2018
        assert args.jobs == 1
        assert args.format == "text"
        assert args.output is None
        assert args.trials is None

    def test_module_entry_runs_without_runtime_warning(self):
        """``python -m repro.experiments.runner`` must not find the runner
        already imported by its package (runpy's RuntimeWarning)."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(src), env.get("PYTHONPATH")) if part
        )
        completed = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.experiments.runner", "--help"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert completed.returncode == 0
        assert completed.stderr == ""

    def test_run_single_group(self):
        sections = runner.run("ablation", seed=1, trials=2)
        assert sections
        for section in sections:
            assert isinstance(section, runner.Section)
            assert section.group == "ablation"
            assert section.title in section.render()
            assert isinstance(section.data, dict)

    def test_run_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            runner.run("ablation", seed=1, trials=0)

    def test_run_clears_and_populates_cache_stats(self):
        from repro.engine import cache_stats, clear_pathset_cache

        # run() clears once per invocation: the stats describe that run only.
        runner.run("ablation", seed=1, trials=1)
        stats = cache_stats()
        assert stats.misses > 0
        runner.run("ablation", seed=1, trials=1)
        assert cache_stats().misses == stats.misses  # identical fresh run
        clear_pathset_cache()
        assert cache_stats().misses == 0

    def test_render_text_contains_every_title(self):
        sections = runner.run("ablation", seed=1, trials=1)
        text = runner.render_text(sections)
        for section in sections:
            assert section.title in text

    def test_time_budget_flag_keeps_the_spec_engine_settings(self, tmp_path):
        """``--time-budget`` overrides only ``time_budget``: the spec's own
        ``subset_budget`` still truncates µ and ``cache: false`` stands."""
        import json

        spec = {
            "topology": {"name": "dataxchange"},
            "placement": {"strategy": "mdmp", "params": {"d": 3}},
            "seed": 1,
            "engine": {"cache": False, "subset_budget": 1},
            "analyses": [{"analysis": "mu"}],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out.json"
        runner.main(
            ["--spec", str(spec_path), "--time-budget", "3600", "--format",
             "json", "--output", str(out)]
        )
        data = json.loads(out.read_text())["sections"][0]["data"]
        assert data["spec"]["engine"] == {
            "cache": False,
            "time_budget": 3600.0,
            "subset_budget": 1,
        }
        mu = data["analyses"]["mu"]
        assert mu["searched_up_to"] == 1
        assert mu["witness"] is None

    def test_main_backend_selection_is_scoped(self, tmp_path, capsys):
        """The engine flags live in one run's engine config; the removed
        ``--backend`` flag is an argparse error."""
        with pytest.raises(SystemExit):
            runner.main(["--tables", "ablation", "--backend", "python"])
        assert "--backend" in capsys.readouterr().err
        out = tmp_path / "out.txt"
        runner.main(
            ["--tables", "ablation", "--trials", "1", "--time-budget", "3600",
             "--output", str(out)]
        )
        assert "Ablation" in out.read_text()
        # The flag lived in the run's engine config only: a later default
        # run computes the same tables on its own default config.
        default = tmp_path / "default.txt"
        runner.main(
            ["--tables", "ablation", "--trials", "1", "--output", str(default)]
        )
        assert default.read_text() == out.read_text()
