"""The resilient execution layer: search budgets, the fault-tolerant trial
pool, checkpoint/resume, and the deterministic fault-injection harness.

The central invariants:

* a budget-truncated ``identifiability()`` is always *well-formed* — it stops
  at a completed search level, reports ``exhausted_search=False`` and
  ``stats.budget_exhausted=True``, and its value is a certified lower bound
  on the exact µ — and a subset budget (search-tree nodes for µ) truncates
  at the same point on every run and every column kernel × compression engine,
  serial or through the trial pool, and never earlier for a larger budget;
* a crash-riddled parallel run (seeded worker kills, injected errors) that
  converges produces output **bit-identical** to a clean serial run, because
  retried trials reuse their original pickled spec, seed included;
* a checkpointed rerun restores journaled values bit-identically and skips
  their recomputation.
"""

from __future__ import annotations

import json
import os
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.api.spec import EngineConfig, PlacementSpec, ScenarioSpec, TopologySpec
from repro.engine.signatures import SignatureEngine
from repro.exceptions import (
    BudgetExceededError,
    ExperimentError,
    IdentifiabilityError,
)
from repro.experiments import runner
from repro.experiments.parallel import TrialSpec, _checkpoint_keys, run_trials
from repro.experiments.random_monitors import run_random_monitor_experiment
from repro.resilience.budget import Budget, resolve_budget
from repro.resilience.chaos import ChaosConfig, ChaosInjectedError
from repro.resilience.checkpoint import (
    CheckpointJournal,
    fingerprint_call,
    fingerprint_payload,
)
from repro.resilience.pool import (
    ExecutionPolicy,
    TrialFailure,
    pool_counters,
    reset_pool_counters,
)
from repro.topology import zoo

from conftest import ENGINE_CONFIGS

CHURN_FILE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "specs", "churn", "claranet_flaps.json",
)


def _pathset(seed: int = 1, n: int = 12, monitors: int = 3):
    graph = repro.erdos_renyi_connected(n, 0.35, rng=seed)
    placement = repro.random_placement(graph, monitors, monitors, rng=seed + 1000)
    return repro.enumerate_paths(graph, placement)


# -- module-level trial functions (must pickle into pool workers) ------------

def _square_trial(seed: int) -> int:
    return seed * seed + 1


def _mu_trial(seed: int) -> int:
    graph = repro.erdos_renyi_connected(8, 0.4, rng=seed)
    placement = repro.random_placement(graph, 2, 2, rng=seed + 99)
    return repro.maximal_identifiability(repro.enumerate_paths(graph, placement))


def _budgeted_mu_trial(spec: ScenarioSpec):
    report = repro.Scenario(spec).mu()
    return report.value, report.searched_up_to, report.exhausted_search


def _poison_trial(seed: int, bad: int) -> int:
    if seed == bad:
        raise ValueError(f"poison {seed}")
    return seed


def _hang_trial(seed: int, bad: int) -> int:
    if seed == bad:
        time.sleep(30)
    return seed + 100


class TestBudgetObject:
    def test_validation(self):
        for value in (0, -1, -0.5, True, "5"):
            with pytest.raises(IdentifiabilityError):
                Budget(time_budget=value)
        for value in (0, -1, 1.5, True, "5"):
            with pytest.raises(IdentifiabilityError):
                Budget(subset_budget=value)

    def test_unbounded_budget_never_expires(self):
        budget = Budget()
        assert not budget.bounded
        budget.start()
        assert not budget.spend(10**9)
        assert not budget.expired()

    def test_subset_budget_expiry_and_consumed(self):
        budget = Budget(subset_budget=5)
        budget.start()
        assert not budget.spend(4)
        assert budget.consumed == 4
        assert budget.spend(1)
        assert budget.expired()
        assert budget.consumed == 5

    def test_time_budget_expiry(self):
        budget = Budget(time_budget=0.01)
        budget.start()
        time.sleep(0.02)
        assert budget.expired()

    def test_resolve_budget_none_is_unbounded(self):
        assert resolve_budget(None) is None
        explicit = Budget(subset_budget=3)
        assert resolve_budget(explicit) is explicit
        with pytest.raises(IdentifiabilityError):
            resolve_budget("not a budget")


class TestBudgetTruncation:
    def test_subset_budget_truncation_is_well_formed_and_deterministic(self):
        pathset = _pathset()
        engine = pathset.engine()
        exact = engine.identifiability()
        outcomes = []
        for _ in range(3):
            result = engine.identifiability(budget=Budget(subset_budget=40))
            assert result.exhausted_search is False
            assert result.witness is None
            assert result.stats.budget_exhausted is True
            assert result.stats.as_dict()["budget_exhausted"] is True
            assert result.searched_up_to == result.value
            assert result.value <= exact.value
            outcomes.append(
                (result.value, result.searched_up_to, result.stats.subsets_enumerated)
            )
        # The subset-budget truncation point is a pure function of the sweep.
        assert len(set(outcomes)) == 1

    def test_fork_pool_parity(self):
        """Budget-truncated trials fanned out over the process pool match the
        serial run bit for bit."""
        specs = [
            ScenarioSpec(
                topology=TopologySpec(
                    "erdos_renyi_connected", {"n_nodes": 12, "probability": 0.35}
                ),
                placement=PlacementSpec("random", {"n_inputs": 3, "n_outputs": 3}),
                engine=EngineConfig(subset_budget=40),
                seed=seed,
            )
            for seed in (1, 2)
        ]
        trials = [TrialSpec(_budgeted_mu_trial, (spec,)) for spec in specs]
        serial = run_trials(trials, jobs=1)
        assert run_trials(trials, jobs=2) == serial
        assert all(exhausted is False for _, _, exhausted in serial)

    def test_generous_budget_is_a_no_op(self):
        pathset = _pathset()
        engine = pathset.engine()
        exact = engine.identifiability()
        budgeted = engine.identifiability(budget=Budget(subset_budget=10**9))
        assert budgeted == exact
        assert budgeted.stats.budget_exhausted is False

    def test_time_budget_truncates_gracefully(self):
        pathset = _pathset()
        result = pathset.engine().identifiability(
            budget=Budget(time_budget=1e-9)
        )
        assert result.exhausted_search is False
        assert result.stats.budget_exhausted is True
        assert result.value == result.searched_up_to

    def test_census_raises_on_expired_budget(self):
        pathset = _pathset()
        engine = pathset.engine()
        with pytest.raises(BudgetExceededError):
            engine.inseparable_pairs(2, budget=Budget(subset_budget=5))
        with pytest.raises(BudgetExceededError):
            engine.separability_matrix(2, budget=Budget(subset_budget=5))

    def test_budget_through_scenario_facade(self):
        graph = repro.erdos_renyi_connected(12, 0.35, rng=1)
        placement = repro.random_placement(graph, 3, 3, rng=1001)
        exact = repro.Scenario.from_components(graph, placement).mu()
        scenario = repro.Scenario.from_components(
            graph, placement, engine=EngineConfig(subset_budget=40)
        )
        report = scenario.mu()
        assert report.exhausted_search is False
        assert report.value <= exact.value
        truncated = scenario.truncated(3)
        assert truncated.exhausted_search is False
        with pytest.raises(BudgetExceededError):
            repro.Scenario.from_components(
                graph, placement, engine=EngineConfig(subset_budget=5)
            ).separability(2)

    def test_engine_config_budget_is_fresh_per_call(self):
        config = EngineConfig(subset_budget=40)
        first, second = config.budget(), config.budget()
        assert first is not second
        assert config.budget() is not None
        assert EngineConfig().budget() is None

    def test_explicit_budget_reaches_engine_and_only_that_call(self):
        pathset = _pathset()
        budgeted = pathset.engine().identifiability(budget=Budget(subset_budget=40))
        assert budgeted.stats.budget_exhausted is True
        clean = pathset.engine().identifiability()
        assert clean.stats.budget_exhausted is False


class TestBudgetMetamorphic:
    """Hypothesis invariants of budget truncation.

    Truncation stops the search *early*, so the truncated value is a
    certified lower bound: ``truncated.value <= exact.value``, never more.
    (The ISSUE text states the opposite direction; the search enumerates
    sizes upward and a collision at size s proves ``µ = s - 1``, so stopping
    early can only under-report.)  Widening the budget must never move the
    truncation point backwards.  The ``@example`` cases are the shrunk
    regression fixtures this suite was developed against.
    """

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5), subsets=st.integers(5, 200))
    @example(seed=1, subsets=40)
    @example(seed=0, subsets=5)
    @example(seed=3, subsets=13)
    def test_truncated_value_is_a_lower_bound(self, seed, subsets):
        engine = _pathset(seed=seed, n=10, monitors=2).engine()
        exact = engine.identifiability()
        truncated = engine.identifiability(budget=Budget(subset_budget=subsets))
        assert truncated.value <= exact.value
        assert truncated.searched_up_to <= exact.searched_up_to
        assert truncated.value == truncated.searched_up_to or (
            not truncated.stats.budget_exhausted
        )

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 5),
        narrow=st.integers(5, 100),
        extra=st.integers(1, 100),
    )
    @example(seed=1, narrow=40, extra=26)
    @example(seed=2, narrow=5, extra=1)
    def test_widening_never_retreats(self, seed, narrow, extra):
        engine = _pathset(seed=seed, n=10, monitors=2).engine()
        small = engine.identifiability(budget=Budget(subset_budget=narrow))
        large = engine.identifiability(budget=Budget(subset_budget=narrow + extra))
        assert small.searched_up_to <= large.searched_up_to
        assert small.value <= large.value


def _grid_pathset(n: int, d: int):
    grid = repro.directed_hypergrid(n, d) if d > 2 else repro.directed_grid(n)
    return repro.enumerate_paths(grid, repro.chi_g(grid))


class TestBudgetLaws:
    """The µ subset budget counts search-tree nodes.  Over a ladder of node
    budgets, on every column kernel × compression engine of cells with µ ≥ 1 in
    the node and link universes: a truncated result is a certified lower
    bound (``value == searched_up_to ≤ µ``, no witness, not exhausted),
    every engine truncates identically, and a larger budget never stops
    earlier."""

    BUDGETS = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 10**9)

    @pytest.mark.parametrize("n, d", [(3, 2), (4, 2), (3, 3)])
    def test_truncation_laws_over_a_budget_ladder(self, n, d):
        pathset = _grid_pathset(n, d)
        levels = set()
        for kind in ("node", "link"):
            universe = pathset.universe(kind)
            exact = pathset.engine(universe=universe).identifiability()
            engines = [
                SignatureEngine.from_universe(universe, compress=compress)
                for compress in ENGINE_CONFIGS
            ]
            previous = 0
            for subsets in self.BUDGETS:
                outcomes = set()
                for engine in engines:
                    result = engine.identifiability(
                        budget=Budget(subset_budget=subsets)
                    )
                    outcomes.add((result, result.stats))
                assert len(outcomes) == 1, (n, d, kind, subsets, outcomes)
                (result, stats), = outcomes
                if stats.budget_exhausted:
                    assert result.witness is None
                    assert result.exhausted_search is False
                    assert result.value == result.searched_up_to <= exact.value
                    levels.add(result.searched_up_to)
                else:
                    assert result == exact
                assert result.searched_up_to >= previous, (n, d, kind, subsets)
                previous = result.searched_up_to
            assert not stats.budget_exhausted  # the last rung is generous
        assert 1 in levels


class TestChaosConfig:
    def test_action_is_deterministic(self):
        config = ChaosConfig(seed=7, kill=0.3, error=0.2, max_failures=2)
        table = [(i, a, config.action(i, a)) for i in range(20) for a in range(4)]
        assert table == [
            (i, a, config.action(i, a)) for i in range(20) for a in range(4)
        ]
        assert any(action == "kill" for _, _, action in table)
        assert any(action == "error" for _, _, action in table)

    def test_attempts_past_max_failures_run_clean(self):
        config = ChaosConfig(seed=7, kill=1.0, max_failures=2)
        assert config.action(0, 0) == "kill"
        assert config.action(0, 1) == "kill"
        assert config.action(0, 2) == "ok"

    def test_rate_validation(self):
        with pytest.raises(ExperimentError):
            ChaosConfig(kill=1.5)
        with pytest.raises(ExperimentError):
            ChaosConfig(kill=0.6, error=0.6)
        with pytest.raises(ExperimentError):
            ChaosConfig(max_failures=-1)

    def test_from_string(self):
        config = ChaosConfig.from_string("seed=7, kill=0.3, max_failures=2")
        assert config == ChaosConfig(seed=7, kill=0.3, max_failures=2)
        assert ChaosConfig.from_string(None) is None
        assert ChaosConfig.from_string("  ") is None
        with pytest.raises(ExperimentError):
            ChaosConfig.from_string("kill")
        with pytest.raises(ExperimentError):
            ChaosConfig.from_string("frobnicate=1")


class TestResilientPool:
    def test_chaos_parity_with_clean_serial(self):
        """The headline invariant: a crash-riddled --jobs 4 run is
        bit-identical to a clean serial run of the same specs."""
        specs = [TrialSpec(_mu_trial, (i,), label=f"mu{i}") for i in range(8)]
        clean = run_trials(specs, jobs=1)
        reset_pool_counters()
        policy = ExecutionPolicy(
            max_retries=3,
            retry_backoff=0.01,
            chaos=ChaosConfig(seed=7, kill=0.25, error=0.25, max_failures=1),
        )
        chaotic = run_trials(specs, jobs=4, policy=policy)
        assert chaotic == clean
        counters = pool_counters()
        assert counters.retries > 0
        assert counters.trial_failures == 0

    def test_injected_error_is_retried_with_original_seed(self):
        specs = [TrialSpec(_square_trial, (i,)) for i in range(6)]
        policy = ExecutionPolicy(
            max_retries=2,
            retry_backoff=0.0,
            chaos=ChaosConfig(seed=1, error=1.0, max_failures=1),
        )
        assert run_trials(specs, jobs=2, policy=policy) == [
            i * i + 1 for i in range(6)
        ]

    def test_poison_trial_raises_after_retries(self):
        specs = [TrialSpec(_poison_trial, (i, 3), label=f"p{i}") for i in range(5)]
        with pytest.raises(ExperimentError, match="p3"):
            run_trials(
                specs, jobs=2,
                policy=ExecutionPolicy(max_retries=1, retry_backoff=0.0),
            )

    def test_poison_trial_quarantined_in_record_mode(self):
        reset_pool_counters()
        specs = [TrialSpec(_poison_trial, (i, 3), label=f"p{i}") for i in range(5)]
        policy = ExecutionPolicy(
            max_retries=1, retry_backoff=0.0, failure_mode="record"
        )
        results = run_trials(specs, jobs=2, policy=policy)
        failure = results[3]
        assert isinstance(failure, TrialFailure)
        assert failure.kind == "error"
        assert failure.attempts == 2
        assert failure.label == "p3"
        assert [v for i, v in enumerate(results) if i != 3] == [0, 1, 2, 4]
        assert pool_counters().trial_failures == 1
        # The serial path quarantines identically.
        serial = run_trials(specs, jobs=1, policy=policy)
        assert isinstance(serial[3], TrialFailure)
        assert [v for i, v in enumerate(serial) if i != 3] == [0, 1, 2, 4]

    def test_timeout_kills_and_quarantines_the_hung_trial(self):
        reset_pool_counters()
        specs = [TrialSpec(_hang_trial, (i, 2), label=f"h{i}") for i in range(5)]
        policy = ExecutionPolicy(
            trial_timeout=1.0,
            max_retries=0,
            retry_backoff=0.0,
            failure_mode="record",
        )
        results = run_trials(specs, jobs=2, policy=policy)
        failure = results[2]
        assert isinstance(failure, TrialFailure)
        assert failure.kind == "timeout"
        assert [v for i, v in enumerate(results) if i != 2] == [100, 101, 103, 104]
        counters = pool_counters()
        assert counters.timeouts >= 1
        assert counters.pool_rebuilds >= 1

    def test_worker_kill_rebuilds_the_pool(self):
        reset_pool_counters()
        specs = [TrialSpec(_square_trial, (i,)) for i in range(6)]
        policy = ExecutionPolicy(
            max_retries=3,
            retry_backoff=0.01,
            chaos=ChaosConfig(seed=11, kill=1.0, max_failures=1),
        )
        assert run_trials(specs, jobs=2, policy=policy) == [
            i * i + 1 for i in range(6)
        ]
        counters = pool_counters()
        assert counters.worker_crashes >= 1
        assert counters.pool_rebuilds >= 1

    def test_default_policy_keeps_the_fast_path(self):
        specs = [TrialSpec(_square_trial, (i,)) for i in range(4)]
        assert run_trials(specs, jobs=2) == [i * i + 1 for i in range(4)]

    def test_execution_policy_scope(self):
        specs = [TrialSpec(_poison_trial, (i, 1)) for i in range(3)]
        policy = ExecutionPolicy(
            max_retries=1, retry_backoff=0.0, failure_mode="record"
        )
        results = run_trials(specs, jobs=2, policy=policy)
        assert isinstance(results[1], TrialFailure)
        with pytest.raises(ValueError):
            run_trials(specs, jobs=1)  # the default policy raises


class TestCheckpoint:
    def test_pool_resume_skips_journaled_trials(self, tmp_path):
        specs = [TrialSpec(_square_trial, (i,), label=f"t{i}") for i in range(10)]
        journal = CheckpointJournal(str(tmp_path / "ck"))
        first = run_trials(
            specs[:6], jobs=2, policy=ExecutionPolicy(checkpoint=journal)
        )
        journal.close()
        assert first == [i * i + 1 for i in range(6)]
        assert journal.recorded == 6

        resumed = CheckpointJournal(str(tmp_path / "ck"))
        second = run_trials(specs, jobs=2, policy=ExecutionPolicy(checkpoint=resumed))
        resumed.close()
        assert second == [i * i + 1 for i in range(10)]
        assert resumed.reused == 6
        assert resumed.recorded == 4

    def test_serial_resume_matches_pool_resume(self, tmp_path):
        specs = [TrialSpec(_square_trial, (i,)) for i in range(5)]
        journal = CheckpointJournal(str(tmp_path / "ck"))
        run_trials(specs, jobs=2, policy=ExecutionPolicy(checkpoint=journal))
        journal.close()
        resumed = CheckpointJournal(str(tmp_path / "ck"))
        assert run_trials(
            specs, jobs=1, policy=ExecutionPolicy(checkpoint=resumed)
        ) == [i * i + 1 for i in range(5)]
        assert resumed.reused == 5

    def test_journal_is_left_out_of_policy_comparison(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "ck"))
        policy = ExecutionPolicy(checkpoint=journal)
        assert policy == ExecutionPolicy()
        assert hash(policy) == hash(ExecutionPolicy())
        assert policy.resilient and not ExecutionPolicy().resilient
        journal.close()

    def test_policy_journal_reaches_a_table_driver(self, tmp_path):
        graph = zoo.claranet()
        n = 3
        journal = CheckpointJournal(str(tmp_path / "ck"))
        first = run_random_monitor_experiment(
            graph, n_placements=n, rng=5, policy=ExecutionPolicy(checkpoint=journal)
        )
        journal.close()
        assert journal.recorded == n

        resumed = CheckpointJournal(str(tmp_path / "ck"))
        second = run_random_monitor_experiment(
            graph, n_placements=n, rng=5, policy=ExecutionPolicy(checkpoint=resumed)
        )
        resumed.close()
        assert resumed.reused == n and resumed.recorded == 0
        assert second == first

    def test_journal_reaches_a_churn_replay(self, tmp_path):
        base, deltas = runner.load_churn_file(CHURN_FILE)
        journal = CheckpointJournal(str(tmp_path / "ck"))
        first = runner.run_churn_sections(base, deltas, checkpoint=journal)
        journal.close()
        assert journal.recorded == len(deltas) + 1

        resumed = CheckpointJournal(str(tmp_path / "ck"))
        second = runner.run_churn_sections(base, deltas, checkpoint=resumed)
        resumed.close()
        assert resumed.reused == len(deltas) + 1 and resumed.recorded == 0
        assert second == first

    def test_duplicate_specs_get_distinct_keys(self):
        spec = TrialSpec(_square_trial, (7,))
        keys = _checkpoint_keys([spec, spec, spec])
        assert len(set(keys)) == 3
        assert keys[0] == fingerprint_call(spec.func, spec.args, spec.kwargs)
        # Occurrence keys are stable across reruns of the same batch.
        assert keys == _checkpoint_keys([spec, spec, spec])

    def test_fingerprint_is_content_addressed(self):
        first = fingerprint_call(_square_trial, (1,), {})
        assert first == fingerprint_call(_square_trial, (1,), {})
        assert first != fingerprint_call(_square_trial, (2,), {})
        assert first != fingerprint_call(_poison_trial, (1,), {})
        payload = {"spec": EngineConfig().to_dict(), "step": 1}
        assert fingerprint_payload(payload) == fingerprint_payload(payload)

    def test_values_roundtrip_bit_identically(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "ck"))
        value = {"mu": 2, "witness": (frozenset({1}), frozenset({2})), "t": (1, 2)}
        journal.record("k", value)
        journal.close()
        reopened = CheckpointJournal(str(tmp_path / "ck"))
        restored = reopened.restore("k")
        assert restored == value
        assert isinstance(restored["t"], tuple)
        reopened.close()

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "ck"))
        journal.record("a", 1)
        journal.record("b", 2)
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "c", "val')  # the crash-truncated tail
        reopened = CheckpointJournal(str(tmp_path / "ck"))
        assert "a" in reopened and "b" in reopened and "c" not in reopened
        reopened.close()

    def test_malformed_interior_record_is_rejected(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "ck"))
        journal.record("a", 1)
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"not-a-record": true}\n')
        with pytest.raises(ExperimentError):
            CheckpointJournal(str(tmp_path / "ck"))


class TestRunnerResilience:
    def _spec_file(self, tmp_path, n=2):
        specs = [
            ScenarioSpec(
                topology=TopologySpec("claranet"),
                placement=PlacementSpec("mdmp", {"d": 3 + i}),
                seed=i,
            ).to_dict()
            for i in range(n)
        ]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({"scenarios": specs}))
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--jobs", "-1"],
            ["--trials", "0"],
            ["--search-jobs", "2"],  # a removed flag is a usage error too
            ["--time-budget", "0"],
            ["--trial-timeout", "-1"],
            ["--max-retries", "-1"],
        ],
    )
    def test_cli_validation_is_a_clean_argparse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner, "run", interrupt)
        assert runner.main(["--tables", "real"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_keyboard_interrupt_reports_checkpoint(
        self, monkeypatch, tmp_path, capsys
    ):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner, "run_spec_files", interrupt)
        code = runner.main(
            ["--spec", self._spec_file(tmp_path),
             "--checkpoint", str(tmp_path / "ck")]
        )
        assert code == 130
        assert "rerun to resume" in capsys.readouterr().err

    def test_chaos_spec_batch_parity(self, tmp_path, monkeypatch, capsys):
        spec_file = self._spec_file(tmp_path)
        clean_out = tmp_path / "clean.json"
        chaos_out = tmp_path / "chaos.json"
        assert runner.main(
            ["--spec", spec_file, "--format", "json",
             "--output", str(clean_out)]
        ) == 0
        monkeypatch.setenv("REPRO_CHAOS", "seed=3,kill=0.5,max_failures=1")
        assert runner.main(
            ["--spec", spec_file, "--jobs", "2", "--max-retries", "3",
             "--format", "json", "--output", str(chaos_out)]
        ) == 0
        clean = json.loads(clean_out.read_text())
        chaotic = json.loads(chaos_out.read_text())
        chaotic["jobs"] = clean["jobs"]
        assert chaotic == clean

    def test_spec_batch_failure_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        spec_file = self._spec_file(tmp_path)
        out = tmp_path / "failed.json"
        # Every attempt errors and nothing retries: both scenarios quarantine.
        monkeypatch.setenv("REPRO_CHAOS", "seed=1,error=1.0,max_failures=99")
        code = runner.main(
            ["--spec", spec_file, "--jobs", "2", "--format", "json",
             "--output", str(out)]
        )
        assert code == 1
        document = json.loads(out.read_text())
        assert all(
            "failure" in section["data"] for section in document["sections"]
        )
        assert "failed after retries" in capsys.readouterr().err

    def test_invalid_chaos_env_is_an_argparse_error(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CHAOS", "frobnicate=1")
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--tables", "real"])
        assert excinfo.value.code == 2
        assert "REPRO_CHAOS" in capsys.readouterr().err

    def test_checkpoint_resume_reports_reuse(self, tmp_path, capsys):
        spec_file = self._spec_file(tmp_path)
        checkpoint = str(tmp_path / "ck")
        out = tmp_path / "out.json"
        assert runner.main(
            ["--spec", spec_file, "--checkpoint", checkpoint,
             "--format", "json", "--output", str(out)]
        ) == 0
        first_err = capsys.readouterr().err
        assert "recorded 2" in first_err
        first = json.loads(out.read_text())
        assert runner.main(
            ["--spec", spec_file, "--checkpoint", checkpoint,
             "--format", "json", "--output", str(out)]
        ) == 0
        second_err = capsys.readouterr().err
        assert "reused 2" in second_err
        assert json.loads(out.read_text()) == first

    def test_time_budget_flag_truncates_but_completes(self, tmp_path):
        spec_file = self._spec_file(tmp_path, n=1)
        out = tmp_path / "budget.json"
        assert runner.main(
            ["--spec", spec_file, "--time-budget", "1e-9",
             "--format", "json", "--output", str(out)]
        ) == 0
        document = json.loads(out.read_text())
        section = document["sections"][0]
        mu = section["data"]["analyses"]["mu"]
        # A found witness is exact regardless of the budget (the µ=0 fast
        # path completes before any sweep); otherwise the truncated search
        # must have stopped at a completed size.
        assert mu["witness"] is not None or (
            mu["exhausted_search"] is False
            and mu["value"] == mu["searched_up_to"]
        )
        assert section["data"]["spec"]["engine"]["time_budget"] == 1e-9
