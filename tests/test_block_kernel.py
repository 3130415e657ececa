"""The µ search and the separability census against the naive oracles.

µ and local µ run the dominance search; the separability census groups
the subsets' big-int unions in one pass.  These suites hold both to
the brute-force oracles in ``tests/oracles.py`` — same µ, ``searched_up_to``
and ``exhausted_search`` as the ``itertools.combinations`` sweep, the
canonical witness pair, the same local µ, the same census — across every
routing mechanism, failure universe and compression setting (µ also on an
engine compressed on the column references).  A budget-truncated µ is a
certified lower bound, identical on every engine.
"""

from __future__ import annotations

import collections
import itertools
import json

import pytest

import repro
from repro.api.spec import (
    EngineConfig,
    PlacementSpec,
    ScenarioSpec,
    SpecError,
    TopologySpec,
)
from repro.core.identifiability import maximal_identifiability
from repro.core.local import (
    is_locally_k_identifiable,
    local_identifiability_per_node,
    local_maximal_identifiability,
)
from repro.core.separability import inseparable_pairs_of_size
from repro.core.truncated import truncated_identifiability
from repro.engine.signatures import SearchStats, SignatureEngine, search_counters
from repro.exceptions import IdentifiabilityError
from repro.resilience.budget import Budget

from conftest import COLUMN_KERNELS, ENGINE_CONFIGS, column_kernel
from oracles import (
    assert_budget_law,
    assert_matches_oracle,
    naive_inseparable_pairs,
    naive_local_mu,
    naive_maximal_identifiability_detailed,
    union_mask,
)

MECHANISMS = ("CSP", "CAP-", "CAP")
KINDS = ("node", "link", "srlg")
N_SEEDS = 20
SUBSET_BUDGET = 25


def _pathset(seed: int, mechanism: str):
    graph = repro.erdos_renyi_connected(10, 0.35, rng=seed)
    placement = repro.random_placement(graph, 2, 2, rng=seed + 1000)
    return repro.enumerate_paths(graph, placement, mechanism=mechanism)


def _universe(pathset, kind: str):
    if kind != "srlg":
        return pathset.universe(kind)
    links = pathset.links
    groups = {
        f"g{i}": links[2 * i : 2 * i + 2] for i in range((len(links) + 1) // 2)
    }
    return pathset.universe("srlg", groups=groups)


class TestBlockParityMatrix:
    """The acceptance matrix: seeds × mechanisms × universes × column kernels ×
    compression × budget, every cell against the naive oracles."""

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_bit_identical_matrix(self, mechanism, kind):
        for seed in range(N_SEEDS):
            pathset = _pathset(seed, mechanism)
            universe = _universe(pathset, kind)
            exact = naive_maximal_identifiability_detailed(
                pathset, universe=universe
            )
            stats, truncated = set(), set()
            for compress in ENGINE_CONFIGS:
                engine = SignatureEngine.from_universe(universe, compress=compress)
                context = (seed, mechanism, kind, compress)
                result = engine.identifiability()
                assert_matches_oracle(result, exact, context)
                stats.add(result.stats)
                budgeted = engine.identifiability(
                    budget=Budget(subset_budget=SUBSET_BUDGET)
                )
                assert_budget_law(budgeted, exact, context + ("budget",))
                truncated.add((budgeted, budgeted.stats))
            # Every engine searches the same tree and truncates at one point.
            assert len(stats) == 1, (seed, mechanism, kind, stats)
            assert len(truncated) == 1, (seed, mechanism, kind, truncated)

    @pytest.mark.parametrize("backend", COLUMN_KERNELS)
    def test_parity_on_each_backend(self, backend):
        for seed in range(8):
            pathset = _pathset(seed, "CAP")
            with column_kernel(backend):
                engine = SignatureEngine.from_universe(_universe(pathset, "node"))
            assert_matches_oracle(
                engine.identifiability(),
                naive_maximal_identifiability_detailed(pathset),
                (seed, backend),
            )

    def test_restricted_universe_and_cap_parity(self):
        pathset = _pathset(3, "CSP")
        engine = pathset.engine()
        subset = engine.nodes[: max(4, len(engine.nodes) - 2)]
        for cap in (0, 1, 2, 3, None):
            assert_matches_oracle(
                engine.identifiability(max_size=cap, nodes=subset),
                naive_maximal_identifiability_detailed(
                    pathset, max_size=cap, nodes=subset
                ),
                cap,
            )

    def test_census_queries_parity(self):
        for seed in range(4):
            pathset = _pathset(seed, "CSP")
            universe = _universe(pathset, "link")
            engine = SignatureEngine.from_universe(universe)
            for size in (1, 2):
                pairs = engine.inseparable_pairs(size)
                oracle = naive_inseparable_pairs(universe, size)
                assert len(pairs) == len(oracle), (seed, size)
                assert set(pairs) == set(oracle), (seed, size)
            matrix = engine.separability_matrix(2)
            assert list(matrix) == list(
                itertools.combinations(
                    [
                        frozenset(combo)
                        for combo in itertools.combinations(engine.nodes, 2)
                    ],
                    2,
                )
            )
            for (first, second), separable in matrix.items():
                assert separable == universe.separates(first, second)
            assert set(
                inseparable_pairs_of_size(pathset, 2, universe=universe)
            ) == set(naive_inseparable_pairs(universe, 2))

    def test_census_order_on_restricted_universes(self):
        """A restricted universe's census: groups by first appearance,
        members in lexicographic order, on the compressed and the raw engine,
        and the matrix over the same subsets."""
        for seed, kind in itertools.product(range(3), KINDS):
            pathset = _pathset(seed, "CSP")
            universe = _universe(pathset, kind)
            masks = universe.masks
            elements = tuple(sorted(universe.elements[1:], key=repr))
            for size in (1, 2, 3):
                subsets = [
                    frozenset(combo)
                    for combo in itertools.combinations(elements, size)
                ]
                groups = {}
                for subset in subsets:
                    groups.setdefault(union_mask(masks, subset), []).append(subset)
                pairs = tuple(
                    (first, second)
                    for members in groups.values()
                    for i, first in enumerate(members)
                    for second in members[i + 1 :]
                )
                matrix = [
                    (pair, union_mask(masks, pair[0]) != union_mask(masks, pair[1]))
                    for pair in itertools.combinations(subsets, 2)
                ]
                for compress in ENGINE_CONFIGS:
                    engine = SignatureEngine.from_universe(universe, compress=compress)
                    context = (seed, kind, size, compress)
                    census = engine.inseparable_pairs(size, nodes=elements)
                    assert census == pairs, context
                    assert list(
                        engine.separability_matrix(size, nodes=elements).items()
                    ) == matrix, context

    def test_local_search_parity(self):
        """Local µ of singleton and pair scopes equals the naive sweep on
        every universe, compression setting and cap."""
        for seed, kind in itertools.product(range(4), KINDS):
            pathset = _pathset(seed, "CSP")
            universe = _universe(pathset, kind)
            elements = universe.elements
            scopes = [{element} for element in elements[:3]] + [set(elements[:2])]
            for cap in (0, 1, 2, 3, None):
                bound = len(elements) if cap is None else min(cap, len(elements))
                expected = [
                    naive_local_mu(elements, universe.masks, scope, bound)
                    for scope in scopes
                ]
                for compress in ENGINE_CONFIGS:
                    engine = SignatureEngine.from_universe(universe, compress=compress)
                    assert [
                        engine.local_identifiability(scope, cap) for scope in scopes
                    ] == expected, (seed, kind, cap, compress)
                assert local_maximal_identifiability(
                    pathset, scopes[0], max_size=cap, universe=universe
                ) == expected[0], (seed, kind, cap)


class TestStatsAndCounters:
    def test_block_counters_accumulate(self):
        """µ searches count into ``searches``; ``blocks_evaluated`` counts
        census passes (µ makes none) and ``block_rows_pruned`` the census
        subsets whose union no other subset shares."""
        pathset = _pathset(1, "CSP")
        engine = pathset.engine()
        masks = {node: pathset.paths_through(node) for node in engine.nodes}
        unions = collections.Counter(
            union_mask(masks, subset)
            for subset in itertools.combinations(engine.nodes, 2)
        )
        unique = sum(count == 1 for count in unions.values())
        assert 0 < unique < len(unions)
        before = search_counters()
        result = engine.identifiability()
        after = search_counters()
        assert after.searches == before.searches + 1
        assert (
            after.subsets_enumerated
            == before.subsets_enumerated + result.stats.subsets_enumerated
        )
        assert after.blocks_evaluated == before.blocks_evaluated
        engine.inseparable_pairs(2)
        census = search_counters()
        assert census.searches == after.searches
        assert census.blocks_evaluated == after.blocks_evaluated + 1
        assert census.block_rows_pruned == after.block_rows_pruned + unique

    def test_result_stats_and_counters(self):
        pathset = _pathset(1, "CSP")
        engine = pathset.engine()
        before = search_counters()
        first = engine.identifiability()
        assert isinstance(first.stats, SearchStats)
        assert first.stats.subsets_enumerated >= 1
        assert first.stats.table_entries >= 1
        assert set(first.stats.as_dict()) == {
            "subsets_enumerated",
            "dominance_prunes",
            "table_entries",
            "budget_exhausted",
            "tree_nodes",
        }
        second = engine.identifiability(budget=Budget(subset_budget=10**9))
        assert second == first  # stats never participate in equality
        after = search_counters()
        assert after.searches == before.searches + 2
        assert after.subsets_enumerated > before.subsets_enumerated

    def test_exhausted_stats_count_every_subset(self):
        """``subsets_enumerated`` is the fast path's ``n + 1`` subsets plus
        one candidate set per search-tree node."""
        pathset = _pathset(2, "CSP")
        engine = pathset.engine()
        for universe in (engine.nodes[:6], engine.nodes):
            result = engine.identifiability(nodes=universe)
            assert result.stats.subsets_enumerated == (
                len(universe) + 1 + result.stats.tree_nodes
            )


class TestTypedSizeValidation:
    """Search sizes must be real ints: typed errors, never a TypeError
    from deep in the sweep and never a silent ``True == 1``."""

    BAD_SIZES = (True, False, 1.5, "2")

    def test_negative_max_size_raises_in_both_entry_points(self):
        pathset = _pathset(0, "CSP")
        engine = pathset.engine()
        with pytest.raises(IdentifiabilityError):
            engine.identifiability(max_size=-1)
        with pytest.raises(IdentifiabilityError, match="max_size must be >= 0"):
            local_maximal_identifiability(pathset, {engine.nodes[0]}, max_size=-1)

    @pytest.mark.parametrize("bad", BAD_SIZES)
    def test_engine_rejects_non_int_sizes(self, bad):
        engine = _pathset(0, "CSP").engine()
        with pytest.raises(IdentifiabilityError, match="must be an int"):
            engine.identifiability(max_size=bad)
        with pytest.raises(IdentifiabilityError, match="must be an int"):
            engine.inseparable_pairs(bad)
        with pytest.raises(IdentifiabilityError, match="must be an int"):
            engine.separability_matrix(bad)
        with pytest.raises(IdentifiabilityError, match="must be an int"):
            engine.local_identifiability({engine.nodes[0]}, bad)

    @pytest.mark.parametrize("bad", BAD_SIZES)
    def test_core_clients_reject_non_int_sizes(self, bad):
        pathset = _pathset(0, "CSP")
        scope = pathset.nodes[0]
        for call in (
            lambda: maximal_identifiability(pathset, max_size=bad),
            lambda: truncated_identifiability(pathset, bad),
            lambda: inseparable_pairs_of_size(pathset, bad),
            lambda: local_maximal_identifiability(pathset, {scope}, max_size=bad),
            lambda: is_locally_k_identifiable(pathset, {scope}, bad),
            lambda: local_identifiability_per_node(pathset, max_size=bad),
        ):
            with pytest.raises(IdentifiabilityError, match="must be an int"):
                call()

    @pytest.mark.parametrize("bad", BAD_SIZES)
    def test_scenario_rejects_non_int_sizes(self, bad):
        scenario = repro.Scenario(
            ScenarioSpec(
                topology=TopologySpec("directed_grid", {"n": 3}),
                placement=PlacementSpec("chi_g"),
            )
        )
        for call in (
            lambda: scenario.mu(max_size=bad),
            lambda: scenario.truncated(alpha=bad),
            lambda: scenario.separability(size=bad),
        ):
            with pytest.raises(IdentifiabilityError, match="must be an int"):
                call()
        for analysis, name in (
            ("mu", "max_size"),
            ("truncated", "alpha"),
            ("separability", "size"),
        ):
            request = {"analysis": analysis, "params": {name: bad}}
            with pytest.raises(IdentifiabilityError, match="must be an int"):
                scenario.run_analysis(repro.AnalysisSpec.from_dict(request))


class TestBackendBatchedOps:
    """The search reads only the engine's rows, whichever kernel built them."""

    def test_kernel_block_legal_without_numpy(self):
        """µ and the census on a path set enumerated and compressed on the
        column references, with no numpy kernel in the column path."""
        with column_kernel("python"):
            pathset = _pathset(0, "CSP")
            engine = SignatureEngine.from_universe(pathset.universe("node"))
        assert engine.compression is not None
        assert_matches_oracle(
            engine.identifiability(), naive_maximal_identifiability_detailed(pathset)
        )
        before = search_counters().blocks_evaluated
        assert set(engine.inseparable_pairs(2)) == set(
            naive_inseparable_pairs(pathset.universe("node"), 2)
        )
        assert search_counters().blocks_evaluated == before + 1


class TestSpecRunnerAndWorkers:
    def test_engine_config_round_trip_and_validation(self):
        config = EngineConfig(cache=False, subset_budget=40)
        payload = config.to_dict()
        assert EngineConfig.from_dict(payload) == config
        # The retired keys of earlier v2 documents parse and are dropped.
        legacy = EngineConfig.from_dict(
            dict(
                payload,
                search_jobs=3,
                kernel="scalar",
                block_size=64,
                backend="numpy",
                compress=False,
                cache_maxsize=1,
            )
        )
        assert legacy == config
        assert legacy.to_dict() == payload
        retired_fields = (
            "search_jobs", "kernel", "block_size", "backend", "compress",
            "cache_maxsize",
        )
        for retired in retired_fields:
            assert retired not in payload
            with pytest.raises(TypeError):
                EngineConfig(**{retired: 1})
        with pytest.raises(SpecError):
            EngineConfig.from_dict({"search_job": 2})

    def _spec(self, label: str) -> ScenarioSpec:
        return ScenarioSpec(
            topology=TopologySpec("dataxchange"),
            placement=PlacementSpec("mdmp", {"d": 2}),
            label=label,
            seed=11,
        )

    def _legacy_document(self, spec: ScenarioSpec) -> dict:
        document = spec.to_dict()
        document["engine"].update(
            search_jobs=2, kernel="scalar", block_size=8, backend="python"
        )
        return document

    def test_scenario_facade_parity(self):
        spec = self._spec("facade")
        legacy = ScenarioSpec.from_dict(self._legacy_document(spec))
        assert legacy == spec
        scenario = repro.Scenario(spec)
        mu = scenario.mu()
        assert repro.Scenario(legacy).mu() == mu
        oracle = naive_maximal_identifiability_detailed(
            scenario.pathset, max_size=mu.searched_up_to
        )
        assert mu.value == oracle["value"]
        assert mu.searched_up_to == oracle["searched_up_to"]
        assert (
            scenario.separability(2).n_inseparable
            == len(naive_inseparable_pairs(scenario.universe, 2))
        )

    def test_legacy_engine_keys_fan_out_identically(self):
        """--jobs fan-out of documents carrying the retired keys: identical."""
        from repro.experiments.runner import run_spec_sections

        specs = [self._spec("a"), self._spec("b")]
        baseline = run_spec_sections(specs, jobs=1)
        legacy = [
            ScenarioSpec.from_dict(self._legacy_document(spec)) for spec in specs
        ]
        fanned = run_spec_sections(legacy, jobs=2)
        for serial_section, fanned_section in zip(baseline, fanned):
            assert fanned_section.data == serial_section.data

    def test_worker_counter_merge_includes_block_counters(self):
        from repro.experiments.parallel import TrialResult, _merge_worker_counters

        before = search_counters()
        _merge_worker_counters(
            [
                TrialResult(
                    index=0,
                    value=None,
                    counters={
                        "search": {
                            "searches": 1,
                            "blocks_evaluated": 5,
                            "block_rows_pruned": 9,
                        }
                    },
                )
            ]
        )
        after = search_counters()
        assert after.searches == before.searches + 1
        assert after.blocks_evaluated == before.blocks_evaluated + 5
        assert after.block_rows_pruned == before.block_rows_pruned + 9

    def test_runner_parses_legacy_spec_documents(self, tmp_path, capsys):
        from repro.experiments import runner

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(self._legacy_document(self._spec("legacy")))
        )
        out_path = tmp_path / "out.json"
        code = runner.main(
            ["--spec", str(spec_path), "--search-stats", "--format", "json",
             "--output", str(out_path)]
        )
        assert code == 0
        engine = json.loads(out_path.read_text())["sections"][0]["data"][
            "spec"
        ]["engine"]
        assert engine == EngineConfig().to_dict()
        assert "SearchCounters(searches=" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["--search-jobs", "2"], ["--kernel", "block"], ["--block-size", "8"]],
    )
    def test_runner_rejects_removed_sweep_flags(self, argv, capsys):
        from repro.experiments import runner

        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--tables", "real"] + argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_metrics_exposes_search_counters(self):
        from repro.service.app import Metrics
        from repro.service.cache import ScenarioCache
        from repro.service.executor import AnalysisExecutor

        text = Metrics().render(ScenarioCache(), AnalysisExecutor())
        for name in (
            "repro_search_searches_total",
            "repro_search_subsets_enumerated_total",
            "repro_search_blocks_evaluated_total",
            "repro_search_block_rows_pruned_total",
        ):
            assert name in text
