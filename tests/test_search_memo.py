"""The engine's search memo: one exact sweep answers every capped µ query.

µ and the truncated µ_α are the same size-ordered sweep stopped at different
caps, so :class:`SignatureEngine` keeps the last exact full-universe result
and derives every later budget-free cap from it.  The law held here: any
sequence of queries on *one* engine returns what a fresh engine per query
returns, and both equal the naive oracles — the ``itertools.combinations``
sweep's value, ``searched_up_to`` and ``exhausted_search``, and the
canonical witness.  Budgeted queries are the exact answer or a certified
lower bound, and ``nodes=``-restricted queries keep doing (and counting)
their own search.

Hypothesis drives the cells (raw masks with frequent µ = 0, and node / link
/ SRLG universes of small random graphs) and the query sequences; shrunk
failures are committed as ``tests/corpus/search_memo_*.json`` and replayed.
"""

from __future__ import annotations

import glob
import itertools
import json
import os
import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.api.scenario import Scenario
from repro.api.spec import (
    DeltaSpec,
    FailureModel,
    PlacementSpec,
    ScenarioSpec,
    TopologySpec,
)
from repro.engine.cache import clear_pathset_cache
from repro.engine.signatures import SearchStats, SignatureEngine, search_counters
from repro.resilience.budget import Budget
from repro.utils.bitset import bits_of

from conftest import BACKENDS, auto_backend, kernel_engine
from oracles import (
    assert_budget_law,
    assert_matches_oracle,
    naive_oracle,
    union_mask,
)

MECHANISMS = ("CSP", "CAP-", "CAP")
CORPUS_GLOB = os.path.join(os.path.dirname(__file__), "corpus", "search_memo_*.json")


# -- cells and query sequences -------------------------------------------------


def _pathset(seed: int, mechanism: str):
    graph = repro.erdos_renyi_connected(7, 0.4, rng=seed)
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


def _build(cell):
    """``(elements, masks, make_engine)`` of a cell; ``make_engine()`` builds
    a fresh engine (empty memo) every call, compressed on the cell's column
    kernel."""
    backend = cell["backend"] if cell["backend"] in BACKENDS else "python"
    compress = cell["compress"]
    if cell["source"] == "masks":
        elements = tuple(f"e{i}" for i in range(len(cell["masks"])))
        masks = dict(zip(elements, cell["masks"]))
        n_paths = cell["n_paths"]

        def make_engine() -> SignatureEngine:
            with auto_backend(backend):
                return SignatureEngine(elements, masks, n_paths, compress=compress)

        return elements, masks, make_engine
    universe = _universe(_pathset(cell["seed"], cell["mechanism"]), cell["source"])
    return universe.elements, dict(universe.masks), lambda: (
        kernel_engine(backend, universe, compress)
    )


@st.composite
def cells(draw):
    cell = {
        "source": draw(st.sampled_from(("masks", "node", "link", "srlg"))),
        "backend": draw(st.sampled_from(BACKENDS)),
        "compress": draw(st.booleans()),
    }
    if cell["source"] == "masks":
        # Tiny widths make empty and duplicate rows — µ = 0 cells — common;
        # distinct non-empty rows give µ ≥ 1.
        n_paths = draw(st.integers(min_value=1, max_value=6))
        distinct = draw(st.booleans())
        cell["n_paths"] = n_paths
        cell["masks"] = draw(
            st.lists(
                st.integers(min_value=int(distinct), max_value=2**n_paths - 1),
                min_size=1,
                max_size=7,
                unique=distinct,
            )
        )
    else:
        cell["seed"] = draw(st.integers(min_value=0, max_value=40))
        cell["mechanism"] = draw(st.sampled_from(MECHANISMS))
    return cell


# Small caps twice over, so a cap sequence often straddles µ + 1.
caps = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=6),
)
plain_queries = st.fixed_dictionaries({"cap": caps})
queries = st.one_of(
    plain_queries,
    plain_queries,
    st.fixed_dictionaries(
        {"cap": caps, "subset_budget": st.integers(min_value=1, max_value=40)}
    ),
    st.fixed_dictionaries(
        {
            "cap": caps,
            "restrict": st.lists(
                st.integers(min_value=0, max_value=30), min_size=1, max_size=5
            ),
        }
    ),
)

LADDER = [{"cap": cap} for cap in range(8)] + [{"cap": None}]


# -- the law -------------------------------------------------------------------


def _run(engine: SignatureEngine, query):
    nodes = None
    if "restrict" in query:
        nodes = {engine.nodes[i % len(engine.nodes)] for i in query["restrict"]}
    budget = None
    if "subset_budget" in query:
        budget = Budget(subset_budget=query["subset_budget"])
    return engine.identifiability(max_size=query["cap"], nodes=nodes, budget=budget)


def _oracle(elements, masks, query):
    if "restrict" in query:
        chosen = {elements[i % len(elements)] for i in query["restrict"]}
        elements = tuple(sorted(chosen, key=repr))
    return naive_oracle(elements, masks, query["cap"])


def _assert_cap_sequence_law(cell, sequence) -> None:
    elements, masks, make_engine = _build(cell)
    shared = make_engine()
    for step, query in enumerate(sequence):
        context = (cell, sequence, step)
        oracle = _oracle(elements, masks, query)
        result = _run(shared, query)
        fresh = _run(make_engine(), query)
        assert result == fresh, context
        if "subset_budget" in query:
            assert_budget_law(result, oracle, context)
        else:
            assert_matches_oracle(result, oracle, context)
        if "restrict" in query or "subset_budget" in query:
            # Unmemoized queries search (and count, and truncate) exactly as
            # a fresh engine does — even after the slot is full.
            assert result.stats == fresh.stats, context


class TestCapSequenceLaw:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(cell=cells(), sequence=st.lists(queries, min_size=1, max_size=8))
    def test_one_engine_equals_fresh_engines_and_oracle(self, cell, sequence):
        _assert_cap_sequence_law(cell, sequence)
        # The ascending ladder makes every exhausted slot meet the next cap.
        _assert_cap_sequence_law(cell, LADDER)

    @pytest.mark.parametrize(
        "path", sorted(glob.glob(CORPUS_GLOB)), ids=os.path.basename
    )
    def test_corpus_replay(self, path):
        """Pinned query sequences, replayed on every run."""
        with open(path, "r", encoding="utf-8") as handle:
            case = json.load(handle)
        _assert_cap_sequence_law(case["cell"], case["sequence"])


# -- counters ------------------------------------------------------------------


def _grid_engine(backend: str = "python") -> SignatureEngine:
    pathset = repro.enumerate_paths(
        repro.directed_grid(4), repro.chi_g(repro.directed_grid(4))
    )
    with auto_backend(backend):
        return SignatureEngine.from_pathset(pathset)


def _delta(before, after):
    return {name: getattr(after, name) - getattr(before, name)
            for name in ("searches", "subsets_enumerated", "dominance_prunes",
                         "blocks_evaluated")}


class TestMemoCounters:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hit_counts_one_search_and_no_work(self, backend):
        engine = _grid_engine(backend)
        exact = engine.identifiability(max_size=3)
        assert exact.stats.subsets_enumerated > 0
        for cap in (None, 3, 2, 1):
            before = search_counters()
            hit = engine.identifiability(max_size=cap)
            assert _delta(before, search_counters()) == {
                "searches": 1,
                "subsets_enumerated": 0,
                "dominance_prunes": 0,
                "blocks_evaluated": 0,
            }, cap
            assert hit.stats == SearchStats(0, 0, 0), cap

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_full_universe_columns_are_built_once(self, backend):
        """µ, local µ and the census read the full universe's rows from one
        build per engine; a restricted universe builds its own."""
        engine = _grid_engine(backend)
        engine.local_identifiability({engine.nodes[0]}, 3)
        columns = engine._columns
        assert columns is not None and len(columns[0]) == len(engine.nodes)
        engine.local_identifiability({engine.nodes[1]}, 3)
        engine.identifiability(max_size=3)
        engine.inseparable_pairs(2)
        assert engine._columns is columns
        restricted = engine._search_columns(engine.nodes[:4])
        assert len(restricted[0]) == 4
        engine.identifiability(nodes=engine.nodes[:4])
        assert engine._columns is columns

    def test_exhausted_slot_searches_afresh_past_its_cap(self):
        engine = _grid_engine()

        def subsets_of(cap):
            before = search_counters().subsets_enumerated
            result = engine.identifiability(max_size=cap)
            return result, search_counters().subsets_enumerated - before

        capped, work = subsets_of(2)  # µ = 2: exhausted at 2
        assert (capped.value, capped.exhausted_search, work > 0) == (2, True, True)
        # A narrower exact result (a generous budget that never ran out)
        # does not displace the wider slot.
        engine.identifiability(max_size=1, budget=Budget(subset_budget=10**9))
        assert subsets_of(2) == (capped, 0)
        wider, work = subsets_of(4)
        assert (wider.value, wider.exhausted_search, work > 0) == (2, False, True)
        assert subsets_of(3) == (wider, 0)
        assert subsets_of(2) == (capped, 0)

    def test_budgeted_and_restricted_queries_always_search(self):
        engine = _grid_engine()
        engine.identifiability()
        for kwargs in (
            {"budget": Budget(subset_budget=10**9)},
            {"nodes": engine.nodes[:-1]},
        ):
            before = search_counters()
            result = engine.identifiability(**kwargs)
            assert result.stats.subsets_enumerated > 0, kwargs
            assert (
                search_counters().subsets_enumerated - before.subsets_enumerated
                == result.stats.subsets_enumerated
            ), kwargs

    def test_budget_truncated_result_never_fills_the_slot(self):
        engine = _grid_engine()
        truncated = engine.identifiability(budget=Budget(subset_budget=30))
        assert truncated.stats.budget_exhausted
        assert truncated.searched_up_to == 1
        for cap in (1, None):
            exact = engine.identifiability(max_size=cap)
            assert exact.stats.subsets_enumerated > 0, cap  # searched, not derived
        assert exact.value == 2 and not exact.exhausted_search


# -- threads -------------------------------------------------------------------


class TestMemoThreads:
    def test_concurrent_queries_see_only_exact_answers(self):
        """Threads racing to fill and read one slot (a shared service
        engine) only ever get a fresh engine's answer for their cap."""
        engine_cells = [
            {"source": "srlg", "seed": 28, "mechanism": "CSP", "backend": backend,
             "compress": True}
            for backend in BACKENDS
        ]
        query_caps = [None, 0, 1, 2, 3, 4, 5]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cell in engine_cells:
                _elements, _masks, make_engine = _build(cell)
                expected = {
                    cap: make_engine().identifiability(max_size=cap)
                    for cap in query_caps
                }
                shared = make_engine()
                mismatches = []

                def worker(seed):
                    rng = random.Random(seed)
                    for _ in range(60):
                        cap = rng.choice(query_caps)
                        if shared.identifiability(max_size=cap) != expected[cap]:
                            mismatches.append(cap)

                threads = [
                    threading.Thread(target=worker, args=(seed,))
                    for seed in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert mismatches == [], cell
                for cap in query_caps:
                    assert shared.identifiability(max_size=cap) == expected[cap]
        finally:
            sys.setswitchinterval(previous)


# -- lifetime ------------------------------------------------------------------


class TestMemoLifetime:
    def test_evolved_engine_starts_empty_and_keeps_parity(self):
        spec = ScenarioSpec(
            topology=TopologySpec("undirected_grid", {"n": 3}),
            placement=PlacementSpec("chi_corners"),
            failures=FailureModel(n_trials=4),
            seed=7,
        )
        base = Scenario(spec)
        base.mu()  # fills the parent engine's slot
        assert base.engine._memo is not None
        evolved = base.evolve(DeltaSpec(add_links=(((1, 1), (2, 2)),)))
        assert evolved.engine is not base.engine
        assert evolved.engine._memo is None
        before = search_counters()
        report = evolved.mu()
        assert search_counters().subsets_enumerated > before.subsets_enumerated
        clear_pathset_cache()
        scratch = Scenario(ScenarioSpec.from_dict(evolved.spec.to_dict()))
        assert report.to_dict() == scratch.mu().to_dict()


# -- the one-pass measurement vector -------------------------------------------


def _expand_by_members(plan, bits):
    """The per-member loop ``expand_indicator`` used to run."""
    vector = [0] * plan.n_original
    for index in bits:
        for original_index in plan.members[index]:
            vector[original_index] = 1
    return tuple(vector)


class TestIndicatorGather:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_gather_equals_member_loop_with_dropped_columns(self, backend):
        rng = random.Random(11)
        n_paths = 150
        # Columns 0..9 touch no element (dropped); the rest repeat a handful
        # of touch patterns (merged into shared classes).
        patterns = [rng.getrandbits(6) | 1 for _ in range(12)]
        columns = [0] * 10 + [rng.choice(patterns) for _ in range(n_paths - 10)]
        elements = tuple(f"e{i}" for i in range(6))
        masks = {
            element: sum(
                1 << j for j, touch in enumerate(columns) if touch >> i & 1
            )
            for i, element in enumerate(elements)
        }
        with auto_backend(backend):
            engine = SignatureEngine(elements, masks, n_paths, compress=True)
        plan = engine.compression
        assert plan is not None and plan.n_compressed < n_paths
        assert all(plan._column_classes[j] == plan.n_compressed for j in range(10))
        for size in range(len(elements) + 1):
            for failed in itertools.combinations(elements, size):
                signature = engine.union_signature(failed)
                expected = _expand_by_members(plan, bits_of(signature))
                vector = engine.indicator_vector(signature)
                assert vector == expected, failed
                assert all(type(bit) is int for bit in vector)
                mask = union_mask(masks, failed)
                assert vector == tuple(mask >> j & 1 for j in range(n_paths))
