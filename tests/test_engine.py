"""Tests for the signature engine (repro.engine).

The engine must be a drop-in replacement for the naive reference sweep: same
µ, same exhaustion semantics, the canonical witness — on every routing
mechanism and on both column kernels — plus the keyed pathset cache used by the
experiment drivers.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.api.scenario import Scenario
from repro.core.identifiability import (
    maximal_identifiability,
    maximal_identifiability_detailed,
    separability_matrix,
)
from repro.core.local import local_maximal_identifiability
from repro.engine import (
    PathSetCache,
    SignatureEngine,
    cache_stats,
    clear_pathset_cache,
    pathset_cache,
)
from repro.exceptions import IdentifiabilityError
from repro.monitors.heuristics import mdmp_placement, random_placement
from repro.monitors.placement import MonitorPlacement
from repro.routing.paths import PathSet, enumerate_paths
from repro.topology.random_graphs import erdos_renyi_connected
from repro.utils.bitset import bits_of

from conftest import column_kernel
from oracles import (
    assert_matches_oracle,
    naive_local_mu,
    naive_maximal_identifiability_detailed,
)

MECHANISMS = ("CSP", "CAP-", "CAP")

#: Seeds for the randomized parity instances — at least 20 per mechanism.
PARITY_SEEDS = tuple(range(20))


def random_instance(seed: int, mechanism: str):
    """A small random connected graph, a placement and its path set.

    Every third seed uses a placement with overlapping input/output nodes so
    the CAP⁻ cycle paths and the CAP degenerate loop paths are exercised.
    """
    n_nodes = 5 + seed % 3
    graph = erdos_renyi_connected(n_nodes, 0.5, rng=seed)
    if seed % 3 == 2:
        ordered = sorted(graph.nodes, key=repr)
        placement = MonitorPlacement.of(
            inputs=ordered[:2], outputs=[ordered[1], ordered[-1]]
        )
    elif seed % 2:
        placement = random_placement(graph, 2, 2, rng=seed)
    else:
        placement = mdmp_placement(graph, 2)
    return graph, placement, enumerate_paths(graph, placement, mechanism)


def assert_valid_witness(pathset, result):
    """A reported witness must actually be confusable at level value + 1."""
    witness = result.witness
    assert witness is not None
    assert witness.first != witness.second
    assert pathset.paths_through_set(witness.first) == pathset.paths_through_set(
        witness.second
    )
    assert witness.level == result.value + 1


@pytest.fixture(autouse=True)
def reset_pathset_cache():
    """Keep the process-wide pathset cache pristine across tests."""
    yield
    clear_pathset_cache()


# ---------------------------------------------------------------------------
# Engine vs naive parity
# ---------------------------------------------------------------------------

class TestEngineNaiveParity:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_mu_and_witness_parity(self, seed, mechanism):
        _, _, pathset = random_instance(seed, mechanism)
        naive = naive_maximal_identifiability_detailed(pathset, max_size=4)
        assert_matches_oracle(
            pathset.engine().identifiability(max_size=4), naive, (seed, mechanism)
        )
        # The core layer may exit early on an uncovered node, with its own
        # (∅, {v}) witness; everything else is the engine's.
        fast = maximal_identifiability_detailed(pathset, max_size=4)
        assert fast.value == naive["value"]
        assert fast.exhausted_search == naive["exhausted"]
        assert fast.searched_up_to == naive["searched_up_to"]
        if naive["witness"] is None:
            assert fast.witness is None
        else:
            assert_valid_witness(pathset, fast)

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("seed", (0, 3, 7, 11))
    def test_separability_matrix_parity(self, seed, mechanism):
        _, _, pathset = random_instance(seed, mechanism)
        engine_table = separability_matrix(pathset, 2)
        for (first, second), separable in engine_table.items():
            assert separable == pathset.separates(first, second)
        n_subsets = sum(1 for _ in itertools.combinations(pathset.nodes, 2))
        assert len(engine_table) == n_subsets * (n_subsets - 1) // 2

    @pytest.mark.parametrize("seed", (1, 4, 9))
    def test_restricted_universe_parity(self, seed):
        _, _, pathset = random_instance(seed, "CSP")
        restricted = tuple(pathset.nodes[:-1])
        naive = naive_maximal_identifiability_detailed(
            pathset, max_size=3, nodes=restricted
        )
        fast = maximal_identifiability_detailed(pathset, max_size=3, nodes=restricted)
        assert_matches_oracle(fast, naive, seed)

    @pytest.mark.parametrize("seed", (2, 5, 8))
    def test_local_identifiability_unchanged(self, seed):
        """Engine-backed local µ equals the naive local sweep."""
        _, _, pathset = random_instance(seed, "CSP")
        scope = (pathset.nodes[0],)
        value = local_maximal_identifiability(pathset, scope, max_size=3)
        universe = pathset.universe("node")
        assert value == naive_local_mu(
            universe.elements, universe.masks, scope, min(3, len(universe.elements))
        )

    def test_uncovered_node_early_exit(self):
        pathset = PathSet(nodes=("a", "b", "z"), paths=(("a", "b"),))
        result = maximal_identifiability_detailed(pathset)
        assert result.value == 0
        assert result.witness is not None
        assert frozenset() in tuple(result.witness)
        assert frozenset({"z"}) in tuple(result.witness)

    def test_duplicate_signature_fast_path(self):
        # 'b' and 'c' ride exactly the same paths: µ = 0 via the class collapse.
        pathset = PathSet(
            nodes=("a", "b", "c"), paths=(("a", "b", "c"), ("b", "c"))
        )
        result = maximal_identifiability_detailed(pathset)
        assert result.value == 0
        assert set(result.witness) == {frozenset({"b"}), frozenset({"c"})}


# ---------------------------------------------------------------------------
# Engine internals
# ---------------------------------------------------------------------------

class TestSignatureEngine:
    def test_equivalence_classes_group_identical_signatures(self):
        pathset = PathSet(
            nodes=("a", "b", "c", "d"), paths=(("a", "b", "c"), ("b", "c"), ("d",))
        )
        classes = pathset.engine().equivalence_classes()
        as_sets = {frozenset(members) for members in classes}
        assert frozenset({"b", "c"}) in as_sets
        assert frozenset({"a"}) in as_sets
        assert frozenset({"d"}) in as_sets

    def test_measurement_vector_matches_per_path_scan(self):
        _, _, pathset = random_instance(6, "CSP")
        failed = frozenset(pathset.nodes[:2])
        expected = tuple(
            int(any(node in failed for node in path)) for path in pathset.paths
        )
        assert pathset.engine().measurement_vector(failed) == expected

    def test_empty_universe_raises(self):
        pathset = PathSet(nodes=("a",), paths=(("a",),))
        with pytest.raises(IdentifiabilityError):
            pathset.engine().identifiability(nodes=[])

    def test_unknown_node_raises(self):
        pathset = PathSet(nodes=("a",), paths=(("a",),))
        with pytest.raises(IdentifiabilityError):
            pathset.engine().identifiability(nodes=["ghost"])

    @pytest.mark.parametrize("compress", (True, False))
    @pytest.mark.parametrize("width", (0, 1, 7, 8, 63, 64, 65, 1000))
    def test_indicator_vector_matches_bit_reference(self, width, compress):
        """The C-level indicator equals a bit-by-bit read of the signature,
        expanded to original path indices under compression, for empty,
        full and random signatures."""
        rng = random.Random(width)
        # Four column patterns, so compression merges and drops columns.
        patterns = [0, 0b011, 0b101, 0b110]
        columns = [rng.choice(patterns) for _ in range(width)]
        elements = ("a", "b", "c")
        masks = {
            element: sum(1 << j for j, touch in enumerate(columns) if touch >> i & 1)
            for i, element in enumerate(elements)
        }
        engine = SignatureEngine(elements, masks, width, compress=compress)
        plan = engine.compression
        if compress and width > len(patterns):
            assert plan is not None  # pigeonhole: a column merged or dropped
        signatures = [0, engine.union_signature(elements)]
        signatures += [
            rng.getrandbits(engine.n_columns) for _ in range(5)
        ] if plan is None else [
            engine.union_signature(rng.sample(elements, k)) for k in (1, 2)
        ]
        if plan is None:
            signatures.append((1 << width) - 1)
        for signature in signatures:
            original = signature if plan is None else plan.expand_mask(signature)
            vector = engine.indicator_vector(signature)
            assert vector == tuple(original >> j & 1 for j in range(width))
            assert all(type(bit) is int for bit in vector)
        for k in range(len(elements) + 1):
            for failed in itertools.combinations(elements, k):
                union = 0
                for element in failed:
                    union |= masks[element]
                assert engine.measurement_vector(failed) == tuple(
                    union >> j & 1 for j in range(width)
                )
        # A signature wider than the engine's columns (on a compressed
        # engine: an original-width mask) is rejected, never truncated.
        for oversized in (1 << engine.n_columns, -1):
            with pytest.raises(IdentifiabilityError):
                engine.indicator_vector(oversized)


# ---------------------------------------------------------------------------
# Column-kernel parity
# ---------------------------------------------------------------------------

def reference_engine(universe) -> SignatureEngine:
    """A fresh engine over ``universe`` compressed on the column references."""
    with column_kernel("python"):
        return SignatureEngine.from_universe(universe)


class TestBackends:
    """Compression on the numpy column kernels and on the bit-by-bit
    references gives the same engine results."""

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("seed", (0, 2, 5, 9, 13))
    def test_python_numpy_parity(self, seed, mechanism):
        _, _, pathset = random_instance(seed, mechanism)
        py, np_result = (
            build(pathset.universe("node")).identifiability(max_size=4)
            for build in (reference_engine, SignatureEngine.from_universe)
        )
        assert py.value == np_result.value
        assert py.exhausted_search == np_result.exhausted_search
        assert py.searched_up_to == np_result.searched_up_to
        assert py.witness == np_result.witness
        assert py.stats == np_result.stats  # the same search tree
        if py.witness is not None:
            assert_valid_witness(pathset, np_result)

    def test_backend_measurement_vector_parity(self):
        _, _, pathset = random_instance(4, "CAP")
        failed = frozenset(pathset.nodes[:2])
        vectors = {
            build(pathset.universe("node")).measurement_vector(failed)
            for build in (reference_engine, SignatureEngine.from_universe)
        }
        assert len(vectors) == 1
        # A dense raw engine wider than one 64-bit word.
        width = 200
        masks = {"a": ((1 << width) - 1) ^ (1 << 3) ^ (1 << 130), "b": 1 << 3}
        expected = tuple(int(i != 130) for i in range(width))
        engine = SignatureEngine(("a", "b"), masks, width, compress=False)
        assert engine.measurement_vector({"a", "b"}) == expected

    def test_backend_classes_parity(self):
        _, _, pathset = random_instance(10, "CSP")
        py_classes, np_classes = (
            {frozenset(c) for c in build(pathset.universe("node")).equivalence_classes()}
            for build in (reference_engine, SignatureEngine.from_universe)
        )
        assert py_classes == np_classes

    def test_unknown_backend_spec_rejected(self):
        """A stale positional backend name is a TypeError, never silently
        bound to ``compress``."""
        pathset = PathSet(nodes=("a",), paths=(("a",),))
        with pytest.raises(TypeError):
            pathset.engine("python")
        with pytest.raises(TypeError):
            SignatureEngine(("a",), {"a": 1}, 1, "numpy")
        with pytest.raises(TypeError):
            SignatureEngine.from_pathset(pathset, "numpy")
        with pytest.raises(TypeError):
            maximal_identifiability(pathset, None, None, "python")


# ---------------------------------------------------------------------------
# Pathset cache
# ---------------------------------------------------------------------------

class TestPathSetCache:
    def test_hit_on_equal_content_graph(self):
        cache = PathSetCache()
        graph1 = erdos_renyi_connected(6, 0.5, rng=1)
        graph2 = erdos_renyi_connected(6, 0.5, rng=1)  # distinct object, same content
        placement = mdmp_placement(graph1, 2)
        first = cache.get_or_enumerate(graph1, placement, "CSP")
        second = cache.get_or_enumerate(graph2, placement, "CSP")
        assert first is second
        assert cache.stats().hits == 1
        assert cache.stats().misses == 1

    def test_miss_on_different_mechanism_or_placement(self):
        cache = PathSetCache()
        graph = erdos_renyi_connected(6, 0.5, rng=2)
        placement = mdmp_placement(graph, 2)
        cache.get_or_enumerate(graph, placement, "CSP")
        cache.get_or_enumerate(graph, placement, "CAP-")
        cache.get_or_enumerate(graph, placement.swapped(), "CSP")
        assert cache.stats().misses == 3
        assert cache.stats().hits == 0

    def test_lru_eviction(self):
        cache = PathSetCache(maxsize=1)
        graph = erdos_renyi_connected(6, 0.5, rng=3)
        placement = mdmp_placement(graph, 2)
        cache.get_or_enumerate(graph, placement, "CSP")
        cache.get_or_enumerate(graph, placement, "CAP-")
        assert len(cache) == 1
        cache.get_or_enumerate(graph, placement, "CSP")  # evicted -> re-enumerated
        assert cache.stats().misses == 3

    def test_cached_pathset_shares_engine(self):
        cache = PathSetCache()
        graph = erdos_renyi_connected(6, 0.5, rng=4)
        placement = mdmp_placement(graph, 2)
        first = cache.get_or_enumerate(graph, placement, "CSP")
        second = cache.get_or_enumerate(graph, placement, "CSP")
        assert first.engine() is second.engine()

    def test_experiment_runner_hits_cache(self):
        """Repeated table rows over one (graph, placement, mechanism) triple
        must enumerate only once."""
        clear_pathset_cache()
        graph = erdos_renyi_connected(7, 0.5, rng=5)
        placement = mdmp_placement(graph, 2)
        before = cache_stats()
        Scenario.from_components(graph, placement, "CSP").measurement()
        Scenario.from_components(graph, placement, "CSP").truncated(2)
        after = cache_stats()
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == 1

    def test_global_cache_clear(self):
        clear_pathset_cache()
        graph = erdos_renyi_connected(6, 0.5, rng=6)
        placement = mdmp_placement(graph, 2)
        pathset_cache().get_or_enumerate(graph, placement, "CSP")
        assert len(pathset_cache()) == 1
        clear_pathset_cache()
        assert len(pathset_cache()) == 0
        assert cache_stats().hits == 0


# ---------------------------------------------------------------------------
# Bitset satellite
# ---------------------------------------------------------------------------

class TestBitsOf:
    def test_matches_naive_scan(self):
        for mask in (0, 1, 0b1101, 0b101010, (1 << 200) | (1 << 3), (1 << 64) - 1):
            expected = [i for i in range(mask.bit_length()) if mask >> i & 1]
            assert list(bits_of(mask)) == expected

    def test_sparse_huge_mask_is_cheap(self):
        mask = (1 << 100_000) | (1 << 31) | 1
        assert list(bits_of(mask)) == [0, 31, 100_000]

    def test_path_indices_through_uses_sparse_iteration(self):
        pathset = PathSet(nodes=("a", "b"), paths=(("a",), ("b",), ("a", "b")))
        assert pathset.path_indices_through("a") == (0, 2)
        assert pathset.path_indices_through("b") == (1, 2)
