"""Parity and round-trip tests for signature-universe compression.

The duplicate-column collapse of :mod:`repro.engine.compress` must be
*invisible* in every engine result: µ, witnesses, ``searched_up_to``,
exhaustion, separability matrices, equivalence classes and measurement
vectors all have to come out bit-identical whether the engine runs on the
raw or the compressed universe.  The property tests below check exactly that
on ≥20 random instances per routing mechanism, and the plan itself is
checked to round-trip original path indices.
"""

from __future__ import annotations

import pytest

from repro.core.identifiability import (
    maximal_identifiability,
    maximal_identifiability_detailed,
)
from repro.core.truncated import truncated_identifiability_detailed
from repro.engine import (
    CompressionPlan,
    SignatureEngine,
    compress_universe,
)
from repro.engine import compress as compress_module
from repro.engine.signatures import _LazyCoverers
from repro.exceptions import IdentifiabilityError
from repro.monitors import chi_g
from repro.routing.paths import PathSet, enumerate_paths
from repro.topology.grids import directed_hypergrid
from repro.utils.bitset import bits_of, masks_for_nodes

from conftest import COLUMN_KERNELS, column_kernel
from test_engine import MECHANISMS, PARITY_SEEDS, random_instance


def _compressible_pathset() -> PathSet:
    """A tiny path set with duplicate columns: paths 0/2 share {a, b}."""
    return PathSet(
        nodes=("a", "b", "c"),
        paths=(("a", "b"), ("b", "c"), ("b", "a"), ("a", "b", "c")),
    )


# ---------------------------------------------------------------------------
# Compressed vs raw engine parity (the tentpole's soundness property)
# ---------------------------------------------------------------------------

class TestCompressedRawParity:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_mu_witness_and_search_parity(self, seed, mechanism):
        _, _, pathset = random_instance(seed, mechanism)
        raw = SignatureEngine.from_pathset(pathset, compress=False).identifiability(
            max_size=4
        )
        compressed = pathset.engine().identifiability(max_size=4)
        assert compressed.value == raw.value
        assert compressed.searched_up_to == raw.searched_up_to
        assert compressed.exhausted_search == raw.exhausted_search
        if raw.witness is None:
            assert compressed.witness is None
        else:
            # Identical branches -> the *same* witness, not just a valid one.
            assert compressed.witness.first == raw.witness.first
            assert compressed.witness.second == raw.witness.second
            # And it must be a genuine confusable pair over the raw paths.
            assert pathset.paths_through_set(
                compressed.witness.first
            ) == pathset.paths_through_set(compressed.witness.second)

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_separability_matrix_parity(self, seed, mechanism):
        _, _, pathset = random_instance(seed, mechanism)
        raw = SignatureEngine.from_pathset(pathset, compress=False)
        compressed = pathset.engine()
        assert compressed.separability_matrix(2) == raw.separability_matrix(2)

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_measurement_vector_parity(self, seed, mechanism):
        _, _, pathset = random_instance(seed, mechanism)
        raw = SignatureEngine.from_pathset(pathset, compress=False)
        compressed = pathset.engine()
        failure_sets = (
            frozenset(),
            frozenset(pathset.nodes[:1]),
            frozenset(pathset.nodes[:3]),
            frozenset(pathset.nodes),
        )
        for failed in failure_sets:
            assert compressed.measurement_vector(failed) == raw.measurement_vector(
                failed
            ), f"measurement vectors diverge for {sorted(map(repr, failed))}"

    @pytest.mark.parametrize("seed", (0, 5, 11, 17))
    def test_equivalence_classes_and_truncated_parity(self, seed):
        _, _, pathset = random_instance(seed, "CAP")
        raw = SignatureEngine.from_pathset(pathset, compress=False)
        compressed = pathset.engine()
        assert compressed.equivalence_classes() == raw.equivalence_classes()
        trunc_raw = raw.identifiability(max_size=2)
        trunc_compressed = truncated_identifiability_detailed(pathset, 2)
        assert trunc_compressed.value == trunc_raw.value
        assert trunc_compressed.searched_up_to == trunc_raw.searched_up_to


# ---------------------------------------------------------------------------
# The plan: round-trips, multiplicities, index remap
# ---------------------------------------------------------------------------

class TestCompressionPlan:
    def test_duplicate_columns_are_merged(self):
        pathset = _compressible_pathset()
        engine = pathset.engine()
        plan = engine.compression
        assert plan is not None
        assert plan.n_original == 4
        # paths 0 and 2 have touch-set {a, b}; the rest are distinct.
        assert plan.members == ((0, 2), (1,), (3,))
        assert plan.multiplicity == (2, 1, 1)
        assert plan.representatives == (0, 1, 3)
        assert engine.n_columns == 3
        assert engine.n_paths == 4  # reported width stays the original

    def test_class_of_remap_is_consistent(self):
        plan = _compressible_pathset().engine().compression
        for compressed_index, group in enumerate(plan.members):
            for original_index in group:
                assert plan.class_of[original_index] == compressed_index

    def test_node_masks_round_trip(self):
        """Node rows are class-closed, so compress∘expand is the identity."""
        for seed in range(10):
            _, _, pathset = random_instance(seed, "CAP-")
            plan = pathset.engine().compression
            if plan is None:  # identity universes carry no plan
                continue
            for node in pathset.nodes:
                mask = pathset.paths_through(node)
                assert plan.expand_mask(plan.compress_mask(mask)) == mask

    def test_expand_indices_matches_raw_union(self):
        for seed in (1, 4, 8):
            _, _, pathset = random_instance(seed, "CAP")
            engine = pathset.engine()
            plan = engine.compression
            if plan is None:
                continue
            subset = frozenset(pathset.nodes[:2])
            signature = engine.union_signature(subset)
            expanded = plan.expand_indices(bits_of(signature))
            assert expanded == tuple(bits_of(pathset.paths_through_set(subset)))

    def test_all_zero_columns_are_dropped(self):
        nodes = ("a", "b")
        masks = masks_for_nodes(nodes, {"a": [0], "b": [0, 2]}, 4)
        plan, compressed = compress_universe(nodes, masks, 4)
        assert plan.members == ((0,), (2,))
        assert 1 not in plan.class_of and 3 not in plan.class_of
        assert compressed == {"a": 0b01, "b": 0b11}
        raw_engine = SignatureEngine(nodes, masks, 4, compress=False)
        compressed_engine = SignatureEngine(nodes, masks, 4, compress=True)
        raw_result = raw_engine.identifiability()
        compressed_result = compressed_engine.identifiability()
        assert compressed_result.value == raw_result.value
        assert compressed_result.witness == raw_result.witness

    def test_identity_universe_skips_the_plan(self):
        pathset = PathSet(nodes=("a", "b"), paths=(("a",), ("b",), ("a", "b")))
        engine = pathset.engine()
        assert engine.compression is None  # every column distinct: no gain
        assert engine.n_columns == engine.n_paths == 3

    def test_inconsistent_mask_width_rejected(self):
        with pytest.raises(IdentifiabilityError):
            compress_universe(("a",), {"a": 0b1001}, 2)

    def test_multiplicities_and_drops_partition_the_universe(self):
        for seed in range(8):
            _, _, pathset = random_instance(seed, "CAP")
            plan = pathset.engine().compression
            if plan is None:
                continue
            kept = sum(plan.multiplicity)
            assert kept <= plan.n_original
            covered = sorted(j for group in plan.members for j in group)
            assert covered == sorted(plan.class_of)
            assert len(covered) == len(set(covered)) == kept


# ---------------------------------------------------------------------------
# Compression is on above the engine; only the constructors build raw
# ---------------------------------------------------------------------------

class TestCompressionPolicy:
    def test_default_policy_is_on(self):
        pathset = _compressible_pathset()
        assert pathset.engine().compression is not None
        masks = masks_for_nodes(("a", "b"), {"a": [0, 1], "b": [0, 1, 2]}, 3)
        assert SignatureEngine(("a", "b"), masks, 3).compression is not None

    def test_compress_false_builds_a_raw_engine(self):
        pathset = _compressible_pathset()
        assert SignatureEngine.from_pathset(pathset, compress=False).compression is None
        # A raw reference engine leaves the memoised engine compressed.
        assert pathset.engine().compression is not None

    def test_compress_is_not_an_option_above_the_engine(self):
        pathset = _compressible_pathset()
        with pytest.raises(TypeError):
            pathset.engine(compress=False)
        with pytest.raises(TypeError):
            maximal_identifiability(pathset, compress=False)
        with pytest.raises(TypeError):
            maximal_identifiability_detailed(pathset, compress=False)

    def test_describe_reports_compressed_width(self):
        engine = _compressible_pathset().engine()
        assert "columns=3" in engine.describe()
        raw = SignatureEngine.from_pathset(_compressible_pathset(), compress=False)
        assert "raw" in raw.describe()
        plan = engine.compression
        assert "4 -> 3 columns" in plan.describe()

    def test_describe_calls_only_the_reference_engine_raw(self):
        """An identity plan leaves ``compression`` unset, but the engine is
        still the compressed one: it prints its width, not ``raw``."""
        from repro.api.scenario import Scenario

        grid = directed_hypergrid(3, 2)
        scenario = Scenario.from_components(grid, chi_g(grid))
        engine = scenario.engine
        assert engine.compression is None
        assert f"columns={engine.n_paths}," in engine.describe()
        assert "raw" not in engine.describe()
        raw = SignatureEngine.from_pathset(scenario.pathset, compress=False)
        assert "raw" in raw.describe()
        assert "columns=" not in raw.describe()


# ---------------------------------------------------------------------------
# Compression builds only what is read
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def hypergrid_pathset() -> PathSet:
    """H_{4,3} under χ_g: 14,838 paths, every column distinct and covered."""
    grid = directed_hypergrid(4, 3)
    return enumerate_paths(grid, chi_g(grid))


@pytest.fixture
def key_reads(monkeypatch):
    """The ``column_keys`` calls a plan makes, recorded."""
    calls = []
    real = compress_module.column_keys

    def counting(rows, width):
        calls.append(width)
        return real(rows, width)

    monkeypatch.setattr(compress_module, "column_keys", counting)
    return calls


class TestBuildOnlyWhatIsRead:
    @pytest.mark.parametrize("name", COLUMN_KERNELS)
    def test_identity_plan_reads_touch_keys_on_demand(
        self, name, hypergrid_pathset, key_reads
    ):
        pathset = hypergrid_pathset
        nodes = pathset.nodes
        masks = {node: pathset.paths_through(node) for node in nodes}
        with column_kernel(name):
            plan, table = compress_universe(nodes, masks, pathset.n_paths)
            assert plan.is_identity
            assert key_reads == [] and "touch_keys" not in vars(plan)
            keys = plan.touch_keys
            assert plan.touch_keys is keys  # materialised once
        assert key_reads == [pathset.n_paths]
        # The eager plan: each column its own class, keyed by the ascending
        # positions of the nodes on its path.
        position = {node: i for i, node in enumerate(nodes)}
        assert plan.members == tuple((j,) for j in range(pathset.n_paths))
        assert keys == tuple(
            tuple(sorted({position[node] for node in path})) for path in pathset.paths
        )
        assert table == masks

    @pytest.mark.parametrize("name", COLUMN_KERNELS)
    def test_fresh_engine_reads_no_touch_keys(self, name, hypergrid_pathset, key_reads):
        with column_kernel(name):
            engine = SignatureEngine.from_universe(hypergrid_pathset.universe("node"))
        assert engine.compression is None  # the identity plan is dropped
        assert engine.identifiability(max_size=3).value == 3  # µ = d
        assert key_reads == []

    def test_compressed_engine_reads_no_touch_keys(self, key_reads):
        engine = _compressible_pathset().engine()
        assert engine.compression is not None
        engine.identifiability()
        assert key_reads == [] and "touch_keys" not in vars(engine.compression)
        assert engine.compression.touch_keys == ((0, 1), (1, 2), (0, 1, 2))


class TestLazyCoverers:
    @staticmethod
    def naive(rows, column):
        return tuple(i for i, row in enumerate(rows) if row >> column & 1)

    @pytest.mark.parametrize(
        "rows",
        [
            (0b1011, 1 << 20 | 1, 0b110),  # rows shorter than the widest
            (1 << 64, (1 << 64) - 1, 0, 1 << 63),  # a byte boundary on top
            (0, 0),
            (1,),
        ],
    )
    def test_matches_a_naive_scan(self, rows):
        coverers = _LazyCoverers(rows)
        top = max(rows).bit_length() - 1
        if top >= 0:  # the top column of the widest row
            assert coverers[top] == self.naive(rows, top) != ()
        for column in range(top + 17):
            assert coverers[column] == self.naive(rows, column), column

    def test_empty_universe(self):
        coverers = _LazyCoverers(())
        assert coverers[0] == coverers[9] == ()
