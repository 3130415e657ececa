"""Tests for the analysis layer (theory oracle, verification) and the shared
utilities (bitsets, seeds, table formatting)."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.theory import (
    Prediction,
    predict,
    predicted_design_bounds,
    predicted_mu_line,
)
from repro.analysis.verification import verify
from repro.exceptions import TopologyError
from repro.monitors.grid_placement import chi_corners, chi_g
from repro.monitors.heuristics import mdmp_placement
from repro.monitors.placement import MonitorPlacement
from repro.monitors.tree_placement import balanced_leaf_placement, chi_t
from repro.topology.grids import directed_grid, undirected_grid
from repro.topology.trees import complete_kary_tree
from repro.topology.zoo import claranet
from repro.utils.bitset import (
    bit_count,
    bits_of,
    indicator,
    mask_from_indices,
    union_masks,
)
from repro.utils.seeds import resolve_rng, spawn_rng
from repro.utils.tables import format_percentage, format_table


class TestPrediction:
    def test_exact_and_contains(self):
        prediction = Prediction(lower=2, upper=2, theorem="Theorem 4.8")
        assert prediction.exact == 2
        assert prediction.contains(2)
        assert not prediction.contains(1)

    def test_range_prediction(self):
        prediction = Prediction(lower=1, upper=2, theorem="Theorem 5.4")
        assert prediction.exact is None
        assert prediction.contains(1) and prediction.contains(2)

    def test_predict_dispatch_directed_grid(self, directed_grid_4):
        prediction = predict(directed_grid_4)
        assert prediction is not None and prediction.exact == 2

    def test_predict_dispatch_undirected_grid(self):
        prediction = predict(undirected_grid(3))
        assert prediction is not None and (prediction.lower, prediction.upper) == (1, 2)

    def test_predict_dispatch_directed_tree(self, binary_tree):
        prediction = predict(binary_tree)
        assert prediction is not None and prediction.exact == 1

    def test_predict_dispatch_undirected_tree_with_placement(self):
        tree = complete_kary_tree(3, 2).to_undirected()
        placement = balanced_leaf_placement(tree)
        prediction = predict(tree, placement)
        assert prediction is not None and prediction.exact == 1

    def test_predict_none_for_general_graph(self):
        graph = claranet()
        assert predict(graph, mdmp_placement(graph, 3)) is None

    def test_line_and_design_predictions(self):
        assert predicted_mu_line(5).exact == 0
        assert predicted_design_bounds(3).lower == 2
        with pytest.raises(TopologyError):
            predicted_mu_line(1)


class TestVerificationReport:
    def test_grid_report_passes(self, directed_grid_3):
        report = verify(directed_grid_3, chi_g(directed_grid_3))
        assert report.all_checks_pass
        assert "OK" in report.summary()

    def test_tree_report_passes(self, binary_tree):
        report = verify(binary_tree, chi_t(binary_tree))
        assert report.matches_prediction
        assert report.respects_upper_bounds

    def test_undirected_grid_report(self):
        grid = undirected_grid(3)
        report = verify(grid, chi_corners(grid))
        assert report.all_checks_pass

    def test_report_without_prediction_is_vacuously_consistent(self):
        graph = claranet()
        report = verify(graph, mdmp_placement(graph, 3))
        assert report.prediction is None
        assert report.matches_prediction


class TestBitset:
    def test_mask_roundtrip(self):
        mask = mask_from_indices([0, 3, 5])
        assert list(bits_of(mask)) == [0, 3, 5]
        assert bit_count(mask) == 3

    def test_union(self):
        assert union_masks([0b01, 0b10]) == 0b11
        assert union_masks([]) == 0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            mask_from_indices([-1])

    @given(indices=st.sets(st.integers(0, 200), max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip(self, indices):
        mask = mask_from_indices(indices)
        assert set(bits_of(mask)) == indices
        assert bit_count(mask) == len(indices)

    @pytest.mark.parametrize("width", (0, 1, 63, 64, 65))
    def test_indicator_reads_bit_zero_first(self, width):
        """Empty, full, top-bit-only and alternating masks at and around the
        word boundary match a bit-by-bit read."""
        masks = {0, (1 << width) - 1, sum(1 << i for i in range(0, width, 2))}
        if width:
            masks.add(1 << width - 1)
        for mask in masks:
            vector = indicator(mask, width)
            assert vector == tuple(mask >> i & 1 for i in range(width))
            assert type(vector) is tuple and all(type(bit) is int for bit in vector)


class TestSeeds:
    def test_resolve_rng_int_deterministic(self):
        assert resolve_rng(7).random() == resolve_rng(7).random()

    def test_resolve_rng_passthrough(self):
        generator = random.Random(1)
        assert resolve_rng(generator) is generator

    def test_resolve_rng_accepts_seed_strings(self):
        # Spec-carried spawn_seed() strings are first-class seed material.
        assert resolve_rng("seed").random() == resolve_rng("seed").random()

    def test_resolve_rng_rejects_bad_type(self):
        with pytest.raises(TypeError):
            resolve_rng(1.5)

    def test_spawn_rng_differs_per_salt(self):
        first = spawn_rng(3, 1).random()
        second = spawn_rng(3, 2).random()
        assert first != second

    def test_spawn_rng_deterministic(self):
        assert spawn_rng(3, 1).random() == spawn_rng(3, 1).random()


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(("a", "bb"), [(1, 2), (30, 4)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(("a", "b"), [(1,)])

    def test_format_percentage(self):
        assert format_percentage(0.158) == "16%"
        with pytest.raises(ValueError):
            format_percentage(1.5)


class TestPackageSurface:
    def test_version_exposed(self):
        import repro

        assert repro.__version__
        assert "Scenario" in repro.__all__

    def test_quickstart_docstring_example(self):
        from repro import Scenario, chi_g as chi_g_public, directed_grid as dg

        grid = dg(4)
        assert Scenario.from_components(grid, chi_g_public(grid)).mu().value == 2
