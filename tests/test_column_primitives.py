"""The incidence column primitives of :mod:`repro.engine.columns`.

``gather_columns`` (select, move and add columns; a representative gather
when the sources are one column per duplicate class) and ``dedup_columns``
(duplicate-column classes in first-appearance order) carry the churn write
path and compression.  The law held here: every available kernel returns
exactly what a bit-by-bit reference returns — so the numpy and the big-int
kernels are bit-identical — on widths that are and are not multiples of 8
and 64, on zero rows, zero columns and rows whose every column drops; and
malformed inputs raise :class:`IdentifiabilityError`, never a raw numpy or
Python error.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.columns import dedup_columns, gather_columns, numpy_available
from repro.engine.compress import CompressionPlan, compress_universe
from repro.exceptions import IdentifiabilityError

from conftest import auto_backend

BACKENDS = ("numpy", "python") if numpy_available() else ("python",)
WIDTHS = (0, 1, 7, 8, 9, 63, 64, 65, 130)


def _gather(name: str, *args):
    """``gather_columns`` on the ``name`` kernel."""
    with auto_backend(name):
        return gather_columns(*args)


def _dedup(name: str, *args):
    """``dedup_columns`` on the ``name`` kernel."""
    with auto_backend(name):
        return dedup_columns(*args)


def _bit(mask: int, j: int) -> int:
    return mask >> j & 1


def reference_gather(rows, sources, scatter=()):
    out = []
    for r, mask in enumerate(rows):
        value = 0
        for j, source in enumerate(sources):
            if source >= 0 and _bit(mask, source):
                value |= 1 << j
        for j in scatter[r] if scatter else ():
            value |= 1 << j
        out.append(value)
    return out


def reference_dedup(rows, width):
    classes = {}
    for column in range(width):
        key = tuple(p for p, mask in enumerate(rows) if _bit(mask, column))
        if key:
            classes.setdefault(key, []).append(column)
    keys = tuple(classes)
    deduped = [
        sum(1 << k for k, key in enumerate(keys) if p in key) for p in range(len(rows))
    ]
    return tuple(tuple(group) for group in classes.values()), keys, deduped


@st.composite
def row_sets(draw, max_rows=6):
    width = draw(st.sampled_from(WIDTHS) | st.integers(0, 140))
    n_rows = draw(st.integers(0, max_rows))
    # Draw columns from a small pool so duplicate columns are frequent.
    pool = draw(st.lists(st.integers(0, 2 ** n_rows - 1), min_size=1, max_size=4))
    columns = [draw(st.sampled_from(pool)) for _ in range(width)]
    rows = [
        sum(1 << j for j, column in enumerate(columns) if column >> r & 1)
        for r in range(n_rows)
    ]
    return rows, width


@st.composite
def gathers(draw):
    rows, width = draw(row_sets())
    n_out = draw(st.integers(0, width + 20))
    picked = draw(st.permutations(range(width)))[: draw(st.integers(0, width))]
    sources = list(picked) + [-1] * max(0, n_out - len(picked))
    sources = draw(st.permutations(sources))[:n_out] if n_out else []
    scatter = ()
    if sources and rows and draw(st.booleans()):
        scatter = [
            draw(st.lists(st.integers(0, len(sources) - 1), max_size=5, unique=True))
            for _ in rows
        ]
    return rows, width, list(sources), scatter


class TestGatherColumns:
    @settings(max_examples=150, deadline=None)
    @given(case=gathers())
    def test_backends_match_reference(self, case):
        rows, width, sources, scatter = case
        expected = reference_gather(rows, sources, scatter)
        for name in BACKENDS:
            got = _gather(name, rows, sources, width, scatter)
            assert got == expected, name

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_every_column_dropped(self, name, width):
        rows = [(1 << width) - 1, 0, (1 << width) - 1 >> 1]
        assert _gather(name, rows, [], width) == [0, 0, 0]
        assert _gather(name, rows, [-1] * 5, width) == [0, 0, 0]

    @pytest.mark.parametrize("name", BACKENDS)
    def test_zero_rows_and_zero_width(self, name):
        assert _gather(name, [], [], 0) == []
        assert _gather(name, [0, 0], [-1, -1], 0, [[1], []]) == [2, 0]

    @pytest.mark.parametrize("name", BACKENDS)
    def test_identity_and_reverse(self, name):
        rows = [0b1011001, 0b0110110]
        assert _gather(name, rows, range(7), 7) == rows
        reverse = _gather(name, rows, range(6, -1, -1), 7)
        assert reverse == [int(format(r, "07b")[::-1], 2) for r in rows]

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize(
        "rows, sources, width, scatter",
        [
            ([0b1000], [0], 3, ()),  # a bit beyond the declared width
            ([-1], [0], 3, ()),  # negative masks are not rows
            ([0b1], [3], 3, ()),  # source past the width
            ([0b1], [-2], 3, ()),  # only -1 means "new column"
            ([0b1], [0, 0], 3, ()),  # a gather never copies a column
            ([0b1], [0], 3, [[1]]),  # scatter past the result width
            ([0b1], [0], 3, [[0], [0]]),  # one scatter list per row
        ],
    )
    def test_typed_errors(self, name, rows, sources, width, scatter):
        with pytest.raises(IdentifiabilityError):
            _gather(name, rows, sources, width, scatter)


class TestDedupColumns:
    @settings(max_examples=150, deadline=None)
    @given(case=row_sets())
    def test_backends_match_reference(self, case):
        rows, width = case
        expected = reference_dedup(rows, width)
        for name in BACKENDS:
            got = _dedup(name, rows, width)
            assert got == expected, name

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_all_zero_columns_drop(self, name, width):
        assert _dedup(name, [0, 0], width) == ((), (), [0, 0])

    @pytest.mark.parametrize("name", BACKENDS)
    def test_no_rows(self, name):
        assert _dedup(name, [], 9) == ((), (), [])

    @pytest.mark.parametrize("name", BACKENDS)
    def test_wide_element_sets(self, name):
        # More than 64 rows: column keys span several words.
        rows = [(1 << 70) | (1 << (r % 5)) for r in range(70)] + [1 << 69]
        expected = reference_dedup(rows, 71)
        assert _dedup(name, rows, 71) == expected

    @pytest.mark.parametrize("name", BACKENDS)
    def test_row_wider_than_width(self, name):
        with pytest.raises(IdentifiabilityError):
            _dedup(name, [0b10000], 4)


class TestPlanOnPrimitives:
    """compress_universe is one dedup; compress_mask one representative
    gather — identical plans and rows from every kernel."""

    @settings(max_examples=60, deadline=None)
    @given(case=row_sets())
    def test_compress_universe_backend_parity(self, case):
        rows, width = case
        nodes = tuple(f"v{i}" for i in range(len(rows)))
        masks = dict(zip(nodes, rows))
        results = []
        for name in BACKENDS:
            with auto_backend(name):
                results.append(compress_universe(nodes, masks, width))
        for plan, compressed in results:
            assert plan == results[0][0]
            assert plan.touch_keys == results[0][0].touch_keys
            assert compressed == results[0][1]
            for node in nodes:
                assert plan.expand_mask(compressed[node]) == masks[node]

    @pytest.mark.parametrize("name", BACKENDS)
    def test_compress_mask_rejects_bits_beyond_the_width(self, name):
        plan = CompressionPlan(n_original=3, members=((0, 2), (1,)))
        with auto_backend(name):
            assert plan.compress_mask(0b101) == 0b01
            with pytest.raises(IdentifiabilityError):
                plan.compress_mask(0b1000)
