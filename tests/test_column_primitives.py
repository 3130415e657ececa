"""The incidence column primitives of :mod:`repro.engine.columns`.

``class_rows`` (rows laid out in per-class column runs), ``gather_columns``
(select, move and add columns; a representative gather when the sources are
one column per duplicate class), ``dedup_columns`` (duplicate-column classes
in first-appearance order, nothing built on an identity) and
``column_keys`` (each column's touch key) write the enumerated rows and
carry column edits and compression.  The law held here: every available kernel returns
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

from repro.engine.columns import (
    class_rows,
    column_keys,
    dedup_columns,
    gather_columns,
    numpy_available,
)
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


def _keys(name: str, *args):
    """``column_keys`` on the ``name`` kernel."""
    with auto_backend(name):
        return column_keys(*args)


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


def reference_keys(rows, width):
    return tuple(
        tuple(p for p, mask in enumerate(rows) if _bit(mask, column))
        for column in range(width)
    )


def reference_dedup(rows, width):
    """``(members, keys, deduped)``: the classes of distinct nonzero columns
    with their touch keys, in first-appearance order."""
    classes = {}
    for column, key in enumerate(reference_keys(rows, width)):
        if key:
            classes.setdefault(key, []).append(column)
    keys = tuple(classes)
    deduped = [
        sum(1 << k for k, key in enumerate(keys) if p in key) for p in range(len(rows))
    ]
    return tuple(tuple(group) for group in classes.values()), keys, deduped


def expected_dedup(rows, width):
    """What ``dedup_columns`` returns: the reference classes and rows, or
    ``(None, rows)`` when every column is its own nonzero class."""
    members, _, deduped = reference_dedup(rows, width)
    if len(members) == width:
        return None, list(rows)
    return members, deduped


@st.composite
def row_sets(draw, max_rows=6):
    width = draw(st.sampled_from(WIDTHS) | st.integers(0, 140))
    n_rows = draw(st.integers(0, max_rows))
    if draw(st.booleans()):
        # Draw columns from a small pool so duplicate columns are frequent.
        pool = draw(
            st.lists(st.integers(0, 2 ** n_rows - 1), min_size=1, max_size=4)
        )
        columns = [draw(st.sampled_from(pool)) for _ in range(width)]
    else:
        # Distinct nonzero columns, so identity dedups are frequent too.
        width = min(width, 2 ** n_rows - 1)
        columns = draw(
            st.lists(
                st.integers(1, max(1, 2 ** n_rows - 1)),
                min_size=width,
                max_size=width,
                unique=True,
            )
        )
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
        expected = expected_dedup(rows, width)
        for name in BACKENDS:
            got = _dedup(name, rows, width)
            assert got == expected, name

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_all_zero_columns_drop(self, name, width):
        expected = (None, [0, 0]) if width == 0 else ((), [0, 0])
        assert _dedup(name, [0, 0], width) == expected

    @pytest.mark.parametrize("name", BACKENDS)
    def test_no_rows(self, name):
        assert _dedup(name, [], 9) == ((), [])

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_identity_returns_the_rows(self, name, width):
        # Column j is set in the rows named by the binary digits of j + 1:
        # distinct and nonzero, so nothing is merged or dropped.
        rows = [
            sum(1 << j for j in range(width) if (j + 1) >> r & 1)
            for r in range(width.bit_length())
        ]
        members, deduped = _dedup(name, rows, width)
        assert members is None
        assert deduped == rows

    @pytest.mark.parametrize("name", BACKENDS)
    def test_wide_element_sets(self, name):
        # More than 64 rows: column keys span several words.
        rows = [(1 << 70) | (1 << (r % 5)) for r in range(70)] + [1 << 69]
        assert _dedup(name, rows, 71) == expected_dedup(rows, 71)
        # ... and distinct multi-word keys with none zero: the identity.
        rows = [1 << r for r in range(70)] + [(1 << 70) - 1]
        assert _dedup(name, rows, 70) == (None, rows)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_row_wider_than_width(self, name):
        with pytest.raises(IdentifiabilityError):
            _dedup(name, [0b10000], 4)


class TestColumnKeys:
    @settings(max_examples=150, deadline=None)
    @given(case=row_sets(max_rows=70))
    def test_backends_match_reference(self, case):
        rows, width = case
        expected = reference_keys(rows, width)
        for name in BACKENDS:
            assert _keys(name, rows, width) == expected, name

    @pytest.mark.parametrize("name", BACKENDS)
    def test_degenerate_shapes(self, name):
        assert _keys(name, [], 3) == ((), (), ())
        assert _keys(name, [0, 0], 0) == ()
        with pytest.raises(IdentifiabilityError):
            _keys(name, [0b10000], 4)


class TestPlanOnPrimitives:
    """compress_universe is one dedup; compress_mask one representative
    gather — identical plans and rows from every kernel; touch keys are
    read on demand, on whichever kernel is active then."""

    @settings(max_examples=60, deadline=None)
    @given(case=row_sets())
    def test_compress_universe_backend_parity(self, case):
        rows, width = case
        nodes = tuple(f"v{i}" for i in range(len(rows)))
        masks = dict(zip(nodes, rows))
        results = []
        for name in BACKENDS:
            with auto_backend(name):
                plan, compressed = compress_universe(nodes, masks, width)
                keys = plan.touch_keys  # the lazy read, on this kernel
            results.append((plan, keys, compressed))
        for plan, keys, compressed in results:
            assert plan == results[0][0]
            assert keys == results[0][1]
            assert compressed == results[0][2]
            for node in nodes:
                assert plan.expand_mask(compressed[node]) == masks[node]

    @settings(max_examples=60, deadline=None)
    @given(case=row_sets())
    def test_lazy_touch_keys_match_reference(self, case):
        rows, width = case
        members, keys, deduped = reference_dedup(rows, width)
        nodes = tuple(f"v{i}" for i in range(len(rows)))
        for name in BACKENDS:
            with auto_backend(name):
                plan, compressed = compress_universe(
                    nodes, dict(zip(nodes, rows)), width
                )
                assert "touch_keys" not in vars(plan)  # nothing read yet
                assert plan.touch_keys == keys, name
            assert plan.members == members, name
            assert [compressed[node] for node in nodes] == deduped, name

    @settings(max_examples=60, deadline=None)
    @given(case=row_sets(), data=st.data())
    def test_patch_does_not_depend_on_an_earlier_key_read(self, case, data):
        rows, width = case
        nodes = tuple(f"v{i}" for i in range(len(rows)))
        masks = dict(zip(nodes, rows))
        kept = sorted(data.draw(st.sets(st.integers(0, width - 1)))) if width else []
        survivors = {column: j for j, column in enumerate(kept)}
        elements = st.sets(st.integers(0, len(rows) - 1)) if rows else st.just(())
        n_added = data.draw(st.integers(0, 4))
        added = [
            (len(kept) + j, tuple(sorted(data.draw(elements))))
            for j in range(n_added)
        ]
        patched = []
        for read_first in (False, True):
            plan, _ = compress_universe(nodes, masks, width)
            if read_first:
                assert plan.touch_keys is not None
            new_plan, remap, lost = plan.patch(survivors, added, len(kept) + n_added)
            patched.append((new_plan, new_plan.touch_keys, remap, lost))
        assert patched[0] == patched[1]

    @pytest.mark.parametrize("name", BACKENDS)
    def test_compress_mask_rejects_bits_beyond_the_width(self, name):
        plan = CompressionPlan(n_original=3, members=((0, 2), (1,)))
        with auto_backend(name):
            assert plan.compress_mask(0b101) == 0b01
            with pytest.raises(IdentifiabilityError):
                plan.compress_mask(0b1000)


def reference_class_rows(keys, counts, n_rows):
    """Column by column: class ``k``'s ``counts[k]`` columns carry ``keys[k]``."""
    columns = [key for key, count in zip(keys, counts) for _ in range(count)]
    return [
        sum(1 << j for j, key in enumerate(columns) if _bit(key, r))
        for r in range(n_rows)
    ]


class TestClassRows:
    @settings(max_examples=120, deadline=None)
    @given(
        n_rows=st.sampled_from((0, 1, 7, 8, 63, 64, 65, 130)),
        data=st.data(),
    )
    def test_backends_match_reference(self, n_rows, data):
        keys = data.draw(
            st.lists(st.integers(0, 2 ** n_rows - 1), max_size=12)
        )
        counts = data.draw(
            st.lists(
                st.integers(1, 5), min_size=len(keys), max_size=len(keys)
            )
        )
        expected = reference_class_rows(keys, counts, n_rows)
        for name in BACKENDS:
            with auto_backend(name):
                assert class_rows(keys, counts, n_rows) == expected, name

    @pytest.mark.parametrize(
        "keys, counts, n_rows",
        [((1,), (1, 1), 2), ((1,), (0,), 2), ((4,), (1,), 2), ((-1,), (1,), 2)],
        ids=["lengths", "zero-count", "wide-key", "negative-key"],
    )
    @pytest.mark.parametrize("name", BACKENDS)
    def test_typed_errors(self, keys, counts, n_rows, name):
        with auto_backend(name), pytest.raises(IdentifiabilityError):
            class_rows(keys, counts, n_rows)
