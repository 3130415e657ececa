"""The incidence column kernels: build, gather, dedup and transpose big-int rows' columns.

A *signature* is a Python big integer used as a bitmask — bit ``j`` set iff
path ``j`` is touched — and every query of the engine reduces to ``|`` and
``==`` over such ints.  The element×path incidence is one big-int row per
element, and four primitives write or read it column-wise:
:func:`class_rows` (rows of an incidence laid out in per-class column runs)
writes the node rows of every enumerated path set; :func:`gather_columns`
(select, move and add path columns) carries
:meth:`PathSet.restrict_to_paths <repro.routing.paths.PathSet.restrict_to_paths>`
and :meth:`CompressionPlan.compress_mask
<repro.engine.compress.CompressionPlan.compress_mask>`; :func:`dedup_columns`
(duplicate-column classes) carries compression; and :func:`column_keys` (each
column's touch key, the rows it is set in) is read only on demand, by a
plan's ``touch_keys``.

Each primitive has two kernels that return the same result on every input:
the numpy kernel on unpacked bit matrices, and the big-int kernel on the rows
themselves.  The numpy kernel runs whenever numpy is importable: it wins every
measured call shape (``benchmarks/bench_backend_crossover.py`` records the
ladder).  numpy is optional; without it the big-int kernel is the only one.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import IdentifiabilityError
from repro.utils.bitset import bit_indices, mask_from_indices, union_masks

try:  # numpy is an optional dependency; the big-int kernels always work.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-less installs
    _np = None

_Classes = Tuple[Tuple[int, ...], ...]


def numpy_available() -> bool:
    """Whether the numpy column kernels can run in this environment."""
    return _np is not None


def class_rows(
    keys: Sequence[int], counts: Sequence[int], n_rows: int
) -> List[int]:
    """The ``n_rows`` rows of an incidence laid out in class column runs.

    Class ``k`` takes ``counts[k]`` consecutive columns, right after the
    columns of classes ``0 .. k − 1``, and all of them are set in row ``r``
    exactly when bit ``r`` of ``keys[k]`` is set — so each row is one run
    per class whose key holds it, and no column is visited on its own.
    Raises :class:`~repro.exceptions.IdentifiabilityError` for a key
    outside ``[0, 2**n_rows)``, a count below 1, or unequal lengths.
    """
    keys = list(keys)
    counts = list(counts)
    if len(keys) != len(counts):
        raise IdentifiabilityError(
            f"{len(keys)} class keys but {len(counts)} class counts"
        )
    if counts and min(counts) < 1:
        raise IdentifiabilityError("every class takes at least one column")
    if keys and (min(keys) < 0 or max(keys).bit_length() > n_rows):
        raise IdentifiabilityError(f"class key is wider than the {n_rows} rows")
    if not n_rows:
        return []
    kernel = _class_rows_bigint if _np is None else _class_rows_numpy
    return kernel(keys, counts, n_rows)


def gather_columns(
    rows: Sequence[int],
    sources: Sequence[int],
    width: int,
    scatter: Sequence[Sequence[int]] = (),
) -> List[int]:
    """Select, move and add columns of ``width``-bit rows.

    Column ``j`` of every result row is column ``sources[j]`` of the input
    row, or all-zero when ``sources[j]`` is ``-1``; then, when ``scatter`` is
    given (one column list per row), the columns in ``scatter[r]`` are set in
    result row ``r``.  Non-negative sources must be distinct (a gather moves
    columns, it never copies one).  A representative gather — ``sources`` =
    one column per duplicate class — compresses class-closed rows.  Raises
    :class:`~repro.exceptions.IdentifiabilityError` for a row wider than
    ``width``, a source outside ``[-1, width)`` or repeated, and a scatter
    that does not fit the result.
    """
    rows = list(rows)
    sources = list(sources)
    _check_rows(rows, width)
    n_sources = len(sources) - sources.count(-1)
    if sources and (min(sources) < -1 or max(sources) >= width):
        raise IdentifiabilityError(
            f"source column out of range for rows of width {width}"
        )
    if len(set(sources)) - (n_sources < len(sources)) != n_sources:
        raise IdentifiabilityError("gather sources must be distinct columns")
    if scatter and (
        len(scatter) != len(rows)
        or any(
            columns and (min(columns) < 0 or max(columns) >= len(sources))
            for columns in scatter
        )
    ):
        raise IdentifiabilityError(
            f"scatter does not fit the {len(rows)}x{len(sources)} result"
        )
    if not rows:
        return []
    kernel = _gather_bigint if _np is None else _gather_numpy
    return kernel(rows, sources, width, scatter)


def dedup_columns(
    rows: Sequence[int], width: int
) -> Tuple[Optional[_Classes], List[int]]:
    """Collapse duplicate columns of ``width``-bit rows.

    Returns ``(members, deduped)``: one class per distinct nonzero column, in
    first-appearance order; ``members[k]`` the ascending columns of class
    ``k``, and ``deduped`` the rows over the class columns (bit ``k`` = the
    column of class ``k``).  All-zero columns are dropped.  When every column
    is distinct and nonzero — the identity — nothing is built: ``members`` is
    ``None`` and ``deduped`` holds the input rows unchanged.  The classes'
    touch keys are not built either; :func:`column_keys` of ``deduped`` reads
    them when asked.  Raises :class:`~repro.exceptions.IdentifiabilityError`
    for a row wider than ``width``.
    """
    rows = list(rows)
    _check_rows(rows, width)
    kernel = _dedup_bigint if _np is None else _dedup_numpy
    return kernel(rows, width)


def column_keys(rows: Sequence[int], width: int) -> _Classes:
    """The touch key of each column of ``width``-bit rows: ``keys[c]`` is the
    ascending positions of the rows with column ``c`` set (``()`` for an
    all-zero column) — the incidence transposed into tuples.  Raises
    :class:`~repro.exceptions.IdentifiabilityError` for a row wider than
    ``width``.
    """
    rows = list(rows)
    _check_rows(rows, width)
    kernel = _keys_bigint if _np is None else _keys_numpy
    return kernel(rows, width)


def _check_rows(rows: Sequence[int], width: int) -> None:
    for mask in rows:
        if mask < 0 or mask.bit_length() > width:
            raise IdentifiabilityError(
                f"row mask is wider than the declared universe "
                f"({mask.bit_length()} > {width} bits)"
            )


# -- the big-int kernels ------------------------------------------------------


def _class_rows_bigint(keys, counts, n_rows) -> List[int]:
    # One ``n_rows``-digit binary string per column, row 0 last, so the
    # concatenation read backwards with stride ``n_rows`` is one row, highest
    # column first: every row is one slice and one base-2 ``int``.
    digits = f"0{n_rows}b"
    table = "".join(format(key, digits) * count for key, count in zip(keys, counts))
    last = len(table) - 1
    return [int(table[last - row::-n_rows] or "0", 2) for row in range(n_rows)]


def _gather_bigint(rows, sources, width, scatter) -> List[int]:
    lookup = {source: j for j, source in enumerate(sources) if source >= 0}.get
    return [
        mask_from_indices(
            [j for i in bit_indices(mask) if (j := lookup(i)) is not None]
            + list(extra)
        )
        for mask, extra in zip(rows, scatter or [()] * len(rows))
    ]


def _dedup_bigint(rows, width):
    # Column c's key is the int whose bit p is bit c of row p.
    keys = [0] * width
    for position, mask in enumerate(rows):
        bit = 1 << position
        for column in bit_indices(mask):
            keys[column] |= bit
    if all(keys) and len(set(keys)) == width:
        return None, rows
    classes: Dict[int, List[int]] = {}
    for column, key in enumerate(keys):
        if key:  # an all-zero column constrains nothing; drop it
            classes.setdefault(key, []).append(column)
    # Dict order is first-appearance order, since columns run ascending.
    deduped: List[List[int]] = [[] for _ in rows]
    for k, key in enumerate(classes):
        for position in bit_indices(key):
            deduped[position].append(k)
    return (
        tuple(tuple(group) for group in classes.values()),
        [mask_from_indices(indices) for indices in deduped],
    )


def _keys_bigint(rows, width) -> _Classes:
    touch: List[List[int]] = [[] for _ in range(width)]
    for position, mask in enumerate(rows):
        for column in bit_indices(mask):
            touch[column].append(position)
    return tuple(map(tuple, touch))


# -- the numpy kernels --------------------------------------------------------


def _class_rows_numpy(keys, counts, n_rows) -> List[int]:
    if n_rows <= 64:
        # Every key fits one machine word: unpack them as one uint64 array.
        words = _np.fromiter(keys, dtype="<u8", count=len(keys))
        bits = _np.unpackbits(
            words.view(_np.uint8).reshape(len(keys), 8),
            axis=1,
            count=n_rows,
            bitorder="little",
        )
    else:
        bits = _unpack_rows(keys, n_rows)
    if counts and max(counts) > 1:
        bits = _np.repeat(bits, _np.asarray(counts, dtype=_np.intp), axis=0)
    return _pack_rows(_np.ascontiguousarray(bits.T))


def _gather_numpy(rows, sources, width, scatter) -> List[int]:
    # Column ``width`` of the unpacked matrix is padding that reads 0, so a
    # ``-1`` source gathers an all-zero column.
    bits = _unpack_rows(rows, width + 1)
    index = _np.asarray(sources, dtype=_np.intp)
    out = bits[:, _np.where(index < 0, width, index)]
    if scatter:
        lengths = [len(columns) for columns in scatter]
        out[
            _np.repeat(_np.arange(len(rows)), lengths),
            _np.fromiter(
                itertools.chain.from_iterable(scatter), _np.intp, sum(lengths)
            ),
        ] = 1
    return _pack_rows(out)


def _dedup_numpy(rows, width):
    bits = _unpack_rows(rows, width)
    # One hashable-by-content key per column: its packed bits, padded to
    # whole uint64 words (a single word for up to 64 rows).
    n_words = max(1, -(-len(rows) // 64))
    columns = _np.zeros((width, n_words * 8), dtype=_np.uint8)
    columns[:, : (len(rows) + 7) // 8] = _np.packbits(
        _np.ascontiguousarray(bits.T), axis=1, bitorder="little"
    )
    keys = columns.view(
        _np.uint64 if n_words == 1 else _np.dtype((_np.void, n_words * 8))
    ).reshape(width)
    ordered = _np.sort(keys)
    distinct = (ordered[1:] != ordered[:-1]).all()
    if distinct and union_masks(rows).bit_count() == width:
        return None, rows  # every column distinct and nonzero: the identity
    _, first, inverse = _np.unique(keys, return_index=True, return_inverse=True)
    inverse = inverse.reshape(width)
    # Classes in first-appearance order, the all-zero column dropped.
    kept = _np.flatnonzero(bits[:, first].any(axis=0))
    kept = kept[_np.argsort(first[kept])]
    rank = _np.full(len(first), len(kept), dtype=_np.intp)
    rank[kept] = _np.arange(len(kept))
    class_of = rank[inverse]
    by_class = _np.argsort(class_of, kind="stable")
    counts = _np.bincount(class_of, minlength=len(kept) + 1)[:-1].tolist()
    members = _split_runs(by_class.tolist(), counts)
    return members, _pack_rows(bits[:, first[kept]])


def _keys_numpy(rows, width) -> _Classes:
    bits = _unpack_rows(rows, width)
    touched = _np.nonzero(bits.T)[1]
    return _split_runs(touched.tolist(), bits.sum(axis=0).tolist())


def _unpack_rows(rows: Sequence[int], count: int):
    """The ``(len(rows), count)`` 0/1 ``uint8`` matrix of rows at most
    ``count`` bits wide."""
    n_bytes = (count + 7) // 8
    packed = _np.frombuffer(
        b"".join(mask.to_bytes(n_bytes, "little") for mask in rows), dtype=_np.uint8
    ).reshape(len(rows), n_bytes)
    return _np.unpackbits(packed, axis=1, count=count, bitorder="little")


def _pack_rows(bits) -> List[int]:
    """Big-int masks of the rows of a 0/1 matrix (inverse of _unpack_rows)."""
    packed = _np.packbits(bits, axis=1, bitorder="little")
    n_bytes = packed.shape[1]
    data = packed.tobytes()
    return [
        int.from_bytes(data[start:start + n_bytes], "little")
        for start in range(0, len(data), n_bytes)
    ] if n_bytes else [0] * len(bits)


def _split_runs(flat: List[int], counts: List[int]) -> _Classes:
    """``flat`` cut into consecutive tuples of the given lengths."""
    runs = []
    start = 0
    for count in counts:
        runs.append(tuple(flat[start:start + count]))
        start += count
    return tuple(runs)
