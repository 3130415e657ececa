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

Each primitive validates its input, then runs one numpy kernel on unpacked
bit matrices; the rows go in and come out as big ints.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import IdentifiabilityError
from repro.utils.bitset import union_masks

_Classes = Tuple[Tuple[int, ...], ...]


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
    return _class_rows_numpy(keys, counts, n_rows)


def gather_columns(
    rows: Sequence[int], sources: Sequence[int], width: int
) -> List[int]:
    """Select, move and add columns of ``width``-bit rows.

    Column ``j`` of every result row is column ``sources[j]`` of the input
    row, or all-zero when ``sources[j]`` is ``-1``.  Non-negative sources
    must be distinct (a gather moves columns, it never copies one).  A
    representative gather — ``sources`` = one column per duplicate class —
    compresses class-closed rows.  Raises
    :class:`~repro.exceptions.IdentifiabilityError` for a row wider than
    ``width`` and a source outside ``[-1, width)`` or repeated.
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
    if not rows:
        return []
    return _gather_numpy(rows, sources, width)


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
    return _dedup_numpy(rows, width)


def column_keys(rows: Sequence[int], width: int) -> _Classes:
    """The touch key of each column of ``width``-bit rows: ``keys[c]`` is the
    ascending positions of the rows with column ``c`` set (``()`` for an
    all-zero column) — the incidence transposed into tuples.  Raises
    :class:`~repro.exceptions.IdentifiabilityError` for a row wider than
    ``width``.
    """
    rows = list(rows)
    _check_rows(rows, width)
    return _keys_numpy(rows, width)


def _check_rows(rows: Sequence[int], width: int) -> None:
    for mask in rows:
        if mask < 0 or mask.bit_length() > width:
            raise IdentifiabilityError(
                f"row mask is wider than the declared universe "
                f"({mask.bit_length()} > {width} bits)"
            )


# -- the kernels --------------------------------------------------------------


def _class_rows_numpy(keys, counts, n_rows) -> List[int]:
    if n_rows <= 64:
        # Every key fits one machine word: unpack them as one uint64 array.
        words = np.fromiter(keys, dtype="<u8", count=len(keys))
        bits = np.unpackbits(
            words.view(np.uint8).reshape(len(keys), 8),
            axis=1,
            count=n_rows,
            bitorder="little",
        )
    else:
        bits = _unpack_rows(keys, n_rows)
    if counts and max(counts) > 1:
        bits = np.repeat(bits, np.asarray(counts, dtype=np.intp), axis=0)
    return _pack_rows(np.ascontiguousarray(bits.T))


def _gather_numpy(rows, sources, width) -> List[int]:
    # Column ``width`` of the unpacked matrix is padding that reads 0, so a
    # ``-1`` source gathers an all-zero column.
    bits = _unpack_rows(rows, width + 1)
    index = np.asarray(sources, dtype=np.intp)
    return _pack_rows(bits[:, np.where(index < 0, width, index)])


def _dedup_numpy(rows, width):
    bits = _unpack_rows(rows, width)
    # One hashable-by-content key per column: its packed bits, padded to
    # whole uint64 words (a single word for up to 64 rows).
    n_words = max(1, -(-len(rows) // 64))
    columns = np.zeros((width, n_words * 8), dtype=np.uint8)
    columns[:, : (len(rows) + 7) // 8] = np.packbits(
        np.ascontiguousarray(bits.T), axis=1, bitorder="little"
    )
    keys = columns.view(
        np.uint64 if n_words == 1 else np.dtype((np.void, n_words * 8))
    ).reshape(width)
    ordered = np.sort(keys)
    distinct = (ordered[1:] != ordered[:-1]).all()
    if distinct and union_masks(rows).bit_count() == width:
        return None, rows  # every column distinct and nonzero: the identity
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    inverse = inverse.reshape(width)
    # Classes in first-appearance order, the all-zero column dropped.
    kept = np.flatnonzero(bits[:, first].any(axis=0))
    kept = kept[np.argsort(first[kept])]
    rank = np.full(len(first), len(kept), dtype=np.intp)
    rank[kept] = np.arange(len(kept))
    class_of = rank[inverse]
    by_class = np.argsort(class_of, kind="stable")
    counts = np.bincount(class_of, minlength=len(kept) + 1)[:-1].tolist()
    members = _split_runs(by_class.tolist(), counts)
    return members, _pack_rows(bits[:, first[kept]])


def _keys_numpy(rows, width) -> _Classes:
    bits = _unpack_rows(rows, width)
    touched = np.nonzero(bits.T)[1]
    return _split_runs(touched.tolist(), bits.sum(axis=0).tolist())


def _unpack_rows(rows: Sequence[int], count: int):
    """The ``(len(rows), count)`` 0/1 ``uint8`` matrix of rows at most
    ``count`` bits wide."""
    n_bytes = (count + 7) // 8
    packed = np.frombuffer(
        b"".join(mask.to_bytes(n_bytes, "little") for mask in rows), dtype=np.uint8
    ).reshape(len(rows), n_bytes)
    return np.unpackbits(packed, axis=1, count=count, bitorder="little")


def _pack_rows(bits) -> List[int]:
    """Big-int masks of the rows of a 0/1 matrix (inverse of _unpack_rows)."""
    packed = np.packbits(bits, axis=1, bitorder="little")
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
