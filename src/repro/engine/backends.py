"""Interchangeable signature backends for the :class:`SignatureEngine`.

A *signature* is the set of measurement paths touched by a node set —
``P(U)`` in the paper — and the engine's queries reduce to unions and
equality tests over signatures (the µ search works on the rows' big-int
masks directly).  Two representations are provided behind one interface:

* :class:`PythonBackend` — a signature is a Python big integer used as a
  bitmask (bit ``i`` set iff path ``i`` is touched).  No dependencies, fast
  for small-to-medium path universes thanks to CPython's int ops.
* :class:`NumpyBackend` — a signature is a read-only ``uint64`` array of
  ``ceil(|P| / 64)`` words; unions are vectorized bitwise kernels and
  hashable keys are raw ``bytes``.  Preferable once ``|P|`` is
  large enough that big-int hashing/allocation dominates.

Both also run the incidence *column primitives* — ``gather_columns``
(select, move and add path columns of element rows) and ``dedup_columns``
(duplicate-column classes) — that carry ``PathSet.apply_delta``, the engine
patch and compression.  Rows cross the seam as big-int masks; numpy works on
unpacked bit matrices, the python backend on the big ints themselves.

Backend selection
-----------------

:func:`resolve_backend` turns a backend spec (``None``, a name, or an
instance) into a concrete backend.  The spec travels explicitly, in
:class:`repro.api.spec.EngineConfig` or as a ``backend=`` argument; there is
no process-global policy:

* ``"auto"`` (also what ``None`` means) — numpy when it is importable **and**
  the path universe has at least :data:`NUMPY_MIN_PATHS` paths, python
  otherwise;
* ``"python"`` / ``"numpy"`` — force one backend for that engine.

The library never hard-requires numpy.
"""

from __future__ import annotations

import abc
import itertools
from typing import Dict, Iterator, List, Sequence, Tuple, Union

from repro.exceptions import IdentifiabilityError
from repro.utils.bitset import bit_indices, bits_of, mask_from_indices

try:  # numpy is an optional dependency; the python backend always works.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-less installs
    _np = None

#: "auto" switches to the numpy backend at this many measurement paths.
#:
#: The crossover is where numpy's fixed per-op call overhead is repaid by
#: word-parallel row ops: below it CPython big-int ops win outright.  The
#: subset census alone favours big ints to much wider universes, since both
#: backends run the same chunked ops
#: (``benchmarks/bench_backend_crossover.py`` records that ladder); the
#: value is set by the whole scenario, where localization and measurement
#: over a few thousand compressed columns run faster on numpy.  It is read
#: at resolution time, which the backend-parity tests use to run the
#: ``"auto"`` column primitives on each backend.
NUMPY_MIN_PATHS = 256

_POLICIES = ("auto", "python", "numpy")


def numpy_available() -> bool:
    """Whether the numpy backend can be constructed in this environment."""
    return _np is not None


def available_backends() -> Tuple[str, ...]:
    """Names of the backends constructible in this environment."""
    return ("python", "numpy") if numpy_available() else ("python",)


class SignatureBackend(abc.ABC):
    """Operations on packed path-set signatures.

    Signatures are opaque to callers: build them with :meth:`pack`, combine
    with :meth:`union`, and use :meth:`key` whenever a hashable/equatable
    representative is needed (two signatures are equal iff their keys are).
    """

    name: str = "abstract"

    def __init__(self, n_paths: int) -> None:
        if n_paths < 0:
            raise IdentifiabilityError(f"n_paths must be >= 0, got {n_paths}")
        self.n_paths = n_paths

    @abc.abstractmethod
    def pack(self, mask: int):
        """Pack a Python big-int bitmask into this backend's representation."""

    @abc.abstractmethod
    def empty(self):
        """The signature of the empty node set (no paths touched)."""

    @abc.abstractmethod
    def union(self, first, second):
        """``P(U) ∪ P(W)`` — a new signature; operands are never mutated."""

    @abc.abstractmethod
    def key(self, signature):
        """A hashable key; equal keys iff equal signatures."""

    @abc.abstractmethod
    def is_empty(self, signature) -> bool:
        """Whether the signature touches no path."""

    @abc.abstractmethod
    def bits(self, signature) -> Iterator[int]:
        """The indices of the touched paths, in increasing order."""

    @abc.abstractmethod
    def indicator_vector(self, signature) -> Tuple[int, ...]:
        """The 0/1 vector of length ``n_paths`` (the Boolean measurement)."""

    # -- batched block ops ---------------------------------------------------
    #
    # The subset census evaluates the combination frontier in chunks:
    # ``stack`` packs signatures into a single block operand once, then each
    # chunk is one ``block_scan`` (row-wise union against a shared prefix)
    # followed by one ``block_digests`` (row digests, exact-verified by the
    # engine on collision).  The defaults below are a pure-python fallback
    # built on the scalar ops, so the census runs on any backend; vectorized
    # backends override them.

    def stack(self, signatures):
        """Pack signatures into a block operand, one row per signature.

        Rows must be addressable as ``stacked[i]`` yielding a signature
        interchangeable with the scalar ops.
        """
        return list(signatures)

    def block_scan(self, matrix, prefixes, spans):
        """Evaluate one chunk of candidate rows spanning many prefix runs.

        ``matrix`` is :meth:`stack` of the element signatures, ``prefixes``
        is :meth:`stack` of one prefix union per run touched by the chunk,
        and ``spans`` is a list of ``(prefix_row, lo, hi)`` triples: rows
        ``matrix[lo:hi]`` are each evaluated against ``prefixes[prefix_row]``,
        spans concatenated in order.  Returns the unions over the
        concatenated rows, each a signature interchangeable with the scalar
        ops.
        """
        union = self.union
        return [
            union(prefixes[prefix_row], row)
            for prefix_row, lo, hi in spans
            for row in matrix[lo:hi]
        ]

    def block_digests(self, unions):
        """64-bit digests of a block of union rows, as a list of ints.

        Digests follow the PR-6 contract: collisions are allowed (the engine
        exact-verifies via :meth:`key` on every match) but equal signatures
        must digest equally *within one backend instance*.
        """
        key = self.key
        return [hash(key(row)) for row in unions]

    def mask(self, signature) -> int:
        """The Python big-int bitmask of a signature (the inverse of
        :meth:`pack`)."""
        return mask_from_indices(list(self.bits(signature)))

    # -- column primitives ---------------------------------------------------
    #
    # The write path edits the element×path incidence column-wise: a churn
    # step moves the surviving path columns and sets the bits of the added
    # ones, compression keeps one representative column per duplicate class.
    # Rows cross the seam as big-int masks (bit ``j`` = column ``j``) in both
    # directions; the public methods validate and the ``_``-prefixed hooks
    # compute.  The defaults are the big-int code; NumpyBackend overrides the
    # hooks with unpacked bit-matrix ops, bit-identical on every input.

    def gather_columns(
        self,
        rows: Sequence[int],
        sources: Sequence[int],
        width: int,
        scatter: Sequence[Sequence[int]] = (),
    ) -> List[int]:
        """Select, move and add columns of ``width``-bit rows.

        Column ``j`` of every result row is column ``sources[j]`` of the
        input row, or all-zero when ``sources[j]`` is ``-1``; then, when
        ``scatter`` is given (one column list per row), the columns in
        ``scatter[r]`` are set in result row ``r``.  Non-negative sources
        must be distinct (a gather moves columns, it never copies one).  A
        representative gather — ``sources`` = one column per duplicate
        class — compresses class-closed rows.  Raises
        :class:`~repro.exceptions.IdentifiabilityError` for a row wider
        than ``width``, a source outside ``[-1, width)`` or repeated, and a
        scatter that does not fit the result.
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
        return self._gather_columns(rows, sources, width, scatter)

    def dedup_columns(
        self, rows: Sequence[int], width: int
    ) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...], List[int]]:
        """Collapse duplicate columns of ``width``-bit rows.

        Returns ``(members, keys, deduped)``: one class per distinct nonzero
        column, in first-appearance order; ``members[k]`` the ascending
        columns of class ``k``, ``keys[k]`` the ascending row positions its
        columns have set, and ``deduped`` the rows over the class columns
        (bit ``k`` = the column of class ``k``).  All-zero columns are
        dropped.  Raises :class:`~repro.exceptions.IdentifiabilityError`
        for a row wider than ``width``.
        """
        rows = list(rows)
        _check_rows(rows, width)
        return self._dedup_columns(rows, width)

    def _gather_columns(self, rows, sources, width, scatter) -> List[int]:
        lookup = {source: j for j, source in enumerate(sources) if source >= 0}.get
        return [
            mask_from_indices(
                [j for i in bit_indices(mask) if (j := lookup(i)) is not None]
                + list(extra)
            )
            for mask, extra in zip(rows, scatter or [()] * len(rows))
        ]

    def _dedup_columns(self, rows, width):
        touch: List[List[int]] = [[] for _ in range(width)]
        for position, mask in enumerate(rows):
            for column in bit_indices(mask):
                touch[column].append(position)
        classes: Dict[Tuple[int, ...], List[int]] = {}
        for column, positions in enumerate(touch):
            if positions:  # an all-zero column constrains nothing; drop it
                classes.setdefault(tuple(positions), []).append(column)
        # Dict order is first-appearance order, since columns run ascending.
        keys = tuple(classes)
        deduped: List[List[int]] = [[] for _ in rows]
        for k, key in enumerate(keys):
            for position in key:
                deduped[position].append(k)
        return (
            tuple(tuple(group) for group in classes.values()),
            keys,
            [mask_from_indices(indices) for indices in deduped],
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_paths={self.n_paths})"


class PythonBackend(SignatureBackend):
    """Signatures as Python big integers (the library's original encoding)."""

    name = "python"

    def pack(self, mask: int) -> int:
        return mask

    def empty(self) -> int:
        return 0

    def union(self, first: int, second: int) -> int:
        return first | second

    def key(self, signature: int) -> int:
        return signature

    def is_empty(self, signature: int) -> bool:
        return not signature

    def bits(self, signature: int) -> Iterator[int]:
        return bits_of(signature)

    def indicator_vector(self, signature: int) -> Tuple[int, ...]:
        vector = [0] * self.n_paths
        for index in bits_of(signature):
            vector[index] = 1
        return tuple(vector)

    def mask(self, signature: int) -> int:
        return signature


class NumpyBackend(SignatureBackend):
    """Signatures as read-only little-endian ``uint64`` word arrays."""

    name = "numpy"

    def __init__(self, n_paths: int) -> None:
        if _np is None:
            raise IdentifiabilityError(
                "the numpy backend was requested but numpy is not installed"
            )
        super().__init__(n_paths)
        self.n_words = max(1, -(-n_paths // 64))
        # Per-word fold weights for block_digests: distinct odd constants so
        # the XOR fold is word-position dependent (permuted words collide no
        # more often than unrelated rows).
        weights = (
            _np.uint64(0x9E3779B97F4A7C15)
            * (_np.uint64(2) * _np.arange(self.n_words, dtype=_np.uint64) + _np.uint64(1))
        )
        weights.setflags(write=False)
        self._digest_weights = weights

    def pack(self, mask: int):
        # frombuffer over the little-endian byte encoding yields a read-only
        # array, which enforces the immutability the engine relies on.
        return _np.frombuffer(
            mask.to_bytes(self.n_words * 8, "little"), dtype="<u8"
        )

    def empty(self):
        return self.pack(0)

    def union(self, first, second):
        out = _np.bitwise_or(first, second)
        out.setflags(write=False)
        return out

    def key(self, signature) -> bytes:
        return signature.tobytes()

    def is_empty(self, signature) -> bool:
        return not bool(signature.any())

    def bits(self, signature) -> Iterator[int]:
        # Unpack + nonzero stays inside numpy; the old implementation
        # round-tripped every query through a Python big int.
        unpacked = _np.unpackbits(signature.view(_np.uint8), bitorder="little")
        return iter(_np.nonzero(unpacked)[0].tolist())

    def indicator_vector(self, signature) -> Tuple[int, ...]:
        unpacked = _np.unpackbits(
            signature.view(_np.uint8), bitorder="little", count=self.n_paths
        )
        return tuple(unpacked.tolist())

    def stack(self, signatures):
        if not signatures:
            return _np.zeros((0, self.n_words), dtype="<u8")
        stacked = _np.vstack(signatures)
        stacked.setflags(write=False)
        return stacked

    def block_scan(self, matrix, prefixes, spans):
        # Each span is a *contiguous* matrix slice, so the chunk's unions are
        # written span-by-span into one preallocated buffer with a broadcast
        # OR over a view — no gathered row copy, no prefix broadcast copy.
        total = sum(hi - lo for _, lo, hi in spans)
        unions = _np.empty((total, self.n_words), dtype="<u8")
        base = 0
        for prefix_row, lo, hi in spans:
            count = hi - lo
            _np.bitwise_or(
                matrix[lo:hi], prefixes[prefix_row], out=unions[base:base + count]
            )
            base += count
        unions.setflags(write=False)
        return unions

    def block_digests(self, unions):
        # Weighted fold first — one multiply and one XOR reduction over the
        # (B, W) block — then a splitmix64-style finalizer on the folded
        # (B,) column only.  Folding before finalising keeps the pass count
        # (and memory traffic) flat in W; uint64 arithmetic wraps mod 2**64
        # (C semantics), which is exactly what the mix wants.  Collisions
        # are exact-verified by the engine, so the per-word odd multipliers
        # only have to keep accidental cancellation rare.
        folded = _np.bitwise_xor.reduce(unions * self._digest_weights, axis=1)
        folded = _np.bitwise_xor(folded, folded >> _np.uint64(30))
        folded = folded * _np.uint64(0xBF58476D1CE4E5B9)
        folded ^= folded >> _np.uint64(27)
        folded = folded * _np.uint64(0x94D049BB133111EB)
        folded ^= folded >> _np.uint64(31)
        return folded.tolist()

    def mask(self, signature) -> int:
        return int.from_bytes(signature.tobytes(), "little")

    def _gather_columns(self, rows, sources, width, scatter) -> List[int]:
        # Column ``width`` of the unpacked matrix is padding that reads 0, so
        # a ``-1`` source gathers an all-zero column.
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

    def _dedup_columns(self, rows, width):
        bits = _unpack_rows(rows, width)
        # One hashable-by-content key per column: its packed bits, padded to
        # whole uint64 words (a single word for up to 64 rows).
        n_words = max(1, -(-len(rows) // 64))
        columns = _np.zeros((width, n_words * 8), dtype=_np.uint8)
        columns[:, : (len(rows) + 7) // 8] = _np.packbits(
            bits.T, axis=1, bitorder="little"
        )
        keys = columns.view(
            _np.uint64 if n_words == 1 else _np.dtype((_np.void, n_words * 8))
        ).reshape(width)
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
        deduped = bits[:, first[kept]]
        touched = _np.nonzero(deduped.T)[1]
        keys_out = _split_runs(touched.tolist(), deduped.sum(axis=0).tolist())
        return members, keys_out, _pack_rows(deduped)


def _check_rows(rows: Sequence[int], width: int) -> None:
    for mask in rows:
        if mask < 0 or mask.bit_length() > width:
            raise IdentifiabilityError(
                f"row mask is wider than the declared universe "
                f"({mask.bit_length()} > {width} bits)"
            )


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


def _split_runs(flat: List[int], counts: List[int]) -> Tuple[Tuple[int, ...], ...]:
    """``flat`` cut into consecutive tuples of the given lengths."""
    runs = []
    start = 0
    for count in counts:
        runs.append(tuple(flat[start:start + count]))
        start += count
    return tuple(runs)


BackendSpec = Union[None, str, SignatureBackend]


def normalize_backend_spec(backend: BackendSpec) -> str:
    """Canonicalise a backend spec *without* resolving ``"auto"``.

    ``None`` means ``"auto"``; strings are normalised and
    validated; instances map to their concrete name.  Callers that memoise
    engines key on this — keeping ``"auto"`` symbolic lets the engine resolve
    it against the width it will actually operate on (the compressed width),
    so every construction route picks the same backend.
    """
    if isinstance(backend, SignatureBackend):
        return backend.name
    name = "auto" if backend is None else str(backend).strip().lower()
    if name not in _POLICIES:
        raise IdentifiabilityError(
            f"unknown backend {backend!r}; expected 'auto', 'python' or 'numpy'"
        )
    return name


def resolve_backend_name(backend: BackendSpec, n_paths: int) -> str:
    """The concrete backend name a spec resolves to for a given width.

    ``n_paths`` is the width the backend will operate on — for a compressed
    engine that is the number of distinct columns, not the raw ``|P|``.
    """
    name = normalize_backend_spec(backend)
    if name == "auto":
        return "numpy" if numpy_available() and n_paths >= NUMPY_MIN_PATHS else "python"
    return name


def resolve_backend(backend: BackendSpec, n_paths: int) -> SignatureBackend:
    """Turn a backend spec into a ready-to-use backend instance."""
    if isinstance(backend, SignatureBackend):
        return backend
    name = resolve_backend_name(backend, n_paths)
    if name == "numpy":
        return NumpyBackend(n_paths)
    return PythonBackend(n_paths)
