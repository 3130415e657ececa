"""Signature-universe compression: duplicate path columns carry no information.

The engine's data is the node×path incidence matrix: row ``v`` is the bitmask
``P(v)`` and column ``j`` is the *touch-set* of path ``j`` (the nodes the path
crosses).  Every identifiability query the engine answers — equality of
``P(U)`` and ``P(W)``, the dominance test ``P(v) ⊆ P(W)`` of the µ search
(see "The µ search" in :mod:`repro.engine.signatures`), unions of rows — is
a Boolean-lattice query over rows, and the runtime of each primitive scales
with the *bit-width* of the rows.  This module
shrinks that width by collapsing duplicate columns.

Soundness of the collapse
-------------------------

Let ``c : {0..|P|-1} → {0..m-1}`` map each path column to its duplicate class
(two columns are in one class iff their touch-sets are equal; all-zero
columns — paths touching no node of the universe — are dropped entirely).
Write ``φ(S)`` for the compressed image of a path set ``S``: bit ``k`` of
``φ(S)`` is set iff some column of class ``k`` is in ``S``.

Every mask the engine ever manipulates is a union ``P(U)`` of node rows, and
node rows are *class-closed*: if path ``j`` crosses ``v`` then every duplicate
of ``j`` crosses ``v`` too (equal touch-sets!), so ``P(U)`` contains either
all columns of a class or none of them.  On class-closed sets ``φ`` is a
bijection onto the compressed lattice that commutes with union, and therefore
preserves equality and inclusion in both directions::

    P(U) = P(W)  ⇔  φ(P(U)) = φ(P(W))
    P(U) ⊆ P(W)  ⇔  φ(P(U)) ⊆ φ(P(W))
    φ(P(U) ∪ P(W)) = φ(P(U)) ∪ φ(P(W))

Since the µ and local µ search (a hitting-set search over the path columns,
see "The µ search" in :mod:`repro.engine.signatures`), the separability
tables and the equivalence-class fast path are compositions of exactly
these three primitives over node rows, running them on the
compressed rows takes the *same branches* in the same order and yields
bit-identical results — µ, witnesses, ``searched_up_to``, exhaustion — at a
fraction of the per-union cost.  (Gale duality offers the same picture: the paths form a point
configuration and repeated points add nothing to its oriented-matroid data.)

The one engine output phrased in path indices — the Boolean measurement
vector of Equation (1) — is mapped back through :meth:`CompressionPlan.expand_indices`,
so callers keep seeing original path indices; the plan records the full
``class_of`` index remap and per-class ``multiplicity`` for that purpose.
The reverse direction, :meth:`CompressionPlan.compress_indicator`, folds an
observed vector into compressed columns for localisation and reports a
vector that is not class-closed (no element set can produce it) as ``None``.

The collapse itself is one column dedup
(:func:`~repro.engine.columns.dedup_columns`) over the rows — the numpy or
the big-int kernel, identical plans either way — and
:meth:`CompressionPlan.compress_mask` is one representative gather.  The
dedup builds only the classes: on an identity universe (every column
distinct and covered, as on the directed grids under χ_g) it builds nothing
and returns the rows as they are, and a plan's per-class touch keys are read
off its compressed rows on first use.  Only churn reads them: after a churn
step :meth:`CompressionPlan.patch` moves the surviving members and files the
added columns by touch key (one pass over the plan's members, not the
incidence), and the engine translates clean rows by one class-remap gather;
see :meth:`repro.engine.signatures.SignatureEngine.from_delta`.

Compression is not an option: :meth:`repro.routing.paths.PathSet.engine`,
and so every layer above the engine, always compresses.  Only the
:class:`~repro.engine.signatures.SignatureEngine` constructors can still
skip it, to build the raw reference engine that the parity tests and
benchmarks compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dataclasses_field
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro._typing import Node
from repro.engine.columns import column_keys, dedup_columns, gather_columns
from repro.exceptions import IdentifiabilityError
from repro.utils.bitset import bits_of, mask_from_indices


@dataclass(frozen=True)
class CompressionPlan:
    """The recorded mapping between original and compressed path columns.

    Attributes
    ----------
    n_original:
        ``|P|``, the width of the uncompressed signature universe.
    members:
        ``members[k]`` is the ascending tuple of original path indices whose
        columns were collapsed into compressed column ``k``.  Classes are
        ordered by their smallest original index, so representative order is
        stable and independent of node iteration order.
    """

    n_original: int
    members: Tuple[Tuple[int, ...], ...]
    #: The element rows over the compressed columns (bit ``k`` = class
    #: ``k``), retained (compare-excluded) by :func:`compress_universe` so
    #: :attr:`touch_keys` can be read off them on first use.  ``None`` for
    #: hand-built and patched plans.
    compressed_rows: Optional[Tuple[int, ...]] = dataclasses_field(
        default=None, compare=False, repr=False
    )

    @cached_property
    def touch_keys(self) -> Optional[Tuple[Tuple[int, ...], ...]]:
        """Per-class touch key — the ascending element positions every
        member column touches — so :meth:`patch` can match delta-added
        columns against existing classes without re-transposing the matrix.

        Read off :attr:`compressed_rows` on first use (one
        :func:`~repro.engine.columns.column_keys` transpose); a patched plan
        carries the keys :meth:`patch` computed.  ``None`` for hand-built
        plans, which then cannot be patched.
        """
        if self.compressed_rows is None:
            return None
        return column_keys(self.compressed_rows, self.n_compressed)

    @property
    def n_compressed(self) -> int:
        """Width of the compressed universe (number of distinct columns)."""
        return len(self.members)

    @property
    def is_identity(self) -> bool:
        """True when no column was dropped or merged (nothing to gain)."""
        return self.n_compressed == self.n_original

    @cached_property
    def multiplicity(self) -> Tuple[int, ...]:
        """``multiplicity[k]``: how many original columns class ``k`` absorbed."""
        return tuple(len(group) for group in self.members)

    @cached_property
    def representatives(self) -> Tuple[int, ...]:
        """The smallest original index of each compressed column."""
        return tuple(group[0] for group in self.members)

    @cached_property
    def class_of(self) -> Mapping[int, int]:
        """The index remap ``original path index -> compressed column``.

        Dropped (all-zero) columns are absent from the mapping.
        """
        return {
            original_index: compressed_index
            for compressed_index, group in enumerate(self.members)
            for original_index in group
        }

    @cached_property
    def _class_masks(self) -> Tuple[int, ...]:
        """Original-space bitmask of each compressed column's members."""
        return tuple(mask_from_indices(list(group)) for group in self.members)

    # -- mask translation ---------------------------------------------------
    def compress_mask(self, mask: int) -> int:
        """Map a class-closed original-space path mask (a union of element
        rows — the only masks the engine builds) into the compressed space:
        a representative gather, bit ``k`` read off column
        ``representatives[k]``."""
        return gather_columns([mask], self.representatives, self.n_original)[0]

    def expand_mask(self, compressed_mask: int) -> int:
        """Map a compressed-space mask back to original path indices."""
        expanded = 0
        class_masks = self._class_masks
        for index in bits_of(compressed_mask):
            if index >= self.n_compressed:
                raise IdentifiabilityError(
                    f"compressed column {index} out of range for "
                    f"{self.n_compressed} classes"
                )
            expanded |= class_masks[index]
        return expanded

    def expand_indices(self, compressed_bits: Iterable[int]) -> Tuple[int, ...]:
        """Original path indices of a compressed bit iterable, ascending."""
        indices: List[int] = []
        for index in compressed_bits:
            indices.extend(self.members[index])
        indices.sort()
        return tuple(indices)

    @cached_property
    def _column_classes(self) -> Tuple[int, ...]:
        """Compressed column of each original column; dropped columns map to
        the sentinel ``n_compressed``."""
        classes = [self.n_compressed] * self.n_original
        for compressed_index, group in enumerate(self.members):
            for original_index in group:
                classes[original_index] = compressed_index
        return tuple(classes)

    def compress_indicator(self, vector: Sequence[int]) -> Optional[Tuple[int, ...]]:
        """The compressed 0/1 vector of an original-width 0/1 vector, or
        ``None`` when the vector is not class-closed: some class's members
        read different bits, or a dropped column reads 1."""
        vector = tuple(vector)
        bits = tuple(map(vector.__getitem__, self.representatives)) + (0,)
        if tuple(map(bits.__getitem__, self._column_classes)) != vector:
            return None
        return bits[:-1]

    def expand_indicator(self, compressed_vector: Sequence[int]) -> Tuple[int, ...]:
        """The original-width 0/1 vector of a compressed-width 0/1 vector:
        one gather through the column classes, dropped columns reading 0."""
        bits = list(compressed_vector) + [0]
        return tuple(map(bits.__getitem__, self._column_classes))

    # -- incremental patching ------------------------------------------------
    def patch(
        self,
        survivors: Mapping[int, int],
        added: Sequence[Tuple[int, Tuple[int, ...]]],
        n_original: int,
        element_remap: Optional[Mapping[int, int]] = None,
    ) -> Tuple["CompressionPlan", Dict[int, int], List[int]]:
        """A plan for the post-delta universe, equal to a fresh transpose.

        ``survivors`` maps surviving original columns to their post-delta
        positions, ``added`` lists ``(new column, ascending touch key in the
        new element order)`` for columns absent from this plan, and
        ``element_remap`` translates this plan's element positions into the
        new order when the element list itself changed (``None`` =
        identical; the remap must be monotonic, which repr-sorted element
        universes guarantee).  Only the affected columns are touched — no
        re-transpose — yet the result is *equal* to
        :func:`compress_universe` over the post-delta matrix: surviving
        columns keep their touch keys (a surviving path's touch set cannot
        change: it avoids removed elements and cannot traverse added ones),
        added columns join the class with the same key or found their own,
        all-zero columns drop, and classes are re-sorted by smallest member
        — exactly the fresh first-appearance order.

        Returns ``(plan, class_remap, lost)``: the new plan, ``old class ->
        new class`` for every class that kept a column, and the ascending
        old classes that lost a column to ``survivors`` (the classes a
        removed path belonged to).

        Raises :class:`~repro.exceptions.IdentifiabilityError` when this
        plan carries no touch keys, or when a surviving column references a
        vanished element (which contradicts ``survivors`` and signals a
        caller bug); callers fall back to a fresh build.
        """
        if self.touch_keys is None:
            raise IdentifiabilityError(
                "plan carries no touch keys; rebuild via compress_universe"
            )
        buckets: Dict[Tuple[int, ...], List[int]] = {}
        moved: List[Tuple[int, Tuple[int, ...]]] = []
        lost: List[int] = []
        for old_class, (old_key, group) in enumerate(zip(self.touch_keys, self.members)):
            new_members = [
                new_column
                for column in group
                if (new_column := survivors.get(column)) is not None
            ]
            if len(new_members) < len(group):
                lost.append(old_class)
            if not new_members:
                continue
            if element_remap is None:
                new_key = old_key
            else:
                try:
                    new_key = tuple(element_remap[p] for p in old_key)
                except KeyError as exc:
                    raise IdentifiabilityError(
                        "a surviving column touches a removed element"
                    ) from exc
            buckets.setdefault(new_key, []).extend(new_members)
            moved.append((old_class, new_key))
        for new_column, key in added:
            if not key:
                continue  # an all-zero column constrains nothing; drop it
            buckets.setdefault(tuple(key), []).append(new_column)
        entries = sorted(
            (tuple(sorted(group)), key) for key, group in buckets.items()
        )
        new_class = {key: k for k, (_, key) in enumerate(entries)}
        plan = CompressionPlan(
            n_original=n_original, members=tuple(group for group, _ in entries)
        )
        # The keys are known here: fill the lazy attribute's slot.
        plan.__dict__["touch_keys"] = tuple(key for _, key in entries)
        return plan, {old: new_class[key] for old, key in moved}, lost

    def describe(self) -> str:
        """One-line summary used by benchmarks and ``SignatureEngine.describe``."""
        dropped = self.n_original - sum(self.multiplicity)
        return (
            f"CompressionPlan({self.n_original} -> {self.n_compressed} columns, "
            f"{dropped} dropped, ratio="
            f"{self.n_original / self.n_compressed if self.n_compressed else 1.0:.2f})"
        )


def compress_universe(
    nodes: Sequence[Node],
    node_masks: Mapping[Node, int],
    n_paths: int,
) -> Tuple[CompressionPlan, Dict[Node, int]]:
    """Collapse duplicate path columns of a ``node -> P(v)`` mask table.

    Returns the :class:`CompressionPlan` and the compressed mask table over
    ``plan.n_compressed`` columns: one column dedup
    (:func:`~repro.engine.columns.dedup_columns`) over the incidence rows,
    grouping columns by their touch-set (the tuple of node positions,
    canonical because the node order is fixed).  Both column kernels return
    the same plan and rows; the plan's touch keys are read on first use.
    """
    rows = [node_masks[node] for node in nodes]
    for node, mask in zip(nodes, rows):
        if mask < 0 or mask.bit_length() > n_paths:
            raise IdentifiabilityError(
                f"mask of {node!r} is wider than the declared universe "
                f"({mask.bit_length()} > {n_paths} bits)"
            )
    members, compressed = dedup_columns(rows, n_paths)
    if members is None:  # the identity: each column its own class
        members = tuple(zip(range(n_paths)))
    plan = CompressionPlan(
        n_original=n_paths, members=members, compressed_rows=tuple(compressed)
    )
    return plan, dict(zip(nodes, compressed))
