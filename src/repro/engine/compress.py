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

The measurement routes never map a vector back: the Boolean measurement
vector of Equation (1) is the indicator of ``P(F)`` over the original-width
rows (:meth:`TomographySession.measure
<repro.tomography.scenario.TomographySession.measure>`,
:func:`repro.tomography.inference.measurement_vector`).  The engine-side
reference, :meth:`SignatureEngine.measurement_vector
<repro.engine.signatures.SignatureEngine.measurement_vector>`, expands a
compressed indicator through :meth:`CompressionPlan.expand_indicator`, and
:meth:`CompressionPlan.expand_indices` / :meth:`CompressionPlan.expand_mask`
translate compressed columns for callers that need original path indices;
the plan records the full ``class_of`` index remap and per-class
``multiplicity`` for that purpose.
The reverse direction, :meth:`CompressionPlan.compress_indicator`, folds an
observed vector into compressed columns for localisation and reports a
vector that is not class-closed (no element set can produce it) as ``None``.

The collapse itself is one column dedup
(:func:`~repro.engine.columns.dedup_columns`) over the rows, and
:meth:`CompressionPlan.compress_mask` is one representative gather.

An enumerated path set's node engine runs no dedup.  The enumerator wrote
those rows from touch classes (:mod:`repro.routing.paths`): open class
``k`` is one run of ``counts[k]`` equal columns, and the closed CAP/CAP⁻
paths follow, one column each.  :meth:`repro.routing.paths.PathSet.engine`
hands these runs to :func:`compress_universe` as :class:`ColumnRuns`.  The
open classes are distinct by construction, so a closed path joins an open
class, or an earlier closed path, by its touch key in one dict, and the
compressed rows are one :func:`~repro.engine.columns.class_rows` over the
distinct keys; plan and rows equal the dedup's.  The input picks the
route: only a path set's own node universe with an enumerated family has
runs; link, SRLG, restricted and hand-built path sets deduplicate.

Neither route builds what nothing reads.  On an identity universe (every
column distinct and covered, as on the directed grids under χ_g) the rows
stay as they are and the plan's one-column members are built on first
read; a plan read off runs also builds its members on first read; and a
plan's per-class touch keys are read off its compressed rows on first use.

Churn does not patch plans: :meth:`repro.api.scenario.Scenario.evolve`
edits the spec, and the evolved scenario enumerates its path set and
compresses the new rows afresh.  Four churn-patch names are no longer
called by the library and stay, with their tests, only while the
benchmark's span table (``perfbench/spans.py``) names them:
:meth:`CompressionPlan.patch` and
:meth:`repro.engine.signatures.SignatureEngine.from_delta` (which move a
plan's surviving members and file added columns by touch key),
:meth:`repro.routing.paths.PathSet.apply_delta` and
:meth:`repro.engine.cache.PathSetCache.get_or_evolve`.

Compression is not an option: :meth:`repro.routing.paths.PathSet.engine`,
and so every layer above the engine, always compresses.  Only the
:class:`~repro.engine.signatures.SignatureEngine` constructors can still
skip it, to build the raw reference engine that the parity tests and
benchmarks compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dataclasses_field
from functools import cached_property, partial
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro._typing import Node
from repro.engine.columns import class_rows, column_keys, dedup_columns, gather_columns
from repro.exceptions import IdentifiabilityError
from repro.utils.bitset import bits_of, mask_from_indices


class ColumnRuns(NamedTuple):
    """An incidence laid out in class column runs, as
    :func:`~repro.engine.columns.class_rows` writes it.

    Class ``k`` takes ``counts[k]`` consecutive columns, set in the row of
    ``elements[i]`` for every bit ``i`` of ``keys[k]``; the keys are
    distinct and nonzero.  The ``tail`` columns follow, one per key, and
    each may repeat a class key or an earlier tail key.
    """

    elements: Tuple[Node, ...]
    keys: Tuple[int, ...]
    counts: Tuple[int, ...]
    tail: Tuple[int, ...]


class _Members:
    """The ``members`` field of :class:`CompressionPlan`: the classes it was
    built with, or — for a plan made by ``CompressionPlan._deferred`` —
    the function that builds them, called on first read and kept from then
    on."""

    def __get__(
        self, plan: Optional["CompressionPlan"], owner: object = None
    ) -> Tuple[Tuple[int, ...], ...]:
        if plan is None:
            raise AttributeError("members")  # no class default: the field is required
        members = plan.__dict__["members"]
        if callable(members):
            members = members()
            plan.__dict__["members"] = members
        return members

    def __set__(self, plan: "CompressionPlan", members: object) -> None:
        plan.__dict__["members"] = members


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
    members: _Members = _Members()
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

    @classmethod
    def _deferred(
        cls,
        n_original: int,
        n_compressed: int,
        build: Callable[[], Tuple[Tuple[int, ...], ...]],
        compressed_rows: Optional[Tuple[int, ...]] = None,
    ) -> "CompressionPlan":
        """A plan of ``n_compressed`` classes whose members ``build()``
        returns when first read: :func:`compress_universe` builds no member
        tuple that nothing reads."""
        plan = cls(n_original, build, compressed_rows)
        plan.__dict__["n_compressed"] = n_compressed
        return plan

    @cached_property
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
        caller bug); callers fall back to a fresh build.  No library path
        calls it: churn re-enumerates (module docstring).
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
    runs: Optional[ColumnRuns] = None,
) -> Tuple[CompressionPlan, Dict[Node, int]]:
    """Collapse duplicate path columns of a ``node -> P(v)`` mask table.

    Returns the :class:`CompressionPlan` and the compressed mask table over
    ``plan.n_compressed`` columns, grouping columns by their touch-set.
    Without ``runs`` that is one column dedup
    (:func:`~repro.engine.columns.dedup_columns`) over the incidence rows;
    both column kernels return the same plan and rows.  ``runs`` says how
    the rows were written (the :class:`ColumnRuns` of the same elements as
    ``nodes``), and the plan is read off the runs instead: equal keys are
    one class, and the compressed rows are one
    :func:`~repro.engine.columns.class_rows` over the distinct keys.  The
    identity (every column distinct and covered) builds nothing: its
    members are built when read and its table holds the input rows.  The
    plan's touch keys are read on first use.
    """
    rows = [node_masks[node] for node in nodes]
    for node, mask in zip(nodes, rows):
        if mask < 0 or mask.bit_length() > n_paths:
            raise IdentifiabilityError(
                f"mask of {node!r} is wider than the declared universe "
                f"({mask.bit_length()} > {n_paths} bits)"
            )
    if runs is None:
        members, compressed = dedup_columns(rows, n_paths)
        if members is None:
            plan = _identity_plan(n_paths, rows)
        else:
            plan = CompressionPlan(n_paths, members, tuple(compressed))
    else:
        plan, compressed = _plan_from_runs(nodes, rows, n_paths, runs)
    return plan, dict(zip(nodes, compressed))


def _identity_plan(n_paths: int, rows: List[int]) -> CompressionPlan:
    """The plan of ``rows`` whose columns are all distinct and covered: one
    class per column, built when read."""
    return CompressionPlan._deferred(
        n_paths, n_paths, partial(_one_column_classes, n_paths), tuple(rows)
    )


def _one_column_classes(n_paths: int) -> Tuple[Tuple[int, ...], ...]:
    return tuple(zip(range(n_paths)))


def _plan_from_runs(
    nodes: Sequence[Node], rows: List[int], n_paths: int, runs: ColumnRuns
) -> Tuple[CompressionPlan, List[int]]:
    """:func:`compress_universe`'s plan and compressed rows of ``rows``,
    read off the class runs that wrote them."""
    keys, counts, tail = runs.keys, runs.counts, runs.tail
    n_runs = sum(counts)
    if len(keys) != len(counts) or n_runs + len(tail) != n_paths:
        raise IdentifiabilityError(f"column runs do not cover the {n_paths} columns")
    # A tail key joins the class that holds it, or founds one after the
    # runs; columns come in order, so classes stay in first-appearance order.
    class_keys = list(keys)
    joined: Dict[int, List[int]] = {}
    if tail:
        index = {key: k for k, key in enumerate(keys)}
        for column, key in enumerate(tail, n_runs):
            if key:  # an all-zero column constrains nothing; drop it
                k = index.setdefault(key, len(class_keys))
                if k == len(class_keys):
                    class_keys.append(key)
                joined.setdefault(k, []).append(column)
    if len(class_keys) == n_paths:
        # Every column distinct and covered: the identity.
        return _identity_plan(n_paths, rows), rows
    row_of = dict(
        zip(
            runs.elements,
            class_rows(class_keys, [1] * len(class_keys), len(runs.elements)),
        )
    )
    try:
        compressed = [row_of[node] for node in nodes]
    except KeyError as exc:
        raise IdentifiabilityError(
            "column runs are over other elements than the table"
        ) from exc
    build = partial(_run_members, counts, joined, len(class_keys))
    plan = CompressionPlan._deferred(
        n_paths, len(class_keys), build, tuple(compressed)
    )
    return plan, compressed


def _run_members(
    counts: Sequence[int], joined: Mapping[int, List[int]], n_classes: int
) -> Tuple[Tuple[int, ...], ...]:
    """The members of ``n_classes`` run classes: class ``k``'s run of
    ``counts[k]`` columns, then the tail columns ``joined[k]`` that repeat
    its key (all of a class founded by the tail)."""
    members: List[Tuple[int, ...]] = []
    start = 0
    for count in counts:
        members.append(tuple(range(start, start + count)))
        start += count
    members.extend(() for _ in range(n_classes - len(counts)))
    for k, columns in joined.items():
        members[k] += tuple(columns)
    return tuple(members)
