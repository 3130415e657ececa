"""The signature engine: the single substrate for identifiability queries.

Every quantity the paper computes — µ, µ_α, local identifiability,
separability tables, Boolean measurement vectors — reduces to questions about
*signatures*: ``P(U)``, the set of measurement paths touched by a set of
failure elements.  A signature is a Python big int, bit ``j`` set iff path
``j`` is touched, so a union is ``|`` and an equality test is ``==``.
:class:`SignatureEngine` interns the per-element rows once, collapses
elements into signature equivalence classes, and answers all downstream
queries without ever going back to the raw paths.

The engine is **element-generic**: a row can be a node's ``P(v)``, a link's
traversal mask, or a shared-risk link group's union mask — the signature
algebra (unions, equalities, inclusions over GF(2) incidence vectors) never
inspects what a row represents.  Which rows exist is decided by the
:class:`~repro.failures.FailureUniverse` the engine is built over (node mode
being the historical default); the ``nodes`` naming below is kept for
backward compatibility and reads as "elements" in non-node universes.

By default the engine first compresses the signature universe — duplicate
path columns (paths with identical touch-sets) are collapsed and all-zero
columns dropped, see :mod:`repro.engine.compress` — so every union, equality
and subset test below runs over the distinct-column width rather than
``|P|``.  Results are bit-identical to the raw universe; outputs phrased in
path indices (the measurement vector) are expanded back before they leave
the engine.

The µ search
------------

The naive reference implementation sweeps ``itertools.combinations`` by
size and stops at the first subset whose ``P(U)`` repeats an earlier one.
The engine computes the same µ, ``searched_up_to`` and exhaustion semantics
without enumerating subsets at all:

1. **Equivalence-class fast path.**  One O(|V|) pass compares the interned
   per-node rows.  An uncovered node (empty signature) is confusable with ∅
   and two nodes in the same class are confusable with each other, so any
   non-singleton class certifies µ = 0 immediately.  Past this point every
   signature is distinct and non-empty, i.e. µ ≥ 1.
2. **The reduction.**  Call ``W`` a *dominator* when some ``v ∉ W`` has
   ``P(v) ⊆ P(W)``, and let ``m`` be the smallest dominator size.  Then
   ``W`` and ``W ∪ {v}`` collide, so the first failing level is at most
   ``m + 1``.  Conversely, take any collision ``P(U) = P(W)`` with
   ``|U| ≤ |W|`` and ``U ≠ W``: some ``v ∈ W∖U`` exists, and
   ``P(v) ⊆ P(W) = P(U)``, so ``U`` is a dominator and ``|W| ≥ |U| ≥ m``.
   Hence µ ∈ {m − 1, m}, and µ = m − 1 exactly when a collision has both
   sides of size ``m``.  Both sides of such a collision are dominators: ``U``
   dominates an element of ``W∖U`` and ``W`` one of ``U∖W``.  So µ = m − 1
   exactly when two distinct size-``m`` dominators have the same union, and
   grouping the size-``m`` dominators by union key decides it — no separate
   search for second explanations.  (This is the k-identifiability
   condition of Ma et al., IMC 2014, turned into an exact algorithm.)
3. **Hitting sets over the columns.**  ``W`` dominates ``v`` iff ``W`` hits
   every path column of ``P(v)``, i.e. contains a *coverer* (an element on
   that path) of each.  A column's coverers are found from the rows on
   first use (one byte per row), and the search only asks for its
   branching columns; the full universe of an engine patched by
   :meth:`SignatureEngine.from_delta` reads them from the touch keys the
   patch computed.  A bit-sliced
   counter over the rows splits the columns into one mask per coverer
   count, with no per-column Python work.
4. **Iterative deepening.**  Level ``ℓ = 1 .. cap`` searches, for each
   ``v``, the hitting sets of size ``ℓ`` that avoid ``v``: branch on the
   first un-hit column of ``P(v)`` in (coverer count, column index) order,
   including its ``i``-th coverer and excluding coverers ``1 .. i − 1``.
   Every hitting set lands in exactly one branch (the one of its first
   coverer), and since no level below ``m`` found a dominator, the leaves
   at level ``m`` are exactly the size-``m`` dominators of ``v``, each
   once.  The last element is resolved without recursing: a coverer of the
   first un-hit column completes ``W`` iff it covers every remaining
   column.  Each candidate coverer tried is one *tree node*, the unit of
   :class:`SearchStats` ``tree_nodes`` and of a µ ``subset_budget``.  Every
   engine over the same rows searches the same tree: compression keeps
   each class of equal columns under its first member's position, while
   every row (and so every un-hit set) holds all of a class or none of
   it — so the first un-hit raw column and the first un-hit compressed
   column belong to the same class, with the same coverers.
5. **Results and witnesses.**  No dominator up to the cap: exhausted at the
   cap.  Otherwise, with ``m`` found: two equal-union size-``m`` dominators
   give µ = m − 1 with ``searched_up_to = m`` and witness ``(W, U)``, the
   lex-min such pair; failing that, a cap of ``m`` is exhausted at ``m``,
   and a larger cap gives µ = m with ``searched_up_to = m + 1`` and witness
   ``(W, W ∪ {v})`` for the lex-min dominator ``W`` and the smallest ``v``
   it dominates.  Lex order compares element positions in the (possibly
   restricted) universe.  A budget that runs out during level ``ℓ`` stops
   the search with the certified lower bound ``ℓ − 1`` (never below the 1
   the fast path certified): no witness, not exhausted,
   ``stats.budget_exhausted``.
6. **Search memo.**  µ and every truncated µ_α are the same search stopped
   at different caps, so the engine keeps one slot holding the last exact
   result over its full element universe and derives every later
   budget-free cap from it.  A slot that found its witness at size ``s``
   answers any cap ``c ≥ s`` with itself and any ``c < s`` with
   ``(c, no witness, searched c, exhausted)``; a slot exhausted at cap ``C``
   answers every ``c ≤ C`` the same way, and a larger cap searches afresh
   and replaces it.  ``nodes=``-restricted and budgeted calls search as
   without the memo (a budget-truncated result never fills the slot), and
   an engine patched by :meth:`SignatureEngine.from_delta` starts empty.  A
   hit records a search of no work and carries ``SearchStats(0, 0, 0)``.
7. **Local µ.**  Local identifiability w.r.t. a scope ``S`` is the same
   search with the dominated targets restricted to ``S``
   (:meth:`SignatureEngine.local_identifiability`; the reduction is proved
   in :mod:`repro.core.local`).  With ``m_S`` the smallest dominator of an
   element of ``S``, µ_S ∈ {m_S − 1, m_S}: a scope element on no path gives
   0, no dominator up to the cap gives the cap, and otherwise µ_S = m_S − 1
   iff for some size-``m_S`` dominator ``B`` of some ``v ∈ S`` the columns
   ``P(B)∖P(v)`` are hit by at most ``m_S − 1`` elements whose rows lie
   inside ``P(B)`` — the same descent, run on that target with every
   element whose row leaves ``P(B)`` excluded, deepening from 0.  With
   ``S = V`` it is µ, capped.

The separability census
-----------------------

The census (:meth:`SignatureEngine.inseparable_pairs`,
:meth:`SignatureEngine.separability_matrix`) is the one query that still
enumerates subsets: a single pass over ``itertools.combinations`` ORs each
prefix union with the last element's row — the µ search's rows — and groups
the subsets in a dict keyed by that exact union.  Dict insertion order is the
census order: groups by first appearance, members in lexicographic order.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field, fields, replace
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro._typing import Node
from repro.engine.columns import gather_columns
from repro.engine.compress import CompressionPlan, compress_universe
from repro.exceptions import BudgetExceededError, IdentifiabilityError
from repro.resilience.budget import Budget, resolve_budget
from repro.utils.bitset import mask_from_indices
from repro.utils.counters import Counters

def _require_int(name: str, value: Any) -> int:
    """Reject anything but a real ``int`` (``bool`` included) with a typed
    error, before it reaches ``range``/``math.comb`` as a raw TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise IdentifiabilityError(f"{name} must be an int, got {value!r}")
    return value


def _search_cap(max_size: Optional[int], n: int) -> int:
    """The size cap of a search over ``n`` elements (``None``: ``n``)."""
    if max_size is None:
        return n
    if _require_int("max_size", max_size) < 0:
        raise IdentifiabilityError(f"max_size must be >= 0, got {max_size}")
    return min(max_size, n)


# -- search observability -----------------------------------------------------


@dataclass(frozen=True)
class SearchStats:
    """Diagnostic counters for one µ search (the work performed, never part
    of the result's identity)."""

    #: The ``n + 1`` size-0/1 subsets the fast path certified, plus one
    #: candidate set per search-tree node.
    subsets_enumerated: int
    #: Dominators found at the deciding level (smallest size).
    dominance_prunes: int
    #: Distinct unions among those dominators.
    table_entries: int
    budget_exhausted: bool = False
    #: Search-tree nodes: candidate coverers tried (the µ budget unit).
    tree_nodes: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "subsets_enumerated": self.subsets_enumerated,
            "dominance_prunes": self.dominance_prunes,
            "table_entries": self.table_entries,
            "budget_exhausted": self.budget_exhausted,
            "tree_nodes": self.tree_nodes,
        }


@dataclass(frozen=True)
class SearchCounters:
    """Process-global accumulated search counters (``--search-stats``)."""

    searches: int
    subsets_enumerated: int
    dominance_prunes: int
    #: Separability census passes (one per ``inseparable_pairs`` or
    #: ``separability_matrix`` call).
    blocks_evaluated: int = 0
    #: Census subsets whose union no other subset of their size shares.
    block_rows_pruned: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


#: The process-global search counters, named as :class:`SearchCounters`.
SEARCH_COUNTERS = Counters(f.name for f in fields(SearchCounters))


def search_counters() -> SearchCounters:
    """Snapshot of the process-global search counters."""
    return SearchCounters(**SEARCH_COUNTERS.snapshot())


def reset_search_counters() -> None:
    """Zero the process-global search counters (pool-worker initialisation)."""
    SEARCH_COUNTERS.reset()


#: ``(rows, coverers, buckets)`` of one search universe; see
#: :meth:`SignatureEngine._search_columns`.
_Columns = Tuple[Tuple[int, ...], Any, Tuple[int, ...]]

#: The stats of a query answered without a search (cap 0 or a memo hit).
_NO_WORK = SearchStats(0, 0, 0)

#: ``"0"``/``"1"`` characters to the bytes 0/1 (see :func:`_indicator`).
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _indicator(signature: int, width: int) -> Tuple[int, ...]:
    """The 0/1 vector of a ``width``-bit signature, bit 0 first: the binary
    digits of ``signature`` with a sentinel bit at ``width``, reversed and
    mapped to bytes in C."""
    digits = format(signature | 1 << width, "b")[:0:-1]
    return tuple(digits.encode().translate(_BITS))


def _record_search(stats: SearchStats) -> None:
    SEARCH_COUNTERS.merge(
        {
            "searches": 1,
            "subsets_enumerated": stats.subsets_enumerated,
            "dominance_prunes": stats.dominance_prunes,
        }
    )


# -- the dominance search -----------------------------------------------------


class _BudgetExpired(Exception):
    """Unwinds the dominance search when its budget runs out."""


#: Tree nodes between budget polls inside one element's tree.  Where a subset
#: budget truncates does not depend on it: the search stops during the first
#: level whose cumulative node count reaches the budget, since the last poll
#: of every level comes after its last node.
_POLL_STRIDE = 256


#: ``_BIT_OF[s]`` maps each byte to its bit ``s`` (0 or 1), for bytes.translate.
_BIT_OF = tuple(
    bytes.maketrans(bytes(range(256)), bytes(byte >> s & 1 for byte in range(256)))
    for s in range(8)
)


class _LazyCoverers(Dict[int, Tuple[int, ...]]):
    """``column -> coverers`` (ascending row positions), each computed from
    the rows on first use — the search reads only its branching columns.

    The rows are laid out once as a byte table, byte ``b`` of row ``i`` at
    ``b * len(rows) + i``, so column ``c``'s byte of every row is one slice:
    a lookup costs O(rows) in C, where ``row & (1 << c)`` would cost
    O(width) per row.

    An engine shares its full universe's instance across threads.  That is
    benign: an entry is a pure function of the immutable rows and is stored
    by one dict assignment, so a racing thread either misses and computes
    the same tuple itself or reads the finished one."""

    def __init__(self, rows: Sequence[int]) -> None:
        super().__init__()
        n_rows = len(rows)
        n_bytes = (max(rows, default=0).bit_length() + 7) // 8
        table = bytearray(n_rows * n_bytes)
        for i, row in enumerate(rows):
            table[i::n_rows] = row.to_bytes(n_bytes, "little")
        self._table = bytes(table)
        self._n_rows = n_rows

    def __missing__(self, column: int) -> Tuple[int, ...]:
        start = (column >> 3) * self._n_rows
        # One 0/1 byte per row; past every row's width the slice is empty.
        segment = self._table[start:start + self._n_rows]
        hits = segment.translate(_BIT_OF[column & 7])
        found: List[int] = []
        i = hits.find(1)
        while i >= 0:
            found.append(i)
            i = hits.find(1, i + 1)
        self[column] = result = tuple(found)
        return result


class _DominatorSearch:
    """The bounded hitting-set search of the µ reduction and of its local
    variant (module docstring, "The µ search").

    ``rows[i]`` is element ``i``'s row, ``coverers[c]`` the ascending
    element positions on column ``c``, and ``buckets`` splits the covered
    columns by coverer count, ascending.  The search order is (coverer
    count, column index): the first un-hit column is the lowest bit of the
    first bucket the un-hit set meets.  ``nodes`` counts the candidate
    coverers tried, over every level so far.
    """

    def __init__(
        self,
        rows: Sequence[int],
        coverers: Any,
        buckets: Sequence[int],
        budget: Optional[Budget],
    ) -> None:
        self.rows = rows
        self.coverers = coverers
        self.buckets = buckets
        self.budget = budget
        self.nodes = 0
        self._charged = 0

    def _charge(self, nodes: int) -> None:
        assert self.budget is not None
        spent, self._charged = nodes - self._charged, nodes
        if self.budget.spend(spent):
            raise _BudgetExpired

    def hitting_sets(
        self, jobs: Iterable[Tuple[int, int]], size: int
    ) -> List[List[Tuple[int, ...]]]:
        """For each ``(unhit, excluded)`` job, every set of ``size`` elements
        outside the ``excluded`` mask whose rows cover the non-empty column
        mask ``unhit`` (ascending positions, each set once).  Assumes no
        smaller such set exists, so every leaf has exactly ``size``
        elements.  Raises :class:`_BudgetExpired` when the budget runs out.
        """
        rows, coverers, buckets, budget = (
            self.rows, self.coverers, self.buckets, self.budget
        )
        results: List[List[Tuple[int, ...]]] = []
        found: List[Tuple[int, ...]] = []
        chosen: List[int] = []
        nodes = self.nodes

        def descend(unhit: int, excluded: int, remaining: int) -> None:
            nonlocal nodes
            # Branch on the first un-hit column: the fewest coverers.
            for bucket in buckets:
                first = unhit & bucket
                if first:
                    break
            candidates = coverers[(first & -first).bit_length() - 1]
            if remaining == 1:
                # The last element must cover every un-hit column at once.
                for w in candidates:
                    if not excluded >> w & 1:
                        nodes += 1
                        if unhit & rows[w] == unhit:
                            found.append(tuple(sorted(chosen + [w])))
                return
            if budget is not None and nodes - self._charged >= _POLL_STRIDE:
                self._charge(nodes)
            for w in candidates:
                if not excluded >> w & 1:
                    # Include the i-th coverer; later branches exclude it.
                    nodes += 1
                    chosen.append(w)
                    descend(unhit ^ (unhit & rows[w]), excluded, remaining - 1)
                    chosen.pop()
                    excluded |= 1 << w

        try:
            for unhit, excluded in jobs:
                found = []
                results.append(found)
                descend(unhit, excluded, size)
                if budget is not None:
                    self._charge(nodes)
        finally:
            self.nodes = nodes
        return results

    def dominators(
        self, level: int, targets: Sequence[int]
    ) -> Dict[Tuple[int, ...], List[int]]:
        """Every size-``level`` dominator of a ``targets`` position (ascending
        positions) mapped to the targets it dominates, ascending — empty when
        there is none.  Assumes no target has a smaller dominator.
        """
        rows = self.rows
        jobs = [(rows[v], 1 << v) for v in targets]
        found: Dict[Tuple[int, ...], List[int]] = {}
        for v, dominators in zip(targets, self.hitting_sets(jobs, level)):
            for dominator in dominators:
                found.setdefault(dominator, []).append(v)
        return found

    def local_collision(self, found: Dict[Tuple[int, ...], List[int]]) -> bool:
        """Whether the size-``m`` dominators ``found`` decide local µ at
        ``m − 1``: some dominator ``B`` of a target ``v`` has ``P(B)∖P(v)``
        hit by at most ``m − 1`` elements whose rows lie inside ``P(B)``
        (module docstring, "The µ search", item 7), searched by iterative
        deepening."""
        rows = self.rows
        for dominator, dominated in found.items():
            union = 0
            for i in dominator:
                union |= rows[i]
            outside = 0
            for w, row in enumerate(rows):
                if row & ~union:
                    outside |= 1 << w
            for v in dominated:
                rest = union & ~rows[v]
                if not rest or any(
                    self.hitting_sets([(rest, outside)], size)[0]
                    for size in range(1, len(dominator))
                ):
                    return True
        return False


# -- witnesses and results ----------------------------------------------------


@dataclass(frozen=True)
class ConfusablePair:
    """A witness that identifiability fails at level ``max(|U|, |W|)``.

    ``U`` and ``W`` are distinct node sets with identical path sets
    (``P(U) = P(W)``); no measurement can tell the corresponding failure sets
    apart.
    """

    first: FrozenSet[Node]
    second: FrozenSet[Node]

    @property
    def level(self) -> int:
        """The identifiability level this pair falsifies."""
        return max(len(self.first), len(self.second))

    def __iter__(self) -> Iterator[FrozenSet[Node]]:
        return iter((self.first, self.second))


@dataclass(frozen=True)
class IdentifiabilityResult:
    """Outcome of a maximal-identifiability computation.

    Attributes
    ----------
    value:
        The computed µ.  When ``exhausted_search`` is False this is exact;
        otherwise it is a certified lower bound (identifiability holds at this
        level but the search stopped before finding a failure).
    witness:
        The confusable pair proving ``µ < value + 1``, when one was found.
    searched_up_to:
        The largest subset size the search settled — the size the naive
        size-ordered sweep would have fully enumerated.
    exhausted_search:
        True when the search hit its size cap without finding a collision.
    stats:
        :class:`SearchStats` diagnostics for the search that produced this
        result.  Excluded from equality/repr: two results are the same
        finding even when the work that produced them differed (e.g. a
        raw reference engine or a memo hit).
    """

    value: int
    witness: Optional[ConfusablePair]
    searched_up_to: int
    exhausted_search: bool
    stats: Optional[SearchStats] = field(default=None, compare=False, repr=False)

    def __int__(self) -> int:
        return self.value


class SignatureEngine:
    """Interned, class-collapsed signature store over a fixed path universe.

    Parameters
    ----------
    nodes:
        The node universe, in canonical order (the enumeration order of every
        subset search).
    node_masks:
        ``node -> P(v)`` as Python big-int bitmasks (the routing layer builds
        these once per :class:`~repro.routing.paths.PathSet`).
    n_paths:
        ``|P|``, the width of the *original* signature universe.  Reported
        unchanged even under compression — only the internal column width
        shrinks.
    compress:
        Collapse duplicate path columns into a compressed universe (see
        :mod:`repro.engine.compress` for the soundness argument).  Every
        result — µ, witnesses, ``searched_up_to``, separability tables,
        measurement vectors — is bit-identical either way; only the
        per-union cost changes.  ``False`` builds the uncompressed
        reference engine the parity tests and benchmarks compare against;
        nothing else in the library asks for it.
    """

    def __init__(
        self,
        nodes: Sequence[Node],
        node_masks: Mapping[Node, int],
        n_paths: int,
        *,
        compress: bool = True,
    ) -> None:
        self.nodes: Tuple[Node, ...] = tuple(nodes)
        self.n_paths = n_paths
        #: ``False`` only for the raw reference engine (``compress=False``);
        #: an identity plan is compressed with nothing to merge.
        self.compressed = compress
        plan: Optional[CompressionPlan] = None
        #: Each internal column's coverers (ascending element positions),
        #: when a churn patch computed them; see :meth:`_search_columns`.
        self._coverers: Optional[Tuple[Tuple[int, ...], ...]] = None
        if compress:
            plan, compressed_masks = compress_universe(
                self.nodes, node_masks, n_paths
            )
            if plan.is_identity:
                plan = None  # nothing merged or dropped: skip the indirection
            else:
                node_masks = compressed_masks
        self.compression = plan
        self._signatures = {node: node_masks[node] for node in self.nodes}
        #: The search memo: the last exact full-universe µ result.
        self._memo: Optional[IdentifiabilityResult] = None
        #: The full universe's search columns, built on first use.
        self._columns: Optional[_Columns] = None

    @property
    def n_columns(self) -> int:
        """The internal signature width (``n_paths`` unless compressed)."""
        if self.compression is not None:
            return self.compression.n_compressed
        return self.n_paths

    @property
    def elements(self) -> Tuple[Node, ...]:
        """The failure elements this engine's rows belong to.

        An alias of :attr:`nodes` — the engine is element-generic, and
        ``nodes`` keeps its historical name for the default node universe.
        """
        return self.nodes

    @classmethod
    def from_pathset(cls, pathset, *, compress: bool = True) -> "SignatureEngine":
        """Build an engine over a :class:`~repro.routing.paths.PathSet`'s
        node universe.

        Prefer :meth:`PathSet.engine() <repro.routing.paths.PathSet.engine>`,
        which memoises the compressed engine per universe.
        """
        masks = {node: pathset.paths_through(node) for node in pathset.nodes}
        return cls(pathset.nodes, masks, pathset.n_paths, compress=compress)

    @classmethod
    def from_universe(cls, universe, *, compress: bool = True) -> "SignatureEngine":
        """Build an engine over a :class:`~repro.failures.FailureUniverse`.

        Prefer :meth:`PathSet.engine(universe=...)
        <repro.routing.paths.PathSet.engine>`, which memoises per universe
        fingerprint.
        """
        return cls(
            universe.elements, universe.masks, universe.n_paths, compress=compress
        )

    @classmethod
    def from_delta(
        cls,
        parent: "SignatureEngine",
        elements: Sequence[Node],
        masks: Mapping[Node, int],
        n_paths: int,
        *,
        survivors: Mapping[int, int],
        added: Sequence[Tuple[int, Tuple[int, ...]]],
        element_remap: Optional[Mapping[int, int]] = None,
    ) -> "SignatureEngine":
        """Build the post-delta engine by patching ``parent`` instead of
        re-transposing and re-interning the whole universe.

        ``elements``/``masks``/``n_paths`` describe the **post-delta**
        universe; ``survivors`` maps surviving original path columns to their
        new positions, ``added`` lists the delta-added columns with their
        touch keys (see :meth:`CompressionPlan.patch
        <repro.engine.compress.CompressionPlan.patch>`), and
        ``element_remap`` translates parent element positions when the
        element list changed.

        An element is *dirty* when an added column touches it (it is on an
        added touch key) or a removed one did (its parent row holds a class
        that lost a column), or when the parent has no row for it.  Because
        the patched plan equals a fresh
        :func:`~repro.engine.compress.compress_universe` plan, every clean
        row equals its parent row up to the class-index remap induced by the
        patch, so the clean rows are translated by one gather over the
        parent's compressed columns; the dirty rows are compressed from
        their post-delta masks by one representative gather.  The result is
        structurally identical to ``SignatureEngine(elements, masks,
        n_paths)``: same plan, same rows.

        Raises :class:`~repro.exceptions.IdentifiabilityError` when the
        incremental route is unavailable (an identity parent plan, an
        un-patchable plan or an identity patch result); callers fall back to
        the full constructor.  No library path calls it: a churn step
        re-enumerates and builds its engines afresh (see
        :mod:`repro.engine.compress`).
        """
        parent_plan = parent.compression
        if parent_plan is None:
            raise IdentifiabilityError(
                "parent plan is the identity; build the engine fresh"
            )
        plan, class_remap, lost = parent_plan.patch(
            survivors, added, n_paths, element_remap=element_remap
        )
        if plan.is_identity:
            # A fresh build would run uncompressed here; mirror it by bailing.
            raise IdentifiabilityError(
                "patched plan is the identity; build the engine fresh"
            )
        elements = tuple(elements)
        on_added = {position for _, key in added for position in key}
        lost_mask = mask_from_indices(lost)
        clean: List[Node] = []
        clean_rows: List[int] = []
        dirty: List[Node] = []
        for position, element in enumerate(elements):
            row = parent._signatures.get(element)
            if row is not None and position not in on_added:
                if not row & lost_mask:
                    clean.append(element)
                    clean_rows.append(row)
                    continue
            dirty.append(element)
        sources = [-1] * plan.n_compressed
        for old_class, new_class in class_remap.items():
            sources[new_class] = old_class
        translated = gather_columns(clean_rows, sources, parent_plan.n_compressed)
        compressed = gather_columns(
            [masks[element] for element in dirty], plan.representatives, n_paths
        )
        rows = dict(zip(clean, translated))
        rows.update(zip(dirty, compressed))

        engine = cls.__new__(cls)
        engine.nodes = elements
        engine.n_paths = n_paths
        engine.compressed = True
        engine.compression = plan
        engine._coverers = plan.touch_keys
        engine._signatures = {element: rows[element] for element in elements}
        engine._memo = None
        engine._columns = None
        return engine

    # -- signature accessors -------------------------------------------------
    def signature(self, node: Node) -> int:
        """The signature of ``P(v)``.

        Signatures live in the engine's internal column space — the
        compressed universe when ``self.compression`` is set; use
        ``self.compression.expand_mask`` / ``expand_indices`` to translate
        back to original path indices.
        """
        try:
            return self._signatures[node]
        except KeyError as exc:
            raise IdentifiabilityError(
                f"{node!r} is not in the engine's element universe"
            ) from exc

    def union_signature(self, nodes: Iterable[Node]) -> int:
        """The signature of ``P(U) = ∪_{u in U} P(u)``."""
        signature = 0
        for node in nodes:
            signature |= self.signature(node)
        return signature

    def measurement_vector(self, failed: Iterable[Node]) -> Tuple[int, ...]:
        """The Boolean measurement of Equation (1): bit ``i`` is 1 iff path
        ``i`` crosses a node of ``failed``.

        Always reported over the **original** path indices: under
        compression the compressed indicator is mapped back through
        :meth:`CompressionPlan.expand_indicator
        <repro.engine.compress.CompressionPlan.expand_indicator>`.
        """
        return self.indicator_vector(self.union_signature(failed))

    def indicator_vector(self, signature: int) -> Tuple[int, ...]:
        """The original-width 0/1 vector of a signature over this engine's
        columns.  Raises :class:`~repro.exceptions.IdentifiabilityError` for
        a negative signature or one with a bit at or above ``n_columns``
        (e.g. an original-width mask passed to a compressed engine)."""
        if signature < 0 or signature >> self.n_columns:
            raise IdentifiabilityError(
                f"signature does not fit the engine's {self.n_columns} columns"
            )
        vector = _indicator(signature, self.n_columns)
        if self.compression is not None:
            return self.compression.expand_indicator(vector)
        return vector

    # -- equivalence classes -------------------------------------------------
    def equivalence_classes(
        self, nodes: Optional[Iterable[Node]] = None
    ) -> Tuple[Tuple[Node, ...], ...]:
        """Partition of the universe into signature equivalence classes.

        Nodes in the same class have identical ``P(v)`` and are therefore
        pairwise confusable.  Classes are ordered by first appearance in the
        canonical node order; members keep that order too.
        """
        grouped: Dict[int, List[Node]] = {}
        for node in self._resolve_universe(nodes):
            grouped.setdefault(self._signatures[node], []).append(node)
        return tuple(tuple(members) for members in grouped.values())

    def confusable_singletons(
        self, nodes: Optional[Iterable[Node]] = None
    ) -> Optional[ConfusablePair]:
        """The O(|V|) µ = 0 certificate, if one exists.

        Scans the universe once in canonical order: the first node whose
        signature is empty (confusable with ∅) or equal to an earlier node's
        signature yields the witness; ``None`` means all singleton signatures
        are distinct and non-empty, i.e. µ ≥ 1.
        """
        return self._confusable_singletons(self._resolve_universe(nodes))

    def _confusable_singletons(
        self, universe: Tuple[Node, ...]
    ) -> Optional[ConfusablePair]:
        seen: Dict[int, Node] = {}
        for node in universe:
            row = self._signatures[node]
            if not row:
                return ConfusablePair(frozenset(), frozenset({node}))
            if row in seen:
                return ConfusablePair(frozenset({seen[row]}), frozenset({node}))
            seen[row] = node
        return None

    # -- the exact µ search --------------------------------------------------
    def identifiability(
        self,
        max_size: Optional[int] = None,
        nodes: Optional[Iterable[Node]] = None,
        budget: Optional[Budget] = None,
    ) -> IdentifiabilityResult:
        """Exact maximal identifiability of the (possibly restricted) universe.

        µ, ``searched_up_to`` and ``exhausted_search`` match the naive
        reference sweep exactly: the first subset size ``s`` at which two
        subsets of size ≤ s share a signature gives ``µ = s − 1``; searching
        up to the cap without a collision gives the exhausted result.  The
        witness follows the canonical rule of the module docstring ("The µ
        search", item 5), which also describes the search itself.

        ``budget`` (``None`` = unbounded) bounds the search cooperatively,
        counting search-tree nodes against a ``subset_budget``: on expiry the search stops at the last fully
        completed level and returns a *certified lower bound* —
        ``exhausted_search=False``, ``searched_up_to`` at that level,
        ``stats.budget_exhausted=True`` — exactly the truncated-µ semantics
        of an explicit ``max_size``, just decided at run time.

        An unrestricted call without a budget is answered from the search
        memo when its cap follows from the last exact result (module
        docstring, item 6); every exact unrestricted result refills it.
        """
        universe = self._resolve_universe(nodes)
        if not universe:
            raise IdentifiabilityError("the element universe is empty")
        n = len(universe)
        cap = _search_cap(max_size, n)
        budget = resolve_budget(budget)
        memoized = universe is self.nodes
        hit = self._memo_answer(cap) if memoized and budget is None else None
        if cap == 0:
            result = IdentifiabilityResult(0, None, 0, True, _NO_WORK)
        elif hit is not None:
            result = hit
        else:
            # Size-0/size-1 fast path over the equivalence classes.
            witness = self._confusable_singletons(universe)
            covered = SearchStats(n + 1, 0, n + 1)
            if witness is not None:
                result = IdentifiabilityResult(0, witness, 1, False, covered)
            elif cap == 1:
                result = IdentifiabilityResult(1, None, 1, True, covered)
            else:
                result = self._dominance_search(universe, cap, budget)
            assert result.stats is not None
            if memoized and not result.stats.budget_exhausted:
                self._remember(result)
        assert result.stats is not None
        _record_search(result.stats)
        return result

    def _memo_answer(self, cap: int) -> Optional[IdentifiabilityResult]:
        """The result a fresh full-universe search capped at ``cap`` would
        return, derived from the memo; ``None`` when the memo is empty or
        stops short of ``cap``."""
        memo = self._memo
        if memo is None:
            return None
        if memo.witness is not None:
            if cap >= memo.searched_up_to:
                return replace(memo, stats=_NO_WORK)
        elif cap > memo.searched_up_to:
            return None
        # No collision up to the cap: exhausted there, like a fresh search.
        return IdentifiabilityResult(cap, None, cap, True, _NO_WORK)

    def _remember(self, result: IdentifiabilityResult) -> None:
        """Keep ``result`` (exact, full universe) unless the memo already
        decides every cap it does.  One attribute store of an immutable
        result, so a concurrent reader never sees a torn slot."""
        memo = self._memo
        if memo is None or (
            memo.witness is None
            and (
                result.witness is not None
                or result.searched_up_to > memo.searched_up_to
            )
        ):
            self._memo = result

    def _search_columns(self, universe: Tuple[Node, ...]) -> _Columns:
        """``(rows, coverers, buckets)`` for the µ search over ``universe``:
        the element rows, each column's coverers (``coverers[c]``, ascending
        positions in ``universe``), and one mask per coverer count — the
        covered columns with 1, 2, ... coverers, ascending, empty ones
        skipped.

        The full universe's columns are built once per engine and shared by
        µ, local µ and the census; a ``nodes=``-restricted universe builds
        its own.  The full universe of an engine patched by
        :meth:`from_delta` reads the coverers its patched plan carries (the
        touch keys); any other universe finds a column's coverers on first
        use.  Nothing here depends on compression (module docstring, "The µ
        search", item 3).
        """
        full = universe is self.nodes
        if full and self._columns is not None:
            return self._columns
        rows = tuple(map(self._signatures.__getitem__, universe))
        coverers: Any = self._coverers
        if not full or coverers is None:
            coverers = _LazyCoverers(rows)
        # A bit-sliced counter: planes[i] holds bit i of every column's
        # coverer count, one ripple-carry add per row.
        planes: List[int] = []
        covered = 0
        for row in rows:
            covered |= row
            carry = row
            for i, plane in enumerate(planes):
                planes[i] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                planes.append(carry)
        # Split the covered columns by count bit, most significant first, so
        # the buckets come out in ascending count order.
        buckets = [covered]
        for plane in reversed(planes):
            split: List[int] = []
            for mask in buckets:
                high = mask & plane
                split += [part for part in (mask ^ high, high) if part]
            buckets = split
        columns = (rows, coverers, tuple(buckets))
        if full:
            self._columns = columns  # one attribute store: never torn
        return columns

    def _dominance_search(
        self, universe: Tuple[Node, ...], cap: int, budget: Optional[Budget]
    ) -> IdentifiabilityResult:
        """Levels ``1 .. cap`` of the dominance search (sizes 0/1 already
        certified collision-free by the fast path); module docstring, "The
        µ search"."""
        n = len(universe)
        rows, coverers, buckets = self._search_columns(universe)
        search = _DominatorSearch(rows, coverers, buckets, budget)

        def result(
            value: int,
            witness: Optional[ConfusablePair] = None,
            searched: Optional[int] = None,
            found: Optional[Dict[Tuple[int, ...], int]] = None,
            groups: int = 0,
            budget_exhausted: bool = False,
        ) -> IdentifiabilityResult:
            return IdentifiabilityResult(
                value,
                witness,
                value if searched is None else searched,
                witness is None and not budget_exhausted,
                SearchStats(
                    n + 1 + search.nodes,
                    len(found or ()),
                    groups,
                    budget_exhausted,
                    search.nodes,
                ),
            )

        def nodes_of(indices: Iterable[int]) -> FrozenSet[Node]:
            return frozenset(universe[i] for i in indices)

        if budget is not None:
            budget.start()
        for level in range(1, cap + 1):
            try:
                found = search.dominators(level, range(n))
            except _BudgetExpired:
                # Level ``level`` is incomplete: every smaller one is done.
                return result(max(level - 1, 1), budget_exhausted=True)
            if found:
                break
        else:
            return result(cap)
        by_union: Dict[int, List[Tuple[int, ...]]] = {}
        for dominator in found:
            union = 0
            for i in dominator:
                union |= rows[i]
            by_union.setdefault(union, []).append(dominator)
        pairs = [sorted(group)[:2] for group in by_union.values() if len(group) > 1]
        if pairs:
            first, second = min(pairs)
            witness = ConfusablePair(nodes_of(first), nodes_of(second))
            return result(level - 1, witness, level, found, len(by_union))
        if cap == level:
            return result(level, None, level, found, len(by_union))
        dominator = min(found)
        smaller = nodes_of(dominator)
        witness = ConfusablePair(smaller, smaller | {universe[found[dominator][0]]})
        return result(level, witness, level + 1, found, len(by_union))

    def local_identifiability(
        self, scope: Iterable[Node], max_size: Optional[int] = None
    ) -> int:
        """Local maximal identifiability w.r.t. ``scope``: the largest
        ``k ≤ max_size`` (default: the universe size) such that any two sets
        of at most ``k`` elements that differ inside ``scope`` have
        different path sets.

        The dominance search with its targets restricted to ``scope``
        (module docstring, "The µ search", item 7); it records one search in
        the process-global counters.
        """
        in_scope = frozenset(self._resolve_universe(frozenset(scope)))
        cap = _search_cap(max_size, len(self.nodes))
        targets = [i for i, node in enumerate(self.nodes) if node in in_scope]
        rows, coverers, buckets = self._search_columns(self.nodes)
        search = _DominatorSearch(rows, coverers, buckets, None)
        found: Dict[Tuple[int, ...], List[int]] = {}
        value = cap
        if any(not rows[v] for v in targets):
            value = 0  # m_S = 0: a scope element on no path is confusable with ∅
        else:
            for level in range(1, cap + 1):
                found = search.dominators(level, targets)
                if found:
                    value = level - 1 if search.local_collision(found) else level
                    break
        _record_search(
            SearchStats(search.nodes, len(found), 0, False, search.nodes)
        )
        return value

    # -- separation queries --------------------------------------------------
    def separates(self, first: Iterable[Node], second: Iterable[Node]) -> bool:
        """Whether some measurement path touches exactly one of the two sets."""
        return self.union_signature(first) != self.union_signature(second)

    def _subset_census(
        self,
        size: int,
        nodes: Optional[Iterable[Node]],
        budget: Optional[Budget],
    ) -> Tuple[Tuple[Node, ...], List[List[Tuple[int, ...]]]]:
        """The resolved universe plus the signature-equality groups of all its
        size-``size`` subsets, ordered by first appearance (groups and
        members in lexicographic order); module docstring, "The
        separability census".

        A census is all-or-nothing: an expired ``budget`` raises
        :class:`BudgetExceededError` (a partially enumerated census would be
        silently wrong, not a certified lower bound)."""
        if _require_int("size", size) < 1:
            raise IdentifiabilityError(f"size must be >= 1, got {size}")
        universe = self._resolve_universe(nodes)
        budget = resolve_budget(budget)
        rows = self._search_columns(universe)[0]
        n = len(rows)
        if budget is not None:
            budget.start()
        SEARCH_COUNTERS.add("blocks_evaluated")
        groups: Dict[int, List[Tuple[int, ...]]] = {}
        for prefix in itertools.combinations(range(n), size - 1):
            union = 0
            for i in prefix:
                union |= rows[i]
            for last in range(prefix[-1] + 1 if prefix else 0, n):
                groups.setdefault(union | rows[last], []).append(prefix + (last,))
                if budget is not None and budget.spend():
                    raise BudgetExceededError(
                        f"size-{size} subset census exceeded its search budget"
                    )
        SEARCH_COUNTERS.add(
            "block_rows_pruned", sum(len(members) == 1 for members in groups.values())
        )
        return universe, list(groups.values())

    def separability_matrix(
        self,
        size: int,
        nodes: Optional[Iterable[Node]] = None,
        budget: Optional[Budget] = None,
    ) -> Dict[Tuple[FrozenSet[Node], FrozenSet[Node]], bool]:
        """Pairwise separation table for all subsets of a given size.

        An expired ``budget`` raises :class:`BudgetExceededError` — see
        :meth:`_subset_census` for why there is no partial table."""
        universe, groups = self._subset_census(size, nodes, budget)
        group_of: Dict[Tuple[int, ...], int] = {}
        for group_id, members in enumerate(groups):
            for indices in members:
                group_of[indices] = group_id
        entries = [
            (frozenset(universe[i] for i in indices), group_of[indices])
            for indices in itertools.combinations(range(len(universe)), size)
        ]
        table: Dict[Tuple[FrozenSet[Node], FrozenSet[Node]], bool] = {}
        for i, (first, first_group) in enumerate(entries):
            for second, second_group in entries[i + 1 :]:
                table[(first, second)] = first_group != second_group
        return table

    def inseparable_pairs(
        self,
        size: int,
        nodes: Optional[Iterable[Node]] = None,
        budget: Optional[Budget] = None,
    ) -> Tuple[Tuple[FrozenSet[Node], FrozenSet[Node]], ...]:
        """All unordered pairs of same-size subsets with identical path sets.

        An expired ``budget`` raises :class:`BudgetExceededError` — see
        :meth:`_subset_census` for why there is no partial census."""
        universe, groups = self._subset_census(size, nodes, budget)
        pairs: List[Tuple[FrozenSet[Node], FrozenSet[Node]]] = []
        for members in groups:
            subsets = [
                frozenset(universe[i] for i in indices) for indices in members
            ]
            for i, first in enumerate(subsets):
                for second in subsets[i + 1 :]:
                    pairs.append((first, second))
        return tuple(pairs)

    # -- plumbing ------------------------------------------------------------
    def _resolve_universe(
        self, nodes: Optional[Iterable[Node]]
    ) -> Tuple[Node, ...]:
        """Canonicalise a universe restriction (sorted by repr, validated)."""
        if nodes is None:
            return self.nodes
        universe = tuple(sorted(set(nodes), key=repr))
        for node in universe:
            if node not in self._signatures:
                raise IdentifiabilityError(
                    f"{node!r} is not in the engine's element universe"
                )
        return universe

    def describe(self) -> str:
        """One-line summary used by examples and benchmarks."""
        classes = self.equivalence_classes()
        width = f"columns={self.n_columns}" if self.compressed else "raw"
        return (
            f"SignatureEngine(|V|={len(self.nodes)}, |P|={self.n_paths}, "
            f"{width}, classes={len(classes)})"
        )
