"""The signature engine: the single substrate for identifiability queries.

Every quantity the paper computes — µ, µ_α, local identifiability,
separability tables, Boolean measurement vectors — reduces to questions about
*signatures*: ``P(U)``, the set of measurement paths touched by a set of
failure elements.  :class:`SignatureEngine` interns the per-element
signatures once (packed by a :mod:`~repro.engine.backends` backend),
collapses elements into signature equivalence classes, and answers all
downstream queries without ever going back to the raw paths.

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

The exact µ search
------------------

The naive reference implementation sweeps ``itertools.combinations`` and
recomputes ``P(U)`` from scratch for every subset.  The engine keeps the same
enumeration *order* (sizes increasing, lexicographic within a size) — so the
computed µ, the ``searched_up_to`` bookkeeping and the exhaustion semantics
are identical — but obtains each subset's signature differently:

1. **Equivalence-class fast path.**  One O(|V|) pass compares the interned
   per-node signature keys.  An uncovered node (empty signature) is
   confusable with ∅ and two nodes in the same class are confusable with each
   other, so any non-singleton class certifies µ = 0 immediately.  Past this
   point every class is a singleton, i.e. the class universe *is* the node
   universe, and the subset search runs over provably distinct signatures.
2. **Incremental DFS.**  Subsets of each size are enumerated by a DFS that
   carries the union of the chosen prefix, so extending a subset by one node
   costs one backend union instead of ``|U|`` dict lookups and ORs.  The
   enumeration lives in one shared generator, :func:`_combination_frontier`,
   used by the serial sweep, the census queries and the sharded workers.
3. **Subset-dominance pruning.**  When the last node ``u`` of a candidate
   ``U`` satisfies ``P(u) ⊆ P(U∖{u})``, then ``P(U) = P(U∖{u})`` and the
   collision is certified immediately — no hashing, no partner lookup.
   (Dominance can only fire on the final extension: an earlier firing would
   exhibit a collision between two smaller subsets, which the completed
   smaller sizes have already excluded.)
4. **Signature table.**  Remaining candidates are checked against a
   ``key -> subset`` table spanning all sizes searched so far, exactly like
   the reference implementation.

Sharded search
--------------

The size-``s`` frontier decomposes cleanly by leading element: the subsets
whose smallest index falls in ``[lo, hi)`` form a contiguous lexicographic
block, and the blocks concatenate, in first-index order, to exactly the
serial enumeration order.  With ``search_jobs > 1`` the engine partitions the
first indices into balanced blocks (weighted by ``C(n-1-i, s-1)``, the number
of subsets led by index ``i``) and fans the blocks out over a ``fork``
``ProcessPoolExecutor`` (or a thread pool where ``fork`` is unavailable).

Collision detection stays sound across shards.  Each worker receives the
*digest history* — ``hash(key)`` plus index tuple for every subset the search
has certified collision-free at smaller sizes — seeds it with the locally
derivable size-0/1 keys, and scans its block with the same dominance-then-
table branch order as the serial sweep, exact-verifying any digest match by
recomputing the candidate's union key.  A worker therefore only ever stops
at a position where the serial sweep would also have stopped (its view of
the table is a subset of the serial table at that position).  The parent
then merges deterministically: worker hits plus cross-shard duplicates among
the surviving entries (digest-grouped, exact-verified, partnered with their
earliest exact-equal occurrence) are candidate collisions, and the
lexicographically smallest candidate subset is the serial sweep's first
collision — same µ, same witness pair, same ``searched_up_to`` and
``exhausted_search``, bit-identical for every ``search_jobs``.  Sizes whose
frontier is below :data:`MIN_SHARDED_FRONTIER` are scanned inline in the
parent through the same code path, so small searches never pay pool setup.

There is no cross-shard early stop within a size: shards past the first
collision finish their block (or stop at a later local hit), so the
:class:`SearchStats` counters — but never the result — may differ from the
serial sweep's at the terminal size.

The block kernel
----------------

The scalar sweep pays one ``union``/``key``/``is_subset``/dict-probe Python
round-trip per subset, which squanders the numpy backend's vectorization on
call overhead.  The third execution strategy (``kernel="block"``) regroups
the frontier by shared prefix: the size-``s`` subsets sharing their first
``s - 1`` indices form a contiguous *run* whose last elements are the rows
``prefix[-1]+1 .. n-1`` of the stacked signature matrix.  Each run is
evaluated in chunks of ``block_size`` rows with three batched backend ops —
row-wise union via prefix broadcast (one ``(B, n_words)`` uint64 OR),
row-wise dominance (``last & ~prefix`` reduced per row), and vectorized
64-bit row digests — and only then does a Python loop walk the digest list
doing pure dict work, exact-verifying digest matches by recomputing the
candidate's union key exactly like the PR-6 shard tables.  Enumeration
order, witness choice, ``subsets_enumerated`` accounting and budget
spend/poll cadence are preserved row for row, so the kernel is bit-identical
to the scalar path serial and sharded (each shard runs the kernel over its
own first-index block).  ``kernel="auto"`` engages the block kernel when the
backend advertises :attr:`~repro.engine.backends.SignatureBackend.
vectorized_blocks` and the frontier is at least :data:`MIN_BLOCK_FRONTIER`
subsets; a pure-python fallback keeps ``kernel="block"`` legal (and still
bit-identical) on any backend.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import multiprocessing
import os
import threading
import warnings
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
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
from repro.engine.backends import (
    BackendSpec,
    SignatureBackend,
    resolve_backend,
)
from repro.engine.compress import (
    CompressionPlan,
    compress_universe,
    compression_enabled,
)
from repro.exceptions import BudgetExceededError, IdentifiabilityError
from repro.resilience.budget import (
    SHARD_POLL_STRIDE,
    Budget,
    SharedBudgetState,
    resolve_budget,
)
from repro.utils.bitset import mask_from_indices

# -- the search_jobs policy ---------------------------------------------------

#: Raw process-global ``search_jobs`` policy (0 = all cores, resolved lazily).
_search_jobs = 1


def _validate_search_jobs(jobs: Any) -> int:
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise IdentifiabilityError(
            f"search_jobs must be an int >= 0 (0 = all cores), got {jobs!r}"
        )
    if jobs < 0:
        raise IdentifiabilityError(
            f"search_jobs must be >= 0 (0 = all cores), got {jobs}"
        )
    return jobs


def _install_search_jobs(jobs: int) -> int:
    """Install the search-sharding policy without a deprecation warning
    (internal setter for :func:`search_jobs_policy` and the pool workers)."""
    global _search_jobs
    _search_jobs = _validate_search_jobs(jobs)
    return _search_jobs


def select_search_jobs(jobs: Optional[int] = None) -> int:
    """Get or set the global intra-search sharding policy.

    With no argument, returns the current policy (no warning); with an int,
    installs it for every search run without an explicit ``search_jobs=``
    argument and returns the new value.  ``1`` is the serial default, ``0``
    means all cores, ``N`` a pool of N shard workers.  The counterpart of
    :func:`repro.engine.compress.select_compression` for the sharding axis.

    .. deprecated::
        Setting the global policy is deprecated in favour of the spec-scoped
        engine configuration — pass ``EngineConfig(search_jobs=...)`` into a
        :class:`repro.Scenario` (or the ``search_jobs=`` parameter of the
        pathset-level functions).  Behaviour is unchanged while it lives.
    """
    if jobs is None:
        return _search_jobs
    warnings.warn(
        "select_search_jobs(jobs) mutates process-global state; prefer the "
        "spec-scoped repro.EngineConfig(search_jobs=...) on a repro.Scenario, "
        "or the scoped search_jobs_policy() context manager",
        DeprecationWarning,
        stacklevel=2,
    )
    return _install_search_jobs(jobs)


@contextlib.contextmanager
def search_jobs_policy(jobs: Optional[int] = None) -> Iterator[int]:
    """Scope a search-sharding policy change to a ``with`` block.

    ``None`` leaves the policy untouched (the block still restores whatever
    was in effect on entry, so nesting is safe)::

        with search_jobs_policy(4):
            ...  # every search here without an explicit knob uses 4 shards
    """
    previous = _search_jobs
    try:
        if jobs is not None:
            _install_search_jobs(jobs)
        yield _search_jobs
    finally:
        _install_search_jobs(previous)


def resolve_search_jobs(jobs: Optional[int] = None) -> int:
    """Normalise a ``search_jobs`` value: ``None`` = global policy,
    ``0`` = all cores, ``N`` = N shard workers (1 = serial)."""
    if jobs is None:
        jobs = _search_jobs
    jobs = _validate_search_jobs(jobs)
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


# -- the kernel policy --------------------------------------------------------

#: Valid execution-strategy names for the subset sweep.
KERNELS = ("auto", "scalar", "block")

#: Frontier rows a block-kernel chunk materialises when no ``block_size`` is
#: given (large enough to amortise the per-chunk numpy call overhead, small
#: enough that a chunk of uint64 union rows stays cache-resident).
DEFAULT_BLOCK_SIZE = 1024

#: Frontier size (subsets in the largest swept size) below which
#: ``kernel="auto"`` keeps the scalar path even on a vectorized backend —
#: under this the batched ops never repay the stacking/bookkeeping setup.
MIN_BLOCK_FRONTIER = 2048

#: Raw process-global kernel policy ("auto" resolves per search).
_kernel = "auto"

#: Raw process-global block size (``None`` = :data:`DEFAULT_BLOCK_SIZE`).
_block_size: Optional[int] = None


def _validate_kernel(kernel: Any) -> str:
    name = str(kernel).strip().lower()
    if name not in KERNELS:
        raise IdentifiabilityError(
            f"unknown kernel {kernel!r}; expected one of {KERNELS}"
        )
    return name


def _validate_block_size(block_size: Any) -> Optional[int]:
    if block_size is None:
        return None
    if (
        isinstance(block_size, bool)
        or not isinstance(block_size, int)
        or block_size < 1
    ):
        raise IdentifiabilityError(
            f"block_size must be an int >= 1 or None, got {block_size!r}"
        )
    return block_size


def _install_kernel(kernel: str) -> str:
    """Install the kernel policy without a deprecation warning (internal
    setter for :func:`kernel_policy` and the pool workers)."""
    global _kernel
    _kernel = _validate_kernel(kernel)
    return _kernel


def _install_block_size(block_size: Optional[int]) -> Optional[int]:
    """Install the block-size policy without a deprecation warning."""
    global _block_size
    _block_size = _validate_block_size(block_size)
    return _block_size


def select_kernel(kernel: Optional[str] = None) -> str:
    """Get or set the global subset-sweep kernel policy.

    With no argument, returns the current policy (no warning); with
    ``"auto"``, ``"scalar"`` or ``"block"``, installs it for every search run
    without an explicit ``kernel=`` argument and returns the new value.

    .. deprecated::
        Setting the global policy is deprecated in favour of the spec-scoped
        engine configuration — pass ``EngineConfig(kernel=...)`` into a
        :class:`repro.Scenario` (or the ``kernel=`` parameter of the
        pathset-level functions).  Behaviour is unchanged while it lives.
    """
    if kernel is None:
        return _kernel
    warnings.warn(
        "select_kernel(kernel) mutates process-global state; prefer the "
        "spec-scoped repro.EngineConfig(kernel=...) on a repro.Scenario, "
        "or the scoped kernel_policy() context manager",
        DeprecationWarning,
        stacklevel=2,
    )
    return _install_kernel(kernel)


def select_block_size(block_size: Optional[int] = None) -> Optional[int]:
    """Get the global block-size policy (``None`` = library default).

    Setting it here is deprecated like :func:`select_kernel`; note that
    unlike the other selectors the getter cannot be distinguished from
    "set to default", so only non-``None`` values install.
    """
    if block_size is None:
        return _block_size
    warnings.warn(
        "select_block_size(n) mutates process-global state; prefer the "
        "spec-scoped repro.EngineConfig(block_size=...) on a repro.Scenario, "
        "or the scoped kernel_policy() context manager",
        DeprecationWarning,
        stacklevel=2,
    )
    return _install_block_size(block_size)


@contextlib.contextmanager
def kernel_policy(
    kernel: Optional[str] = None, block_size: Optional[int] = None
) -> Iterator[Tuple[str, Optional[int]]]:
    """Scope a kernel-policy change to a ``with`` block.

    ``None`` leaves the corresponding knob untouched (the block still
    restores both on exit, so nesting is safe)::

        with kernel_policy("block", block_size=4096):
            ...  # every sweep here without explicit knobs runs the kernel
    """
    previous = (_kernel, _block_size)
    try:
        if kernel is not None:
            _install_kernel(kernel)
        if block_size is not None:
            _install_block_size(block_size)
        yield (_kernel, _block_size)
    finally:
        _install_kernel(previous[0])
        _install_block_size(previous[1])


def resolve_kernel(kernel: Optional[str] = None) -> str:
    """Normalise a ``kernel`` value (``None`` = global policy), keeping
    ``"auto"`` symbolic — it resolves per search against the backend and
    frontier via :func:`_resolved_kernel`."""
    return _validate_kernel(_kernel if kernel is None else kernel)


def resolve_block_size(block_size: Optional[int] = None) -> int:
    """Concrete block size: explicit value, else the global policy, else
    :data:`DEFAULT_BLOCK_SIZE`."""
    if block_size is None:
        block_size = _block_size
    if block_size is None:
        return DEFAULT_BLOCK_SIZE
    validated = _validate_block_size(block_size)
    assert validated is not None
    return validated


def _resolved_kernel(kernel: str, backend: SignatureBackend, frontier: int) -> str:
    """Resolve ``"auto"`` against the backend and the largest frontier."""
    if kernel != "auto":
        return kernel
    if not backend.vectorized_blocks:
        return "scalar"
    return "block" if frontier >= MIN_BLOCK_FRONTIER else "scalar"


# -- search observability -----------------------------------------------------


@dataclass(frozen=True)
class SearchStats:
    """Diagnostic counters for one subset search.

    Only the *result* of a search is bit-identical across ``search_jobs``
    values; these counters describe the work actually performed, which for a
    sharded run depends on the shard partition (shards past the first
    collision finish their blocks).
    """

    jobs: int
    subsets_enumerated: int
    dominance_prunes: int
    table_entries: int
    shard_subsets: Tuple[int, ...] = ()
    budget_exhausted: bool = False
    #: The execution strategy that ran ("scalar" or "block", post-"auto").
    kernel: str = "scalar"
    #: Frontier chunks the block kernel evaluated (0 under the scalar path).
    blocks_evaluated: int = 0
    #: Rows whose vectorized digest missed every table — dedup'd without a
    #: single exact key computation (the kernel's batching win).
    block_rows_pruned: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "subsets_enumerated": self.subsets_enumerated,
            "dominance_prunes": self.dominance_prunes,
            "table_entries": self.table_entries,
            "shard_subsets": list(self.shard_subsets),
            "budget_exhausted": self.budget_exhausted,
            "kernel": self.kernel,
            "blocks_evaluated": self.blocks_evaluated,
            "block_rows_pruned": self.block_rows_pruned,
        }


@dataclass(frozen=True)
class SearchCounters:
    """Process-global accumulated search counters (``--search-stats``)."""

    searches: int
    sharded_searches: int
    subsets_enumerated: int
    dominance_prunes: int
    block_searches: int = 0
    blocks_evaluated: int = 0
    block_rows_pruned: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "searches": self.searches,
            "sharded_searches": self.sharded_searches,
            "subsets_enumerated": self.subsets_enumerated,
            "dominance_prunes": self.dominance_prunes,
            "block_searches": self.block_searches,
            "blocks_evaluated": self.blocks_evaluated,
            "block_rows_pruned": self.block_rows_pruned,
        }


_COUNTERS: Dict[str, int] = {
    "searches": 0,
    "sharded_searches": 0,
    "subsets_enumerated": 0,
    "dominance_prunes": 0,
    "block_searches": 0,
    "blocks_evaluated": 0,
    "block_rows_pruned": 0,
}


def search_counters() -> SearchCounters:
    """Snapshot of the process-global search counters."""
    return SearchCounters(**_COUNTERS)


def reset_search_counters() -> None:
    """Zero the process-global search counters (pool-worker initialisation)."""
    for name in _COUNTERS:
        _COUNTERS[name] = 0


def record_external_search(
    searches: int = 0,
    sharded_searches: int = 0,
    subsets_enumerated: int = 0,
    dominance_prunes: int = 0,
    block_searches: int = 0,
    blocks_evaluated: int = 0,
    block_rows_pruned: int = 0,
) -> None:
    """Fold counters reported by worker processes into this process's totals
    (the search-counter analogue of ``PathSetCache.record_external``)."""
    _COUNTERS["searches"] += searches
    _COUNTERS["sharded_searches"] += sharded_searches
    _COUNTERS["subsets_enumerated"] += subsets_enumerated
    _COUNTERS["dominance_prunes"] += dominance_prunes
    _COUNTERS["block_searches"] += block_searches
    _COUNTERS["blocks_evaluated"] += blocks_evaluated
    _COUNTERS["block_rows_pruned"] += block_rows_pruned


def _record_search(stats: SearchStats, sharded: bool) -> None:
    _COUNTERS["searches"] += 1
    if sharded:
        _COUNTERS["sharded_searches"] += 1
    if stats.kernel == "block":
        _COUNTERS["block_searches"] += 1
    _COUNTERS["subsets_enumerated"] += stats.subsets_enumerated
    _COUNTERS["dominance_prunes"] += stats.dominance_prunes
    _COUNTERS["blocks_evaluated"] += stats.blocks_evaluated
    _COUNTERS["block_rows_pruned"] += stats.block_rows_pruned


# -- the shared combination frontier ------------------------------------------


def _combination_frontier(
    signatures: Sequence[Any],
    backend: SignatureBackend,
    size: int,
    first_lo: int = 0,
    first_hi: Optional[int] = None,
) -> Iterator[Tuple[List[int], Any, Any]]:
    """Enumerate the size-``size`` subsets whose smallest index lies in
    ``[first_lo, first_hi)``, carrying incremental prefix unions.

    Yields ``(indices, rest, last_signature)`` where ``indices`` is the
    **live** index list (snapshot before the next advance), ``rest`` is the
    union of the first ``size - 1`` signatures and ``last_signature`` the
    last element's row — exactly the operands of the dominance test and of
    the subset's full union ``union(rest, last_signature)``.  Subsets appear
    in lexicographic order; blocks over consecutive first-index ranges
    concatenate to the full lexicographic enumeration, which is what makes
    the sharded sweep order-equivalent to the serial one.
    """
    n = len(signatures)
    if first_hi is None or first_hi > n - size + 1:
        first_hi = n - size + 1
    if size < 1 or first_lo >= first_hi:
        return
    union, empty = backend.union, backend.empty
    indices = list(range(first_lo, first_lo + size))
    # prefix[d] is the union of the signatures at indices[:d].
    prefix: List[Any] = [empty()] * size
    for depth in range(size - 1):
        prefix[depth + 1] = union(prefix[depth], signatures[indices[depth]])
    while True:
        yield indices, prefix[size - 1], signatures[indices[size - 1]]
        # Advance to the next combination, recomputing only the prefix
        # unions right of the bumped position.
        position = size - 1
        while position >= 0 and indices[position] == position + n - size:
            position -= 1
        if position < 0 or (position == 0 and indices[0] + 1 >= first_hi):
            return
        indices[position] += 1
        for depth in range(position + 1, size):
            indices[depth] = indices[depth - 1] + 1
        for depth in range(position, size - 1):
            prefix[depth + 1] = union(prefix[depth], signatures[indices[depth]])


def _first_index_blocks(n: int, size: int, jobs: int) -> List[Tuple[int, int]]:
    """Partition the first indices ``[0, n - size + 1)`` into at most ``jobs``
    contiguous blocks of near-equal subset count (index ``i`` leads
    ``C(n-1-i, size-1)`` subsets)."""
    n_firsts = n - size + 1
    jobs = min(jobs, n_firsts)
    weights = [math.comb(n - 1 - i, size - 1) for i in range(n_firsts)]
    remaining = sum(weights)
    blocks: List[Tuple[int, int]] = []
    lo, acc = 0, 0
    for i, weight in enumerate(weights):
        acc += weight
        blocks_left = jobs - len(blocks)
        if (
            blocks_left > 1
            and n_firsts - (i + 1) >= blocks_left - 1
            and acc * blocks_left >= remaining
        ):
            blocks.append((lo, i + 1))
            remaining -= acc
            lo, acc = i + 1, 0
    blocks.append((lo, n_firsts))
    return blocks


def _lex_rank(indices: Sequence[int], n: int, size: int) -> int:
    """0-based rank of a combination in the lexicographic enumeration."""
    rank, prev = 0, -1
    for depth, index in enumerate(indices):
        for j in range(prev + 1, index):
            rank += math.comb(n - 1 - j, size - 1 - depth)
        prev = index
    return rank


def _prefix_runs(
    signatures: Sequence[Any],
    backend: SignatureBackend,
    size: int,
    first_lo: int = 0,
    first_hi: Optional[int] = None,
) -> Iterator[Tuple[Tuple[int, ...], Any, int, int]]:
    """The block kernel's view of the frontier: maximal runs of size-``size``
    subsets sharing their first ``size - 1`` indices.

    Yields ``(prefix_indices, prefix_union, last_lo, last_hi)`` — the run's
    subsets are ``prefix_indices + (j,)`` for ``j`` in ``[last_lo, last_hi)``,
    i.e. contiguous *rows* of the stacked signature matrix, which is what
    lets one broadcast union/dominance/digest op evaluate the whole run.
    Runs appear in lexicographic prefix order, so concatenating them (and the
    rows within each) reproduces :func:`_combination_frontier`'s enumeration
    exactly, including the ``[first_lo, first_hi)`` first-index sharding.
    One backend union per *run* replaces one per subset.
    """
    n = len(signatures)
    if size == 1:
        hi = n if first_hi is None else min(first_hi, n)
        if first_lo < hi:
            yield (), backend.empty(), first_lo, hi
        return
    union = backend.union
    for indices, rest, last_signature in _combination_frontier(
        signatures, backend, size - 1, first_lo, first_hi
    ):
        last_lo = indices[size - 2] + 1
        if last_lo >= n:
            continue  # prefix ends at n-1: no room for a last element
        yield tuple(indices), union(rest, last_signature), last_lo, n


def _block_chunks(
    signatures: Sequence[Any],
    backend: SignatureBackend,
    matrix: Any,
    size: int,
    block_size: int,
    first_lo: int = 0,
    first_hi: Optional[int] = None,
) -> Iterator[Tuple[List[Tuple[int, ...]], Any, List[bool], List[int]]]:
    """Materialise the size-``size`` frontier in chunks of up to
    ``block_size`` candidate subsets, one batched backend evaluation each.

    Chunks *span* prefix runs: boosted cells split the frontier into many
    short runs (a handful of rows each), so batching within a single run
    leaves the backend ops nothing to amortise.  Each chunk gathers rows
    across consecutive runs — splitting a run when it straddles the chunk
    boundary — stacks one prefix union per run piece, and makes a single
    ``block_scan`` + ``block_digests`` call.  Yields ``(subsets, unions,
    dominated, digests)`` with rows in exact serial lexicographic order, so
    consumers replaying the per-row branch logic stay bit-identical to the
    scalar sweep.
    """
    prefixes: List[Any] = []
    spans: List[Tuple[int, int, int]] = []
    metas: List[Tuple[Tuple[int, ...], int, int]] = []
    filled = 0

    def _evaluate() -> Tuple[List[Tuple[int, ...]], Any, List[bool], List[int]]:
        unions, dominated = backend.block_scan(
            matrix, backend.stack(prefixes), spans
        )
        digests = backend.block_digests(unions)
        subsets = [
            prefix_indices + (last,)
            for prefix_indices, lo, hi in metas
            for last in range(lo, hi)
        ]
        return subsets, unions, dominated, digests

    for prefix_indices, prefix, last_lo, last_hi in _prefix_runs(
        signatures, backend, size, first_lo, first_hi
    ):
        lo = last_lo
        while lo < last_hi:
            hi = min(lo + (block_size - filled), last_hi)
            prefixes.append(prefix)
            spans.append((len(prefixes) - 1, lo, hi))
            metas.append((prefix_indices, lo, hi))
            filled += hi - lo
            lo = hi
            if filled >= block_size:
                yield _evaluate()
                prefixes, spans, metas, filled = [], [], [], 0
    if spans:
        yield _evaluate()


# -- shard-worker plumbing ----------------------------------------------------

#: Frontier size below which a sharded search scans inline in the parent.
MIN_SHARDED_FRONTIER = 1024

#: Test hook: force the shard executor kind ("process" / "thread" / None).
_FORCE_EXECUTOR: Optional[str] = None

#: ``(token, signatures, backend, shared_budget, kernel, block_size,
#: matrix)`` — installed by the parent before the shard executor is created,
#: inherited by fork workers / shared by threads.  The shared budget (when
#: set) is the cancel token the shards poll; ``kernel``/``block_size`` pick
#: the shard execution strategy and ``matrix`` is the pre-stacked block
#: operand (``None`` under the scalar kernel).
_SHARD_CONTEXT: Optional[
    Tuple[
        int,
        List[Any],
        SignatureBackend,
        Optional[SharedBudgetState],
        str,
        int,
        Any,
    ]
] = None
_SHARD_TABLES: Dict[Tuple[int, int], Dict[int, List[Tuple[int, ...]]]] = {}
_SHARD_LOCK = threading.Lock()
#: Serialises sharded searches per process (one shard context at a time).
_SHARD_SEARCH_LOCK = threading.Lock()
_SHARD_TOKENS = itertools.count(1)


def _install_shard_context(
    token: int,
    signatures: List[Any],
    backend: SignatureBackend,
    shared_budget: Optional[SharedBudgetState] = None,
    kernel: str = "scalar",
    block_size: int = DEFAULT_BLOCK_SIZE,
    matrix: Any = None,
) -> None:
    global _SHARD_CONTEXT
    _SHARD_CONTEXT = (
        token, signatures, backend, shared_budget, kernel, block_size, matrix
    )


def _clear_shard_context() -> None:
    global _SHARD_CONTEXT
    _SHARD_CONTEXT = None
    with _SHARD_LOCK:
        _SHARD_TABLES.clear()


def _shard_context(
    token: int,
) -> Tuple[
    List[Any],
    SignatureBackend,
    Optional[SharedBudgetState],
    str,
    int,
    Any,
]:
    context = _SHARD_CONTEXT
    if context is None or context[0] != token:
        raise IdentifiabilityError(
            "sharded-search context is not installed in this worker"
        )
    return context[1], context[2], context[3], context[4], context[5], context[6]


def _make_shard_executor(jobs: int) -> Executor:
    """A fork process pool when possible, else threads.

    ``fork`` workers inherit the interned signatures (and the hash seed the
    digests depend on) zero-copy; threads share them outright.  ``spawn`` is
    never used — it would re-randomise the hash seed under the digests.
    """
    kind = _FORCE_EXECUTOR
    if kind is None:
        can_fork = (
            "fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon
        )
        kind = "process" if can_fork else "thread"
    if kind == "process":
        return ProcessPoolExecutor(
            max_workers=jobs, mp_context=multiprocessing.get_context("fork")
        )
    return ThreadPoolExecutor(max_workers=jobs)


def _subset_key(
    signatures: Sequence[Any], backend: SignatureBackend, indices: Sequence[int]
) -> Any:
    """Recompute the exact union key of a subset (digest verification)."""
    union = backend.union
    signature = backend.empty()
    for index in indices:
        signature = union(signature, signatures[index])
    return backend.key(signature)


def _shard_table(
    token: int, size: int, history: Tuple[Tuple[int, Tuple[int, ...]], ...]
) -> Dict[int, List[Tuple[int, ...]]]:
    """The digest → [subset, ...] table a shard probes: locally derived
    size-0/1 seeds first, then the shipped smaller-size history, in serial
    order.  Cached per ``(token, size)`` so threads (and a process worker
    handling several blocks) build it once.

    Seeds are digested by the active kernel's own digest function (scalar
    ``hash(key)`` vs the vectorized block fold) so one search only ever
    mixes one digest family — the history entries were produced by the same
    kernel at the smaller sizes."""
    with _SHARD_LOCK:
        cached = _SHARD_TABLES.get((token, size))
        if cached is not None:
            return cached
        signatures, backend, _, kernel, _, matrix = _shard_context(token)
        table: Dict[int, List[Tuple[int, ...]]] = {}
        if kernel == "block":
            empty_digest = backend.block_digests(
                backend.stack([backend.empty()])
            )[0]
            table.setdefault(empty_digest, []).append(())
            for index, digest in enumerate(backend.block_digests(matrix)):
                table.setdefault(digest, []).append((index,))
        else:
            key = backend.key
            table.setdefault(hash(key(backend.empty())), []).append(())
            for index in range(len(signatures)):
                table.setdefault(hash(key(signatures[index])), []).append(
                    (index,)
                )
        for digest, indices in history:
            table.setdefault(digest, []).append(indices)
        _SHARD_TABLES.clear()  # at most one (token, size) table is ever live
        _SHARD_TABLES[(token, size)] = table
        return table


def _scan_shard(
    task: Tuple[int, int, int, int, Tuple[Tuple[int, Tuple[int, ...]], ...]]
) -> Dict[str, Any]:
    """Scan one first-index block of one size — the shard worker body.

    Mirrors the serial sweep branch-for-branch (dominance first, then the
    table) over a view of the table that is a *subset* of the serial one, so
    a hit here is always a genuine serial collision position.  Digest matches
    are exact-verified by recomputing the candidate's union key; bucket order
    (seeds, history, then local entries) is serial order, so the first exact
    match is the earliest visible occurrence.

    When the shard context carries a shared budget, the scan polls it every
    :data:`~repro.resilience.budget.SHARD_POLL_STRIDE` subsets and stops
    early (``budget_stopped``); the parent then discards the whole incomplete
    size, so shard progress at the moment of expiry never leaks into the
    result.
    """
    token, size, first_lo, first_hi, history = task
    signatures, backend, shared_budget, kernel, block_size, matrix = (
        _shard_context(token)
    )
    table = _shard_table(token, size, history)
    if kernel == "block":
        return _scan_shard_block(
            size,
            first_lo,
            first_hi,
            signatures,
            backend,
            shared_budget,
            block_size,
            matrix,
            table,
        )
    union, key, is_subset = backend.union, backend.key, backend.is_subset
    local: Dict[int, List[Tuple[Tuple[int, ...], Any]]] = {}
    entries: List[Tuple[int, Tuple[int, ...]]] = []
    scanned = 0
    pending = 0
    stopped = False
    hit: Optional[Tuple[str, Tuple[int, ...], Optional[Tuple[int, ...]]]] = None
    for indices, rest, last_signature in _combination_frontier(
        signatures, backend, size, first_lo, first_hi
    ):
        scanned += 1
        if is_subset(last_signature, rest):
            hit = ("dominance", tuple(indices), None)
            break
        exact = key(union(rest, last_signature))
        digest = hash(exact)
        partner: Optional[Tuple[int, ...]] = None
        for candidate in table.get(digest, ()):
            if _subset_key(signatures, backend, candidate) == exact:
                partner = candidate
                break
        if partner is None:
            for candidate, candidate_key in local.get(digest, ()):
                if candidate_key == exact:
                    partner = candidate
                    break
        if partner is not None:
            hit = ("table", tuple(indices), partner)
            break
        subset = tuple(indices)
        entries.append((digest, subset))
        local.setdefault(digest, []).append((subset, exact))
        if shared_budget is not None:
            pending += 1
            if pending >= SHARD_POLL_STRIDE:
                if shared_budget.poll(pending):
                    stopped = True
                    pending = 0
                    break
                pending = 0
    if (
        shared_budget is not None
        and pending
        and shared_budget.poll(pending)
        and hit is None
    ):
        # The end-of-block flush observed expiry: report it, so a subset
        # budget landing inside this size discards the size no matter how the
        # frontier was partitioned (blocks smaller than the poll stride would
        # otherwise never notice).  A shard that found a hit stopped at a
        # genuine collision position instead and is not marked.
        stopped = True
    return {
        "scanned": scanned,
        "entries": entries,
        "hit": hit,
        "budget_stopped": stopped,
        "blocks": 0,
        "pruned": 0,
    }


def _scan_shard_block(
    size: int,
    first_lo: int,
    first_hi: int,
    signatures: Sequence[Any],
    backend: SignatureBackend,
    shared_budget: Optional[SharedBudgetState],
    block_size: int,
    matrix: Any,
    table: Dict[int, List[Tuple[int, ...]]],
) -> Dict[str, Any]:
    """The block-kernel body of :func:`_scan_shard`.

    Walks the same rows in the same order with the same branch priority
    (dominance, then table seeds/history, then local entries) and the same
    budget-poll cadence — ``scanned``/``entries``/``hit``/``budget_stopped``
    are bit-identical to the scalar shard's; only the per-row signature work
    is batched.  Digest matches are exact-verified by recomputing the
    candidate's union key, so the vectorized digest family needs no relation
    to the scalar one.
    """
    key = backend.key
    local: Dict[int, List[Tuple[int, ...]]] = {}
    entries: List[Tuple[int, Tuple[int, ...]]] = []
    scanned = 0
    pending = 0
    blocks = 0
    pruned = 0
    stopped = False
    hit: Optional[Tuple[str, Tuple[int, ...], Optional[Tuple[int, ...]]]] = None
    for subsets, unions, dominated, digests in _block_chunks(
        signatures, backend, matrix, size, block_size, first_lo, first_hi
    ):
        blocks += 1
        for j, digest in enumerate(digests):
            scanned += 1
            subset = subsets[j]
            if dominated[j]:
                hit = ("dominance", subset, None)
                break
            bucket = table.get(digest)
            local_bucket = local.get(digest)
            if bucket is None and local_bucket is None:
                # Clean digest miss: dedup'd without one exact key.
                pruned += 1
            else:
                exact = key(unions[j])
                partner: Optional[Tuple[int, ...]] = None
                for candidate in itertools.chain(
                    bucket or (), local_bucket or ()
                ):
                    if _subset_key(signatures, backend, candidate) == exact:
                        partner = candidate
                        break
                if partner is not None:
                    hit = ("table", subset, partner)
                    break
            entries.append((digest, subset))
            local.setdefault(digest, []).append(subset)
            if shared_budget is not None:
                pending += 1
                if pending >= SHARD_POLL_STRIDE:
                    if shared_budget.poll(pending):
                        stopped = True
                        pending = 0
                        break
                    pending = 0
        if hit is not None or stopped:
            break
    if (
        shared_budget is not None
        and pending
        and shared_budget.poll(pending)
        and hit is None
    ):
        # End-of-block flush observed expiry — same contract as the scalar
        # shard: report it so the parent discards the incomplete size.
        stopped = True
    return {
        "scanned": scanned,
        "entries": entries,
        "hit": hit,
        "budget_stopped": stopped,
        "blocks": blocks,
        "pruned": pruned,
    }


def _census_shard(task: Tuple[int, int, int, int]) -> List[Tuple[int, Tuple[int, ...]]]:
    """Digest census of one first-index block (separability/local queries):
    no dominance, no early stop — every subset's ``(digest, indices)``.

    A census has no sound partial result, so a shared budget makes the shard
    raise :class:`BudgetExceededError` (picklable: it propagates through the
    executor to the parent) instead of stopping quietly.
    """
    token, size, first_lo, first_hi = task
    signatures, backend, shared_budget, kernel, block_size, matrix = (
        _shard_context(token)
    )
    out: List[Tuple[int, Tuple[int, ...]]] = []
    pending = 0
    if kernel == "block":
        for subsets, _unions, _dominated, digests in _block_chunks(
            signatures, backend, matrix, size, block_size, first_lo, first_hi
        ):
            for j, digest in enumerate(digests):
                out.append((digest, subsets[j]))
                if shared_budget is not None:
                    pending += 1
                    if pending >= SHARD_POLL_STRIDE:
                        if shared_budget.poll(pending):
                            raise BudgetExceededError(
                                f"size-{size} subset census exceeded "
                                "its search budget"
                            )
                        pending = 0
        if shared_budget is not None and pending:
            shared_budget.poll(pending)
        return out
    union, key = backend.union, backend.key
    for indices, rest, last_signature in _combination_frontier(
        signatures, backend, size, first_lo, first_hi
    ):
        out.append((hash(key(union(rest, last_signature))), tuple(indices)))
        if shared_budget is not None:
            pending += 1
            if pending >= SHARD_POLL_STRIDE:
                if shared_budget.poll(pending):
                    raise BudgetExceededError(
                        f"size-{size} subset census exceeded its search budget"
                    )
                pending = 0
    if shared_budget is not None and pending:
        shared_budget.poll(pending)
    return out


def _merge_shard_results(
    results: Sequence[Dict[str, Any]],
    signatures: Sequence[Any],
    backend: SignatureBackend,
) -> Optional[Tuple[str, Tuple[int, ...], Optional[Tuple[int, ...]]]]:
    """Deterministic cross-shard merge of one size's scan results.

    Candidates are the worker hits plus every cross-shard duplicate among the
    surviving entries (digest-grouped, exact-verified, partnered with the
    earliest exact-equal occurrence).  Every candidate position is a genuine
    serial collision position, and every serial position before the first
    one was scanned and shipped by its shard, so the lexicographically
    smallest candidate *is* the serial sweep's first collision.
    """
    candidates: List[Tuple[Tuple[int, ...], str, Optional[Tuple[int, ...]]]] = []
    for result in results:
        hit = result["hit"]
        if hit is not None:
            kind, indices, partner = hit
            candidates.append((indices, kind, partner))
    buckets: Dict[int, List[Tuple[int, ...]]] = {}
    for result in results:
        for digest, indices in result["entries"]:
            buckets.setdefault(digest, []).append(indices)
    for members in buckets.values():
        if len(members) < 2:
            continue
        first_of: Dict[Any, Tuple[int, ...]] = {}
        for indices in members:
            exact = _subset_key(signatures, backend, indices)
            earlier = first_of.get(exact)
            if earlier is None:
                first_of[exact] = indices
            else:
                candidates.append((indices, "table", earlier))
    if not candidates:
        return None
    indices, kind, partner = min(candidates, key=lambda candidate: candidate[0])
    return kind, indices, partner


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
        The largest subset size whose subsets were fully enumerated.
    exhausted_search:
        True when the search hit its size cap without finding a collision.
    stats:
        :class:`SearchStats` diagnostics for the search that produced this
        result.  Excluded from equality/repr: two results are the same
        finding even when the work that produced them differed (e.g. serial
        vs sharded).
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
    backend:
        ``None`` (global policy), a backend name, or a
        :class:`~repro.engine.backends.SignatureBackend` instance.
    compress:
        Collapse duplicate path columns into a compressed universe (see
        :mod:`repro.engine.compress` for the soundness argument).  ``None``
        (the default) follows the global policy of
        :func:`~repro.engine.compress.select_compression`, which is on.
        Every result — µ, witnesses, ``searched_up_to``, separability
        tables, measurement vectors — is bit-identical either way; only the
        per-union cost changes.
    """

    def __init__(
        self,
        nodes: Sequence[Node],
        node_masks: Mapping[Node, int],
        n_paths: int,
        backend: BackendSpec = None,
        compress: Optional[bool] = None,
    ) -> None:
        self.nodes: Tuple[Node, ...] = tuple(nodes)
        self.n_paths = n_paths
        if compress is None:
            compress = compression_enabled()
        plan: Optional[CompressionPlan] = None
        if compress:
            plan, compressed_masks = compress_universe(
                self.nodes, node_masks, n_paths
            )
            if plan.is_identity:
                plan = None  # nothing merged or dropped: skip the indirection
            else:
                node_masks = compressed_masks
        self.compression = plan
        width = plan.n_compressed if plan is not None else n_paths
        self.backend: SignatureBackend = resolve_backend(backend, width)
        pack = self.backend.pack
        self._signatures = {node: pack(node_masks[node]) for node in self.nodes}
        key = self.backend.key
        self._keys = {
            node: key(signature) for node, signature in self._signatures.items()
        }

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
    def from_pathset(
        cls, pathset, backend: BackendSpec = None, compress: Optional[bool] = None
    ) -> "SignatureEngine":
        """Build an engine over a :class:`~repro.routing.paths.PathSet`'s
        node universe.

        Prefer :meth:`PathSet.engine() <repro.routing.paths.PathSet.engine>`,
        which memoises the engine per (universe, backend, compression).
        """
        masks = {node: pathset.paths_through(node) for node in pathset.nodes}
        return cls(pathset.nodes, masks, pathset.n_paths, backend, compress)

    @classmethod
    def from_universe(
        cls, universe, backend: BackendSpec = None, compress: Optional[bool] = None
    ) -> "SignatureEngine":
        """Build an engine over a :class:`~repro.failures.FailureUniverse`.

        Prefer :meth:`PathSet.engine(universe=...)
        <repro.routing.paths.PathSet.engine>`, which memoises per universe
        fingerprint.
        """
        return cls(
            universe.elements, universe.masks, universe.n_paths, backend, compress
        )

    @classmethod
    def from_delta(
        cls,
        parent: "SignatureEngine",
        elements: Sequence[Node],
        masks: Mapping[Node, int],
        n_paths: int,
        backend: BackendSpec = None,
        *,
        survivors: Mapping[int, int],
        added: Sequence[Tuple[int, Tuple[int, ...]]],
        dirty: Iterable[Node],
        element_remap: Optional[Mapping[int, int]] = None,
    ) -> "SignatureEngine":
        """Build the post-delta engine by patching ``parent`` instead of
        re-transposing and re-interning the whole universe.

        ``elements``/``masks``/``n_paths`` describe the **post-delta**
        universe; ``survivors`` maps surviving original path columns to their
        new positions, ``added`` lists the delta-added columns with their
        touch keys (see :meth:`CompressionPlan.patch
        <repro.engine.compress.CompressionPlan.patch>`), ``dirty`` names the
        elements whose rows a removed or added column touched, and
        ``element_remap`` translates parent element positions when the
        element list changed.

        Because the patched plan equals a fresh
        :func:`~repro.engine.compress.compress_universe` plan, every *clean*
        row — an element no removed or added column touches — equals its
        parent row up to the class-index remap induced by the patch, so it
        is translated bit-by-bit from the parent's packed signature (a walk
        over the compressed width, typically several times narrower than the
        original) instead of re-compressing its full mask.  Dirty rows are
        re-interned from their post-delta masks.  The result is structurally
        identical to ``SignatureEngine(elements, masks, n_paths, backend,
        True)``: same plan, same backend choice, same packed rows and keys.

        Raises :class:`~repro.exceptions.IdentifiabilityError` when the
        incremental route is unavailable (parent uncompressed, un-patchable
        plan, identity patch result, or a backend mismatch); callers fall
        back to the full constructor.
        """
        parent_plan = parent.compression
        if parent_plan is None:
            raise IdentifiabilityError(
                "parent engine is uncompressed; build the engine fresh"
            )
        plan = parent_plan.patch(
            survivors, added, n_paths, element_remap=element_remap
        )
        if plan.is_identity:
            # A fresh build would run uncompressed here; mirror it by bailing.
            raise IdentifiabilityError(
                "patched plan is the identity; build the engine fresh"
            )
        new_class_of = plan.class_of
        class_remap: Dict[int, int] = {}
        for old_class, group in enumerate(parent_plan.members):
            for column in group:
                new_column = survivors.get(column)
                if new_column is not None:
                    class_remap[old_class] = new_class_of[new_column]
                    break
            # A class whose columns were all removed stays unmapped: any row
            # containing it was touched by a removed column, hence dirty.

        engine = cls.__new__(cls)
        engine.nodes = tuple(elements)
        engine.n_paths = n_paths
        engine.compression = plan
        engine.backend = resolve_backend(backend, plan.n_compressed)
        pack = engine.backend.pack
        key = engine.backend.key
        parent_signatures = parent._signatures
        parent_bits = parent.backend.bits
        compress_mask = plan.compress_mask
        dirty_set = set(dirty)
        signatures: Dict[Node, Any] = {}
        keys: Dict[Node, Any] = {}
        for element in engine.nodes:
            if element in dirty_set or element not in parent_signatures:
                row = compress_mask(masks[element])
            else:
                try:
                    row = mask_from_indices(
                        [
                            class_remap[bit]
                            for bit in parent_bits(parent_signatures[element])
                        ]
                    )
                except KeyError as exc:  # pragma: no cover - delta-layer bug guard
                    raise IdentifiabilityError(
                        "clean row references a fully-removed class"
                    ) from exc
            signature = pack(row)
            signatures[element] = signature
            keys[element] = key(signature)
        engine._signatures = signatures
        engine._keys = keys
        return engine

    # -- signature accessors -------------------------------------------------
    def signature(self, node: Node):
        """The packed signature of ``P(v)``.

        Packed signatures (and the keys derived from them) live in the
        engine's internal column space — the compressed universe when
        ``self.compression`` is set.  They are opaque: compare them via
        :meth:`signature_key`, and use ``self.compression.expand_mask`` /
        ``expand_indices`` to translate back to original path indices.
        """
        try:
            return self._signatures[node]
        except KeyError as exc:
            raise IdentifiabilityError(
                f"{node!r} is not in the engine's element universe"
            ) from exc

    def signature_key(self, node: Node):
        """The hashable key of ``P(v)`` (equal keys iff equal path sets)."""
        try:
            return self._keys[node]
        except KeyError as exc:
            raise IdentifiabilityError(
                f"{node!r} is not in the engine's element universe"
            ) from exc

    def union_signature(self, nodes: Iterable[Node]):
        """The packed signature of ``P(U) = ∪_{u in U} P(u)``."""
        backend = self.backend
        signature = backend.empty()
        for node in nodes:
            signature = backend.union(signature, self.signature(node))
        return signature

    def union_key(self, nodes: Iterable[Node]):
        """The hashable key of ``P(U)``."""
        return self.backend.key(self.union_signature(nodes))

    def measurement_vector(self, failed: Iterable[Node]) -> Tuple[int, ...]:
        """The Boolean measurement of Equation (1): bit ``i`` is 1 iff path
        ``i`` crosses a node of ``failed``.

        Always reported over the **original** path indices: under
        compression the compressed indicator is mapped back through
        :meth:`CompressionPlan.expand_indicator
        <repro.engine.compress.CompressionPlan.expand_indicator>`.
        """
        return self.indicator_vector(self.union_signature(failed))

    def indicator_vector(self, signature) -> Tuple[int, ...]:
        """The original-width 0/1 vector of a packed signature."""
        if self.compression is not None:
            return self.compression.expand_indicator(self.backend.bits(signature))
        return self.backend.indicator_vector(signature)

    # -- equivalence classes -------------------------------------------------
    def equivalence_classes(
        self, nodes: Optional[Iterable[Node]] = None
    ) -> Tuple[Tuple[Node, ...], ...]:
        """Partition of the universe into signature equivalence classes.

        Nodes in the same class have identical ``P(v)`` and are therefore
        pairwise confusable.  Classes are ordered by first appearance in the
        canonical node order; members keep that order too.
        """
        grouped: Dict[object, List[Node]] = {}
        for node in self._resolve_universe(nodes):
            grouped.setdefault(self._keys[node], []).append(node)
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
        backend = self.backend
        empty_key = backend.key(backend.empty())
        seen: Dict[object, Node] = {}
        for node in universe:
            key = self._keys[node]
            if key == empty_key:
                return ConfusablePair(frozenset(), frozenset({node}))
            if key in seen:
                return ConfusablePair(frozenset({seen[key]}), frozenset({node}))
            seen[key] = node
        return None

    # -- subset enumeration --------------------------------------------------
    def iter_subset_signatures(
        self, sizes: Iterable[int], nodes: Optional[Iterable[Node]] = None
    ) -> Iterator[Tuple[Tuple[Node, ...], object]]:
        """Yield ``(subset, signature_key)`` for every subset of each size.

        Subsets of one size are produced in lexicographic (canonical node
        order) order — the same order as ``itertools.combinations`` — but the
        signature of each subset is built incrementally from its prefix, so
        the amortised cost per subset is a single backend union.
        """
        universe = self._resolve_universe(nodes)
        signatures = [self._signatures[node] for node in universe]
        backend = self.backend
        union, key = backend.union, backend.key
        n = len(universe)
        for size in sizes:
            if size < 0:
                raise IdentifiabilityError(f"subset size must be >= 0, got {size}")
            if size == 0:
                yield (), key(backend.empty())
                continue
            if size > n:
                continue
            for indices, rest, last_signature in _combination_frontier(
                signatures, backend, size
            ):
                yield (
                    tuple(universe[i] for i in indices),
                    key(union(rest, last_signature)),
                )

    def iter_subset_digests(
        self,
        sizes: Iterable[int],
        nodes: Optional[Iterable[Node]] = None,
        search_jobs: Optional[int] = None,
        kernel: Optional[str] = None,
        block_size: Optional[int] = None,
    ) -> Iterator[Tuple[Tuple[Node, ...], int]]:
        """Like :meth:`iter_subset_signatures` but yielding digests, sharding
        each large size across ``search_jobs`` workers and batching via the
        block kernel when ``kernel`` says so.

        Subsets still appear in exact serial (lexicographic) order.  Equal
        keys always share a digest; distinct keys may rarely collide, so
        digest-equal subsets must be exact-verified (e.g. via
        :meth:`union_key`) before being treated as confusable.  This is the
        substrate of the sharded local-identifiability sweep.

        One call uses one digest family throughout — callers bucket digests
        *across* sizes, so ``"auto"`` resolves per call against the backend
        alone (any vectorized backend engages the kernel) rather than per
        size.
        """
        jobs = resolve_search_jobs(search_jobs)
        universe = self._resolve_universe(nodes)
        signatures = [self._signatures[node] for node in universe]
        backend = self.backend
        requested = resolve_kernel(kernel)
        if requested == "auto":
            used_kernel = "block" if backend.vectorized_blocks else "scalar"
        else:
            used_kernel = requested
        block_rows = resolve_block_size(block_size)
        matrix = backend.stack(signatures) if used_kernel == "block" else None
        union, key = backend.union, backend.key
        n = len(universe)
        for size in sizes:
            if size < 0:
                raise IdentifiabilityError(f"subset size must be >= 0, got {size}")
            if size == 0:
                if used_kernel == "block":
                    yield (), backend.block_digests(
                        backend.stack([backend.empty()])
                    )[0]
                else:
                    yield (), hash(key(backend.empty()))
                continue
            if size > n:
                continue
            if jobs > 1 and math.comb(n, size) >= MIN_SHARDED_FRONTIER:
                token = next(_SHARD_TOKENS)
                with _SHARD_SEARCH_LOCK:
                    _install_shard_context(
                        token,
                        signatures,
                        backend,
                        None,
                        used_kernel,
                        block_rows,
                        matrix,
                    )
                    executor = _make_shard_executor(jobs)
                    try:
                        tasks = [
                            (token, size, lo, hi)
                            for lo, hi in _first_index_blocks(n, size, jobs)
                        ]
                        chunks = list(executor.map(_census_shard, tasks))
                    finally:
                        _clear_shard_context()
                        executor.shutdown()
                for chunk in chunks:
                    for digest, indices in chunk:
                        yield tuple(universe[i] for i in indices), digest
            elif used_kernel == "block":
                for subsets, _unions, _dominated, digests in _block_chunks(
                    signatures, backend, matrix, size, block_rows
                ):
                    for j, digest in enumerate(digests):
                        yield (
                            tuple(universe[i] for i in subsets[j]),
                            digest,
                        )
            else:
                for indices, rest, last_signature in _combination_frontier(
                    signatures, backend, size
                ):
                    yield (
                        tuple(universe[i] for i in indices),
                        hash(key(union(rest, last_signature))),
                    )

    # -- the exact µ search --------------------------------------------------
    def identifiability(
        self,
        max_size: Optional[int] = None,
        nodes: Optional[Iterable[Node]] = None,
        search_jobs: Optional[int] = None,
        budget: Optional[Budget] = None,
        kernel: Optional[str] = None,
        block_size: Optional[int] = None,
    ) -> IdentifiabilityResult:
        """Exact maximal identifiability of the (possibly restricted) universe.

        Semantics match the naive reference sweep exactly: the first subset
        size ``s`` at which two subsets of size ≤ s share a signature gives
        ``µ = s − 1``; searching up to the cap without a collision gives the
        exhausted result.  See the module docstring for the fast paths.

        ``search_jobs`` shards the per-size frontier across workers (``None``
        = the global policy, 0 = all cores); the result is **bit-identical**
        for every value — only wall-clock time and :attr:`.stats` change.

        ``budget`` (``None`` = the global :func:`budget_policy` limits)
        bounds the search cooperatively: on expiry the sweep stops at the
        last fully completed subset size and returns a *certified lower
        bound* — ``exhausted_search=False``, ``searched_up_to`` at the
        completed size, ``stats.budget_exhausted=True`` — exactly the
        truncated-µ semantics of an explicit ``max_size``, just decided at
        run time.  Sharded searches poll a shared cancel token and discard
        the incomplete size wholesale, so the truncation point stays at a
        size boundary for every ``search_jobs`` value.

        ``kernel`` picks the sweep's execution strategy (``None`` = the
        global :func:`kernel_policy`): ``"scalar"`` is the historical
        per-subset loop, ``"block"`` the batched block kernel (chunks of
        ``block_size`` rows), ``"auto"`` the kernel when the backend is
        vectorized and the frontier is large.  Results are **bit-identical**
        across kernels — only wall-clock time and :attr:`.stats` change.
        """
        universe = self._resolve_universe(nodes)
        if not universe:
            raise IdentifiabilityError("the element universe is empty")
        if max_size is not None and max_size < 0:
            raise IdentifiabilityError(f"max_size must be >= 0, got {max_size}")
        jobs = resolve_search_jobs(search_jobs)
        budget = resolve_budget(budget)
        requested_kernel = resolve_kernel(kernel)
        block_rows = resolve_block_size(block_size)
        n = len(universe)
        cap = n if max_size is None else min(max_size, n)
        # The frontier peaks at size min(cap, n // 2); resolve "auto" against
        # that single binomial rather than materialising the whole profile.
        peak = math.comb(n, min(cap, max(2, n // 2))) if cap >= 2 else 0
        used_kernel = _resolved_kernel(requested_kernel, self.backend, peak)
        if cap == 0:
            result = IdentifiabilityResult(
                value=0,
                witness=None,
                searched_up_to=0,
                exhausted_search=True,
                stats=SearchStats(jobs, 0, 0, 0, kernel=used_kernel),
            )
            _record_search(result.stats, sharded=False)
            return result

        # Size-0/size-1 fast path over the equivalence classes.
        witness = self._confusable_singletons(universe)
        if witness is not None:
            result = IdentifiabilityResult(
                value=0,
                witness=witness,
                searched_up_to=1,
                exhausted_search=False,
                stats=SearchStats(jobs, n + 1, 0, n + 1, kernel=used_kernel),
            )
            _record_search(result.stats, sharded=False)
            return result
        if cap == 1:
            result = IdentifiabilityResult(
                value=1,
                witness=None,
                searched_up_to=1,
                exhausted_search=True,
                stats=SearchStats(jobs, n + 1, 0, n + 1, kernel=used_kernel),
            )
            _record_search(result.stats, sharded=False)
            return result

        if jobs > 1:
            result = self._identifiability_sharded(
                universe, cap, jobs, budget, used_kernel, block_rows
            )
        elif used_kernel == "block":
            result = self._identifiability_block(universe, cap, budget, block_rows)
        else:
            result = self._identifiability_serial(universe, cap, budget)
        _record_search(result.stats, sharded=jobs > 1)
        return result

    @staticmethod
    def _budget_truncated(
        last_completed: int,
        jobs: int,
        enumerated: int,
        dominance: int,
        table_entries: int,
        shard_subsets: Tuple[int, ...] = (),
        kernel: str = "scalar",
        blocks_evaluated: int = 0,
        block_rows_pruned: int = 0,
    ) -> IdentifiabilityResult:
        """The well-formed truncation at the last fully completed size: a
        certified lower bound (every smaller size enumerated collision-free),
        flagged via ``stats.budget_exhausted`` rather than a size-cap
        exhaustion."""
        return IdentifiabilityResult(
            value=last_completed,
            witness=None,
            searched_up_to=last_completed,
            exhausted_search=False,
            stats=SearchStats(
                jobs,
                enumerated,
                dominance,
                table_entries,
                shard_subsets,
                budget_exhausted=True,
                kernel=kernel,
                blocks_evaluated=blocks_evaluated,
                block_rows_pruned=block_rows_pruned,
            ),
        )

    def _identifiability_serial(
        self, universe: Tuple[Node, ...], cap: int, budget: Optional[Budget] = None
    ) -> IdentifiabilityResult:
        """The serial sweep over sizes 2..cap (sizes 0/1 already excluded)."""
        backend = self.backend
        union, key, is_subset = backend.union, backend.key, backend.is_subset
        signatures = [self._signatures[node] for node in universe]
        n = len(universe)
        # Signature table over all subsets enumerated so far.  The singleton
        # pass found no collision, so seeding sizes 0 and 1 cannot collide.
        seen: Dict[object, Tuple[Node, ...]] = {key(backend.empty()): ()}
        for index, node in enumerate(universe):
            seen[key(signatures[index])] = (node,)
        enumerated = n + 1  # the ∅ + singleton subsets the fast path covered
        if budget is not None:
            budget.start()
            budget.spend(enumerated)
        for size in range(2, cap + 1):
            if budget is not None and budget.expired():
                return self._budget_truncated(
                    size - 1, 1, budget.consumed, 0, len(seen)
                )
            for indices, rest, last_signature in _combination_frontier(
                signatures, backend, size
            ):
                last = indices[size - 1]
                if is_subset(last_signature, rest):
                    # Dominance: P(last) ⊆ P(U∖{last}), so U collides with
                    # U∖{last} — certified without touching the table.
                    smaller = frozenset(universe[i] for i in indices[:-1])
                    return IdentifiabilityResult(
                        value=size - 1,
                        witness=ConfusablePair(
                            smaller, smaller | {universe[last]}
                        ),
                        searched_up_to=size,
                        exhausted_search=False,
                        stats=SearchStats(
                            1,
                            enumerated + _lex_rank(indices, n, size) + 1,
                            1,
                            len(seen),
                        ),
                    )
                signature_key = key(union(rest, last_signature))
                partner = seen.get(signature_key)
                if partner is not None:
                    subset = tuple(universe[i] for i in indices)
                    return IdentifiabilityResult(
                        value=size - 1,
                        witness=ConfusablePair(frozenset(partner), frozenset(subset)),
                        searched_up_to=size,
                        exhausted_search=False,
                        stats=SearchStats(
                            1,
                            enumerated + _lex_rank(indices, n, size) + 1,
                            0,
                            len(seen),
                        ),
                    )
                seen[signature_key] = tuple(universe[i] for i in indices)
                if budget is not None and budget.spend():
                    # Mid-size expiry: discard the partial size and stop at
                    # the previous (fully enumerated) size boundary.
                    return self._budget_truncated(
                        size - 1, 1, budget.consumed, 0, len(seen)
                    )
            enumerated += math.comb(n, size)
        return IdentifiabilityResult(
            value=cap,
            witness=None,
            searched_up_to=cap,
            exhausted_search=True,
            stats=SearchStats(1, enumerated, 0, len(seen)),
        )

    def _identifiability_block(
        self,
        universe: Tuple[Node, ...],
        cap: int,
        budget: Optional[Budget],
        block_size: int,
    ) -> IdentifiabilityResult:
        """The serial block-kernel sweep: bit-identical to
        :meth:`_identifiability_serial`, row for row.

        The frontier is materialised in ``block_size``-row chunks spanning
        prefix runs (:func:`_block_chunks`), each evaluated with three
        batched backend ops (union broadcast, dominance reduction, digest
        fold); the per-row Python loop then does dict work only.  The digest
        table spans all sizes like the scalar ``seen`` table but keys on the
        vectorized digests, exact-verifying matches by recomputing the
        candidate's union key (bucket order is serial order, so the first
        exact match is the scalar sweep's partner).  Budget spend cadence —
        one :meth:`~repro.resilience.budget.Budget.spend` per *inserted*
        row — matches the scalar sweep exactly, so subset-budget truncation
        points are unchanged.
        """
        backend = self.backend
        key = backend.key
        signatures = [self._signatures[node] for node in universe]
        matrix = backend.stack(signatures)
        n = len(universe)
        # digest -> [indices, ...] in first-appearance (serial) order, seeded
        # with the ∅/singleton subsets the fast path certified distinct —
        # digested by the same vectorized fold the block rows use.
        table: Dict[int, List[Tuple[int, ...]]] = {}
        empty_digest = backend.block_digests(backend.stack([backend.empty()]))[0]
        table[empty_digest] = [()]
        for index, digest in enumerate(backend.block_digests(matrix)):
            table.setdefault(digest, []).append((index,))
        entries = 1 + n  # mirrors len(seen) of the scalar sweep
        enumerated = n + 1
        blocks_evaluated = 0
        rows_pruned = 0
        if budget is not None:
            budget.start()
            budget.spend(enumerated)
        for size in range(2, cap + 1):
            if budget is not None and budget.expired():
                return self._budget_truncated(
                    size - 1, 1, budget.consumed, 0, entries,
                    kernel="block",
                    blocks_evaluated=blocks_evaluated,
                    block_rows_pruned=rows_pruned,
                )
            for subsets, unions, dominated, digests in _block_chunks(
                signatures, backend, matrix, size, block_size
            ):
                blocks_evaluated += 1
                for j, digest in enumerate(digests):
                    indices = subsets[j]
                    if dominated[j]:
                        # Dominance: P(last) ⊆ P(U∖{last}) — certified
                        # without touching the table, like the scalar
                        # sweep (on a collision row dominance wins).
                        smaller = frozenset(
                            universe[i] for i in indices[:-1]
                        )
                        return IdentifiabilityResult(
                            value=size - 1,
                            witness=ConfusablePair(
                                smaller,
                                smaller | {universe[indices[-1]]},
                            ),
                            searched_up_to=size,
                            exhausted_search=False,
                            stats=SearchStats(
                                1,
                                enumerated + _lex_rank(indices, n, size) + 1,
                                1,
                                entries,
                                kernel="block",
                                blocks_evaluated=blocks_evaluated,
                                block_rows_pruned=rows_pruned,
                            ),
                        )
                    bucket = table.get(digest)
                    if bucket is None:
                        table[digest] = [indices]
                        rows_pruned += 1
                    else:
                        exact = key(unions[j])
                        partner: Optional[Tuple[int, ...]] = None
                        for candidate in bucket:
                            if (
                                _subset_key(signatures, backend, candidate)
                                == exact
                            ):
                                partner = candidate
                                break
                        if partner is not None:
                            return IdentifiabilityResult(
                                value=size - 1,
                                witness=ConfusablePair(
                                    frozenset(universe[i] for i in partner),
                                    frozenset(universe[i] for i in indices),
                                ),
                                searched_up_to=size,
                                exhausted_search=False,
                                stats=SearchStats(
                                    1,
                                    enumerated
                                    + _lex_rank(indices, n, size)
                                    + 1,
                                    0,
                                    entries,
                                    kernel="block",
                                    blocks_evaluated=blocks_evaluated,
                                    block_rows_pruned=rows_pruned,
                                ),
                            )
                        bucket.append(indices)
                    entries += 1
                    if budget is not None and budget.spend():
                        # Mid-size expiry: discard the partial size, stop
                        # at the previous completed size boundary.
                        return self._budget_truncated(
                            size - 1, 1, budget.consumed, 0, entries,
                            kernel="block",
                            blocks_evaluated=blocks_evaluated,
                            block_rows_pruned=rows_pruned,
                        )
            enumerated += math.comb(n, size)
        return IdentifiabilityResult(
            value=cap,
            witness=None,
            searched_up_to=cap,
            exhausted_search=True,
            stats=SearchStats(
                1,
                enumerated,
                0,
                entries,
                kernel="block",
                blocks_evaluated=blocks_evaluated,
                block_rows_pruned=rows_pruned,
            ),
        )

    def _identifiability_sharded(
        self,
        universe: Tuple[Node, ...],
        cap: int,
        jobs: int,
        budget: Optional[Budget] = None,
        kernel: str = "scalar",
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> IdentifiabilityResult:
        """The sharded sweep: bit-identical to :meth:`_identifiability_serial`
        (see the module docstring for the merge argument).

        Under a budget the shards poll a shared cancel token (a
        :class:`SharedBudgetState` installed in the shard context before the
        executor exists, so ``fork`` workers inherit it and threads share
        it).  Any shard stopping early marks the size incomplete and the
        parent discards it wholesale — the merge stays deterministic at
        completed-size granularity regardless of how far each shard got.

        ``kernel``/``block_size`` pick the shard execution strategy: under
        ``"block"`` every shard runs the block kernel over its first-index
        block (the stacked matrix is installed in the shard context, so
        ``fork`` workers inherit it zero-copy).  Shard scan order, entries
        and budget polling are row-identical either way.
        """
        backend = self.backend
        signatures = [self._signatures[node] for node in universe]
        matrix = backend.stack(signatures) if kernel == "block" else None
        n = len(universe)
        token = next(_SHARD_TOKENS)
        history: List[Tuple[int, Tuple[int, ...]]] = []
        enumerated = n + 1
        dominance = 0
        blocks_evaluated = 0
        rows_pruned = 0
        shard_subsets: Tuple[int, ...] = ()
        executor: Optional[Executor] = None
        shared_budget: Optional[SharedBudgetState] = None
        if budget is not None:
            budget.start()
            budget.spend(enumerated)
            shared_budget = budget.share()
        with _SHARD_SEARCH_LOCK:
            _install_shard_context(
                token,
                signatures,
                backend,
                shared_budget,
                kernel,
                block_size,
                matrix,
            )
            try:
                for size in range(2, cap + 1):
                    if budget is not None:
                        budget.sync_from(shared_budget)
                        if budget.expired():
                            return self._budget_truncated(
                                size - 1,
                                jobs,
                                budget.consumed,
                                dominance,
                                1 + n + len(history),
                                shard_subsets,
                                kernel=kernel,
                                blocks_evaluated=blocks_evaluated,
                                block_rows_pruned=rows_pruned,
                            )
                    if math.comb(n, size) >= MIN_SHARDED_FRONTIER:
                        blocks = _first_index_blocks(n, size, jobs)
                    else:
                        blocks = [(0, n - size + 1)]
                    history_tuple = tuple(history)
                    tasks = [
                        (token, size, lo, hi, history_tuple) for lo, hi in blocks
                    ]
                    if len(tasks) > 1:
                        if executor is None:
                            executor = _make_shard_executor(jobs)
                        results = list(executor.map(_scan_shard, tasks))
                    else:
                        results = [_scan_shard(tasks[0])]
                    scanned = tuple(result["scanned"] for result in results)
                    enumerated += sum(scanned)
                    shard_subsets = scanned
                    blocks_evaluated += sum(
                        result.get("blocks", 0) for result in results
                    )
                    rows_pruned += sum(
                        result.get("pruned", 0) for result in results
                    )
                    if any(result.get("budget_stopped") for result in results):
                        # A shard hit the shared budget: the size is
                        # incomplete, so discard it wholesale (even a found
                        # hit — using partial-size information would make the
                        # result depend on shard scheduling).
                        if budget is not None:
                            budget.sync_from(shared_budget)
                        return self._budget_truncated(
                            size - 1,
                            jobs,
                            enumerated,
                            dominance,
                            1 + n + len(history),
                            scanned,
                            kernel=kernel,
                            blocks_evaluated=blocks_evaluated,
                            block_rows_pruned=rows_pruned,
                        )
                    dominance += sum(
                        1
                        for result in results
                        if result["hit"] is not None
                        and result["hit"][0] == "dominance"
                    )
                    candidate = _merge_shard_results(results, signatures, backend)
                    if candidate is not None:
                        kind, indices, partner = candidate
                        table_entries = (
                            1
                            + n
                            + len(history)
                            + sum(len(result["entries"]) for result in results)
                        )
                        if kind == "dominance":
                            smaller = frozenset(universe[i] for i in indices[:-1])
                            witness = ConfusablePair(
                                smaller, smaller | {universe[indices[-1]]}
                            )
                        else:
                            assert partner is not None
                            witness = ConfusablePair(
                                frozenset(universe[i] for i in partner),
                                frozenset(universe[i] for i in indices),
                            )
                        return IdentifiabilityResult(
                            value=size - 1,
                            witness=witness,
                            searched_up_to=size,
                            exhausted_search=False,
                            stats=SearchStats(
                                jobs,
                                enumerated,
                                dominance,
                                table_entries,
                                scanned,
                                kernel=kernel,
                                blocks_evaluated=blocks_evaluated,
                                block_rows_pruned=rows_pruned,
                            ),
                        )
                    for result in results:
                        history.extend(result["entries"])
                return IdentifiabilityResult(
                    value=cap,
                    witness=None,
                    searched_up_to=cap,
                    exhausted_search=True,
                    stats=SearchStats(
                        jobs,
                        enumerated,
                        dominance,
                        1 + n + len(history),
                        shard_subsets,
                        kernel=kernel,
                        blocks_evaluated=blocks_evaluated,
                        block_rows_pruned=rows_pruned,
                    ),
                )
            finally:
                _clear_shard_context()
                if executor is not None:
                    executor.shutdown()

    # -- separation queries --------------------------------------------------
    def separates(self, first: Iterable[Node], second: Iterable[Node]) -> bool:
        """Whether some measurement path touches exactly one of the two sets."""
        return self.union_key(first) != self.union_key(second)

    @staticmethod
    def _groups_from_digest_entries(
        entries: Iterable[Tuple[int, Tuple[int, ...]]],
        signatures: Sequence[Any],
        backend: SignatureBackend,
    ) -> List[List[Tuple[int, ...]]]:
        """Exact signature-equality groups from ``(digest, indices)`` census
        entries: digest buckets, exact-verified splits (recomputed union
        keys), sorted into first-appearance order."""
        buckets: Dict[int, List[Tuple[int, ...]]] = {}
        for digest, indices in entries:
            buckets.setdefault(digest, []).append(indices)
        groups: List[List[Tuple[int, ...]]] = []
        for members in buckets.values():
            if len(members) == 1:
                groups.append(members)
                continue
            by_key: Dict[Any, List[Tuple[int, ...]]] = {}
            for indices in members:
                by_key.setdefault(
                    _subset_key(signatures, backend, indices), []
                ).append(indices)
            groups.extend(by_key.values())
        # First-appearance order == ascending first member (lexicographic).
        groups.sort(key=lambda members: members[0])
        return groups

    def _subset_census(
        self,
        universe: Tuple[Node, ...],
        size: int,
        jobs: int,
        budget: Optional[Budget] = None,
        kernel: str = "scalar",
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> List[List[Tuple[int, ...]]]:
        """Signature-equality groups of all size-``size`` subsets, ordered by
        first appearance (groups and members in lexicographic order) —
        computed serially or via the digest census shards, with the scalar
        or block kernel, identically.

        A census is all-or-nothing: an expired ``budget`` raises
        :class:`BudgetExceededError` (a partially enumerated census would be
        silently wrong, not a certified lower bound)."""
        signatures = [self._signatures[node] for node in universe]
        backend = self.backend
        n = len(universe)
        if budget is not None:
            budget.start()
        if jobs <= 1 or size > n or math.comb(n, size) < MIN_SHARDED_FRONTIER:
            if kernel == "block":
                matrix = backend.stack(signatures)
                entries: List[Tuple[int, Tuple[int, ...]]] = []
                for subsets, _unions, _dominated, digests in _block_chunks(
                    signatures, backend, matrix, size, block_size
                ):
                    for j, digest in enumerate(digests):
                        entries.append((digest, subsets[j]))
                        if budget is not None and budget.spend():
                            raise BudgetExceededError(
                                f"size-{size} subset census exceeded "
                                "its search budget"
                            )
                return self._groups_from_digest_entries(
                    entries, signatures, backend
                )
            union, key = backend.union, backend.key
            exact_groups: Dict[Any, List[Tuple[int, ...]]] = {}
            for indices, rest, last_signature in _combination_frontier(
                signatures, backend, size
            ):
                exact_groups.setdefault(
                    key(union(rest, last_signature)), []
                ).append(tuple(indices))
                if budget is not None and budget.spend():
                    raise BudgetExceededError(
                        f"size-{size} subset census exceeded its search budget"
                    )
            return list(exact_groups.values())
        matrix = backend.stack(signatures) if kernel == "block" else None
        token = next(_SHARD_TOKENS)
        shared_budget = budget.share() if budget is not None else None
        with _SHARD_SEARCH_LOCK:
            _install_shard_context(
                token,
                signatures,
                backend,
                shared_budget,
                kernel,
                block_size,
                matrix,
            )
            executor = _make_shard_executor(jobs)
            try:
                tasks = [
                    (token, size, lo, hi)
                    for lo, hi in _first_index_blocks(n, size, jobs)
                ]
                shard_entries = [
                    entry
                    for chunk in executor.map(_census_shard, tasks)
                    for entry in chunk
                ]
            finally:
                _clear_shard_context()
                executor.shutdown()
        if budget is not None:
            budget.sync_from(shared_budget)
        return self._groups_from_digest_entries(
            shard_entries, signatures, backend
        )

    def separability_matrix(
        self,
        size: int,
        nodes: Optional[Iterable[Node]] = None,
        search_jobs: Optional[int] = None,
        budget: Optional[Budget] = None,
        kernel: Optional[str] = None,
        block_size: Optional[int] = None,
    ) -> Dict[Tuple[FrozenSet[Node], FrozenSet[Node]], bool]:
        """Pairwise separation table for all subsets of a given size.

        An expired ``budget`` raises :class:`BudgetExceededError` — see
        :meth:`_subset_census` for why there is no partial table."""
        if size < 1:
            raise IdentifiabilityError(f"size must be >= 1, got {size}")
        jobs = resolve_search_jobs(search_jobs)
        budget = resolve_budget(budget)
        universe = self._resolve_universe(nodes)
        used_kernel = _resolved_kernel(
            resolve_kernel(kernel),
            self.backend,
            math.comb(len(universe), size) if size <= len(universe) else 0,
        )
        groups = self._subset_census(
            universe, size, jobs, budget, used_kernel,
            resolve_block_size(block_size),
        )
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
        search_jobs: Optional[int] = None,
        budget: Optional[Budget] = None,
        kernel: Optional[str] = None,
        block_size: Optional[int] = None,
    ) -> Tuple[Tuple[FrozenSet[Node], FrozenSet[Node]], ...]:
        """All unordered pairs of same-size subsets with identical path sets.

        An expired ``budget`` raises :class:`BudgetExceededError` — see
        :meth:`_subset_census` for why there is no partial census."""
        if size < 1:
            raise IdentifiabilityError(f"size must be >= 1, got {size}")
        jobs = resolve_search_jobs(search_jobs)
        budget = resolve_budget(budget)
        universe = self._resolve_universe(nodes)
        used_kernel = _resolved_kernel(
            resolve_kernel(kernel),
            self.backend,
            math.comb(len(universe), size) if size <= len(universe) else 0,
        )
        pairs: List[Tuple[FrozenSet[Node], FrozenSet[Node]]] = []
        for members in self._subset_census(
            universe, size, jobs, budget, used_kernel,
            resolve_block_size(block_size),
        ):
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
        width = (
            f"columns={self.n_columns}" if self.compression is not None else "raw"
        )
        return (
            f"SignatureEngine(|V|={len(self.nodes)}, |P|={self.n_paths}, "
            f"{width}, classes={len(classes)}, backend={self.backend.name})"
        )
