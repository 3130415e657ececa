"""Keyed cache over path-set enumeration (and, transitively, signatures).

Enumerating ``P(G|χ)`` is by far the most expensive step of every experiment
row — ``networkx.all_simple_paths`` over all monitor pairs — and the table
drivers routinely revisit the same ``(graph, placement, mechanism)`` triple
(both dimension rules on the same network, repeated µ_α levels, ablation
variants sharing a baseline).  :class:`PathSetCache` memoises the enumerated
:class:`~repro.routing.paths.PathSet` under a key of exactly what the
enumeration reads — the graph's directedness and adjacency in iteration
order (:func:`graph_fingerprint`), the placement, the mechanism and the
enumeration limits — so rebuilding a graph with the same adjacency still
hits, and a graph whose adjacency order differs (which permutes the paths)
does not.

An evolved scenario (:meth:`Scenario.evolve
<repro.api.scenario.Scenario.evolve>`) looks its path set up through
:meth:`PathSetCache.get_or_enumerate` like any other, under its post-delta
inputs, so a fresh scenario of the post-delta spec shares its entry, and two
delta routes that reach one adjacency share one entry.
:meth:`PathSetCache.get_or_evolve`, the same lookup with a caller-supplied
build, is no longer called by the library.

Because the cached object is the same :class:`PathSet` instance, the
signature engines memoised on it (:meth:`PathSet.engine`) are reused too: a
cache hit skips the path enumeration, the signature interning *and* the
duplicate-column compression.  The failure universe does not belong in the
enumeration key — it is an engine-level axis, keyed on the :class:`PathSet`
itself (engines and their compression plans are memoised per universe
*fingerprint*) — so one cache entry serves every universe: a node-mode and a
link-mode measurement of the same ``(graph, placement, mechanism)`` triple
enumerate paths exactly once.

:func:`pathset_cache` is the process-wide instance a cached
:class:`~repro.api.scenario.Scenario` enumerates through;
:func:`cache_stats` / :func:`clear_pathset_cache` expose it to the CLI and
to tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Tuple

from repro._typing import AnyGraph
from repro.monitors.placement import MonitorPlacement
from repro.routing.mechanisms import RoutingMechanism
from repro.routing.paths import (
    DEFAULT_CUTOFF,
    DEFAULT_MAX_PATHS,
    PathSet,
    enumerate_paths,
)
from repro.utils.counters import KeyedLRU


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction counters of a :class:`PathSetCache`."""

    hits: int
    misses: int
    size: int
    #: Entries silently dropped by the LRU bound.  A high eviction count with
    #: a low hit rate means the working set exceeds ``maxsize`` — the cache
    #: is thrashing, not helping.
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"pathset cache: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%}), {self.size} entries, "
            f"{self.evictions} evictions"
        )


def graph_fingerprint(graph: AnyGraph) -> Hashable:
    """A hashable content key for a graph: directedness and adjacency.

    Exactly what the path enumerator reads (the positional adjacency
    snapshot of :mod:`repro.routing.paths`): every node with its neighbours,
    both in ``graph.adj`` iteration order.  The order is part of the key
    because it fixes the class discovery and depth-first orders, hence the
    column order of the enumerated paths; a graph whose link was removed and
    re-added lists that neighbour last and can enumerate a permutation of
    the original family.
    Equal-adjacency graphs — even distinct objects — share a key.
    """
    adj = graph.adj
    return (graph.is_directed(), tuple((u, tuple(adj[u])) for u in adj))


def normalize_limits(
    cutoff: Optional[int] = DEFAULT_CUTOFF,
    max_paths: Optional[int] = DEFAULT_MAX_PATHS,
) -> Tuple[Optional[int], int]:
    """Canonicalise the enumeration limits of a request.

    ``None`` for either limit means "the default" (no cutoff, the module's
    path-explosion guard), so a caller that spells the defaults explicitly —
    or passes ``max_paths=None`` where another passes nothing — always lands
    on the same cache key.  A non-positive cutoff admits no path at all and
    is rejected outright rather than silently cached.
    """
    if cutoff is None:
        cutoff = DEFAULT_CUTOFF
    elif cutoff < 1:
        raise ValueError(f"cutoff must be >= 1 edge (or None), got {cutoff}")
    if max_paths is None:
        max_paths = DEFAULT_MAX_PATHS
    return cutoff, max_paths


#: Default LRU bound of a :class:`PathSetCache` (the historical hard-coded
#: value; tune per process via :meth:`PathSetCache.resize`, or per service
#: via ``repro-serve --cache-size``).
DEFAULT_CACHE_MAXSIZE = 128


class PathSetCache(KeyedLRU[PathSet]):
    """LRU cache of enumerated path sets keyed by enumeration inputs.

    A :class:`~repro.utils.counters.KeyedLRU`: thread-safe, so concurrent
    lookups from a service's async handlers and worker threads keep
    ``hits + misses == lookups`` exact.  The enumeration itself runs
    *outside* the lock — two threads racing on the same cold key may both
    enumerate, but only the first insert wins and both callers
    receive the same cached instance, so the engines memoised on it stay
    shared.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_MAXSIZE) -> None:
        super().__init__(maxsize)

    def get_or_enumerate(
        self,
        graph: AnyGraph,
        placement: MonitorPlacement,
        mechanism: RoutingMechanism | str = RoutingMechanism.CSP,
        cutoff: Optional[int] = DEFAULT_CUTOFF,
        max_paths: Optional[int] = DEFAULT_MAX_PATHS,
    ) -> PathSet:
        """The cached :class:`PathSet`, enumerating on first sight of the key."""
        mechanism = RoutingMechanism.parse(mechanism)
        cutoff, max_paths = normalize_limits(cutoff, max_paths)
        key = (graph_fingerprint(graph), placement, mechanism, cutoff, max_paths)
        return self.get_or_build(
            key,
            lambda: enumerate_paths(graph, placement, mechanism, cutoff, max_paths),
        )[0]

    def get_or_evolve(
        self,
        graph: AnyGraph,
        placement: MonitorPlacement,
        mechanism: RoutingMechanism | str,
        cutoff: Optional[int],
        max_paths: Optional[int],
        build: Callable[[], PathSet],
    ) -> PathSet:
        """The cached *evolved* path set, built by ``build`` on a miss.

        ``graph`` and ``placement`` are the **post-delta** inputs, and the
        entry is keyed on them exactly as :meth:`get_or_enumerate` keys a
        fresh enumeration.  No library path calls it: an evolved scenario
        enumerates through :meth:`get_or_enumerate`.  It stays, with its
        tests, while the benchmark's span table (``perfbench/spans.py``)
        names it.
        """
        mechanism = RoutingMechanism.parse(mechanism)
        cutoff, max_paths = normalize_limits(cutoff, max_paths)
        key = (graph_fingerprint(graph), placement, mechanism, cutoff, max_paths)
        return self.get_or_build(key, build)[0]

    def resize(self, maxsize: int) -> None:
        """Change the LRU bound, evicting oldest entries down to it.

        How the service ``--cache-size`` knob reaches the process cache: the
        bound was hard-coded at :data:`DEFAULT_CACHE_MAXSIZE` before, which a
        long-lived server's working set cannot live with.
        """
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        with self._lock:
            self.maxsize = maxsize
            self._evict()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(size=len(self._entries), **self.counters.snapshot())


#: The process-wide cache every cached scenario enumerates through.
_GLOBAL_CACHE = PathSetCache()


def pathset_cache() -> PathSetCache:
    """The global :class:`PathSetCache` instance."""
    return _GLOBAL_CACHE


def cache_stats() -> CacheStats:
    """Counters of the global cache."""
    return _GLOBAL_CACHE.stats()


def clear_pathset_cache() -> None:
    """Reset the global cache.

    Called once per :func:`repro.experiments.runner.run` invocation — not
    between the groups inside an ``--tables all`` run, which deliberately
    share entries — and by tests that need pristine counters.
    """
    _GLOBAL_CACHE.clear()
