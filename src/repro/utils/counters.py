"""Named process counters and the keyed LRU both library caches share.

A :class:`Counters` table is every count the library keeps: the subset
search (``--search-stats``), the trial pool's fault handling, and the hits,
misses and evictions of the path-set and scenario caches.  Each is a fixed
set of named ints under one lock.  A pool worker snapshots its tables
around a trial and ships the difference; the parent folds it in with
:meth:`Counters.merge`, so one loop merges every table.

:class:`KeyedLRU` is the cache both :class:`~repro.engine.cache.PathSetCache`
and :class:`~repro.service.cache.ScenarioCache` are: a lock-protected LRU
that builds a missing entry outside the lock (a build can take seconds),
lets the first insert of a racing build win, and counts through its own
:class:`Counters`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import (
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterable,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

V = TypeVar("V")


class Counters:
    """Named ints under one lock: ``add``, ``snapshot``, ``merge``, ``reset``.

    The names are fixed at construction (in snapshot order); adding to an
    unknown name raises :class:`KeyError`.
    """

    __slots__ = ("_values", "_lock")

    def __init__(self, names: Iterable[str]) -> None:
        self._values: Dict[str, int] = dict.fromkeys(names, 0)
        self._lock = threading.Lock()

    def add(self, name: str, count: int = 1) -> None:
        with self._lock:
            self._values[name] += count

    def snapshot(self) -> Dict[str, int]:
        """A copy of every count, in construction order."""
        with self._lock:
            return dict(self._values)

    def merge(self, delta: Mapping[str, int]) -> None:
        """Add every count of ``delta`` (say, a pool worker's difference of
        two snapshots).  A delta naming an unknown counter or holding a
        negative count is rejected whole, before anything is added."""
        for name, count in delta.items():
            if name not in self._values:
                raise KeyError(f"unknown counter {name!r}")
            if count < 0:
                raise ValueError(f"counter deltas must be >= 0, got {name}={count}")
        with self._lock:
            for name, count in delta.items():
                self._values[name] += count

    def reset(self) -> None:
        """Zero every count."""
        with self._lock:
            for name in self._values:
                self._values[name] = 0


class KeyedLRU(Generic[V]):
    """Lock-protected LRU of built values, bounded by entry count and, when
    ``max_bytes`` is set, by the total ``sizeof`` of its entries.

    :meth:`get_or_build` looks a key up and counts a hit or a miss under the
    lock, but builds a missing value outside it, so a slow build never
    serialises other lookups.  Two threads racing on one cold key may both
    build; the first insert wins and both callers get that value.  At least
    one entry is always kept, so a single value larger than ``max_bytes``
    is still cached.  ``counters`` holds ``hits``, ``misses``,
    ``evictions`` and any ``extra_counters`` a subclass keeps.
    """

    def __init__(
        self,
        maxsize: int,
        *,
        max_bytes: Optional[int] = None,
        sizeof: Optional[Callable[[V], int]] = None,
        extra_counters: Tuple[str, ...] = (),
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1 (or None), got {max_bytes}")
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        self._sizeof = sizeof
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        self._lock = threading.RLock()
        #: Total ``sizeof`` of the entries (0 without ``sizeof``).
        self.nbytes = 0
        self.counters = Counters(("hits", "misses", "evictions") + extra_counters)

    def get_or_build(self, key: Hashable, build: Callable[[], V]) -> Tuple[V, bool]:
        """``(value, hit)``: the entry of ``key``, built on a miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.counters.add("hits")
                return value, True
            self.counters.add("misses")
        value = build()
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing, False
            self._entries[key] = value
            if self._sizeof is not None:
                self.nbytes += self._sizeof(value)
            self._evict()
            return value, False

    def _evict(self) -> None:
        while len(self._entries) > self.maxsize or (
            self.max_bytes is not None
            and self.nbytes > self.max_bytes
            and len(self._entries) > 1
        ):
            _, dropped = self._entries.popitem(last=False)
            if self._sizeof is not None:
                self.nbytes -= self._sizeof(dropped)
            self.counters.add("evictions")

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.nbytes = 0
            self.counters.reset()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
