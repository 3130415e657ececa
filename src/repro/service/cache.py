"""Cross-request compiled-scenario cache keyed by spec fingerprint.

The expensive part of serving a :class:`~repro.api.spec.ScenarioSpec` is
*compiling* it — building the topology, sampling the placement and
enumerating ``P(G|χ)``.  Which analyses run, what the spec is labelled, what
budget the request carries and which failure universe it declares all ride
on top of the same compiled artifacts, so the service caches exactly those:
``(graph, placement, pathset)`` under a SHA-256 fingerprint of the
compile-relevant spec subset (topology, placement, routing, seed).

A hit hands every request its *own* :class:`~repro.api.scenario.Scenario`
that adopts the shared artifacts — per-request engine config (budgets, the
cache switch) and per-request memoisation (``_mu_report``) never leak
between clients, while the :class:`~repro.routing.paths.PathSet` instance is
shared, so the signature engines memoised on it (per universe fingerprint)
are reused across requests too.  No request reaches the capacity of the
shared caches: that is the server's ``--cache-size``.

This wraps, rather than replaces, the per-process caches underneath: the
global :class:`~repro.engine.cache.PathSetCache` still deduplicates path
sets by *content* (two different specs producing the same graph+placement
share one path set), and evolved path sets are filed under the same
post-delta enumeration key.  The scenario cache adds the by-*spec*
layer on top so a repeat request skips even the graph/placement rebuild.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.api.scenario import Scenario
from repro.api.spec import ScenarioSpec
from repro.utils.counters import KeyedLRU

#: The spec sections that determine the compiled artifacts.  ``analyses``,
#: ``label``, ``engine`` and ``failures`` are deliberately excluded:
#: analyses/label don't shape compilation at all, engine config is applied
#: per request on the adopted scenario (budgets must not fragment the
#: cache), and the failure universe is resolved — and memoised — *on* the
#: shared path set, so all universes of one compiled scenario share an entry.
_COMPILE_FIELDS = ("topology", "placement", "routing", "seed")


def spec_fingerprint(spec: ScenarioSpec) -> str:
    """SHA-256 hex digest of the compile-relevant subset of ``spec``.

    Computed over canonical JSON (sorted keys), so field order and
    re-serialisation round-trips can't change the key.
    """
    document = spec.to_dict()
    subset = {field: document[field] for field in _COMPILE_FIELDS}
    canonical = json.dumps(subset, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CompiledScenario:
    """The cached compilation product of one spec fingerprint."""

    fingerprint: str
    graph: object
    placement: object
    pathset: object
    #: Approximate resident size of the path set (masks + path tuples), used
    #: for the cache's byte accounting; graph/placement are small beside it.
    nbytes: int
    compile_seconds: float


@dataclass(frozen=True)
class ScenarioCacheStats:
    """Counters of a :class:`ScenarioCache`."""

    hits: int
    misses: int
    evictions: int
    #: Requests with ``engine.cache: false`` that compiled fresh on purpose.
    bypasses: int
    entries: int
    nbytes: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ScenarioCache(KeyedLRU[CompiledScenario]):
    """Lock-protected LRU over compiled scenarios, keyed by spec fingerprint.

    The same :class:`~repro.utils.counters.KeyedLRU` as
    :class:`~repro.engine.cache.PathSetCache`: lookups and counter updates
    happen under the lock, compilation happens outside it (a compile can
    take seconds — holding the lock would serialise every cold request),
    and when two requests race on the same cold fingerprint the first
    insert wins so both adopt one set of artifacts.

    Eviction is LRU, bounded by entry count and optionally by total
    approximate bytes (``max_bytes``).  At least one entry is always kept —
    a single spec larger than the byte budget still gets served from cache.
    """

    def __init__(self, maxsize: int = 64, max_bytes: Optional[int] = None) -> None:
        super().__init__(
            maxsize,
            max_bytes=max_bytes,
            sizeof=lambda entry: entry.nbytes,
            extra_counters=("bypasses",),
        )

    def get_or_compile(self, spec: ScenarioSpec) -> Tuple[Scenario, bool, str]:
        """A scenario for ``spec``, compiled or adopted from cache.

        Returns ``(scenario, hit, fingerprint)``.  The scenario is always a
        fresh :class:`Scenario` carrying the *request's* spec (engine config
        included); on a hit its graph/placement/pathset slots are pre-filled
        with the cached artifacts.  Specs with ``engine.cache: false`` bypass
        the cache entirely (compile fresh, store nothing) — the client asked
        for uncached work and gets it.
        """
        fingerprint = spec_fingerprint(spec)
        if not spec.engine.cache:
            self.counters.add("bypasses")
            scenario = Scenario(spec)
            scenario.pathset  # noqa: B018 - force compilation now, uncached
            return scenario, False, fingerprint
        entry, hit = self.get_or_build(
            fingerprint, lambda: self._compile(spec, fingerprint)
        )
        return self._adopt(spec, entry), hit, fingerprint

    def _compile(self, spec: ScenarioSpec, fingerprint: str) -> CompiledScenario:
        started = time.perf_counter()
        scenario = Scenario(spec)
        pathset = scenario.pathset  # materialises graph + placement too
        return CompiledScenario(
            fingerprint=fingerprint,
            graph=scenario.graph,
            placement=scenario.placement,
            pathset=pathset,
            nbytes=pathset.approximate_nbytes(),
            compile_seconds=time.perf_counter() - started,
        )

    @staticmethod
    def _adopt(spec: ScenarioSpec, entry: CompiledScenario) -> Scenario:
        """A per-request scenario sharing the cached compiled artifacts."""
        scenario = Scenario(spec)
        scenario._graph = entry.graph
        scenario._placement = entry.placement
        scenario._pathset = entry.pathset
        return scenario

    def stats(self) -> ScenarioCacheStats:
        with self._lock:
            return ScenarioCacheStats(
                **self.counters.snapshot(),
                entries=len(self._entries),
                nbytes=self.nbytes,
            )
