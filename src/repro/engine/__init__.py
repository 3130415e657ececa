"""repro.engine — the signature engine behind every identifiability query.

This package is the computational substrate shared by the identifiability
core (:mod:`repro.core`), the tomography layer (:mod:`repro.tomography`) and
the experiment drivers (:mod:`repro.experiments`):

* :class:`SignatureEngine` interns each node's path-mask once, collapses
  nodes into signature equivalence classes (an O(|V|) µ = 0 fast path), and
  runs the exact µ search as a bounded hitting-set search for the smallest
  dominating set — the same µ as the naive ``itertools.combinations``
  sweep, with a canonical witness, at a fraction of the cost.  The
  separability census groups the same big-int rows' subset unions in one
  pass over ``itertools.combinations``.
* A signature — ``P(U)``, the paths touched by an element set — is a Python
  big int (bit ``j`` set iff path ``j`` is touched), so unions are ``|`` and
  equality is ``==``.  :mod:`repro.engine.columns` holds the incidence
  column primitives, ``class_rows``, ``gather_columns``, ``dedup_columns``
  and ``column_keys``, each with a numpy bit-matrix kernel (run whenever numpy
  is importable) and a big-int kernel (the only one without numpy).
* :mod:`repro.engine.compress` collapses duplicate path columns (and drops
  all-zero columns) before the rows are interned, shrinking the mask
  width every query pays for; results are bit-identical and the
  :class:`CompressionPlan` expands measurement vectors back to original path
  indices.  Every engine above this package is compressed; only the
  :class:`SignatureEngine` constructors still build the raw reference
  engine the parity tests compare against.
* :mod:`repro.engine.cache` memoises enumerated path sets (and thereby the
  engines built on them) under their enumeration inputs, so experiment
  tables stop re-enumerating identical ``(graph, placement, mechanism)``
  triples.

Engine settings
---------------

Settings are arguments, never ambient state: a :class:`repro.Scenario`
carries them in its spec's :class:`~repro.api.spec.EngineConfig`, and the
pathset-level functions take ``universe=`` and ``budget=``::

    engine = pathset.engine(universe="link")  # this path set's link engine

numpy is optional: nothing in the library requires it, and every result is
the same with and without it.
"""

from repro.engine.columns import (
    dedup_columns,
    gather_columns,
    numpy_available,
)
from repro.engine.compress import (
    CompressionPlan,
    compress_universe,
)
from repro.engine.cache import (
    CacheStats,
    PathSetCache,
    cache_stats,
    clear_pathset_cache,
    graph_fingerprint,
    normalize_limits,
    pathset_cache,
)
from repro.engine.signatures import (
    ConfusablePair,
    IdentifiabilityResult,
    SearchCounters,
    SearchStats,
    SignatureEngine,
    reset_search_counters,
    search_counters,
)

__all__ = [
    # engine
    "SignatureEngine",
    "ConfusablePair",
    "IdentifiabilityResult",
    "SearchStats",
    "SearchCounters",
    "search_counters",
    "reset_search_counters",
    # column kernels
    "gather_columns",
    "dedup_columns",
    "numpy_available",
    # compression
    "CompressionPlan",
    "compress_universe",
    # cache
    "PathSetCache",
    "CacheStats",
    "cache_stats",
    "clear_pathset_cache",
    "normalize_limits",
    "pathset_cache",
    "graph_fingerprint",
]
