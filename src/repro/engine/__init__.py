"""repro.engine — the signature engine behind every identifiability query.

This package is the computational substrate shared by the identifiability
core (:mod:`repro.core`), the tomography layer (:mod:`repro.tomography`) and
the experiment drivers (:mod:`repro.experiments`):

* :class:`SignatureEngine` interns each node's path-mask once, collapses
  nodes into signature equivalence classes (an O(|V|) µ = 0 fast path), and
  runs the exact µ search as a bounded hitting-set search for the smallest
  dominating set — the same µ as the naive ``itertools.combinations``
  sweep, with a canonical witness, at a fraction of the cost.  The
  separability census runs one chunked subset frontier with prefix-union
  carrying and batched row evaluation.
* :mod:`repro.engine.backends` provides two interchangeable signature
  representations: Python big-int bitmasks and numpy ``uint64``-packed rows.
* :mod:`repro.engine.compress` collapses duplicate path columns (and drops
  all-zero columns) before the signatures are packed, shrinking the mask
  width every query pays for; results are bit-identical and the
  :class:`CompressionPlan` expands measurement vectors back to original path
  indices.  On by default; ``compress=False`` (or
  ``EngineConfig(compress=False)``) builds a raw engine.
* :mod:`repro.engine.cache` memoises enumerated path sets (and thereby the
  engines built on them) under content keys, so experiment tables stop
  re-enumerating identical ``(graph, placement, mechanism)`` triples.

Backend selection
-----------------

The backend is an argument, never ambient state: a
:class:`repro.Scenario` carries it in its spec's
:class:`~repro.api.spec.EngineConfig`, and the pathset-level functions take
``backend=``.  ``None`` and ``"auto"`` choose the numpy backend when numpy is
importable and the path universe has at least
:data:`~repro.engine.backends.NUMPY_MIN_PATHS` paths, and the
dependency-free python backend otherwise::

    engine = pathset.engine(backend="numpy")   # this engine only

numpy is optional: nothing in the library requires it, and building a
``"numpy"`` engine raises a clear error when it is missing.
"""

from repro.engine.backends import (
    NUMPY_MIN_PATHS,
    NumpyBackend,
    PythonBackend,
    SignatureBackend,
    available_backends,
    normalize_backend_spec,
    numpy_available,
    resolve_backend,
    resolve_backend_name,
)
from repro.engine.compress import (
    CompressionPlan,
    compress_universe,
)
from repro.engine.cache import (
    CacheStats,
    PathSetCache,
    cache_stats,
    cached_enumerate_paths,
    clear_pathset_cache,
    graph_fingerprint,
    normalize_limits,
    pathset_cache,
)
from repro.engine.signatures import (
    DEFAULT_BLOCK_SIZE,
    ConfusablePair,
    IdentifiabilityResult,
    SearchCounters,
    SearchStats,
    SignatureEngine,
    record_external_search,
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
    "record_external_search",
    "DEFAULT_BLOCK_SIZE",
    # backends
    "SignatureBackend",
    "PythonBackend",
    "NumpyBackend",
    "available_backends",
    "numpy_available",
    "normalize_backend_spec",
    "resolve_backend",
    "resolve_backend_name",
    "NUMPY_MIN_PATHS",
    # compression
    "CompressionPlan",
    "compress_universe",
    # cache
    "PathSetCache",
    "CacheStats",
    "cached_enumerate_paths",
    "cache_stats",
    "clear_pathset_cache",
    "normalize_limits",
    "pathset_cache",
    "graph_fingerprint",
]
