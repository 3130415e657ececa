"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library-specific failures with a single ``except`` clause
while still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class TopologyError(ReproError):
    """Raised when a graph does not satisfy the structural requirements of an
    operation (wrong directedness, disconnected when connectivity is required,
    not a tree, not a hypergrid, ...)."""


class MonitorPlacementError(ReproError):
    """Raised when a monitor placement is invalid for the given topology.

    Typical causes: an input or output node is not a node of the graph, the
    input and output sets are empty, or a placement-specific constraint (for
    instance the grid placement :func:`repro.monitors.grid_placement.chi_g`
    applied to a non-grid graph) is violated.
    """


class RoutingError(ReproError):
    """Raised when measurement paths cannot be enumerated.

    This covers unknown routing mechanisms, empty path sets where at least one
    path is required, and explosion guards (more paths than ``max_paths``).
    """


class PathExplosionError(RoutingError):
    """Raised when path enumeration exceeds the configured ``max_paths`` cap.

    The paper notes that exhaustive search becomes unfeasible once the number
    of paths approaches 5 * 10**6; this error makes that cut-off explicit
    instead of silently truncating the path set (which would corrupt the
    computed identifiability).
    """


class IdentifiabilityError(ReproError):
    """Raised when an identifiability computation cannot be carried out, for
    example when the node universe is empty or the requested search limits are
    inconsistent."""


class BudgetExceededError(IdentifiabilityError):
    """Raised when a search :class:`repro.resilience.Budget` expires inside a
    query that cannot degrade gracefully.

    ``identifiability()`` never raises this — it truncates at the last fully
    completed search level and flags ``stats.budget_exhausted`` instead.  The
    census queries (``separability_matrix``, ``inseparable_pairs``) raise it,
    because a partially enumerated census would be silently wrong rather than
    a certified lower bound.
    """


class EmbeddingError(ReproError):
    """Raised by the embedding subpackage for invalid embeddings or when an
    exact dimension computation is requested on a graph that is too large for
    the exhaustive search implemented here."""


class DesignError(ReproError):
    """Raised by the network-design utilities (Section 7 of the paper) when
    the requested parameters are infeasible, e.g. when no hypergrid of support
    >= 3 with the requested number of nodes exists."""


class ExperimentError(ReproError):
    """Raised by the experiment drivers when an experiment is misconfigured."""


class SpecError(ReproError):
    """Raised by the declarative scenario API (:mod:`repro.api`) for invalid
    specs: unknown registry names, malformed JSON documents, unsupported
    schema versions or analysis requests the facade cannot dispatch."""
