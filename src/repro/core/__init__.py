"""The paper's primary contribution: exact maximal identifiability, truncated
and local variants, structural upper bounds and separation primitives."""

from repro.core.bounds import (
    BoundReport,
    classify_sources,
    degree_bound,
    delta_hat,
    directed_degree_bound,
    edge_count_bound,
    lemma_3_2_witness,
    lemma_3_4_witness,
    min_degree_bound,
    monitor_count_bound,
    structural_upper_bound,
)
from repro.core.identifiability import (
    ConfusablePair,
    IdentifiabilityResult,
    find_confusable_pair,
    is_k_identifiable,
    maximal_identifiability,
    maximal_identifiability_detailed,
    resolve_universe,
    separability_matrix,
)
from repro.core.local import (
    is_locally_k_identifiable,
    local_identifiability_per_node,
    local_maximal_identifiability,
)
from repro.core.separability import (
    inseparable_pairs_of_size,
    path_through_avoiding,
    separating_path,
    verify_k_identifiability_by_separation,
)
from repro.core.truncated import (
    default_truncation_level,
    truncated_identifiability,
    truncated_identifiability_detailed,
    truncation_error_for_graph,
    truncation_error_fraction,
)

__all__ = [
    # bounds
    "BoundReport",
    "classify_sources",
    "degree_bound",
    "delta_hat",
    "directed_degree_bound",
    "edge_count_bound",
    "lemma_3_2_witness",
    "lemma_3_4_witness",
    "min_degree_bound",
    "monitor_count_bound",
    "structural_upper_bound",
    # identifiability
    "ConfusablePair",
    "IdentifiabilityResult",
    "find_confusable_pair",
    "is_k_identifiable",
    "maximal_identifiability",
    "maximal_identifiability_detailed",
    "resolve_universe",
    "separability_matrix",
    # local
    "is_locally_k_identifiable",
    "local_identifiability_per_node",
    "local_maximal_identifiability",
    # separability
    "inseparable_pairs_of_size",
    "path_through_avoiding",
    "separating_path",
    "verify_k_identifiability_by_separation",
    # truncated
    "default_truncation_level",
    "truncated_identifiability",
    "truncated_identifiability_detailed",
    "truncation_error_for_graph",
    "truncation_error_fraction",
]
