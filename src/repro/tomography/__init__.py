"""Boolean network tomography substrate: forward measurement simulation
(Equation 1), failure-set inference and end-to-end failure scenarios."""

from repro.tomography.inference import (
    LocalizationResult,
    consistent_element_sets,
    consistent_failure_sets,
    identifiability_implies_unique_localization,
    localization_is_unique,
    localize_element_failures,
    localize_failures,
    measurement_vector,
)
from repro.tomography.scenario import (
    CampaignReport,
    TomographySession,
    TrialOutcome,
)

__all__ = [
    "measurement_vector",
    "LocalizationResult",
    "consistent_element_sets",
    "consistent_failure_sets",
    "localize_element_failures",
    "identifiability_implies_unique_localization",
    "localization_is_unique",
    "localize_failures",
    "CampaignReport",
    "TomographySession",
    "TrialOutcome",
]
