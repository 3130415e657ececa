"""The resilience layer: deadlines, fault-tolerant pools, checkpoint/resume,
and the deterministic fault-injection harness.

Four orthogonal pieces, threaded through every execution layer:

* :mod:`~repro.resilience.budget` — cooperative :class:`Budget` deadlines for
  the engine's searches (wall-clock and/or work count), with graceful
  completed-level truncation in ``identifiability()``.
* :mod:`~repro.resilience.pool` — the :class:`ExecutionPolicy` knobs of a
  trial batch (timeouts, bounded retries, :class:`TrialFailure` quarantine,
  the chaos plan and the journal), the fixed retry backoff schedule, and the
  fault-handling counters.
* :mod:`~repro.resilience.checkpoint` — the append-only
  :class:`CheckpointJournal` behind ``--checkpoint dir/``.
* :mod:`~repro.resilience.chaos` — seeded failure injection
  (:class:`ChaosConfig`) for the resilience test-suite and CI smoke jobs.

The layer keeps no process state of its own beyond the fault-handling
counters: a journal or a chaos plan reaches a trial only through the
:class:`ExecutionPolicy` passed to ``run_trials`` (the ``--churn`` replay
takes its journal as a ``checkpoint=`` keyword for a batch of its steps),
and the trial ledger of :mod:`repro.experiments.parallel` applies it.

Every guarantee is bit-identity-preserving: a budget truncation is a
certified lower bound with the exact semantics of the existing truncated-µ
machinery, and a retried or resumed trial reuses its original seed, so
successful output never depends on how much fault handling happened.
"""

from repro.exceptions import BudgetExceededError
from repro.resilience.budget import (
    Budget,
    resolve_budget,
)
from repro.resilience.chaos import (
    ChaosConfig,
    ChaosInjectedError,
)
from repro.resilience.checkpoint import (
    CheckpointJournal,
    fingerprint_call,
)
from repro.resilience.pool import (
    ExecutionPolicy,
    PoolCounters,
    TrialFailure,
    pool_counters,
    reset_pool_counters,
)

__all__ = [
    "Budget",
    "BudgetExceededError",
    "resolve_budget",
    "ChaosConfig",
    "ChaosInjectedError",
    "CheckpointJournal",
    "fingerprint_call",
    "ExecutionPolicy",
    "PoolCounters",
    "TrialFailure",
    "pool_counters",
    "reset_pool_counters",
]
