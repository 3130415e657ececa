"""Fault-tolerance policy and bookkeeping for the trial pool.

:class:`ExecutionPolicy` bundles the resilience knobs of
:func:`repro.experiments.parallel.run_trials` — per-trial timeout, bounded
retries with exponential backoff + jitter, quarantine mode, an optional
:class:`~repro.resilience.chaos.ChaosConfig` and an optional
:class:`~repro.resilience.checkpoint.CheckpointJournal`.  It is passed
explicitly: the CLI runner builds one policy per invocation
(``--trial-timeout`` / ``--max-retries`` / ``REPRO_CHAOS`` /
``--checkpoint``) and hands it through the table drivers and spec batches
to ``run_trials(..., policy=)``.  Neither the chaos plan nor the journal is
ever process state: the pool ships the chaos plan inside each submitted
task, and the journal is read from the policy in the parent.

Backoff jitter exists to decorrelate retry storms, not to perturb results:
every trial's randomness travels in its pickled spec (the original
``spawn_seed`` is reused on retry), so jitter affects *when* a retry runs,
never *what* it computes — successful output stays bit-identical to serial.
The jitter itself is seeded per ``(trial, attempt)`` so a resilient run's
schedule is reproducible too.

The process-global retry counters are a :class:`~repro.utils.counters.Counters`
table, like the search counters: the experiment runner and the benchmark
harness snapshot them around a run to report how much fault handling
actually happened (``BENCH_JSON`` records them so clean hosts can assert
zero retries).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Optional

from repro.exceptions import ExperimentError
from repro.resilience.chaos import ChaosConfig
from repro.resilience.checkpoint import CheckpointJournal
from repro.utils.counters import Counters

#: Upper bound on one backoff sleep, seconds (keeps a long retry ladder from
#: stalling the batch).
BACKOFF_CAP = 2.0


@dataclass(frozen=True)
class TrialFailure:
    """A quarantined poison trial: it exhausted ``max_retries`` and was
    recorded instead of killing the batch (``failure_mode="record"``).

    ``kind`` is ``"timeout"`` (exceeded ``trial_timeout``), ``"crash"``
    (worker died — ``BrokenProcessPool``), or ``"error"`` (the trial raised).
    ``attempts`` counts executions, so ``attempts == max_retries + 1``.
    """

    index: int
    label: str
    kind: str
    error: str
    attempts: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "label": self.label,
            "kind": self.kind,
            "error": self.error,
            "attempts": self.attempts,
        }


@dataclass(frozen=True)
class ExecutionPolicy:
    """Resilience knobs for one ``run_trials`` fan-out.

    The default policy (no timeout, no retries, no chaos, no journal,
    ``"raise"``) keeps a parallel fan-out on the plain ``pool.map`` with no
    fault-handling overhead, so existing drivers are untouched unless a
    knob is set.  ``checkpoint`` is the journal of the invocation: journaled
    trials are restored instead of run, and fresh completions are recorded.
    It is a live file handle, so it is left out of comparison (two policies
    with the same knobs are equal whatever they journal to).
    """

    trial_timeout: Optional[float] = None
    max_retries: int = 0
    retry_backoff: float = 0.05
    failure_mode: str = "raise"
    chaos: Optional[ChaosConfig] = None
    checkpoint: Optional[CheckpointJournal] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.trial_timeout is not None and self.trial_timeout <= 0:
            raise ExperimentError(
                f"trial_timeout must be > 0 seconds, got {self.trial_timeout!r}"
            )
        if self.max_retries < 0:
            raise ExperimentError(
                f"max_retries must be >= 0, got {self.max_retries!r}"
            )
        if self.retry_backoff < 0:
            raise ExperimentError(
                f"retry_backoff must be >= 0, got {self.retry_backoff!r}"
            )
        if self.failure_mode not in ("raise", "record"):
            raise ExperimentError(
                f"failure_mode must be 'raise' or 'record', "
                f"got {self.failure_mode!r}"
            )

    @property
    def resilient(self) -> bool:
        """Whether any knob forces the fault-tolerant submit path (a
        journal does too: the plain ``pool.map`` neither skips nor records
        trials)."""
        return (
            self.trial_timeout is not None
            or self.max_retries > 0
            or self.chaos is not None
            or self.failure_mode != "raise"
            or self.checkpoint is not None
        )

    def backoff_seconds(self, index: int, attempt: int) -> float:
        """Exponential backoff with deterministic per-(trial, attempt)
        jitter, capped at :data:`BACKOFF_CAP`."""
        if self.retry_backoff == 0:
            return 0.0
        base = self.retry_backoff * (2 ** max(0, attempt - 1))
        jitter = random.Random(f"backoff:{index}:{attempt}").uniform(0.0, 1.0)
        return min(BACKOFF_CAP, base * (1.0 + jitter))


# -- retry observability ------------------------------------------------------


@dataclass(frozen=True)
class PoolCounters:
    """Process-global fault-handling counters (parent-side: retries are
    scheduled by the parent, so no worker merge is needed)."""

    retries: int
    timeouts: int
    worker_crashes: int
    pool_rebuilds: int
    trial_failures: int

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


#: The process-global fault-handling counters, named as :class:`PoolCounters`.
POOL_COUNTERS = Counters(f.name for f in fields(PoolCounters))


def pool_counters() -> PoolCounters:
    """Snapshot of the accumulated fault-handling counters."""
    return PoolCounters(**POOL_COUNTERS.snapshot())


def reset_pool_counters() -> None:
    """Zero the fault-handling counters."""
    POOL_COUNTERS.reset()
