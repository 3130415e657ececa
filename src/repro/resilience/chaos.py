"""Deterministic fault injection for the trial pool (test harness).

A :class:`ChaosConfig` describes seeded failures — worker ``os._exit`` kills,
raised exceptions, injected delays — for the fault-tolerant pool.  It rides
in :attr:`ExecutionPolicy.chaos <repro.resilience.pool.ExecutionPolicy>`,
and the pool ships it inside every submitted task, where the worker calls
:meth:`ChaosConfig.inject` just before the trial runs; no process holds a
chaos plan of its own.  The decision for trial ``i`` on retry attempt ``a``
is a pure function of ``(seed, i, a)``, so a chaos run is reproducible: the
same trials fail the same way on every execution, which lets the resilience
tests assert *bit-identical* results between a crash-riddled parallel run
and a clean serial run (retried trials reuse their original pickled spec,
seed included).

``max_failures`` bounds the number of faulty attempts per trial: attempt
numbers at or past it always run clean, so any ``max_retries >=
max_failures`` is guaranteed to converge.  The fourth injection mode of the
harness — nth-subset budget expiry — needs no hook at all:
``Budget(subset_budget=n)`` expires deterministically after ``n``
enumerated subsets.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ExperimentError, ReproError


class ChaosInjectedError(ReproError):
    """The failure raised by the ``error`` injection mode (never by real
    code, so tests can assert it was the injected fault that was retried)."""


@dataclass(frozen=True)
class ChaosConfig:
    """Seeded failure-injection plan for pool workers.

    ``kill``/``error``/``delay`` are per-attempt probabilities (evaluated in
    that order from one uniform draw, so they must sum to at most 1).
    ``delay`` sleeps up to ``max_delay`` seconds and then runs the trial
    normally — combined with a short ``trial_timeout`` it simulates a hung
    worker.  All fields are picklable scalars: the config travels to workers
    inside each submitted task.
    """

    seed: int = 0
    kill: float = 0.0
    error: float = 0.0
    delay: float = 0.0
    max_delay: float = 0.05
    max_failures: int = 1

    def __post_init__(self) -> None:
        for name in ("kill", "error", "delay"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ExperimentError(
                    f"chaos {name} rate must be in [0, 1], got {rate!r}"
                )
        if self.kill + self.error + self.delay > 1.0 + 1e-9:
            raise ExperimentError(
                "chaos kill + error + delay rates must sum to <= 1"
            )
        if self.max_delay < 0:
            raise ExperimentError(
                f"chaos max_delay must be >= 0, got {self.max_delay!r}"
            )
        if self.max_failures < 0:
            raise ExperimentError(
                f"chaos max_failures must be >= 0, got {self.max_failures!r}"
            )

    def action(self, index: int, attempt: int) -> str:
        """The injected action for trial ``index``, attempt ``attempt``:
        one of ``"ok"``, ``"kill"``, ``"error"``, ``"delay"``."""
        if attempt >= self.max_failures:
            return "ok"
        rng = random.Random(f"chaos:{self.seed}:{index}:{attempt}")
        draw = rng.random()
        if draw < self.kill:
            return "kill"
        if draw < self.kill + self.error:
            return "error"
        if draw < self.kill + self.error + self.delay:
            return "delay"
        return "ok"

    def delay_seconds(self, index: int, attempt: int) -> float:
        """The injected sleep for a ``"delay"`` action (deterministic too)."""
        rng = random.Random(f"chaos-delay:{self.seed}:{index}:{attempt}")
        return rng.uniform(0.0, self.max_delay)

    def inject(self, index: int, attempt: int) -> None:
        """Execute the injected fault for one trial attempt, if any.

        Called by the pool worker just before running the trial.  ``kill``
        terminates the worker process abruptly (``os._exit``, no cleanup —
        the parent sees ``BrokenProcessPool``), ``error`` raises
        :class:`ChaosInjectedError`, ``delay`` sleeps and then lets the trial
        proceed.
        """
        action = self.action(index, attempt)
        if action == "kill":
            os._exit(1)
        if action == "error":
            raise ChaosInjectedError(
                f"injected failure for trial {index} attempt {attempt}"
            )
        if action == "delay":
            time.sleep(self.delay_seconds(index, attempt))

    @classmethod
    def from_string(cls, text: Optional[str]) -> Optional["ChaosConfig"]:
        """Parse ``"seed=7,kill=0.3,max_failures=2"`` (the ``REPRO_CHAOS``
        environment format used by the CI resilience-smoke job)."""
        if not text or not text.strip():
            return None
        values: dict = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ExperimentError(
                    f"chaos spec entries must be key=value, got {part!r}"
                )
            name, raw = part.split("=", 1)
            name = name.strip()
            if name in ("seed", "max_failures"):
                values[name] = int(raw)
            elif name in ("kill", "error", "delay", "max_delay"):
                values[name] = float(raw)
            else:
                raise ExperimentError(f"unknown chaos field {name!r}")
        return cls(**values)
