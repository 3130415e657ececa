"""Bounded analysis execution for the service's request threads.

Every connection is served on its own thread, and an analysis runs on the
thread of the request that asked for it.  Analyses are CPU-bound and can
run for seconds, so the :class:`AnalysisExecutor` bounds them: a semaphore
lets at most ``workers`` run at once (the others wait for a free one), and
the threads share the in-process scenario and path-set caches, which is
why :class:`~repro.engine.cache.PathSetCache` has a lock.

Admission is bounded: at most ``max_inflight`` requests may hold a slot
(waiting *or* running).  When the bound is hit, submission fails fast with
:class:`ServiceOverloadedError` — the app maps it to HTTP 429 — instead of
building an unbounded queue of doomed work.  Combined with per-request
time budgets (``?budget=`` rides the spec's ``engine.time_budget``, whose
cooperative truncation certifies a lower bound instead of hanging) this
keeps the contract: a connection always gets *an answer*, never a hang.
One gap remains: the budget caps the µ search, not a ``localization``
analysis's trial loop, so a document asking for millions of trials holds
its slot until every trial has run (a 3×3 grid with ``n_trials: 1000000``
and ``?budget=0.5`` was still running after 8 s).

Failures that are not the client's fault are quarantined the same way the
PR-8 resilient pool quarantines trial crashes: recorded as a
:class:`~repro.resilience.pool.TrialFailure`, counted in the pool-wide
``trial_failures`` counter, and surfaced as a structured 500 — the request
thread and the server survive.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable

from repro.exceptions import ReproError
from repro.resilience.pool import POOL_COUNTERS, TrialFailure

#: Exception types that mean "the request was wrong", not "the server broke".
#: ``ReproError`` covers the whole library hierarchy (SpecError, budget
#: exhaustion on census queries, identifiability errors); the builtins leak
#: out of registry builders handed bad parameters before the spec layer can
#: wrap them.
CLIENT_ERROR_TYPES = (ReproError, TypeError, ValueError, KeyError)


class ServiceOverloadedError(RuntimeError):
    """All in-flight slots are taken; the request was not admitted."""

    def __init__(self, max_inflight: int) -> None:
        super().__init__(
            f"server is at capacity ({max_inflight} requests in flight); "
            f"retry later"
        )
        self.max_inflight = max_inflight


class QuarantinedError(RuntimeError):
    """A server-side failure, wrapped with its quarantine record."""

    def __init__(self, failure: TrialFailure) -> None:
        super().__init__(failure.error)
        self.failure = failure


class AnalysisExecutor:
    """Runs jobs on the calling thread under two bounds.

    ``workers`` caps concurrent execution (:attr:`job_slots`);
    ``max_inflight`` caps admission (running + waiting for a job slot).
    ``max_inflight >= workers`` gives a small queue that absorbs bursts;
    ``max_inflight == workers`` rejects anything that cannot start
    immediately.
    """

    def __init__(self, workers: int = 4, max_inflight: int = 16) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.workers = workers
        self.max_inflight = max_inflight
        #: Held while a job runs: at most ``workers`` jobs at once.
        self.job_slots = threading.BoundedSemaphore(workers)
        self._lock = threading.Lock()
        self._inflight = 0
        self._request_ids = itertools.count()

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    # Public acquire/release so tests can saturate the executor
    # deterministically (hold every slot, assert the next request 429s).
    def try_acquire(self) -> bool:
        """Take one in-flight slot if available."""
        with self._lock:
            if self._inflight >= self.max_inflight:
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        with self._lock:
            if self._inflight <= 0:
                raise RuntimeError("release() without a matching try_acquire()")
            self._inflight -= 1

    def run(self, func: Callable[[], Any], label: str = "") -> Any:
        """Run ``func`` in a job slot and return its result.

        Raises :class:`ServiceOverloadedError` when no in-flight slot is
        free, re-raises client errors (:data:`CLIENT_ERROR_TYPES`) as-is for
        the app to map to 400, and wraps anything else in
        :class:`QuarantinedError` carrying the :class:`TrialFailure` record.
        """
        if not self.try_acquire():
            raise ServiceOverloadedError(self.max_inflight)
        index = next(self._request_ids)
        try:
            with self.job_slots:
                return func()
        except CLIENT_ERROR_TYPES:
            raise
        except Exception as exc:
            failure = TrialFailure(
                index=index,
                label=label or f"request-{index}",
                kind="error",
                error=f"{type(exc).__name__}: {exc}",
                attempts=1,
            )
            POOL_COUNTERS.add("trial_failures")
            raise QuarantinedError(failure) from exc
        finally:
            self.release()
