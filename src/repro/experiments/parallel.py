"""Parallel trial execution for the Monte-Carlo experiment drivers.

The paper's Tables 6-13 are batches of independent trials — sample a graph,
run Agrid, place monitors, compute µ — so each batch driver decomposes its
cell into a list of :class:`TrialSpec` (a pure, picklable function plus
picklable arguments, including a precomputed seed string from
:func:`repro.utils.seeds.spawn_seed`) and hands it to :func:`run_trials`:

* ``jobs=1`` (the default) runs the specs in-process, one after the other,
  sharing the process-global :class:`~repro.engine.cache.PathSetCache`.
* ``jobs>1`` fans the specs out over a ``ProcessPoolExecutor``.  Every worker
  is a fresh process with its own process-global cache and search counters;
  each trial ships back one ``{table: delta}`` dict of what it added to
  them, and the parent merges it (:meth:`Counters.merge
  <repro.utils.counters.Counters.merge>`) so ``--cache-stats`` and
  ``--search-stats`` describe the whole run.

Because every trial's randomness is fully determined by its seed string and
results are returned in spec order, a parallel run is **bit-identical** to a
serial run of the same specs — the scheduling only changes wall-clock time.

The table drivers package each trial as a pickled
:class:`repro.api.spec.ScenarioSpec` (plus at most a couple of scalar
arguments): seed, topology source, placement strategy, mechanism **and
engine config** all travel inside the spec, so ``--time-budget`` reaches
the workers with no process-global state to propagate.  The resilience
settings travel the same way: the :class:`~repro.resilience.pool.ExecutionPolicy`
carries the chaos plan (shipped inside every submitted task) and the
checkpoint journal (read in the parent), so a worker needs nothing from its
initializer but a clean cache.

Both loops that honour a policy, serial and fault-tolerant, keep their books
through one :class:`_TrialLedger` (journal keys, restore, record, and retry
or quarantine of a failed attempt), so a quarantined trial is the same value
at any ``jobs``, and the ``--churn`` replay journals through the same code.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.engine.cache import pathset_cache
from repro.engine.signatures import SEARCH_COUNTERS
from repro.exceptions import ExperimentError
from repro.resilience.chaos import ChaosConfig
from repro.resilience.checkpoint import fingerprint_call
from repro.resilience.pool import (
    POOL_COUNTERS,
    ExecutionPolicy,
    TrialFailure,
    backoff_seconds,
)
from repro.utils.counters import Counters


@dataclass(frozen=True)
class TrialSpec:
    """One independent unit of work of a Monte-Carlo batch.

    ``func`` must be a module-level function (so it pickles by qualified
    name) and must be *pure given its arguments*: all randomness comes from
    an explicit seed argument, never from process-global state.  ``args`` and
    ``kwargs`` must themselves be picklable.
    """

    func: Callable[..., Any]
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def run(self) -> Any:
        return self.func(*self.args, **self.kwargs)


@dataclass(frozen=True)
class TrialResult:
    """The outcome of one executed :class:`TrialSpec`.

    ``counters`` maps each of :func:`_counter_tables` to what the trial
    added to it in its executing process — the one delta the parent merges
    after a fan-out.
    """

    index: int
    value: Any
    counters: Dict[str, Dict[str, int]] = field(default_factory=dict)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/1 = serial, 0 = all cores."""
    if jobs is None:
        return 1
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ExperimentError(f"jobs must be >= 0 (0 = all cores), got {jobs}")
    return jobs


def _counter_tables() -> Dict[str, Counters]:
    """The process counters a trial adds to (the pool counters are kept by
    the parent alone)."""
    return {"search": SEARCH_COUNTERS, "pathset": pathset_cache().counters}


def _init_worker() -> None:
    """Pool initializer: start a clean cache and clean search counters.

    A worker needs no setting from the parent: the engine config rides in
    each trial's pickled spec and the chaos plan in each submitted task.
    Clearing makes worker caches behave identically under ``fork`` (which
    inherits a copy of the parent's entries) and ``spawn`` (which starts
    empty).
    """
    pathset_cache().clear()
    SEARCH_COUNTERS.reset()


def _run_spec(task: Tuple[int, TrialSpec, int, Optional[ChaosConfig]]) -> TrialResult:
    """Worker-side execution of one spec attempt, with counter-delta bookkeeping.

    The task carries the policy's chaos plan (``None``: no injection), whose
    fault fires *before* the trial runs, so injected faults never leave a
    half-computed result behind; the attempt number rides along so the
    injection decision is a pure function of ``(seed, index, attempt)``.
    """
    index, spec, attempt, chaos = task
    if chaos is not None:
        chaos.inject(index, attempt)
    tables = _counter_tables()
    before = {name: table.snapshot() for name, table in tables.items()}
    value = spec.run()
    counters = {}
    for name, table in tables.items():
        then = before[name]
        counters[name] = {
            counter: count - then[counter]
            for counter, count in table.snapshot().items()
        }
    return TrialResult(index=index, value=value, counters=counters)


def _checkpoint_keys(spec_list: List[TrialSpec]) -> List[str]:
    """Journal keys for a batch: call fingerprints, disambiguated by
    occurrence so intentionally duplicated specs each get their own slot."""
    counts: Dict[str, int] = {}
    keys: List[str] = []
    for spec in spec_list:
        digest = fingerprint_call(spec.func, spec.args, spec.kwargs)
        occurrence = counts.get(digest, 0)
        counts[digest] = occurrence + 1
        keys.append(f"{digest}:{occurrence}" if occurrence else digest)
    return keys


def _merge_worker_counters(results: Iterable[TrialResult]) -> None:
    """Fold every worker trial's counter deltas into the parent's tables."""
    tables = _counter_tables()
    for result in results:
        for name, delta in result.counters.items():
            tables[name].merge(delta)


class _TrialLedger:
    """The per-batch bookkeeping both trial loops share: journal keys, the
    journaled trials restored up front (:attr:`restored`, by index), record,
    and the verdict on each failed attempt (:meth:`charge`).  It never
    raises; each loop applies ``policy.failure_mode`` under its own raise
    contract (serial re-raises the trial's exception, the pool raises an
    :class:`ExperimentError` naming the trial)."""

    def __init__(self, spec_list: List[TrialSpec], policy: ExecutionPolicy) -> None:
        self.specs = spec_list
        self.max_retries = policy.max_retries
        self.journal = policy.checkpoint
        self.keys = _checkpoint_keys(spec_list) if self.journal is not None else []
        self.restored: Dict[int, Any] = {
            index: self.journal.restore(key)
            for index, key in enumerate(self.keys)
            if key in self.journal
        }
        self.failures: Dict[int, int] = {}

    def record(self, index: int, value: Any) -> None:
        if self.journal is not None:
            self.journal.record(self.keys[index], value, label=self.specs[index].label)

    def charge(self, index: int, kind: str, error: object) -> "float | TrialFailure":
        """Count one failed attempt of trial ``index``: the delay before its
        retry, or its quarantine record when retries are exhausted."""
        count = self.failures.get(index, 0) + 1
        self.failures[index] = count
        if count > self.max_retries:
            POOL_COUNTERS.add("trial_failures")
            message = str(error) or type(error).__name__
            return TrialFailure(index, self.specs[index].label, kind, message, count)
        POOL_COUNTERS.add("retries")
        return backoff_seconds(index, count)


def _run_serial(spec_list: List[TrialSpec], policy: ExecutionPolicy) -> List[Any]:
    """In-process execution through the trial ledger: journal restore and
    record, bounded retry, quarantine.

    Under the default policy this is a plain loop over the specs.  Timeouts
    and chaos need a process boundary, so neither engages here — a serial
    run is always the *clean* reference the chaos parity tests compare
    against.  Under ``failure_mode="raise"`` the trial's own exception
    propagates.  ``KeyboardInterrupt`` is deliberately not caught:
    completed trials are already durable in the journal when it propagates.
    """
    ledger = _TrialLedger(spec_list, policy)
    values: List[Any] = []
    for index, spec in enumerate(spec_list):
        if index in ledger.restored:
            values.append(ledger.restored[index])
            continue
        while True:
            try:
                value = spec.run()
            except Exception as error:  # noqa: BLE001 - retry boundary
                verdict = ledger.charge(index, "error", error)
                if not isinstance(verdict, TrialFailure):
                    time.sleep(verdict)
                    continue
                if policy.failure_mode == "raise":
                    raise
                value = verdict
            else:
                ledger.record(index, value)
            break
        values.append(value)
    return values


def _run_resilient(
    spec_list: List[TrialSpec],
    n_workers: int,
    policy: ExecutionPolicy,
) -> List[Any]:
    """The fault-tolerant submit loop: windowed submission, per-trial
    deadlines, pool rebuild on crash, and the trial ledger's retry and
    quarantine.

    Retried attempts resubmit the *original* pickled spec (seed included),
    so a successful retry is bit-identical to a first-attempt success.  When
    a worker dies the pool cannot say which in-flight trial it was running,
    so every in-flight trial is charged one failure — convergence under
    chaos holds because injected faults stop at ``max_failures`` attempts.
    Trials that merely shared the pool with a *timed-out* trial are
    resubmitted at the same attempt number, uncharged.  Every task carries
    ``policy.chaos`` to the worker that runs it.  Under
    ``failure_mode="raise"`` an exhausted trial raises an
    :class:`ExperimentError` naming it.
    """
    ledger = _TrialLedger(spec_list, policy)
    values: Dict[int, Any] = dict(ledger.restored)
    completed: List[TrialResult] = []
    #: (index, attempt, not-before monotonic time)
    pending: deque = deque(
        (index, 0, 0.0) for index in range(len(spec_list)) if index not in values
    )

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=n_workers, initializer=_init_worker)

    def charge(index: int, attempt: int, kind: str, error: object) -> None:
        verdict = ledger.charge(index, kind, error)
        if not isinstance(verdict, TrialFailure):
            pending.append((index, attempt + 1, time.monotonic() + verdict))
        elif policy.failure_mode == "raise":
            raise ExperimentError(
                f"trial {index} ({verdict.label or 'unlabeled'}) failed "
                f"({kind}) after {verdict.attempts} attempts: {verdict.error}"
            )
        else:
            values[index] = verdict

    pool = make_pool()
    #: future -> (index, attempt, absolute deadline or None)
    futures: Dict[Future, Tuple[int, int, Optional[float]]] = {}
    try:
        while pending or futures:
            now = time.monotonic()
            while pending and len(futures) < n_workers:
                index, attempt, not_before = pending[0]
                if not_before > now:
                    break
                pending.popleft()
                limit = policy.trial_timeout
                deadline = None if limit is None else now + limit
                try:
                    future = pool.submit(
                        _run_spec, (index, spec_list[index], attempt, policy.chaos)
                    )
                except BrokenProcessPool:
                    # The break surfaces through the in-flight futures below;
                    # this submission just waits for the rebuilt pool.
                    pending.appendleft((index, attempt, not_before))
                    break
                futures[future] = (index, attempt, deadline)

            if not futures:
                # Everything runnable is backing off; sleep to the nearest
                # retry time instead of spinning.
                wake = min(entry[2] for entry in pending)
                delay = wake - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                continue

            deadlines = [meta[2] for meta in futures.values() if meta[2] is not None]
            deadlines += [entry[2] for entry in pending if entry[2] > now]
            timeout = None
            if deadlines:
                timeout = max(0.0, min(deadlines) - time.monotonic()) + 0.005
            done, _ = wait(set(futures), timeout=timeout, return_when=FIRST_COMPLETED)

            crashed: List[Tuple[int, int, Optional[float]]] = []
            for future in done:
                index, attempt, _ = meta = futures.pop(future)
                error = future.exception()
                if error is None:
                    result = future.result()
                    values[index] = result.value
                    completed.append(result)
                    ledger.record(index, result.value)
                elif isinstance(error, BrokenProcessPool):
                    crashed.append(meta)
                else:
                    charge(index, attempt, "error", error)

            if crashed:
                POOL_COUNTERS.add("worker_crashes")
                POOL_COUNTERS.add("pool_rebuilds")
                survivors = list(futures.values())
                futures.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = make_pool()
                for index, attempt, _ in crashed + survivors:
                    charge(index, attempt, "crash", "worker process died")
                continue

            now = time.monotonic()
            victims = [
                meta for meta in futures.values()
                if meta[2] is not None and now >= meta[2]
            ]
            if victims:
                # A running task cannot be cancelled; tear the pool down and
                # resubmit the innocent bystanders at their current attempt.
                POOL_COUNTERS.add("timeouts", len(victims))
                POOL_COUNTERS.add("pool_rebuilds")
                for process in getattr(pool, "_processes", {}).values():
                    process.terminate()
                survivors = [meta for meta in futures.values() if meta not in victims]
                futures.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = make_pool()
                for index, attempt, _ in survivors:
                    pending.appendleft((index, attempt, 0.0))
                message = f"exceeded trial_timeout={policy.trial_timeout}s"
                for index, attempt, _ in victims:
                    charge(index, attempt, "timeout", message)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)

    _merge_worker_counters(completed)
    return [values[index] for index in range(len(spec_list))]


def run_trials(
    specs: Iterable[TrialSpec],
    jobs: Optional[int] = 1,
    *,
    policy: Optional[ExecutionPolicy] = None,
) -> List[Any]:
    """Execute the specs and return their values **in spec order**.

    ``jobs`` follows :func:`resolve_jobs` (1 = serial in-process, 0 = all
    cores, N = a pool of N workers).  Engine settings are not a parameter:
    they travel inside each trial's arguments (the drivers' pickled
    :class:`~repro.api.spec.ScenarioSpec`).

    ``policy`` (default: ``ExecutionPolicy()``) is the only way resilience
    settings reach a trial.  A serial run always takes the in-process loop,
    which skips and records through ``policy.checkpoint`` and retries up to
    ``policy.max_retries``.  A parallel run takes the fault-tolerant submit
    loop when :attr:`ExecutionPolicy.resilient` holds — per-trial timeouts,
    bounded retry with exponential backoff, pool rebuild after a worker
    crash, poison-trial quarantine, chaos injection and the journal — and a
    plain ``pool.map`` otherwise.

    Serial and parallel execution of the same specs produce identical values
    — including parallel runs that crashed and retried — only wall-clock
    time and cache-statistics attribution differ (a path set enumerated once
    by a shared serial cache may be enumerated independently by several
    workers).
    """
    spec_list = list(specs)
    if policy is None:
        policy = ExecutionPolicy()
    n_jobs = resolve_jobs(jobs)
    if not spec_list:
        return []
    if n_jobs == 1 or len(spec_list) == 1:
        return _run_serial(spec_list, policy)

    n_workers = min(n_jobs, len(spec_list))
    if policy.resilient:
        return _run_resilient(spec_list, n_workers, policy)

    # Chunking amortises IPC for large batches of cheap trials while still
    # keeping every worker busy until the tail of the batch.
    chunksize = max(1, len(spec_list) // (n_workers * 4))
    with ProcessPoolExecutor(
        max_workers=n_workers, initializer=_init_worker
    ) as pool:
        tasks = ((index, spec, 0, None) for index, spec in enumerate(spec_list))
        results = list(pool.map(_run_spec, tasks, chunksize=chunksize))
    _merge_worker_counters(results)
    return [result.value for result in results]
