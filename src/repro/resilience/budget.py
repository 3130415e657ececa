"""Deadlines and cooperative cancellation for the engine's searches.

A :class:`Budget` bounds one search by wall-clock seconds (monotonic clock,
immune to NTP steps) and/or by a work count, ``subset_budget``.  The engine
polls it cooperatively:

* the µ search (``identifiability()``) charges one unit per search-tree node
  — one candidate coverer tried — and on expiry truncates at the last fully
  completed level, returning a well-formed, certified-lower-bound
  :class:`~repro.engine.signatures.IdentifiabilityResult` with
  ``exhausted_search=False`` and ``stats.budget_exhausted=True``;
* the census queries charge one unit per enumerated subset and raise
  :class:`~repro.exceptions.BudgetExceededError` on expiry, because a
  partial census has no sound truncation.

The tree is the same on every backend and compression setting, so with only
a ``subset_budget`` the truncation point is a pure function of the search
and therefore deterministic, which is what the budget-law tests rely on.

Like the backend/compression knobs, the budget has a process-global
policy (``budget_policy`` / ``current_budget_limits``) so ``--time-budget``
scopes a whole runner invocation and :meth:`EngineConfig.from_policy`
captures it into specs that travel to pool workers.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Iterator, Optional, Tuple

from repro.exceptions import IdentifiabilityError


def _validate_time_budget(value: Any) -> Optional[float]:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise IdentifiabilityError(
            f"time_budget must be a positive number of seconds, got {value!r}"
        )
    if value <= 0:
        raise IdentifiabilityError(
            f"time_budget must be > 0 seconds, got {value!r}"
        )
    return float(value)


def _validate_subset_budget(value: Any) -> Optional[int]:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise IdentifiabilityError(
            f"subset_budget must be a positive int, got {value!r}"
        )
    if value <= 0:
        raise IdentifiabilityError(f"subset_budget must be > 0, got {value!r}")
    return value


class Budget:
    """A cooperative wall-clock / work-count budget for one search.

    The budget is *stateful*: :meth:`start` pins the deadline on first use and
    :meth:`spend` charges work units (µ search-tree nodes, census subsets),
    so a single instance can also be
    shared across several engine calls to bound them jointly.  A fresh
    instance per search (what :func:`resolve_budget` builds from the global
    limits or an :class:`~repro.api.spec.EngineConfig`) gives per-search
    semantics.
    """

    __slots__ = ("time_budget", "subset_budget", "_deadline", "_consumed")

    def __init__(
        self,
        time_budget: Optional[float] = None,
        subset_budget: Optional[int] = None,
    ) -> None:
        self.time_budget = _validate_time_budget(time_budget)
        self.subset_budget = _validate_subset_budget(subset_budget)
        self._deadline: Optional[float] = None
        self._consumed = 0

    @property
    def bounded(self) -> bool:
        """Whether this budget constrains anything at all."""
        return self.time_budget is not None or self.subset_budget is not None

    @property
    def consumed(self) -> int:
        """Work units charged so far."""
        return self._consumed

    def start(self) -> "Budget":
        """Pin the wall-clock deadline (idempotent; first call wins)."""
        if self._deadline is None and self.time_budget is not None:
            self._deadline = time.monotonic() + self.time_budget
        return self

    def spend(self, n: int = 1) -> bool:
        """Charge ``n`` work units and report whether the budget is exhausted."""
        self._consumed += n
        return self.expired()

    def expired(self) -> bool:
        """Whether the budget is exhausted (no charge)."""
        if (
            self.subset_budget is not None
            and self._consumed >= self.subset_budget
        ):
            return True
        if self._deadline is not None:
            return time.monotonic() >= self._deadline
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Budget(time_budget={self.time_budget!r}, "
            f"subset_budget={self.subset_budget!r}, consumed={self._consumed})"
        )


# -- the budget policy --------------------------------------------------------

#: Raw process-global budget limits (the ``--time-budget`` scope); ``None``
#: means unbounded on that axis.
_TIME_BUDGET: Optional[float] = None
_SUBSET_BUDGET: Optional[int] = None


def _install_budget_limits(
    time_budget: Optional[float], subset_budget: Optional[int]
) -> Tuple[Optional[float], Optional[int]]:
    """Install the budget limits (internal setter for :func:`budget_policy`
    and the pool-worker initializer)."""
    global _TIME_BUDGET, _SUBSET_BUDGET
    _TIME_BUDGET = _validate_time_budget(time_budget)
    _SUBSET_BUDGET = _validate_subset_budget(subset_budget)
    return _TIME_BUDGET, _SUBSET_BUDGET


def current_budget_limits() -> Tuple[Optional[float], Optional[int]]:
    """The process-global ``(time_budget, subset_budget)`` limits."""
    return _TIME_BUDGET, _SUBSET_BUDGET


@contextlib.contextmanager
def budget_policy(
    time_budget: Optional[float] = None,
    subset_budget: Optional[int] = None,
) -> Iterator[Tuple[Optional[float], Optional[int]]]:
    """Scope budget limits to a ``with`` block.

    ``(None, None)`` leaves the limits untouched (the block still restores
    whatever was in effect on entry, so nesting is safe)::

        with budget_policy(time_budget=5.0):
            ...  # every search here without an explicit budget gets 5 s
    """
    previous = (_TIME_BUDGET, _SUBSET_BUDGET)
    try:
        if time_budget is not None or subset_budget is not None:
            _install_budget_limits(time_budget, subset_budget)
        yield (_TIME_BUDGET, _SUBSET_BUDGET)
    finally:
        _install_budget_limits(*previous)


def resolve_budget(budget: Optional["Budget"] = None) -> Optional["Budget"]:
    """Normalise a ``budget`` argument: ``None`` builds a fresh per-search
    :class:`Budget` from the global limits (or stays ``None`` when both are
    unset); an explicit :class:`Budget` passes through unchanged."""
    if budget is None:
        time_budget, subset_budget = _TIME_BUDGET, _SUBSET_BUDGET
        if time_budget is None and subset_budget is None:
            return None
        return Budget(time_budget, subset_budget)
    if not isinstance(budget, Budget):
        raise IdentifiabilityError(
            f"budget must be a repro.resilience.Budget or None, got {budget!r}"
        )
    return budget
