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

The tree is the same with and without compression, so with only
a ``subset_budget`` the truncation point is a pure function of the search
and therefore deterministic, which is what the budget-law tests rely on.

The limits travel explicitly: an
:class:`~repro.api.spec.EngineConfig` carries ``time_budget`` /
``subset_budget`` (the runner's ``--time-budget`` builds one), every spec
sent to a pool worker carries its config, and :meth:`EngineConfig.budget`
builds a fresh :class:`Budget` per search.
"""

from __future__ import annotations

import time
from typing import Any, Optional

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
    instance per search (what :meth:`repro.api.spec.EngineConfig.budget`
    builds) gives per-search semantics.
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


def resolve_budget(budget: Optional["Budget"] = None) -> Optional["Budget"]:
    """Check a ``budget`` argument: ``None`` (unbounded) and a
    :class:`Budget` pass through unchanged; anything else is rejected."""
    if budget is not None and not isinstance(budget, Budget):
        raise IdentifiabilityError(
            f"budget must be a repro.resilience.Budget or None, got {budget!r}"
        )
    return budget
