"""The Boolean measurement system of Equation (1).

Localisation of failing nodes from end-to-end Boolean measurements is the set
of solutions of::

    ⋀_{p ∈ P} ( ⋁_{v ∈ p} x_v ≡ b_p )

where ``b_p`` is the bit received at the end monitor of path ``p`` (1 = some
node on ``p`` failed) and ``x_v`` is true iff node ``v`` failed.  This module
represents the system explicitly, evaluates candidate assignments, and
enumerates its solutions up to a failure-set size bound.

:class:`BooleanSystem` is the clause-level *reference oracle* for
localisation: it builds one :class:`BooleanEquation` per path, which is far
too slow for production use, and no library code calls it.  The localiser in
:mod:`repro.tomography.inference` answers the same question on the signature
engine's packed rows, and the parity tests hold it to
:meth:`BooleanSystem.solutions` set for set and in order.  The forward model
:func:`measurement_vector` lives here too and does run on the engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro._typing import MeasurementVector, Node, Path
from repro.exceptions import IdentifiabilityError
from repro.routing.paths import PathSet


@dataclass(frozen=True)
class BooleanEquation:
    """One clause ``⋁_{v ∈ p} x_v ≡ b`` of the measurement system."""

    path: Path
    observation: int

    def __post_init__(self) -> None:
        if self.observation not in (0, 1):
            raise IdentifiabilityError(
                f"observation must be 0 or 1, got {self.observation!r}"
            )

    @property
    def variables(self) -> FrozenSet[Node]:
        """The nodes (variables) appearing in the clause."""
        return frozenset(self.path)

    def is_satisfied_by(self, failure_set: Iterable[Node]) -> bool:
        """Evaluate the clause under the assignment ``x_v = [v in failure_set]``."""
        failed = frozenset(failure_set)
        observed = int(any(node in failed for node in self.path))
        return observed == self.observation


@dataclass(frozen=True)
class BooleanSystem:
    """The full measurement system of Equation (1) (the localisation test
    oracle; see the module docstring)."""

    equations: Tuple[BooleanEquation, ...]

    @classmethod
    def from_measurements(
        cls, pathset: PathSet, observations: Sequence[int]
    ) -> "BooleanSystem":
        """Build the system from a path set and its measurement vector."""
        if len(observations) != pathset.n_paths:
            raise IdentifiabilityError(
                f"expected {pathset.n_paths} observations, got {len(observations)}"
            )
        equations = tuple(
            BooleanEquation(path, int(bit))
            for path, bit in zip(pathset.paths, observations)
        )
        return cls(equations)

    @property
    def variables(self) -> FrozenSet[Node]:
        """All variables (nodes) appearing in the system."""
        result: set = set()
        for equation in self.equations:
            result.update(equation.variables)
        return frozenset(result)

    @property
    def n_equations(self) -> int:
        return len(self.equations)

    def is_satisfied_by(self, failure_set: Iterable[Node]) -> bool:
        """True when the assignment encoded by ``failure_set`` solves the system."""
        failed = frozenset(failure_set)
        return all(eq.is_satisfied_by(failed) for eq in self.equations)

    def healthy_nodes(self) -> FrozenSet[Node]:
        """Nodes forced to be working: every node on a path measuring 0."""
        healthy: set = set()
        for equation in self.equations:
            if equation.observation == 0:
                healthy.update(equation.path)
        return frozenset(healthy)

    def failing_paths(self) -> Tuple[BooleanEquation, ...]:
        """Clauses with observation 1 (each must be *hit* by a failing node)."""
        return tuple(eq for eq in self.equations if eq.observation == 1)

    def candidate_nodes(self) -> FrozenSet[Node]:
        """Nodes that can possibly be failing: on some failing path, on no
        healthy path."""
        healthy = self.healthy_nodes()
        candidates: set = set()
        for equation in self.failing_paths():
            candidates.update(set(equation.path) - healthy)
        return frozenset(candidates)

    def solutions(
        self, max_failures: int, universe: Optional[Iterable[Node]] = None
    ) -> Iterator[FrozenSet[Node]]:
        """Enumerate the failure sets of size ≤ ``max_failures`` solving the system.

        The enumeration is restricted to the candidate nodes (nodes on a
        failed path and on no healthy path), which is sound: any node outside
        that set either violates a 0-observation or cannot help satisfy any
        1-observation.  When ``universe`` is given, candidates are additionally
        intersected with it.
        """
        if max_failures < 0:
            raise IdentifiabilityError(
                f"max_failures must be >= 0, got {max_failures}"
            )
        candidates = self.candidate_nodes()
        if universe is not None:
            candidates &= frozenset(universe)
        ordered = sorted(candidates, key=repr)
        failing = self.failing_paths()
        # Packed-signature formulation: index the failing clauses, give every
        # candidate node the bitmask of clauses it would satisfy, and accept a
        # combination iff the union of its masks covers every failing clause.
        # This replaces the per-combination clause re-evaluation with one OR
        # per node and one integer comparison per candidate set.
        target = (1 << len(failing)) - 1
        node_masks: Dict[Node, int] = {node: 0 for node in ordered}
        for bit_index, equation in enumerate(failing):
            bit = 1 << bit_index
            for node in equation.variables:
                if node in node_masks:
                    node_masks[node] |= bit
        for size in range(0, max_failures + 1):
            for combo in itertools.combinations(ordered, size):
                covered = 0
                for node in combo:
                    covered |= node_masks[node]
                if covered == target:
                    yield frozenset(combo)

    def minimal_solutions(
        self, max_failures: int, universe: Optional[Iterable[Node]] = None
    ) -> Tuple[FrozenSet[Node], ...]:
        """Solutions that are minimal under set inclusion (minimal hitting sets
        of the failed paths among candidate nodes)."""
        found: List[FrozenSet[Node]] = []
        for solution in self.solutions(max_failures, universe):
            if any(existing <= solution for existing in found):
                continue
            found.append(solution)
        return tuple(found)


def measurement_vector(pathset: PathSet, failure_set: Iterable[Node]) -> MeasurementVector:
    """Simulate the end-to-end measurement: 1 for each path crossing a failure.

    This is the forward model of Boolean network tomography — a path reports 1
    iff at least one of its nodes is in the failure set.  Computed from the
    packed signatures of the pathset's engine: the observation vector is the
    indicator of ``P(F)``, the union signature of the failed nodes, unpacked
    in one vectorized pass (numpy backend) or one sparse bit walk (python
    backend) instead of scanning every node of every path.  Under the default
    signature-universe compression the union runs over distinct path columns
    only and the engine expands the indicator back through its
    :class:`~repro.engine.compress.CompressionPlan`, so the vector is always
    indexed by the original paths of ``pathset``.
    """
    failed = frozenset(failure_set)
    unknown = failed - pathset.node_universe
    if unknown:
        raise IdentifiabilityError(
            f"failure nodes {sorted(map(repr, unknown))} are outside the node universe"
        )
    return pathset.engine().measurement_vector(failed)


def build_system(pathset: PathSet, failure_set: Iterable[Node]) -> BooleanSystem:
    """Measurement system obtained by measuring ``pathset`` under ``failure_set``."""
    observations = measurement_vector(pathset, failure_set)
    return BooleanSystem.from_measurements(pathset, observations)
