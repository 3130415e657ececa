"""Naive reference oracles shared by the engine-parity suites.

Each oracle runs a paper definition directly — a flat
``itertools.combinations`` sweep that recomputes ``P(U)`` from the element
masks for every subset — with no signature engine in between, so the
engine's µ search and subset census can be held to it bit for bit.  The
clause-level Boolean system of Equation (1) at the end of the module is the
same kind of oracle for localisation.

The ``reference_*`` column functions are the bit-by-bit definitions of the
incidence column primitives of :mod:`repro.engine.columns`;
:func:`reference_columns` runs the library on them in place of its numpy
kernels, so a whole enumeration, compression or engine build can be held
to them.

The ``core_*`` functions are a reference of a different kind: µ and µ_α
computed straight from :func:`~repro.routing.paths.enumerate_paths` and the
:mod:`repro.core` searches, with µ capped one level above the Section-3
structural bound.  They hold the experiment drivers and the
:class:`~repro.api.scenario.Scenario` facade to the library's own core
without going through either.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro._typing import Node, Path
from repro.core.bounds import structural_upper_bound
from repro.core.identifiability import maximal_identifiability_detailed
from repro.core.truncated import truncated_identifiability
from repro.engine import columns
from repro.exceptions import IdentifiabilityError
from repro.routing.paths import PathSet, enumerate_paths
from repro.tomography.inference import measurement_vector


def naive_sweep(
    elements: Sequence[Any],
    masks: Mapping[Any, int],
    max_size: Optional[int] = None,
) -> Dict[str, Any]:
    """Definition 2.2 by brute force over ``elements`` (in the given order).

    Returns ``value``, ``witness`` (``(partner, subset)`` frozensets of the
    first collision in enumeration order, or ``None``), ``searched_up_to``
    and ``exhausted``.  The engine matches everything but the witness, whose
    contract is :func:`naive_canonical_witness`; the two coincide at µ = 0.
    """
    n = len(elements)
    cap = n if max_size is None else max(0, min(max_size, n))

    def result(value, witness, searched):
        return {
            "value": value,
            "witness": witness,
            "searched_up_to": searched,
            "exhausted": witness is None,
        }

    if cap == 0:
        return result(0, None, 0)
    table: Dict[int, Tuple[Any, ...]] = {}
    for size in range(0, cap + 1):
        for subset in itertools.combinations(elements, size):
            signature = union_mask(masks, subset)
            if signature in table:
                witness = (frozenset(table[signature]), frozenset(subset))
                return result(max(size - 1, 0), witness, max(size, 1))
            table[signature] = subset
    return result(cap, None, cap)


def naive_maximal_identifiability_detailed(
    pathset,
    max_size: Optional[int] = None,
    nodes: Optional[Iterable[Any]] = None,
    universe=None,
) -> Dict[str, Any]:
    """:func:`naive_sweep` over a path set's node universe (or over
    ``universe``, a :class:`~repro.failures.FailureUniverse` built over it),
    optionally restricted to ``nodes`` in the engine's canonical order; the
    canonical witness rides along as ``canonical_witness``."""
    if universe is None:
        masks = {node: pathset.paths_through(node) for node in pathset.nodes}
        elements = pathset.nodes
    else:
        masks, elements = universe.masks, universe.elements
    if nodes is not None:
        elements = tuple(sorted(set(nodes), key=repr))
    return naive_oracle(elements, masks, max_size)


def naive_oracle(
    elements: Sequence[Any],
    masks: Mapping[Any, int],
    max_size: Optional[int] = None,
) -> Dict[str, Any]:
    """:func:`naive_sweep` plus the :func:`naive_canonical_witness` as
    ``canonical_witness`` — what :func:`assert_matches_oracle` checks."""
    oracle = naive_sweep(elements, masks, max_size)
    oracle["canonical_witness"] = naive_canonical_witness(elements, masks, max_size)
    return oracle


def naive_inseparable_pairs(universe, size: int):
    """Every unordered pair of distinct ``size``-subsets with identical path
    sets, by the literal separation test of
    :func:`repro.core.separability.verify_k_identifiability_by_separation`
    (pairs in lexicographic order; compare against the engine as a set)."""
    subsets = [
        frozenset(combo) for combo in itertools.combinations(universe.elements, size)
    ]
    pairs = []
    for i, first in enumerate(subsets):
        for second in subsets[i + 1 :]:
            if not universe.separates(first, second):
                pairs.append((first, second))
    return pairs


def naive_canonical_witness(
    elements: Sequence[Any],
    masks: Mapping[Any, int],
    max_size: Optional[int] = None,
) -> Optional[Tuple[frozenset, frozenset]]:
    """The engine's witness contract by brute force over ``elements`` (in
    the given order), as ``(first, second)`` frozensets or ``None``.

    µ = 0 keeps the fast-path witness (the naive sweep's).  Otherwise let
    ``m`` be the smallest ``|W|`` with some ``v ∉ W``, ``P(v) ⊆ P(W)``
    (a *dominator*), found by trying every ``W`` by size.  No witness when
    ``m`` does not exist or exceeds the cap.  Two size-``m`` dominators with
    the same union give the lex-min such pair ``(W, U)``; failing that, a
    cap of ``m`` has no witness, and a larger one gives ``(W, W ∪ {v})``
    for the lex-min dominator ``W`` and the smallest ``v`` it dominates.
    Lex order compares element positions.
    """
    n = len(elements)
    cap = n if max_size is None else max(0, min(max_size, n))
    if cap == 0:
        return None
    fast = naive_sweep(elements, masks, 1)
    if fast["witness"] is not None:
        return fast["witness"]
    rows = [masks[element] for element in elements]
    for size in range(1, cap + 1):
        dominated = {}
        for combo in itertools.combinations(range(n), size):
            union = union_mask(rows, combo)
            for v in range(n):
                if v not in combo and rows[v] | union == union:
                    dominated[combo] = v
                    break
        if dominated:
            break
    else:
        return None

    def named(positions):
        return frozenset(elements[i] for i in positions)

    groups: Dict[int, list] = {}
    for combo in dominated:  # lexicographic order
        groups.setdefault(union_mask(rows, combo), []).append(combo)
    pairs = [group[:2] for group in groups.values() if len(group) > 1]
    if pairs:
        first, second = min(pairs)
        return named(first), named(second)
    if cap == size:
        return None
    first = min(dominated)
    return named(first), named(first + (dominated[first],))


def assert_matches_oracle(result, oracle: Dict[str, Any], context=None) -> None:
    """An engine :class:`IdentifiabilityResult` must reproduce a
    :func:`naive_oracle`: the naive sweep's value, ``searched_up_to`` and
    ``exhausted_search``, the canonical witness, and no budget expiry."""
    assert result.value == oracle["value"], (context, result, oracle)
    assert result.searched_up_to == oracle["searched_up_to"], (context, oracle)
    assert result.exhausted_search == oracle["exhausted"], (context, oracle)
    witness = None if result.witness is None else tuple(result.witness)
    assert witness == oracle["canonical_witness"], (context, result, oracle)
    # (The core layer's uncovered-element early exit carries no stats.)
    assert result.stats is None or not result.stats.budget_exhausted, context


def assert_budget_law(result, exact: Dict[str, Any], context=None) -> None:
    """A budgeted µ result is the exact one (``exact`` is the unbudgeted
    :func:`naive_sweep`) or, when the budget ran out, a certified lower
    bound: ``value == searched_up_to ≤ µ``, no witness, not exhausted."""
    if not result.stats.budget_exhausted:
        assert (result.value, result.searched_up_to, result.exhausted_search) == (
            exact["value"],
            exact["searched_up_to"],
            exact["exhausted"],
        ), (context, result, exact)
        return
    assert result.witness is None, (context, result)
    assert result.exhausted_search is False, (context, result)
    assert result.value == result.searched_up_to <= exact["value"], (
        context,
        result,
        exact,
    )


def naive_local_mu(
    elements: Sequence[Any], masks: Mapping[Any, int], scope, cap: int
) -> int:
    """Local maximal identifiability w.r.t. ``scope`` by brute force: the
    first size at which two subsets share a signature but differ inside the
    scope, minus one (``cap`` when no size up to it fails).

    Memoised per instance: a scope that never fails sweeps every subset, and
    several suites ask for the same small instances."""
    return _naive_local_mu(
        tuple(elements),
        tuple(masks[element] for element in elements),
        frozenset(scope),
        cap,
    )


@functools.lru_cache(maxsize=None)
def _naive_local_mu(
    elements: Tuple[Any, ...], rows: Tuple[int, ...], scope: FrozenSet[Any], cap: int
) -> int:
    masks = dict(zip(elements, rows))
    projections: Dict[int, set] = {}
    for size in range(0, cap + 1):
        for subset in itertools.combinations(elements, size):
            projection = frozenset(subset) & scope
            seen = projections.setdefault(union_mask(masks, subset), set())
            if any(other != projection for other in seen):
                return size - 1
            seen.add(projection)
    return cap


def union_mask(masks, subset: Iterable[Any]) -> int:
    """``P(U)`` straight from the element masks (a mapping, or a sequence
    indexed by position)."""
    signature = 0
    for element in subset:
        signature |= masks[element]
    return signature


# -- Equation (1) at clause level ---------------------------------------------
#
# Localisation of failing nodes from end-to-end Boolean measurements is the
# set of solutions of  ⋀_{p ∈ P} ( ⋁_{v ∈ p} x_v ≡ b_p ),  where ``b_p`` is
# the bit received at the end monitor of path ``p`` (1 = some node on ``p``
# failed) and ``x_v`` is true iff node ``v`` failed.  :class:`BooleanSystem`
# builds one :class:`BooleanEquation` per path — far too slow for the
# library, which localises on the engine's packed rows — and the parity
# tests hold the localiser to :meth:`BooleanSystem.solutions` set for set
# and in order.


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


def build_system(pathset: PathSet, failure_set: Iterable[Node]) -> BooleanSystem:
    """Measurement system obtained by measuring ``pathset`` under ``failure_set``."""
    observations = measurement_vector(pathset, failure_set)
    return BooleanSystem.from_measurements(pathset, observations)


# -- the incidence column primitives, bit by bit ------------------------------


def _bit(mask: int, j: int) -> int:
    return mask >> j & 1


def reference_class_rows(keys, counts, n_rows):
    """Column by column: class ``k``'s ``counts[k]`` columns carry ``keys[k]``."""
    per_column = [key for key, count in zip(keys, counts) for _ in range(count)]
    return [
        sum(1 << j for j, key in enumerate(per_column) if _bit(key, r))
        for r in range(n_rows)
    ]


def reference_gather(rows, sources, width=None):
    """Column ``j`` of each row is its column ``sources[j]``; ``-1`` reads 0."""
    return [
        sum(
            1 << j
            for j, source in enumerate(sources)
            if source >= 0 and _bit(mask, source)
        )
        for mask in rows
    ]


def reference_keys(rows, width):
    """The rows each column is set in, column by column."""
    return tuple(
        tuple(p for p, mask in enumerate(rows) if _bit(mask, column))
        for column in range(width)
    )


def reference_dedup(rows, width):
    """``(members, keys, deduped)``: the classes of distinct nonzero columns
    with their touch keys, in first-appearance order."""
    classes: Dict[Tuple[int, ...], List[int]] = {}
    for column, key in enumerate(reference_keys(rows, width)):
        if key:
            classes.setdefault(key, []).append(column)
    keys = tuple(classes)
    deduped = [
        sum(1 << k for k, key in enumerate(keys) if p in key) for p in range(len(rows))
    ]
    return tuple(tuple(group) for group in classes.values()), keys, deduped


def expected_dedup(rows, width):
    """What ``dedup_columns`` returns: the reference classes and rows, or
    ``(None, rows)`` when every column is its own nonzero class."""
    members, _, deduped = reference_dedup(rows, width)
    if len(members) == width:
        return None, list(rows)
    return members, deduped


#: The library's column kernels and the references that stand in for them.
_COLUMN_REFERENCES = {
    "_class_rows_numpy": reference_class_rows,
    "_gather_numpy": reference_gather,
    "_dedup_numpy": expected_dedup,
    "_keys_numpy": reference_keys,
}


@contextlib.contextmanager
def reference_columns() -> Iterator[None]:
    """Run the column primitives on the references above inside the block.

    Each primitive keeps its own input checks and hands the checked input
    to its reference instead of its numpy kernel, so every caller —
    ``enumerate_paths``' class rows, compression, ``restrict_to_paths`` and
    the engine — runs on the definitions.
    """
    saved = {name: getattr(columns, name) for name in _COLUMN_REFERENCES}
    for name, reference in _COLUMN_REFERENCES.items():
        setattr(columns, name, reference)
    try:
        yield
    finally:
        for name, kernel in saved.items():
            setattr(columns, name, kernel)


def core_mu(graph, placement, mechanism: str = "CSP") -> int:
    """Node-mode µ from a fresh enumeration, capped at the structural bound + 1."""
    bound = structural_upper_bound(graph, placement, mechanism)
    return maximal_identifiability_detailed(
        enumerate_paths(graph, placement, mechanism),
        max_size=bound.combined + 1,
    ).value


def core_truncated_mu(graph, placement, alpha: int, mechanism: str = "CSP") -> int:
    """Node-mode µ_α from a fresh enumeration."""
    return truncated_identifiability(enumerate_paths(graph, placement, mechanism), alpha)
