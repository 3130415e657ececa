"""Tests for the Boolean tomography substrate (Equation 1) and localisation."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.scenario import Scenario
from repro.engine.compress import CompressionPlan
from repro.engine.signatures import SignatureEngine
from repro.exceptions import IdentifiabilityError
from repro.failures.universe import FailureUniverse
from repro.monitors import random_placement
from repro.monitors.grid_placement import chi_g
from repro.monitors.placement import MonitorPlacement
from repro.routing.mechanisms import RoutingMechanism
from repro.routing.paths import PathSet, enumerate_paths
from repro.tomography.inference import (
    consistent_failure_sets,
    identifiability_implies_unique_localization,
    localization_is_unique,
    localize_failures,
    measurement_vector,
)
from repro.tomography.scenario import TomographySession
from repro.topology import erdos_renyi_connected
from repro.topology.grids import directed_grid
from repro.topology.lines import line_graph

from oracles import BooleanEquation, BooleanSystem, build_system


def toy_pathset() -> PathSet:
    return PathSet(
        nodes=("a", "b", "c", "d"),
        paths=(("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")),
    )


class TestMeasurementVector:
    def test_no_failures_all_zero(self):
        assert measurement_vector(toy_pathset(), set()) == (0, 0, 0, 0)

    def test_single_failure(self):
        assert measurement_vector(toy_pathset(), {"b"}) == (1, 1, 0, 0)

    def test_multiple_failures_or_semantics(self):
        assert measurement_vector(toy_pathset(), {"a", "d"}) == (1, 0, 1, 1)

    def test_unknown_failure_node_rejected(self):
        with pytest.raises(IdentifiabilityError):
            measurement_vector(toy_pathset(), {"z"})


class TestBooleanSystem:
    def test_equation_validation(self):
        with pytest.raises(IdentifiabilityError):
            BooleanEquation(("a", "b"), 2)

    def test_equation_satisfaction(self):
        equation = BooleanEquation(("a", "b"), 1)
        assert equation.is_satisfied_by({"a"})
        assert not equation.is_satisfied_by(set())

    def test_system_from_measurements_length_check(self):
        with pytest.raises(IdentifiabilityError):
            BooleanSystem.from_measurements(toy_pathset(), (0, 1))

    def test_true_failure_set_satisfies_system(self):
        system = build_system(toy_pathset(), {"b", "d"})
        assert system.is_satisfied_by({"b", "d"})

    def test_healthy_nodes_on_zero_paths(self):
        system = build_system(toy_pathset(), {"d"})
        # Paths a-b, b-c, a-c all measure 0, so a, b, c are known healthy.
        assert system.healthy_nodes() == frozenset({"a", "b", "c"})
        assert system.candidate_nodes() == frozenset({"d"})

    def test_solutions_contain_truth(self):
        system = build_system(toy_pathset(), {"b"})
        assert frozenset({"b"}) in set(system.solutions(max_failures=2))

    def test_minimal_solutions_are_minimal(self):
        system = build_system(toy_pathset(), {"b"})
        minimal = system.minimal_solutions(max_failures=2)
        for first in minimal:
            for second in minimal:
                if first != second:
                    assert not first < second

    def test_variables_cover_all_path_nodes(self):
        system = build_system(toy_pathset(), set())
        assert system.variables == frozenset({"a", "b", "c", "d"})
        assert system.n_equations == 4


class TestLocalization:
    def test_unique_localisation_of_single_failure(self):
        pathset = toy_pathset()
        observations = measurement_vector(pathset, {"b"})
        result = localize_failures(pathset, observations, max_failures=1)
        assert result.unique
        assert result.localized_set == frozenset({"b"})

    def test_ambiguity_reported(self):
        # Paths: only (a,b).  Failing it is explained by {a} or {b}.
        pathset = PathSet(nodes=("a", "b"), paths=(("a", "b"),))
        observations = (1,)
        result = localize_failures(pathset, observations, max_failures=1)
        assert not result.unique
        assert result.ambiguity == 2

    def test_contains_truth(self):
        pathset = PathSet(nodes=("a", "b"), paths=(("a", "b"),))
        result = localize_failures(pathset, (1,), max_failures=1)
        assert result.contains_truth({"a"}) and result.contains_truth({"b"})

    def test_localization_is_unique_wrapper(self):
        assert localization_is_unique(toy_pathset(), {"b"})
        pathset = PathSet(nodes=("a", "b"), paths=(("a", "b"),))
        assert not localization_is_unique(pathset, {"a"})

    def test_consistent_failure_sets_filters_size(self):
        pathset = toy_pathset()
        observations = measurement_vector(pathset, {"b", "d"})
        sets = consistent_failure_sets(pathset, observations, max_failures=1)
        assert sets == ()

    def test_negative_max_failures_rejected(self):
        with pytest.raises(IdentifiabilityError):
            localize_failures(toy_pathset(), (0, 0, 0, 0), max_failures=-1)


class TestIdentifiabilityLocalizationBridge:
    def test_k_identifiable_implies_unique_localization_on_grid(self, directed_grid_3):
        """The operational meaning of Theorem 4.8: any <=2 failures on H_3
        under chi_g are uniquely localised."""
        placement = chi_g(directed_grid_3)
        pathset = enumerate_paths(directed_grid_3, placement, "CSP")
        internal = [(2, 2), (2, 3), (3, 2)]
        failure_sets = [{internal[0]}, {internal[1]}, set(internal[:2])]
        assert identifiability_implies_unique_localization(pathset, failure_sets, k=2)

    def test_size_bound_enforced(self):
        pathset = toy_pathset()
        with pytest.raises(IdentifiabilityError):
            identifiability_implies_unique_localization(pathset, [{"a", "b"}], k=1)


class TestTomographySession:
    def test_session_mu_matches_direct_computation(self, directed_grid_3):
        placement = chi_g(directed_grid_3)
        session = TomographySession(directed_grid_3, placement)
        direct = Scenario.from_components(directed_grid_3, placement).mu()
        assert session.mu == direct.value

    def test_measure_and_localize_roundtrip(self, directed_grid_3):
        session = TomographySession(directed_grid_3, chi_g(directed_grid_3))
        failure = {(2, 2)}
        outcome = session.run_trial(failure)
        assert outcome.uniquely_identified
        assert outcome.failure_set == frozenset(failure)

    def test_sample_failure_set_avoids_monitors_when_possible(self, directed_grid_3):
        session = TomographySession(directed_grid_3, chi_g(directed_grid_3))
        sample = session.sample_failure_set(1, rng=5)
        assert sample <= session.pathset.node_universe

    def test_sample_failure_set_size_validation(self, directed_grid_3):
        session = TomographySession(directed_grid_3, chi_g(directed_grid_3))
        with pytest.raises(IdentifiabilityError):
            session.sample_failure_set(-1)
        with pytest.raises(IdentifiabilityError):
            session.sample_failure_set(100)

    def test_owner_less_node_universe_samples_its_own_elements(self):
        """A node universe over some of the nodes draws its failures from
        those nodes, never from the rest of the path set's nodes."""
        grid = directed_grid(4)
        placement = chi_g(grid)
        pathset = enumerate_paths(grid, placement)
        subset = pathset.nodes[::2]
        universe = FailureUniverse(
            kind="node",
            elements=subset,
            n_paths=pathset.n_paths,
            _masks={node: pathset.paths_through(node) for node in subset},
        )
        session = TomographySession(
            grid, placement, pathset=pathset, universe=universe
        )
        report = session.run_campaign(1, 20, rng=1)
        assert report.n_trials == 20
        for size in (1, 2):
            for seed in range(10):
                assert session.sample_failure_set(size, rng=seed) <= set(subset)

    def test_campaign_within_guarantee_has_perfect_rate(self, directed_grid_3):
        session = TomographySession(directed_grid_3, chi_g(directed_grid_3))
        report = session.run_campaign(failure_size=1, n_trials=5, rng=1)
        assert report.unique_rate == 1.0
        assert report.mean_ambiguity == 1.0

    def test_campaign_validation(self, directed_grid_3):
        session = TomographySession(directed_grid_3, chi_g(directed_grid_3))
        with pytest.raises(IdentifiabilityError):
            session.run_campaign(1, 0)

    @pytest.mark.parametrize("bad", [True, False, 1.5, 2.0, "2", None])
    def test_failure_size_and_trial_count_must_be_ints(self, bad, directed_grid_3):
        session = TomographySession(directed_grid_3, chi_g(directed_grid_3))
        with pytest.raises(IdentifiabilityError, match="must be an int"):
            session.sample_failure_set(bad)
        with pytest.raises(IdentifiabilityError, match="must be an int"):
            session.run_campaign(bad, 2)
        with pytest.raises(IdentifiabilityError, match="must be an int"):
            session.run_campaign(1, bad)

    def test_describe_mentions_mechanism(self, directed_grid_3):
        session = TomographySession(directed_grid_3, chi_g(directed_grid_3))
        assert "CSP" in session.describe()

    def test_line_topology_ambiguous_for_interior_failures(self):
        graph = line_graph(4)
        placement = MonitorPlacement.of(inputs={0}, outputs={3})
        session = TomographySession(graph, placement)
        outcome = session.run_trial({1})
        # mu = 0: the failure is detected but cannot be pinned to node 1.
        assert sum(outcome.observations) > 0
        assert not outcome.uniquely_identified


def parity_universe(pathset, kind):
    """One failure universe of ``pathset`` by label: the canonical node and
    link universes, an SRLG universe grouping every link, one whose groups
    leave paths untouched (its plan drops columns), and an owner-less node
    universe over half the nodes."""
    links = pathset.links
    if kind in ("node", "link"):
        return pathset.universe(kind)
    if kind == "srlg":
        groups = {f"g{i}": links[i : i + 2] for i in range(0, len(links), 2)}
        return pathset.universe("srlg", groups=groups)
    if kind == "srlg-partial":
        return pathset.universe("srlg", groups={"a": links[:2], "b": links[2:3]})
    subset = pathset.nodes[::2]
    return FailureUniverse(
        kind="node",
        elements=subset,
        n_paths=pathset.n_paths,
        _masks={node: pathset.paths_through(node) for node in subset},
    )


class TestMeasurementParity:
    """``TomographySession.measure`` builds the vector from the universe's
    original-width rows; the engine's compressed indicator and a per-path
    scan of the rows are the references."""

    @pytest.mark.parametrize("compress", (True, False), ids=("compressed", "raw"))
    @pytest.mark.parametrize(
        "kind", ("node", "link", "srlg", "srlg-partial", "owner-less")
    )
    @pytest.mark.parametrize("mechanism", tuple(RoutingMechanism))
    def test_measure_matches_engine_and_row_scan(
        self, mechanism, kind, compress, monkeypatch
    ):
        rng = random.Random("measurement-parity")
        graph = erdos_renyi_connected(7, 0.45, rng)
        placement = random_placement(graph, 2, 2, rng=rng)
        pathset = enumerate_paths(graph, placement, mechanism)
        universe = parity_universe(pathset, kind)
        session = TomographySession(
            graph, placement, mechanism, pathset=pathset, universe=universe
        )
        if not compress:
            session.engine = SignatureEngine.from_universe(
                session.universe, compress=False
            )
        engine = session.engine
        elements = universe.elements
        if kind == "srlg-partial":
            # Some path crosses no group: the compressed plan drops it.
            assert universe.mask_of_set(elements) != (1 << pathset.n_paths) - 1
            if compress:
                assert sum(engine.compression.multiplicity) < pathset.n_paths
        failure_sets = [()] + [
            combo for size in (1, 2) for combo in itertools.combinations(elements, size)
        ] + [elements]
        for failure in failure_sets:
            observations = session.measure(failure)
            assert observations == engine.indicator_vector(
                engine.union_signature(failure)
            ), (kind, failure)
            assert observations == tuple(
                int(any(universe.mask(e) >> j & 1 for e in failure))
                for j in range(pathset.n_paths)
            ), (kind, failure)
            # The measured vector reuses its union signature: no fold.
            # A copy of it is folded, and must localise the same way.
            folded = session.localize(list(observations), len(failure))
            with monkeypatch.context() as patched:
                patched.setattr(CompressionPlan, "compress_indicator", None)
                localization = session.localize(observations, len(failure))
            assert localization == folded, (kind, failure)

    def test_measure_rejects_foreign_elements(self, directed_grid_3):
        session = TomographySession(directed_grid_3, chi_g(directed_grid_3))
        with pytest.raises(IdentifiabilityError, match="not in the node"):
            session.measure({"ghost"})


def law_instances():
    """Small grids with χ_g and random instances, each in the node and the
    link universe: ``(label, session)`` pairs."""
    for n in (3, 4):
        graph = directed_grid(n)
        for universe in ("node", "link"):
            yield f"H_{n}/{universe}", TomographySession(
                graph, chi_g(graph), universe=universe
            )
    for seed in range(8):
        rng = random.Random(f"definition-2.1:{seed}")
        graph = erdos_renyi_connected(rng.randint(5, 7), 0.5, rng)
        placement = random_placement(graph, 2, 2, rng=rng)
        for universe in ("node", "link"):
            yield f"random {seed}/{universe}", TomographySession(
                graph, placement, universe=universe
            )


class TestDefinition21Law:
    """Definition 2.1 end to end: µ from the subset search and localisation
    through the session must agree."""

    def test_every_failure_set_up_to_mu_localizes_uniquely(self):
        for label, session in law_instances():
            mu = session.mu
            for size in range(mu + 1):
                for failure in itertools.combinations(session.universe.elements, size):
                    outcome = session.run_trial(failure, max_failures=mu)
                    assert outcome.uniquely_identified, (label, mu, failure)

    def test_witness_at_mu_plus_one_is_ambiguous(self):
        witnessed = 0
        for label, session in law_instances():
            mu = session.mu
            witness = session.engine.identifiability(max_size=mu + 1).witness
            if witness is None:
                continue  # identifiable up to the whole universe
            assert witness.level == mu + 1, label
            # Equal measurements: both sides solve Equation (1) for the
            # witness's observations.
            observations = session.measure(witness.first)
            assert session.measure(witness.second) == observations, label
            localization = session.localize(observations, mu + 1)
            if not all(map(session.universe.mask, witness.first | witness.second)):
                # An element on no path (µ = 0 via the pair ∅ / {v}) changes
                # no measurement; like the BooleanSystem.solutions oracle, the
                # localiser only proposes elements on some failing path.
                assert mu == 0 and localization.consistent_sets == (frozenset(),)
                continue
            assert localization.contains_truth(witness.first), label
            assert localization.contains_truth(witness.second), label
            assert not localization.unique, label
            witnessed += 1
        assert witnessed >= 8


class TestRoundTripProperty:
    @given(seed=st.integers(0, 100), size=st.integers(1, 2))
    @settings(max_examples=20, deadline=None)
    def test_truth_is_always_consistent(self, seed, size, directed_grid_3):
        """Whatever fails, the true failure set always satisfies Equation 1."""
        placement = chi_g(directed_grid_3)
        session = TomographySession(directed_grid_3, placement)
        failure = session.sample_failure_set(size, rng=seed)
        outcome = session.run_trial(failure)
        assert outcome.localization.contains_truth(failure)
