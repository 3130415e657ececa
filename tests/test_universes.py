"""Element-generic failure universes: construction, parity, schema migration.

The load-bearing properties of the PR-5 refactor:

* **Link masks are exact** — the masks accumulated during the enumeration
  DFS equal a from-scratch re-scan of the emitted paths, and the link
  universe covers every edge of the topology (untraversed edges included).
* **Engine-vs-naive parity** — for the link and SRLG universes, the engine's
  µ, ``searched_up_to`` and exhaustion equal a brute-force sweep over the
  definition and its witness the canonical one (random instances across
  seeds × mechanisms), exactly like the node-mode parity tests.
* **Schema migration** — v1 spec payloads parse, auto-upgrade to the v2
  node-mode document (snapshotted), and build scenarios bit-identical to
  their v2 twins; malformed universes fail loudly.
* **End-to-end** — link and SRLG scenarios run through the facade, the spec
  runner (serial and ``--jobs 2``) and a parallel paper-table driver.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest

import repro
from repro.api.scenario import Scenario
from repro.api.spec import (
    FailureModel,
    PlacementSpec,
    ScenarioSpec,
    TopologySpec,
    UniverseSpec,
)
from repro.core.identifiability import (
    maximal_identifiability_detailed,
    resolve_universe,
)
from repro.core.separability import verify_k_identifiability_by_separation
from repro.core.truncated import truncated_identifiability
from repro.engine import SignatureEngine
from repro.exceptions import IdentifiabilityError, SpecError
from repro.failures.universe import build_universe, canonical_link
from repro.monitors import mdmp_placement, random_placement
from repro.routing import RoutingMechanism, enumerate_paths
from repro.topology import claranet, erdos_renyi_connected
from repro.topology.grids import directed_grid
from repro.monitors.grid_placement import chi_g

from oracles import (
    BooleanSystem,
    assert_matches_oracle,
    naive_maximal_identifiability_detailed,
)

MECHANISMS = ("CSP", "CAP-", "CAP")


def random_instance(seed: int, mechanism: str):
    """A small random (graph, placement, pathset) triple, CAP-friendly."""
    rng = random.Random(f"universes:{seed}:{mechanism}")
    graph = erdos_renyi_connected(rng.randint(5, 7), 0.5, rng)
    placement = random_placement(graph, 2, 2, rng=rng)
    return graph, placement, enumerate_paths(graph, placement, mechanism)


def naive_mu(universe, max_size):
    """Reference µ: subset sweep straight off Definitions 2.1/2.2."""
    elements = universe.elements
    seen = {}
    for size in range(0, max_size + 1):
        for combo in itertools.combinations(elements, size):
            key = universe.mask_of_set(combo)
            if key in seen and seen[key] != frozenset(combo):
                return size - 1
            seen.setdefault(key, frozenset(combo))
    return max_size


# ---------------------------------------------------------------------------
# Universe construction
# ---------------------------------------------------------------------------

class TestLinkMasks:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_dfs_link_masks_match_path_rescan(self, mechanism):
        for seed in range(5):
            graph, _, pathset = random_instance(seed, mechanism)
            directed = graph.is_directed()
            for link in pathset.links:
                expected = 0
                for index, path in enumerate(pathset.paths):
                    pairs = {
                        canonical_link(u, v, directed)
                        for u, v in zip(path, path[1:])
                        if u != v
                    }
                    if link in pairs:
                        expected |= 1 << index
                assert pathset.paths_through_link(link) == expected

    def test_link_universe_covers_every_edge(self):
        graph = claranet()
        pathset = enumerate_paths(graph, mdmp_placement(graph, 3))
        assert len(pathset.links) == graph.number_of_edges()
        for u, v in graph.edges():
            # Both orientations resolve to the same canonical link.
            assert pathset.paths_through_link((u, v)) == pathset.paths_through_link((v, u))

    def test_directed_links_keep_orientation(self):
        graph = directed_grid(3)
        pathset = enumerate_paths(graph, chi_g(graph))
        assert pathset.directed is True
        assert len(pathset.links) == graph.number_of_edges()

    def test_unknown_link_rejected(self):
        graph = claranet()
        pathset = enumerate_paths(graph, mdmp_placement(graph, 3))
        from repro.exceptions import RoutingError

        with pytest.raises(RoutingError):
            pathset.paths_through_link(("ghost", "town"))

    def test_directly_constructed_pathset_derives_links(self):
        pathset = repro.PathSet(
            nodes=("a", "b", "c"), paths=(("a", "b"), ("b", "c"), ("a", "b", "c"))
        )
        assert set(pathset.links) == {("a", "b"), ("b", "c")}
        assert pathset.paths_through_link(("a", "b")) == 0b101
        assert pathset.paths_through_link(("c", "b")) == 0b110

    def test_restriction_column_selects_link_masks(self):
        graph = claranet()
        pathset = enumerate_paths(graph, mdmp_placement(graph, 3))
        restricted = pathset.restrict_to_paths(range(0, pathset.n_paths, 2))
        assert restricted.links == pathset.links
        for link in pathset.links:
            expected = 0
            for j, i in enumerate(range(0, pathset.n_paths, 2)):
                if pathset.paths_through_link(link) >> i & 1:
                    expected |= 1 << j
            assert restricted.paths_through_link(link) == expected


class TestUniverseObjects:
    def test_node_universe_wraps_node_masks(self):
        graph = claranet()
        pathset = enumerate_paths(graph, mdmp_placement(graph, 3))
        universe = pathset.universe("node")
        assert universe.kind == "node"
        assert universe.elements == pathset.nodes
        for node in pathset.nodes:
            assert universe.mask(node) == pathset.paths_through(node)
        # Memoised per fingerprint.
        assert pathset.universe("node") is universe

    def test_srlg_masks_are_member_unions(self):
        graph = claranet()
        pathset = enumerate_paths(graph, mdmp_placement(graph, 3))
        links = pathset.links
        groups = {"west": [links[0], links[1]], "east": [links[2]]}
        universe = pathset.universe("srlg", groups=groups)
        assert universe.kind == "srlg"
        assert universe.elements == ("east", "west")  # sorted group names
        assert universe.mask("west") == (
            pathset.paths_through_link(links[0]) | pathset.paths_through_link(links[1])
        )
        # Same groups -> same memoised universe (and thereby engine), even
        # when members are spelled in a different order or duplicated.
        assert pathset.universe("srlg", groups=groups) is universe
        reordered = {"west": [links[1], links[0], links[1]], "east": [links[2]]}
        assert pathset.universe("srlg", groups=reordered) is universe

    def test_srlg_validation(self):
        graph = claranet()
        pathset = enumerate_paths(graph, mdmp_placement(graph, 3))
        with pytest.raises(IdentifiabilityError):
            build_universe(pathset, "srlg")  # groups required
        with pytest.raises(IdentifiabilityError):
            build_universe(pathset, "srlg", groups={})
        with pytest.raises(IdentifiabilityError):
            build_universe(pathset, "srlg", groups={"g": []})
        with pytest.raises(IdentifiabilityError):
            build_universe(pathset, "srlg", groups={"g": [("ghost", "town")]})
        with pytest.raises(IdentifiabilityError):
            build_universe(pathset, "nope")
        with pytest.raises(IdentifiabilityError):
            build_universe(pathset, "link", groups={"g": [pathset.links[0]]})

    def test_resolve_universe_validates_type(self):
        graph = claranet()
        pathset = enumerate_paths(graph, mdmp_placement(graph, 3))
        assert resolve_universe(pathset, None).kind == "node"
        assert resolve_universe(pathset, "link").kind == "link"
        with pytest.raises(IdentifiabilityError):
            resolve_universe(pathset, 42)

    @pytest.mark.parametrize("bad", [5, 2.5, ("node",)], ids=repr)
    def test_engine_and_resolve_universe_refuse_alike(self, bad):
        graph = claranet()
        pathset = enumerate_paths(graph, mdmp_placement(graph, 3))
        for call in (
            lambda: pathset.engine(universe=bad),
            lambda: pathset.universe(bad),
            lambda: resolve_universe(pathset, bad),
        ):
            with pytest.raises(IdentifiabilityError, match="FailureUniverse"):
                call()
        assert pathset.universe(None) is pathset.universe("node")
        link = pathset.universe("link")
        assert pathset.universe(link) is link

    def test_foreign_universe_rejected_everywhere(self):
        # A universe built over one path set must not silently answer (or
        # poison the engine memo of) a different one — even when the two
        # path sets happen to have the same path count.
        graph = claranet()
        rich = enumerate_paths(graph, mdmp_placement(graph, 4))
        poor = enumerate_paths(graph, mdmp_placement(graph, 2))
        twin = enumerate_paths(graph, mdmp_placement(graph, 4))
        assert rich.n_paths != poor.n_paths
        assert twin.n_paths == rich.n_paths and twin is not rich
        for foreign in (poor.universe("link"), twin.universe("link")):
            with pytest.raises(IdentifiabilityError):
                resolve_universe(rich, foreign)
            with pytest.raises(IdentifiabilityError):
                maximal_identifiability_detailed(rich, universe=foreign)
            with pytest.raises(IdentifiabilityError):
                rich.engine(universe=foreign)
        # The memo stays clean: the correct engine is still built afterwards.
        assert rich.engine(universe="link").n_paths == rich.n_paths

    def test_hand_built_universe_is_usable_but_never_memoised(self):
        from repro.failures.universe import FailureUniverse

        graph = claranet()
        pathset = enumerate_paths(graph, mdmp_placement(graph, 4))
        subset = pathset.nodes[:2]
        hand_built = FailureUniverse(
            kind="node",
            elements=subset,
            n_paths=pathset.n_paths,
            _masks={node: pathset.paths_through(node) for node in subset},
        )
        sub_engine = pathset.engine(universe=hand_built)
        assert sub_engine.elements == subset
        # The canonical node engine is untouched by the ad-hoc one.
        node_engine = pathset.engine()
        assert node_engine.elements == pathset.nodes
        assert pathset.engine(universe=hand_built) is not sub_engine

    def test_element_localiser_rejects_malformed_observations(self):
        from repro.tomography.inference import (
            consistent_element_sets,
            localize_failures,
        )

        graph, placement, pathset = random_instance(0, "CSP")
        good = [0] * pathset.n_paths
        malformed = (good[:-1], good + [0], [2] + good[1:], [0.5] + good[1:],
                     ["1"] + good[1:], [[1]] + good[1:])
        for universe in localiser_universes(pathset):
            for compress in (True, False):
                session = localiser_session(
                    graph, placement, "CSP", pathset, universe, compress
                )
                for vector in malformed:
                    with pytest.raises(IdentifiabilityError):
                        session.localize(vector, 1)
                    with pytest.raises(IdentifiabilityError):
                        consistent_element_sets(universe, vector, 1)
                with pytest.raises(IdentifiabilityError):
                    session.localize(good, -1)
        for vector in malformed:
            with pytest.raises(IdentifiabilityError):
                localize_failures(pathset, vector, 1)



# ---------------------------------------------------------------------------
# Engine-vs-naive parity over the new universes
# ---------------------------------------------------------------------------

class TestEngineNaiveParity:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_link_mu_matches_naive_sweep(self, mechanism):
        for seed in range(20):
            _, _, pathset = random_instance(seed, mechanism)
            universe = pathset.universe("link")
            cap = min(len(universe.elements), 3)
            engine_mu = maximal_identifiability_detailed(
                pathset, max_size=cap, universe=universe
            ).value
            assert engine_mu == naive_mu(universe, cap), (seed, mechanism)
            assert_matches_oracle(
                pathset.engine(universe=universe).identifiability(max_size=cap),
                naive_maximal_identifiability_detailed(
                    pathset, max_size=cap, universe=universe
                ),
                (seed, mechanism),
            )

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_srlg_mu_matches_naive_sweep(self, mechanism):
        for seed in range(20):
            _, _, pathset = random_instance(seed, mechanism)
            rng = random.Random(f"srlg:{seed}:{mechanism}")
            links = list(pathset.links)
            rng.shuffle(links)
            # Partition the links into 2-4 named groups.
            n_groups = min(len(links), rng.randint(2, 4))
            groups = {
                f"g{i}": links[i::n_groups] for i in range(n_groups) if links[i::n_groups]
            }
            universe = pathset.universe("srlg", groups=groups)
            cap = min(len(universe.elements), 3)
            engine_mu = maximal_identifiability_detailed(
                pathset, max_size=cap, universe=universe
            ).value
            assert engine_mu == naive_mu(universe, cap), (seed, mechanism)
            assert_matches_oracle(
                pathset.engine(universe=universe).identifiability(max_size=cap),
                naive_maximal_identifiability_detailed(
                    pathset, max_size=cap, universe=universe
                ),
                (seed, mechanism),
            )

    @pytest.mark.parametrize("kind", ("link", "srlg"))
    def test_separation_oracle_agrees(self, kind):
        for seed in range(5):
            _, _, pathset = random_instance(seed, "CSP")
            if kind == "srlg":
                links = pathset.links
                universe = pathset.universe(
                    "srlg", groups={"a": links[::2], "b": links[1::2]}
                )
            else:
                universe = pathset.universe("link")
            for k in (1, 2):
                holds, witness = verify_k_identifiability_by_separation(
                    pathset, k, universe=universe
                )
                result = maximal_identifiability_detailed(
                    pathset, max_size=k, universe=universe
                )
                assert holds == (result.value >= k)
                if not holds:
                    assert witness is not None

    def test_backend_and_compression_parity_on_link_universe(self):
        _, _, pathset = random_instance(3, "CSP")
        universe = pathset.universe("link")
        reference = maximal_identifiability_detailed(pathset, universe=universe)
        raw = SignatureEngine.from_universe(universe, compress=False)
        assert raw.identifiability() == reference
        assert SignatureEngine.from_universe(universe).identifiability() == reference

    def test_truncated_link_mu_is_capped_mu(self):
        _, _, pathset = random_instance(7, "CSP")
        universe = pathset.universe("link")
        exact = maximal_identifiability_detailed(pathset, universe=universe).value
        assert truncated_identifiability(pathset, 1, universe=universe) == min(exact, 1)

    def test_engines_memoised_per_universe(self):
        graph = claranet()
        pathset = enumerate_paths(graph, mdmp_placement(graph, 3))
        node_engine = pathset.engine()
        link_engine = pathset.engine(universe="link")
        assert node_engine is not link_engine
        assert pathset.engine(universe="link") is link_engine
        assert pathset.engine() is node_engine
        assert link_engine.elements == pathset.links


# ---------------------------------------------------------------------------
# Localisation over element universes
# ---------------------------------------------------------------------------

def naive_consistent_sets(universe, observations, max_failures):
    """Reference localiser: the raw-width sweep straight off Equation (1).

    A candidate touches some failing path and no healthy path; a candidate
    set is consistent iff the union of its masks is exactly the failing
    paths.  Size-ascending, repr-sorted candidates, combinations order.
    """
    failing = sum(1 << i for i, bit in enumerate(observations) if bit)
    healthy = sum(1 << i for i, bit in enumerate(observations) if not bit)
    candidates = sorted(
        (
            element
            for element in universe.elements
            if universe.mask(element) & failing
            and not universe.mask(element) & healthy
        ),
        key=repr,
    )
    return tuple(
        frozenset(combo)
        for size in range(max_failures + 1)
        for combo in itertools.combinations(candidates, size)
        if universe.mask_of_set(combo) == failing
    )


def localiser_session(graph, placement, mechanism, pathset, universe, compress):
    """A session over ``pathset``; ``compress=False`` swaps in the raw
    reference engine the compressed default is compared against."""
    session = repro.TomographySession(
        graph, placement, mechanism, pathset=pathset, universe=universe
    )
    if not compress:
        session.engine = SignatureEngine.from_universe(
            session.universe, compress=False
        )
    return session


def localiser_universes(pathset):
    """The node, link and an SRLG universe (some links left ungrouped, so
    the SRLG universe has element-free, dropped path columns)."""
    links = pathset.links
    groups = {f"g{i}": links[i : i + 2] for i in range(0, len(links) - 2, 2)}
    return (
        pathset.universe("node"),
        pathset.universe("link"),
        pathset.universe("srlg", groups=groups),
    )


class TestElementLocalization:
    def test_node_mode_generic_localiser_matches_boolean_system(self):
        """Parity matrix for the single engine-backed localiser: 20 seeds ×
        mechanisms × failure sizes 0–3 × compression, over the
        node (``BooleanSystem.solutions`` oracle), link and SRLG (raw-width
        naive sweep) universes — the same sets in the same order."""
        from repro.tomography.inference import (
            consistent_element_sets,
            consistent_failure_sets,
            localize_element_failures,
            localize_failures,
        )

        checked = 0
        for mechanism in MECHANISMS:
            for seed in range(20):
                graph, placement, pathset = random_instance(seed, mechanism)
                for universe in localiser_universes(pathset):
                    for compress in (True, False):
                        session = localiser_session(
                            graph, placement, mechanism, pathset, universe,
                            compress,
                        )
                        rng = random.Random(f"{seed}:{universe.kind}")
                        for size in range(4):
                            if size > len(universe.elements):
                                continue
                            failure = session.sample_failure_set(size, rng)
                            observations = session.measure(failure)
                            if universe.kind == "node":
                                oracle = tuple(
                                    BooleanSystem.from_measurements(
                                        pathset, observations
                                    ).solutions(size)
                                )
                                assert consistent_failure_sets(
                                    pathset, observations, size
                                ) == oracle
                                assert localize_failures(
                                    pathset, observations, size
                                ).consistent_sets == oracle
                            else:
                                oracle = naive_consistent_sets(
                                    universe, observations, size
                                )
                            if all(map(universe.mask, failure)):
                                assert failure in oracle  # truth is consistent
                            context = (mechanism, seed, universe.kind,
                                       compress, size)
                            # Localised from the measured union signature,
                            # then from a copy that has to be folded.
                            assert session.localize(
                                observations, size
                            ).consistent_sets == oracle, context
                            assert session.localize(
                                list(observations), size
                            ).consistent_sets == oracle, context
                            assert consistent_element_sets(
                                universe, observations, size
                            ) == oracle, context
                            assert localize_element_failures(
                                universe, observations, size
                            ).consistent_sets == oracle, context
                            checked += 1
        assert checked > 1000

    def test_non_class_closed_observations_have_no_solution(self):
        """A compressed class read with mixed bits, or a 1 on a column no
        element touches, is explained by nothing — at raw width and at
        compressed width alike."""
        from repro.tomography.inference import consistent_failure_sets

        mixed_seen = dropped_seen = 0
        for mechanism in MECHANISMS:
            for seed in range(20):
                graph, placement, pathset = random_instance(seed, mechanism)
                for universe in localiser_universes(pathset):
                    compressed = repro.TomographySession(
                        graph, placement, mechanism, pathset=pathset,
                        universe=universe,
                    )
                    plan = compressed.engine.compression
                    if plan is None:
                        continue
                    rng = random.Random(seed)
                    failure = compressed.sample_failure_set(1, rng)
                    base = list(compressed.measure(failure))
                    vectors = []
                    for group in plan.members:
                        if len(group) > 1:
                            mixed = list(base)
                            mixed[group[0]] ^= 1
                            vectors.append(mixed)
                            mixed_seen += 1
                            break
                    kept = set(plan.class_of)
                    for column in range(pathset.n_paths):
                        if column not in kept:
                            dropped = list(base)
                            dropped[column] = 1
                            vectors.append(dropped)
                            dropped_seen += 1
                            break
                    for vector in vectors:
                        if universe.kind == "node":
                            oracle = tuple(
                                BooleanSystem.from_measurements(
                                    pathset, vector
                                ).solutions(2)
                            )
                            assert consistent_failure_sets(
                                pathset, vector, 2
                            ) == ()
                        else:
                            oracle = naive_consistent_sets(universe, vector, 2)
                        assert oracle == ()
                        # The session just measured ``base``; localising a
                        # different vector must not reuse that signature.
                        assert compressed.localize(vector, 2).consistent_sets == ()
                        for compress in (True, False):
                            session = localiser_session(
                                graph, placement, mechanism, pathset,
                                universe, compress,
                            )
                            assert session.localize(vector, 2).consistent_sets == ()
        assert mixed_seen and dropped_seen

    def test_localize_failures_universe_filters_candidates(self):
        from repro.tomography.inference import localize_failures

        for seed in range(10):
            _, _, pathset = random_instance(seed, "CSP")
            rng = random.Random(seed)
            nodes = sorted(pathset.nodes, key=repr)
            failed = frozenset(rng.sample(nodes, 2))
            observations = repro.measurement_vector(pathset, failed)
            allowed = set(rng.sample(nodes, len(nodes) // 2)) | {"not-a-node"}
            oracle = tuple(
                BooleanSystem.from_measurements(pathset, observations).solutions(
                    2, allowed
                )
            )
            assert localize_failures(
                pathset, observations, 2, universe=allowed
            ).consistent_sets == oracle

    def test_link_session_round_trips_failures(self):
        graph = claranet()
        placement = mdmp_placement(graph, 4)
        session = repro.TomographySession(graph, placement, universe="link")
        assert session.universe.kind == "link"
        rng = random.Random(11)
        for _ in range(5):
            failure = session.sample_failure_set(1, rng)
            outcome = session.run_trial(failure)
            assert outcome.localization.contains_truth(failure)
        report = session.run_campaign(1, 5, rng=3)
        assert report.n_trials == 5
        assert 0.0 <= report.unique_rate <= 1.0

    def test_srlg_session_localises_groups(self):
        graph = claranet()
        placement = mdmp_placement(graph, 4)
        pathset = enumerate_paths(graph, placement)
        links = pathset.links
        universe = pathset.universe(
            "srlg", groups={"a": links[:6], "b": links[6:12], "c": links[12:]}
        )
        session = repro.TomographySession(
            graph, placement, pathset=pathset, universe=universe
        )
        outcome = session.run_trial({"a"})
        assert outcome.localization.contains_truth({"a"})
        assert session.mu >= 0


# ---------------------------------------------------------------------------
# Spec schema v2: errors, migration, parity
# ---------------------------------------------------------------------------

V1_PAYLOAD = {
    "schema_version": 1,
    "label": "legacy",
    "topology": {"name": "dataxchange", "params": {}},
    "placement": {"strategy": "mdmp", "params": {"d": 2}},
    "routing": {"mechanism": "CSP", "cutoff": None, "max_paths": None},
    "failures": {"model": "uniform", "size": 1, "n_trials": 10},
    "engine": {"backend": "auto", "compress": True, "cache": True},
    "seed": 7,
    "analyses": [{"analysis": "mu", "params": {}}],
}

#: What the v1 payload above must serialise to after parsing: the identical
#: document at schema version 2 with the node-mode universe made explicit.
V1_UPGRADED_SNAPSHOT = {
    "schema_version": 2,
    "label": "legacy",
    "topology": {"name": "dataxchange", "params": {}},
    "placement": {"strategy": "mdmp", "params": {"d": 2}},
    "routing": {"mechanism": "CSP", "cutoff": None, "max_paths": None},
    "failures": {
        "model": "uniform",
        "size": 1,
        "n_trials": 10,
        "universe": {"kind": "node", "groups": {}},
    },
    "engine": {"cache": True, "time_budget": None, "subset_budget": None},
    "seed": 7,
    "analyses": [{"analysis": "mu", "params": {}}],
}


class TestSpecUniverse:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError):
            UniverseSpec(kind="vlan")
        with pytest.raises(SpecError):
            UniverseSpec.from_dict({"kind": "nope"})

    def test_malformed_srlg_groups_rejected(self):
        with pytest.raises(SpecError):
            UniverseSpec(kind="srlg")  # groups required
        with pytest.raises(SpecError):
            UniverseSpec(kind="srlg", groups={"g": []})
        with pytest.raises(SpecError):
            UniverseSpec(kind="srlg", groups={"g": [["a", "b", "c"]]})
        with pytest.raises(SpecError):
            UniverseSpec(kind="srlg", groups={"g": "a-b"})
        with pytest.raises(SpecError):
            UniverseSpec(kind="node", groups={"g": [["a", "b"]]})
        with pytest.raises(SpecError):
            UniverseSpec.from_dict({"kind": "srlg", "groups": {}, "extra": 1})

    def test_srlg_group_outside_topology_fails_at_build(self):
        spec = ScenarioSpec(
            topology=TopologySpec("dataxchange"),
            placement=PlacementSpec("mdmp", {"d": 2}),
            failures=FailureModel(
                universe=UniverseSpec(
                    kind="srlg", groups={"g": [["ghost", "town"]]}
                )
            ),
        )
        with pytest.raises(SpecError):
            Scenario(spec).mu()

    def test_v1_payload_upgrades_to_v2_snapshot(self):
        spec = ScenarioSpec.from_dict(V1_PAYLOAD)
        assert spec.failures.universe == UniverseSpec()
        assert spec.to_dict() == V1_UPGRADED_SNAPSHOT
        # And the upgraded document round-trips at v2.
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_unsupported_versions_still_rejected(self):
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict(dict(V1_PAYLOAD, schema_version=3))

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_v1_and_v2_build_bit_identical_scenarios(self, mechanism):
        rng = random.Random(f"migration:{mechanism}")
        for _ in range(20):
            kind = rng.choice(("zoo", "er"))
            if kind == "zoo":
                topology = {
                    "name": rng.choice(("dataxchange", "eunetwork_small", "getnet")),
                    "params": {},
                }
            else:
                topology = {
                    "name": "erdos_renyi_connected",
                    "params": {"n_nodes": rng.randint(5, 7), "probability": 0.5},
                }
            seed = rng.randrange(2**32)
            v1 = {
                "schema_version": 1,
                "topology": topology,
                "placement": {"strategy": "mdmp", "params": {"d": 2}},
                "routing": {"mechanism": mechanism},
                "seed": seed,
            }
            spec_v1 = ScenarioSpec.from_dict(v1)
            v2 = json.loads(json.dumps(spec_v1.to_dict()))  # the upgraded wire form
            spec_v2 = ScenarioSpec.from_dict(v2)
            assert spec_v1 == spec_v2
            a, b = Scenario(spec_v1), Scenario(spec_v2)
            assert a.mu() == b.mu()
            assert a.measurement() == b.measurement()
            assert a.truncated() == b.truncated()


# ---------------------------------------------------------------------------
# End to end: facade, spec runner, parallel driver
# ---------------------------------------------------------------------------

class TestEndToEnd:
    def _spec(self, universe: UniverseSpec, analyses=("mu",)) -> ScenarioSpec:
        from repro.api.spec import AnalysisSpec

        return ScenarioSpec(
            topology=TopologySpec("dataxchange"),
            placement=PlacementSpec("mdmp", {"d": 2}),
            failures=FailureModel(universe=universe),
            seed=5,
            analyses=tuple(AnalysisSpec(name) for name in analyses),
        )

    def test_link_and_srlg_scenarios_through_spec_runner_with_jobs(self):
        from repro.experiments import runner

        graph = repro.topology.zoo.dataxchange()
        links = [[u, v] for u, v in graph.edges()]
        link_spec = self._spec(
            UniverseSpec(kind="link"),
            analyses=("mu", "truncated", "separability", "localization",
                      "measurement"),
        )
        srlg_spec = self._spec(
            UniverseSpec(
                kind="srlg",
                groups={"left": links[: len(links) // 2],
                        "right": links[len(links) // 2:]},
            ),
            analyses=("mu", "localization"),
        )
        serial = runner.run_spec_sections([link_spec, srlg_spec], jobs=1, trials=3)
        parallel = runner.run_spec_sections([link_spec, srlg_spec], jobs=2, trials=3)
        assert serial == parallel
        link_data = serial[0].data["analyses"]
        assert link_data["mu"]["universe"] == "link"
        assert link_data["separability"]["universe"] == "link"
        assert link_data["localization"]["universe"] == "link"
        assert link_data["measurement"]["path_lengths"]  # satellite: path stats
        srlg_data = serial[1].data["analyses"]
        assert srlg_data["mu"]["universe"] == "srlg"
        assert srlg_data["mu"]["n_nodes"] == 2  # two SRLG elements

    def test_link_universe_through_parallel_driver(self):
        from repro.experiments.random_monitors import run_random_monitor_experiment

        graph = repro.topology.zoo.dataxchange()
        serial = run_random_monitor_experiment(
            graph, n_placements=4, rng=3, universe="link", jobs=1
        )
        fanned = run_random_monitor_experiment(
            graph, n_placements=4, rng=3, universe="link", jobs=2
        )
        assert serial == fanned
        node = run_random_monitor_experiment(graph, n_placements=4, rng=3, jobs=1)
        # Same placements, different measure: the distributions may differ,
        # but the experiment shape is identical.
        assert serial.n_nodes == node.n_nodes
        assert serial.dimension == node.dimension

    def test_measurement_shares_cache_across_universes(self):
        from repro.engine.cache import cache_stats, clear_pathset_cache

        clear_pathset_cache()
        graph = claranet()
        placement = mdmp_placement(graph, 3)
        node_measure = Scenario.from_components(graph, placement).measurement()
        link_measure = Scenario.from_components(
            graph, placement, failures=FailureModel(universe=UniverseSpec(kind="link"))
        ).measurement()
        stats = cache_stats()
        assert stats.misses == 1 and stats.hits == 1  # one enumeration, shared
        assert node_measure.n_paths == link_measure.n_paths
        assert (node_measure.universe, link_measure.universe) == ("node", "link")

    def test_agrid_analyses_honour_spec_universe(self):
        spec = ScenarioSpec(
            topology=TopologySpec("dataxchange"),
            placement=PlacementSpec("mdmp", {"d": 2}),
            failures=FailureModel(universe=UniverseSpec(kind="link")),
            seed=5,
        )
        comparison = Scenario(spec).agrid_comparison()
        assert comparison.original.universe == "link"
        assert comparison.boosted.universe == "link"
        node_comparison = Scenario(spec.with_universe("node")).agrid_comparison()
        assert node_comparison.original.universe == "node"
        tradeoff = Scenario(spec).agrid_tradeoff()
        assert tradeoff.comparison.original.universe == "link"

    def test_runner_universe_flag_smoke(self):
        from repro.experiments import runner

        sections = runner.run("real", seed=2018, universe="link")
        assert len(sections) == 3
        for section in sections:
            assert section.title.startswith("Table")


# ---------------------------------------------------------------------------
# Runner QoL: multiple --spec paths and directories
# ---------------------------------------------------------------------------

class TestSpecPathExpansion:
    def _write_spec(self, path, label):
        spec = ScenarioSpec(
            topology=TopologySpec("dataxchange"),
            placement=PlacementSpec("mdmp", {"d": 2}),
            label=label,
            seed=1,
        )
        path.write_text(spec.to_json())

    def test_directories_expand_sorted_and_files_keep_order(self, tmp_path):
        from repro.experiments.runner import expand_spec_paths

        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        self._write_spec(spec_dir / "b.json", "b")
        self._write_spec(spec_dir / "a.json", "a")
        single = tmp_path / "single.json"
        self._write_spec(single, "single")
        expanded = expand_spec_paths([str(single), str(spec_dir)])
        assert expanded == [
            str(single), str(spec_dir / "a.json"), str(spec_dir / "b.json")
        ]

    def test_empty_directory_rejected(self, tmp_path):
        from repro.experiments.runner import expand_spec_paths

        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SpecError):
            expand_spec_paths([str(empty)])

    def test_main_accepts_multiple_spec_paths(self, tmp_path):
        from repro.experiments import runner

        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        self._write_spec(spec_dir / "02.json", "second")
        self._write_spec(spec_dir / "01.json", "first")
        extra = tmp_path / "extra.json"
        self._write_spec(extra, "extra")
        out = tmp_path / "out.json"
        code = runner.main(
            [
                "--spec", str(spec_dir), str(extra),
                "--trials", "2",
                "--format", "json",
                "--output", str(out),
            ]
        )
        assert code == 0
        titles = [s["title"] for s in json.loads(out.read_text())["sections"]]
        assert titles == ["first", "second", "extra"]
