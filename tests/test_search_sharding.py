"""What search sharding used to split, on the one subset sweep.

The sharded sweep and its ``search_jobs`` knob are gone: the census queries
run on the single frontier evaluator and local µ on the dominance search.
These suites keep the parity guarantees sharding was held to — every entry
point and compression setting returns the same census and the same
local µ, and a document carrying the retired ``search_jobs`` key still
parses to the same engine config.
"""

from __future__ import annotations

import itertools

import pytest

import repro
from repro.api.spec import EngineConfig, SpecError
from repro.core.local import local_maximal_identifiability
from repro.core.separability import inseparable_pairs_of_size
from repro.engine.signatures import SignatureEngine

from conftest import ENGINE_CONFIGS
from oracles import naive_inseparable_pairs, naive_local_mu
from test_block_kernel import _universe


def _pathset(seed: int, mechanism: str):
    graph = repro.erdos_renyi_connected(10, 0.35, rng=seed)
    placement = repro.random_placement(graph, 2, 2, rng=seed + 1000)
    return repro.enumerate_paths(graph, placement, mechanism=mechanism)


class TestShardedParity:
    def test_census_queries_parity(self):
        for seed in range(4):
            pathset = _pathset(seed, "CSP")
            universe = pathset.universe("link")
            reference = pathset.engine(universe=universe).inseparable_pairs(2)
            assert set(reference) == set(naive_inseparable_pairs(universe, 2))
            for compress in ENGINE_CONFIGS:
                engine = SignatureEngine.from_universe(universe, compress=compress)
                context = (seed, compress)
                # Same pairs in the same order on every configuration.
                assert engine.inseparable_pairs(2) == reference, context
                matrix = engine.separability_matrix(2)
                assert {
                    frozenset(pair)
                    for pair, separable in matrix.items()
                    if not separable
                } == {frozenset(pair) for pair in reference}, context
            assert (
                inseparable_pairs_of_size(pathset, 2, universe=universe)
                == reference
            )

    def test_local_search_parity(self):
        for seed, kind in itertools.product(range(4), ("node", "link", "srlg")):
            pathset = _pathset(seed, "CSP")
            universe = _universe(pathset, kind)
            elements = universe.elements
            for scope in ({elements[0]}, {elements[1]}, set(elements[:2])):
                for cap in (0, 1, 2, 3, None):
                    bound = len(elements) if cap is None else min(cap, len(elements))
                    expected = naive_local_mu(elements, universe.masks, scope, bound)
                    assert local_maximal_identifiability(
                        pathset, scope, max_size=cap, universe=universe
                    ) == expected, (seed, kind, sorted(scope, key=repr), cap)
                    for compress in ENGINE_CONFIGS:
                        engine = SignatureEngine.from_universe(universe, compress=compress)
                        assert engine.local_identifiability(scope, cap) == expected, (
                            seed, kind, sorted(scope, key=repr), cap, compress
                        )


class TestSpecAndRunner:
    def test_engine_config_round_trip_and_validation(self):
        config = EngineConfig(subset_budget=40)
        payload = config.to_dict()
        assert "search_jobs" not in payload
        assert EngineConfig.from_dict(payload) == config
        # Earlier v2 documents carry the retired key: any value parses and
        # is dropped, so the round trip is unchanged.
        for jobs in (1, 3):
            legacy = EngineConfig.from_dict(dict(payload, search_jobs=jobs))
            assert legacy == config
            assert legacy.to_dict() == payload
        assert EngineConfig.from_dict({"search_jobs": 2}) == EngineConfig()
        with pytest.raises(TypeError):
            EngineConfig(search_jobs=2)
        with pytest.raises(SpecError):
            EngineConfig.from_dict({"search_job": 2})
