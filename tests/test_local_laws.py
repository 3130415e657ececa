"""Local µ against its oracle and its laws.

Local µ_S runs the dominance search with its targets restricted to the
scope ``S`` (:mod:`repro.core.local` proves the reduction: with ``m_S`` the
smallest S-dominator size, µ_S ∈ {m_S − 1, m_S}).  Hypothesis draws raw
engine instances — element masks, a scope and a cap, no graph layer in
between — and holds the compressed and the raw engine to
``naive_local_mu`` and to the laws: ``S = V`` is µ (capped), a larger scope
never raises local µ, and an element with a private path (a DLP node's
loop) has a singleton scope that reaches the cap.  The seed corpus
``tests/corpus/local_mu_*.json`` pins one instance per outcome of the
reduction (m_S − 1, m_S, m_S = 0, no S-dominator); shrunk failures join it.
"""

from __future__ import annotations

import glob
import itertools
import json
import os
from typing import Optional

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.local import local_maximal_identifiability  # noqa: E402
from repro.engine.signatures import SignatureEngine  # noqa: E402

from conftest import ENGINE_CONFIGS  # noqa: E402
from oracles import naive_local_mu, union_mask  # noqa: E402
from test_engine import PARITY_SEEDS, random_instance  # noqa: E402

CORPUS_GLOB = os.path.join(os.path.dirname(__file__), "corpus", "local_mu_*.json")
OUTCOMES = {"m-1", "m", "m=0", "cap"}
LAW_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def instances(draw):
    """Element path-masks over a tiny universe, a scope and a cap."""
    n_paths = draw(st.integers(min_value=1, max_value=6))
    n_elements = draw(st.integers(min_value=1, max_value=7))
    masks = [
        draw(st.integers(min_value=0, max_value=2**n_paths - 1))
        for _ in range(n_elements)
    ]
    scope = draw(st.sets(st.integers(min_value=0, max_value=n_elements - 1)))
    return {
        "n_paths": n_paths,
        "masks": masks,
        "scope": sorted(scope),
        "cap": draw(st.sampled_from([0, 1, 2, 3, None])),
        "compress": draw(st.booleans()),
    }


def _engine(instance, compress=None) -> SignatureEngine:
    """The instance's engine; ``compress`` overrides the instance's setting.
    The ``backend`` key of instances frozen before numpy was required is
    ignored."""
    nodes = [f"e{i}" for i in range(len(instance["masks"]))]
    return SignatureEngine(
        nodes,
        dict(zip(nodes, instance["masks"])),
        instance["n_paths"],
        compress=instance["compress"] if compress is None else compress,
    )


def _bound(instance) -> int:
    n = len(instance["masks"])
    return n if instance["cap"] is None else min(instance["cap"], n)


def _scope(engine, indices):
    return {engine.nodes[i] for i in indices}


def _smallest_dominator(engine, masks, scope, bound: int) -> Optional[int]:
    """``m_S`` by brute force: the smallest ``|W| ≤ bound`` such that some
    ``v ∈ S∖W`` has ``P(v) ⊆ P(W)``; ``None`` when there is none."""
    for size in range(bound + 1):
        for subset in itertools.combinations(engine.nodes, size):
            union = union_mask(masks, subset)
            if any(v not in subset and masks[v] & ~union == 0 for v in scope):
                return size
    return None


def _outcome(engine, masks, scope, bound: int, value: int) -> str:
    m = _smallest_dominator(engine, masks, scope, bound)
    if m is None:
        return "cap"
    if m == 0:
        return "m=0"
    return "m-1" if value == m - 1 else "m"


def _assert_local_parity(instance) -> int:
    """Local µ of the instance on every engine, equal to the naive sweep;
    returns it."""
    engine = _engine(instance)
    masks = dict(zip(engine.nodes, instance["masks"]))
    scope = _scope(engine, instance["scope"])
    cap, bound = instance["cap"], _bound(instance)
    expected = naive_local_mu(engine.nodes, masks, scope, bound)
    for compress in ENGINE_CONFIGS:
        value = _engine(instance, compress).local_identifiability(scope, cap)
        assert value == expected, (instance, compress)
    # The reduction's bracket: µ_S ∈ {m_S − 1, m_S}, 0 at m_S = 0, the cap
    # without an S-dominator.
    m = _smallest_dominator(engine, masks, scope, bound)
    if m is None:
        assert expected == bound, instance
    else:
        assert expected in {max(m - 1, 0), m}, (instance, m)
    return expected


class TestLocalOracle:
    @settings(LAW_SETTINGS, max_examples=80)
    @given(instance=instances())
    def test_local_mu_matches_naive_oracle(self, instance):
        _assert_local_parity(instance)

    @pytest.mark.parametrize(
        "path", sorted(glob.glob(CORPUS_GLOB)), ids=os.path.basename
    )
    def test_corpus_replay(self, path):
        """Frozen instances, each deciding through the outcome it names."""
        with open(path, "r", encoding="utf-8") as handle:
            instance = json.load(handle)
        value = _assert_local_parity(instance)
        engine = _engine(instance)
        masks = dict(zip(engine.nodes, instance["masks"]))
        scope = _scope(engine, instance["scope"])
        outcome = _outcome(engine, masks, scope, _bound(instance), value)
        assert outcome == instance["outcome"], (path, outcome, value)

    def test_corpus_covers_every_outcome(self):
        outcomes = set()
        for path in glob.glob(CORPUS_GLOB):
            with open(path, "r", encoding="utf-8") as handle:
                outcomes.add(json.load(handle)["outcome"])
        assert outcomes == OUTCOMES


class TestLocalLaws:
    @LAW_SETTINGS
    @given(instance=instances())
    def test_full_scope_is_capped_mu(self, instance):
        engine = _engine(instance)
        cap = instance["cap"]
        capped = engine.identifiability(max_size=cap).value
        assert engine.local_identifiability(engine.nodes, cap) == capped
        assert capped == min(engine.identifiability().value, _bound(instance))

    @LAW_SETTINGS
    @given(instance=instances(), extra=st.sets(st.integers(0, 6)))
    def test_larger_scope_never_raises_local_mu(self, instance, extra):
        engine = _engine(instance)
        n = len(engine.nodes)
        scope = _scope(engine, instance["scope"])
        wider = scope | _scope(engine, [i for i in extra if i < n])
        cap = instance["cap"]
        assert engine.local_identifiability(scope, cap) >= (
            engine.local_identifiability(wider, cap)
        ), (instance, sorted(wider))

    @LAW_SETTINGS
    @given(instance=instances(), data=st.data())
    def test_private_path_reaches_the_cap(self, instance, data):
        """A column only ``v`` touches (a DLP node's loop) means no set
        without ``v`` dominates it: local µ w.r.t. ``{v}`` is the cap."""
        masks = list(instance["masks"])
        v = data.draw(st.integers(0, len(masks) - 1))
        masks[v] |= 1 << instance["n_paths"]
        grown = dict(instance, masks=masks, n_paths=instance["n_paths"] + 1)
        engine = _engine(grown)
        assert engine.local_identifiability(
            {engine.nodes[v]}, grown["cap"]
        ) == _bound(grown)

    @pytest.mark.parametrize("seed", [s for s in PARITY_SEEDS if s % 3 == 2][:6])
    def test_dlp_node_reaches_the_universe_size(self, seed):
        """Section 9 on routed instances: under CAP every DLP candidate has
        its degenerate loop path, so its singleton scope is uncapped-maximal."""
        _, placement, pathset = random_instance(seed, "CAP")
        n = len(pathset.nodes)
        assert placement.dlp_candidates
        for node in placement.dlp_candidates:
            assert local_maximal_identifiability(pathset, {node}) == n, (seed, node)
