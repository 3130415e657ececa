"""Engine-level metamorphic oracle: for *random* small instances and caps
the µ search must agree with the naive oracles on everything observable —
µ, ``searched_up_to``/``exhausted_search`` and the canonical witness — and
search the same tree on the compressed and the raw engine, and the
separability census must reproduce the naive one.

Hypothesis drives the instance generator (a raw ``(element-masks, n_paths)``
pair plus a cap fed straight into :class:`SignatureEngine`, no graph layer
in between, so shrinking produces minimal engine inputs); every shrunk
failure gets committed as a ``tests/corpus/block_kernel_*.json`` regression
file and replayed on every run.
"""

from __future__ import annotations

import glob
import itertools
import json
import os

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.engine.signatures import SignatureEngine  # noqa: E402

from conftest import ENGINE_CONFIGS  # noqa: E402
from oracles import assert_matches_oracle, naive_oracle, union_mask  # noqa: E402

CORPUS_GLOB = os.path.join(
    os.path.dirname(__file__), "corpus", "block_kernel_*.json"
)


@st.composite
def instances(draw):
    """A minimal engine instance: element path-masks over a tiny universe."""
    n_paths = draw(st.integers(min_value=1, max_value=6))
    n_elements = draw(st.integers(min_value=1, max_value=7))
    masks = [
        draw(st.integers(min_value=0, max_value=2**n_paths - 1))
        for _ in range(n_elements)
    ]
    compress = draw(st.booleans())
    cap = draw(st.sampled_from([0, 1, 2, 3, None]))
    return {
        "n_paths": n_paths,
        "masks": masks,
        "compress": compress,
        "cap": cap,
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


def _assert_instance_parity(instance) -> None:
    engine = _engine(instance)
    masks = dict(zip(engine.nodes, instance["masks"]))
    n = len(engine.nodes)
    cap = instance.get("cap")
    result = engine.identifiability(max_size=cap)
    assert_matches_oracle(result, naive_oracle(engine.nodes, masks, cap), instance)
    # Every column kernel × compression engine runs the same search tree.
    for compress in ENGINE_CONFIGS:
        other = _engine(instance, compress).identifiability(max_size=cap)
        assert other == result, (instance, compress)
        assert other.stats == result.stats, (instance, compress)
    for size in range(1, min(n, 3) + 1):
        pairs = engine.inseparable_pairs(size)
        subsets = list(itertools.combinations(engine.nodes, size))
        expected = {
            (frozenset(first), frozenset(second))
            for i, first in enumerate(subsets)
            for second in subsets[i + 1 :]
            if union_mask(masks, first) == union_mask(masks, second)
        }
        assert len(pairs) == len(expected), (instance, size)
        assert set(pairs) == expected, (instance, size)


class TestMetamorphicOracle:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(instance=instances())
    def test_sweep_matches_naive_oracle_on_random_instances(self, instance):
        _assert_instance_parity(instance)

    @pytest.mark.parametrize(
        "path", sorted(glob.glob(CORPUS_GLOB)), ids=os.path.basename
    )
    def test_corpus_replay(self, path):
        """Shrunk instances from past Hypothesis failures, frozen forever."""
        with open(path, "r", encoding="utf-8") as handle:
            instance = json.load(handle)
        _assert_instance_parity(instance)
