"""The paper's laws, held against the single subset sweep.

µ is monotone in the path set — restricting to a sub-pathset never increases
it, adding paths over a fixed element universe never decreases it — and an
SRLG universe of singleton groups is the link universe under another name,
so both must produce the same µ, witness and ``searched_up_to`` bit for bit.
Every law runs over the parity seeds × the three routing mechanisms.
"""

from __future__ import annotations

import random

import pytest

from repro.routing.paths import PathSet

from test_engine import MECHANISMS, PARITY_SEEDS, random_instance


class TestPaperLaws:
    """Monotonicity laws of µ in the path set, and the SRLG/link
    equivalence, over the parity seeds × the three routing mechanisms."""

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_sub_pathset_never_increases_mu(self, mechanism):
        for seed in PARITY_SEEDS:
            _, _, pathset = random_instance(seed, mechanism)
            full = pathset.engine().identifiability().value
            rng = random.Random(seed)
            for _ in range(3):
                kept = sorted(
                    rng.sample(range(pathset.n_paths), rng.randint(0, pathset.n_paths))
                )
                sub = pathset.restrict_to_paths(kept)
                assert sub.engine().identifiability().value <= full, (seed, kept)

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_adding_paths_never_decreases_mu(self, mechanism):
        for seed in PARITY_SEEDS:
            _, _, pathset = random_instance(seed, mechanism)
            rng = random.Random(seed)
            nodes = list(pathset.nodes)
            paths = list(pathset.paths)
            previous = pathset.engine().identifiability().value
            for _ in range(4):
                paths.append(tuple(rng.sample(nodes, rng.randint(1, 3))))
                grown = PathSet(nodes=pathset.nodes, paths=tuple(paths))
                value = grown.engine().identifiability().value
                assert value >= previous, (seed, paths[-1])
                previous = value

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_singleton_srlg_universe_equals_link_universe(self, mechanism):
        for seed in PARITY_SEEDS:
            _, _, pathset = random_instance(seed, mechanism)
            # Zero-padded names sort in link order, so both universes
            # enumerate their subsets in the same order.
            link_of = {f"g{i:04d}": link for i, link in enumerate(pathset.links)}
            srlg = pathset.universe(
                "srlg", groups={name: [link] for name, link in link_of.items()}
            )
            by_group = pathset.engine(universe=srlg).identifiability()
            by_link = pathset.engine(universe="link").identifiability()
            assert by_group.value == by_link.value, seed
            assert by_group.searched_up_to == by_link.searched_up_to, seed
            assert by_group.exhausted_search == by_link.exhausted_search, seed
            translated = None
            if by_group.witness is not None:
                translated = tuple(
                    frozenset(link_of[name] for name in side)
                    for side in by_group.witness
                )
            expected = None if by_link.witness is None else tuple(by_link.witness)
            assert translated == expected, seed
