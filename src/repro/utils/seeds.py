"""Deterministic random-number handling.

Every stochastic component in the library (Agrid edge selection, MDMP tie
breaking, random monitor placement, Erdős–Rényi generation, failure sampling)
accepts either an integer seed, an existing :class:`random.Random` instance or
``None``.  :func:`resolve_rng` normalises all three into a ``random.Random``
so experiments are reproducible end to end.
"""

from __future__ import annotations

import random
from typing import Union

RngLike = Union[int, str, random.Random, None]


def resolve_rng(rng: RngLike = None) -> random.Random:
    """Return a :class:`random.Random` for ``rng``.

    * ``None`` -> a fresh, OS-seeded generator (non-reproducible);
    * ``int`` / ``str`` -> a generator seeded with that value (strings are
      the :func:`spawn_seed` child-stream material carried by scenario
      specs);
    * ``random.Random`` -> returned unchanged (shared state).
    """
    if rng is None:
        return random.Random()
    if isinstance(rng, random.Random):
        return rng
    if isinstance(rng, (int, str)):
        return random.Random(rng)
    raise TypeError(
        f"rng must be None, int, str or random.Random, got {type(rng)!r}"
    )


def spawn_seed(rng: RngLike, salt: int) -> str:
    """Derive the seed material of an independent child stream.

    The returned string fully determines the child generator
    (``random.Random(spawn_seed(rng, salt))`` equals ``spawn_rng(rng, salt)``),
    so it can be computed up front in a parent process and shipped — as a
    plain picklable string — to pool workers, which then reproduce exactly
    the generator a serial run would have used.  Note that deriving a seed
    consumes 64 bits from ``rng`` when it is a shared generator, so seeds
    must be derived in the same order as the serial code would.
    """
    base = resolve_rng(rng)
    return f"{base.getrandbits(64)}:{salt}"


def spawn_rng(rng: RngLike, salt: int) -> random.Random:
    """Derive an independent child generator from ``rng`` and an integer salt.

    Used by the experiment drivers so each trial gets its own reproducible
    stream regardless of how many random draws earlier trials consumed.
    """
    return random.Random(spawn_seed(rng, salt))
