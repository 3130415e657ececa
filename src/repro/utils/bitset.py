"""Bitmask helpers.

Measurement paths are indexed ``0 .. |P|-1`` and the set of paths crossing a
node (``P(v)`` in the paper) is stored as a Python integer used as a bitmask.
Unions of path sets — ``P(U) = \\bigcup_{u in U} P(u)`` — are then plain
bitwise ORs, which keeps the exhaustive identifiability search fast even with
tens of thousands of paths.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence, Tuple


def mask_from_indices(indices: Iterable[int]) -> int:
    """Build a bitmask with the given bit positions set.

    The mask is assembled in a byte buffer and converted to an integer once
    at the end.  Repeated ``mask |= 1 << index`` costs O(width/word) per OR
    because each big-int result is a fresh allocation; the buffer fill is
    O(1) per index plus one final O(width) conversion, which is what keeps
    node-mask construction linear in the incidence size even for path
    universes tens of thousands of bits wide.

    >>> bin(mask_from_indices([0, 2, 3]))
    '0b1101'
    """
    items = indices if isinstance(indices, list) else list(indices)
    if not items:
        return 0
    low = min(items)
    if low < 0:
        raise ValueError(f"bit index must be non-negative, got {low}")
    buffer = bytearray((max(items) >> 3) + 1)
    for index in items:
        buffer[index >> 3] |= 1 << (index & 7)
    return int.from_bytes(buffer, "little")


def union_masks(masks: Iterable[int]) -> int:
    """Bitwise OR of an iterable of masks (the union of the path sets)."""
    result = 0
    for mask in masks:
        result |= mask
    return result


def bit_count(mask: int) -> int:
    """Number of set bits (size of the represented path set)."""
    return mask.bit_count()


def bits_of(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order.

    Jumps from set bit to set bit via the lowest-set-bit identity
    ``mask & -mask`` instead of scanning every bit position, so the cost is
    proportional to the *popcount* of the mask rather than to its width —
    sparse masks over huge path universes iterate in a handful of steps.

    >>> list(bits_of(0b1101))
    [0, 2, 3]
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


#: ``byte -> ascending bit offsets`` lookup used by :func:`bit_indices`.
_BYTE_BITS = tuple(
    tuple(offset for offset in range(8) if byte >> offset & 1)
    for byte in range(256)
)


def bit_indices(mask: int) -> list:
    """The indices of the set bits of ``mask``, as an ascending list.

    The eager, dense-mask counterpart of :func:`bits_of`: the mask is
    exported to bytes once and each non-zero byte is expanded through a
    256-entry lookup table, so the cost is O(width/8 + popcount) with small
    constants — :func:`bits_of`'s lowest-set-bit walk costs a full-width
    big-int operation *per set bit*, which dominates when masks are dense
    (the incidence-transpose in :mod:`repro.engine.compress` is the heavy
    consumer).
    """
    if mask < 0:
        raise ValueError("mask must be non-negative")
    indices: list = []
    if not mask:
        return indices
    table = _BYTE_BITS
    for position, byte in enumerate(mask.to_bytes((mask.bit_length() + 7) >> 3, "little")):
        if byte:
            base = position << 3
            indices.extend(base + offset for offset in table[byte])
    return indices


#: ``"0"``/``"1"`` characters to the bytes 0/1 (see :func:`indicator`).
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def indicator(mask: int, width: int) -> Tuple[int, ...]:
    """The 0/1 vector of a ``width``-bit mask, bit 0 first.

    The binary digits of ``mask`` with a sentinel bit at ``width`` are
    reversed and mapped to bytes in C, so the cost is a few O(width) passes
    with no per-bit Python step.  ``mask`` must fit in ``width`` bits.

    >>> indicator(0b1101, 5)
    (1, 0, 1, 1, 0)
    """
    digits = format(mask | 1 << width, "b")[:0:-1]
    return tuple(digits.encode().translate(_DIGIT_BITS))


def masks_from_paths(nodes: Sequence, paths: Sequence[Sequence]) -> dict:
    """Build the ``node -> P(v)`` bitmask table from an indexed path family.

    Path ``i`` contributes bit ``i`` to the mask of every node it touches.
    The incidence is first accumulated as one ascending index list per node
    and each big-int mask is then built once by :func:`mask_from_indices` —
    a node crossed by k paths costs k list appends plus a single O(width)
    conversion, instead of k big-int ORs of O(width) each.

    Raises :class:`ValueError` when a path touches a node outside ``nodes``;
    the routing layer re-raises that as a :class:`~repro.exceptions.RoutingError`.
    Only directly-constructed :class:`repro.routing.paths.PathSet` objects
    use it: the enumerator writes its rows from the traversal's row runs.
    """
    index_lists: dict = {node: [] for node in nodes}
    for index, path in enumerate(paths):
        for node in set(path):
            indices = index_lists.get(node)
            if indices is None:
                raise ValueError(
                    f"path {index} touches {node!r} which is outside the node universe"
                )
            indices.append(index)
    return {node: mask_from_indices(indices) for node, indices in index_lists.items()}


def masks_for_nodes(
    node_order: Sequence, membership: Mapping, universe_size: int
) -> Mapping:
    """Utility used in tests: build ``node -> mask`` from ``node -> iterable``.

    ``membership[node]`` must be an iterable of path indices smaller than
    ``universe_size``.
    """
    result: dict = {}
    for node in node_order:
        indices = list(membership.get(node, ()))
        for index in indices:
            if index >= universe_size:
                raise ValueError(
                    f"path index {index} out of range for universe of size {universe_size}"
                )
        result[node] = mask_from_indices(indices)
    return result
