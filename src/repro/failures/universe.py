"""The :class:`FailureUniverse`: what can fail, and which paths would notice.

A universe is an ordered set of failure *elements*, each mapped to its
path-incidence mask — the bitmask of measurement-path indices whose paths
cross the element.  Three kinds are supported:

* ``node`` — the paper's original measure: elements are the nodes of the
  topology and the masks are exactly ``P(v)``.
* ``link`` — elements are the links (edges) of the topology; a path crosses
  a link when it traverses it, so link masks are accumulated from the
  consecutive node pairs of each path.  Degenerate loop paths (the CAP
  single-node ``(v, v)`` probes) traverse no link and contribute to no link
  mask.
* ``srlg`` — shared-risk link groups: named groups of links that fail
  together (a conduit cut, a common line card).  Each group is one element
  whose mask is the union of its member links' masks; singleton groups
  recover individual links, so an SRLG universe can mix both granularities.

Everything the engine computes over ``P(U)`` — µ, truncated µ_α, local
identifiability, separability tables, Boolean measurement vectors — is a
Boolean-lattice query over unions of element rows, so the same
:class:`~repro.engine.signatures.SignatureEngine` machinery (compression,
column kernels, dominance search) serves every kind unchanged; the universe
only decides *which rows* exist.

Universes are built from a :class:`~repro.routing.paths.PathSet` (which owns
the per-node and per-link masks accumulated during enumeration) via
:func:`build_universe` or :meth:`PathSet.universe
<repro.routing.paths.PathSet.universe>`; the latter memoises them per
:attr:`FailureUniverse.fingerprint` so repeated queries share one instance
(and thereby one interned signature store).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Mapping,
    Optional,
    Tuple,
)

from repro._typing import Node
from repro.exceptions import IdentifiabilityError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (routing sits below)
    from repro.routing.paths import PathSet

#: A failure element: a node, a canonical link ``(u, v)``, or an SRLG name.
Element = Hashable

#: A link as an ordered node pair (canonicalised by :func:`canonical_link`).
Link = Tuple[Node, Node]

#: The supported universe kinds, in documentation order.
UNIVERSE_KINDS: Tuple[str, ...] = ("node", "link", "srlg")


def canonical_link(u: Node, v: Node, directed: bool) -> Link:
    """The canonical form of a link between ``u`` and ``v``.

    Directed links keep their orientation (``(u, v)`` and ``(v, u)`` are
    distinct failure elements); undirected links are ordered by ``repr`` so
    both traversal directions of one edge map to the same element.
    """
    if directed or repr(u) <= repr(v):
        return (u, v)
    return (v, u)


@dataclass(frozen=True)
class FailureUniverse:
    """An ordered set of failure elements with their path-incidence masks.

    Attributes
    ----------
    kind:
        ``"node"``, ``"link"`` or ``"srlg"``.
    elements:
        The elements in canonical order — the enumeration order of every
        subset search run over this universe.
    n_paths:
        ``|P|``, the width of every mask (original path indices).
    groups:
        For ``srlg`` universes, the name → member-links mapping the universe
        was built from (members in canonical link form); ``None`` otherwise.
    """

    kind: str
    elements: Tuple[Element, ...]
    n_paths: int
    _masks: Dict[Element, int] = field(repr=False, compare=False)
    groups: Optional[Tuple[Tuple[str, Tuple[Link, ...]], ...]] = None
    #: The :class:`~repro.routing.paths.PathSet` the masks were built over
    #: (identity, not content).  Engine construction refuses a universe whose
    #: owner is a *different* path set — its masks index foreign paths and
    #: would silently compute wrong values; ``None`` (hand-built universes)
    #: falls back to a width check.
    _owner: Optional[object] = field(repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if self.kind not in UNIVERSE_KINDS:
            raise IdentifiabilityError(
                f"unknown failure-universe kind {self.kind!r}; "
                f"expected one of {UNIVERSE_KINDS}"
            )
        if len(self._masks) != len(self.elements) or any(
            element not in self._masks for element in self.elements
        ):
            raise IdentifiabilityError(
                "universe masks must cover exactly the element set"
            )

    # -- basic accessors ----------------------------------------------------
    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, element: Element) -> bool:
        return element in self._masks

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def masks(self) -> Mapping[Element, int]:
        """The ``element -> path mask`` table (read-only view)."""
        return self._masks

    @property
    def fingerprint(self) -> Hashable:
        """A hashable content key identifying this universe over its pathset.

        ``node`` and ``link`` universes are fully determined by the pathset
        they were built from, so their fingerprint is just the kind; an SRLG
        universe additionally carries its (canonically ordered) group
        structure.  Engine memoisation on :class:`PathSet` and compression
        ``class_of`` remaps are keyed by this value.
        """
        if self.kind == "srlg":
            return ("srlg", self.groups)
        return (self.kind,)

    @property
    def owner(self) -> Optional[object]:
        """The path set this universe was built over (``None`` if hand-built)."""
        return self._owner

    def check_built_over(self, pathset: "PathSet") -> None:
        """Refuse to be queried against a path set other than the owner.

        Masks index the owner's path order; against any other path set —
        even one with the same ``n_paths`` — every query would be silently
        wrong (and, worse, poison the pathset's fingerprint-keyed engine
        memo for later correct callers).
        """
        if self._owner is not None:
            if self._owner is not pathset:
                raise IdentifiabilityError(
                    "universe was built over a different path set; build it "
                    "via PathSet.universe() on the path set it will query"
                )
        elif self.n_paths != pathset.n_paths:
            raise IdentifiabilityError(
                f"universe was built over {self.n_paths} paths but the path "
                f"set has {pathset.n_paths}; build it via PathSet.universe() "
                "on the path set it will query"
            )

    def mask(self, element: Element) -> int:
        """The path-incidence mask of one element (``P(v)`` generalised)."""
        try:
            return self._masks[element]
        except KeyError as exc:
            raise IdentifiabilityError(
                f"{element!r} is not in the {self.kind} failure universe"
            ) from exc

    def mask_of_set(self, elements: Iterable[Element]) -> int:
        """The union mask ``P(U)`` of a set of elements."""
        result = 0
        for element in elements:
            result |= self.mask(element)
        return result

    def separates(
        self, first: Iterable[Element], second: Iterable[Element]
    ) -> bool:
        """Whether some path touches exactly one of the two element sets."""
        return self.mask_of_set(first) != self.mask_of_set(second)

    def covered_elements(self) -> FrozenSet[Element]:
        """Elements crossed by at least one measurement path."""
        return frozenset(e for e, mask in self._masks.items() if mask)

    def uncovered_elements(self) -> FrozenSet[Element]:
        """Elements crossed by no path (each forces µ = 0 over this universe)."""
        return frozenset(e for e, mask in self._masks.items() if not mask)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"FailureUniverse({self.kind}, |E|={len(self.elements)}, "
            f"|P|={self.n_paths}, uncovered={len(self.uncovered_elements())})"
        )


def _node_universe(pathset: "PathSet") -> FailureUniverse:
    masks = {node: pathset.paths_through(node) for node in pathset.nodes}
    return FailureUniverse(
        kind="node", elements=pathset.nodes, n_paths=pathset.n_paths,
        _masks=masks, _owner=pathset,
    )


def _link_universe(pathset: "PathSet") -> FailureUniverse:
    masks = {link: pathset.paths_through_link(link) for link in pathset.links}
    return FailureUniverse(
        kind="link", elements=pathset.links, n_paths=pathset.n_paths,
        _masks=masks, _owner=pathset,
    )


def normalize_groups(
    pathset: "PathSet", groups: Mapping[str, Iterable[Iterable[Node]]]
) -> Tuple[Tuple[str, Tuple[Link, ...]], ...]:
    """Validate and canonicalise an SRLG ``name -> links`` mapping.

    Each member link is canonicalised against the pathset's directedness and
    must be a link of the pathset's link universe; group names and members
    are sorted (members also deduplicated), so semantically equal groups —
    whatever their spelling order — share one element order, one fingerprint
    and therefore one memoised universe/engine.
    """
    if not isinstance(groups, Mapping) or not groups:
        raise IdentifiabilityError(
            "an srlg universe needs a non-empty mapping of group name -> links"
        )
    known = set(pathset.links)
    directed = bool(pathset.directed)
    normalised = []
    for name in sorted(groups, key=str):
        members = set()
        for link in groups[name]:
            pair = tuple(link)
            if len(pair) != 2:
                raise IdentifiabilityError(
                    f"srlg group {name!r} member {link!r} is not a (u, v) link"
                )
            member = canonical_link(pair[0], pair[1], directed)
            if member not in known:
                raise IdentifiabilityError(
                    f"srlg group {name!r} member {member!r} is not a link of "
                    "the topology"
                )
            members.add(member)
        if not members:
            raise IdentifiabilityError(f"srlg group {name!r} has no member links")
        normalised.append((str(name), tuple(sorted(members, key=repr))))
    return tuple(normalised)


def srlg_universe_from_canonical(
    pathset: "PathSet", canonical: Tuple[Tuple[str, Tuple[Link, ...]], ...]
) -> FailureUniverse:
    """Build an SRLG universe from already-normalised groups.

    The mask-building half of the SRLG route, split out so
    :meth:`PathSet.universe` can consult its fingerprint memo *between*
    normalisation and the (comparatively expensive) mask unions.
    """
    masks = {
        name: pathset.paths_through_links(members) for name, members in canonical
    }
    return FailureUniverse(
        kind="srlg",
        elements=tuple(name for name, _ in canonical),
        n_paths=pathset.n_paths,
        _masks=masks,
        groups=canonical,
        _owner=pathset,
    )


def _srlg_universe(
    pathset: "PathSet", groups: Mapping[str, Iterable[Iterable[Node]]]
) -> FailureUniverse:
    return srlg_universe_from_canonical(pathset, normalize_groups(pathset, groups))


def build_universe(
    pathset: "PathSet",
    kind: str = "node",
    groups: Optional[Mapping[str, Iterable[Iterable[Node]]]] = None,
) -> FailureUniverse:
    """Build a failure universe of the given kind over a path set.

    ``groups`` is required for (and only legal with) ``kind="srlg"``.  Prefer
    :meth:`PathSet.universe <repro.routing.paths.PathSet.universe>`, which
    memoises the result per fingerprint.
    """
    if kind == "node":
        if groups:
            raise IdentifiabilityError("a node universe takes no srlg groups")
        return _node_universe(pathset)
    if kind == "link":
        if groups:
            raise IdentifiabilityError("a link universe takes no srlg groups")
        return _link_universe(pathset)
    if kind == "srlg":
        if groups is None:
            raise IdentifiabilityError(
                "an srlg universe needs its name -> links groups"
            )
        return _srlg_universe(pathset, groups)
    raise IdentifiabilityError(
        f"unknown failure-universe kind {kind!r}; expected one of {UNIVERSE_KINDS}"
    )
