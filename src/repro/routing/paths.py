"""Measurement-path enumeration and the :class:`PathSet` container.

The identifiability machinery never looks at a path beyond the *set of
elements it touches*, so :class:`PathSet` stores, for every node ``v``, the
bitmask of indices of paths crossing ``v`` (``P(v)`` in the paper) — and, for
every link ``(u, v)``, the bitmask of paths traversing it.  Unions over
element sets — ``P(U)`` — are then single bitwise ORs.

Touch classes, not paths
------------------------

Under Definition 2.1 a path matters only through its *touch set*, the nodes
it crosses, so the enumerator counts the open family (simple input → output
paths) per touch set and never builds a path tuple.  A layered subset DP
(:func:`_touch_classes`) walks states ``(S, v)`` — ``S`` the node set of a
simple input-started path, ``v`` its last node — each holding the number of
such paths.  It extends a state by every neighbour ``w ∉ S``, adds the count
to class ``S ∪ {w}`` whenever ``w`` is an output, and prunes exactly as the
DFS does: a state is extended only while some output lies outside ``S``, for
at most ``cutoff`` layers.  Every DFS prefix maps to one state, so the DP
visits no more states than the DFS visits prefixes (far fewer on dense
undirected graphs; on a DAG every state is one path).  ``max_paths`` is
checked against the running class count, so an explosion aborts inside the
DP.  A layer of more than ``max_paths`` states — prefixes that rarely reach
an output — hands the count to the DFS, whose memory is one prefix, so the
DP never holds more than the cap allows paths.  The CAP/CAP⁻ cycle and loop
families are small and stay on the DFS.

Columns are laid out **class-major**: class ``k`` takes ``count_k``
consecutive columns, classes in DP discovery order — by path length, then by
the depth-first position of their first path — and the closed families
follow, one column each, in depth-first order.  Each ``P(v)`` is then one
run per (class, node), written for all nodes at once by the column kernel
:func:`~repro.engine.columns.class_rows`.  ``n_paths`` reads the class
counts; :func:`path_length_histogram` and
:meth:`PathSet.approximate_nbytes` read the DP's per-layer totals, since
layer ``d`` adds exactly the paths of ``d`` edges.  The node engine reads
its compression plan off the same classes: :meth:`PathSet.engine` hands
them to :func:`~repro.engine.compress.compress_universe` as column runs, so
no column dedup runs over an enumerated node universe.

``PathSet.paths`` is lazy
-------------------------

An enumerated path set builds its path tuples on first read: the
depth-first enumeration (:func:`_simple_paths`) runs once and its paths are
stably sorted into class order, so ``paths[j]`` touches exactly the rows
with bit ``j`` set.  The readers are the link and SRLG universes (link masks
derive from the paths), :meth:`PathSet.restrict_to_paths`,
:meth:`PathSet.separating_paths`, :mod:`repro.embeddings.poset`, equality,
``repr`` and ``--churn-verify``.  Node-universe analyses — µ, µ_α, local µ,
separability, localization and measurement — never read it.

Churn by re-enumeration: :meth:`PathSet.apply_delta` checks a delta against
its path set and returns the enumeration of the post-delta inputs, so an
evolved path set is a fresh one in every respect.

All heavy identifiability queries go through the
:class:`~repro.engine.signatures.SignatureEngine` exposed by
:meth:`PathSet.engine`, which compresses and interns the masks of one
:class:`~repro.failures.FailureUniverse` (nodes by default; links and
shared-risk link groups via :meth:`PathSet.universe`) once and shares them
across the core, tomography and experiment layers.

Enumeration per mechanism
-------------------------

* **CSP** — all simple paths from every input node to every *different*
  output node (a native multi-target DFS, one traversal per source).
* **CAP⁻** — the CSP paths, plus (a) simple paths from an input node back to
  itself when that node is also an output node, i.e. monitor-anchored simple
  cycles of length >= 2, and (b) simple paths between identical input/output
  nodes routed through the graph.  Walks with repeated interior nodes add no
  new *touch-sets* beyond unions of these (every closed walk decomposes into
  simple cycles and every open walk contains a simple path with the same
  endpoints), so for identifiability this finite family is a faithful
  representative of CAP⁻; DESIGN.md §3 records this substitution.
* **CAP** — CAP⁻ plus the degenerate loop paths (single-node paths) for the
  nodes attached to both an input and an output monitor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro._typing import AnyGraph, Node, Path
from repro.exceptions import (
    IdentifiabilityError,
    PathExplosionError,
    RoutingError,
)
from repro.failures.universe import (
    FailureUniverse,
    Link,
    build_universe,
    canonical_link,
    normalize_groups,
    srlg_universe_from_canonical,
)
from repro.monitors.placement import MonitorPlacement
from repro.routing.mechanisms import RoutingMechanism
from repro.utils.bitset import bits_of, mask_from_indices, masks_from_paths

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine sits above)
    from repro.engine.compress import ColumnRuns
    from repro.engine.signatures import SignatureEngine

#: Paths longer than this (in nodes) are never enumerated unless the caller
#: raises the cutoff explicitly.  ``None`` means "no limit".
DEFAULT_CUTOFF: Optional[int] = None

#: Hard guard against path explosion; the paper itself stops at ~5e6 paths.
DEFAULT_MAX_PATHS = 5_000_000


@dataclass(frozen=True)
class PathSetDelta:
    """A routing-level topology/placement delta for :meth:`PathSet.apply_delta`.

    All node values are the *decoded* graph nodes (the same objects the graph
    holds); links are ``(u, v)`` endpoint pairs in either orientation for
    undirected topologies.  The node universe itself is fixed — adding or
    removing nodes requires a fresh enumeration.
    """

    add_links: Tuple[Tuple[Node, Node], ...] = ()
    remove_links: Tuple[Tuple[Node, Node], ...] = ()
    add_inputs: Tuple[Node, ...] = ()
    remove_inputs: Tuple[Node, ...] = ()
    add_outputs: Tuple[Node, ...] = ()
    remove_outputs: Tuple[Node, ...] = ()

    def is_noop(self) -> bool:
        """True when the delta changes nothing."""
        return not (
            self.add_links
            or self.remove_links
            or self.add_inputs
            or self.remove_inputs
            or self.add_outputs
            or self.remove_outputs
        )


class _LazyPaths:
    """The ``paths`` field of :class:`PathSet`: the tuple it was built with,
    or — for an enumerated path set, built with ``paths=None`` — the family
    its :class:`_Family` materialises on first read, kept from then on."""

    def __get__(
        self, pathset: Optional["PathSet"], owner: object = None
    ) -> Tuple[Path, ...]:
        if pathset is None:
            raise AttributeError("paths")  # no class default: the field is required
        paths = pathset.__dict__["paths"]
        if paths is None:
            family = pathset._family
            if family is None:  # pragma: no cover - __post_init__ refuses it
                raise RoutingError("path set has neither paths nor a family")
            paths = family.materialize()
            pathset.__dict__["paths"] = paths
        return paths

    def __set__(self, pathset: "PathSet", paths: Optional[Tuple[Path, ...]]) -> None:
        pathset.__dict__["paths"] = paths


@dataclass(frozen=True)
class PathSet:
    """An immutable set of measurement paths over a node universe.

    Attributes
    ----------
    nodes:
        The node universe ``V`` whose identifiability is studied (all nodes of
        the topology, monitor-attached or not — monitors are external).
    paths:
        The measurement paths, each an ordered node tuple.  An enumerated
        path set builds them on first read, in its class-major column order
        (see the module docstring).
    """

    nodes: Tuple[Node, ...]
    paths: _LazyPaths = _LazyPaths()
    #: Precomputed ``node -> P(v)`` masks.  Left empty (the default) they are
    #: derived from ``paths``; the enumerator passes the rows it wrote from
    #: its touch classes, so the paths are never built for them.
    _node_masks: Dict[Node, int] = field(repr=False, compare=False, default_factory=dict)
    _engines: Dict[object, "SignatureEngine"] = field(
        repr=False, compare=False, default_factory=dict
    )
    #: Whether the underlying topology is directed (decides how links are
    #: canonicalised: directed links keep their orientation, undirected ones
    #: are repr-ordered).  ``None`` — the default for directly-constructed
    #: path sets — is treated as undirected.
    directed: Optional[bool] = field(default=None, compare=False)
    #: The link universe and its ``link -> mask`` table.  The enumerator
    #: passes the full edge set of the graph (untraversed links keep an empty
    #: mask, so they count as uncovered); directly-constructed path sets
    #: derive the links appearing in their paths lazily on first use.  The
    #: masks themselves are always derived lazily from the stored paths —
    #: one scan of the consecutive node pairs, memoised per path set — so
    #: node-only workloads never pay for the link table.
    _links: Optional[Tuple[Link, ...]] = field(repr=False, compare=False, default=None)
    _link_masks: Optional[Dict[Link, int]] = field(
        repr=False, compare=False, default=None
    )
    _universes: Dict[object, FailureUniverse] = field(
        repr=False, compare=False, default_factory=dict
    )
    #: The enumerated family behind ``paths=None`` (``None`` for path sets
    #: built from their paths): class counts, closed paths, and the inputs
    #: that materialise the path tuples on first read.
    _family: Optional["_Family"] = field(repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if self.__dict__["paths"] is None and (
            self._family is None or not self._node_masks
        ):
            raise RoutingError(
                "a path set built without paths needs its enumerated family "
                "and node masks"
            )
        if self._node_masks:
            if len(self._node_masks) != len(set(self.nodes)) or any(
                node not in self._node_masks for node in self.nodes
            ):
                raise RoutingError(
                    "precomputed node masks must cover exactly the node universe"
                )
        else:
            try:
                masks = masks_from_paths(self.nodes, self.paths)
            except ValueError as exc:
                raise RoutingError(str(exc)) from exc
            object.__setattr__(self, "_node_masks", masks)
        if self._link_masks is not None:
            if self._links is None or (
                len(self._link_masks) != len(set(self._links))
                or any(link not in self._link_masks for link in self._links)
            ):
                raise RoutingError(
                    "precomputed link masks must cover exactly the link universe"
                )
        object.__setattr__(self, "_engines", {})
        object.__setattr__(self, "_universes", {})

    # -- basic accessors ---------------------------------------------------
    def __len__(self) -> int:
        return self.n_paths

    def __iter__(self) -> Iterator[Path]:
        return iter(self.paths)

    @property
    def n_paths(self) -> int:
        """Number of measurement paths ``|P|`` (reported in Tables 3-5)."""
        if self._family is not None:
            return self._family.n_paths
        return len(self.paths)

    @property
    def node_universe(self) -> FrozenSet[Node]:
        """The node set ``V`` as a frozenset."""
        return frozenset(self.nodes)

    def approximate_nbytes(self) -> int:
        """A cheap estimate of this path set's resident size in bytes.

        Counts the dominant stores — the per-node path masks (big-int bytes)
        and the path tuples (one pointer per hop plus tuple overhead, counted
        from the length histogram for an enumerated set, whether or not its
        tuples were built) — and, when already derived, the link-mask table.
        Used by cache byte accounting; deliberately an estimate, not
        ``sys.getsizeof`` truth.
        """
        total = 0
        for mask in self._node_masks.values():
            total += 32 + (mask.bit_length() + 7) // 8
        for length, count in _path_lengths(self):
            total += count * (64 + 8 * length)
        if self._link_masks:
            for mask in self._link_masks.values():
                total += 32 + (mask.bit_length() + 7) // 8
        return total

    def paths_through(self, node: Node) -> int:
        """Bitmask of ``P(v)``, the indices of paths crossing ``node``."""
        try:
            return self._node_masks[node]
        except KeyError as exc:
            raise RoutingError(f"{node!r} is not in the node universe") from exc

    def paths_through_set(self, nodes: Iterable[Node]) -> int:
        """Bitmask of ``P(U) = ∪_{u in U} P(u)``."""
        mask = 0
        for node in nodes:
            mask |= self.paths_through(node)
        return mask

    def path_indices_through(self, node: Node) -> Tuple[int, ...]:
        """The indices (not the bitmask) of paths crossing ``node``."""
        return tuple(bits_of(self.paths_through(node)))

    def touched_nodes(self) -> FrozenSet[Node]:
        """Nodes crossed by at least one measurement path."""
        return frozenset(node for node, mask in self._node_masks.items() if mask)

    def uncovered_nodes(self) -> FrozenSet[Node]:
        """Nodes crossed by no measurement path (these force µ = 0)."""
        return frozenset(node for node, mask in self._node_masks.items() if not mask)

    # -- link universe -------------------------------------------------------
    def _derive_links(self) -> None:
        """Build the ``link -> mask`` table from the stored paths (memoised).

        One scan over the consecutive node pairs of every path.  When the
        enumerator provided the link universe (the full edge set of its
        graph), masks are accumulated against it and untraversed links keep
        an empty mask — they are *uncovered* elements; directly-constructed
        path sets fall back to the links their paths traverse.  Deferred to
        the first link-universe query, so node-only consumers never pay.
        """
        directed = bool(self.directed)
        if self._links is not None:
            index_lists: Dict[Link, List[int]] = {link: [] for link in self._links}
            # Canonical lookup for both traversal orientations, so the scan
            # below costs one dict access per edge (no repr-based ordering).
            canon: Dict[Tuple[Node, Node], List[int]] = {}
            for (u, v), indices in index_lists.items():
                canon[(u, v)] = indices
                if not directed:
                    canon[(v, u)] = indices
            for index, path in enumerate(self.paths):
                for pair in zip(path, path[1:]):
                    if pair[0] == pair[1]:
                        continue  # degenerate loop probes traverse no link
                    indices = canon.get(pair)
                    if indices is None:
                        raise RoutingError(
                            f"path {index} traverses {pair!r} which is outside "
                            "the link universe"
                        )
                    indices.append(index)
            links = self._links
        else:
            discovered: Dict[Link, List[int]] = {}
            for index, path in enumerate(self.paths):
                for u, v in zip(path, path[1:]):
                    if u == v:
                        continue
                    link = canonical_link(u, v, directed)
                    discovered.setdefault(link, []).append(index)
            links = tuple(sorted(discovered, key=repr))
            index_lists = discovered
        masks = {link: mask_from_indices(index_lists[link]) for link in links}
        object.__setattr__(self, "_links", links)
        object.__setattr__(self, "_link_masks", masks)

    @property
    def links(self) -> Tuple[Link, ...]:
        """The link universe, in canonical order.

        Enumerator-built path sets carry every edge of their topology (so a
        link no path traverses is *uncovered*, forcing µ = 0 over the link
        universe, exactly like an uncovered node); directly-constructed sets
        fall back to the links their paths traverse.
        """
        if self._links is None:
            self._derive_links()
        assert self._links is not None
        return self._links

    def paths_through_link(self, link: Link) -> int:
        """Bitmask of the paths traversing ``link`` (either orientation when
        the path set is undirected)."""
        if self._link_masks is None:
            self._derive_links()
        assert self._link_masks is not None
        pair = tuple(link)
        if len(pair) != 2:
            raise RoutingError(f"{link!r} is not a (u, v) link")
        key = canonical_link(pair[0], pair[1], bool(self.directed))
        try:
            return self._link_masks[key]
        except KeyError as exc:
            raise RoutingError(f"{link!r} is not in the link universe") from exc

    def paths_through_links(self, links: Iterable[Link]) -> int:
        """Bitmask of ``P(L) = ∪_{l in L} P(l)`` over links."""
        mask = 0
        for link in links:
            mask |= self.paths_through_link(link)
        return mask

    # -- failure universes ---------------------------------------------------
    def universe(
        self,
        kind: Optional[FailureUniverse | str] = "node",
        groups: Optional[Mapping[str, Iterable[Iterable[Node]]]] = None,
    ) -> FailureUniverse:
        """The :class:`~repro.failures.FailureUniverse` of the given kind.

        ``kind`` is a kind name (``None`` means ``"node"``) or a built
        :class:`~repro.failures.FailureUniverse`, which passes through after
        an ownership check (:meth:`FailureUniverse.check_built_over
        <repro.failures.FailureUniverse.check_built_over>`): its masks index
        the owner's path order, and a universe carried over from a different
        path set (even one with the same path count) would silently compute
        wrong values.  Anything else raises
        :class:`~repro.exceptions.IdentifiabilityError`.  This is the one
        resolution of a ``universe=`` argument; :meth:`engine` and
        :func:`repro.core.identifiability.resolve_universe` both use it.

        Universes are memoised per content fingerprint (``groups`` included
        for SRLGs — normalised first, so a repeated SRLG request costs only
        the validation pass, not the mask unions), so every consumer of the
        same kind shares one instance — and, through :meth:`engine`, one
        interned signature store.
        """
        if isinstance(kind, FailureUniverse):
            kind.check_built_over(self)
            return kind
        if kind is not None and not isinstance(kind, str):
            raise IdentifiabilityError(
                f"universe must be None, a kind name or a FailureUniverse, "
                f"got {type(kind).__name__}"
            )
        kind = kind or "node"
        if kind == "srlg" and groups is not None:
            canonical = normalize_groups(self, groups)
            cached = self._universes.get(("srlg", canonical))
            if cached is not None:
                return cached
            universe: FailureUniverse = srlg_universe_from_canonical(self, canonical)
        else:
            if kind in ("node", "link") and not groups:
                cached = self._universes.get((kind,))
                if cached is not None:
                    return cached
            universe = build_universe(self, kind, groups)
        return self._universes.setdefault(universe.fingerprint, universe)

    # -- identifiability primitives ----------------------------------------
    def separates(self, first: Iterable[Node], second: Iterable[Node]) -> bool:
        """True when ``P(U) △ P(W) ≠ ∅`` for ``U = first`` and ``W = second``.

        This is the separation predicate at the heart of Definition 2.1: some
        measurement path touches exactly one of the two node sets.
        """
        return self.paths_through_set(first) != self.paths_through_set(second)

    def separating_paths(
        self, first: Iterable[Node], second: Iterable[Node]
    ) -> Tuple[Path, ...]:
        """The paths witnessing separation (those in the symmetric difference)."""
        diff = self.paths_through_set(first) ^ self.paths_through_set(second)
        return tuple(self.paths[i] for i in bits_of(diff))

    # -- signature engine ---------------------------------------------------
    def engine(
        self,
        *,
        universe: Optional[FailureUniverse | str] = None,
    ) -> "SignatureEngine":
        """The compressed
        :class:`~repro.engine.signatures.SignatureEngine` over one of this
        path set's failure universes (node masks by default).

        Engines are memoised per universe fingerprint, so every consumer of
        the same :class:`PathSet` — the identifiability core, the
        tomography layer, the experiment drivers — shares one interned
        signature store per universe.  ``universe`` is ``None``
        (node mode), a kind name (``"node"``/``"link"``), or a
        :class:`~repro.failures.FailureUniverse` built over this path set
        (the only way to reach SRLG mode, which needs its groups).  Only
        the :class:`~repro.engine.signatures.SignatureEngine` constructors
        still build the uncompressed reference engine.
        """
        # Imported lazily: the engine layer sits above routing.
        from repro.engine.signatures import SignatureEngine

        # A universe built over a different path set would silently compute
        # over foreign masks AND poison the fingerprint-keyed memo below for
        # every later caller — the resolution refuses it outright.
        universe = self.universe(universe)
        elements, masks = universe.elements, universe.masks
        if universe.owner is not self:
            # A hand-built (owner-less) universe passed the width check, but
            # its fingerprint says nothing about its content — memoising it
            # would poison the cache for the canonical universe of the same
            # kind.  Build an un-memoised engine instead.
            return SignatureEngine(elements, masks, self.n_paths)
        cached = self._engines.get(universe.fingerprint)
        if cached is None:
            # The enumerated node rows are the family's class runs, so the
            # plan is read off the runs instead of a column dedup.
            runs = None
            if universe.kind == "node" and self._family is not None:
                runs = self._family.column_runs
            cached = SignatureEngine(elements, masks, self.n_paths, runs=runs)
            self._engines[universe.fingerprint] = cached
        return cached

    # -- column edits and churn ---------------------------------------------
    def restrict_to_paths(self, indices: Sequence[int]) -> "PathSet":
        """A new :class:`PathSet` over the same universe with a subset of paths.

        ``indices`` selects (and orders) the paths of the restriction; each
        index must be in ``range(n_paths)`` and appear at most once —
        anything else raises :class:`~repro.exceptions.RoutingError`.  The
        restricted node (and, when derived, link) masks are one column
        gather from this path set's masks (bit ``j`` of the new ``P(v)`` is
        bit ``indices[j]`` of the old one) instead of re-scanning the
        selected path tuples; the restriction keeps the full link universe.
        """
        indices = list(indices)
        n = self.n_paths
        seen: set = set()
        for index in indices:
            if not 0 <= index < n:
                raise RoutingError(
                    f"path index {index} out of range for {n} paths"
                )
            if index in seen:
                raise RoutingError(f"duplicate path index {index}")
            seen.add(index)
        from repro.engine.columns import gather_columns

        rows = [self._node_masks[node] for node in self.nodes]
        link_masks = self._link_masks
        links = self.links if link_masks is not None else ()
        rows.extend(link_masks[link] for link in links)
        gathered = gather_columns(rows, indices, n)
        n_nodes = len(self.nodes)
        return PathSet(
            self.nodes,
            tuple(self.paths[i] for i in indices),
            dict(zip(self.nodes, gathered)),
            directed=self.directed,
            _links=self._links,
            _link_masks=(
                None if link_masks is None else dict(zip(links, gathered[n_nodes:]))
            ),
        )

    def apply_delta(
        self,
        graph: AnyGraph,
        placement: MonitorPlacement,
        mechanism: RoutingMechanism | str,
        delta: PathSetDelta,
        cutoff: Optional[int] = DEFAULT_CUTOFF,
        max_paths: int = DEFAULT_MAX_PATHS,
    ) -> "PathSet":
        """Evolve this path set under a topology/placement delta.

        ``graph`` and ``placement`` are the **post-delta** topology and
        monitor placement (the caller applies the delta to its own graph).
        The delta is checked against this path set — same directedness and
        node universe, removed links present and added ones absent, a graph
        whose links match, a placement that reflects the monitor edits —
        and the result is ``enumerate_paths(graph, placement, mechanism,
        cutoff, max_paths)``: a churn step re-enumerates.  The touch-class
        DP costs less than patching this family's paths and rows did, and
        the evolved set is a fresh one in every respect (paths, order,
        masks, link universe, engines).
        """
        directed = bool(graph.is_directed())
        if bool(self.directed) != directed:
            raise RoutingError(
                "apply_delta cannot change graph directedness; re-enumerate"
            )
        if tuple(sorted(graph.nodes, key=repr)) != self.nodes:
            raise RoutingError(
                "apply_delta keeps the node universe fixed; node additions or "
                "removals need a fresh enumeration"
            )
        placement.validate(graph)

        removed_links = {
            canonical_link(u, v, directed) for u, v in delta.remove_links
        }
        added_links = {canonical_link(u, v, directed) for u, v in delta.add_links}
        old_links = set(self.links)
        missing = removed_links - old_links
        if missing:
            raise RoutingError(
                f"cannot remove links absent from the universe: {sorted(missing, key=repr)}"
            )
        clashing = added_links & old_links
        if clashing:
            raise RoutingError(
                f"cannot add links already in the universe: {sorted(clashing, key=repr)}"
            )
        new_link_set = {canonical_link(u, v, directed) for u, v in graph.edges()}
        if new_link_set != (old_links - removed_links) | added_links:
            raise RoutingError(
                "the supplied graph does not match the delta applied to this "
                "path set's link universe"
            )
        removed_inputs = set(delta.remove_inputs)
        added_inputs = set(delta.add_inputs)
        removed_outputs = set(delta.remove_outputs)
        added_outputs = set(delta.add_outputs)
        if added_inputs - placement.inputs or removed_inputs & placement.inputs:
            raise RoutingError(
                "the supplied placement does not reflect the delta's input edits"
            )
        if added_outputs - placement.outputs or removed_outputs & placement.outputs:
            raise RoutingError(
                "the supplied placement does not reflect the delta's output edits"
            )
        return enumerate_paths(graph, placement, mechanism, cutoff, max_paths)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"PathSet(|V|={len(self.nodes)}, |P|={self.n_paths}, "
            f"uncovered={len(self.uncovered_nodes())})"
        )


class _Adjacency(NamedTuple):
    """A positional snapshot of a graph's adjacency, read once per
    enumeration so the traversals index plain tuples and flag arrays instead
    of networkx views and hashed node sets.

    Node ``i`` is ``nodes[i]`` (``graph.adj`` insertion order) and its
    neighbours — successors for directed graphs — are the positions
    ``neighbours[i]``, in adjacency order, so emission order is unchanged.
    ``singletons[i]`` is the 1-tuple ``(nodes[i],)`` a path is extended by.
    """

    nodes: Tuple[Node, ...]
    position: Dict[Node, int]
    neighbours: Tuple[Tuple[int, ...], ...]
    singletons: Tuple[Path, ...]

    def neighbours_of(self, node: Node) -> Tuple[Node, ...]:
        """The neighbours of ``node``, in adjacency order."""
        nodes = self.nodes
        return tuple(nodes[i] for i in self.neighbours[self.position[node]])


def _adjacency(graph: AnyGraph) -> _Adjacency:
    """The :class:`_Adjacency` snapshot of ``graph``."""
    nodes = tuple(graph.adj)
    position = {node: i for i, node in enumerate(nodes)}
    neighbours = tuple(
        tuple(position[v] for v in graph.adj[u]) for u in nodes
    )
    return _Adjacency(
        nodes, position, neighbours, tuple((node,) for node in nodes)
    )


def _simple_paths(
    adjacency: _Adjacency,
    source: Node,
    targets: Iterable[Node],
    cutoff: Optional[int],
) -> Iterator[Path]:
    """Yield all simple paths from ``source`` to any of ``targets``.

    The one iterative multi-target DFS behind the path tuples, the CAP/CAP⁻
    cycles and :func:`count_paths`: a single traversal per source covers
    every target, so prefixes shared between targets are walked once.  Paths
    from a node to itself are excluded (the cycle and loop families are
    built on top of it).

    ``cutoff`` limits the path length in *edges* (``None`` = unlimited).  The
    traversal descends into a child only while some target lies off the
    path, tracked as a count of such targets, so the test is O(1).  Emission
    is depth-first in adjacency order: lexicographic in the path's
    adjacency-index vector.
    """
    position = adjacency.position
    if source not in position:
        raise RoutingError(f"source node {source!r} is not in the graph")
    # Per position: 0 = free, 1 = a free target, 2 = on the path.
    # Backtracking restores a node's flag from ``is_target``.
    is_target = bytearray(len(position))
    for target in targets:
        if target in position:
            is_target[position[target]] = 1
    state = bytearray(is_target)
    origin = position[source]
    state[origin] = 2
    remaining = state.count(1)  # targets off the path; >= 1 while exploring
    # The deepest prefix (in nodes) that may still be extended by one edge.
    limit = len(position) - 1 if cutoff is None else cutoff
    if not remaining or limit < 1:
        return  # no target, or no room for a 1-edge path (cutoff <= 0)
    neighbours, singletons = adjacency.neighbours, adjacency.singletons
    prefix: Path = (source,)
    prefixes: List[Path] = [()]
    trail = [origin]
    stack: List[Iterator[int]] = [iter(neighbours[origin])]
    while stack:
        for child in stack[-1]:
            flag = state[child]
            if flag == 2:
                continue
            if flag:
                extended = prefix + singletons[child]
                yield extended
                if remaining == 1 or len(prefix) >= limit:
                    continue
                remaining -= 1
            elif len(prefix) >= limit:
                continue
            else:
                extended = prefix + singletons[child]
            prefixes.append(prefix)
            prefix = extended
            trail.append(child)
            state[child] = 2
            stack.append(iter(neighbours[child]))
            break
        else:
            stack.pop()
            node = trail.pop()
            state[node] = is_target[node]
            remaining += is_target[node]
            prefix = prefixes.pop()


def _open_paths(
    adjacency: _Adjacency, placement: MonitorPlacement, cutoff: Optional[int]
) -> Iterator[Path]:
    """Yield the open family (simple input → output paths with distinct
    endpoints, every mechanism) in depth-first order: one multi-target DFS
    per input in ``repr`` order.  It needs no dedup, since paths from
    different sources differ in their first node."""
    for source in sorted(placement.inputs, key=repr):
        yield from _simple_paths(adjacency, source, placement.outputs, cutoff)


def _path_explosion(max_paths: int) -> PathExplosionError:
    return PathExplosionError(
        f"more than max_paths={max_paths} measurement paths; "
        "increase the cap or use a smaller topology"
    )


def _touch_classes(
    adjacency: _Adjacency,
    placement: MonitorPlacement,
    cutoff: Optional[int],
    max_paths: int,
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """The open family as ``touch set -> number of paths``, in discovery
    order, and as ``length in edges -> number of paths``.

    A touch set is a bitmask over adjacency positions.  The layered DP of the
    module docstring: layer ``d`` maps each state ``(S, v)`` to the number of
    simple input-started paths with node set ``S`` (``|S| = d + 1``) ending
    at ``v``, in first-reached order.  Extending ``(S, v)`` by a neighbour
    ``w ∉ S`` adds its count to class ``S ∪ {w}`` when ``w`` is an output
    (``w ∉ S``, so never the path's own source) and carries it to state
    ``(S ∪ {w}, w)`` while another layer is allowed and some output lies
    outside ``S ∪ {w}`` — the DFS's descent rule.  Classes are discovered
    by path length, then in the depth-first order of their first path,
    since the states of a layer are reached in depth-first order of their
    first path.  Layer ``d`` adds exactly the paths of ``d`` edges, so its
    running count is the length histogram.  Raises
    :class:`PathExplosionError` as soon as the running count passes
    ``max_paths``.
    """
    position = adjacency.position
    outputs = 0
    for node in placement.outputs:
        outputs |= 1 << position[node]
    arcs = tuple(
        tuple((w, 1 << w, bool(outputs >> w & 1)) for w in row)
        for row in adjacency.neighbours
    )
    limit = len(position) - 1 if cutoff is None else cutoff
    classes: Dict[int, int] = {}
    lengths: Dict[int, int] = {}
    total = 0
    layer = {
        (1 << position[source], position[source]): 1
        for source in sorted(placement.inputs, key=repr)
    }
    depth = 0
    while layer and depth < limit:
        depth += 1
        extend = depth < limit
        before = total
        grown_layer: Dict[Tuple[int, int], int] = {}
        for (touched, last), count in layer.items():
            for node, bit, is_output in arcs[last]:
                if touched & bit:
                    continue
                grown = touched | bit
                if is_output:
                    classes[grown] = classes.get(grown, 0) + count
                    total += count
                    if total > max_paths:
                        raise _path_explosion(max_paths)
                if extend and outputs & ~grown:
                    state = (grown, node)
                    grown_layer[state] = grown_layer.get(state, 0) + count
        if len(grown_layer) > max_paths:
            # More live prefixes than the cap allows paths, most of them
            # never reaching an output: count on the DFS, which holds one.
            return _dfs_touch_classes(adjacency, placement, cutoff, max_paths)
        if total > before:
            lengths[depth] = total - before
        layer = grown_layer
    return classes, lengths


def _dfs_touch_classes(
    adjacency: _Adjacency,
    placement: MonitorPlacement,
    cutoff: Optional[int],
    max_paths: int,
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """:func:`_touch_classes` counted on the depth-first open family, in
    O(n) working memory: the same classes in the same order (depth-first
    order of their first path, stably sorted by length) and the same length
    histogram."""
    classes: Dict[int, int] = {}
    lengths: Dict[int, int] = {}
    keyed = _keyed_open_paths(adjacency, placement, cutoff)
    for total, (key, path) in enumerate(keyed, 1):
        if total > max_paths:
            raise _path_explosion(max_paths)
        classes[key] = classes.get(key, 0) + 1
        length = len(path) - 1
        lengths[length] = lengths.get(length, 0) + 1
    return (
        dict(sorted(classes.items(), key=lambda item: item[0].bit_count())),
        dict(sorted(lengths.items())),
    )


def _keyed_open_paths(
    adjacency: _Adjacency, placement: MonitorPlacement, cutoff: Optional[int]
) -> Iterator[Tuple[int, Path]]:
    """The depth-first open family, each path with its touch set (a bitmask
    over adjacency positions).  A simple path repeats no node, so the sum of
    its node bits is their union."""
    bit = {node: 1 << i for node, i in adjacency.position.items()}.__getitem__
    for path in _open_paths(adjacency, placement, cutoff):
        yield sum(map(bit, path)), path


def _monitor_cycles(
    adjacency: _Adjacency, directed: bool, anchor: Node, cutoff: Optional[int]
) -> Iterator[Path]:
    """Yield simple cycles through ``anchor`` as closed node tuples.

    Used by CAP/CAP⁻ for paths that start and end at the same monitor node.
    A cycle is represented by its node sequence starting and ending at the
    anchor, e.g. ``(a, b, c, a)``; ``cutoff`` bounds its length in edges,
    the first one (out of the anchor) included.
    """
    inner_cutoff = None if cutoff is None else cutoff - 1
    if directed:
        for successor in adjacency.neighbours_of(anchor):
            if successor == anchor:
                continue
            for path in _simple_paths(adjacency, successor, (anchor,), inner_cutoff):
                yield (anchor,) + path
    else:
        # Dedup by the canonical *edge* set, not the node set: two genuinely
        # different simple cycles can visit the same nodes in different orders
        # (e.g. (a,b,c,d,a) vs (a,c,b,d,a) in K4) and must both be kept, while
        # a pure reversal traverses the same undirected edges and is
        # suppressed.  A simple cycle never repeats an undirected edge, so a
        # frozenset of unordered endpoint pairs is a faithful canonical form.
        seen: set = set()
        for neighbour in adjacency.neighbours_of(anchor):
            for path in _simple_paths(adjacency, neighbour, (anchor,), inner_cutoff):
                if len(path) < 3:
                    # (neighbour, anchor) would retrace the same edge.
                    continue
                cycle = (anchor,) + path
                key = frozenset(
                    frozenset(pair) for pair in zip(cycle, cycle[1:])
                )
                if key not in seen:
                    seen.add(key)
                    yield cycle


def _closed_paths(
    adjacency: _Adjacency,
    directed: bool,
    placement: MonitorPlacement,
    mechanism: RoutingMechanism,
    cutoff: Optional[int],
) -> Iterator[Path]:
    """Yield the CAP⁻ cycle and CAP loop families in canonical order, deduped.

    Duplicates can only arise here — the same cycle reached from two
    anchors — so the ``seen`` set is scoped to these (small) families and
    the open family is never hashed.
    """
    if not (mechanism.allows_cycles or mechanism.allows_dlp):
        return
    anchors = sorted(placement.dlp_candidates, key=repr)
    seen: Set[Path] = set()
    if mechanism.allows_cycles:
        # Paths that start and end on the same node which is both an input
        # and an output node: monitor-anchored simple cycles (>= 2 edges).
        for anchor in anchors:
            for cycle in _monitor_cycles(adjacency, directed, anchor, cutoff):
                if cycle not in seen:
                    seen.add(cycle)
                    yield cycle
    if mechanism.allows_dlp:
        # Degenerate loop paths: the single-node loop m·(vv)·M.
        for anchor in anchors:
            loop = (anchor, anchor)
            if loop not in seen:
                seen.add(loop)
                yield loop


def _check_family_size(
    total: int, max_paths: int, mechanism: RoutingMechanism
) -> None:
    """Raise when a measurement-path family of ``total`` paths is unusable."""
    if total > max_paths:
        raise _path_explosion(max_paths)
    if total == 0:
        raise RoutingError(
            "no measurement path exists for this placement under "
            f"{mechanism.value}; identifiability would be undefined"
        )


@dataclass(frozen=True)
class _Family:
    """An enumerated path family, held as the classes its rows were built from.

    ``keys[k]`` is the touch set of open class ``k`` (a bitmask over
    adjacency positions) and ``counts[k]`` its number of paths;
    ``open_lengths`` is the open family's ``(length in edges, number of
    paths)`` histogram, ascending, as the DP layers counted it.  ``closed``
    is the CAP/CAP⁻ family that follows the open classes, one column each,
    and ``closed_keys`` are its touch sets.  ``adjacency``, ``placement``
    and ``cutoff`` are the enumeration inputs :meth:`materialize` re-runs
    the DFS on.
    """

    adjacency: _Adjacency
    placement: MonitorPlacement
    cutoff: Optional[int]
    keys: Tuple[int, ...]
    counts: Tuple[int, ...]
    open_lengths: Tuple[Tuple[int, int], ...]
    closed: Tuple[Path, ...]
    closed_keys: Tuple[int, ...]

    @cached_property
    def n_paths(self) -> int:
        return sum(self.counts) + len(self.closed)

    def lengths(self) -> Iterator[Tuple[int, int]]:
        """``(length in edges, number of paths)`` per open path length and
        per closed path."""
        yield from self.open_lengths
        for path in self.closed:
            yield len(path) - 1, 1

    @cached_property
    def column_runs(self) -> "ColumnRuns":
        """The node incidence as class column runs: the open classes, then
        the closed paths' touch keys, one column each."""
        from repro.engine.compress import ColumnRuns

        return ColumnRuns(self.adjacency.nodes, self.keys, self.counts, self.closed_keys)

    def materialize(self) -> Tuple[Path, ...]:
        """The path tuples in column order: the depth-first open family
        stably sorted into class order, then the closed family."""
        rank = {key: k for k, key in enumerate(self.keys)}
        classes: List[List[Path]] = [[] for _ in self.keys]
        keyed = _keyed_open_paths(self.adjacency, self.placement, self.cutoff)
        for key, path in keyed:
            classes[rank[key]].append(path)
        return tuple(chain.from_iterable(classes)) + self.closed


def enumerate_paths(
    graph: AnyGraph,
    placement: MonitorPlacement,
    mechanism: RoutingMechanism | str = RoutingMechanism.CSP,
    cutoff: Optional[int] = DEFAULT_CUTOFF,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> PathSet:
    """Enumerate the measurement paths ``P(G|χ)`` under a routing mechanism.

    The open family is counted per touch class by the subset DP
    (:func:`_touch_classes`), the closed CAP/CAP⁻ family is enumerated by
    the DFS, and the node rows ``P(v)`` are written in class-major column
    order by :func:`~repro.engine.columns.class_rows`, one run per (class,
    node).  No open path tuple is built: the returned set's ``paths`` are
    materialised on first read (see the module docstring).

    Parameters
    ----------
    graph:
        The topology (directed or undirected networkx graph).
    placement:
        The monitor placement ``χ = (m, M)``.
    mechanism:
        One of :class:`RoutingMechanism` (or its string name).  Default CSP.
    cutoff:
        Optional maximum path length in *edges*; ``None`` enumerates all.
    max_paths:
        Guard against explosion; :class:`PathExplosionError` is raised as
        soon as more paths than this are counted (the paper's own
        exhaustive search stops around 5·10⁶ paths).

    Returns
    -------
    PathSet
        The measurement paths over the full node set of ``graph``.
    """
    mechanism = RoutingMechanism.parse(mechanism)
    node_universe = tuple(sorted(graph.nodes, key=repr))
    directed = bool(graph.is_directed())
    # The link universe is the *full* edge set of the graph (canonicalised),
    # so an edge no path traverses is an uncovered failure element.  Only the
    # universe is captured here; the per-link masks derive from the paths on
    # first link-universe query (PathSet._derive_links).
    link_universe = tuple(
        sorted(
            {canonical_link(u, v, directed) for u, v in graph.edges()}, key=repr
        )
    )
    placement.validate(graph)
    adjacency = _adjacency(graph)
    classes, open_lengths = _touch_classes(adjacency, placement, cutoff, max_paths)
    room = max(max_paths - sum(open_lengths.values()), 0) + 1
    closed = tuple(
        islice(_closed_paths(adjacency, directed, placement, mechanism, cutoff), room)
    )
    position = adjacency.position
    family = _Family(
        adjacency,
        placement,
        cutoff,
        tuple(classes),
        tuple(classes.values()),
        tuple(open_lengths.items()),
        closed,
        tuple(sum(1 << position[node] for node in set(path)) for path in closed),
    )
    _check_family_size(family.n_paths, max_paths, mechanism)
    from repro.engine.columns import class_rows

    rows = class_rows(
        family.keys + family.closed_keys,
        family.counts + (1,) * len(closed),
        len(position),
    )
    return PathSet(
        node_universe,
        None,
        {node: rows[position[node]] for node in node_universe},
        directed=directed,
        _links=link_universe,
        _family=family,
    )


def _path_lengths(pathset: PathSet) -> Iterator[Tuple[int, int]]:
    """``(length in edges, number of paths)`` pairs covering ``pathset``,
    read off the DP layer totals of an enumerated set."""
    if pathset._family is not None:
        return pathset._family.lengths()
    return ((max(len(path) - 1, 0), 1) for path in pathset.paths)


def path_length_histogram(pathset: PathSet) -> Dict[int, int]:
    """Histogram ``length (in edges) -> count`` of the measurement paths.

    Useful for the reporting layer and the routing-cost discussion of
    Section 9 (fewer/shorter paths means cheaper probing).  An enumerated
    path set answers from its DP layer totals without building its paths.
    """
    histogram: Dict[int, int] = {}
    for length, count in _path_lengths(pathset):
        histogram[length] = histogram.get(length, 0) + count
    return dict(sorted(histogram.items()))


def count_paths(
    graph: AnyGraph,
    placement: MonitorPlacement,
    mechanism: RoutingMechanism | str = RoutingMechanism.CSP,
    cutoff: Optional[int] = DEFAULT_CUTOFF,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> int:
    """``|P(G|χ)|`` (as in Tables 3-5), streamed off the depth-first
    enumeration.

    Walks every path with the DFS but keeps no :class:`PathSet` or path
    tuples (beyond the scoped cycle-family dedup set), so it is the
    independent reference for :func:`enumerate_paths`'s class counts.
    Semantics match :func:`enumerate_paths` exactly: the same
    :class:`PathExplosionError` guard applies and an empty path family
    raises :class:`RoutingError`.
    """
    mechanism = RoutingMechanism.parse(mechanism)
    placement.validate(graph)
    adjacency = _adjacency(graph)
    family = chain(
        _open_paths(adjacency, placement, cutoff),
        _closed_paths(
            adjacency, bool(graph.is_directed()), placement, mechanism, cutoff
        ),
    )
    total = sum(1 for _ in islice(family, max(max_paths, 0) + 1))
    _check_family_size(total, max_paths, mechanism)
    return total
