"""Measurement-path enumeration and the :class:`PathSet` container.

The identifiability machinery never looks at a path beyond the *set of
elements it touches*, so :class:`PathSet` stores, for every node ``v``, the
bitmask of indices of paths crossing ``v`` (``P(v)`` in the paper) — and, for
every link ``(u, v)``, the bitmask of paths traversing it.  Unions over
element sets — ``P(U)`` — are then single bitwise ORs.

The enumerator writes the node rows straight from its traversal.  One
iterative DFS (:func:`_simple_paths`) serves every enumeration here: the
open family, the CAP/CAP⁻ cycles, :func:`count_paths` and the scoped
searches of :meth:`PathSet.apply_delta`.  It walks a positional adjacency
snapshot taken once per call, and it tests descent in O(1) by counting the
targets still off the path.  In its emission order, the paths through a node
form one contiguous index run ``[start, end)`` per stay of that node on the
stack, and a node's runs are disjoint.  So the DFS records *row runs* — one
``start, end`` pair per stay instead of one index per (path, node)
incidence — and each ``P(v)`` is built once as
``mask_from_indices(ends) - mask_from_indices(starts)``.  Cycles and loops
add one single-index run per node they touch.  The enumerator also captures
the link *universe* (every edge of the graph); the link masks fall out of
the consecutive node pairs of the stored paths in one deferred, memoised
scan on first link-universe query, so node-only consumers never pay for
them.  Only directly-constructed path sets re-scan their paths for the node
table too (:func:`~repro.utils.bitset.masks_from_paths`).

The incidence lives here, once: the node rows (and the link rows, once
derived) are the element×path incidence matrix, one big-int row per element
with bit ``j`` = path column ``j``.  Everything that edits it by columns —
:meth:`PathSet.restrict_to_paths`, the survivor move and added-path scatter
of :meth:`PathSet.apply_delta`, the added columns' touch keys read by the
engine patch — is one call to the column primitives of
:mod:`repro.engine.columns` (numpy bit matrices when numpy imports, big
ints without it).  A
churn step looks for removed paths only among the columns of ``P(link)`` or
``P(u) & P(v)``; what still scales with ``|P|`` is the order-key sort of
the merged family, one survivor pass over the path tuples and, with the
paths through an added link, the DFS that finds them.

All heavy
identifiability queries go through the
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
from itertools import islice
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    FrozenSet,
    Generator,
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
from repro.exceptions import PathExplosionError, RoutingError
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
from repro.utils.bitset import (
    bit_indices,
    bits_of,
    mask_from_indices,
    masks_from_paths,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine sits above)
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


@dataclass(frozen=True)
class PathEvolution:
    """How an evolved :class:`PathSet` relates to its parent.

    Stashed (compare-excluded) on the path sets :meth:`PathSet.apply_delta`
    returns, so :meth:`PathSet.engine`'s dirty-row re-interning can tell
    *what changed* without re-deriving it.

    Attributes
    ----------
    parent:
        The pre-delta path set.
    survivors:
        ``old path index -> new path index`` for every path present in both
        families (positions change because the evolved family is emitted in
        canonical from-scratch order).
    added:
        New-family indices of paths absent from the parent, ascending.
    removed:
        Parent indices of paths absent from the new family, ascending.
    links_changed:
        Whether the link universe itself changed (links added or removed).
    """

    parent: "PathSet"
    survivors: Mapping[int, int]
    added: Tuple[int, ...]
    removed: Tuple[int, ...]
    links_changed: bool


@dataclass(frozen=True)
class PathSet:
    """An immutable set of measurement paths over a node universe.

    Attributes
    ----------
    nodes:
        The node universe ``V`` whose identifiability is studied (all nodes of
        the topology, monitor-attached or not — monitors are external).
    paths:
        The measurement paths, each an ordered node tuple.
    """

    nodes: Tuple[Node, ...]
    paths: Tuple[Path, ...]
    #: Precomputed ``node -> P(v)`` masks.  Left empty (the default) they are
    #: derived from ``paths``; the enumerator passes the masks it accumulated
    #: during its single traversal so the paths are never re-scanned.
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

    def __post_init__(self) -> None:
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
        return len(self.paths)

    def __iter__(self) -> Iterator[Path]:
        return iter(self.paths)

    @property
    def n_paths(self) -> int:
        """Number of measurement paths ``|P|`` (reported in Tables 3-5)."""
        return len(self.paths)

    @property
    def node_universe(self) -> FrozenSet[Node]:
        """The node set ``V`` as a frozenset."""
        return frozenset(self.nodes)

    def approximate_nbytes(self) -> int:
        """A cheap estimate of this path set's resident size in bytes.

        Counts the dominant stores — the per-node path masks (big-int bytes)
        and the path tuples (one pointer per hop plus tuple overhead) — and,
        when already derived, the link-mask table.  Used by cache byte
        accounting; deliberately an estimate, not ``sys.getsizeof`` truth.
        """
        total = 0
        for mask in self._node_masks.values():
            total += 32 + (mask.bit_length() + 7) // 8
        for path in self.paths:
            total += 56 + 8 * len(path)
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
        kind: str = "node",
        groups: Optional[Mapping[str, Iterable[Iterable[Node]]]] = None,
    ) -> FailureUniverse:
        """The :class:`~repro.failures.FailureUniverse` of the given kind.

        Universes are memoised per content fingerprint (``groups`` included
        for SRLGs — normalised first, so a repeated SRLG request costs only
        the validation pass, not the mask unions), so every consumer of the
        same kind shares one instance — and, through :meth:`engine`, one
        interned signature store.
        """
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

        if universe is None or isinstance(universe, str):
            universe = self.universe(universe or "node")
        else:
            # A universe built over a different path set would silently
            # compute over foreign masks AND poison the fingerprint-keyed
            # memo below for every later caller — refuse it outright.
            universe.check_built_over(self)
        elements, masks = universe.elements, universe.masks
        if universe.owner is not self:
            # A hand-built (owner-less) universe passed the width check, but
            # its fingerprint says nothing about its content — memoising it
            # would poison the cache for the canonical universe of the same
            # kind.  Build an un-memoised engine instead.
            return SignatureEngine(elements, masks, len(self.paths))
        cached = self._engines.get(universe.fingerprint)
        if cached is None:
            # An evolved path set first tries to patch its parent's engine
            # for the same universe — re-interning only the rows the delta
            # dirtied — and falls back to a full build when the parent has
            # no matching engine to patch.
            cached = self._engine_from_evolution(universe)
            if cached is None:
                cached = SignatureEngine(elements, masks, len(self.paths))
            self._engines[universe.fingerprint] = cached
        return cached

    # -- delta/evolution plumbing -------------------------------------------
    @property
    def evolution(self) -> Optional[PathEvolution]:
        """The :class:`PathEvolution` linking this path set to the parent it
        was evolved from by :meth:`apply_delta` (``None`` for fresh sets)."""
        return getattr(self, "_evolution", None)

    def _engine_from_evolution(
        self, universe: FailureUniverse
    ) -> Optional["SignatureEngine"]:
        """Patch the parent's engine for ``universe`` instead of building one.

        Returns ``None`` whenever the incremental route is unavailable — no
        evolution record, no matching parent engine, a parent plan that is
        the identity, or a patched plan that degenerates — so
        :meth:`engine` can fall back to the full construction.  When it succeeds, the result is structurally
        identical to a fresh :class:`SignatureEngine` (same plan, same
        rows): only rows whose elements the delta dirtied are re-interned
        from their masks, every other row is translated from the parent's
        row by a class-index remap.
        """
        evolution = self.evolution
        if evolution is None:
            return None
        parent_engine = evolution.parent._engines.get(universe.fingerprint)
        if parent_engine is None or parent_engine.compression is None:
            return None
        added = self._added_touch_keys(evolution, universe)
        element_remap: Optional[Dict[int, int]] = None
        if parent_engine.elements != universe.elements:
            position = {element: i for i, element in enumerate(universe.elements)}
            element_remap = {
                old: position[element]
                for old, element in enumerate(parent_engine.elements)
                if element in position
            }
        from repro.engine.signatures import SignatureEngine
        from repro.exceptions import IdentifiabilityError

        try:
            return SignatureEngine.from_delta(
                parent_engine,
                universe.elements,
                universe.masks,
                len(self.paths),
                survivors=evolution.survivors,
                added=added,
                element_remap=element_remap,
            )
        except IdentifiabilityError:
            return None

    def _added_touch_keys(
        self, evolution: PathEvolution, universe: FailureUniverse
    ) -> List[Tuple[int, Tuple[int, ...]]]:
        """``(column, touch key)`` for every delta-added path column: the
        ascending positions of the universe elements whose rows have the
        column set, read off one gather of the added columns and its
        transpose."""
        added = evolution.added
        if not added:
            return []
        from repro.engine.columns import column_keys, gather_columns

        rows = [universe.masks[element] for element in universe.elements]
        gathered = gather_columns(rows, added, len(self.paths))
        return list(zip(added, column_keys(gathered, len(added))))

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
        n = len(self.paths)
        seen: set = set()
        for index in indices:
            if not 0 <= index < n:
                raise RoutingError(
                    f"path index {index} out of range for {n} paths"
                )
            if index in seen:
                raise RoutingError(f"duplicate path index {index}")
            seen.add(index)
        node_masks, link_masks = self._gather_masks(indices)
        return PathSet(
            self.nodes,
            tuple(self.paths[i] for i in indices),
            node_masks,
            directed=self.directed,
            _links=self._links,
            _link_masks=link_masks,
        )

    def _gather_masks(
        self,
        sources: Sequence[int],
        links: Optional[Tuple[Link, ...]] = None,
        new_paths: Sequence[Path] = (),
    ) -> Tuple[Dict[Node, int], Optional[Dict[Link, int]]]:
        """The node and link masks over new columns, in one column gather.

        Column ``j`` of the result is column ``sources[j]`` of this path
        set; a ``-1`` entry is an added column, filled by one scatter of the
        elements its path ``new_paths[j]`` touches.  Node rows follow
        :attr:`nodes`, link rows ``links``
        (default: this path set's links; a link without a mask here starts
        empty).  Link masks are produced only when this path set has
        derived them.
        """
        n_rows = len(self.nodes)
        rows = [self._node_masks[node] for node in self.nodes]
        link_masks = self._link_masks
        if link_masks is None:
            links = ()
        else:
            if links is None:
                links = self.links
            rows.extend(link_masks.get(link, 0) for link in links)
        scatter: List[List[int]] = []
        if -1 in sources:
            directed = bool(self.directed)
            row_of = {node: row for row, node in enumerate(self.nodes)}
            row_of.update((link, n_rows + row) for row, link in enumerate(links))
            scatter = [[] for _ in rows]
            for column in (j for j, source in enumerate(sources) if source < 0):
                path = new_paths[column]
                touched = path[:-1] if path[0] == path[-1] else path
                for node in touched:
                    scatter[row_of[node]].append(column)
                if link_masks is not None:
                    for u, v in zip(path, path[1:]):
                        if u != v:
                            scatter[row_of[canonical_link(u, v, directed)]].append(
                                column
                            )
        from repro.engine.columns import gather_columns

        gathered = gather_columns(rows, sources, len(self.paths), scatter)
        node_masks = dict(zip(self.nodes, gathered))
        if link_masks is None:
            return node_masks, None
        return node_masks, dict(zip(links, gathered[n_rows:]))

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
        monitor placement (the caller applies the delta to its own graph;
        this method only needs to know *what* changed).  The result is
        bit-identical — paths, order, masks, link universe — to
        ``enumerate_paths(graph, placement, mechanism, cutoff, max_paths)``,
        but only the paths the delta can affect are re-enumerated:

        * paths traversing a removed link, starting at a removed input or
          ending at a removed output are dropped;
        * new paths are found by three scoped searches — from each added
          input to every output, from the kept inputs to the added outputs,
          and through each added link via a two-segment composition
          (prefix to the link's tail avoiding its head, the link itself,
          then a suffix DFS forbidden from re-entering the prefix);
        * the cycle/loop families (CAP/CAP⁻ only) are re-emitted by the
          canonical generator — they are cheap, and their dedup
          representative depends on global emission order;
        * every untouched path *survives* and its mask columns are remapped
          instead of re-scanned.

        Exactness of the ordering relies on the emission-order invariant of
        :func:`_simple_paths`: within one source, paths are emitted in
        lexicographic order of their adjacency-index vectors (the DFS yields
        before it descends and walks adjacency in insertion order), so
        sorting the merged open family by (source rank, adjacency-index
        vector over the post-delta graph) reproduces the from-scratch order
        without re-running the full DFS.

        The returned path set carries a :class:`PathEvolution` record
        (``.evolution``) linking it to this parent, which
        :meth:`engine` uses to patch the parent's signature engines instead
        of re-interning every row.
        """
        mechanism = RoutingMechanism.parse(mechanism)
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
        old_links = set(self._links) if self._links is not None else set(self.links)
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

        # 1. Open-family survivors: old simple input→output paths that avoid
        #    every removed link and keep both endpoints monitored.  Only the
        #    columns of P(link) — or of P(u) & P(v) while link masks are
        #    underived — can traverse a removed link, and only P(u) can start
        #    or end at a removed monitor u.
        paths = self.paths
        dropped: Set[int] = set()
        for u, v in removed_links:
            if self._link_masks is not None:
                dropped.update(bit_indices(self._link_masks[(u, v)]))
                continue
            for index in bit_indices(self._node_masks[u] & self._node_masks[v]):
                path = paths[index]
                at = path.index(u)  # open paths are simple: u occurs once
                if (at + 1 < len(path) and path[at + 1] == v) or (
                    not directed and at and path[at - 1] == v
                ):
                    dropped.add(index)
        for monitors, end in ((removed_inputs, 0), (removed_outputs, -1)):
            for u in monitors:
                dropped.update(
                    i
                    for i in bit_indices(self._node_masks.get(u, 0))
                    if paths[i][end] == u
                )
        survivors: List[Tuple[int, Path]] = []
        old_closed_index: Dict[Path, int] = {}
        for index, path in enumerate(paths):
            if path[0] == path[-1]:
                # Closed families are re-emitted below; identical tuples are
                # matched back to their old columns as survivors.
                old_closed_index[path] = index
            elif index not in dropped:
                survivors.append((index, path))

        # 2. Open-family additions: every post-delta path missing from the
        #    old family starts at an added input, ends at an added output, or
        #    traverses an added link (the old enumeration was exhaustive over
        #    everything else).  The three searches overlap; the set dedups.
        additions: Set[Path] = set()
        adjacency = _adjacency(graph)
        kept_inputs = placement.inputs - added_inputs
        for source in added_inputs:
            additions.update(
                _simple_paths(adjacency, source, placement.outputs, cutoff)
            )
        if added_outputs:
            for source in kept_inputs:
                additions.update(
                    _simple_paths(adjacency, source, added_outputs, cutoff)
                )
        for tail, head in added_links:
            if tail == head:
                continue  # a self-loop joins the universe but carries no path
            orientations = ((tail, head),) if directed else ((tail, head), (head, tail))
            for a, b in orientations:
                for source in kept_inputs:
                    additions.update(
                        _paths_through_edge(
                            adjacency, source, placement.outputs, a, b, cutoff
                        )
                    )

        # 3. Order the merged open family exactly as a fresh enumeration
        #    would: grouped by source in repr order, lexicographic in the
        #    adjacency-index vector within one source.
        nodes = adjacency.nodes
        positions = {
            nodes[u]: {nodes[v]: i for i, v in enumerate(row)}
            for u, row in enumerate(adjacency.neighbours)
        }
        source_rank = {
            source: rank
            for rank, source in enumerate(sorted(placement.inputs, key=repr))
        }

        def order_key(path: Path) -> List[int]:
            u = path[0]
            vector = [source_rank[u]]
            for v in path[1:]:
                vector.append(positions[u][v])
                u = v
            return vector

        open_family: List[Tuple[List[int], Optional[int], Path]] = [
            (order_key(path), index, path) for index, path in survivors
        ]
        open_family.extend((order_key(path), None, path) for path in additions)
        open_family.sort(key=lambda item: item[0])

        # 4. Closed families (CAP/CAP⁻): re-emitted by the canonical
        #    generator — their dedup representative depends on emission order
        #    over the post-delta adjacency, so surviving cycles are detected
        #    by tuple identity rather than filtered.
        closed = list(
            _closed_paths(adjacency, directed, placement, mechanism, cutoff)
        )

        _check_family_size(len(open_family) + len(closed), max_paths, mechanism)

        new_paths: List[Path] = [item[2] for item in open_family]
        sources: List[int] = [
            -1 if old_index is None else old_index for _, old_index, _ in open_family
        ]
        for path in closed:
            new_paths.append(path)
            sources.append(old_closed_index.get(path, -1))
        survivors_map = {old: new for new, old in enumerate(sources) if old >= 0}
        added_indices = [new for new, old in enumerate(sources) if old < 0]

        # 5. Masks by one column gather: surviving columns move to their new
        #    positions, added paths scatter their touched elements.  The link
        #    universe changes only when links actually changed; the link
        #    masks are gathered (never re-derived) when the parent had
        #    already paid for them.
        links_changed = bool(removed_links or added_links)
        if links_changed or self._links is None:
            new_links: Tuple[Link, ...] = tuple(sorted(new_link_set, key=repr))
        else:
            new_links = self._links
        node_masks, link_masks = self._gather_masks(sources, new_links, new_paths)

        removed_indices = tuple(
            index for index in range(len(self.paths)) if index not in survivors_map
        )
        result = PathSet(
            self.nodes,
            tuple(new_paths),
            node_masks,
            directed=directed,
            _links=new_links,
            _link_masks=link_masks,
        )
        object.__setattr__(
            result,
            "_evolution",
            PathEvolution(
                parent=self,
                survivors=survivors_map,
                added=tuple(added_indices),
                removed=removed_indices,
                links_changed=links_changed,
            ),
        )
        return result

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"PathSet(|V|={len(self.nodes)}, |P|={len(self.paths)}, "
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
    forbidden: Iterable[Node] = (),
    runs: Optional[List[List[int]]] = None,
    base: int = 0,
) -> Generator[Path, None, int]:
    """Yield all simple paths from ``source`` to any of ``targets``.

    The one iterative multi-target DFS every enumeration in this module
    runs: a single traversal per source covers every target, so prefixes
    shared between targets are walked once.  Paths from a node to itself are
    excluded (the cycle and loop families are built on top of it).

    ``cutoff`` limits the path length in *edges* (``None`` = unlimited).  The
    traversal descends into a child only while some target lies off the
    path, tracked as a count of such targets, so the test is O(1).  Emission
    is depth-first in adjacency order — lexicographic in the path's
    adjacency-index vector, an invariant :meth:`PathSet.apply_delta` relies on
    to merge incremental results into from-scratch order.

    ``forbidden`` excludes a node set from the traversal entirely (the delta
    layer's two-segment composition); forbidden nodes are never visited and
    never count as targets.

    With ``runs`` (one list per node position), the paths are numbered from
    ``base`` and every node's incidence is recorded as *row runs*: the paths
    emitted while a node sits on the stack form one contiguous index range,
    appended to its list as ``start, end`` (a target reached as a leaf gets a
    single-index run).  A node's runs are disjoint and ascending, so its
    ``P(v)`` row is ``mask_from_indices(ends) - mask_from_indices(starts)``.
    The return value is ``base`` plus the number of paths emitted.
    """
    position = adjacency.position
    if source not in position:
        raise RoutingError(f"source node {source!r} is not in the graph")
    # Per position: 0 = free, 1 = a free target, 2 = on the path or
    # forbidden.  Backtracking restores a node's flag from ``is_target``.
    is_target = bytearray(len(position))
    for target in targets:
        if target in position:
            is_target[position[target]] = 1
    state = bytearray(is_target)
    for node in forbidden:
        state[position[node]] = 2
    origin = position[source]
    if state[origin] == 2:
        return base
    state[origin] = 2
    remaining = state.count(1)  # targets off the path; >= 1 while exploring
    # The deepest prefix (in nodes) that may still be extended by one edge.
    limit = len(position) - 1 if cutoff is None else cutoff
    if not remaining or limit < 1:
        return base  # no target, or no room for a 1-edge path (cutoff <= 0)
    neighbours, singletons = adjacency.neighbours, adjacency.singletons
    count = base
    prefix: Path = (source,)
    prefixes: List[Path] = [()]
    trail = [origin]
    starts = [base]
    stack: List[Iterator[int]] = [iter(neighbours[origin])]
    while stack:
        for child in stack[-1]:
            flag = state[child]
            if flag == 2:
                continue
            if flag:
                extended = prefix + singletons[child]
                yield extended
                count += 1
                if remaining == 1 or len(prefix) >= limit:
                    if runs is not None:
                        runs[child].extend((count - 1, count))
                    continue
                remaining -= 1
                starts.append(count - 1)
            elif len(prefix) >= limit:
                continue
            else:
                extended = prefix + singletons[child]
                starts.append(count)
            prefixes.append(prefix)
            prefix = extended
            trail.append(child)
            state[child] = 2
            stack.append(iter(neighbours[child]))
            break
        else:
            stack.pop()
            node = trail.pop()
            flag = state[node] = is_target[node]
            remaining += flag
            start = starts.pop()
            if runs is not None and count > start:
                runs[node].extend((start, count))
            prefix = prefixes.pop()
    return count


def _paths_through_edge(
    adjacency: _Adjacency,
    source: Node,
    targets: AbstractSet[Node],
    tail: Node,
    head: Node,
    cutoff: Optional[int],
) -> Iterator[Path]:
    """Yield simple ``source``→target paths traversing the edge ``tail→head``.

    The delta layer's scoped search for paths through one *added* link: every
    such path decomposes uniquely into a simple prefix from ``source`` to
    ``tail`` that avoids ``head`` (the path visits ``head`` only after the
    edge), the edge itself, and a simple suffix from ``head`` to a target
    avoiding every prefix node — so enumerating (prefix, suffix) pairs with
    the forbidden-set DFS finds each qualifying path exactly once, in
    from-scratch order.  For undirected graphs the caller invokes this
    twice, once per orientation.
    """
    if source == head:
        return  # the edge would re-enter the source: never simple
    if cutoff is not None and cutoff < 1:
        return
    if source == tail:
        prefixes: Iterable[Path] = ((tail,),)
    else:
        prefix_cutoff = None if cutoff is None else cutoff - 1
        prefixes = _simple_paths(
            adjacency, source, (tail,), prefix_cutoff, forbidden=(head,)
        )
    for prefix in prefixes:
        with_edge = prefix + (head,)
        if head in targets:
            yield with_edge
        remaining = None if cutoff is None else cutoff - len(prefix)
        if remaining is not None and remaining < 1:
            continue
        for suffix in _simple_paths(
            adjacency, head, targets, remaining, forbidden=prefix
        ):
            yield prefix + suffix


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


def _measurement_paths(
    adjacency: _Adjacency,
    directed: bool,
    placement: MonitorPlacement,
    mechanism: RoutingMechanism,
    cutoff: Optional[int],
    runs: Optional[List[List[int]]] = None,
) -> Iterator[Path]:
    """Yield the measurement paths of ``P(G|χ)`` in canonical order.

    The open family (simple input → output paths with distinct endpoints,
    all mechanisms) is one multi-target DFS per source in ``repr`` order;
    it needs no dedup, since paths from different sources differ in their
    first node.  The closed families follow.  With ``runs``, every path's
    node incidence is recorded as row runs (see :func:`_simple_paths`); a
    closed path records one single-index run per node it touches.
    """
    count = 0
    for source in sorted(placement.inputs, key=repr):
        count = yield from _simple_paths(
            adjacency, source, placement.outputs, cutoff, runs=runs, base=count
        )
    position = adjacency.position
    for path in _closed_paths(adjacency, directed, placement, mechanism, cutoff):
        if runs is not None:
            # A closed tuple repeats only its anchor: dropping the last node
            # leaves exactly the distinct touched nodes.
            for node in path[:-1]:
                runs[position[node]].extend((count, count + 1))
        count += 1
        yield path


def _check_family_size(
    total: int, max_paths: int, mechanism: RoutingMechanism
) -> None:
    """Raise when a measurement-path family of ``total`` paths is unusable."""
    if total > max_paths:
        raise PathExplosionError(
            f"more than max_paths={max_paths} measurement paths; "
            "increase the cap or use a smaller topology"
        )
    if total == 0:
        raise RoutingError(
            "no measurement path exists for this placement under "
            f"{mechanism.value}; identifiability would be undefined"
        )


def enumerate_paths(
    graph: AnyGraph,
    placement: MonitorPlacement,
    mechanism: RoutingMechanism | str = RoutingMechanism.CSP,
    cutoff: Optional[int] = DEFAULT_CUTOFF,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> PathSet:
    """Enumerate the measurement paths ``P(G|χ)`` under a routing mechanism.

    The node rows ``P(v)`` are written by the traversal itself: in DFS
    emission order the paths through a node form one contiguous index run
    per stay on the stack, so the DFS records ``start, end`` pairs instead
    of one index per (path, node) incidence, and each row is built once as
    ``mask_from_indices(ends) - mask_from_indices(starts)``
    (:func:`repro.utils.bitset.mask_from_indices`).  The path tuples are
    never re-scanned.

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
        Guard against explosion; :class:`PathExplosionError` is raised when
        more paths than this would be enumerated (the paper's own exhaustive
        search stops around 5·10⁶ paths).

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
    # universe is captured here; the per-link masks derive from the stored
    # paths on first link-universe query (PathSet._derive_links), keeping the
    # node-only hot path exactly as fast as before links existed.
    link_universe = tuple(
        sorted(
            {canonical_link(u, v, directed) for u, v in graph.edges()}, key=repr
        )
    )
    placement.validate(graph)
    adjacency = _adjacency(graph)
    runs: List[List[int]] = [[] for _ in adjacency.nodes]
    paths = tuple(
        islice(
            _measurement_paths(
                adjacency, directed, placement, mechanism, cutoff, runs
            ),
            max(max_paths, 0) + 1,
        )
    )
    _check_family_size(len(paths), max_paths, mechanism)
    position = adjacency.position
    masks: Dict[Node, int] = {}
    for node in node_universe:
        bounds = runs[position[node]]
        masks[node] = mask_from_indices(bounds[1::2]) - mask_from_indices(bounds[::2])
    return PathSet(
        node_universe,
        paths,
        masks,
        directed=directed,
        _links=link_universe,
    )


def path_length_histogram(pathset: PathSet) -> Dict[int, int]:
    """Histogram ``length (in edges) -> count`` of the measurement paths.

    Useful for the reporting layer and the routing-cost discussion of
    Section 9 (fewer/shorter paths means cheaper probing).
    """
    histogram: Dict[int, int] = {}
    for path in pathset.paths:
        length = max(len(path) - 1, 0)
        histogram[length] = histogram.get(length, 0) + 1
    return dict(sorted(histogram.items()))


def count_paths(
    graph: AnyGraph,
    placement: MonitorPlacement,
    mechanism: RoutingMechanism | str = RoutingMechanism.CSP,
    cutoff: Optional[int] = DEFAULT_CUTOFF,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> int:
    """``|P(G|χ)|`` (as in Tables 3-5), streamed off the enumeration.

    Runs the same traversal as :func:`enumerate_paths` but records no row
    runs and keeps no :class:`PathSet` or path tuples (beyond the scoped
    cycle-family dedup set).  Semantics match :func:`enumerate_paths`
    exactly: the same :class:`PathExplosionError` guard applies and an
    empty path family raises :class:`RoutingError`.
    """
    mechanism = RoutingMechanism.parse(mechanism)
    placement.validate(graph)
    family = _measurement_paths(
        _adjacency(graph), bool(graph.is_directed()), placement, mechanism, cutoff
    )
    total = sum(1 for _ in islice(family, max(max_paths, 0) + 1))
    _check_family_size(total, max_paths, mechanism)
    return total
