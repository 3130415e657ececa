"""Monitor placements χ = (m, M) (Section 2, "Paths, monitors and identifiability").

Physical monitors are external to the network; a monitor placement is a pair
of injective maps from the physical input monitors ``I`` and output monitors
``O`` to nodes of ``G``.  Because only the images matter for the path set,
the library represents a placement by the pair of node sets
``(m, M) = (χ_i(I), χ_o(O))``.

A node may be both an input node and an output node (this is what makes
degenerate loop paths, DLPs, possible); the grid placement χ_g of Section 4.1
relies on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable

from repro._typing import AnyGraph, Node
from repro.exceptions import MonitorPlacementError


@dataclass(frozen=True)
class MonitorPlacement:
    """A monitor placement ``χ = (m, M)``.

    Attributes
    ----------
    inputs:
        The set ``m`` of nodes attached to input monitors.
    outputs:
        The set ``M`` of nodes attached to output monitors.

    The class is immutable and hashable so placements can be used as cache
    keys by the experiment drivers.
    """

    inputs: FrozenSet[Node]
    outputs: FrozenSet[Node]

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", frozenset(self.inputs))
        object.__setattr__(self, "outputs", frozenset(self.outputs))
        if not self.inputs:
            raise MonitorPlacementError("a placement needs at least one input node")
        if not self.outputs:
            raise MonitorPlacementError("a placement needs at least one output node")

    @classmethod
    def of(cls, inputs: Iterable[Node], outputs: Iterable[Node]) -> "MonitorPlacement":
        """Build a placement from any two iterables of nodes."""
        return cls(frozenset(inputs), frozenset(outputs))

    @property
    def n_inputs(self) -> int:
        """``m̂ = |m|``, the number of input nodes (Theorem 3.1)."""
        return len(self.inputs)

    @property
    def n_outputs(self) -> int:
        """``M̂ = |M|``, the number of output nodes (Theorem 3.1)."""
        return len(self.outputs)

    @property
    def n_monitors(self) -> int:
        """Total number of monitor attachments ``|m| + |M|``.

        A node attached to both an input and an output monitor counts twice,
        matching the paper's monitor counts (e.g. 4n − 2 for χ_g on H_n).
        """
        return self.n_inputs + self.n_outputs

    @property
    def monitor_nodes(self) -> FrozenSet[Node]:
        """All nodes attached to some monitor."""
        return self.inputs | self.outputs

    @property
    def dlp_candidates(self) -> FrozenSet[Node]:
        """Nodes attached to both an input and an output monitor.

        These are exactly the nodes that could form a degenerate loop path
        (DLP); the CAP⁻ and CSP routing mechanisms exclude such single-node
        paths (Section 2 and Section 9).
        """
        return self.inputs & self.outputs

    def validate(self, graph: AnyGraph) -> None:
        """Raise :class:`MonitorPlacementError` unless every monitor node is a
        node of ``graph``."""
        missing = [node for node in self.monitor_nodes if node not in graph]
        if missing:
            raise MonitorPlacementError(
                f"monitor nodes {missing!r} are not nodes of the graph"
            )

    def restricted_to(self, graph: AnyGraph) -> "MonitorPlacement":
        """Placement restricted to the nodes actually present in ``graph``.

        Used when a placement computed on ``G`` is reused on a modified graph
        (for example after node removals in the tomography what-if analysis).
        """
        inputs = frozenset(node for node in self.inputs if node in graph)
        outputs = frozenset(node for node in self.outputs if node in graph)
        if not inputs or not outputs:
            raise MonitorPlacementError(
                "restriction removed every input or every output node"
            )
        return MonitorPlacement(inputs, outputs)

    def swapped(self) -> "MonitorPlacement":
        """The placement with the roles of inputs and outputs exchanged."""
        return MonitorPlacement(self.outputs, self.inputs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ins = sorted(map(repr, self.inputs))
        outs = sorted(map(repr, self.outputs))
        return f"MonitorPlacement(inputs={{{', '.join(ins)}}}, outputs={{{', '.join(outs)}}})"
