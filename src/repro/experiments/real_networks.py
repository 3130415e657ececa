"""Tables 3-5: Agrid on small real networks (Section 8.0.1).

For each network ``G`` and each dimension rule (``d = sqrt(log N)`` and
``d = log N``) the experiment reports, for ``G`` and for the boosted ``G^A``:
the exact maximal identifiability µ, the number of measurement paths |P|, the
number of edges |E| and the minimal degree δ — exactly the rows of the paper's
Tables 3, 4 and 5.  Monitors (d inputs, d outputs) are placed by MDMP on both
graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.api.results import AgridComparisonReport
from repro.api.scenario import _agrid_comparison
from repro.api.spec import EngineConfig, FailureModel
from repro.experiments.common import coerce_universe_spec, resolve_dimension
from repro.routing.mechanisms import RoutingMechanism
from repro.topology import zoo
from repro.utils.seeds import RngLike, spawn_rng
from repro.utils.tables import format_table

#: The networks of Tables 3, 4 and 5 in paper order.
REAL_NETWORK_TABLES: Dict[str, str] = {
    "claranet": "Table 3",
    "eunetworks": "Table 4",
    "dataxchange": "Table 5",
}


@dataclass(frozen=True)
class RealNetworkResult:
    """One full table (both dimension rules) for one network."""

    network: str
    n_nodes: int
    sqrt_log: AgridComparisonReport
    log: AgridComparisonReport

    def rows(self) -> Tuple[Tuple[str, object, object, object, object], ...]:
        """The table rows in the paper's layout: metric, G, G^A, G, G^A."""
        return (
            ("mu", self.sqrt_log.original.mu, self.sqrt_log.boosted.mu,
             self.log.original.mu, self.log.boosted.mu),
            ("|P|", self.sqrt_log.original.n_paths, self.sqrt_log.boosted.n_paths,
             self.log.original.n_paths, self.log.boosted.n_paths),
            ("|E|", self.sqrt_log.original.n_edges, self.sqrt_log.boosted.n_edges,
             self.log.original.n_edges, self.log.boosted.n_edges),
            ("delta", self.sqrt_log.original.min_degree, self.sqrt_log.boosted.min_degree,
             self.log.original.min_degree, self.log.boosted.min_degree),
            ("d", self.sqrt_log.dimension, self.sqrt_log.dimension,
             self.log.dimension, self.log.dimension),
        )

    def render(self) -> str:
        """Plain-text rendering mirroring the paper's table layout."""
        headers = (
            "metric",
            "G (d=sqrt(logN))",
            "G^A (d=sqrt(logN))",
            "G (d=logN)",
            "G^A (d=logN)",
        )
        title = f"{self.network} (|V| = {self.n_nodes})"
        return format_table(headers, self.rows(), title=title)

    @property
    def never_decreases(self) -> bool:
        """Sanity property the paper reports: Agrid never lowers µ."""
        return self.sqrt_log.improvement >= 0 and self.log.improvement >= 0


def run_real_network(
    name: str,
    rng: RngLike = 2018,
    mechanism: RoutingMechanism | str = RoutingMechanism.CSP,
    max_paths: Optional[int] = None,
    engine: Optional[EngineConfig] = None,
    universe: str = "node",
) -> RealNetworkResult:
    """Reproduce the Table-3/4/5 measurement for one zoo network.

    ``engine`` scopes the signature-engine configuration to this table
    (``None`` means ``EngineConfig()``);
    ``universe`` selects the failure universe of every µ (``"node"`` — the
    bit-identical default — or ``"link"``).
    """
    graph = zoo.load(name)
    failures = FailureModel(universe=coerce_universe_spec(universe))

    def compare(slot: int, rule: str) -> AgridComparisonReport:
        return _agrid_comparison(
            graph, resolve_dimension(rule, graph), spawn_rng(rng, slot),
            mechanism, None, max_paths, engine, failures,
        )[0]

    return RealNetworkResult(
        network=graph.name or name,
        n_nodes=graph.number_of_nodes(),
        sqrt_log=compare(1, "sqrt_log"),
        log=compare(2, "log"),
    )


def run_table3(rng: RngLike = 2018) -> RealNetworkResult:
    """Table 3: Claranet (|V| = 15)."""
    return run_real_network("claranet", rng)


def run_table4(rng: RngLike = 2018) -> RealNetworkResult:
    """Table 4: EuNetworks (|V| = 14)."""
    return run_real_network("eunetworks", rng)


def run_table5(rng: RngLike = 2018) -> RealNetworkResult:
    """Table 5: DataXchange (|V| = 6)."""
    return run_real_network("dataxchange", rng)


def run_all_real_networks(
    rng: RngLike = 2018,
    universe: str = "node",
    engine: Optional[EngineConfig] = None,
) -> Dict[str, RealNetworkResult]:
    """Run Tables 3-5 and return the results keyed by network name."""
    return {
        name: run_real_network(name, rng, engine=engine, universe=universe)
        for name in REAL_NETWORK_TABLES
    }
