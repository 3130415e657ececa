"""Section 3 structural upper bounds — Theorem 3.1, Lemma 3.2, Corollary 3.3,
Lemma 3.4 — checked against exact µ on a sweep of topologies.

The benchmark measures the cost of the bound computation plus the exact µ it
caps, over the zoo networks and a batch of random graphs; every exact value
must respect every applicable bound.
"""

from __future__ import annotations

from conftest import exact_mu, run_once

from repro.core.bounds import structural_upper_bound
from repro.monitors.grid_placement import chi_g
from repro.monitors.heuristics import mdmp_placement
from repro.topology.grids import directed_grid
from repro.topology.random_graphs import erdos_renyi_connected
from repro.topology.zoo import available_networks, load


def _run_bounds_sweep() -> list:
    rows = []
    for name in available_networks():
        graph = load(name)
        placement = mdmp_placement(graph, 2)
        report = structural_upper_bound(graph, placement, "CSP")
        value = exact_mu(graph, placement)
        rows.append((name, value, report.combined, report.degree, report.monitor_count))
    for seed in range(5):
        graph = erdos_renyi_connected(7, 0.4, rng=seed)
        placement = mdmp_placement(graph, 2)
        report = structural_upper_bound(graph, placement, "CSP")
        value = exact_mu(graph, placement)
        rows.append((f"gnp_{seed}", value, report.combined, report.degree, report.monitor_count))
    grid = directed_grid(3)
    placement = chi_g(grid)
    report = structural_upper_bound(grid, placement, "CSP")
    rows.append(("H_3_directed", exact_mu(grid, placement), report.combined, report.degree, report.monitor_count))
    return rows


def test_structural_bounds(benchmark):
    rows = run_once(benchmark, _run_bounds_sweep)

    for name, value, combined, degree, monitor in rows:
        assert value <= combined, f"{name}: mu={value} exceeds combined bound {combined}"
        assert value <= degree, f"{name}: mu={value} exceeds the degree bound {degree}"
        if monitor is not None:
            assert value <= monitor, f"{name}: mu={value} exceeds the Theorem 3.1 bound"

    benchmark.extra_info["experiment"] = "Section 3 structural bounds"
    benchmark.extra_info["rows"] = [
        {"graph": name, "mu": value, "bound": combined} for name, value, combined, _, _ in rows
    ]
