"""Theorems 4.8 and 4.9 — directed grids and hypergrids under χ_g.

µ(H_n|χ_g) = 2 for n ≥ 3 and µ(H_{n,d}|χ_g) = d — checked at d = 3 for
n = 3 and n = 5 (319,635 paths) and at d = 4 for n = 3, whose witness at
size 5 lies past C(81, 5) ≈ 25.6 M subsets; additionally the optimality
observation of Section 4.1 (dropping the monitors on (1,2) and (2,1) breaks
2-identifiability).
"""

from __future__ import annotations

from conftest import exact_mu, run_once

from repro.monitors.grid_placement import chi_g, reduced_chi_g
from repro.topology.grids import directed_grid, directed_hypergrid


def _run_directed_grid_suite() -> dict:
    results = {}
    for n in (3, 4, 5):
        grid = directed_grid(n)
        results[f"H_{n}"] = exact_mu(grid, chi_g(grid))
    for n, d in ((3, 3), (5, 3), (3, 4)):
        hypergrid = directed_hypergrid(n, d)
        results[f"H_{n}_{d}"] = exact_mu(hypergrid, chi_g(hypergrid))
    weakened = directed_grid(3)
    results["H_3_reduced_monitors"] = exact_mu(weakened, reduced_chi_g(weakened))
    return results


def test_theorem_directed_grids(benchmark):
    results = run_once(benchmark, _run_directed_grid_suite)

    assert results["H_3"] == 2            # Theorem 4.8
    assert results["H_4"] == 2
    assert results["H_5"] == 2
    assert results["H_3_3"] == 3          # Theorem 4.9 (d = 3)
    assert results["H_5_3"] == 3
    assert results["H_3_4"] == 4          # Theorem 4.9 (d = 4)
    assert results["H_3_reduced_monitors"] < 2  # optimality of chi_g

    benchmark.extra_info["experiment"] = "Theorems 4.8 / 4.9 (directed grids)"
    benchmark.extra_info["measured"] = results
