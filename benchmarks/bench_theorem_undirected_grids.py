"""Theorem 5.4 — undirected grids with only 2d monitors, any placement.

d − 1 ≤ µ(H_{n,d}|χ) ≤ d for every placement of 2d monitors.  The benchmark
checks the corner placement and several random placements on the 3x3 and 4x4
grids (d = 2); larger supports/dimensions explode the simple-path count and
are excluded from the timed run.
"""

from __future__ import annotations

from conftest import exact_mu, run_once

from repro.monitors.grid_placement import chi_corners
from repro.monitors.heuristics import random_placement
from repro.topology.grids import undirected_grid


def _run_undirected_grid_suite() -> dict:
    results = {}
    for n in (3, 4):
        grid = undirected_grid(n)
        results[f"H_{n}_corners"] = exact_mu(grid, chi_corners(grid))
    grid3 = undirected_grid(3)
    for seed in range(3):
        placement = random_placement(grid3, 2, 2, rng=seed)
        results[f"H_3_random_{seed}"] = exact_mu(grid3, placement)
    return results


def test_theorem_undirected_grids(benchmark):
    results = run_once(benchmark, _run_undirected_grid_suite)

    for key, value in results.items():
        assert 1 <= value <= 2, f"{key}: Theorem 5.4 bounds violated (mu={value})"

    benchmark.extra_info["experiment"] = "Theorem 5.4 (undirected grids, 2d monitors)"
    benchmark.extra_info["measured"] = results
