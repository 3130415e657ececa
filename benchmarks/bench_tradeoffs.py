"""Section 7.1.1 cost-benefit trade-offs — κ(G, T) and β(t) sweeps.

The benchmark runs Agrid on EuNetworks, evaluates the static trade-off over a
range of horizons and link costs, and the dynamic per-step benefit, asserting
the qualitative claims: κ grows with the horizon length (the installation cost
amortises) and the intervention becomes worthwhile once the horizon is long
enough.
"""

from __future__ import annotations

from conftest import exact_mu, run_once

from repro.agrid.algorithm import agrid
from repro.agrid.tradeoffs import (
    dynamic_benefit_series,
    identifiability_scaled_test_cost,
    static_tradeoff,
    uniform_edge_cost,
)
from repro.topology.zoo import eunetworks


def _run_tradeoff_sweep() -> dict:
    graph = eunetworks()
    boost = agrid(graph, 3, rng=2018)
    mu_before = exact_mu(graph, boost.placement_original)
    mu_after = exact_mu(boost.boosted, boost.placement_boosted)

    kappas = {}
    for horizon in (4, 26, 52, 104, 520):
        tradeoff = static_tradeoff(
            added_edges=boost.added_edges,
            times=range(horizon),
            baseline_test_cost=identifiability_scaled_test_cost(100.0, mu_before),
            boosted_test_cost=identifiability_scaled_test_cost(100.0, mu_after),
            edge_cost=uniform_edge_cost(250.0),
        )
        kappas[horizon] = tradeoff.kappa

    benefits = dynamic_benefit_series(
        edge_batches=[boost.added_edges] * 5,
        benefits=[100.0 * (mu_after - mu_before)] * 5,
        edge_cost=uniform_edge_cost(10.0),
    )
    return {
        "mu_before": mu_before,
        "mu_after": mu_after,
        "kappa_by_horizon": kappas,
        "dynamic_benefits": list(benefits),
        "n_added_edges": boost.n_added_edges,
    }


def test_tradeoffs(benchmark):
    results = run_once(benchmark, _run_tradeoff_sweep)

    assert results["mu_after"] > results["mu_before"]
    kappas = results["kappa_by_horizon"]
    horizons = sorted(kappas)
    # kappa is non-decreasing in the horizon: installation cost amortises.
    assert all(kappas[a] <= kappas[b] for a, b in zip(horizons, horizons[1:]))
    # A long enough horizon makes the intervention worthwhile.
    assert kappas[520] > 1.0

    benchmark.extra_info["experiment"] = "Section 7.1.1 cost-benefit trade-offs"
    benchmark.extra_info["measured"] = {
        "kappa_by_horizon": {str(k): round(v, 3) for k, v in kappas.items()},
        "mu_before": results["mu_before"],
        "mu_after": results["mu_after"],
    }
