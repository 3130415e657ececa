"""Section 7 design rule — networks with Ω(log N) identifiability from
O(log N) monitors.

The benchmark designs hypergrid networks for a sweep of node budgets, asserts
the guaranteed bounds grow logarithmically while the monitor count stays
2·d = O(log N), and verifies the guarantee exactly on the smallest design.
"""

from __future__ import annotations

import math

from conftest import exact_mu, run_once

from repro.agrid.design import achievable_identifiability, design_network


def _run_design_sweep() -> dict:
    budgets = (9, 27, 64, 81, 243, 729)
    plans = {budget: design_network(budget) for budget in budgets}
    results = {
        budget: {
            "support": plan.support,
            "dimension": plan.dimension,
            "monitors": plan.n_monitors,
            "mu_lower": plan.guaranteed_mu_lower,
            "mu_upper": plan.guaranteed_mu_upper,
        }
        for budget, plan in plans.items()
    }
    # Exact verification on the smallest design (9 nodes, H_{3,2}).
    smallest = plans[9]
    results[9]["mu_measured"] = exact_mu(smallest.graph, smallest.placement)
    return results


def test_design_rule(benchmark):
    results = run_once(benchmark, _run_design_sweep)

    # The guarantee grows with N and tracks log_3 N.
    assert results[729]["mu_lower"] > results[9]["mu_lower"]
    for budget, row in results.items():
        assert row["monitors"] == 2 * row["dimension"]
        assert row["dimension"] <= math.log(budget, 3) + 1
    # Exact check on the smallest design.
    assert results[9]["mu_lower"] <= results[9]["mu_measured"] <= results[9]["mu_upper"]
    # Achievable identifiability is monotone in N.
    assert achievable_identifiability(729) >= achievable_identifiability(27)

    benchmark.extra_info["experiment"] = "Section 7 design rule"
    benchmark.extra_info["measured"] = results
