"""PR 7 perf trajectory: incremental scenario evolution under link churn.

One cell on the Table 3 topology (Claranet under the d-4 Agrid boost, MDMP
d-4 monitors, CSP — ~150k measurement paths): a single link flaps
``N_STEPS`` times (remove London–Paris, re-add it, repeat), and the whole µ
trajectory is computed two ways:

* **evolved chain** — ``Scenario.evolve(delta)`` per step with the engine
  cache on.  The first few transitions pay a re-enumeration of the
  post-delta inputs (read by the step's µ) and a fresh engine; once both
  flap states have been seen, the pathset cache (keyed on each state's
  graph adjacency, placement, mechanism and limits, like a fresh
  enumeration) cycles between two interned path sets and a step costs only
  the µ search.
* **rebuild chain** — full recomputation: every post-delta spec (captured
  as a JSON dict in an untimed pass) is built from scratch with the engine
  cache off, re-enumerating and re-interning the whole universe each step.

Every step asserts bit-parity between the two chains — µ, witness,
``searched_up_to`` and the path count — and the replay must come out at
least ``BENCH_EVOLVE_MIN_SPEEDUP`` (default 3) times faster end to end.
The speedup is algorithmic (the evolve cache), not parallel, so it is
asserted unconditionally, including on single-core runners.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from typing import Any, Dict, List

from conftest import run_once

from repro import (
    DeltaSpec,
    EngineConfig,
    PlacementSpec,
    RoutingSpec,
    Scenario,
    ScenarioSpec,
    TopologySpec,
)
from repro.engine.cache import clear_pathset_cache, pathset_cache

#: Flap transitions replayed (even steps take the link down, odd bring it up).
N_STEPS = 24

#: Hard floor on the end-to-end replay speedup of the evolved chain over
#: full recomputation (tune via the environment on pathological runners).
MIN_EVOLVE_SPEEDUP = float(os.environ.get("BENCH_EVOLVE_MIN_SPEEDUP", "3.0"))

#: The flapping link, on the d-4 boosted Claranet graph.
FLAP_LINK = ("London", "Paris")


def _base_spec(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        topology=TopologySpec(
            "agrid",
            {
                "base": {"name": "claranet", "params": {}},
                "dimension": 4,
                "selector": "uniform",
            },
        ),
        placement=PlacementSpec("mdmp", {"d": 4}),
        routing=RoutingSpec(mechanism="CSP"),
        seed=seed,
        label="claranet-d4-flap",
    )


def _step_record(scenario: Scenario, seconds: float) -> Dict[str, Any]:
    report = scenario.mu()
    return {
        "mu": report.value,
        "searched_up_to": report.searched_up_to,
        "witness": report.witness,
        "n_paths": scenario.pathset.n_paths,
        "seconds": seconds,
    }


def _flap_replay(seed: int) -> Dict[str, Any]:
    spec = _base_spec(seed)
    down = DeltaSpec(remove_links=(FLAP_LINK,), label="flap-down")
    up = DeltaSpec(add_links=(FLAP_LINK,), label="flap-up")
    deltas = [down if step % 2 == 0 else up for step in range(N_STEPS)]

    # Untimed pass: capture the post-delta spec of every step as a plain
    # JSON dict — the rebuild chain's input — so the timed rebuild side
    # never touches the incremental machinery.
    probe = Scenario(spec)
    step_specs: List[Dict[str, Any]] = []
    for delta in deltas:
        probe = probe.evolve(delta)
        step_specs.append(probe.spec.to_dict())

    # Evolved chain: engine cache on, process-global cache starting clean.
    clear_pathset_cache()
    current = Scenario(spec)
    start = time.perf_counter()
    current.mu()
    base_seconds = time.perf_counter() - start
    evolved_steps: List[Dict[str, Any]] = []
    for delta in deltas:
        start = time.perf_counter()
        current = current.evolve(delta)
        current.mu()
        evolved_steps.append(_step_record(current, time.perf_counter() - start))
    stats = pathset_cache().stats()
    cache_stats = {
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
    }

    # Rebuild chain: full recomputation of every captured spec, cache off.
    clear_pathset_cache()
    rebuilt_steps: List[Dict[str, Any]] = []
    for step_spec in step_specs:
        rebuilt = ScenarioSpec.from_dict(step_spec)
        rebuilt = replace(rebuilt, engine=EngineConfig(cache=False))
        start = time.perf_counter()
        scenario = Scenario(rebuilt)
        scenario.mu()
        rebuilt_steps.append(_step_record(scenario, time.perf_counter() - start))

    evolve_seconds = sum(step["seconds"] for step in evolved_steps)
    rebuild_seconds = sum(step["seconds"] for step in rebuilt_steps)
    return {
        "n_steps": N_STEPS,
        "flap_link": FLAP_LINK,
        "base_seconds": base_seconds,
        "evolved_steps": evolved_steps,
        "rebuilt_steps": rebuilt_steps,
        "evolve_seconds": evolve_seconds,
        "rebuild_seconds": rebuild_seconds,
        "speedup": (
            rebuild_seconds / evolve_seconds if evolve_seconds else float("inf")
        ),
        "cache_stats": cache_stats,
    }


def test_evolve_flap_replay(benchmark, bench_seed):
    measured = run_once(benchmark, _flap_replay, bench_seed)

    # Bit-parity per step: the evolved chain must be indistinguishable from
    # full recomputation on every reported quantity.
    for step, (evolved, rebuilt) in enumerate(
        zip(measured["evolved_steps"], measured["rebuilt_steps"])
    ):
        for field in ("mu", "searched_up_to", "witness", "n_paths"):
            assert evolved[field] == rebuilt[field], (step, field, evolved, rebuilt)

    # The flap alternates between exactly two path-set states, so once both
    # have been interned the replay must run on cache hits alone.
    stats = measured["cache_stats"]
    assert stats["misses"] <= 4, stats
    assert stats["hits"] >= N_STEPS - stats["misses"], stats

    speedup = measured["speedup"]
    assert speedup >= MIN_EVOLVE_SPEEDUP, (
        f"flap replay speedup {speedup:.2f}x over {N_STEPS} steps is below "
        f"the {MIN_EVOLVE_SPEEDUP}x bar (evolve {measured['evolve_seconds']:.2f}s "
        f"vs rebuild {measured['rebuild_seconds']:.2f}s; tune "
        "BENCH_EVOLVE_MIN_SPEEDUP on noisy runners)"
    )

    benchmark.extra_info["experiment"] = (
        "Incremental evolution: 24-step single-link flap replay on boosted "
        "Claranet (d=4, MDMP, CSP) — Scenario.evolve() + cache vs full "
        "recomputation"
    )
    benchmark.extra_info["measured"] = measured
