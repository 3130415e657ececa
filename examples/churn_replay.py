#!/usr/bin/env python3
"""Dynamic topologies: replaying link churn with Scenario.evolve().

A scenario is a frozen snapshot; real networks churn.  This example replays
the repository's sample churn sequence (``examples/specs/churn/
claranet_flaps.json``: a link flap, a new peering, monitors joining) on the
Claranet topology three ways and shows they agree bit-for-bit:

1. **evolve** — ``Scenario.evolve(delta)`` per step, patching the path set
   and re-interning only the dirty signature rows;
2. **rebuild** — building each step's serialised post-delta spec from
   scratch with the pathset cache off (with it on, the rebuild would be
   handed the evolved entry, which shares its key), the ground truth evolve
   must match path for path;
3. **inverse** — undoing the last delta with ``DeltaSpec.inverse()`` and
   checking the trajectory returns to where it was.

Run:  python examples/churn_replay.py
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from repro import DeltaSpec, Scenario, ScenarioSpec
from repro.engine import clear_pathset_cache

CHURN_FILE = Path(__file__).parent / "specs" / "churn" / "claranet_flaps.json"


def main() -> None:
    payload = json.loads(CHURN_FILE.read_text(encoding="utf-8"))
    base = ScenarioSpec.from_dict(payload["base"])
    deltas = [DeltaSpec.from_dict(entry) for entry in payload["deltas"]]

    print(f"base: {base.label}  ({CHURN_FILE.name}, {len(deltas)} deltas)")
    print(f"{'step':>4}  {'delta':<16} {'mu':>3} {'paths':>6}  parity")

    current = Scenario(base)
    trajectory = [current]
    for step, delta in enumerate(deltas):
        current = current.evolve(delta)
        trajectory.append(current)

        # Ground truth: the evolved scenario's spec is a literal, serialisable
        # ScenarioSpec — build it from scratch, re-enumerating with the cache
        # off, and compare the path family (order included) and every report.
        spec = ScenarioSpec.from_dict(current.spec.to_dict())
        rebuilt = Scenario(spec.with_engine(replace(spec.engine, cache=False)))
        evolved_mu = current.mu()
        agreed = (
            current.pathset.paths == rebuilt.pathset.paths
            and evolved_mu == rebuilt.mu()
            and current.measurement() == rebuilt.measurement()
        )
        print(
            f"{step:>4}  {delta.label:<16} {evolved_mu.value:>3} "
            f"{current.pathset.n_paths:>6}  {'ok' if agreed else 'DIVERGED'}"
        )
        if not agreed:
            raise SystemExit(f"step {step} diverged from a fresh build")

    # Undo the last delta: the inverse must land exactly on the previous step.
    # The undone state has the previous step's cache key, so clear the cache
    # first: the undo then runs the patch instead of returning that entry.
    last = deltas[-1]
    clear_pathset_cache()
    undone = current.evolve(last.inverse())
    previous = trajectory[-2]
    assert undone.pathset is not previous.pathset
    assert undone.mu() == previous.mu(), (undone.mu(), previous.mu())
    assert undone.measurement() == previous.measurement()
    print(f"\ninverse({last.label}) restores step {len(deltas) - 2}: ok")


if __name__ == "__main__":
    main()
