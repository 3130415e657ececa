"""The end-to-end benchmark's hooks into the library still resolve.

``perfbench/spans.py`` wraps library functions and methods by name, and
every workload reads library counters by name.  A renamed or deleted hook
breaks only the traced benchmark run, which nothing else in this suite
starts, so these tests resolve each one here.
"""

from __future__ import annotations

import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, PERFBENCH)

from spans import TARGETS, Tracer, _count_columns, instrument  # noqa: E402
from workloads import WORKLOADS, ServeLocalize  # noqa: E402

import repro.experiments.runner  # noqa: E402,F401  (loaded before patching)
from repro.api.scenario import Scenario  # noqa: E402
from repro.api.spec import ScenarioSpec  # noqa: E402
from repro.engine.compress import compress_universe  # noqa: E402
from repro.service.app import BackgroundServer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    DECLARED_METRICS = {m["name"] for m in json.load(_handle)["per_layer"]}


def _binding(module_name, path):
    """(namespace, name) a target is patched in: its class or its module."""
    module = importlib.import_module(module_name)
    if "." in path:
        class_name, attr = path.split(".")
        return getattr(module, class_name), attr
    return module, path


def test_every_target_resolves_and_restore_puts_back_the_originals():
    bindings = [_binding(module_name, path) for module_name, path, _ in TARGETS]
    # Every namespace instrument() may patch: the targets' classes and
    # every library module (module-level targets are rebound wherever a
    # module imported them by name).
    spaces = [space for space, _name in bindings] + [
        module
        for name, module in sys.modules.items()
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    before = [(space, dict(vars(space))) for space in spaces]
    originals = [vars(space)[name] for space, name in bindings]
    restore = instrument(Tracer(), TARGETS)
    try:
        for (space, name), original in zip(bindings, originals):
            assert vars(space)[name] is not original, name
    finally:
        restore()
    for space, attributes in before:
        for key, value in attributes.items():
            assert vars(space).get(key) is value, (space, key)


def test_result_hooks_count_a_traced_scenario():
    tracer = Tracer()
    restore = instrument(tracer, TARGETS)
    try:
        tracer.begin_op("hooks")
        Scenario(
            ScenarioSpec.from_dict(
                {
                    "topology": {"name": "directed_grid", "params": {"n": 4}},
                    "placement": {"strategy": "chi_g"},
                    "engine": {"cache": False},
                    "failures": {"model": "uniform", "size": 2, "n_trials": 3},
                    "analyses": [
                        {"analysis": "localization",
                         "params": {"failure_size": 2, "n_trials": 3}},
                    ],
                }
            )
        ).run_all()
        tracer.end_op()
    finally:
        restore()
    for counter in (
        "routing.paths",
        "engine.columns_raw",
        "engine.columns_kept",
        "tomography.trials",
        "tomography.candidates",
    ):
        assert tracer.counts[counter] > 0, counter


def test_compression_plan_carries_the_column_counts():
    # Paths 0 and 1 have the same touch set {a, b}: three columns, two kept.
    result = compress_universe(["a", "b"], {"a": 0b111, "b": 0b011}, 3)
    tracer = Tracer()
    tracer.begin_op("compress")
    _count_columns(tracer, result)
    tracer.end_op()
    assert tracer.counts["engine.columns_raw"] == result[0].n_original == 3
    assert tracer.counts["engine.columns_kept"] == result[0].n_compressed == 2


def test_every_workload_counter_source_reads_declared_metrics():
    for name, cls in WORKLOADS.items():
        workload = cls(3, 2)
        if isinstance(workload, ServeLocalize):
            workload.server = BackgroundServer(workers=1).start()
        try:
            sources = workload.counter_sources()
            assert sources, name
            for source in sources:
                counters = source()
                assert counters, name
                assert set(counters) <= DECLARED_METRICS, (name, counters)
                assert all(
                    isinstance(value, (int, float)) and not isinstance(value, bool)
                    for value in counters.values()
                ), (name, counters)
        finally:
            workload.close()
