"""Degenerate topologies through every surface: well-formed or typed, never a
traceback.

Five small inputs sit at the edges of the paper's model: a node that is both
an input and an output, an isolated node, monitors with no path between
them, a graph that is monitors only, and a directed dead end.  Each runs
under CSP, CAP⁻ and CAP through all eight ``Scenario`` analyses.  Every
outcome is pinned: a report (always µ = 0 here — each case has an uncovered
node or two nodes on the same paths) or one specific
:class:`~repro.exceptions.ReproError` subclass.  The runner's ``--spec``
route turns the failures into a non-zero exit with a typed message, and
``/v1/analyze`` answers them with 400.
"""

from __future__ import annotations

import json
from typing import Optional, Type

import pytest

from repro.api import (
    AnalysisSpec,
    PlacementSpec,
    RoutingSpec,
    Scenario,
    ScenarioSpec,
    TopologySpec,
)
from repro.exceptions import ReproError, RoutingError, TopologyError
from repro.experiments import runner
from repro.service.app import BackgroundServer

from test_service import request

#: name -> (literal graph params, explicit placement params)
DEGENERATE = {
    "input_is_output": (
        {"directed": False, "nodes": ["a", "b"], "edges": [["a", "b"]]},
        {"inputs": ["a"], "outputs": ["a"]},
    ),
    "isolated_node": (
        {
            "directed": False,
            "nodes": ["a", "b", "c", "z"],
            "edges": [["a", "b"], ["b", "c"]],
        },
        {"inputs": ["a"], "outputs": ["c"]},
    ),
    "no_monitor_path": (
        {
            "directed": False,
            "nodes": ["a", "b", "c", "d"],
            "edges": [["a", "b"], ["c", "d"]],
        },
        {"inputs": ["a"], "outputs": ["d"]},
    ),
    "monitors_only": (
        {"directed": False, "nodes": ["a", "b"], "edges": [["a", "b"]]},
        {"inputs": ["a"], "outputs": ["b"]},
    ),
    "directed_dead_end": (
        {
            "directed": True,
            "nodes": ["a", "b", "c", "d"],
            "edges": [["a", "b"], ["b", "c"], ["b", "d"]],
        },
        {"inputs": ["a"], "outputs": ["c"]},
    ),
}
MECHANISMS = ("CSP", "CAP-", "CAP")
ANALYSES = Scenario.available_analyses()

#: Agrid refuses graphs too small to reach degree d and directed graphs.
AGRID_REFUSES = {"input_is_output", "monitors_only", "directed_dead_end"}
#: (topology, mechanism) pairs with no measurement path at all.
NO_PATHS = {("input_is_output", "CSP"), ("input_is_output", "CAP-")} | {
    ("no_monitor_path", mechanism) for mechanism in MECHANISMS
}


def _spec(name: str, mechanism: str, analyses=ANALYSES) -> ScenarioSpec:
    graph, placement = DEGENERATE[name]
    return ScenarioSpec(
        topology=TopologySpec("graph", graph),
        placement=PlacementSpec("explicit", placement),
        routing=RoutingSpec(mechanism=mechanism),
        seed=1,
        label=f"{name} {mechanism}",
        analyses=tuple(AnalysisSpec(analysis) for analysis in analyses),
    )


def _expected_error(
    name: str, mechanism: str, analysis: str
) -> Optional[Type[ReproError]]:
    if analysis.startswith("agrid_") and name in AGRID_REFUSES:
        return TopologyError
    if not analysis.startswith("agrid_") and (name, mechanism) in NO_PATHS:
        return RoutingError
    return None


CASES = [(name, mechanism) for name in DEGENERATE for mechanism in MECHANISMS]


@pytest.mark.parametrize("name,mechanism", CASES)
def test_every_analysis_is_well_formed_or_typed(name, mechanism):
    for analysis in ANALYSES:
        scenario = Scenario(_spec(name, mechanism, (analysis,)))
        expected = _expected_error(name, mechanism, analysis)
        if expected is not None:
            with pytest.raises(expected):
                scenario.run_analysis(analysis)
            continue
        report = scenario.run_analysis(analysis).to_dict()
        json.dumps(report)  # JSON-normal, as the runner and service emit it
        if analysis in ("mu", "truncated", "measurement"):
            key = "value" if "value" in report else "mu"
            assert report[key] == 0, (analysis, report)


def test_runner_spec_batch_exits_nonzero_with_typed_messages(tmp_path, capsys):
    specs = [_spec(name, mechanism) for name, mechanism in CASES]
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps([spec.to_dict() for spec in specs]))
    out = tmp_path / "out.json"
    code = runner.main(
        ["--spec", str(path), "--format", "json", "--output", str(out)]
    )
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    sections = json.loads(out.read_text())["sections"]
    assert len(sections) == len(CASES)
    for (name, mechanism), section in zip(CASES, sections):
        failing = any(
            _expected_error(name, mechanism, analysis) for analysis in ANALYSES
        )
        data = section["data"]
        assert ("failure" in data) == failing, section["title"]
        if failing:
            assert data["failure"]["kind"] == "error"
            assert "Traceback" not in data["failure"]["error"]
        else:
            assert set(data["analyses"]) == set(ANALYSES)


def test_analyze_endpoint_answers_400_never_500():
    with BackgroundServer(cache_size=4, workers=1, max_inflight=4) as server:
        for name, mechanism in CASES:
            status, body = request(
                server, "POST", "/v1/analyze", _spec(name, mechanism).to_dict()
            )
            failing = any(
                _expected_error(name, mechanism, analysis) for analysis in ANALYSES
            )
            assert status == (400 if failing else 200), (name, mechanism, body)
            if failing:
                assert body["error"]
