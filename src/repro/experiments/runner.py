"""Command-line entry point: re-run the paper's experimental section.

Installed as the ``repro-experiments`` console script.  Examples::

    repro-experiments --tables real               # Tables 3-5
    repro-experiments --tables random             # Tables 6-7 (reduced batches)
    repro-experiments --tables truncated          # Tables 8-10
    repro-experiments --tables monitors           # Tables 11-13
    repro-experiments --tables all --seed 7       # everything, custom seed
    repro-experiments --tables random --jobs 4    # fan trials out over 4 workers
    repro-experiments --tables random --trials 10 --format json --output out.json
    repro-experiments --tables real --universe link   # link-failure variant
    repro-experiments --spec examples/specs/claranet.json --jobs 2   # user batch
    repro-experiments --spec specs/ extra.json        # files and directories
    repro-experiments --churn examples/specs/churn/claranet_flaps.json \
        --churn-verify --format json                  # delta-sequence replay

The default ``--format text`` prints one paper-style table per experiment,
suitable for pasting into EXPERIMENTS.md; ``--format json`` emits one
machine-readable document carrying both the rendered text and the structured
result data of every section.  ``--jobs N`` parallelises the Monte-Carlo
batches over N worker processes (0 = all cores) with bit-identical output to
a serial run of the same seed.

``--spec PATH [PATH ...]`` switches the runner to *user-defined scenario
batches*: each path is a JSON :class:`repro.api.spec.ScenarioSpec` document
(or a list, or a ``{"scenarios": [...]}`` wrapper) — or a directory, which
expands to its ``*.json`` files in sorted order — and every scenario runs its
declared analyses through the :class:`repro.api.scenario.Scenario` facade —
one pickled spec per pool trial, engine config and failure universe scoped
inside the spec.  ``--universe`` switches the paper-table groups to the
link-failure variant of every µ; spec batches instead declare their universe
per scenario (``failures.universe``, schema v2).
``--output`` writes are atomic (missing directories created, temp file +
``os.replace``), so parallel or interrupted invocations cannot leave
truncated artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.api.scenario import Scenario
from repro.api.serialize import to_jsonable
from repro.api.spec import (
    DeltaSpec,
    EngineConfig,
    PlacementSpec,
    ScenarioSpec,
    TopologySpec,
    UniverseSpec,
    load_spec_batch,
    parse_churn_document,
)
from repro.engine import (
    cache_stats,
    clear_pathset_cache,
    search_counters,
)
from repro.exceptions import ExperimentError, ReproError, SpecError
from repro.experiments import (
    ablation,
    random_graphs,
    random_monitors,
    real_networks,
    truncated,
)
from repro.experiments.parallel import TrialSpec, run_trials
from repro.resilience.chaos import ChaosConfig
from repro.resilience.checkpoint import CheckpointJournal
from repro.resilience.pool import ExecutionPolicy, TrialFailure
from repro.topology import zoo
from repro.utils.tables import format_table


@dataclass(frozen=True)
class Section:
    """One printable/serialisable experiment artifact (one table)."""

    group: str
    title: str
    body: str
    data: Any

    def render(self) -> str:
        return f"== {self.title} ==\n{self.body}"


#: Mapping of CLI group name -> callable(seed, jobs, trials, universe,
#: engine, policy) -> sections.
_GROUPS: Dict[str, Callable[..., List[Section]]] = {}


def _register(name: str):
    def decorator(func: Callable[..., List[Section]]):
        _GROUPS[name] = func
        return func

    return decorator


@_register("real")
def _run_real(
    seed: int, jobs: int, trials: Optional[int], universe: "str | UniverseSpec",
    engine: EngineConfig, policy: ExecutionPolicy,
) -> List[Section]:
    # Tables 3-5 are single deterministic measurements per network — there is
    # no trial batch to fan out, so ``jobs``/``trials`` are ignored here.
    sections = []
    for table_name, result in real_networks.run_all_real_networks(
        rng=seed, universe=universe, engine=engine
    ).items():
        label = real_networks.REAL_NETWORK_TABLES[table_name]
        sections.append(
            Section(group="real", title=label, body=result.render(),
                    data=to_jsonable(result))
        )
    return sections


@_register("random")
def _run_random(
    seed: int, jobs: int, trials: Optional[int], universe: "str | UniverseSpec",
    engine: EngineConfig, policy: ExecutionPolicy,
) -> List[Section]:
    batch_sizes = (trials,) if trials else (50, 100)
    sections = []
    for title, run_table in (("Table 6", random_graphs.run_table6),
                             ("Table 7", random_graphs.run_table7)):
        table = run_table(
            batch_sizes=batch_sizes, rng=seed, jobs=jobs, universe=universe,
            engine=engine, policy=policy,
        )
        sections.append(
            Section(group="random", title=title, body=table.render(),
                    data=to_jsonable(table))
        )
    return sections


@_register("truncated")
def _run_truncated(
    seed: int, jobs: int, trials: Optional[int], universe: "str | UniverseSpec",
    engine: EngineConfig, policy: ExecutionPolicy,
) -> List[Section]:
    n_samples = trials if trials else truncated.PAPER_N_SAMPLES
    sections = []
    results = truncated.run_all_truncated(
        n_samples=n_samples, rng=seed, jobs=jobs, universe=universe,
        engine=engine, policy=policy,
    )
    for name, result in results.items():
        label = truncated.TRUNCATED_TABLES[name]
        sections.append(
            Section(group="truncated", title=label, body=result.render(),
                    data=to_jsonable(result))
        )
    return sections


@_register("monitors")
def _run_monitors(
    seed: int, jobs: int, trials: Optional[int], universe: "str | UniverseSpec",
    engine: EngineConfig, policy: ExecutionPolicy,
) -> List[Section]:
    n_placements = trials if trials else random_monitors.PAPER_N_PLACEMENTS
    sections = []
    results = random_monitors.run_all_random_monitors(
        n_placements=n_placements, rng=seed, jobs=jobs, universe=universe,
        engine=engine, policy=policy,
    )
    for name, result in results.items():
        label = random_monitors.RANDOM_MONITOR_TABLES[name]
        sections.append(
            Section(group="monitors", title=label, body=result.render(),
                    data=to_jsonable(result))
        )
    return sections


@_register("ablation")
def _run_ablation(
    seed: int, jobs: int, trials: Optional[int], universe: "str | UniverseSpec",
    engine: EngineConfig, policy: ExecutionPolicy,
) -> List[Section]:
    graph = zoo.eunetworks()
    n_runs = trials if trials else 5
    placement = ablation.placement_ablation(
        graph, n_runs=n_runs, rng=seed, jobs=jobs, universe=universe,
        engine=engine, policy=policy,
    )
    selector = ablation.selector_ablation(
        graph, n_runs=n_runs, rng=seed, jobs=jobs, universe=universe,
        engine=engine, policy=policy,
    )
    return [
        Section(
            group="ablation",
            title="Ablation: monitor placement heuristic",
            body=placement.render("Ablation: monitor placement heuristic"),
            data=to_jsonable(placement),
        ),
        Section(
            group="ablation",
            title="Ablation: Agrid edge-selection rule",
            body=selector.render("Ablation: Agrid edge-selection rule"),
            data=to_jsonable(selector),
        ),
    ]


def available_groups() -> Iterable[str]:
    """The experiment groups the CLI can run."""
    return sorted(_GROUPS) + ["all"]


# --------------------------------------------------------------------------
# Declarative --spec batches
# --------------------------------------------------------------------------

def _run_scenario_spec(spec: ScenarioSpec) -> Dict[str, Any]:
    """Worker-side execution of one scenario: run every declared analysis.

    Module-level (so it pickles into pool workers) and fully self-contained:
    the spec carries topology, placement, mechanism, seed *and* engine
    config, so no process-global state needs to be propagated.
    """
    reports = Scenario(spec).run_all()
    return {name: report.to_dict() for name, report in reports.items()}


def _summarise_report(payload: Any) -> str:
    """Compact one-cell summary of an analysis result dict."""
    if not isinstance(payload, dict):
        return str(payload)
    scalars = [
        f"{key}={value}"
        for key, value in payload.items()
        if isinstance(value, (int, float, str, bool)) or value is None
    ]
    return ", ".join(scalars) if scalars else "(nested)"


def run_spec_sections(
    specs: Iterable[ScenarioSpec],
    jobs: int = 1,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    time_budget: Optional[float] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> List[Section]:
    """Run a batch of user-defined scenarios, one section per scenario.

    ``trials`` overrides every spec's failure-campaign trial count; ``seed``
    is applied (offset by the scenario's position, so repeated specs stay
    decorrelated) to specs that do not pin their own seed; ``time_budget``
    overrides every spec's engine ``time_budget`` and nothing else of its
    engine config (how the CLI ``--time-budget`` flag reaches a spec batch —
    an explicit flag wins over the file).  Scenarios are fanned out over
    ``jobs`` worker processes — one pickled
    :class:`~repro.api.spec.ScenarioSpec` per trial — under the execution
    ``policy`` (default: ``ExecutionPolicy()``).
    """
    prepared: List[ScenarioSpec] = []
    for index, spec in enumerate(specs):
        if trials is not None:
            spec = spec.with_trials(trials)
        if spec.seed is None and seed is not None:
            spec = spec.with_seed(seed + index)
        prepared.append(spec.with_time_budget(time_budget))
    trial_specs = [
        TrialSpec(
            _run_scenario_spec,
            (spec,),
            label=f"scenario {spec.display_name()}",
        )
        for spec in prepared
    ]
    results = run_trials(trial_specs, jobs=jobs, policy=policy)
    sections = []
    for spec, analyses in zip(prepared, results):
        if isinstance(analyses, TrialFailure):
            # A quarantined scenario (failure_mode="record"): report it as a
            # section of its own so the batch document stays complete, and
            # let main() turn the presence of failures into a non-zero exit.
            failure = analyses
            body = format_table(
                ("field", "value"),
                [
                    ("kind", failure.kind),
                    ("attempts", failure.attempts),
                    ("error", failure.error),
                ],
                title=f"FAILED: {spec.display_name()}",
            )
            sections.append(
                Section(
                    group="spec",
                    title=f"FAILED: {spec.display_name()}",
                    body=body,
                    data={"spec": spec.to_dict(), "failure": failure.to_dict()},
                )
            )
            continue
        rows = [
            (name, _summarise_report(payload)) for name, payload in analyses.items()
        ]
        body = format_table(
            ("analysis", "result"), rows, title=spec.display_name()
        )
        sections.append(
            Section(
                group="spec",
                title=spec.display_name(),
                body=body,
                data={"spec": spec.to_dict(), "analyses": analyses},
            )
        )
    return sections


def parse_universe_argument(value: str):
    """Resolve the CLI ``--universe`` flag.

    ``"node"`` and ``"link"`` pass through as kind names (the historical
    contract of the table drivers); ``"srlg:<groups.json>"`` loads the named
    JSON file — a ``{"group name": [[u, v], ...], ...}`` mapping — and
    returns a full :class:`~repro.api.spec.UniverseSpec`.  A missing,
    unreadable or malformed groups file raises :class:`SpecError` with the
    offending path, so the CLI can report it cleanly.
    """
    if value in ("node", "link"):
        return value
    if value.startswith("srlg:"):
        path = value[len("srlg:"):]
        if not path:
            raise SpecError(
                "the srlg universe needs a groups file: --universe "
                "srlg:groups.json"
            )
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise SpecError(
                f"cannot read srlg groups file {path!r}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise SpecError(
                f"srlg groups file {path!r} is not valid JSON: {exc}"
            ) from exc
        try:
            return UniverseSpec(kind="srlg", groups=payload)
        except SpecError as exc:
            raise SpecError(f"srlg groups file {path!r}: {exc}") from exc
    raise SpecError(
        f"unknown universe {value!r}: expected 'node', 'link' or "
        f"'srlg:<groups.json>'"
    )


# --------------------------------------------------------------------------
# --churn delta-sequence replay
# --------------------------------------------------------------------------

def load_churn_file(path: str):
    """Parse a ``--churn`` document: ``{"base": <ScenarioSpec>, "deltas":
    [<DeltaSpec>, ...]}`` (:func:`~repro.api.spec.parse_churn_document`).
    Returns ``(base_spec, deltas)``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise SpecError(f"cannot read churn file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"churn file {path!r} is not valid JSON: {exc}") from exc
    return parse_churn_document(payload, what="churn file")


def churn_step_entry(
    step: int, label: str, scenario: Scenario
) -> Dict[str, Any]:
    """One churn step's entry: the shape ``--churn`` writes and
    ``/v1/churn`` streams (``verified`` stays ``None`` unless the runner
    checks the step against a rebuild)."""
    mu = scenario.mu()
    return {
        "step": step,
        "label": label,
        "mu": mu.value,
        "searched_up_to": mu.searched_up_to,
        "n_paths": mu.n_paths,
        "spec": scenario.spec.to_dict(),
        "verified": None,
    }


@dataclass(frozen=True)
class _ChurnState:
    """A built step of the evolve chain as a trial argument.  The trial
    measures it as built, so each step is built once and step 0 is the
    graph step 1 edits; the journal keys it by that graph and placement
    (``to_dict``), since an unseeded random base draws anew on every run."""

    scenario: Scenario

    def to_dict(self) -> Dict[str, Any]:
        built = self.scenario
        return replace(
            built.spec,
            topology=TopologySpec.from_graph(built.graph),
            placement=PlacementSpec.from_placement(built.placement),
        ).to_dict()


def _churn_step(
    step: int, label: str, state: _ChurnState, verify: bool
) -> Dict[str, Any]:
    """One ``--churn`` trial: the entry of a step's scenario, checked
    against a cache-off rebuild of its spec when ``verify``.

    Module-level so it fingerprints as a trial call.  A library refusal (no
    measurement path left, an unresolvable universe) is re-raised as a
    :class:`~repro.exceptions.SpecError` naming the step.
    """
    scenario = state.scenario

    def report(view: Scenario):
        return view.pathset.paths, view.mu().to_dict(), view.measurement().to_dict()

    try:
        entry = churn_step_entry(step, label, scenario)
        if verify:
            # With the cache on, the rebuild would hit the evolved entry
            # (one key for both) and compare the path set with itself.
            fresh = ScenarioSpec.from_dict(scenario.spec.to_dict())
            rebuilt = Scenario(fresh.with_engine(replace(fresh.engine, cache=False)))
            entry["verified"] = report(scenario) == report(rebuilt)
    except ReproError as exc:
        raise SpecError(f"churn step {step} ({label!r}): {exc}") from exc
    if entry["verified"] is False:
        raise ExperimentError(
            f"churn step {step} ({label!r}): evolved scenario "
            f"diverges from a from-scratch rebuild of its spec"
        )
    return entry


def run_churn_sections(
    base_spec: ScenarioSpec,
    deltas: Iterable[DeltaSpec],
    verify: bool = False,
    *,
    checkpoint: Optional[CheckpointJournal] = None,
) -> List[Section]:
    """Replay a delta sequence over a base scenario, reporting µ over time.

    The evolve chain is built first, up to the first delta the library
    refuses (evolving is a spec edit, so this enumerates nothing).  Its
    scenarios then run as one serial ``run_trials`` batch of
    :func:`_churn_step` trials, each keyed by its built graph and placement,
    under the journal ``checkpoint`` (default: none), so a fully journaled replay
    enumerates nothing.  Each step computes µ through the pathset cache, so
    revisited states hit it.  A refused delta, or a step the library
    refuses (no measurement path left), raises a
    :class:`~repro.exceptions.SpecError` naming the step, chained to the
    library's error, once the steps before it have run.  With
    ``verify=True`` every step is also rebuilt from scratch, cache off, from
    its serialised spec; the path families (order included) and
    µ/measurement reports must be bit-identical, else an
    :class:`~repro.exceptions.ExperimentError` names the first diverging
    step.
    """
    clear_pathset_cache()
    trials: List[TrialSpec] = []
    refused: Optional[ReproError] = None
    for step, delta in enumerate([None, *deltas]):
        label = "base" if delta is None else (delta.label or f"delta {step}")
        try:
            scenario = Scenario(base_spec) if delta is None else scenario.evolve(delta)
            scenario.placement  # built here: a build error refuses the step
        except ReproError as exc:
            refused = exc
            break
        trials.append(TrialSpec(
            _churn_step, (step, label, _ChurnState(scenario), verify),
            label=f"churn step {step}: {label}",
        ))
    steps = run_trials(trials, jobs=1, policy=ExecutionPolicy(checkpoint=checkpoint))
    if refused is not None:
        raise SpecError(f"churn step {step} ({label!r}): {refused}") from refused
    rows = [
        (entry["step"], entry["label"], entry["mu"], entry["n_paths"],
         "ok" if entry["verified"] else "-")
        for entry in steps
    ]
    title = f"Churn replay: {base_spec.display_name()} ({len(steps) - 1} deltas)"
    body = format_table(
        ("step", "delta", "mu", "paths", "verified"), rows, title=title
    )
    data = {
        "base": base_spec.to_dict(),
        "n_deltas": len(steps) - 1,
        "verified": all(entry["verified"] for entry in steps) if verify else None,
        "steps": steps,
    }
    return [Section(group="churn", title=title, body=body, data=data)]


def run_churn_file(
    path: str,
    verify: bool = False,
    time_budget: Optional[float] = None,
    *,
    checkpoint: Optional[CheckpointJournal] = None,
) -> List[Section]:
    """Load a ``--churn`` document and replay its delta sequence
    (``time_budget``, when given, overrides the base scenario's;
    ``checkpoint`` is handed to :func:`run_churn_sections`)."""
    base_spec, deltas = load_churn_file(path)
    return run_churn_sections(
        base_spec.with_time_budget(time_budget),
        deltas,
        verify=verify,
        checkpoint=checkpoint,
    )


def expand_spec_paths(paths: Iterable[str]) -> List[str]:
    """Expand a ``--spec`` path list into concrete spec files.

    Files pass through in the order given; a directory expands to its
    ``*.json`` entries in sorted order, so batches are deterministic however
    the shell globs.  An empty directory is an error (a silently empty batch
    would read as success).
    """
    expanded: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            # listdir, not glob: a directory name containing glob
            # metacharacters ("specs [v2]/") must not change the match.
            matches = sorted(
                os.path.join(path, name)
                for name in os.listdir(path)
                if name.endswith(".json")
            )
            if not matches:
                raise SpecError(f"spec directory {path!r} contains no *.json files")
            expanded.extend(matches)
        else:
            expanded.append(path)
    return expanded


def _load_spec_file(path: str) -> List[ScenarioSpec]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = handle.read()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path!r}: {exc}") from exc
    try:
        return list(load_spec_batch(document))
    except SpecError as exc:
        raise SpecError(f"spec file {path!r}: {exc}") from exc


def run_spec_files(
    paths: Iterable[str],
    jobs: int = 1,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    time_budget: Optional[float] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> List[Section]:
    """Load one or more ``--spec`` documents (files or directories) and run
    the concatenated scenario batch.

    Scenarios keep their file order; the ``--seed`` offset for specs without
    a pinned seed runs over the *whole* batch, so repeated scenarios across
    files stay decorrelated exactly as they would inside one file.
    """
    specs: List[ScenarioSpec] = []
    for path in expand_spec_paths(paths):
        specs.extend(_load_spec_file(path))
    clear_pathset_cache()
    return run_spec_sections(
        specs,
        jobs=jobs,
        trials=trials,
        seed=seed,
        time_budget=time_budget,
        policy=policy,
    )


def write_output_atomic(path: str, payload: str) -> None:
    """Write ``payload`` to ``path`` atomically.

    Missing parent directories are created, the payload lands in a temporary
    file in the destination directory, and :func:`os.replace` publishes it —
    so concurrent or interrupted runner invocations (parallel CI jobs
    writing artifacts) can never leave a truncated document behind.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=".repro-output-", suffix=".tmp"
    )
    try:
        # mkstemp creates 0600 files; restore the umask-derived mode a plain
        # open(path, "w") would have produced so downstream readers (other
        # users, web servers, CI caches) keep working.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Re-run the experimental section of the Boolean network "
        "tomography identifiability paper (Tables 3-13 plus ablations).",
    )
    parser.add_argument(
        "--tables",
        default="all",
        choices=list(available_groups()),
        help="which experiment group to run (default: all)",
    )
    parser.add_argument(
        "--spec",
        default=None,
        nargs="+",
        metavar="PATH",
        help="run a user-defined scenario batch instead of the paper tables: "
        "each PATH is a JSON ScenarioSpec, a list of them, or a "
        '{"scenarios": [...]} document (see repro.api) — or a directory, '
        "which expands to its *.json files in sorted order; --jobs fans the "
        "scenarios out, --trials overrides their campaign trial counts, "
        "--seed fills in specs without a pinned seed",
    )
    parser.add_argument(
        "--churn",
        default=None,
        metavar="FILE",
        help="replay a dynamic-topology delta sequence instead of the paper "
        'tables: FILE is a JSON {"base": <ScenarioSpec>, "deltas": '
        '[<DeltaSpec>, ...]} document; each step evolves the previous '
        "scenario's spec (Scenario.evolve) and the output reports µ over "
        "time.  Mutually exclusive with --spec",
    )
    parser.add_argument(
        "--churn-verify",
        action="store_true",
        help="with --churn: rebuild every evolved step from scratch from its "
        "serialised spec and fail unless the µ and measurement reports are "
        "bit-identical (the evolve-vs-rebuild parity check)",
    )
    parser.add_argument(
        "--seed", type=int, default=2018, help="master random seed (default: 2018)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the Monte-Carlo batches "
        "(default: 1 = serial; 0 = all cores); output is bit-identical "
        "to a serial run of the same seed",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=None,
        metavar="N",
        help="override the per-cell trial/sample/placement/run count with a "
        "reduced batch (smoke tests, CI); default: the paper-scaled counts",
    )
    parser.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="output format: paper-style text tables or one JSON document "
        "(default: text)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the rendered output to FILE instead of stdout",
    )
    parser.add_argument(
        "--universe",
        default="node",
        metavar="KIND",
        help="failure universe for the paper-table groups: 'node' (the "
        "paper's measure, the default), 'link' (every µ/µ_λ computed over "
        "link failures; same topologies, placements and seeds) or "
        "'srlg:<groups.json>' (shared-risk link groups loaded from a JSON "
        '{"group": [[u, v], ...]} file — only meaningful for tables whose '
        "networks contain the grouped links).  Spec batches ignore this "
        "flag — their universe is declared per scenario in failures.universe "
        "(schema v2)",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print the pathset-cache hit/miss/eviction counters (worker "
        "deltas merged in) to stderr after the run",
    )
    parser.add_argument(
        "--search-stats",
        action="store_true",
        help="print the subset-search counters (searches run, subsets "
        "enumerated, dominance prunes, blocks evaluated; worker deltas "
        "merged in) to stderr after the run",
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for every exact-µ search: on expiry "
        "the search truncates at the last fully completed level "
        "(exhausted_search=false, stats.budget_exhausted=true — a certified "
        "lower bound), carried to pool workers inside each trial's engine "
        "config; a spec's other engine settings stand",
    )
    parser.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-trial deadline for the --jobs worker pool: a trial running "
        "longer is killed, retried up to --max-retries times and then "
        "quarantined (parallel runs only — the serial path has no process "
        "boundary to enforce it)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retry a failed/crashed/timed-out trial up to N times "
        "(exponential backoff; the retried trial reuses its original seed, "
        "so a recovered run stays bit-identical to a clean one; default: 0)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="journal every completed trial to DIR/journal.jsonl (append-only "
        "JSONL, durable per record); rerunning the same invocation skips "
        "journaled trials and restores their values, so interrupted batches "
        "resume where they stopped.  Applies to --spec batches, the "
        "Monte-Carlo table groups and --churn replays",
    )
    return parser


def run(
    group: str,
    seed: int,
    jobs: int = 1,
    trials: Optional[int] = None,
    universe: "str | UniverseSpec" = "node",
    engine: Optional[EngineConfig] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> List[Section]:
    """Run one group (or 'all') and return the result sections.

    The pathset cache is cleared once per invocation — groups inside an
    ``'all'`` run deliberately share entries — so every invocation is
    reproducible and its reported statistics describe this run only.
    ``universe`` switches every µ of the paper tables to the link-failure
    variant (``"node"`` is bit-identical to the historical output).
    ``engine`` (default: ``EngineConfig()``) is stamped into every trial's
    spec and ``policy`` (default: ``ExecutionPolicy()``) governs the trial
    pools.
    """
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    engine = engine or EngineConfig()
    policy = policy or ExecutionPolicy()
    clear_pathset_cache()
    names = sorted(_GROUPS) if group == "all" else [group]
    sections: List[Section] = []
    for name in names:
        sections.extend(
            _GROUPS[name](seed, jobs, trials, universe, engine, policy)
        )
    return sections


def render_text(sections: Iterable[Section]) -> str:
    """The classic plain-text rendering: one table per section."""
    return "\n\n".join(section.render() for section in sections) + "\n"


def render_json(
    sections: Iterable[Section], seed: int, jobs: int = 1
) -> str:
    """One JSON document carrying every section's text and structured data."""
    document = {
        "seed": seed,
        "jobs": jobs,
        "sections": [
            {
                "group": section.group,
                "title": section.title,
                "text": section.body,
                "data": section.data,
            }
            for section in sections
        ],
    }
    return json.dumps(document, indent=2, sort_keys=False) + "\n"


def _validate_arguments(parser: argparse.ArgumentParser, args) -> None:
    """Reject out-of-range execution knobs with a clean argparse error
    (exit 2 + usage) instead of a pool traceback deep inside a batch."""
    if args.jobs < 0:
        parser.error(f"--jobs must be >= 0 (0 = all cores), got {args.jobs}")
    if args.trials is not None and args.trials < 1:
        parser.error(f"--trials must be >= 1, got {args.trials}")
    if args.time_budget is not None and args.time_budget <= 0:
        parser.error(f"--time-budget must be > 0 seconds, got {args.time_budget}")
    if args.trial_timeout is not None and args.trial_timeout <= 0:
        parser.error(
            f"--trial-timeout must be > 0 seconds, got {args.trial_timeout}"
        )
    if args.max_retries is not None and args.max_retries < 0:
        parser.error(f"--max-retries must be >= 0, got {args.max_retries}")


def main(argv: List[str] | None = None) -> int:
    """Console-script entry point.

    The ``--time-budget`` flag overrides only the ``time_budget`` of each
    spec's (or churn base's) :class:`~repro.api.spec.EngineConfig`, and is
    the whole engine config of the paper tables; the resilience flags build
    one :class:`~repro.resilience.pool.ExecutionPolicy`, ``--checkpoint``
    journal included (the ``--churn`` replay takes the journal as its
    ``checkpoint=`` keyword).  All are passed down explicitly (the config
    inside every trial's spec), so invoking ``main`` as a library function
    changes no process-global state; the journal is closed when ``main``
    returns.  ``Ctrl-C`` cancels the outstanding pool futures, leaves every
    already-journaled trial durable on disk, and exits with the conventional
    status 130.  A malformed ``--spec`` or ``--churn`` document, a churn
    step the library refuses, an ``--output`` path that is a directory or
    whose directory cannot be made, and a ``--checkpoint`` directory that
    cannot be opened as a journal each print one ``error:`` line (no
    traceback) and exit with status 2; the last two are refused before
    anything runs.
    """
    parser = build_parser()

    def fail(message: object) -> int:
        print(f"{parser.prog}: error: {message}", file=sys.stderr)
        return 2

    args = parser.parse_args(argv)
    if args.churn and args.spec:
        parser.error("--churn and --spec are mutually exclusive")
    if args.churn_verify and not args.churn:
        parser.error("--churn-verify requires --churn")
    _validate_arguments(parser, args)
    try:
        universe = parse_universe_argument(args.universe)
    except SpecError as exc:
        parser.error(str(exc))
    try:
        chaos = ChaosConfig.from_string(os.environ.get("REPRO_CHAOS"))
    except Exception as exc:  # noqa: BLE001 - env parse errors exit cleanly
        parser.error(f"invalid REPRO_CHAOS value: {exc}")
    if args.output:
        try:
            os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
        except OSError as exc:
            return fail(f"cannot write --output {args.output!r}: {exc}")
        if os.path.isdir(args.output):
            return fail(f"cannot write --output {args.output!r}: it is a directory")
    try:
        journal = CheckpointJournal(args.checkpoint) if args.checkpoint else None
    except (OSError, ExperimentError) as exc:
        return fail(f"cannot open --checkpoint {args.checkpoint!r}: {exc}")
    policy = ExecutionPolicy(
        trial_timeout=args.trial_timeout,
        max_retries=args.max_retries or 0,
        failure_mode="record" if args.spec else "raise",
        chaos=chaos,
        checkpoint=journal,
    )
    failed = False
    try:
        if args.churn:
            sections = run_churn_file(
                args.churn,
                verify=args.churn_verify,
                time_budget=args.time_budget,
                checkpoint=journal,
            )
        elif args.spec:
            sections = run_spec_files(
                args.spec,
                jobs=args.jobs,
                trials=args.trials,
                seed=args.seed,
                time_budget=args.time_budget,
                policy=policy,
            )
            failed = any(
                isinstance(section.data, dict) and "failure" in section.data
                for section in sections
            )
        else:
            sections = run(
                args.tables, args.seed, jobs=args.jobs, trials=args.trials,
                universe=universe,
                engine=EngineConfig(time_budget=args.time_budget),
                policy=policy,
            )
        if args.format == "json":
            payload = render_json(sections, args.seed, args.jobs)
        else:
            payload = render_text(sections)
        if args.output:
            write_output_atomic(args.output, payload)
        else:
            sys.stdout.write(payload)
        if args.cache_stats:
            print(cache_stats(), file=sys.stderr)
        if args.search_stats:
            print(search_counters(), file=sys.stderr)
    except SpecError as exc:
        return fail(exc)
    except KeyboardInterrupt:
        # The pool shut down (futures cancelled) on the way out; every
        # journaled trial is already durable, so a --checkpoint rerun
        # resumes right here.
        sys.stdout.flush()
        if journal is not None:
            print(
                f"interrupted: checkpoint has {len(journal)} completed "
                f"trial(s) in {journal.path}; rerun to resume",
                file=sys.stderr,
            )
        else:
            print("interrupted", file=sys.stderr)
        return 130
    finally:
        if journal is not None:
            journal.close()
    if journal is not None:
        print(
            f"checkpoint: reused {journal.reused}, recorded "
            f"{journal.recorded} ({len(journal)} journaled in {journal.path})",
            file=sys.stderr,
        )
    if failed:
        print(
            "one or more scenarios failed after retries (see FAILED "
            "sections)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
