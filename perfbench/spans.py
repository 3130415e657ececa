"""In-memory span tracing of the library's layers, installed from outside.

The benchmark never edits the library.  :func:`instrument` wraps a layer's
public function or method at run time, in the place its callers resolve the
name: the defining module or class, plus every already-imported ``repro.*``
module that bound the same function object with a ``from ... import``.
Call sites that import lazily inside a function resolve the defining
module's attribute at call time, so they see the wrapper too.

Spans are kept in memory as ``[layer, start, end, parent, op]`` records and
turned into per-layer *self time* — a span's duration minus the union of its
children's intervals — after the traced pass.  A span opened on a thread
with no open span of its own (the service's event-loop and worker threads)
is parented to the active op's root span, so a served request's handler
spans nest under the client's round trip.  Spans and counters outside an
op (set-up, untimed output checks) are dropped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: The layers the benchmark wraps: (module, attribute path, span layer).  A
#: layer of ``None`` marks a container whose self time is unattributed glue.
TARGETS: Tuple[Tuple[str, str, Optional[str]], ...] = (
    ("repro.api.spec", "ScenarioSpec.from_dict", "spec.parse"),
    ("repro.api.spec", "DeltaSpec.from_dict", "spec.parse"),
    ("repro.api.registries", "build_topology", "topology.build"),
    ("repro.agrid.algorithm", "agrid", "agrid.boost"),
    ("repro.api.registries", "build_placement", "monitors.place"),
    ("repro.routing.paths", "enumerate_paths", "routing.enumerate"),
    ("repro.engine.cache", "PathSetCache.get_or_enumerate", "cache"),
    ("repro.engine.cache", "PathSetCache.get_or_evolve", "cache"),
    ("repro.routing.paths", "PathSet.apply_delta", "routing.apply_delta"),
    ("repro.api.spec", "UniverseSpec.resolve", "failures.resolve"),
    ("repro.routing.paths", "PathSet.engine", "engine.build"),
    ("repro.engine.compress", "compress_universe", "engine.compress"),
    ("repro.engine.compress", "CompressionPlan.patch", "engine.patch"),
    ("repro.engine.signatures", "SignatureEngine.from_delta", "engine.patch"),
    ("repro.engine.signatures", "SignatureEngine.identifiability", "search"),
    ("repro.core.bounds", "structural_upper_bound", "bounds"),
    ("repro.tomography.scenario", "TomographySession.measure", "tomography.measure"),
    ("repro.tomography.scenario", "TomographySession.localize", "tomography.localize"),
    ("repro.api.results", "AnalysisReport.to_dict", "api.serialize"),
    ("repro.service.app", "ScenarioServer._json_body", "api.serialize"),
    ("repro.experiments.runner", "run_spec_sections", "runner"),
    ("repro.service.cache", "ScenarioCache.get_or_compile", "service"),
    ("repro.api.scenario", "Scenario.run_all", None),
    ("repro.api.scenario", "Scenario.evolve", None),
)

#: Span layer -> reported per-layer time metric (mean self time per op).
LAYER_METRICS: Dict[Optional[str], str] = {
    "spec.parse": "spec.parse_ms",
    "topology.build": "topology.build_ms",
    "agrid.boost": "agrid.boost_ms",
    "monitors.place": "monitors.place_ms",
    "routing.enumerate": "routing.enumerate_ms",
    "routing.apply_delta": "routing.apply_delta_ms",
    "failures.resolve": "failures.resolve_ms",
    "engine.build": "engine.build_ms",
    "engine.compress": "engine.compress_ms",
    "engine.patch": "engine.patch_ms",
    "cache": "cache.lookup_ms",
    "search": "search.ms",
    "bounds": "bounds.ms",
    "tomography.measure": "tomography.measure_ms",
    "tomography.localize": "tomography.localize_ms",
    "api.serialize": "api.serialize_ms",
    "runner": "runner.overhead_ms",
    "service": "service.overhead_ms",
    None: "unattributed_ms",
}


class Tracer:
    """Collects spans and per-op counters while an op is active."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.op_kinds: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op: Optional[int] = None
        self._op_root: Optional[int] = None
        #: Callables returning cumulative library counters; their deltas
        #: across each op are added to :attr:`counts`.
        self.sources: List[Callable[[], Dict[str, float]]] = []
        self._before: Dict[str, float] = {}

    # -- spans ---------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: Optional[str]) -> Optional[int]:
        """Open a span on this thread; ``None`` when no op is active."""
        op = self._op
        if op is None:
            return None
        stack = self._stack()
        parent = stack[-1] if stack else self._op_root
        with self._lock:  # the service opens spans on its own threads
            index = len(self.spans)
            self.spans.append([layer, time.perf_counter(), None, parent, op])
        stack.append(index)
        return index

    def close(self, index: Optional[int]) -> None:
        if index is None:
            return
        self.spans[index][2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def begin_op(self, kind: str, root_layer: Optional[str] = None) -> None:
        """Start op number ``len(op_kinds)``; its root span covers the op."""
        self._before = self._snapshot()
        self._op = len(self.op_kinds)
        self.op_kinds.append(kind)
        self._op_root = self.open(root_layer)

    def end_op(self) -> None:
        self.close(self._op_root)
        self._op = None
        self._op_root = None
        for name, value in self._snapshot().items():
            self.counts[name] += value - self._before.get(name, 0)

    def _snapshot(self) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for source in self.sources:
            merged.update(source())
        return merged

    def count(self, name: str, amount: float = 1) -> None:
        if self._op is not None:
            with self._lock:
                self.counts[name] += amount


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_start is not None:
        total += current_end - current_start
    return total


def span_self_times(
    spans: Sequence[Sequence[Any]],
) -> List[Tuple[Optional[str], int, float]]:
    """Self time of each closed span: its duration minus the union of its
    children's intervals, each clipped to the parent's interval."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for layer, start, end, parent, op in spans:
        if parent is not None and end is not None:
            children[parent].append((start, end))
    result = []
    for index, (layer, start, end, parent, op) in enumerate(spans):
        if end is None:
            continue
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(index, ())
            if min(e, end) > max(s, start)
        ]
        result.append((layer, op, (end - start) - union_length(clipped)))
    return result


# --------------------------------------------------------------------------
# Run-time instrumentation
# --------------------------------------------------------------------------

def _wrap(tracer: Tracer, func: Callable, layer: Optional[str],
          on_result: Optional[Callable[[Tracer, Any], None]]) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        index = tracer.open(layer)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(index)
        if on_result is not None and index is not None:
            on_result(tracer, result)
        return result

    return wrapper


def _count_paths(tracer: Tracer, pathset: Any) -> None:
    tracer.count("routing.paths", pathset.n_paths)


def _count_columns(tracer: Tracer, result: Any) -> None:
    plan = result[0]
    tracer.count("engine.columns_raw", plan.n_original)
    tracer.count("engine.columns_kept", plan.n_compressed)


def _count_trial(tracer: Tracer, _vector: Any) -> None:
    tracer.count("tomography.trials")


def _count_candidates(tracer: Tracer, localization: Any) -> None:
    tracer.count("tomography.candidates", len(localization.consistent_sets))


#: Result hooks that turn a wrapped call's return value into counters.
RESULT_COUNTERS: Dict[str, Callable[[Tracer, Any], None]] = {
    "enumerate_paths": _count_paths,
    "compress_universe": _count_columns,
    "TomographySession.measure": _count_trial,
    "TomographySession.localize": _count_candidates,
}


def instrument(
    tracer: Tracer,
    targets: Sequence[Tuple[str, str, Optional[str]]] = TARGETS,
) -> Callable[[], None]:
    """Wrap every target and return a function that restores the originals."""
    undo: List[Callable[[], None]] = []
    for module_name, path, layer in targets:
        module = importlib.import_module(module_name)
        on_result = RESULT_COUNTERS.get(path)
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_wrap(tracer, raw.__func__, layer, on_result))
            else:
                wrapped = _wrap(tracer, raw, layer, on_result)
            setattr(owner, attr, wrapped)
            undo.append(functools.partial(setattr, owner, attr, raw))
            continue
        original = getattr(module, path)
        wrapped = _wrap(tracer, original, layer, on_result)
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)
                    undo.append(functools.partial(setattr, other, key, original))

    def restore() -> None:
        for step in reversed(undo):
            step()

    return restore


# --------------------------------------------------------------------------
# Per-layer report
# --------------------------------------------------------------------------

def layer_table(
    tracer: Tracer, kinds: Optional[Iterable[str]] = None
) -> Tuple[Dict[str, float], float, int]:
    """Mean self time per op (ms) per layer metric, the mean op time (ms),
    and the op count, over the ops whose kind is in ``kinds`` (all ops by
    default).  Op time is the root spans' duration."""
    wanted = None if kinds is None else set(kinds)
    ops = [
        op for op, kind in enumerate(tracer.op_kinds)
        if wanted is None or kind in wanted
    ]
    selected = set(ops)
    totals: Dict[str, float] = {metric: 0.0 for metric in LAYER_METRICS.values()}
    for layer, op, seconds in span_self_times(tracer.spans):
        if op in selected:
            totals[LAYER_METRICS[layer]] += seconds
    op_seconds = sum(
        end - start
        for layer, start, end, parent, op in tracer.spans
        if parent is None and op in selected and end is not None
    )
    n = max(len(ops), 1)
    table = {metric: 1000.0 * total / n for metric, total in totals.items()}
    return table, 1000.0 * op_seconds / n, len(ops)
