"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload spec-batch --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the repository root; the library is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--workload all``
runs every workload in its own process and prints one table.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Set-up is also timed in this many fresh interpreters; ``setup_s`` is the
#: median over them and the measuring process.
FRESH_SETUPS = 4
#: A set-up is scaled to the reference host speed by this many
#: reference chunks timed right after it.
SETUP_CHUNKS = 10
COUNT_METRICS = (
    "routing.paths",
    "engine.columns_raw",
    "engine.columns_kept",
    "cache.pathset_hits",
    "cache.pathset_misses",
    "cache.pathset_evictions",
    "search.calls",
    "search.subsets",
    "search.prunes",
    "search.blocks",
    "tomography.trials",
    "tomography.candidates",
    "service.scenario_hits",
    "service.scenario_misses",
)


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Stop before the first op and print only the set-up time (fresh_setups).
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_library() -> None:
    """Import the library from ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no library under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import repro  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.service.app  # noqa: F401


def run_pass(
    workload, indices: Sequence[int], tracer=None, chunks: Optional[List[float]] = None
) -> Tuple[List[float], int]:
    """Closed loop over ``indices``: per-op wall seconds and the failure count.

    With ``chunks``, a :func:`measure.reference_chunk` is timed before the
    first op and after every op, outside the timed window, and appended to
    it, so op ``i`` lies between ``chunks[i]`` and ``chunks[i + 1]``.
    """
    from measure import reference_chunk

    if chunks is not None:
        chunks.append(reference_chunk())
    seconds: List[float] = []
    failed = 0
    for index in indices:
        gc.collect()
        if tracer is not None:
            tracer.begin_op(workload.kinds[index], workload.root_layer)
        started = time.perf_counter()
        try:
            result = workload.run_op(index)
        except Exception as exc:  # an op failure is counted, not fatal
            result = exc
        elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.end_op()
        seconds.append(elapsed)
        if isinstance(result, Exception):
            print(f"op {index} failed: {type(result).__name__}: {result}", file=sys.stderr)
            failed += 1
        else:
            try:
                workload.check(index, result)
            except Exception as exc:
                print(f"op {index} check failed: {exc}", file=sys.stderr)
                failed += 1
        result = None
        workload.after_op(index)
        if chunks is not None:
            chunks.append(reference_chunk())
    return seconds, failed


def versions() -> Dict[str, Any]:
    import networkx

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "networkx": networkx.__version__,
    }


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def run_workload(args: argparse.Namespace) -> Dict[str, Any]:
    import_library()
    from measure import REFERENCE_CHUNK_S, at_reference_speed, latency_summary, reference_chunk
    from workloads import WORKLOADS, documents_digest, op_count

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)} or 'all'")
    n_ops = op_count(args.workload, args.seconds)
    workload = WORKLOADS[args.workload](args.seed, n_ops)
    try:
        workload.setup()
        setup_seconds = time.perf_counter() - _STARTED
        setup = at_reference_speed(
            setup_seconds, [reference_chunk() for _ in range(SETUP_CHUNKS)]
        )
        if args.setup_only:
            return {"setup_s": setup, "unscaled_s": setup_seconds}
        if args.trace:
            return traced_result(workload, n_ops)
        chunks: List[float] = []
        seconds, failed = run_pass(workload, range(n_ops), chunks=chunks)
    finally:
        workload.close()
    setups = [(setup, setup_seconds)] + fresh_setups(args)
    speed = REFERENCE_CHUNK_S / statistics.median(chunks)
    print(json.dumps({"provenance": {
        "workload": args.workload, "seed": args.seed, "ops": n_ops,
        "ops_digest": documents_digest(workload.ops), "host_speed": speed, **versions(),
    }}))
    summary = latency_summary(scaled(seconds, chunks), len(seconds) - failed)
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}
    metrics = {
        "setup_s": metric(statistics.median(value for value, _ in setups), "s"),
        **{name: metric(value, units[name]) for name, value in summary.items()},
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "success_rate": metric((len(seconds) - failed) / len(seconds), "ratio"),
    }
    print(f"{args.workload}: {len(seconds)} ops, {failed} failed; unscaled: "
          f"set-ups {', '.join(f'{raw:.3f}' for _, raw in setups)} s, "
          f"op p50 {1000 * statistics.median(seconds):.1f} ms; median host speed {speed:.3f}")
    return {"correct": failed == 0, "attempted": len(seconds), "failed": failed,
            "metrics": metrics}


def scaled(seconds: Sequence[float], chunks: Sequence[float]) -> List[float]:
    """Each op's seconds at the reference host speed; op ``i`` ran between
    ``chunks[i]`` and ``chunks[i + 1]`` (see :func:`run_pass`)."""
    from measure import at_reference_speed

    return [at_reference_speed(s, chunks[i:i + 2]) for i, s in enumerate(seconds)]


def fresh_setups(args: argparse.Namespace) -> List[Tuple[float, float]]:
    """Process start → first op, scaled and unscaled, in :data:`FRESH_SETUPS`
    fresh interpreters that run the same imports, op generation and set-up
    and then stop."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    seconds = []
    for _ in range(FRESH_SETUPS):
        completed = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                                   timeout=120)
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            raise SystemExit(f"perfbench: a set-up-only run of {args.workload} failed")
        result = json.loads(completed.stdout.splitlines()[-1])
        seconds.append((result["setup_s"], result["unscaled_s"]))
    return seconds


def traced_result(workload, n_ops: int) -> Dict[str, Any]:
    """An untraced and a traced pass over the same first half of the ops;
    per-layer metrics come from the traced one."""
    from spans import Tracer, instrument, layer_table

    indices = range(max(1, n_ops // 2))
    plain_chunks: List[float] = []
    plain, plain_failed = run_pass(workload, indices, chunks=plain_chunks)
    tracer = Tracer()
    tracer.sources = workload.counter_sources()
    workload.tracer = tracer
    workload.setup()
    restore = instrument(tracer)
    traced_chunks: List[float] = []
    try:
        traced, failed = run_pass(workload, indices, tracer, chunks=traced_chunks)
    finally:
        restore()
    failed += plain_failed
    n = len(traced)
    table, op_ms, _ = layer_table(tracer)
    metrics = {name: metric(value, "ms") for name, value in table.items()}
    for name in COUNT_METRICS:
        metric_value = tracer.counts.get(name, 0.0) / n
        metrics[name] = metric(metric_value, "count")
    subsets = tracer.counts.get("search.subsets", 0.0)
    metrics["search.prune_ratio"] = metric(
        tracer.counts.get("search.prunes", 0.0) / subsets if subsets else 0.0, "ratio"
    )
    metrics["trace.overhead_frac"] = metric(
        sum(scaled(traced, traced_chunks)) / sum(scaled(plain, plain_chunks)) - 1.0, "ratio"
    )
    report_layers(workload, tracer, table, op_ms, metrics)
    write_out(f"{workload.name}.trace.json", {
        "op_kinds": tracer.op_kinds, "spans": tracer.spans, "counts": dict(tracer.counts),
    })
    return {"correct": failed == 0, "attempted": len(plain) + n, "failed": failed,
            "metrics": metrics}


def report_layers(workload, tracer, table, op_ms, metrics) -> None:
    """Human-readable per-layer table, per-kind breakdown and checks."""
    from spans import layer_table

    print(f"\n{workload.name}: traced per-layer self time (ms/op, {op_ms:.1f} ms/op total)")
    for name, value in sorted(table.items(), key=lambda item: -item[1]):
        if value > 0:
            print(f"  {name:28s} {value:9.2f}  {100 * value / op_ms:5.1f} %")
    for name, entry in metrics.items():
        if entry["unit"] != "ms":
            print(f"  {name:28s} {entry['value']:12.3f} {entry['unit']}")
    coverage = 1.0 - table["unattributed_ms"] / op_ms if op_ms else 0.0
    flag = "" if coverage >= 0.9 else "  << named layers explain < 90 % of op time"
    print(f"  named-layer coverage {100 * coverage:.1f} %{flag}")
    print(f"  tracing overhead {100 * metrics['trace.overhead_frac']['value']:+.1f} % op time")
    for kind in sorted(set(tracer.op_kinds)):
        per_kind, kind_ms, count = layer_table(tracer, [kind])
        top = sorted(per_kind.items(), key=lambda item: -item[1])[:3]
        listed = ", ".join(f"{name} {value:.1f}" for name, value in top)
        print(f"  kind {kind:10s} n={count:4d} {kind_ms:8.1f} ms/op; top: {listed}")


def write_out(name: str, document: Dict[str, Any]) -> None:
    """Write a run's raw records under ``.perfbench_out/`` once it is over."""
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def run_all(args: argparse.Namespace) -> Dict[str, Any]:
    """Every workload in its own process; one table of every metric."""
    from workloads import WORKLOADS

    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    print(f"{'workload':16s} {'metric':26s} {'value':>14s} unit    samples")
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            sys.stderr.write(completed.stderr)
            raise SystemExit(f"perfbench: workload {name} failed")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric_name}"] = entry
            print(f"{name:16s} {metric_name:26s} {entry['value']:14.4f} "
                  f"{entry['unit']:7s} {result['attempted']}")
    return combined


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
