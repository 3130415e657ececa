"""The ``repro-serve`` HTTP server — tomography analyses over the wire.

Endpoints
---------

``POST /v1/analyze``
    Body: a :class:`~repro.api.spec.ScenarioSpec` JSON document, or
    ``{"spec": {...}, "analyses": [...]}`` to override the spec's analysis
    list.  Response: ``{"spec": ..., "analyses": {name: report}, "cache":
    {"hit": bool, "fingerprint": ...}}`` — the ``spec``/``analyses`` pair is
    bit-identical to the section data ``repro-experiments --spec`` writes
    for the same document.  ``?budget=SECONDS`` overrides the spec's
    ``engine.time_budget`` for this request only; an expired budget still
    answers 200 with a certified lower bound (``exhausted_search: false``),
    never a hang.

``POST /v1/churn``
    Body: ``{"base": <ScenarioSpec>, "deltas": [<DeltaSpec>, ...]}`` — the
    same document ``repro-experiments --churn`` reads.  The response is a
    chunked ndjson stream: one line per step (the runner's step-entry shape,
    riding :meth:`Scenario.evolve <repro.api.scenario.Scenario.evolve>` so
    revisited states hit the pathset cache), then a summary line
    ``{"done": true, ...}``.

``GET /healthz``
    Liveness: ``{"status": "ok", ...}``.

``GET /metrics``
    Prometheus-style text exposition: request counts by path/status, a
    latency histogram, in-flight gauge, scenario- and pathset-cache
    counters, the PR-8 resilience ``pool_counters`` and the subset-search
    counters (``repro_search_*`` — searches, census blocks, prunes).

Error mapping: malformed JSON / invalid specs / bad parameters → 400 with a
``{"error": ...}`` body (never a traceback); unknown path → 404; wrong
method → 405; oversized body → 413; no free in-flight slot → 429; a genuine
server-side failure → 500 carrying the quarantined
:class:`~repro.resilience.pool.TrialFailure` record.

Everything is stdlib: one asyncio event loop, hand-rolled HTTP/1.1 framing
(keep-alive, Content-Length bodies, chunked responses for streams), and the
:class:`~repro.service.executor.AnalysisExecutor` thread pool for the
CPU-bound work.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.api.scenario import Scenario
from repro.api.spec import AnalysisSpec, DeltaSpec, ScenarioSpec, parse_churn_document
from repro.engine.cache import pathset_cache
from repro.engine.signatures import SEARCH_COUNTERS
from repro.exceptions import SpecError
from repro.resilience.pool import POOL_COUNTERS
from repro.service.cache import ScenarioCache
from repro.service.executor import (
    AnalysisExecutor,
    QuarantinedError,
    ServiceOverloadedError,
    CLIENT_ERROR_TYPES,
)

#: Request bodies above this are refused with 413 before being read.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Latency histogram bucket upper bounds (seconds), prometheus-style.
LATENCY_BUCKETS = (0.005, 0.025, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class _BadRequest(Exception):
    """Malformed HTTP framing (before we even reach a handler)."""


@dataclass
class _Request:
    method: str
    path: str
    query: Dict[str, List[str]]
    headers: Dict[str, str]
    body: bytes

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


class Metrics:
    """Thread-safe request counters + latency histogram for ``/metrics``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._requests: Dict[Tuple[str, int], int] = {}
        self._bucket_counts = [0] * (len(LATENCY_BUCKETS) + 1)  # +Inf last
        self._latency_sum = 0.0
        self._latency_count = 0

    def observe(self, path: str, status: int, seconds: float) -> None:
        with self._lock:
            key = (path, status)
            self._requests[key] = self._requests.get(key, 0) + 1
            for i, bound in enumerate(LATENCY_BUCKETS):
                if seconds <= bound:
                    self._bucket_counts[i] += 1
                    break
            else:
                self._bucket_counts[-1] += 1
            self._latency_sum += seconds
            self._latency_count += 1

    def render(self, cache: ScenarioCache, executor: AnalysisExecutor) -> str:
        lines: List[str] = []

        def emit(name: str, value: Any, help_text: str = "", labels: str = "") -> None:
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} counter" if "total" in name else f"# TYPE {name} gauge")
            lines.append(f"{name}{labels} {value}")

        with self._lock:
            requests = dict(self._requests)
            buckets = list(self._bucket_counts)
            latency_sum = self._latency_sum
            latency_count = self._latency_count
            uptime = time.monotonic() - self._started

        emit("repro_uptime_seconds", f"{uptime:.3f}", "Seconds since server start.")
        lines.append("# HELP repro_requests_total Requests served, by path and status.")
        lines.append("# TYPE repro_requests_total counter")
        for (path, status), count in sorted(requests.items()):
            lines.append(
                f'repro_requests_total{{path="{path}",status="{status}"}} {count}'
            )
        lines.append(
            "# HELP repro_request_latency_seconds Request latency histogram."
        )
        lines.append("# TYPE repro_request_latency_seconds histogram")
        cumulative = 0
        for bound, count in zip(LATENCY_BUCKETS, buckets):
            cumulative += count
            lines.append(
                f'repro_request_latency_seconds_bucket{{le="{bound}"}} {cumulative}'
            )
        cumulative += buckets[-1]
        lines.append(
            f'repro_request_latency_seconds_bucket{{le="+Inf"}} {cumulative}'
        )
        lines.append(f"repro_request_latency_seconds_sum {latency_sum:.6f}")
        lines.append(f"repro_request_latency_seconds_count {latency_count}")

        emit(
            "repro_inflight",
            executor.inflight,
            "Requests currently admitted (queued or running).",
        )
        emit("repro_max_inflight", executor.max_inflight)

        scenario = cache.stats()
        pathsets = pathset_cache()
        tables = (
            (
                "scenario_cache",
                "Compiled-scenario cache counters.",
                cache.counters.snapshot().items(),
                (
                    ("entries", scenario.entries),
                    ("bytes", scenario.nbytes),
                    ("hit_rate", f"{scenario.hit_rate:.6f}"),
                ),
            ),
            (
                "pathset_cache",
                "Path-set cache counters.",
                pathsets.counters.snapshot().items(),
                (("entries", len(pathsets)),),
            ),
            (
                "pool",
                "Resilient-pool counters.",
                sorted(POOL_COUNTERS.snapshot().items()),
                (),
            ),
            (
                "search",
                "Search counters (µ searches run, subsets enumerated, "
                "prunes, census blocks evaluated).",
                sorted(SEARCH_COUNTERS.snapshot().items()),
                (),
            ),
        )
        for table, help_text, totals, gauges in tables:
            lines.append(f"# HELP repro_{table} {help_text}")
            for name, value in totals:
                emit(f"repro_{table}_{name}_total", value)
            for name, value in gauges:
                emit(f"repro_{table}_{name}", value)
        return "\n".join(lines) + "\n"


def _parse_budget(query: Dict[str, List[str]]) -> Optional[float]:
    """The ``?budget=`` per-request time budget, validated."""
    values = query.get("budget")
    if not values:
        return None
    raw = values[-1]
    try:
        budget = float(raw)
    except ValueError:
        raise SpecError(f"budget must be a number of seconds, got {raw!r}")
    if budget <= 0:
        raise SpecError(f"budget must be > 0 seconds, got {budget}")
    return budget


def _parse_analyze_payload(body: bytes) -> ScenarioSpec:
    """Decode a ``/v1/analyze`` body into a spec (raises SpecError)."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpecError(f"request body is not valid JSON: {exc}") from exc
    if isinstance(payload, dict) and "spec" in payload:
        unknown = set(payload) - {"spec", "analyses"}
        if unknown:
            raise SpecError(
                f"unknown analyze request fields {sorted(unknown)}; "
                f"expected 'spec' and optionally 'analyses'"
            )
        spec = ScenarioSpec.from_dict(payload["spec"])
        if payload.get("analyses") is not None:
            requests = payload["analyses"]
            if not isinstance(requests, list):
                raise SpecError(
                    f"'analyses' must be a list, got {type(requests).__name__}"
                )
            spec = replace(
                spec,
                analyses=tuple(AnalysisSpec.from_dict(a) for a in requests),
            )
        return spec
    return ScenarioSpec.from_dict(payload)


def _parse_churn_payload(body: bytes) -> Tuple[ScenarioSpec, List[DeltaSpec]]:
    """Decode a ``/v1/churn`` body (the ``--churn`` document shape)."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpecError(f"request body is not valid JSON: {exc}") from exc
    return parse_churn_document(payload)


class ScenarioServer:
    """The asyncio server: routing, framing and handler dispatch."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        cache_size: int = 64,
        max_inflight: int = 16,
        cache_bytes: Optional[int] = None,
        max_body_bytes: int = MAX_BODY_BYTES,
    ) -> None:
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self.cache = ScenarioCache(maxsize=cache_size, max_bytes=cache_bytes)
        self.executor = AnalysisExecutor(workers=workers, max_inflight=max_inflight)
        self.metrics = Metrics()
        self.max_body_bytes = max_body_bytes
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: "set[asyncio.Task]" = set()
        # --cache-size is THE capacity knob of a deployment: it bounds the
        # by-spec scenario cache here and widens (never shrinks) the global
        # by-content pathset cache to match, so a working set the operator
        # sized for cannot thrash the lower layer.
        underlying = pathset_cache()
        if cache_size > underlying.maxsize:
            underlying.resize(cache_size)

    @property
    def url(self) -> str:
        if self.port is None:
            raise RuntimeError("server is not started")
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # wait_closed() does not cover in-flight connection handlers (idle
        # keep-alive readers included) — cancel them so shutdown is silent.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self.executor.shutdown(wait=False)

    # -- framing -------------------------------------------------------------
    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[_Request]:
        request_line = await reader.readline()
        if not request_line:
            return None  # clean EOF between requests
        try:
            method, target, _version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            raise _BadRequest("malformed request line")
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise _BadRequest("connection closed inside headers")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _BadRequest(f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise _BadRequest(f"invalid Content-Length {raw_length!r}")
        if length < 0:
            raise _BadRequest(f"invalid Content-Length {length}")
        if length > self.max_body_bytes:
            # Signalled to the handler loop via a dedicated exception so it
            # can answer 413 instead of a generic 400.
            raise _PayloadTooLarge(length)
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        return _Request(
            method=method.upper(),
            path=split.path or "/",
            query=parse_qs(split.query),
            headers=headers,
            body=body,
        )

    @staticmethod
    def _response_bytes(
        status: int,
        body: bytes,
        content_type: str = "application/json",
        keep_alive: bool = True,
    ) -> bytes:
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        )
        return head.encode("latin-1") + body

    @staticmethod
    def _json_body(payload: Any) -> bytes:
        return (json.dumps(payload) + "\n").encode("utf-8")

    # -- connection loop -----------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _PayloadTooLarge:
                    writer.write(
                        self._response_bytes(
                            413,
                            self._json_body(
                                {"error": "request body exceeds limit"}
                            ),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                except (_BadRequest, asyncio.IncompleteReadError, ValueError):
                    writer.write(
                        self._response_bytes(
                            400,
                            self._json_body({"error": "malformed HTTP request"}),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                started = time.perf_counter()
                try:
                    status = await self._dispatch(request, writer)
                except (ConnectionResetError, BrokenPipeError):
                    raise
                except Exception as exc:
                    # Last-resort guard: a handler bug must answer 500, not
                    # drop the connection with no response at all.
                    status = self._respond(
                        writer,
                        request,
                        500,
                        {"error": f"{type(exc).__name__}: {exc}"},
                    )
                self.metrics.observe(
                    request.path, status, time.perf_counter() - started
                )
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancelled us mid-request (or mid keep-alive
            # wait).  End the task *normally*: asyncio.streams re-raises a
            # cancelled connection task's exception from its done-callback,
            # which would spam the loop's exception handler at every stop.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _dispatch(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> int:
        routes = {
            "/healthz": ("GET", self._handle_healthz),
            "/metrics": ("GET", self._handle_metrics),
            "/v1/analyze": ("POST", self._handle_analyze),
            "/v1/churn": ("POST", self._handle_churn),
        }
        route = routes.get(request.path)
        if route is None:
            return self._respond(
                writer,
                request,
                404,
                {"error": f"unknown path {request.path!r}"},
            )
        method, handler = route
        if request.method != method:
            return self._respond(
                writer,
                request,
                405,
                {"error": f"{request.path} accepts {method} only"},
            )
        return await handler(request, writer)

    def _respond(
        self,
        writer: asyncio.StreamWriter,
        request: _Request,
        status: int,
        payload: Any,
        content_type: str = "application/json",
    ) -> int:
        body = (
            payload
            if isinstance(payload, bytes)
            else self._json_body(payload)
        )
        writer.write(
            self._response_bytes(
                status, body, content_type, keep_alive=request.keep_alive
            )
        )
        return status

    # -- handlers ------------------------------------------------------------
    async def _handle_healthz(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> int:
        return self._respond(
            writer,
            request,
            200,
            {
                "status": "ok",
                "inflight": self.executor.inflight,
                "cache_entries": len(self.cache),
            },
        )

    async def _handle_metrics(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> int:
        text = self.metrics.render(self.cache, self.executor)
        return self._respond(
            writer,
            request,
            200,
            text.encode("utf-8"),
            content_type="text/plain; version=0.0.4",
        )

    async def _handle_analyze(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> int:
        try:
            spec = _parse_analyze_payload(request.body)
            spec = spec.with_time_budget(_parse_budget(request.query))
        except CLIENT_ERROR_TYPES as exc:
            return self._respond(writer, request, 400, {"error": str(exc)})

        def job() -> Dict[str, Any]:
            scenario, hit, fingerprint = self.cache.get_or_compile(spec)
            reports = scenario.run_all()
            return {
                "spec": spec.to_dict(),
                "analyses": {
                    name: report.to_dict() for name, report in reports.items()
                },
                "cache": {"hit": hit, "fingerprint": fingerprint},
            }

        try:
            result = await self.executor.run(job, label=spec.display_name())
        except ServiceOverloadedError as exc:
            return self._respond(writer, request, 429, {"error": str(exc)})
        except QuarantinedError as exc:
            return self._respond(
                writer, request, 500, {"error": str(exc), "failure": exc.failure.to_dict()}
            )
        except CLIENT_ERROR_TYPES as exc:
            return self._respond(writer, request, 400, {"error": str(exc)})
        return self._respond(writer, request, 200, result)

    async def _handle_churn(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> int:
        try:
            base, deltas = _parse_churn_payload(request.body)
            base = base.with_time_budget(_parse_budget(request.query))
        except CLIENT_ERROR_TYPES as exc:
            return self._respond(writer, request, 400, {"error": str(exc)})
        if not self.executor.try_acquire():
            return self._respond(
                writer,
                request,
                429,
                {"error": str(ServiceOverloadedError(self.executor.max_inflight))},
            )

        # Headers first, then one chunked ndjson line per step.  The step
        # entries carry exactly the runner's churn step-entry keys, so a
        # streamed replay is comparable field-for-field with the batch CLI.
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            f"Connection: {'keep-alive' if request.keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1"))

        async def send_line(payload: Any) -> None:
            data = (json.dumps(payload) + "\n").encode("utf-8")
            writer.write(f"{len(data):x}\r\n".encode("latin-1"))
            writer.write(data + b"\r\n")
            await writer.drain()

        loop = asyncio.get_running_loop()
        state: Dict[str, Any] = {"scenario": None}

        def step_job(delta: Optional[DeltaSpec]) -> Dict[str, Any]:
            if state["scenario"] is None:
                state["scenario"] = Scenario(base)
            elif delta is not None:
                state["scenario"] = state["scenario"].evolve(delta)
            current: Scenario = state["scenario"]
            mu = current.mu()
            return {
                "mu": mu.value,
                "searched_up_to": mu.searched_up_to,
                "n_paths": mu.n_paths,
                "spec": current.spec.to_dict(),
            }

        try:
            for step in range(len(deltas) + 1):
                delta = None if step == 0 else deltas[step - 1]
                label = (
                    "base"
                    if delta is None
                    else (delta.label or f"delta {step}")
                )
                try:
                    entry = await loop.run_in_executor(
                        self.executor._pool, step_job, delta
                    )
                except CLIENT_ERROR_TYPES as exc:
                    await send_line(
                        {"step": step, "label": label, "error": str(exc)}
                    )
                    break
                except Exception as exc:  # pragma: no cover - defensive
                    await send_line(
                        {
                            "step": step,
                            "label": label,
                            "error": f"{type(exc).__name__}: {exc}",
                        }
                    )
                    break
                await send_line(
                    {
                        "step": step,
                        "label": label,
                        **entry,
                        "verified": None,
                    }
                )
            else:
                await send_line(
                    {
                        "done": True,
                        "base": base.to_dict(),
                        "n_deltas": len(deltas),
                    }
                )
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            self.executor.release()
        return 200


class _PayloadTooLarge(Exception):
    def __init__(self, length: int) -> None:
        super().__init__(f"request body of {length} bytes exceeds the limit")
        self.length = length


class BackgroundServer:
    """A :class:`ScenarioServer` on its own thread + event loop.

    The helper the tests, the benchmark and the example client share::

        with BackgroundServer(cache_size=32) as server:
            requests_go_to(server.url)

    ``start()`` blocks until the socket is bound (so ``url`` is valid the
    moment it returns); ``stop()`` shuts the loop down and joins the thread.
    """

    def __init__(self, **kwargs: Any) -> None:
        self.server = ScenarioServer(**kwargs)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    @property
    def url(self) -> str:
        return self.server.url

    @property
    def port(self) -> int:
        if self.server.port is None:
            raise RuntimeError("server is not started")
        return self.server.port

    def start(self) -> "BackgroundServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-bg", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        if self.server.port is None:
            raise RuntimeError("server did not bind within 30s")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        finally:
            self._loop.close()

    async def _main(self) -> None:
        self._stop = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        await self._stop.wait()
        await self.server.stop()

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)
        self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def main(argv: Optional[List[str]] = None) -> int:
    """Console entry point: ``repro-serve``."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Serve Boolean-network-tomography analyses over HTTP: POST "
            "ScenarioSpec documents to /v1/analyze, churn documents to "
            "/v1/churn; scrape /metrics."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=8351,
        help="listen port (0 picks an ephemeral port; default 8351)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="analysis worker threads (default 4)",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=64,
        help=(
            "compiled-scenario cache entries; also widens the process "
            "pathset cache to at least this bound (default 64)"
        ),
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=16,
        help="admitted requests before 429 backpressure (default 16)",
    )
    parser.add_argument(
        "--cache-bytes",
        type=int,
        default=None,
        help="optional byte bound on the scenario cache (approximate)",
    )
    args = parser.parse_args(argv)
    if args.port < 0 or args.port > 65535:
        parser.error(f"--port must be in [0, 65535], got {args.port}")
    for name in ("workers", "cache_size", "max_inflight"):
        if getattr(args, name) < 1:
            parser.error(f"--{name.replace('_', '-')} must be >= 1")
    if args.cache_bytes is not None and args.cache_bytes < 1:
        parser.error("--cache-bytes must be >= 1 (or omitted)")

    server = ScenarioServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_size=args.cache_size,
        max_inflight=args.max_inflight,
        cache_bytes=args.cache_bytes,
    )

    async def serve() -> None:
        await server.start()
        print(
            f"repro-serve listening on {server.url} "
            f"(workers={args.workers}, cache_size={args.cache_size}, "
            f"max_inflight={args.max_inflight})",
            file=sys.stderr,
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("repro-serve: shutting down", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    raise SystemExit(main())
