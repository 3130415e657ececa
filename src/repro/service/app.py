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

Everything is stdlib: :class:`http.server.ThreadingHTTPServer` serves each
connection on its own thread (HTTP/1.1 keep-alive, Content-Length bodies,
chunked responses for streams), and a request's analysis runs on that
thread under the :class:`~repro.service.executor.AnalysisExecutor` bounds.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.api.scenario import Scenario
from repro.api.spec import AnalysisSpec, DeltaSpec, ScenarioSpec, parse_churn_document
from repro.engine.cache import pathset_cache
from repro.engine.signatures import SEARCH_COUNTERS
from repro.exceptions import SpecError
from repro.experiments.runner import churn_step_entry
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

#: How often the accept loop checks for :meth:`ScenarioServer.stop`, which
#: waits for it (the stdlib default of 0.5 s would slow every stop).
STOP_POLL_SECONDS = 0.05

#: Latency histogram bucket upper bounds (seconds), prometheus-style.
LATENCY_BUCKETS = (0.005, 0.025, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

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


class _Handler(BaseHTTPRequestHandler):
    """One connection, on its own thread: the stdlib reads the request line
    and headers, and every method reaches :meth:`ScenarioServer._dispatch`."""

    protocol_version = "HTTP/1.1"
    # Without it a response's head and body wait on the client's delayed ACK
    # (about 40 ms per request on Linux).
    disable_nagle_algorithm = True
    server: "_HTTPServer"

    def log_message(self, format: str, *args: Any) -> None:
        """No access log: ``/metrics`` counts the requests."""

    def parse_request(self) -> bool:
        # The stdlib reads a two-word request line as HTTP/0.9 and lets
        # malformed header lines through as parser defects; refuse both.
        if not super().parse_request():
            return False
        if self.request_version == "HTTP/0.9" or self.headers.defects:
            self.send_error(400)
            return False
        return True

    def send_error(
        self, code: int, message: Optional[str] = None, explain: Optional[str] = None
    ) -> None:
        """Framing errors answer a JSON body over HTTP/1.1 and close."""
        self.request_version = self.protocol_version
        self.close_connection = True
        self.respond(
            code, {"error": "malformed HTTP request" if code == 400 else message}
        )

    def __getattr__(self, name: str) -> Any:
        # Every method, GET/POST or not, is routed (404/405) by _dispatch.
        if name.startswith("do_"):
            return self._serve
        raise AttributeError(name)

    def _serve(self) -> None:
        app = self.server.app
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            return self.send_error(400)
        if length > app.max_body_bytes:
            return self.send_error(413, "request body exceeds limit")
        self.body = self.rfile.read(length)
        if len(self.body) < length:
            return self.send_error(400)
        split = urlsplit(self.path)
        self.route = split.path or "/"
        self.query = parse_qs(split.query)
        started = time.perf_counter()
        try:
            status = app._dispatch(self)
        except ConnectionError:
            raise
        except Exception as exc:
            # Last-resort guard: a handler bug must answer 500, not drop the
            # connection with no response at all.
            status = self.respond(500, {"error": f"{type(exc).__name__}: {exc}"})
        app.metrics.observe(self.route, status, time.perf_counter() - started)

    def write_head(
        self, status: int, content_type: str, *headers: Tuple[str, str]
    ) -> None:
        self.send_response_only(status)
        self.send_header("Content-Type", content_type)
        for name, value in headers:
            self.send_header(name, value)
        self.send_header(
            "Connection", "close" if self.close_connection else "keep-alive"
        )
        self.end_headers()

    def respond(
        self, status: int, payload: Any, content_type: str = "application/json"
    ) -> int:
        body = (
            payload
            if isinstance(payload, bytes)
            else ScenarioServer._json_body(payload)
        )
        self.write_head(status, content_type, ("Content-Length", str(len(body))))
        self.wfile.write(body)
        return status


class _HTTPServer(ThreadingHTTPServer):
    """The listening socket; one daemon thread per accepted connection.

    The open connections are tracked from accept to close, so
    :meth:`close_connections` can end them at stop time.
    """

    def __init__(self, app: "ScenarioServer", port: int) -> None:
        super().__init__((app.host, port), _Handler)
        self.app = app
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Shut down every open connection: a handler waiting for the next
        keep-alive request reads EOF and ends, and a response still being
        computed is never sent."""
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its own thread

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A client that hangs up mid-exchange is not a server error.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


class ScenarioServer:
    """The service: its caches and executor, routing and handlers."""

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
        self._httpd: Optional[_HTTPServer] = None
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
    def start(self) -> None:
        """Bind the listening socket; ``port`` and ``url`` are valid after."""
        self._httpd = _HTTPServer(self, self._requested_port)
        self.port = self._httpd.server_address[1]

    def serve_forever(self) -> None:
        """Accept connections until :meth:`stop` (from another thread)."""
        if self._httpd is None:
            raise RuntimeError("server is not started")
        self._httpd.serve_forever(STOP_POLL_SECONDS)

    def stop(self) -> None:
        """Stop accepting, close the listening socket and shut down every
        open connection: a keep-alive client's next request on it fails
        instead of being served."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd.close_connections()
            self._httpd = None

    @staticmethod
    def _json_body(payload: Any) -> bytes:
        return (json.dumps(payload) + "\n").encode("utf-8")

    def _dispatch(self, request: _Handler) -> int:
        routes = {
            "/healthz": ("GET", self._handle_healthz),
            "/metrics": ("GET", self._handle_metrics),
            "/v1/analyze": ("POST", self._handle_analyze),
            "/v1/churn": ("POST", self._handle_churn),
        }
        route = routes.get(request.route)
        if route is None:
            return request.respond(
                404, {"error": f"unknown path {request.route!r}"}
            )
        method, handler = route
        if request.command != method:
            return request.respond(
                405, {"error": f"{request.route} accepts {method} only"}
            )
        return handler(request)

    # -- handlers ------------------------------------------------------------
    def _handle_healthz(self, request: _Handler) -> int:
        return request.respond(
            200,
            {
                "status": "ok",
                "inflight": self.executor.inflight,
                "cache_entries": len(self.cache),
            },
        )

    def _handle_metrics(self, request: _Handler) -> int:
        text = self.metrics.render(self.cache, self.executor)
        return request.respond(
            200, text.encode("utf-8"), content_type="text/plain; version=0.0.4"
        )

    def _handle_analyze(self, request: _Handler) -> int:
        try:
            spec = _parse_analyze_payload(request.body)
            spec = spec.with_time_budget(_parse_budget(request.query))
        except CLIENT_ERROR_TYPES as exc:
            return request.respond(400, {"error": str(exc)})

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
            result = self.executor.run(job, label=spec.display_name())
        except ServiceOverloadedError as exc:
            return request.respond(429, {"error": str(exc)})
        except QuarantinedError as exc:
            return request.respond(
                500, {"error": str(exc), "failure": exc.failure.to_dict()}
            )
        except CLIENT_ERROR_TYPES as exc:
            return request.respond(400, {"error": str(exc)})
        return request.respond(200, result)

    def _handle_churn(self, request: _Handler) -> int:
        try:
            base, deltas = _parse_churn_payload(request.body)
            base = base.with_time_budget(_parse_budget(request.query))
        except CLIENT_ERROR_TYPES as exc:
            return request.respond(400, {"error": str(exc)})
        if not self.executor.try_acquire():
            return request.respond(
                429, {"error": str(ServiceOverloadedError(self.executor.max_inflight))}
            )

        # Headers first, then one chunked ndjson line per step: the runner's
        # churn step entry, so a streamed replay is comparable
        # field-for-field with the batch CLI.
        def send_line(payload: Any) -> None:
            data = self._json_body(payload)
            request.wfile.write(b"%x\r\n%s\r\n" % (len(data), data))

        try:
            request.write_head(
                200, "application/x-ndjson", ("Transfer-Encoding", "chunked")
            )
            scenario: Optional[Scenario] = None
            for step in range(len(deltas) + 1):
                delta = None if step == 0 else deltas[step - 1]
                label = "base" if delta is None else (delta.label or f"delta {step}")
                try:
                    with self.executor.job_slots:
                        scenario = (
                            Scenario(base) if delta is None else scenario.evolve(delta)
                        )
                        entry = churn_step_entry(step, label, scenario)
                except CLIENT_ERROR_TYPES as exc:
                    send_line({"step": step, "label": label, "error": str(exc)})
                    break
                except Exception as exc:  # pragma: no cover - defensive
                    send_line(
                        {
                            "step": step,
                            "label": label,
                            "error": f"{type(exc).__name__}: {exc}",
                        }
                    )
                    break
                send_line(entry)
            else:
                send_line(
                    {"done": True, "base": base.to_dict(), "n_deltas": len(deltas)}
                )
            request.wfile.write(b"0\r\n\r\n")
        finally:
            self.executor.release()
        return 200


class BackgroundServer:
    """A :class:`ScenarioServer` accepting on its own thread.

    The helper the tests, the benchmark and the example client share::

        with BackgroundServer(cache_size=32) as server:
            requests_go_to(server.url)

    ``start()`` binds the socket before it returns (so ``url`` is valid the
    moment it does); ``stop()`` stops accepting and joins the thread.
    """

    def __init__(self, **kwargs: Any) -> None:
        self.server = ScenarioServer(**kwargs)
        self._thread: Optional[threading.Thread] = None

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
        self.server.start()
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            name="repro-serve-bg",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self.server.stop()
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
        help="analyses that run at once (default 4)",
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

    server.start()
    print(
        f"repro-serve listening on {server.url} "
        f"(workers={args.workers}, cache_size={args.cache_size}, "
        f"max_inflight={args.max_inflight})",
        file=sys.stderr,
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro-serve: shutting down", file=sys.stderr)
    finally:
        server.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    raise SystemExit(main())
