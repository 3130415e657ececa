"""The service layer: HTTP endpoints, scenario cache, executor, loadgen.

Server tests run against a real :class:`BackgroundServer` on an ephemeral
port — the framing, the thread bridge and the caches are all exercised over
an actual socket, exactly as deployed.  A module-scoped server carries the
read-mostly tests; counter- and capacity-sensitive tests get their own.
"""

from __future__ import annotations

import glob
import json
import os
import socket
import threading
import time
from http.client import HTTPConnection, HTTPException

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.api.scenario import Scenario
from repro.api.spec import EngineConfig, ScenarioSpec
from repro.engine.cache import (
    PathSetCache,
    clear_pathset_cache,
    pathset_cache,
)
from repro.exceptions import SpecError
from repro.monitors.placement import MonitorPlacement
from repro.service.app import BackgroundServer
from repro.service.cache import ScenarioCache, spec_fingerprint
from repro.service.executor import (
    AnalysisExecutor,
    QuarantinedError,
    ServiceOverloadedError,
)
from repro.service import loadgen

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
EXAMPLES_SPECS = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "specs"
)

CLARANET_SPEC = {
    "topology": {"name": "claranet"},
    "placement": {"strategy": "mdmp", "params": {"d": 3}},
    "seed": 2018,
    "analyses": [{"analysis": "mu"}, {"analysis": "bounds"}],
}


def request(
    server,
    method: str,
    path: str,
    body=None,
    timeout: float = 60.0,
):
    """One HTTP round trip; returns (status, decoded-or-raw body)."""
    connection = HTTPConnection("127.0.0.1", server.port, timeout=timeout)
    try:
        payload = None
        if body is not None:
            payload = body if isinstance(body, bytes) else json.dumps(body).encode()
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        raw = response.read()
    finally:
        connection.close()
    try:
        return response.status, json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return response.status, raw


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(cache_size=16, workers=2, max_inflight=8) as bg:
        yield bg


class TestEndpoints:
    def test_healthz(self, server):
        status, body = request(server, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_analyze_matches_direct_scenario(self, server):
        status, body = request(server, "POST", "/v1/analyze", CLARANET_SPEC)
        assert status == 200
        spec = ScenarioSpec.from_dict(CLARANET_SPEC)
        expected = {
            name: report.to_dict()
            for name, report in Scenario(spec).run_all().items()
        }
        # The served spec/analyses pair is the runner's section data, bit
        # for bit — the parity the loadgen + CI smoke also verify end-to-end.
        assert body["spec"] == spec.to_dict()
        assert body["analyses"] == expected

    def test_analyze_repeat_hits_cache(self, server):
        first_status, first = request(server, "POST", "/v1/analyze", CLARANET_SPEC)
        status, second = request(server, "POST", "/v1/analyze", CLARANET_SPEC)
        assert first_status == status == 200
        assert second["cache"]["hit"] is True
        assert second["cache"]["fingerprint"] == first["cache"]["fingerprint"]
        stripped = lambda doc: {k: v for k, v in doc.items() if k != "cache"}
        assert stripped(first) == stripped(second)

    def test_analyze_wrapper_overrides_analyses(self, server):
        payload = {
            "spec": CLARANET_SPEC,
            "analyses": [{"analysis": "bounds"}],
        }
        status, body = request(server, "POST", "/v1/analyze", payload)
        assert status == 200
        assert sorted(body["analyses"]) == ["bounds"]

    def test_analyze_engine_cache_false_bypasses(self, server):
        spec = dict(CLARANET_SPEC)
        spec["engine"] = {"cache": False}
        spec["analyses"] = [{"analysis": "bounds"}]
        status, body = request(server, "POST", "/v1/analyze", spec)
        assert status == 200
        assert body["cache"]["hit"] is False

    def test_unknown_path_404(self, server):
        status, body = request(server, "GET", "/nope")
        assert status == 404
        assert "error" in body

    def test_wrong_method_405(self, server):
        status, body = request(server, "GET", "/v1/analyze")
        assert status == 405
        assert "error" in body

    def test_invalid_json_400(self, server):
        status, body = request(server, "POST", "/v1/analyze", b"{nope")
        assert status == 400
        assert "not valid JSON" in body["error"]

    def test_invalid_spec_400_with_spec_error(self, server):
        status, body = request(
            server, "POST", "/v1/analyze", {"topology": {"name": "claranet"}}
        )
        assert status == 400
        assert "placement" in body["error"]

    @pytest.mark.parametrize(
        "failures, params",
        [({"size": True}, {}), ({"size": 1.5}, {}), ({"size": "2"}, {}),
         ({"n_trials": 2.5}, {}), ({}, {"failure_size": True}),
         ({}, {"failure_size": 1.5}), ({}, {"failure_size": "2"}),
         ({}, {"n_trials": 2.5}), ({}, {"n_trials": True})],
    )
    def test_non_int_failure_sizes_and_trial_counts_400(self, server, failures, params):
        document = dict(
            CLARANET_SPEC,
            failures=failures,
            analyses=[{"analysis": "localization", "params": params}],
        )
        status, body = request(server, "POST", "/v1/analyze", document)
        assert status == 400, body
        assert "must be an int" in body["error"]

    @pytest.mark.parametrize("bad", [True, 1.5, "2"])
    @pytest.mark.parametrize(
        "analysis, name",
        [("mu", "max_size"), ("truncated", "alpha"), ("separability", "size")],
    )
    def test_non_int_search_sizes_400(self, server, analysis, name, bad):
        document = dict(
            CLARANET_SPEC, analyses=[{"analysis": analysis, "params": {name: bad}}]
        )
        status, body = request(server, "POST", "/v1/analyze", document)
        assert status == 400, body
        assert f"{name} must be an int" in body["error"]

    def test_retired_engine_keys_still_parse(self, server):
        document = dict(
            CLARANET_SPEC,
            engine={
                "search_jobs": 2,
                "kernel": "scalar",
                "block_size": 8,
                "compress": False,
                "cache_maxsize": 0,
            },
        )
        status, body = request(server, "POST", "/v1/analyze", document)
        assert status == 200, body
        assert body["spec"]["engine"] == EngineConfig().to_dict()

    def test_bad_budget_400(self, server):
        status, body = request(
            server, "POST", "/v1/analyze?budget=zero", CLARANET_SPEC
        )
        assert status == 400
        assert "budget" in body["error"]

    def test_metrics_exposition(self, server):
        status, raw = request(server, "GET", "/metrics")
        assert status == 200
        text = raw.decode("utf-8") if isinstance(raw, bytes) else json.dumps(raw)
        for family in (
            "repro_uptime_seconds",
            "repro_requests_total",
            "repro_request_latency_seconds_bucket",
            "repro_inflight",
            "repro_scenario_cache_hits_total",
            "repro_pathset_cache_hits_total",
            "repro_pool_trial_failures_total",
        ):
            assert family in text, f"missing metric family {family}"

    def test_metrics_names_are_pinned(self):
        """Every sample line ``/metrics`` prints, name and labels, in order,
        after a fixed request sequence on a fresh server."""
        with BackgroundServer(cache_size=4, workers=1, max_inflight=4) as fresh:
            request(fresh, "GET", "/healthz")
            request(fresh, "POST", "/v1/analyze", CLARANET_SPEC)
            request(fresh, "POST", "/v1/analyze", CLARANET_SPEC)
            request(fresh, "POST", "/v1/analyze", {"nope": 1})
            status, raw = request(fresh, "GET", "/metrics")
        assert status == 200
        names = [
            line.split(" ")[0]
            for line in raw.decode("utf-8").splitlines()
            if not line.startswith("#")
        ]
        buckets = [
            f'repro_request_latency_seconds_bucket{{le="{bound}"}}'
            for bound in (
                "0.005", "0.025", "0.1", "0.25", "0.5", "1.0", "2.5", "5.0",
                "10.0", "30.0", "+Inf",
            )
        ]
        assert names == [
            "repro_uptime_seconds",
            'repro_requests_total{path="/healthz",status="200"}',
            'repro_requests_total{path="/v1/analyze",status="200"}',
            'repro_requests_total{path="/v1/analyze",status="400"}',
            *buckets,
            "repro_request_latency_seconds_sum",
            "repro_request_latency_seconds_count",
            "repro_inflight",
            "repro_max_inflight",
            "repro_scenario_cache_hits_total",
            "repro_scenario_cache_misses_total",
            "repro_scenario_cache_evictions_total",
            "repro_scenario_cache_bypasses_total",
            "repro_scenario_cache_entries",
            "repro_scenario_cache_bytes",
            "repro_scenario_cache_hit_rate",
            "repro_pathset_cache_hits_total",
            "repro_pathset_cache_misses_total",
            "repro_pathset_cache_evictions_total",
            "repro_pathset_cache_entries",
            "repro_pool_pool_rebuilds_total",
            "repro_pool_retries_total",
            "repro_pool_timeouts_total",
            "repro_pool_trial_failures_total",
            "repro_pool_worker_crashes_total",
            "repro_search_block_rows_pruned_total",
            "repro_search_blocks_evaluated_total",
            "repro_search_dominance_prunes_total",
            "repro_search_searches_total",
            "repro_search_subsets_enumerated_total",
        ]

    def test_payload_too_large_413(self):
        with BackgroundServer(
            cache_size=2, workers=1, max_inflight=2, max_body_bytes=64
        ) as small:
            status, body = request(small, "POST", "/v1/analyze", CLARANET_SPEC)
            assert status == 413
            assert "error" in body

    def test_overload_429(self, server):
        executor = server.server.executor
        taken = 0
        while executor.try_acquire():
            taken += 1
        try:
            status, body = request(server, "POST", "/v1/analyze", CLARANET_SPEC)
            assert status == 429
            assert "capacity" in body["error"]
        finally:
            for _ in range(taken):
                executor.release()

    def test_server_survives_handler_errors(self, server):
        for _ in range(3):
            status, _ = request(server, "POST", "/v1/analyze", b"\xff\xfe")
            assert status == 400
        status, body = request(server, "GET", "/healthz")
        assert status == 200 and body["status"] == "ok"


def raw_exchange(server, data: bytes, half_close: bool = True) -> bytes:
    """Send raw bytes and read until the server closes the connection.

    ``half_close`` ends the client's side first, so a server still waiting
    for a request line, a header or a body sees an EOF instead of hanging.
    """
    with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def split_responses(raw: bytes):
    """(status, JSON body) of each Content-Length response in ``raw``."""
    responses = []
    while raw:
        head, _, rest = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = {
            name.strip().lower(): value.strip()
            for name, _, value in (line.partition(":") for line in lines[1:])
        }
        length = int(headers["content-length"])
        responses.append((int(lines[0].split(" ")[1]), json.loads(rest[:length])))
        raw = rest[length:]
    return responses


class TestFraming:
    """The HTTP/1.1 framing the server answers with, pinned on raw sockets."""

    @pytest.mark.parametrize(
        "data",
        [
            b"GARBAGE\r\n\r\n",
            b"GET /healthz\r\n\r\n",
            b"POST /v1/analyze HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            b"POST /v1/analyze HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n",
            b"POST /v1/analyze HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}",
        ],
        ids=["garbage", "two-words", "length-abc", "length-negative",
             "header-no-colon", "short-body"],
    )
    def test_malformed_requests_400(self, server, data):
        assert split_responses(raw_exchange(server, data)) == [
            (400, {"error": "malformed HTTP request"})
        ]

    @pytest.mark.parametrize(
        "path, status", [("/healthz", 405), ("/nope", 404)]
    )
    def test_unhandled_method_reaches_routing(self, server, path, status):
        data = f"DELETE {path} HTTP/1.1\r\nConnection: close\r\n\r\n".encode()
        ((answered, body),) = split_responses(raw_exchange(server, data))
        assert answered == status
        assert "error" in body

    def test_keep_alive_serves_two_requests(self, server):
        data = b"GET /healthz HTTP/1.1\r\n\r\n" * 2
        responses = split_responses(raw_exchange(server, data))
        assert [status for status, _ in responses] == [200, 200]
        assert all(body["status"] == "ok" for _, body in responses)

    def test_connection_close_closes_without_client_eof(self, server):
        data = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        ((status, body),) = split_responses(
            raw_exchange(server, data, half_close=False)
        )
        assert status == 200 and body["status"] == "ok"

    def test_stop_closes_keep_alive_connections(self):
        """A keep-alive connection open at ``stop()`` is closed with the
        server: its next request fails instead of being answered."""
        background = BackgroundServer(workers=1).start()
        connection = HTTPConnection("127.0.0.1", background.port, timeout=10)
        try:
            connection.request("GET", "/healthz")
            first = connection.getresponse()
            assert first.status == 200 and json.loads(first.read())["status"] == "ok"
            background.stop()
            with pytest.raises((OSError, HTTPException)):
                connection.request("GET", "/healthz")
                connection.getresponse().read()
        finally:
            connection.close()
            background.stop()


class TestHealthDuringLongJob:
    """``/healthz`` answers on its own connection while a long analysis
    holds the only worker."""

    LONG_SPEC = {
        "topology": {
            "name": "agrid",
            "params": {
                "base": {"name": "claranet", "params": {}},
                "dimension": 4,
                "selector": "uniform",
            },
        },
        "placement": {"strategy": "mdmp", "params": {"d": 4}},
        "seed": 2018,
        "failures": {"model": "uniform", "size": 2, "n_trials": 700},
        "analyses": [
            {"analysis": "mu"},
            {"analysis": "localization",
             "params": {"failure_size": 2, "n_trials": 700}},
        ],
    }

    def test_healthz_answers_during_long_analyze(self):
        clear_pathset_cache()
        with BackgroundServer(cache_size=2, workers=1, max_inflight=4) as bg:
            outcome = {}

            def long_request():
                outcome["status"], _ = request(
                    bg, "POST", "/v1/analyze", self.LONG_SPEC, timeout=300
                )
                outcome["finished"] = time.perf_counter()

            worker = threading.Thread(target=long_request)
            started = time.perf_counter()
            worker.start()
            during = []
            while worker.is_alive():
                status, body = request(bg, "GET", "/healthz", timeout=30)
                answered = time.perf_counter()
                if worker.is_alive():
                    during.append((status, body["status"], answered))
            worker.join()
        clear_pathset_cache()
        assert outcome["status"] == 200
        assert during, "no /healthz answer while the analysis ran"
        assert all(status == 200 and ok == "ok" for status, ok, _ in during)
        assert outcome["finished"] - started >= 0.5


class TestBudgetedRequests:
    """Satellite: ``?budget=`` answers 200 with a certified lower bound."""

    def test_expired_budget_still_answers(self, server):
        status, body = request(
            server, "POST", "/v1/analyze?budget=0.000000001", CLARANET_SPEC
        )
        assert status == 200
        mu = body["analyses"]["mu"]
        assert mu["exhausted_search"] is False

    def test_expired_budget_parity_with_direct_scenario(self, server):
        status, body = request(
            server, "POST", "/v1/analyze?budget=0.000000001", CLARANET_SPEC
        )
        assert status == 200
        from dataclasses import replace

        spec = ScenarioSpec.from_dict(CLARANET_SPEC)
        spec = replace(spec, engine=replace(spec.engine, time_budget=1e-9))
        direct = {
            name: report.to_dict()
            for name, report in Scenario(spec).run_all().items()
        }
        assert body["analyses"] == direct
        assert body["spec"] == spec.to_dict()


class TestChurnStream:
    def churn_document(self):
        path = os.path.join(EXAMPLES_SPECS, "churn", "claranet_flaps.json")
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def stream(self, server, payload):
        connection = HTTPConnection("127.0.0.1", server.port, timeout=120)
        try:
            connection.request(
                "POST", "/v1/churn", body=json.dumps(payload).encode()
            )
            response = connection.getresponse()
            lines = response.read().decode("utf-8").strip().splitlines()
        finally:
            connection.close()
        return response.status, [json.loads(line) for line in lines]

    def test_streamed_steps_match_runner(self, server):
        from repro.experiments.runner import run_churn_sections
        from repro.api.spec import DeltaSpec

        document = self.churn_document()
        status, lines = self.stream(server, document)
        assert status == 200
        summary = lines[-1]
        assert summary["done"] is True
        assert summary["n_deltas"] == len(document["deltas"])
        steps = lines[:-1]
        assert len(steps) == len(document["deltas"]) + 1

        base = ScenarioSpec.from_dict(document["base"])
        deltas = [DeltaSpec.from_dict(d) for d in document["deltas"]]
        (section,) = run_churn_sections(base, deltas)
        assert steps == section.data["steps"]

    def test_churn_rejects_malformed_document(self, server):
        status, body = request(server, "POST", "/v1/churn", {"base": CLARANET_SPEC})
        assert status == 400
        assert "deltas" in body["error"]

    def test_churn_rejects_an_unhashable_node_label(self, server):
        document = {"base": CLARANET_SPEC, "deltas": [{"add_inputs": [{}]}]}
        status, body = request(server, "POST", "/v1/churn", document)
        assert status == 400
        assert "add_inputs" in body["error"]

    def test_churn_semantic_error_mid_stream(self, server):
        document = {
            "base": CLARANET_SPEC,
            "deltas": [
                {"label": "bogus", "remove_links": [["Nowhere", "Atlantis"]]}
            ],
        }
        status, lines = self.stream(server, document)
        assert status == 200  # headers were already streamed
        assert lines[0]["step"] == 0 and lines[0]["mu"] is not None
        assert "error" in lines[-1]


class TestScenarioCache:
    def spec(self, seed=2018, analyses=("bounds",)):
        return ScenarioSpec.from_dict(
            {
                "topology": {"name": "claranet"},
                "placement": {"strategy": "mdmp", "params": {"d": 3}},
                "seed": seed,
                "analyses": [{"analysis": name} for name in analyses],
            }
        )

    def test_fingerprint_ignores_analyses_and_label(self):
        a = self.spec(analyses=("bounds",))
        b = self.spec(analyses=("mu", "measurement"))
        assert spec_fingerprint(a) == spec_fingerprint(b)
        assert spec_fingerprint(a) != spec_fingerprint(self.spec(seed=7))

    def test_hit_shares_artifacts_but_not_reports(self):
        cache = ScenarioCache(maxsize=4)
        first, hit1, fp1 = cache.get_or_compile(self.spec())
        second, hit2, fp2 = cache.get_or_compile(self.spec(analyses=("mu",)))
        assert (hit1, hit2) == (False, True)
        assert fp1 == fp2
        assert second._pathset is first._pathset
        assert second._graph is first._graph
        assert second is not first
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert stats.nbytes > 0

    def test_lru_eviction(self):
        cache = ScenarioCache(maxsize=1)
        cache.get_or_compile(self.spec(seed=1))
        cache.get_or_compile(self.spec(seed=2))
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.entries == 1

    def test_byte_bound_keeps_at_least_one_entry(self):
        cache = ScenarioCache(maxsize=8, max_bytes=1)
        cache.get_or_compile(self.spec(seed=1))
        cache.get_or_compile(self.spec(seed=2))
        stats = cache.stats()
        # Each entry exceeds the byte budget on its own; the newest survives.
        assert stats.entries == 1
        assert stats.evictions == 1

    def test_engine_cache_false_bypasses(self):
        from dataclasses import replace

        cache = ScenarioCache(maxsize=4)
        spec = replace(self.spec(), engine=EngineConfig(cache=False))
        _, hit, _ = cache.get_or_compile(spec)
        assert hit is False
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.bypasses) == (0, 0, 1)
        assert stats.entries == 0


class TestExecutor:
    def test_overload_rejects_fast(self):
        executor = AnalysisExecutor(workers=1, max_inflight=1)
        assert executor.try_acquire()
        with pytest.raises(ServiceOverloadedError):
            executor.run(lambda: None)
        executor.release()

    def test_client_errors_pass_through(self):
        executor = AnalysisExecutor(workers=1, max_inflight=2)
        with pytest.raises(SpecError):
            executor.run(lambda: (_ for _ in ()).throw(SpecError("bad")))

    def test_server_errors_are_quarantined(self):
        from repro.resilience.pool import pool_counters

        executor = AnalysisExecutor(workers=1, max_inflight=2)
        before = pool_counters().trial_failures
        with pytest.raises(QuarantinedError) as excinfo:
            executor.run(
                lambda: (_ for _ in ()).throw(OSError("disk on fire")),
                label="doomed",
            )
        failure = excinfo.value.failure
        assert failure.kind == "error"
        assert "disk on fire" in failure.error
        assert failure.label == "doomed"
        assert pool_counters().trial_failures == before + 1
        assert executor.inflight == 0


class TestPathSetCacheConcurrency:
    """Satellite: the shared cache stays consistent under thread pressure."""

    def test_concurrent_lookups_keep_counters_consistent(self):
        graph = repro.claranet()
        nodes = sorted(graph.nodes())
        placements = [
            MonitorPlacement.of([nodes[i]], [nodes[i + 1]]) for i in range(6)
        ]
        cache = PathSetCache(maxsize=32)
        n_threads, rounds = 8, 30
        results = [dict() for _ in range(n_threads)]
        barrier = threading.Barrier(n_threads)

        def worker(slot):
            barrier.wait()
            for round_number in range(rounds):
                placement = placements[round_number % len(placements)]
                pathset = cache.get_or_enumerate(graph, placement, "CSP")
                results[slot].setdefault(placement, set()).add(id(pathset))

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        stats = cache.stats()
        assert stats.hits + stats.misses == n_threads * rounds
        assert stats.size == len(placements)
        assert stats.evictions == 0
        # Ties on cold keys resolve to ONE shared instance per key: every
        # thread observed the same PathSet for a given placement.
        merged = {}
        for per_thread in results:
            for placement, ids in per_thread.items():
                merged.setdefault(placement, set()).update(ids)
        for placement, ids in merged.items():
            assert len(ids) == 1, f"{placement} returned {len(ids)} instances"

    def test_concurrent_resize_and_lookups(self):
        graph = repro.claranet()
        nodes = sorted(graph.nodes())
        cache = PathSetCache(maxsize=16)
        stop = threading.Event()

        def resizer():
            size = 2
            while not stop.is_set():
                cache.resize(size)
                size = 2 if size == 16 else 16

        thread = threading.Thread(target=resizer)
        thread.start()
        try:
            for _ in range(20):
                for i in range(5):
                    placement = MonitorPlacement.of([nodes[i]], [nodes[i + 1]])
                    cache.get_or_enumerate(graph, placement, "CSP")
        finally:
            stop.set()
            thread.join()
        stats = cache.stats()
        assert stats.hits + stats.misses == 100
        assert len(cache) <= 16


class TestCacheMaxsizeKnob:
    """``PathSetCache.resize``: how ``repro-serve --cache-size`` sizes the
    process cache (no spec or request can reach it)."""

    def test_resize_evicts_down_and_counts(self):
        graph = repro.claranet()
        nodes = sorted(graph.nodes())
        cache = PathSetCache(maxsize=8)
        for i in range(5):
            placement = MonitorPlacement.of([nodes[i]], [nodes[i + 1]])
            cache.get_or_enumerate(graph, placement, "CSP")
        cache.resize(2)
        stats = cache.stats()
        assert stats.size == 2
        assert stats.evictions == 3
        with pytest.raises(ValueError):
            cache.resize(0)


# ---------------------------------------------------------------------------
# Hypothesis fuzz at the service boundary (+ the shrunk regression corpus)
# ---------------------------------------------------------------------------

# Each topology with the mdmp degrees it can actually place 2*d monitors
# for (eunetwork_small has only 7 nodes, so d=4 is a *client* error there).
_TOPOLOGY_DEGREES = [
    ({"name": "claranet"}, (2, 4)),
    ({"name": "eunetwork_small"}, (2, 3)),
]


@st.composite
def valid_spec_documents(draw):
    topology, (d_min, d_max) = draw(st.sampled_from(_TOPOLOGY_DEGREES))
    document = {
        "topology": topology,
        "placement": {
            "strategy": "mdmp",
            "params": {"d": draw(st.integers(d_min, d_max))},
        },
        "seed": draw(st.integers(0, 2**31 - 1)),
        "analyses": [{"analysis": "bounds"}],
    }
    if draw(st.booleans()):
        document["label"] = draw(st.text(max_size=12))
    return document


_MUTATIONS = [
    lambda doc: {k: v for k, v in doc.items() if k != "topology"},
    lambda doc: {k: v for k, v in doc.items() if k != "placement"},
    lambda doc: {**doc, "topology": {"name": "no-such-network"}},
    lambda doc: {**doc, "placement": {"strategy": "no-such-strategy"}},
    lambda doc: {**doc, "routing": {"mechanism": "teleport"}},
    lambda doc: {**doc, "routing": {"mechanism": "CSP", "cutoff": 0}},
    lambda doc: {**doc, "routing": {"mechanism": "CSP", "max_paths": -5}},
    lambda doc: {**doc, "failures": {"model": "exotic"}},
    lambda doc: {**doc, "failures": {"n_trials": 0}},
    lambda doc: {**doc, "failures": {"universe": {"kind": "bogus"}}},
    lambda doc: {**doc, "failures": {"universe": {"kind": "srlg", "groups": {}}}},
    lambda doc: {**doc, "analyses": [{"analysis": "no-such-analysis"}]},
    lambda doc: {**doc, "analyses": [{"analysis": "mu", "params": {"max_size": "x"}}]},
    lambda doc: {**doc, "analyses": {"not": "a list"}},
    lambda doc: {**doc, "engine": {"backend": "auto", "kernels": "quantum"}},
    lambda doc: {**doc, "seed": 1.5},
    lambda doc: {**doc, "schema_version": 99},
    lambda doc: {**doc, "surprise": True},
    lambda doc: [doc],
    lambda doc: "not json at all {",
]


@pytest.fixture(scope="module")
def fuzz_server():
    with BackgroundServer(cache_size=32, workers=2, max_inflight=8) as bg:
        yield bg


class TestAnalyzeFuzz:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(document=valid_spec_documents())
    def test_valid_documents_always_200(self, fuzz_server, document):
        status, body = request(fuzz_server, "POST", "/v1/analyze", document)
        assert status == 200, body
        assert "bounds" in body["analyses"]

    def test_retired_engine_backend_still_200(self, fuzz_server):
        """Bodies written for the removed ``engine.backend``, ``compress``
        and ``cache_maxsize`` fields parse, the fields are dropped from the
        echoed spec, and a request cannot resize the shared pathset
        cache."""
        maxsize = pathset_cache().maxsize
        document = {
            "topology": {"name": "dataxchange"},
            "placement": {"strategy": "mdmp", "params": {"d": 2}},
            "engine": {"backend": "numpy", "compress": False, "cache_maxsize": 1},
            "analyses": [{"analysis": "mu"}],
        }
        status, body = request(fuzz_server, "POST", "/v1/analyze", document)
        assert status == 200, body
        for retired in ("backend", "compress", "cache_maxsize"):
            assert retired not in body["spec"]["engine"]
        assert pathset_cache().maxsize == maxsize

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        document=valid_spec_documents(),
        mutation=st.sampled_from(_MUTATIONS),
    )
    def test_malformed_documents_always_400(self, fuzz_server, document, mutation):
        mutated = mutation(document)
        body = (
            mutated.encode("utf-8")
            if isinstance(mutated, str)
            else json.dumps(mutated).encode("utf-8")
        )
        status, response = request(fuzz_server, "POST", "/v1/analyze", body)
        # Never 500, never a traceback — the boundary contract.
        assert status in (200, 400), response
        if status == 400:
            assert isinstance(response, dict)
            assert response["error"]
            assert "Traceback" not in response["error"]

    @pytest.mark.parametrize(
        "fixture",
        sorted(glob.glob(os.path.join(CORPUS_DIR, "service_*.json"))),
        ids=lambda path: os.path.basename(path),
    )
    def test_regression_corpus_answers_400(self, fuzz_server, fixture):
        with open(fixture, "rb") as handle:
            body = handle.read()
        status, response = request(fuzz_server, "POST", "/v1/analyze", body)
        assert status == 400, response
        assert isinstance(response, dict) and response["error"]


class TestLoadgen:
    def test_replay_two_passes(self, tmp_path):
        clear_pathset_cache()
        with BackgroundServer(cache_size=16, workers=2, max_inflight=8) as bg:
            report = loadgen.replay(bg.url, [EXAMPLES_SPECS], repeat=2)
        assert report["ok"] is True
        assert report["verified_identical_passes"] is True
        assert report["n_scenarios"] == len(report["sections"]) > 0
        assert len(report["passes"]) == 2
        warm = report["passes"][1]
        assert warm["hit_rate"] >= 0.9
        assert warm["scenarios_per_second"] > 0
        for entry in report["passes"]:
            assert entry["failures"] == []

    def test_sections_match_batch_runner(self):
        from repro.experiments.runner import expand_spec_paths, run_spec_sections
        from repro.api.spec import load_spec_batch

        specs = []
        for path in expand_spec_paths([EXAMPLES_SPECS]):
            with open(path, "r", encoding="utf-8") as handle:
                specs.extend(load_spec_batch(handle.read()))
        sections = run_spec_sections(specs)
        expected = [section.data for section in sections]

        with BackgroundServer(cache_size=16, workers=2, max_inflight=8) as bg:
            report = loadgen.replay(bg.url, [EXAMPLES_SPECS], repeat=1)
        assert report["sections"] == expected

    def test_main_exit_codes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        with BackgroundServer(cache_size=8, workers=2, max_inflight=8) as bg:
            code = loadgen.main(
                [
                    "--server",
                    bg.url,
                    "--specs",
                    EXAMPLES_SPECS,
                    "--repeat",
                    "1",
                    "--output",
                    str(out),
                ]
            )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["ok"] is True
        assert loadgen.main(["--server", "127.0.0.1:1", "--specs", EXAMPLES_SPECS]) == 1
