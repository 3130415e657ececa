"""Tomography-as-a-service: the long-lived scenario server.

This subsystem turns the one-shot analyses of the paper into a service: a
thread-per-connection HTTP layer (:mod:`repro.service.app`, installed as the
``repro-serve`` console script) accepts :class:`~repro.api.spec.ScenarioSpec`
payloads, memoises compiled scenarios by spec fingerprint
(:mod:`repro.service.cache`), runs each analysis on its request's thread
under a bound on concurrent jobs, with per-request budgets and 429
backpressure (:mod:`repro.service.executor`), and streams churn replays
over chunked responses.  The replay harness
(:mod:`repro.service.loadgen`) fires a spec corpus at a running server and
reports sustained scenarios/sec plus the measured cache hit rate.

Everything here is stdlib-only (:class:`http.server.ThreadingHTTPServer`)
— no new runtime dependencies.
"""

from repro.service.cache import ScenarioCache, ScenarioCacheStats, spec_fingerprint
from repro.service.executor import AnalysisExecutor, ServiceOverloadedError

__all__ = [
    "AnalysisExecutor",
    "ScenarioCache",
    "ScenarioCacheStats",
    "ServiceOverloadedError",
    "spec_fingerprint",
]
