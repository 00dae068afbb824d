"""repro.serve — the async batch-serving layer.

Everything needed to run BPMax as a multi-tenant service instead of a
one-shot library call:

* :class:`~repro.serve.request.SubmitRequest` /
  :class:`~repro.serve.request.ServeResult` and the JSONL wire format
  (``bpmax serve`` / ``bpmax submit``);
* :class:`~repro.serve.cache.ResultCache` — content-addressed LRU over
  ``(seq1, seq2, scoring, backend)`` with hit/miss/eviction counters
  wired into :mod:`repro.observe`;
* :class:`~repro.serve.scheduler.BatchScheduler` — adaptive size/latency
  batching, in-flight coalescing, per-request deadline/retry/fallback,
  dispatch over :class:`~repro.parallel.pool.ParallelRunner` with one
  shared :class:`~repro.kernels.Workspace` per batch;
* :class:`~repro.serve.shard.ShardScheduler` — the multi-process tier:
  N worker processes each owning a cache shard, consistent-hash routing
  by content address, admission control with priority classes and
  expired-deadline shedding (:mod:`repro.serve.admission`), worker
  heartbeats with respawn/re-route self-healing, and graceful
  degradation to in-process execution (``bpmax serve --shards N``);
* :mod:`~repro.serve.core` — the one request path both tiers share:
  :func:`~repro.serve.core.run_request` (the only engine call), the
  :class:`ServeResult` constructors, and the future lifecycle (claim →
  deliver → account, drain, ``serve_all``, asyncio adapters);
* :mod:`~repro.serve.scenarios` — the seeded stress-scenario library
  (bursty arrivals, heavy-tail sizes, deadline storms, poisoned
  requests, worker kills) replayed by
  ``benchmarks/bench_serve_stress.py`` and the CI stress-smoke job;
* :class:`~repro.serve.http.HttpGateway` /
  :class:`~repro.serve.client.GatewayClient` — the stdlib HTTP/JSONL
  network front end (``bpmax serve --http`` / ``bpmax submit --url``):
  ``POST /v1/fold``, streaming ``POST /v1/batch``, ``GET /healthz``,
  ``GET /metrics``, with admission verdicts mapped to 429/503 +
  ``Retry-After`` and every failure in one stable JSON error envelope.

Typical use::

    from repro import serve_many

    results = serve_many([("GCGCUUCG", "CGAAGCGC"), ("GGGG", "CCCC")])

or, with explicit control::

    from repro.serve import BatchScheduler, SubmitRequest

    with BatchScheduler(max_batch=32, max_delay_s=0.005) as sched:
        fut = sched.submit(SubmitRequest("GCGC", "GCGC", id="r1"))
        print(fut.result().score)
"""

from .admission import AdmissionController, AdmissionStats
from .cache import CachedAnswer, CacheStats, ResultCache
from .client import GatewayClient, GatewayStatusError, GatewayUnavailable
from .http import (
    RETRYABLE_STATUS,
    STATUS_BY_ERROR,
    HttpGateway,
    error_envelope,
    status_for_error,
)
from .request import (
    PRIORITY_CLASSES,
    ServeResult,
    SubmitRequest,
    batch_key,
    cache_key,
    parse_request_line,
    request_from_dict,
    request_wire_dict,
    scoring_fingerprint,
)
from .scenarios import SCENARIOS, Scenario, TimedRequest, generate, get_scenario
from .scheduler import BatchScheduler, SchedulerStats
from .shard import ShardScheduler, ShardStats, route_key

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "BatchScheduler",
    "SchedulerStats",
    "ShardScheduler",
    "ShardStats",
    "route_key",
    "CachedAnswer",
    "CacheStats",
    "ResultCache",
    "PRIORITY_CLASSES",
    "ServeResult",
    "SubmitRequest",
    "batch_key",
    "cache_key",
    "parse_request_line",
    "request_from_dict",
    "request_wire_dict",
    "scoring_fingerprint",
    "HttpGateway",
    "GatewayClient",
    "GatewayStatusError",
    "GatewayUnavailable",
    "STATUS_BY_ERROR",
    "RETRYABLE_STATUS",
    "error_envelope",
    "status_for_error",
    "SCENARIOS",
    "Scenario",
    "TimedRequest",
    "generate",
    "get_scenario",
]
