"""Sharded multi-process serving tier with admission control and self-healing.

:class:`~repro.serve.scheduler.BatchScheduler` amortizes work well, but
it lives inside one GIL-bound process with no overload protection and no
isolation: a wedged kernel wedges the service.  This module grows it
into a process-pool tier:

* **N worker processes**, each owning a kernel workspace pool and an LRU
  :class:`~repro.serve.cache.ResultCache` *shard*.  Requests are routed
  by a consistent hash of the existing content address
  (:func:`~repro.serve.request.cache_key`), so the cache shards stay
  disjoint — the same request always lands on the same shard, and no
  answer is cached twice.
* **Admission control in front** (:class:`~repro.serve.admission.AdmissionController`):
  bounded per-shard queues, priority classes (``interactive`` > ``batch``
  > ``scan``) with graduated shedding, and deadline-aware load shedding —
  a request that cannot be served in time resolves *immediately* with a
  structured :class:`~repro.robust.errors.BpmaxError`-derived result
  instead of queueing toward a timeout.  Backpressure therefore surfaces
  directly on the future returned by :meth:`ShardScheduler.submit`.
* **Self-healing**: every worker is watched by a heartbeat (process
  frozen/killed) and a per-request wall clock (process wedged).  A dead
  or hung worker is killed and respawned into the same ring slot; its
  in-flight requests are re-routed with a bounded retry budget
  (:class:`~repro.robust.errors.WorkerFailure` once exhausted).  If a
  shard exhausts its respawn budget it is failed and its queue migrates
  along the ring; if the whole pool collapses the tier degrades to
  in-process execution rather than going dark.
* **Observability**: shed/reroute/death/respawn counters flow into
  :mod:`repro.observe` (``requests_shed`` / ``requests_rerouted`` /
  ``worker_deaths`` / ``worker_respawns``), lifecycle transitions are
  tracer events (``shard.death`` / ``shard.respawn`` / ...), and
  :attr:`ShardScheduler.stats` snapshots per-class queue depth and
  latency percentiles.

Fault injection reuses :class:`~repro.robust.faults.FaultPlan`:
``shard_kills`` / ``shard_hangs`` sites make a worker hard-exit or wedge
just before serving its n-th request, and the respawn path strips the
shard's faults from the replacement worker's configuration (the
fires-once transient-fault convention, across a process boundary).

The worker protocol is deliberately tiny — picklable tuples over two
channels per worker generation (a request queue in, a one-way result
pipe out, heartbeats on the result pipe) — so the parent never blocks on
a worker and a worker death can never corrupt parent state.  No channel
is shared between workers: a worker killed mid-write tears only its own
pipe, which the parent drops with that generation.  Workers are started
with the ``spawn`` method by default (override with
``BPMAX_SHARD_START=fork`` where fork-safety is understood): the parent
runs scheduler threads, and forking a threaded process is exactly the
kind of latent wedge this tier exists to survive.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import itertools
import multiprocessing as mp
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_conns
from typing import Any, Iterable, Sequence

from ..observe.metrics import active as _metrics_active
from ..observe.tracer import event, trace
from ..robust.deadline import Deadline
from ..robust.errors import (
    BpmaxError,
    DeadlineExceeded,
    RequestCancelled,
    WorkerFailure,
)
from ..robust.faults import FaultPlan
from .admission import AdmissionController, priority_rank
from .cache import CachedAnswer, ResultCache
from .request import PRIORITY_CLASSES, ServeResult, SubmitRequest, cache_key

__all__ = ["ShardScheduler", "ShardStats", "route_key"]

#: exit status a worker uses for an injected ``shard_kills`` fault, so a
#: test can tell an injected death from a real crash in the exit code
KILL_EXIT = 17

#: shard id reported by the degraded in-process fallback
FALLBACK_SHARD = -2


def _hash64(text: str) -> int:
    """Stable 64-bit hash (blake2b) — NOT Python's salted ``hash()``."""
    return int.from_bytes(
        hashlib.blake2b(text.encode(), digest_size=8).digest(), "big"
    )


def route_key(request: SubmitRequest) -> int:
    """The 64-bit ring position of a request's content address.

    Raises the same structured error as
    :func:`~repro.serve.request.cache_key` for unservable requests.
    """
    return _hash64("|".join(cache_key(request)))


class _HashRing:
    """Consistent-hash ring over shard ids with virtual nodes.

    ``replicas`` virtual points per shard smooth the key distribution;
    routing walks clockwise from the key's position to the first point
    whose shard is routable, so when a shard is failed its keyspace
    spills onto its ring successors instead of rehashing everything.
    """

    def __init__(self, shards: int, replicas: int = 64) -> None:
        points = sorted(
            (_hash64(f"shard:{s}:vnode:{r}"), s)
            for s in range(shards)
            for r in range(replicas)
        )
        self._hashes = [h for h, _ in points]
        self._shards = [s for _, s in points]

    def route(self, key_hash: int, routable: Iterable[int]) -> int | None:
        """First routable shard clockwise of ``key_hash`` (None if none)."""
        ok = set(routable)
        if not ok:
            return None
        n = len(self._hashes)
        i = bisect.bisect_right(self._hashes, key_hash)
        for off in range(n):
            s = self._shards[(i + off) % n]
            if s in ok:
                return s
        return None  # pragma: no cover - ok is non-empty


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


class _RequestExecutor:
    """One process's serving core: a cache shard plus per-shape workspaces.

    Used by every worker process (one each) and by the parent's degraded
    in-process fallback, so both paths produce identical result bodies.
    """

    #: max distinct problem shapes whose workspaces are kept warm
    MAX_WORKSPACES = 8

    def __init__(self, cache_capacity: int) -> None:
        self.cache = ResultCache(cache_capacity)
        self._workspaces: dict[tuple[int, int, str], Any] = {}

    def _workspace(self, n: int, m: int, semiring: str):
        from ..kernels import Workspace
        from ..semiring import get_semiring

        # keyed by semiring too: the algebra fixes the scratch dtype
        key = (n, m, semiring)
        ws = self._workspaces.get(key)
        if ws is None:
            if len(self._workspaces) >= self.MAX_WORKSPACES:
                self._workspaces.pop(next(iter(self._workspaces)))
            ws = Workspace(m, max(n - 1, 0), dtype=get_semiring(semiring).npdtype)
            self._workspaces[key] = ws
        return ws

    def execute(self, req: SubmitRequest, deadline_s: float | None) -> dict:
        """Serve one request; always returns a result body, never raises."""
        from ..core.api import bpmax
        from ..rna.alphabet import normalize

        def error(exc: BaseException, error_type: str | None = None) -> dict:
            return {
                "ok": False,
                "error": str(exc) or type(exc).__name__,
                "error_type": error_type or type(exc).__name__,
            }

        try:
            ckey = cache_key(req)
        except BpmaxError as exc:
            return error(exc)
        hit = self.cache.get(ckey, need_structure=req.structure)
        if hit is not None:
            return {
                "ok": True,
                "score": hit.score,
                "variant": hit.variant,
                "cached": True,
                "wall_s": 0.0,
                "structure": hit.structure if req.structure else None,
                "degraded_from": list(hit.degraded_from),
            }
        deadline = Deadline(deadline_s) if deadline_s is not None else None
        if deadline is not None and deadline.expired():
            return error(
                BpmaxError(f"deadline of {deadline.budget_s:g}s expired in queue"),
                error_type="DeadlineExceeded",
            )
        engine_kwargs: dict[str, Any] = {}
        if req.variant != "baseline":
            if req.backend is not None:
                engine_kwargs["backend"] = req.backend
            try:
                n, m = len(normalize(req.seq1)), len(normalize(req.seq2))
                engine_kwargs["workspace"] = self._workspace(n, m, req.semiring)
            except Exception:
                pass  # degenerate shape: let the engine report it
        t0 = time.perf_counter()
        try:
            res = bpmax(
                req.seq1,
                req.seq2,
                variant=req.variant,
                model=req.model,
                semiring=req.semiring,
                structure=req.structure,
                fallback=req.fallback,
                retries=req.retries,
                deadline=deadline,
                faults=req.faults,
                **engine_kwargs,
            )
        except BaseException as exc:  # poison must fail only this request
            return error(exc)
        wall = time.perf_counter() - t0
        structure = None
        if res.structure is not None:
            db1, db2 = res.structure.dotbracket()
            structure = {
                "strand1": db1,
                "strand2": db2,
                "inter": [list(p) for p in res.structure.inter],
            }
        self.cache.put(
            ckey,
            CachedAnswer(
                score=res.score,
                variant=res.variant,
                degraded_from=res.degraded_from,
                structure=structure,
            ),
        )
        return {
            "ok": True,
            "score": res.score,
            "variant": res.variant,
            "cached": False,
            "wall_s": wall,
            "structure": structure if req.structure else None,
            "degraded_from": list(res.degraded_from),
        }


def _worker_main(shard: int, epoch: int, cfg: dict, req_q, res_conn) -> None:
    """Entry point of one shard worker process.

    Protocol (all plain picklable tuples):

    * parent -> worker on ``req_q``: ``("req", token, request,
      deadline_remaining_s)`` or ``("stop",)``;
    * worker -> parent on this generation's own ``res_conn`` pipe:
      ``("res", shard, epoch, token, body)`` and ``("hb", shard, epoch)``
      heartbeats.

    The epoch stamps every message so the parent can discard output of a
    superseded worker generation after a respawn.  The heartbeat thread
    and the main thread write the one pipe, so their sends share a lock.
    """
    stop = threading.Event()
    send_lock = threading.Lock()

    def send(msg: tuple) -> None:
        with send_lock:
            res_conn.send(msg)

    def beat() -> None:
        while not stop.is_set():
            try:
                send(("hb", shard, epoch))
            except Exception:  # pragma: no cover - parent gone
                return
            stop.wait(cfg["heartbeat_s"])

    threading.Thread(target=beat, name="bpmax-shard-hb", daemon=True).start()
    executor = _RequestExecutor(cfg["cache_capacity"])
    faults: FaultPlan | None = cfg.get("faults")
    ordinal = 0
    while True:
        msg = req_q.get()
        if msg is None or msg[0] == "stop":
            break
        _, token, request, deadline_s = msg
        ordinal += 1
        if faults is not None:
            mode = faults.shard_fault(shard, ordinal)
            if mode == "kill":
                os._exit(KILL_EXIT)
            elif mode == "hang":
                # heartbeats keep flowing: a livelocked main thread with a
                # healthy heartbeat is exactly what the per-request hang
                # detector (not the heartbeat detector) must catch
                time.sleep(cfg.get("hang_sleep_s", 3600.0))
        body = executor.execute(request, deadline_s)
        try:
            send(("res", shard, epoch, token, body))
        except Exception:  # pragma: no cover - parent gone
            break
    stop.set()


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class _Task:
    """One admitted request while it lives in the parent."""

    __slots__ = (
        "request",
        "future",
        "deadline",
        "priority",
        "submitted_at",
        "seq",
        "key_hash",
        "reroutes",
        "resolved",
        "dispatched_at",
    )

    def __init__(self, request: SubmitRequest, seq: int, key_hash: int) -> None:
        self.request = request
        self.future: Future[ServeResult] = Future()
        self.deadline = (
            Deadline(request.deadline_s) if request.deadline_s is not None else None
        )
        self.priority = request.priority
        self.submitted_at = time.monotonic()
        self.seq = seq
        self.key_hash = key_hash
        self.reroutes = 0
        self.resolved = False
        self.dispatched_at = 0.0

    def heap_entry(self) -> tuple[int, int, "_Task"]:
        return (priority_rank(self.priority), self.seq, self)


class _Worker:
    """Parent-side handle of one shard worker generation."""

    __slots__ = (
        "shard",
        "epoch",
        "process",
        "req_q",
        "res_conn",
        "last_hb",
        "inflight",
        "queue",
        "state",  # "live" | "failed"
        "respawns",
        "served",
    )

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.epoch = 0
        self.process = None
        self.req_q = None
        self.res_conn = None
        self.last_hb = time.monotonic()
        self.inflight: dict[int, _Task] = {}
        self.queue: list[tuple[int, int, _Task]] = []
        self.state = "live"
        self.respawns = 0
        self.served = 0


@dataclass
class ShardStats:
    """Aggregate counters of one sharded scheduler's lifetime."""

    submitted: int = 0
    completed: int = 0
    errors: int = 0
    shed: int = 0
    shed_by_class: dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in PRIORITY_CLASSES}
    )
    rerouted: int = 0
    deaths: int = 0
    respawns: int = 0
    cancelled: int = 0
    degraded_requests: int = 0
    latencies_ms: dict[str, list[float]] = field(
        default_factory=lambda: {c: [] for c in PRIORITY_CLASSES}
    )

    #: bound on the per-class latency samples kept for percentiles
    LATENCY_SAMPLES = 8192

    def record_latency(self, priority: str, seconds: float) -> None:
        samples = self.latencies_ms[priority]
        if len(samples) >= self.LATENCY_SAMPLES:
            del samples[: self.LATENCY_SAMPLES // 2]
        samples.append(seconds * 1e3)

    @staticmethod
    def _pctl(samples: Sequence[float], q: float) -> float:
        if not samples:
            return 0.0
        ordered = sorted(samples)
        idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return ordered[idx]

    def latency_summary(self) -> dict[str, dict[str, float]]:
        return {
            cls: {
                "count": len(samples),
                "p50_ms": round(self._pctl(samples, 0.50), 3),
                "p99_ms": round(self._pctl(samples, 0.99), 3),
                "max_ms": round(max(samples), 3) if samples else 0.0,
            }
            for cls, samples in self.latencies_ms.items()
        }

    def as_dict(self) -> dict[str, Any]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "errors": self.errors,
            "shed": self.shed,
            "shed_by_class": dict(self.shed_by_class),
            "rerouted": self.rerouted,
            "deaths": self.deaths,
            "respawns": self.respawns,
            "cancelled": self.cancelled,
            "degraded_requests": self.degraded_requests,
            "latency": self.latency_summary(),
        }


class ShardScheduler:
    """Process-pool serving tier: route, admit, dispatch, heal.

    The sharded counterpart of
    :class:`~repro.serve.scheduler.BatchScheduler`, with the same
    surface (``submit`` -> :class:`~concurrent.futures.Future`,
    ``serve_all``, ``*_async`` adapters, context manager) so callers and
    the CLI can switch tiers with one flag.

    Parameters
    ----------
    shards: worker process count (>= 1).
    queue_limit: per-shard bound on still-queued requests; the
        admission controller sheds beyond it (lower priority classes
        shed earlier, see :mod:`repro.serve.admission`).
    pipeline_depth: requests kept in flight per worker; the remainder
        waits in the parent's priority queue so urgent arrivals can
        overtake and death re-routing has little to replay.
    cache_size: per-worker LRU result-cache capacity.
    est_wait_s: per-queued-request wait estimate for deadline-aware
        admission (0 disables the feasibility check).
    heartbeat_s / heartbeat_timeout_s: worker heartbeat period and the
        staleness window after which a worker counts as frozen.
    hang_timeout_s: per-request wall bound after dispatch; an in-flight
        request older than this marks the worker as hung.
    max_reroutes: death re-route budget per request before it fails
        with :class:`~repro.robust.errors.WorkerFailure`.
    max_respawns: respawn budget per shard before the shard is failed
        and its keyspace migrates along the ring.
    default_priority: class assigned to requests whose priority is the
        dataclass default.
    faults: optional :class:`~repro.robust.faults.FaultPlan` whose
        ``shard_kills`` / ``shard_hangs`` sites are shipped to workers.
    start_method: multiprocessing start method (default: ``spawn``, or
        ``BPMAX_SHARD_START`` from the environment).
    """

    def __init__(
        self,
        shards: int = 2,
        queue_limit: int = 64,
        pipeline_depth: int = 2,
        cache_size: int = 512,
        est_wait_s: float = 0.0,
        heartbeat_s: float = 0.25,
        heartbeat_timeout_s: float = 10.0,
        hang_timeout_s: float = 30.0,
        max_reroutes: int = 2,
        max_respawns: int = 3,
        monitor_interval_s: float = 0.05,
        default_priority: str = "batch",
        faults: FaultPlan | None = None,
        start_method: str | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if pipeline_depth < 1:
            raise ValueError(f"pipeline_depth must be >= 1, got {pipeline_depth}")
        if default_priority not in PRIORITY_CLASSES:
            raise ValueError(
                f"unknown default_priority {default_priority!r}; "
                f"use one of {PRIORITY_CLASSES}"
            )
        self.shards = shards
        self.pipeline_depth = pipeline_depth
        self.cache_size = cache_size
        self.heartbeat_s = heartbeat_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.hang_timeout_s = hang_timeout_s
        self.max_reroutes = max_reroutes
        self.max_respawns = max_respawns
        self.monitor_interval_s = monitor_interval_s
        self.default_priority = default_priority
        self.admission = AdmissionController(queue_limit, est_wait_s=est_wait_s)
        self._faults = faults
        method = start_method or os.environ.get("BPMAX_SHARD_START", "spawn")
        self._ctx = mp.get_context(method)
        self._ring = _HashRing(shards)
        self._lock = threading.RLock()
        self._done = threading.Condition(self._lock)
        self._seq = itertools.count()
        self._tokens = itertools.count(1)
        self._outstanding = 0
        self._closed = False
        self._stop = threading.Event()
        self._stats = ShardStats()
        #: result pipes of superseded generations, closed by the reaper
        self._retired: list = []
        self._workers = [_Worker(s) for s in range(shards)]
        self._fallback_pool: ThreadPoolExecutor | None = None
        self._fallback_exec: _RequestExecutor | None = None
        self._fallback_depth = 0
        for w in self._workers:
            self._spawn(w)
        self._reaper = threading.Thread(
            target=self._reap_loop, name="bpmax-shard-reaper", daemon=True
        )
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="bpmax-shard-monitor", daemon=True
        )
        self._reaper.start()
        self._monitor.start()

    # -- worker lifecycle -----------------------------------------------------

    def _worker_cfg(self) -> dict:
        return {
            "cache_capacity": self.cache_size,
            "heartbeat_s": self.heartbeat_s,
            "faults": self._faults,
        }

    def _spawn(self, w: _Worker) -> None:
        """Start (or restart) the worker process of one shard slot.

        Every generation gets fresh channels; the previous generation's
        result pipe is retired, so anything a dead worker left half
        written there can never reach a live one.
        """
        w.req_q = self._ctx.Queue()
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        w.process = self._ctx.Process(
            target=_worker_main,
            args=(w.shard, w.epoch, self._worker_cfg(), w.req_q, send_conn),
            name=f"bpmax-shard-{w.shard}",
            daemon=True,
        )
        try:
            w.process.start()
        except Exception:
            recv_conn.close()
            raise
        finally:
            # the child holds the only write end from here on: its exit
            # (clean or killed mid-write) reads as EOF in the reaper
            send_conn.close()
        with self._lock:
            if w.res_conn is not None:
                self._retired.append(w.res_conn)
            w.res_conn = recv_conn
        w.last_hb = time.monotonic()
        w.state = "live"

    def _routable(self) -> list[int]:
        return [w.shard for w in self._workers if w.state != "failed"]

    @property
    def degraded(self) -> bool:
        """True once every shard failed and requests run in-process."""
        with self._lock:
            return not self._routable()

    # -- submission -----------------------------------------------------------

    def submit(self, request: SubmitRequest) -> "Future[ServeResult]":
        """Admit-or-shed one request; the future always resolves.

        A shed request resolves *immediately* with a structured
        error result (``AdmissionRejected`` on a full queue,
        ``DeadlineExceeded`` for an infeasible budget) — that immediate
        resolution is the backpressure signal to the client.
        """
        if request.priority == "batch" and self.default_priority != "batch":
            request = SubmitRequest(
                **{**request.__dict__, "priority": self.default_priority}
            )
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    "ShardScheduler is closed; create a new one instead of "
                    "reusing a shut-down scheduler"
                )
            self._stats.submitted += 1
            self._outstanding += 1
        try:
            key_hash = route_key(request)
        except BpmaxError as exc:
            task = _Task(request, next(self._seq), 0)
            self._resolve(task, self._error_result(request, exc))
            return task.future
        task = _Task(request, next(self._seq), key_hash)
        shed: BpmaxError | None = None
        pump_worker: _Worker | None = None
        with self._lock:
            shard = self._ring.route(key_hash, self._routable())
            depth = (
                self._fallback_depth
                if shard is None
                else len(self._workers[shard].queue)
            )
            verdict = self.admission.admit(
                task.priority,
                depth,
                task.deadline.remaining() if task.deadline is not None else None,
            )
            if verdict is not None:
                shed = verdict
            elif shard is None:
                self._submit_fallback_migrant(task)
            else:
                pump_worker = self._workers[shard]
                heapq.heappush(pump_worker.queue, task.heap_entry())
        if shed is not None:
            self._resolve(task, self._shed_result(request, shed), shed_request=True)
        elif pump_worker is not None:
            self._pump(pump_worker)
        return task.future

    def serve_all(self, requests: Iterable[SubmitRequest]) -> list[ServeResult]:
        """Submit every request and wait (results in input order)."""
        with trace("shard.serve_all"):
            futures = [self.submit(r) for r in requests]
            return [f.result() for f in futures]

    async def submit_async(self, request: SubmitRequest) -> ServeResult:
        """Await one request from a running asyncio loop."""
        import asyncio

        return await asyncio.wrap_future(self.submit(request))

    async def serve_all_async(
        self, requests: Sequence[SubmitRequest]
    ) -> list[ServeResult]:
        """Submit concurrently and gather results in input order."""
        import asyncio

        futures = [self.submit(r) for r in requests]
        return list(await asyncio.gather(*(asyncio.wrap_future(f) for f in futures)))

    # -- degraded in-process fallback -----------------------------------------

    def _run_fallback(self, task: _Task) -> None:
        remaining = (
            task.deadline.remaining() if task.deadline is not None else None
        )
        assert self._fallback_exec is not None
        body = self._fallback_exec.execute(task.request, remaining)
        with self._lock:
            self._fallback_depth -= 1
            self._stats.degraded_requests += 1
        self._resolve(task, self._body_result(task.request, body, FALLBACK_SHARD))

    # -- dispatch -------------------------------------------------------------

    def _pump(self, w: _Worker) -> None:
        """Fill ``w``'s pipeline from its priority queue."""
        to_shed: list[tuple[_Task, ServeResult]] = []
        with self._lock:
            while (
                w.state == "live"
                and len(w.inflight) < self.pipeline_depth
                and w.queue
            ):
                _, _, task = heapq.heappop(w.queue)
                if task.resolved:
                    continue
                remaining = None
                if task.deadline is not None:
                    remaining = task.deadline.remaining()
                    if remaining < 0:
                        to_shed.append(
                            (
                                task,
                                self._shed_result(
                                    task.request,
                                    DeadlineExceeded(
                                        f"deadline of "
                                        f"{task.deadline.budget_s:g}s expired "
                                        "while queued"
                                    ),
                                ),
                            )
                        )
                        continue
                token = next(self._tokens)
                w.inflight[token] = task
                task.dispatched_at = time.monotonic()
                try:
                    w.req_q.put(("req", token, task.request, remaining))
                except Exception:  # queue torn down under us
                    w.inflight.pop(token, None)
                    heapq.heappush(w.queue, task.heap_entry())
                    break
        for task, result in to_shed:
            self._resolve(task, result, shed_request=True)

    # -- result reaping -------------------------------------------------------

    def _reap_loop(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                for conn in self._retired:
                    conn.close()
                self._retired.clear()
                conns = [
                    w.res_conn
                    for w in self._workers
                    if w.res_conn is not None and not w.res_conn.closed
                ]
            for conn in _wait_conns(conns, timeout=0.1):
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    # the writer exited, possibly mid-message: this pipe is
                    # done; the monitor respawns the worker behind it
                    conn.close()
                    continue
                self._reap(msg)

    def _reap(self, msg: tuple) -> None:
        """Account one worker message: a heartbeat or a result."""
        kind = msg[0]
        if kind == "hb":
            _, shard, epoch = msg
            with self._lock:
                w = self._workers[shard]
                if epoch == w.epoch:
                    w.last_hb = time.monotonic()
            return
        _, shard, epoch, token, body = msg
        with self._lock:
            w = self._workers[shard]
            if epoch != w.epoch:
                return  # superseded generation: task was re-routed
            w.last_hb = time.monotonic()
            task = w.inflight.pop(token, None)
            if task is not None:
                w.served += 1
        if task is not None:
            self._resolve(task, self._body_result(task.request, body, shard))
        self._pump(w)

    # -- health monitoring ----------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.monitor_interval_s):
            self._check_workers()

    def _check_workers(self) -> None:
        now = time.monotonic()
        for w in self._workers:
            with self._lock:
                if w.state != "live":
                    continue
                reason = None
                if w.process is not None and not w.process.is_alive():
                    code = w.process.exitcode
                    reason = (
                        "injected kill" if code == KILL_EXIT else f"exit {code}"
                    )
                elif w.inflight and now - w.last_hb > self.heartbeat_timeout_s:
                    reason = (
                        f"heartbeat stale {now - w.last_hb:.2f}s "
                        f"(> {self.heartbeat_timeout_s:g}s)"
                    )
                elif w.inflight and (
                    now - min(t.dispatched_at for t in w.inflight.values())
                    > self.hang_timeout_s
                ):
                    reason = f"request in flight > {self.hang_timeout_s:g}s (hung)"
            if reason is not None:
                self._worker_down(w, reason)
            self._shed_expired(w)

    def _shed_expired(self, w: _Worker) -> None:
        """Resolve queued requests whose deadline expired while waiting.

        A deadline storm must drain by *shedding*, not by dispatching
        dead work; lazily-deleted heap entries are skipped by the pump.
        """
        to_shed: list[tuple[_Task, ServeResult]] = []
        with self._lock:
            for _, _, task in w.queue:
                if (
                    not task.resolved
                    and task.deadline is not None
                    and task.deadline.expired()
                ):
                    to_shed.append(
                        (
                            task,
                            self._shed_result(
                                task.request,
                                DeadlineExceeded(
                                    f"deadline of {task.deadline.budget_s:g}s "
                                    "expired while queued"
                                ),
                            ),
                        )
                    )
        for task, result in to_shed:
            self._resolve(task, result, shed_request=True)

    def _worker_down(self, w: _Worker, reason: str) -> None:
        """Kill, account, re-route, and respawn (or fail) one worker."""
        with self._lock:
            if w.state != "live" or self._closed:
                return
            w.state = "down"
            self._stats.deaths += 1
            victims = list(w.inflight.values())
            w.inflight.clear()
        event("shard.death", shard=w.shard, epoch=w.epoch, reason=reason)
        counters = _metrics_active()
        if counters is not None:
            counters.worker_deaths += 1
        proc = w.process
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stubborn process
                proc.kill()
                proc.join(timeout=2.0)
        failed: list[_Task] = []
        with self._lock:
            # fires-once across the process boundary: the respawned worker
            # (and every later generation) must not replay this shard's
            # injected faults
            if self._faults is not None:
                self._faults = self._faults.without_shard(w.shard)
            for task in victims:
                if task.resolved:
                    continue
                task.reroutes += 1
                if task.reroutes <= self.max_reroutes:
                    heapq.heappush(w.queue, task.heap_entry())
                    self._stats.rerouted += 1
                    if counters is not None:
                        counters.requests_rerouted += 1
                    event("shard.reroute", shard=w.shard, id=task.request.id)
                else:
                    failed.append(task)
            respawn = w.respawns < self.max_respawns
            if respawn:
                w.respawns += 1
                w.epoch += 1
        for task in failed:
            self._resolve(
                task,
                self._error_result(
                    task.request,
                    WorkerFailure(
                        f"shard {w.shard} worker died ({reason}) and the "
                        f"re-route budget of {self.max_reroutes} is exhausted"
                    ),
                ),
            )
        if respawn:
            try:
                self._spawn(w)
            except Exception as exc:  # pragma: no cover - spawn failure
                event("shard.respawn_failed", shard=w.shard, error=str(exc))
                self._fail_shard(w)
                return
            self._stats.respawns += 1
            if counters is not None:
                counters.worker_respawns += 1
            event("shard.respawn", shard=w.shard, epoch=w.epoch)
            self._pump(w)
        else:
            self._fail_shard(w)

    def _fail_shard(self, w: _Worker) -> None:
        """Retire a shard slot and migrate its queue along the ring."""
        with self._lock:
            w.state = "failed"
            migrants = [t for _, _, t in w.queue if not t.resolved]
            w.queue.clear()
        event("shard.failed", shard=w.shard)
        touched: set[int] = set()
        for task in migrants:
            with self._lock:
                target = self._ring.route(task.key_hash, self._routable())
                if target is not None:
                    heapq.heappush(self._workers[target].queue, task.heap_entry())
                    touched.add(target)
                else:
                    self._submit_fallback_migrant(task)
        for shard in touched:
            self._pump(self._workers[shard])

    def _submit_fallback_migrant(self, task: _Task) -> None:
        """Route an already-admitted task to the in-process fallback."""
        if self._fallback_pool is None:
            self._fallback_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="bpmax-shard-fallback"
            )
            self._fallback_exec = _RequestExecutor(self.cache_size)
            event("shard.degraded")
        self._fallback_depth += 1
        self._fallback_pool.submit(self._run_fallback, task)

    # -- resolution -----------------------------------------------------------

    def _body_result(self, req: SubmitRequest, body: dict, shard: int) -> ServeResult:
        if not body.get("ok", False):
            return ServeResult(
                id=req.id,
                seq1=req.seq1,
                seq2=req.seq2,
                shard=shard,
                error=body.get("error", "unknown worker error"),
                error_type=body.get("error_type"),
            )
        return ServeResult(
            id=req.id,
            seq1=req.seq1,
            seq2=req.seq2,
            score=body.get("score"),
            variant=body.get("variant"),
            cached=bool(body.get("cached", False)),
            shard=shard,
            wall_s=float(body.get("wall_s", 0.0)),
            structure=body.get("structure"),
            degraded_from=tuple(body.get("degraded_from", ())),
        )

    def _error_result(self, req: SubmitRequest, exc: BaseException) -> ServeResult:
        return ServeResult(
            id=req.id,
            seq1=req.seq1,
            seq2=req.seq2,
            error=str(exc) or type(exc).__name__,
            error_type=type(exc).__name__,
        )

    def _shed_result(self, req: SubmitRequest, exc: BpmaxError) -> ServeResult:
        event("shard.shed", id=req.id, priority=req.priority,
              error=type(exc).__name__)
        return self._error_result(req, exc)

    def _resolve(
        self, task: _Task, result: ServeResult, shed_request: bool = False
    ) -> None:
        with self._lock:
            if task.resolved:
                return
            task.resolved = True
        # Deliver BEFORE accounting: drain() returns when _outstanding
        # hits zero, so the future must already be observable-done by
        # then — otherwise a gateway that flushes a stream on drain can
        # close the connection with the final line still unwritten.
        task.future.set_result(result)
        with self._lock:
            self._outstanding -= 1
            self._stats.completed += 1
            if not result.ok:
                self._stats.errors += 1
            if shed_request:
                self._stats.shed += 1
                self._stats.shed_by_class[task.priority] += 1
            else:
                self._stats.record_latency(
                    task.priority, time.monotonic() - task.submitted_at
                )
            self._done.notify_all()
        counters = _metrics_active()
        if counters is not None:
            counters.requests_served += 1
            if shed_request:
                counters.requests_shed += 1

    # -- lifecycle ------------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every submitted request resolved (True on success)."""
        with self._done:
            return self._done.wait_for(
                lambda: self._outstanding == 0, timeout=timeout
            )

    def cancel_pending(self) -> int:
        """Resolve every queued *and* in-flight request with a structured
        :class:`~repro.robust.errors.RequestCancelled` result; returns
        how many were cancelled.  In-flight work may still complete in a
        worker, but its late result is discarded — the future already
        resolved, so nothing can hang."""
        to_cancel: list[_Task] = []
        with self._lock:
            for w in self._workers:
                to_cancel.extend(t for _, _, t in w.queue if not t.resolved)
                to_cancel.extend(
                    t for t in w.inflight.values() if not t.resolved
                )
                w.queue.clear()
                w.inflight.clear()
        cancelled = 0
        for task in to_cancel:
            self._resolve(
                task,
                self._error_result(
                    task.request,
                    RequestCancelled("scheduler closed while request was pending"),
                ),
            )
            cancelled += 1
        with self._lock:
            self._stats.cancelled += cancelled
        return cancelled

    def close(self, cancel: bool = False, timeout: float = 30.0) -> None:
        """Shut the tier down; idempotent, afterwards :meth:`submit` raises.

        ``cancel=False`` (default) drains: waits up to ``timeout`` for
        outstanding requests, then cancels whatever is left so no future
        ever hangs.  ``cancel=True`` skips the wait and resolves every
        pending request with ``RequestCancelled`` immediately.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if not cancel:
            self.drain(timeout=timeout)
        self.cancel_pending()
        self._stop.set()
        for w in self._workers:
            if w.req_q is not None:
                try:
                    w.req_q.put(("stop",))
                except Exception:  # pragma: no cover - queue gone
                    pass
        self._reaper.join(timeout=5.0)
        self._monitor.join(timeout=5.0)
        for w in self._workers:
            proc = w.process
            if proc is not None:
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=2.0)
                if proc.is_alive():  # pragma: no cover - stubborn process
                    proc.kill()
                    proc.join(timeout=2.0)
            if w.req_q is not None:
                w.req_q.close()
                w.req_q.cancel_join_thread()
            if w.res_conn is not None:
                w.res_conn.close()
        with self._lock:
            for conn in self._retired:
                conn.close()
            self._retired.clear()
        if self._fallback_pool is not None:
            self._fallback_pool.shutdown(wait=True)

    def __enter__(self) -> "ShardScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection --------------------------------------------------------

    def route(self, request: SubmitRequest) -> int | None:
        """The shard a request would be routed to right now."""
        with self._lock:
            return self._ring.route(route_key(request), self._routable())

    def queue_depths(self) -> dict[str, int]:
        """Still-queued request count per priority class (snapshot)."""
        depths = {c: 0 for c in PRIORITY_CLASSES}
        with self._lock:
            for w in self._workers:
                for _, _, task in w.queue:
                    if not task.resolved:
                        depths[task.priority] += 1
        return depths

    @property
    def stats(self) -> dict[str, Any]:
        """A JSON-ready snapshot of the tier's counters and health."""
        with self._lock:
            snap = self._stats.as_dict()
            snap["outstanding"] = self._outstanding
            snap["degraded"] = not self._routable()
            snap["queue_depth_by_class"] = {
                c: 0 for c in PRIORITY_CLASSES
            }
            for w in self._workers:
                for _, _, task in w.queue:
                    if not task.resolved:
                        snap["queue_depth_by_class"][task.priority] += 1
            snap["admission"] = self.admission.stats.as_dict()
            snap["workers"] = [
                {
                    "shard": w.shard,
                    "state": w.state,
                    "epoch": w.epoch,
                    "respawns": w.respawns,
                    "queued": sum(1 for e in w.queue if not e[2].resolved),
                    "inflight": len(w.inflight),
                    "served": w.served,
                }
                for w in self._workers
            ]
        return snap
