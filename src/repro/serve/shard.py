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
  > ``scan``) with graduated shedding, and deadline shedding — a request
  whose deadline already expired resolves *immediately* with a
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

Workers, the in-process fallback and
:class:`~repro.serve.scheduler.BatchScheduler` serve a request through
the same :func:`~repro.serve.core.run_request`, and this tier resolves
futures through the same :class:`~repro.serve.core.ServingLifecycle`.

The worker protocol is deliberately tiny — picklable tuples over two
channels per worker generation (a request queue in, a one-way result
pipe out, heartbeats on the result pipe) — so the parent never blocks on
a worker and a worker death can never corrupt parent state.  No channel
is shared between workers: a worker killed mid-write tears only its own
pipe, which the parent drops with that generation.  Workers are always
started with the ``spawn`` method: the parent runs scheduler threads,
and forking a threaded process is exactly the kind of latent wedge this
tier exists to survive.
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
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as _wait_conns
from typing import Any, Iterable, Sequence

from ..observe.metrics import active as _metrics_active
from ..observe.tracer import event
from ..robust.deadline import Deadline
from ..robust.errors import (
    BpmaxError,
    DeadlineExceeded,
    RequestCancelled,
    WorkerFailure,
)
from ..robust.faults import FaultPlan
from .admission import AdmissionController, priority_rank
from .cache import ResultCache
from .core import (
    RequestItem,
    ServingLifecycle,
    answer_result,
    cached_answer,
    error_result,
    make_workspace,
    run_request,
)
from .request import PRIORITY_CLASSES, ServeResult, SubmitRequest, cache_key

__all__ = ["ShardScheduler", "ShardStats", "route_key"]

#: exit status a worker uses for an injected ``shard_kills`` fault, so a
#: test can tell an injected death from a real crash in the exit code
KILL_EXIT = 17

#: shard id reported by the degraded in-process fallback
FALLBACK_SHARD = -2

#: worker heartbeat period, and how often the parent checks worker health
HEARTBEAT_S = 0.25
MONITOR_INTERVAL_S = 0.05

#: workers run in fresh interpreters: the parent is multi-threaded
_MP = mp.get_context("spawn")


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
    in-process fallback.
    """

    #: max distinct problem shapes whose workspaces are kept warm
    MAX_WORKSPACES = 8

    def __init__(self, cache_capacity: int) -> None:
        self.cache = ResultCache(cache_capacity)
        self._workspaces: dict[tuple, Any] = {}

    def serve(self, req: SubmitRequest, deadline: Deadline | None) -> ServeResult:
        """Serve one request from the cache or an engine; never raises."""
        try:
            ckey = cache_key(req)
        except BpmaxError as exc:
            return error_result(req, exc)
        hit = self.cache.get(ckey, need_structure=req.structure)
        if hit is not None:
            return answer_result(req, hit)
        # keyed by semiring too: the algebra fixes the scratch dtype
        shape = (len(ckey[0]), len(ckey[1]), req.semiring)
        ws = self._workspaces.get(shape)
        if ws is None:
            ws = make_workspace(req)
            if ws is not None:
                if len(self._workspaces) >= self.MAX_WORKSPACES:
                    self._workspaces.pop(next(iter(self._workspaces)))
                self._workspaces[shape] = ws
        result = run_request(req, deadline, ws)
        if result.ok:
            self.cache.put(ckey, cached_answer(result))
        return result


def _worker_main(
    shard: int, epoch: int, cache_capacity: int, faults: FaultPlan | None, req_q, res_conn
) -> None:
    """Entry point of one shard worker process.

    Protocol (all plain picklable tuples):

    * parent -> worker on ``req_q``: ``("req", token, request,
      deadline_remaining_s)`` or ``("stop",)``;
    * worker -> parent on this generation's own ``res_conn`` pipe:
      ``("res", shard, epoch, token, result)`` with the
      :class:`~repro.serve.request.ServeResult` itself, and
      ``("hb", shard, epoch)`` heartbeats.

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
            stop.wait(HEARTBEAT_S)

    threading.Thread(target=beat, name="bpmax-shard-hb", daemon=True).start()
    executor = _RequestExecutor(cache_capacity)
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
                time.sleep(3600.0)
        deadline = Deadline(deadline_s) if deadline_s is not None else None
        result = executor.serve(request, deadline)
        try:
            send(("res", shard, epoch, token, result))
        except Exception:  # pragma: no cover - parent gone
            break
    stop.set()


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class _Task(RequestItem):
    """One admitted request while it lives in the parent."""

    __slots__ = ("priority", "seq", "key_hash", "reroutes", "dispatched_at")

    def __init__(self, request: SubmitRequest, seq: int, key_hash: int) -> None:
        super().__init__(request)
        self.priority = request.priority
        self.seq = seq
        self.key_hash = key_hash
        self.reroutes = 0
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
        "ready",
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
        self.ready = threading.Event()
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


class ShardScheduler(ServingLifecycle):
    """Process-pool serving tier: route, admit, dispatch, heal.

    The sharded counterpart of
    :class:`~repro.serve.scheduler.BatchScheduler`, with the same
    surface (``submit`` -> :class:`~concurrent.futures.Future`, and from
    the shared :class:`~repro.serve.core.ServingLifecycle` ``drain``,
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
    heartbeat_timeout_s: staleness window after which a worker whose
        heartbeats (every :data:`HEARTBEAT_S`) stopped counts as frozen;
        also bounds the constructor's wait for every worker's first
        heartbeat (a worker silent past it goes down like a dead one).
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
    """

    def __init__(
        self,
        shards: int = 2,
        queue_limit: int = 64,
        pipeline_depth: int = 2,
        cache_size: int = 512,
        heartbeat_timeout_s: float = 10.0,
        hang_timeout_s: float = 30.0,
        max_reroutes: int = 2,
        max_respawns: int = 3,
        default_priority: str = "batch",
        faults: FaultPlan | None = None,
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
        super().__init__()
        self.shards = shards
        self.pipeline_depth = pipeline_depth
        self.cache_size = cache_size
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.hang_timeout_s = hang_timeout_s
        self.max_reroutes = max_reroutes
        self.max_respawns = max_respawns
        self.default_priority = default_priority
        self.admission = AdmissionController(queue_limit)
        self._faults = faults
        self._ring = _HashRing(shards)
        self._seq = itertools.count()
        self._tokens = itertools.count(1)
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
        # start-up handshake: return only once every worker has imported
        # the package and sent its first heartbeat, so process start-up
        # never lands in request latency; a silent worker counts as dead
        until = time.monotonic() + heartbeat_timeout_s
        for w in self._workers:
            epoch, ready = w.epoch, w.ready
            if not ready.wait(max(0.0, until - time.monotonic())) and w.epoch == epoch:
                self._worker_down(
                    w, f"no heartbeat within {heartbeat_timeout_s:g}s of start"
                )

    # -- worker lifecycle -----------------------------------------------------

    def _spawn(self, w: _Worker) -> None:
        """Start (or restart) the worker process of one shard slot.

        Every generation gets fresh channels; the previous generation's
        result pipe is retired, so anything a dead worker left half
        written there can never reach a live one.
        """
        w.req_q = _MP.Queue()
        recv_conn, send_conn = _MP.Pipe(duplex=False)
        w.process = _MP.Process(
            target=_worker_main,
            args=(w.shard, w.epoch, self.cache_size, self._faults, w.req_q, send_conn),
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
        w.ready = threading.Event()
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
        ``DeadlineExceeded`` for an expired budget) — that immediate
        resolution is the backpressure signal to the client.
        """
        if request.priority == "batch" and self.default_priority != "batch":
            request = SubmitRequest(
                **{**request.__dict__, "priority": self.default_priority}
            )
        self._accept()
        try:
            key_hash = route_key(request)
        except BpmaxError as exc:
            task = _Task(request, next(self._seq), 0)
            self._resolve(task, error_result(request, exc))
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
            self._shed(task, shed)
        elif pump_worker is not None:
            self._pump(pump_worker)
        return task.future

    # -- degraded in-process fallback -----------------------------------------

    def _run_fallback(self, task: _Task) -> None:
        assert self._fallback_exec is not None
        result = self._fallback_exec.serve(task.request, task.deadline)
        with self._lock:
            self._fallback_depth -= 1
            self._stats.degraded_requests += 1
        self._resolve(task, replace(result, shard=FALLBACK_SHARD))

    # -- dispatch -------------------------------------------------------------

    def _pump(self, w: _Worker) -> None:
        """Fill ``w``'s pipeline from its priority queue."""
        expired: list[_Task] = []
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
                        expired.append(task)
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
        self._shed_queued(expired)

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
                    w.ready.set()
            return
        _, shard, epoch, token, result = msg
        with self._lock:
            w = self._workers[shard]
            if epoch != w.epoch:
                return  # superseded generation: task was re-routed
            w.last_hb = time.monotonic()
            task = w.inflight.pop(token, None)
            if task is not None:
                w.served += 1
        if task is not None:
            self._resolve(task, replace(result, shard=shard))
        self._pump(w)

    # -- health monitoring ----------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stop.wait(MONITOR_INTERVAL_S):
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
        with self._lock:
            expired = [
                task
                for _, _, task in w.queue
                if not task.resolved
                and task.deadline is not None
                and task.deadline.expired()
            ]
        self._shed_queued(expired)

    def _shed_queued(self, expired: list[_Task]) -> None:
        for task in expired:
            self._shed(
                task,
                DeadlineExceeded(
                    f"deadline of {task.deadline.budget_s:g}s expired while queued"
                ),
            )

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
                error_result(
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

    def _shed(self, task: _Task, exc: BpmaxError) -> None:
        event("shard.shed", id=task.request.id, priority=task.priority,
              error=type(exc).__name__)
        self._resolve(task, error_result(task.request, exc), shed=True)

    def _account(self, task: _Task, result: ServeResult, shed: bool) -> None:
        if shed:
            self._stats.shed += 1
            self._stats.shed_by_class[task.priority] += 1
            counters = _metrics_active()
            if counters is not None:
                counters.requests_shed += 1
        else:
            self._stats.record_latency(
                task.priority, time.monotonic() - task.submitted_at
            )

    # -- lifecycle ------------------------------------------------------------

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
                error_result(
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
