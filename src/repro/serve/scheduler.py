"""Adaptive batch scheduler: the async request-serving core.

Turns one-shot :func:`~repro.core.api.bpmax` calls into a multi-tenant
service.  Amortization comes from three places, in order of strength:

1. **content-addressed caching** — identical ``(seq1, seq2, scoring,
   backend)`` requests are answered from the
   :class:`~repro.serve.cache.ResultCache` without touching an engine;
2. **in-flight coalescing** — a request identical to one already queued
   or running attaches to it as a *follower* and shares its single
   computation (the classic thundering-herd dedup);
3. **shape batching** — distinct requests with the same
   :func:`~repro.serve.request.batch_key` (problem shape, scoring,
   variant, backend) are grouped into batches and executed back-to-back
   on one worker, sharing a single :class:`~repro.kernels.Workspace`
   so the zero-allocation hot path warms up once per batch instead of
   once per request.

Batches form adaptively between two watermarks: a group dispatches as
soon as it holds ``max_batch`` requests (size watermark) or when its
oldest member has waited ``max_delay_s`` (latency watermark), whichever
comes first.  Dispatch fans out over the existing
:class:`~repro.parallel.pool.ParallelRunner`, so ``workers`` batches
execute concurrently (NumPy releases the GIL in the kernels).

Robustness is per-request, reusing :mod:`repro.robust` end to end: each
request may carry a :class:`~repro.robust.deadline.Deadline` budget
(started at *submission*, so queueing counts), a retry count and a
fallback chain.  A poisoned request — invalid sequence, expired budget,
crashing engine — degrades to an error :class:`ServeResult` on its own
future; the rest of its batch is unaffected and the service never dies.

The scheduler is thread-safe and loop-agnostic: ``submit`` returns a
:class:`concurrent.futures.Future`, and the ``*_async`` wrappers adapt
it to any running asyncio loop via :func:`asyncio.wrap_future`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import Any

from ..observe.metrics import active as _metrics_active
from ..observe.tracer import trace
from ..parallel.pool import ParallelRunner
from ..robust.errors import BpmaxError, RequestCancelled
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
from .request import ServeResult, SubmitRequest, batch_key, cache_key

__all__ = ["BatchScheduler", "SchedulerStats"]


@dataclass
class SchedulerStats:
    """Aggregate counters of one scheduler's lifetime."""

    submitted: int = 0
    completed: int = 0
    errors: int = 0
    coalesced: int = 0
    batches: int = 0
    batched_requests: int = 0
    max_batch_size: int = 0
    cache: dict[str, Any] = field(default_factory=dict)

    def mean_batch_size(self) -> float:
        return self.batched_requests / self.batches if self.batches else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "errors": self.errors,
            "coalesced": self.coalesced,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "max_batch_size": self.max_batch_size,
            "mean_batch_size": round(self.mean_batch_size(), 3),
            "cache": dict(self.cache),
        }


class _Pending(RequestItem):
    """One queued primary request plus the followers coalesced onto it."""

    __slots__ = ("followers",)

    def __init__(self, request: SubmitRequest) -> None:
        super().__init__(request)
        self.followers: list[_Pending] = []


class BatchScheduler(ServingLifecycle):
    """Queue, batch, dedup and dispatch :class:`SubmitRequest` s.

    Parameters
    ----------
    max_batch: size watermark — a shape group dispatches immediately
        once it holds this many requests.
    max_delay_s: latency watermark — a group dispatches once its oldest
        member has queued this long, full or not.
    workers: concurrent batch executions (one
        :class:`~repro.parallel.pool.ParallelRunner` worker each).
    cache: a preconfigured :class:`ResultCache`, or an int capacity
        (0 disables caching).
    """

    def __init__(
        self,
        max_batch: int = 16,
        max_delay_s: float = 0.01,
        workers: int = 2,
        cache: ResultCache | int = 1024,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_s < 0:
            raise ValueError(f"max_delay_s must be >= 0, got {max_delay_s}")
        super().__init__()
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.cache = cache if isinstance(cache, ResultCache) else ResultCache(cache)
        self._pool = ParallelRunner(max(1, workers))
        self._groups: dict[tuple, list[_Pending]] = {}
        self._group_since: dict[tuple, float] = {}
        self._ready: deque[list[_Pending]] = deque()
        self._inflight: dict[tuple, _Pending] = {}
        self._batch_seq = 0
        self._stats = SchedulerStats()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="bpmax-serve-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # -- submission -----------------------------------------------------------

    def submit(self, request: SubmitRequest) -> "Future[ServeResult]":
        """Enqueue one request; resolve its future when the answer is in.

        Submit-time fast paths (no batch involved): an unservable
        request (invalid sequence) fails immediately, and a cache hit
        resolves immediately.  Everything else is queued for batching
        or coalesced onto an identical in-flight request.
        """
        pending = _Pending(request)
        self._accept()
        try:
            ckey = cache_key(request)
        except BpmaxError as exc:
            self._resolve(pending, error_result(request, exc))
            return pending.future
        hit = self.cache.get(ckey, need_structure=request.structure)
        if hit is not None:
            self._resolve(pending, answer_result(request, hit))
            return pending.future
        coalesce_key = (ckey, request.structure)
        with self._lock:
            primary = self._inflight.get(coalesce_key)
            if primary is not None:
                primary.followers.append(pending)
                self._stats.coalesced += 1
                return pending.future
            self._inflight[coalesce_key] = pending
            bkey = batch_key(request)
            group = self._groups.setdefault(bkey, [])
            if not group:
                self._group_since[bkey] = pending.submitted_at
            group.append(pending)
            if len(group) >= self.max_batch:
                self._ready.append(self._groups.pop(bkey))
                self._group_since.pop(bkey, None)
            self._lock.notify_all()
        return pending.future

    # -- lifecycle ------------------------------------------------------------

    def flush(self) -> None:
        """Dispatch every queued group now, ignoring the watermarks."""
        with self._lock:
            self._flush_locked()
            self._lock.notify_all()

    def cancel_pending(self) -> int:
        """Resolve every still-queued request with a structured
        :class:`~repro.robust.errors.RequestCancelled` result.

        Only undispatched requests are cancelled — batches already
        running (or queued on the pool) complete normally and resolve
        their own futures.  Returns the number of requests cancelled
        (followers included).  Every cancelled future *resolves*: a
        cancellation is an answer, never a hang.
        """
        with self._lock:
            victims: list[_Pending] = []
            for bkey in list(self._groups):
                victims.extend(self._groups.pop(bkey))
                self._group_since.pop(bkey, None)
            while self._ready:
                victims.extend(self._ready.popleft())
            self._lock.notify_all()
        cancelled = 0
        for pending in victims:
            cancelled += 1 + len(pending.followers)
            self._resolve(
                pending,
                error_result(
                    pending.request,
                    RequestCancelled(
                        "request cancelled before dispatch "
                        "(scheduler shutting down)"
                    ),
                ),
            )
        return cancelled

    def close(self, cancel: bool = False) -> None:
        """Shut down and release the pool.  Idempotent; afterwards
        :meth:`submit` raises.

        By default queued work is flushed and completed.  With
        ``cancel=True`` undispatched requests are instead resolved
        immediately with structured
        :class:`~repro.robust.errors.RequestCancelled` results (running
        batches still complete) — fast shutdown without ever stranding
        a future.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if cancel:
            self.cancel_pending()
        self.flush()
        self._dispatcher.join()
        self._pool.close()
        # belt and braces: anything that slipped past the dispatcher
        # after the pool closed resolves as cancelled, never hangs
        self.cancel_pending()

    @property
    def stats(self) -> SchedulerStats:
        """A snapshot of the scheduler's aggregate counters."""
        with self._lock:
            snap = replace(self._stats)
        snap.cache = self.cache.stats.as_dict()
        return snap

    # -- dispatcher -----------------------------------------------------------

    def _flush_locked(self) -> None:
        for bkey in list(self._groups):
            self._ready.append(self._groups.pop(bkey))
            self._group_since.pop(bkey, None)

    def _dispatch_loop(self) -> None:
        while True:
            due: list[list[_Pending]] = []
            with self._lock:
                now = time.monotonic()
                for bkey, since in list(self._group_since.items()):
                    if now - since >= self.max_delay_s:
                        self._ready.append(self._groups.pop(bkey))
                        self._group_since.pop(bkey, None)
                while self._ready:
                    due.append(self._ready.popleft())
                if not due:
                    if self._closed and not self._groups:
                        return
                    if self._group_since:
                        oldest = min(self._group_since.values())
                        timeout = max(0.0, oldest + self.max_delay_s - now)
                    else:
                        timeout = None
                    self._lock.wait(timeout)
                    continue
            for batch in due:
                with self._lock:
                    self._batch_seq += 1
                    batch_id = self._batch_seq
                    self._stats.batches += 1
                    self._stats.batched_requests += len(batch)
                    self._stats.max_batch_size = max(
                        self._stats.max_batch_size, len(batch)
                    )
                counters = _metrics_active()
                if counters is not None:
                    counters.batches_dispatched += 1
                fut = self._pool.submit(self._execute_batch, batch, batch_id)
                fut.add_done_callback(
                    lambda f, b=batch, i=batch_id: self._reap_batch(f, b, i)
                )

    def _reap_batch(self, fut: Future, batch: list[_Pending], batch_id: int) -> None:
        """Last line of defence: if a batch task itself crashed, fail its
        unresolved members instead of stranding their futures forever."""
        exc = fut.exception()
        if exc is None:
            return
        for pending in batch:  # pragma: no cover - defensive
            self._resolve(pending, error_result(pending.request, exc, batch_id))

    # -- execution ------------------------------------------------------------

    def _execute_batch(self, batch: list[_Pending], batch_id: int) -> None:
        req0 = batch[0].request
        # all members share a batch_key, hence one (n, m), one semiring
        # and one workspace; the batch runs sequentially on this thread
        # so sharing is safe (Workspace forbids concurrent engines)
        workspace = make_workspace(req0)
        with trace("serve.batch", id=batch_id, size=len(batch), variant=req0.variant):
            for pending in batch:
                self._resolve(
                    pending,
                    run_request(pending.request, pending.deadline, workspace, batch_id),
                )

    # -- resolution -----------------------------------------------------------

    def _settle(self, pending: _Pending, result: ServeResult) -> list[_Pending]:
        """Cache a fresh answer and release the in-flight entry.

        The answer enters the cache *before* the in-flight entry is
        removed, so a racing identical submit either coalesces (and is
        fanned out with the followers) or hits the cache — it never
        recomputes.
        """
        req = pending.request
        try:
            ckey = cache_key(req)
        except BpmaxError:  # failed at submit: never cached nor in flight
            return []
        if result.ok and not result.cached:
            self.cache.put(ckey, cached_answer(result))
        with self._lock:
            followers = pending.followers
            pending.followers = []
            key = (ckey, req.structure)
            if self._inflight.get(key) is pending:
                del self._inflight[key]
        return followers
