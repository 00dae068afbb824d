"""The one request path shared by both serving tiers.

:class:`~repro.serve.scheduler.BatchScheduler` and
:class:`~repro.serve.shard.ShardScheduler` differ in *where* a request
runs (a batch on a pool thread, a worker process, the degraded
in-process fallback) but not in *how*.  This module is the how:

* :func:`run_request` — the only call of :func:`repro.core.api.bpmax` in
  :mod:`repro.serve`, with the queue-deadline check, the engine keywords,
  the structure dict and the timing;
* :func:`error_result` / :func:`answer_result` / :func:`cached_answer` —
  the :class:`ServeResult` constructors and their cache round trip;
* :class:`RequestItem` / :class:`ServingLifecycle` — one request while a
  scheduler owns it, and the lifecycle around it: closed check,
  submitted/outstanding accounting, claim → deliver → account, drain,
  ``serve_all``, the asyncio adapters and the context manager.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Future
from dataclasses import replace
from typing import Any, Iterable, Sequence

from ..kernels import Workspace
from ..observe.metrics import active as _metrics_active
from ..robust.deadline import Deadline
from ..robust.errors import DeadlineExceeded
from ..semiring import get_semiring
from .cache import CachedAnswer
from .request import ServeResult, SubmitRequest, batch_key

__all__ = [
    "RequestItem",
    "ServingLifecycle",
    "answer_result",
    "cached_answer",
    "error_result",
    "make_workspace",
    "run_request",
]


def error_result(
    req: SubmitRequest, exc: BaseException, batch: int = -1
) -> ServeResult:
    """The failed :class:`ServeResult` of ``req``, typed by ``exc``."""
    return ServeResult(
        id=req.id,
        seq1=req.seq1,
        seq2=req.seq2,
        batch=batch,
        error=str(exc) or type(exc).__name__,
        error_type=type(exc).__name__,
    )


def answer_result(req: SubmitRequest, answer: CachedAnswer) -> ServeResult:
    """``req``'s cached :class:`ServeResult` from an answer computed before."""
    return ServeResult(
        id=req.id,
        seq1=req.seq1,
        seq2=req.seq2,
        score=answer.score,
        variant=answer.variant,
        cached=True,
        structure=answer.structure if req.structure else None,
        degraded_from=answer.degraded_from,
    )


def cached_answer(result: ServeResult) -> CachedAnswer:
    """The engine-independent part of a successful result, for the cache."""
    return CachedAnswer(
        score=result.score,
        variant=result.variant,
        degraded_from=result.degraded_from,
        structure=result.structure,
    )


def make_workspace(req: SubmitRequest) -> Workspace | None:
    """A kernel workspace sized for ``req``'s shape and algebra.

    ``None`` for the baseline engine (it takes none) and for degenerate
    shapes such as an empty strand, which have no valid workspace; the
    engine then reports its own structured error.
    """
    if req.variant == "baseline":
        return None
    try:
        n, m = batch_key(req)[:2]
        # the semiring fixes the scratch dtype
        return Workspace(m, max(n - 1, 0), dtype=get_semiring(req.semiring).npdtype)
    except Exception:
        return None


def run_request(
    req: SubmitRequest,
    deadline: Deadline | None,
    workspace: Workspace | None = None,
    batch: int = -1,
) -> ServeResult:
    """Serve one request on an engine; returns a result, never raises.

    ``deadline`` started at submission, so a request whose budget ran
    out in a queue fails here without touching an engine.  ``bpmax`` is
    looked up on :mod:`repro.core.api` at call time, so wrapping that
    name observes every engine call of both tiers.
    """
    from ..core import api  # local import: api imports serve

    if deadline is not None and deadline.expired():
        return error_result(
            req,
            DeadlineExceeded(f"deadline of {deadline.budget_s:g}s expired while queued"),
            batch,
        )
    engine_kwargs: dict[str, Any] = {}
    if req.variant != "baseline":
        if req.backend is not None:
            engine_kwargs["backend"] = req.backend
        if workspace is not None:
            engine_kwargs["workspace"] = workspace
    t0 = time.perf_counter()
    try:
        res = api.bpmax(
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
        wall = time.perf_counter() - t0
        structure = None
        if res.structure is not None:
            db1, db2 = res.structure.dotbracket()
            structure = {
                "strand1": db1,
                "strand2": db2,
                "inter": [list(p) for p in res.structure.inter],
            }
    except BaseException as exc:  # a poisoned request fails only itself
        return error_result(req, exc, batch)
    return ServeResult(
        id=req.id,
        seq1=req.seq1,
        seq2=req.seq2,
        score=res.score,
        variant=res.variant,
        batch=batch,
        wall_s=wall,
        structure=structure,
        degraded_from=res.degraded_from,
    )


class RequestItem:
    """One submitted request while a scheduler owns it."""

    __slots__ = ("request", "future", "deadline", "submitted_at", "resolved")

    def __init__(self, request: SubmitRequest) -> None:
        self.request = request
        self.future: Future[ServeResult] = Future()
        # the budget starts at submission: queueing counts against it
        self.deadline = (
            Deadline(request.deadline_s) if request.deadline_s is not None else None
        )
        self.submitted_at = time.monotonic()
        self.resolved = False


class ServingLifecycle:
    """The future lifecycle both scheduler tiers share.

    Subclasses set ``self._stats`` (with ``submitted`` / ``completed`` /
    ``errors`` counters), implement ``submit`` and ``close``, and may
    override the three hooks :meth:`flush`, :meth:`_settle` and
    :meth:`_account`.
    """

    def __init__(self) -> None:
        self._lock = threading.Condition(threading.RLock())
        self._closed = False
        self._outstanding = 0

    # -- hooks ----------------------------------------------------------------

    def flush(self) -> None:
        """Dispatch queued work now (a no-op where nothing waits)."""

    def _settle(self, item: RequestItem, result: ServeResult) -> list[RequestItem]:
        """Tier bookkeeping between claim and delivery; returns the
        followers that share ``item``'s result."""
        return []

    def _account(self, item: RequestItem, result: ServeResult, shed: bool) -> None:
        """Tier counters, called under the lock after delivery."""

    # -- submission -----------------------------------------------------------

    def _accept(self) -> None:
        """Refuse work once closed; otherwise count one more request."""
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    f"{type(self).__name__} is closed; create a new one "
                    "instead of reusing a shut-down scheduler"
                )
            self._stats.submitted += 1
            self._outstanding += 1

    def serve_all(self, requests: Iterable[SubmitRequest]) -> list[ServeResult]:
        """Submit every request, flush, and wait (results in input order)."""
        futures = [self.submit(r) for r in requests]
        self.flush()
        return [f.result() for f in futures]

    async def submit_async(self, request: SubmitRequest) -> ServeResult:
        """Await one request from a running asyncio loop."""
        return await asyncio.wrap_future(self.submit(request))

    async def serve_all_async(
        self, requests: Sequence[SubmitRequest]
    ) -> list[ServeResult]:
        """Submit concurrently and gather results in input order."""
        futures = [self.submit(r) for r in requests]
        self.flush()
        return list(await asyncio.gather(*(asyncio.wrap_future(f) for f in futures)))

    # -- resolution -----------------------------------------------------------

    def _resolve(
        self, item: RequestItem, result: ServeResult, shed: bool = False
    ) -> None:
        """Claim ``item``, deliver ``result`` to it and its followers, account.

        The first resolver wins the claim; later ones return quietly.
        """
        with self._lock:
            if item.resolved:
                return
            item.resolved = True
        followers = self._settle(item, result)
        # Deliver BEFORE accounting: drain() returns when _outstanding
        # hits zero, so every future (primary and followers) must be
        # observable-done by then — otherwise a gateway that flushes a
        # stream on drain can close the connection with lines unwritten.
        item.future.set_result(result)
        for f in followers:
            f.future.set_result(
                replace(
                    result,
                    id=f.request.id,
                    cached=result.ok,
                    wall_s=0.0,
                    structure=result.structure if f.request.structure else None,
                )
            )
        n = 1 + len(followers)
        with self._lock:
            self._outstanding -= n
            self._stats.completed += n
            if not result.ok:
                self._stats.errors += n
            self._account(item, result, shed)
            self._lock.notify_all()
        counters = _metrics_active()
        if counters is not None:
            counters.requests_served += n

    # -- lifecycle ------------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every submitted request resolved (True on success)."""
        self.flush()
        with self._lock:
            return self._lock.wait_for(lambda: self._outstanding == 0, timeout=timeout)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
