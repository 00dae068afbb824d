"""Regression: future delivery happens-before drain() returns.

Both schedulers used to decrement ``_outstanding`` and notify drain
waiters *before* calling ``future.set_result()``.  ``drain()`` (and so
``close()``) could then return while the last futures were still
undelivered — a gateway flushing a ``/v1/batch`` stream on drain would
close the connection with the final lines unwritten (a truncated
stream), and the worker-kill e2e test could miss its ``WorkerFailure``
line.  The fix resolves the claim flag under the lock, delivers, and
only then does the accounting that wakes drain().

These tests pin the ordering deterministically: a future subclass whose
``set_result`` dawdles makes the old ordering fail every time (drain
returns mid-sleep with futures not yet done) while the fixed ordering
cannot — drain's wake-up is now causally after the last delivery.  Both
tiers resolve through the one shared lifecycle, so patching the one
shared item class reaches both.
"""

from __future__ import annotations

import time
from concurrent.futures import Future

import pytest

import repro.serve.core as core_mod
from repro.serve import BatchScheduler, ShardScheduler, SubmitRequest

HB_TIMEOUT = 20.0


class _DawdlingFuture(Future):
    """Delivery takes a visible amount of wall time."""

    def set_result(self, result) -> None:
        time.sleep(0.05)
        super().set_result(result)


@pytest.fixture
def dawdling_futures(monkeypatch):
    """Every request item, in either tier, gets a dawdling future."""
    init = core_mod.RequestItem.__init__

    def dawdling_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.future = _DawdlingFuture()

    monkeypatch.setattr(core_mod.RequestItem, "__init__", dawdling_init)


TIERS = [
    pytest.param(
        lambda: BatchScheduler(workers=2, max_delay_s=0.001, cache=0), id="batch"
    ),
    pytest.param(
        lambda: ShardScheduler(shards=1, cache_size=0, heartbeat_timeout_s=HB_TIMEOUT),
        id="shard",
        marks=pytest.mark.slow,
    ),
]


@pytest.mark.parametrize("make_scheduler", TIERS)
def test_drain_implies_futures_done(dawdling_futures, make_scheduler):
    with make_scheduler() as sched:
        futures = [
            sched.submit(SubmitRequest("GGGG", "CCCC", id=f"r{i}"))
            for i in range(6)
        ]
        assert sched.drain(timeout=60.0)
        assert all(isinstance(fut, _DawdlingFuture) for fut in futures)
        undelivered = [i for i, fut in enumerate(futures) if not fut.done()]
        assert not undelivered, (
            f"drain() returned with futures {undelivered} not yet delivered"
        )


def test_drain_covers_coalesced_followers(dawdling_futures):
    # identical requests coalesce onto one primary; followers fan out
    # inside the same _resolve call and must also precede drain's return
    with BatchScheduler(workers=1, max_delay_s=0.05, cache=0) as sched:
        futures = [
            sched.submit(SubmitRequest("GCGC", "GCGC", id=f"dup{i}"))
            for i in range(4)
        ]
        sched.drain()
        assert all(isinstance(fut, _DawdlingFuture) for fut in futures)
        assert all(fut.done() for fut in futures)
