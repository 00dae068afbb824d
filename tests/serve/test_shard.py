"""Tests for the sharded multi-process serving tier.

Each ``ShardScheduler`` start spawns real worker processes (~1s), so the
tests batch several assertions per scheduler.  Fault injection uses the
deterministic ``FaultPlan`` shard sites — the same mechanism the stress
benchmark and the CI smoke job replay — so every recovery path here is
reproducible, not racy.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import pickle
import struct
from pathlib import Path

import pytest

from repro.core.api import bpmax
from repro.observe import collecting
from repro.robust import FaultPlan
from repro.robust.errors import (
    AdmissionRejected,
    BpmaxError,
    RequestCancelled,
)
from repro.serve import ShardScheduler, SubmitRequest, route_key
from repro.serve.request import cache_key
from repro.serve.shard import KILL_EXIT

MANIFEST = Path(__file__).parent.parent / "golden" / "manifest.json"

#: generous heartbeat bound: worker spawn can take a second or two under
#: a loaded CI runner, and heartbeat staleness must not misfire there
HB_TIMEOUT = 20.0


def _golden_cases(max_len: int = 16, limit: int = 8):
    """Small golden-corpus cases with their pinned (bit-exact) scores."""
    cases = json.loads(MANIFEST.read_text())["cases"]
    picked = [
        (c["seq1"], c["seq2"], c["score"])
        for c in cases.values()
        if len(c["seq1"]) <= max_len and len(c["seq2"]) <= max_len
    ]
    assert len(picked) >= limit
    return picked[:limit]


def _tear_next_result_write() -> None:
    """In a worker process: make its next result write put the frame
    header and half of a 4 MiB body on the wire, then hard-exit.

    The hook sits at ``Connection._send_bytes``, below whatever channel
    the worker writes results through, and writes
    ``multiprocessing.connection``'s own frame layout (a 4-byte
    big-endian length, then the pickle), so the parent's reader sees a
    genuine torn message rather than garbage.
    """
    from multiprocessing.connection import Connection

    real_send_bytes = Connection._send_bytes

    def torn_send_bytes(self, buf):
        msg = pickle.loads(buf)
        if msg[0] != "res":
            return real_send_bytes(self, buf)
        payload = pickle.dumps(msg + (bytes(4 << 20),))
        frame = struct.pack("!i", len(payload)) + payload[: len(payload) // 2]
        view = memoryview(frame)
        while view:
            view = view[os.write(self.fileno(), view):]
        os._exit(KILL_EXIT)

    Connection._send_bytes = torn_send_bytes


class _TornResultWrite(FaultPlan):
    """Shard fault plan whose ``victim`` worker dies halfway through
    writing the result of its ``ordinal``-th request (after computing
    it, unlike ``shard_kills``, which exit before serving)."""

    def __init__(self, victim: int, ordinal: int, **kwargs) -> None:
        super().__init__(**kwargs)
        self.victim = victim
        self.ordinal = ordinal

    def shard_fault(self, shard: int, ordinal: int) -> str | None:
        if (shard, ordinal) == (self.victim, self.ordinal):
            _tear_next_result_write()
        return super().shard_fault(shard, ordinal)


def _shard_children() -> list:
    return [p for p in mp.active_children() if p.name.startswith("bpmax-shard-")]


class TestRouting:
    def test_route_key_is_stable_content_hash(self):
        a = SubmitRequest("GGGG", "CCCC")
        b = SubmitRequest("gggg", "cccc", id="other")  # normalizes equal
        c = SubmitRequest("GGGG", "CCCA")
        assert route_key(a) == route_key(b)
        assert route_key(a) != route_key(c)

    def test_identical_content_routes_to_one_shard(self):
        with ShardScheduler(shards=3, heartbeat_timeout_s=HB_TIMEOUT) as s:
            req = SubmitRequest("GCAUGC", "AUGCAU")
            shard = s.route(req)
            assert shard in (0, 1, 2)
            assert all(s.route(req) == shard for _ in range(5))
            # different variants share the answer's content address
            alt = SubmitRequest("GCAUGC", "AUGCAU", variant="hybrid")
            assert cache_key(req) == cache_key(alt)
            assert s.route(alt) == shard


class TestRoundTrip:
    def test_scores_cache_and_lifecycle(self):
        pairs = [("GGGG", "CCCC"), ("GCAUGC", "AUGCAU"), ("AAGGUUCC", "GGAACCUU")]
        s = ShardScheduler(shards=2, heartbeat_timeout_s=HB_TIMEOUT)
        try:
            results = s.serve_all(
                [SubmitRequest(a, b, id=f"r{i}") for i, (a, b) in enumerate(pairs)]
            )
            for (a, b), r in zip(pairs, results):
                assert r.ok, r.error
                assert r.score == bpmax(a, b).score
                assert r.shard >= 0
            # a repeat hits the worker-local cache shard (same routing)
            (again,) = s.serve_all([SubmitRequest(*pairs[0], id="again")])
            assert again.ok and again.cached
            assert again.shard == results[0].shard
            # invalid sequences fail fast with a structured error
            (bad,) = s.serve_all([SubmitRequest("XX!!XX", "CCCC", id="bad")])
            assert not bad.ok and bad.error_type == "InvalidSequenceError"
            st = s.stats
            assert st["submitted"] == 5
            assert st["completed"] == 5
            assert st["errors"] == 1
            assert st["deaths"] == 0
            assert {"admission", "latency", "workers", "queue_depth_by_class"} <= set(st)
        finally:
            s.close()
        s.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            s.submit(SubmitRequest("GGGG", "CCCC"))

    def test_unknown_priority_rejected_at_submit(self):
        with pytest.raises(BpmaxError, match="priority"):
            SubmitRequest("GGGG", "CCCC", priority="urgent")


class TestWorkerDeathRecovery:
    def test_kill_mid_stream_keeps_answers_bit_identical(self):
        """Satellite 4: a worker dies mid-batch; after respawn every
        accepted answer still matches the golden corpus bit for bit."""
        cases = _golden_cases()
        plan = FaultPlan(seed=11, shard_kills=[(0, 2), (1, 3)])
        with collecting() as counters:
            with ShardScheduler(
                shards=2,
                faults=plan,
                heartbeat_timeout_s=HB_TIMEOUT,
            ) as s:
                results = s.serve_all(
                    [
                        SubmitRequest(a, b, id=f"g{i}")
                        for i, (a, b, _score) in enumerate(cases)
                    ]
                )
                st = s.stats
        for (a, b, score), r in zip(cases, results):
            assert r.ok, f"{r.id}: {r.error}"
            assert r.score == score, (a, b)
        assert st["deaths"] >= 1
        assert st["respawns"] >= 1
        # the self-healing counters surface through repro.observe
        assert counters.worker_deaths >= 1
        assert counters.worker_respawns >= 1
        assert counters.requests_served >= len(cases)

    def test_kill_mid_result_write_spares_other_shards(self):
        """A worker killed while writing a large result body leaves a torn
        message in its own result pipe only: the other shard keeps
        answering, the victim's request is re-routed to its respawned
        generation, and close() leaves no worker process behind."""
        cases = _golden_cases()
        plan = _TornResultWrite(victim=0, ordinal=1, seed=13)
        with ShardScheduler(
            shards=2, faults=plan, heartbeat_timeout_s=HB_TIMEOUT
        ) as s:
            requests = [
                SubmitRequest(a, b, id=f"t{i}")
                for i, (a, b, _score) in enumerate(cases)
            ]
            assert {s.route(r) for r in requests} == {0, 1}
            results = s.serve_all(requests)
            st = s.stats
        for (a, b, score), r in zip(cases, results):
            assert r.ok, f"{r.id}: {r.error}"
            assert r.score == score, (a, b)
        assert st["deaths"] == 1
        assert st["respawns"] == 1
        assert st["rerouted"] >= 1
        assert _shard_children() == []

    def test_hang_detection_reroutes(self):
        plan = FaultPlan(seed=5, shard_hangs=[(0, 1)])
        with ShardScheduler(
            shards=2,
            faults=plan,
            hang_timeout_s=2.0,
            heartbeat_timeout_s=HB_TIMEOUT,
        ) as s:
            results = s.serve_all(
                [
                    SubmitRequest(a, b, id=f"h{i}")
                    for i, (a, b) in enumerate(
                        [("GGGGCCC", "GGGCCCC"), ("GCAUGCA", "UGCAUGC"), ("GGGG", "CCCC")]
                    )
                ]
            )
            st = s.stats
        for r in results:
            assert r.ok, r.error
        assert st["deaths"] >= 1  # the wedged worker was declared dead
        assert st["respawns"] >= 1


class TestOverloadShedding:
    def test_queue_full_sheds_with_structured_errors(self):
        """A wedged worker backs the queue up; beyond the class cap new
        arrivals shed immediately with AdmissionRejected — and close()
        resolves everything still queued, never stranding a future."""
        plan = FaultPlan(seed=9, shard_hangs=[(0, 1)])
        s = ShardScheduler(
            shards=1,
            queue_limit=4,  # scan cap = 2
            pipeline_depth=1,
            faults=plan,
            hang_timeout_s=60.0,  # stay wedged for the whole test
            heartbeat_timeout_s=HB_TIMEOUT,
        )
        try:
            wedge = s.submit(SubmitRequest("GGGG", "CCCC", id="wedge"))
            futs = [
                s.submit(SubmitRequest("GCAUGC", "AUGCAU", id=f"q{i}", priority="scan"))
                for i in range(5)
            ]
            shed = [f.result(timeout=10) for f in futs if f.done()]
            assert shed, "queue overflow shed nothing"
            for r in shed:
                assert not r.ok
                assert r.error_type == "AdmissionRejected"
                assert "queue full" in r.error
            assert s.stats["shed"] == len(shed)
        finally:
            s.close(cancel=True, timeout=10.0)
        # every future resolved: shed, cancelled, or (wedge) rerouted-or-
        # cancelled — zero hung futures is the whole point
        for f in [wedge, *futs]:
            r = f.result(timeout=10)
            assert r.ok or r.error_type in {
                "AdmissionRejected",
                "RequestCancelled",
                "WorkerFailure",
            }

    def test_expired_deadline_shed_at_admission(self):
        with ShardScheduler(shards=1, heartbeat_timeout_s=HB_TIMEOUT) as s:
            # deadline_s must be positive at construction; a microscopic
            # budget is expired by the time admission examines it
            r = s.submit(
                SubmitRequest("GGGGCCCC", "GGGGCCCC", id="dl", deadline_s=1e-9)
            ).result(timeout=10)
            assert not r.ok
            assert r.error_type == "DeadlineExceeded"
            assert s.stats["admission"]["shed_deadline"] >= 1


class TestDegradedFallback:
    def test_pool_collapse_degrades_to_in_process(self):
        """With no respawn budget, the only shard's death fails the pool
        and requests complete in-process (shard == -2) — degraded, not
        dead, and still bit-exact."""
        plan = FaultPlan(seed=13, shard_kills=[(0, 1)])
        with ShardScheduler(
            shards=1,
            max_respawns=0,
            faults=plan,
            heartbeat_timeout_s=HB_TIMEOUT,
        ) as s:
            first = s.submit(SubmitRequest("GGGG", "CCCC", id="die"))
            r1 = first.result(timeout=30)
            results = s.serve_all(
                [SubmitRequest("GCAUGC", "AUGCAU", id="after")]
            )
            st = s.stats
        assert st["deaths"] >= 1
        assert st["respawns"] == 0
        assert s.degraded
        # the request that rode the dying worker was replayed somewhere
        # safe; everything afterwards runs in-process
        assert r1.ok and r1.score == bpmax("GGGG", "CCCC").score
        (r2,) = results
        assert r2.ok and r2.score == bpmax("GCAUGC", "AUGCAU").score
        assert r2.shard == -2
        assert st["degraded_requests"] >= 1


class TestStartupHandshake:
    def test_every_shard_reported_before_constructor_returns(self):
        """Worker start-up is paid in the constructor, not by the first
        requests: each generation has sent its first heartbeat."""
        s = ShardScheduler(shards=2, heartbeat_timeout_s=HB_TIMEOUT)
        try:
            assert [w.ready.is_set() for w in s._workers] == [True, True]
            st = s.stats
            assert st["deaths"] == 0
            assert [w["epoch"] for w in st["workers"]] == [0, 0]
        finally:
            s.close()

    def test_silent_worker_fails_like_a_dead_one(self):
        """No first heartbeat within the timeout: the worker goes down
        through the death path (here: no respawn budget -> degraded)."""
        with ShardScheduler(
            shards=1, max_respawns=0, heartbeat_timeout_s=1e-3
        ) as s:
            assert s.degraded
            (r,) = s.serve_all([SubmitRequest("GGGG", "CCCC", id="late")])
            st = s.stats
        assert st["deaths"] == 1
        assert r.ok and r.score == bpmax("GGGG", "CCCC").score
        assert r.shard == -2
        assert not _shard_children()


class TestCancellation:
    def test_close_cancel_resolves_queued_with_request_cancelled(self):
        plan = FaultPlan(seed=21, shard_hangs=[(0, 1)])
        s = ShardScheduler(
            shards=1,
            queue_limit=32,
            pipeline_depth=1,
            faults=plan,
            hang_timeout_s=60.0,
            heartbeat_timeout_s=HB_TIMEOUT,
        )
        wedge = s.submit(SubmitRequest("GGGG", "CCCC", id="wedge"))
        queued = [
            s.submit(SubmitRequest("GCAUGC", "AUGCAU", id=f"q{i}"))
            for i in range(3)
        ]
        s.close(cancel=True, timeout=10.0)
        for f in queued:
            r = f.result(timeout=10)
            assert not r.ok
            assert r.error_type == "RequestCancelled"
            assert isinstance(RequestCancelled(""), BpmaxError)
        r = wedge.result(timeout=10)
        assert not r.ok  # cancelled or failed, but resolved
