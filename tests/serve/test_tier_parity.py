"""Tier parity: every serving path gives the same answer to the same request.

One table of requests runs through :class:`BatchScheduler`, through a
one-shard :class:`ShardScheduler` and through that tier's degraded
in-process fallback (reached as ``TestDegradedFallback`` reaches it: no
respawn budget plus an injected worker kill).  The three paths must
agree on every field that describes the answer; only the fields that
describe *where* it was computed (``batch``, ``shard``, ``cached``,
``wall_s``) may differ.
"""

from __future__ import annotations

import pytest

from repro.robust import FaultPlan
from repro.serve import BatchScheduler, ShardScheduler, SubmitRequest
from repro.serve.shard import FALLBACK_SHARD

#: generous heartbeat bound, as in test_shard.py
HB_TIMEOUT = 20.0

ANSWER_FIELDS = (
    "ok",
    "score",
    "variant",
    "structure",
    "degraded_from",
    "error_type",
    "error",
)


def _table() -> list[SubmitRequest]:
    """Fresh requests (fault plans fire once, so each path gets its own)."""
    return [
        SubmitRequest("GCAUGC", "AUGCAU", id="clean"),
        SubmitRequest("GGGAAACCC", "GGGUUUCCC", id="structure", structure=True),
        SubmitRequest("GCGCUUCG", "CGAAGCGC", id="logsumexp", semiring="logsumexp"),
        SubmitRequest("GXGG", "CCCC", id="invalid"),
        SubmitRequest(
            "GCAUGG",
            "CCAUGC",
            id="poisoned",
            faults=FaultPlan(seed=3, crash_windows=[(0, 0)]),
        ),
        SubmitRequest(
            "GGCAUU",
            "AAUGCC",
            id="poisoned-fallback",
            fallback=("baseline",),
            faults=FaultPlan(seed=4, crash_windows=[(0, 0)]),
        ),
    ]


def _answers(results) -> dict[str, tuple]:
    return {
        r.id: tuple(getattr(r, name) for name in ANSWER_FIELDS) for r in results
    }


@pytest.fixture(scope="module")
def batch_results():
    with BatchScheduler() as sched:
        return sched.serve_all(_table())


@pytest.fixture(scope="module")
def shard_results():
    with ShardScheduler(shards=1, heartbeat_timeout_s=HB_TIMEOUT) as sched:
        return sched.serve_all(_table())


@pytest.fixture(scope="module")
def fallback_results():
    with ShardScheduler(
        shards=1,
        max_respawns=0,
        faults=FaultPlan(seed=13, shard_kills=[(0, 1)]),
        heartbeat_timeout_s=HB_TIMEOUT,
    ) as sched:
        assert sched.submit(SubmitRequest("GGGG", "CCCC", id="die")).result(timeout=30).ok
        assert sched.degraded
        return sched.serve_all(_table())


def test_table_exercises_every_outcome(batch_results):
    by_id = {r.id: r for r in batch_results}
    assert by_id["clean"].ok and by_id["clean"].structure is None
    assert by_id["structure"].structure is not None
    assert by_id["logsumexp"].ok
    assert by_id["invalid"].error_type == "InvalidSequenceError"
    assert by_id["poisoned"].error_type == "EngineFailure"
    assert by_id["poisoned-fallback"].ok
    assert by_id["poisoned-fallback"].degraded_from


def test_shard_tier_matches_batch_tier(batch_results, shard_results):
    assert _answers(shard_results) == _answers(batch_results)
    assert {r.shard for r in shard_results if r.id != "invalid"} == {0}


def test_degraded_fallback_matches_batch_tier(batch_results, fallback_results):
    assert _answers(fallback_results) == _answers(batch_results)
    assert {r.shard for r in fallback_results if r.id != "invalid"} == {FALLBACK_SHARD}
