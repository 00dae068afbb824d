"""Admission control for the sharded serving tier.

A service pushed past capacity has exactly two honest options: make the
client wait a *bounded* amount of time, or tell it "no" immediately.
Everything else — unbounded queues, silent timeouts — converts overload
into latency collapse.  The :class:`AdmissionController` implements the
"no" path:

* **bounded queues** — each shard accepts at most ``queue_limit``
  still-queued requests; beyond that, new arrivals are rejected with a
  structured :class:`~repro.robust.errors.AdmissionRejected` instead of
  queueing toward an inevitable timeout;
* **graduated priority shedding** — each priority class only gets a
  fraction of the bound (interactive 100%, batch 75%, scan 50%), so as
  a queue fills, ``scan`` traffic is shed first, then ``batch``, and
  ``interactive`` requests keep being admitted until the queue is
  *actually* full — the classic water-mark scheme;
* **deadline shedding** — a request whose deadline has already expired
  is rejected at admission (fail fast) rather than queued until its
  ``DeadlineExceeded`` fires after the work was already wasted.

The controller is a pure policy object: it never touches queues itself,
it just answers "admit or shed, and why" from the depths the scheduler
reports.  That keeps it deterministic and directly unit-testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..robust.errors import AdmissionRejected, DeadlineExceeded
from .request import PRIORITY_CLASSES

__all__ = ["AdmissionController", "AdmissionStats", "priority_rank"]

#: class -> fraction of ``queue_limit`` that class may fill
_CLASS_FILL = {"interactive": 1.0, "batch": 0.75, "scan": 0.5}

_RANK = {name: rank for rank, name in enumerate(PRIORITY_CLASSES)}


def priority_rank(priority: str) -> int:
    """Numeric urgency of a class (lower is more urgent)."""
    return _RANK[priority]


@dataclass
class AdmissionStats:
    """Monotonic counters of one controller's decisions."""

    admitted: int = 0
    shed_queue_full: int = 0
    shed_deadline: int = 0
    shed_by_class: dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in PRIORITY_CLASSES}
    )

    @property
    def shed(self) -> int:
        return self.shed_queue_full + self.shed_deadline

    def as_dict(self) -> dict:
        return {
            "admitted": self.admitted,
            "shed": self.shed,
            "shed_queue_full": self.shed_queue_full,
            "shed_deadline": self.shed_deadline,
            "shed_by_class": dict(self.shed_by_class),
        }


class AdmissionController:
    """Decide admit-or-shed for one scheduler's queues.

    Parameters
    ----------
    queue_limit: per-shard bound on still-queued (undispatched)
        requests; the hard cap for ``interactive``, with lower classes
        capped at their :data:`_CLASS_FILL` fraction.
    """

    def __init__(self, queue_limit: int = 64) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.queue_limit = queue_limit
        self.stats = AdmissionStats()

    def class_cap(self, priority: str) -> int:
        """The queue depth at which ``priority`` traffic starts shedding."""
        return max(1, int(self.queue_limit * _CLASS_FILL[priority]))

    def admit(
        self,
        priority: str,
        depth: int,
        deadline_remaining_s: float | None = None,
    ) -> AdmissionRejected | DeadlineExceeded | None:
        """Admit a request of ``priority`` into a queue of ``depth``.

        Returns ``None`` when admitted, or the structured error the
        request must be resolved with when shed (the caller turns it
        into an error :class:`~repro.serve.request.ServeResult`; it is
        *returned*, not raised, because shedding is an expected outcome,
        not an exception in the control flow).
        """
        if deadline_remaining_s is not None and deadline_remaining_s < 0:
            self.stats.shed_deadline += 1
            self.stats.shed_by_class[priority] += 1
            return DeadlineExceeded(
                "deadline expired before admission; not queueing dead work"
            )
        cap = self.class_cap(priority)
        if depth >= cap:
            self.stats.shed_queue_full += 1
            self.stats.shed_by_class[priority] += 1
            return AdmissionRejected(
                f"queue full for class {priority!r}: depth {depth} >= "
                f"cap {cap} (limit {self.queue_limit}); back off and retry"
            )
        self.stats.admitted += 1
        return None
