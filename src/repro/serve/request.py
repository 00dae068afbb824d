"""Request/result objects and the JSONL wire format of the serving layer.

A :class:`SubmitRequest` is one unit of client work: score (and
optionally fold) a pair of strands under a scoring model, with the
per-request robustness knobs of :func:`repro.core.api.bpmax` (deadline,
retries, fallback chain).  Requests are grouped into batches by
:func:`batch_key` — same problem shape, same scoring model, same engine
configuration — so batch members can share one
:class:`~repro.kernels.Workspace`, and deduplicated by
:func:`cache_key`, the content address of the answer.

The CLI speaks JSON Lines: one request object per line in, one result
object per line out (see :func:`parse_request_line` /
:meth:`ServeResult.as_dict`).  JSONL requests always use the default
scoring model; the library API accepts any :class:`ScoringModel`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from typing import TYPE_CHECKING

from ..core.engine import DEFAULT_VARIANT, ENGINES
from ..robust.errors import BpmaxError
from ..rna.alphabet import normalize
from ..rna.scoring import DEFAULT_MODEL, ScoringModel
from ..semiring import ENGINE_SEMIRINGS, get_semiring

if TYPE_CHECKING:  # pragma: no cover
    from ..robust.faults import FaultPlan

__all__ = [
    "PRIORITY_CLASSES",
    "SubmitRequest",
    "ServeResult",
    "scoring_fingerprint",
    "cache_key",
    "batch_key",
    "parse_request_line",
    "request_from_dict",
    "request_wire_dict",
]

#: admission-control priority classes, most to least urgent.  The
#: sharded tier schedules strictly by class (interactive jumps every
#: queue) and sheds the *least* urgent classes first under overload.
PRIORITY_CLASSES = ("interactive", "batch", "scan")


def scoring_fingerprint(model: ScoringModel) -> str:
    """Stable content hash of a scoring model (12 hex chars).

    Two models with the same pair weights, intermolecular weights and
    minimum-loop constraint fingerprint identically regardless of dict
    insertion order, so the fingerprint is a valid cache-key component.
    """

    def canon(weights: Mapping[frozenset[str], float] | None) -> list | None:
        if weights is None:
            return None
        return sorted(["".join(sorted(p)), float(w)] for p, w in weights.items())

    payload = json.dumps(
        {
            "pair": canon(model.pair_weights),
            "inter": canon(model.inter_weights),
            "min_loop": model.min_loop,
        },
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class SubmitRequest:
    """One serving request: score ``seq1`` vs ``seq2``.

    Parameters mirror :func:`repro.core.api.bpmax`; ``deadline_s`` is a
    per-request compute budget measured from *submission* (queueing time
    counts against it, as in a real service), so a request that waited
    too long fails fast instead of stalling its batch.

    ``priority`` names the admission-control class (one of
    :data:`PRIORITY_CLASSES`): the sharded tier serves more urgent
    classes first and sheds less urgent ones first under overload.
    ``faults`` optionally carries a :class:`~repro.robust.faults.FaultPlan`
    into the engine run — library/testing only, not part of the wire
    format or of any cache/batch key.
    """

    seq1: str
    seq2: str
    id: str = ""
    variant: str = DEFAULT_VARIANT
    backend: str | None = None
    model: ScoringModel = DEFAULT_MODEL
    semiring: str = "max-plus"
    structure: bool = False
    deadline_s: float | None = None
    retries: int = 0
    fallback: tuple[str, ...] = ()
    priority: str = "batch"
    faults: "FaultPlan | None" = None

    def __post_init__(self) -> None:
        if self.variant not in ENGINES:
            raise BpmaxError(
                f"unknown variant {self.variant!r}; use one of {ENGINES}"
            )
        try:
            sr = get_semiring(self.semiring)
        except ValueError as exc:
            raise BpmaxError(str(exc)) from None
        if sr.name not in ENGINE_SEMIRINGS:
            raise BpmaxError(
                f"semiring {sr.name!r} has no engine support; "
                f"use one of {ENGINE_SEMIRINGS}"
            )
        # canonicalize aliases ("log-sum-exp" -> "logsumexp") so cache
        # and batch keys compare by algebra, not by spelling
        object.__setattr__(self, "semiring", sr.name)
        for v in self.fallback:
            if v not in ENGINES:
                raise BpmaxError(
                    f"unknown fallback variant {v!r}; use one of {ENGINES}"
                )
        if self.retries < 0:
            raise BpmaxError(f"retries must be >= 0, got {self.retries}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise BpmaxError(
                f"deadline must be positive, got {self.deadline_s:g}"
            )
        if self.priority not in PRIORITY_CLASSES:
            raise BpmaxError(
                f"unknown priority {self.priority!r}; "
                f"use one of {PRIORITY_CLASSES}"
            )


def cache_key(req: SubmitRequest) -> tuple[str, str, str, str, str]:
    """The content address of a request's answer.

    ``(seq1, seq2, scoring, semiring, backend)`` after sequence
    normalization — every engine variant computes the same score within
    its semiring's contract (bit-identical for max-plus; within corpus
    tolerance for log-sum-exp), so the variant is deliberately *not*
    part of the key: a cached answer computed by one variant serves
    requests for any other.  The **semiring is** part of the key: a
    max-plus score and a log-partition value are different quantities
    for the same sequences, and serving one for the other would be a
    silent wrong answer.  Raises :class:`InvalidSequenceError` for
    unservable sequences (the scheduler fails those requests fast
    instead).
    """
    return (
        normalize(req.seq1),
        normalize(req.seq2),
        scoring_fingerprint(req.model),
        req.semiring,
        req.backend or "",
    )


def batch_key(req: SubmitRequest) -> tuple:
    """Grouping key for adaptive batching.

    Requests in one batch share problem shape ``(n, m)``, scoring model,
    semiring, variant and backend, so the executor can run them
    back-to-back on one thread reusing a single
    :class:`~repro.kernels.Workspace` (the zero-allocation hot path
    amortized across the whole batch; the semiring fixes the workspace
    dtype, so mixed-algebra requests must not share one).
    """
    n, m = len(normalize(req.seq1)), len(normalize(req.seq2))
    return (
        n,
        m,
        scoring_fingerprint(req.model),
        req.semiring,
        req.variant,
        req.backend or "",
    )


@dataclass(frozen=True)
class ServeResult:
    """Outcome of one request (success or per-request failure).

    ``variant`` names the engine that actually produced the score —
    for a cache/coalescing hit that may differ from the requested
    variant (scores are engine-independent).  ``cached`` marks answers
    served without a fresh engine run; ``batch`` is the dispatch batch
    the computation ran in (-1 for submit-time cache hits and failed
    validations).  Failures carry ``error``/``error_type`` and a
    ``None`` score; the batch they rode in is unaffected.

    ``shard`` is the worker process that served the request in the
    sharded tier (-1 for the in-process batch tier, submit-time
    resolutions and shed requests; -2 for the degraded in-process
    fallback of a collapsed pool).
    """

    id: str
    seq1: str
    seq2: str
    score: float | None = None
    variant: str | None = None
    cached: bool = False
    batch: int = -1
    shard: int = -1
    wall_s: float = 0.0
    structure: dict[str, Any] | None = None
    degraded_from: tuple[str, ...] = ()
    error: str | None = None
    error_type: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "ok": self.ok,
            "seq1": self.seq1,
            "seq2": self.seq2,
            "score": self.score,
            "variant": self.variant,
            "cached": self.cached,
            "batch": self.batch,
            "shard": self.shard,
            "wall_s": round(self.wall_s, 6),
            "structure": self.structure,
            "degraded_from": list(self.degraded_from),
            "error": self.error,
            "error_type": self.error_type,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), separators=(",", ":"))


#: JSONL request keys the parser understands
_REQUEST_KEYS = frozenset(
    {
        "id",
        "seq1",
        "seq2",
        "variant",
        "backend",
        "semiring",
        "structure",
        "deadline",
        "retries",
        "fallback",
        "priority",
    }
)


def request_from_dict(data: dict[str, Any], where: str = "request") -> SubmitRequest:
    """Build a :class:`SubmitRequest` from a decoded JSONL object."""
    if not isinstance(data, dict):
        raise BpmaxError(f"{where}: expected a JSON object, got {type(data).__name__}")
    unknown = set(data) - _REQUEST_KEYS
    if unknown:
        raise BpmaxError(
            f"{where}: unknown key(s) {sorted(unknown)}; "
            f"allowed: {sorted(_REQUEST_KEYS)}"
        )
    for need in ("seq1", "seq2"):
        if need not in data:
            raise BpmaxError(f"{where}: missing required key {need!r}")
        if not isinstance(data[need], str):
            raise BpmaxError(f"{where}: {need!r} must be a string")
    fallback = data.get("fallback", ())
    if isinstance(fallback, str):
        fallback = tuple(v.strip() for v in fallback.split(",") if v.strip())
    elif isinstance(fallback, (list, tuple)):
        fallback = tuple(str(v) for v in fallback)
    else:
        raise BpmaxError(f"{where}: 'fallback' must be a list or comma string")
    deadline = data.get("deadline")
    if deadline is not None and not isinstance(deadline, (int, float)):
        raise BpmaxError(f"{where}: 'deadline' must be a number")
    priority = data.get("priority", "batch")
    if not isinstance(priority, str):
        raise BpmaxError(f"{where}: 'priority' must be a string")
    semiring = data.get("semiring", "max-plus")
    if not isinstance(semiring, str):
        raise BpmaxError(f"{where}: 'semiring' must be a string")
    return SubmitRequest(
        seq1=data["seq1"],
        seq2=data["seq2"],
        id=str(data.get("id", "")),
        variant=str(data.get("variant", DEFAULT_VARIANT)),
        backend=data.get("backend"),
        semiring=semiring,
        structure=bool(data.get("structure", False)),
        deadline_s=float(deadline) if deadline is not None else None,
        retries=int(data.get("retries", 0)),
        fallback=fallback,
        priority=priority,
    )


def request_wire_dict(req: SubmitRequest) -> dict[str, Any]:
    """The JSONL wire object for a request (inverse of
    :func:`request_from_dict`, defaults elided).

    ``model`` and ``faults`` are library-side knobs with no wire
    representation: JSONL requests always use the default scoring model,
    and fault plans belong to the *server's* scheduler, never to a
    client.
    """
    d: dict[str, Any] = {"seq1": req.seq1, "seq2": req.seq2}
    if req.id:
        d["id"] = req.id
    if req.variant != DEFAULT_VARIANT:
        d["variant"] = req.variant
    if req.backend is not None:
        d["backend"] = req.backend
    if req.semiring != "max-plus":
        d["semiring"] = req.semiring
    if req.structure:
        d["structure"] = True
    if req.deadline_s is not None:
        d["deadline"] = req.deadline_s
    if req.retries:
        d["retries"] = req.retries
    if req.fallback:
        d["fallback"] = list(req.fallback)
    if req.priority != "batch":
        d["priority"] = req.priority
    return d


def parse_request_line(line: str, lineno: int = 0) -> SubmitRequest | None:
    """Parse one JSONL request line (``None`` for blank/comment lines).

    Malformed lines raise :class:`BpmaxError` naming the line number, so
    the CLI reports them as one-line errors with exit status 2.
    """
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    where = f"line {lineno}" if lineno else "request"
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BpmaxError(f"{where}: invalid JSON ({exc.msg})") from exc
    req = request_from_dict(data, where=where)
    if not req.id:
        req = SubmitRequest(
            **{**req.__dict__, "id": f"line{lineno}" if lineno else "req"}
        )
    return req
