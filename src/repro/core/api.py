"""Public convenience API: one-call BPMax scoring and structure prediction."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from ..observe.metrics import collecting
from ..observe.report import RunReport
from ..observe.tracer import trace
from ..rna.scoring import DEFAULT_MODEL, ScoringModel
from ..rna.sequence import RnaSequence
from ..robust.checkpoint import CheckpointManager
from ..robust.deadline import Deadline
from ..robust.faults import FaultPlan
from .engine import DEFAULT_VARIANT, ENGINES, make_engine
from .reference import BpmaxInputs, prepare_inputs
from .tables import FTable
from .traceback import InteractionStructure, traceback

__all__ = ["BpmaxResult", "bpmax", "fold", "serve_many"]


@dataclass(frozen=True)
class BpmaxResult:
    """Output of one BPMax run.

    ``variant`` is the program version that actually produced the score;
    when a fallback chain degraded, the crashed variants are listed in
    ``degraded_from`` (in attempt order).  ``resumed_windows`` counts
    outer windows restored from a checkpoint instead of recomputed.
    """

    score: float
    variant: str
    inputs: BpmaxInputs
    table: FTable
    structure: InteractionStructure | None = None
    degraded_from: tuple[str, ...] = ()
    resumed_windows: int = 0
    report: RunReport | None = None

    @property
    def n(self) -> int:
        return self.inputs.n

    @property
    def m(self) -> int:
        return self.inputs.m


def bpmax(
    seq1: RnaSequence | str,
    seq2: RnaSequence | str,
    variant: str = DEFAULT_VARIANT,
    model: ScoringModel = DEFAULT_MODEL,
    semiring: str = "max-plus",
    structure: bool = False,
    fallback: tuple[str, ...] = (),
    retries: int = 0,
    checkpoint: str | os.PathLike | CheckpointManager | None = None,
    resume: bool = False,
    deadline: float | Deadline | None = None,
    faults: FaultPlan | None = None,
    metrics: bool = False,
    **engine_kwargs,
) -> BpmaxResult:
    """Compute the BPMax interaction score of two RNA strands.

    Parameters
    ----------
    seq1, seq2:
        The interacting strands (strings or :class:`RnaSequence`).  For
        the tiled engine the first strand is treated as the outer (ideally
        shorter) sequence, as in the paper's 16 x 2500 workloads.
    variant:
        Program version: ``batched`` (the default: the hybrid schedule
        on the registry's default ``tiled`` backend), ``baseline`` (the
        original scalar code) or one of the paper's optimized versions
        ``coarse | fine | hybrid | hybrid-tiled`` with their classic
        per-split kernels.
    semiring:
        Reduction algebra of the run: ``"max-plus"`` (BPMax, the exact
        float32 contract — default) or ``"logsumexp"`` (BPPart-style
        log-partition values from the same engines, float64, compared
        within tolerance).  ``baseline`` and ``structure=True`` are
        max-plus only.
    structure:
        Also run the traceback and attach an
        :class:`~repro.core.traceback.InteractionStructure`.
    fallback:
        Further variants to degrade to when ``variant`` crashes (e.g.
        ``("baseline",)``); the degradation is recorded on the result.
    retries:
        Transient-failure retries per variant (fresh engine each time).
    checkpoint:
        Snapshot path (or a preconfigured
        :class:`~repro.robust.checkpoint.CheckpointManager`): the engine
        periodically saves the partially-filled table there.
    resume:
        Restore a previous snapshot from ``checkpoint`` before running
        (a missing file means "start fresh"; a stale or foreign file
        raises :class:`~repro.robust.errors.CheckpointError`).
    deadline:
        Compute budget in seconds (or a running
        :class:`~repro.robust.deadline.Deadline`), polled cooperatively.
    faults:
        A :class:`~repro.robust.faults.FaultPlan` for injection testing.
    metrics:
        Collect per-run operation/traffic counters and attach a
        :class:`~repro.observe.report.RunReport` to the result.

    Examples
    --------
    >>> result = bpmax("GCGCUUCG", "CGAAGCGC")
    >>> result.score > 0
    True
    """
    if variant not in ENGINES:
        raise ValueError(f"unknown variant {variant!r}; use one of {ENGINES}")
    for v in fallback:
        if v not in ENGINES:
            raise ValueError(f"unknown fallback variant {v!r}; use one of {ENGINES}")
    if deadline is not None and not isinstance(deadline, Deadline):
        deadline = Deadline(float(deadline))
    inputs = prepare_inputs(seq1, seq2, model, semiring=semiring)
    if structure and inputs.semiring != "max-plus":
        raise ValueError(
            "structure traceback follows max-plus argmax decisions; it is "
            f"undefined for semiring {inputs.semiring!r}"
        )
    engine = make_engine(
        inputs, variant, fallback=tuple(fallback), retries=retries, **engine_kwargs
    )

    run_kwargs: dict = {}
    resumed: frozenset[tuple[int, int]] = frozenset()
    if checkpoint is not None:
        if isinstance(checkpoint, CheckpointManager):
            ckpt = checkpoint
        else:
            ckpt = CheckpointManager(checkpoint, inputs, variant=variant)
        if resume and ckpt.path.exists():
            resumed = ckpt.load(engine.table)
            run_kwargs["resume"] = resumed
        run_kwargs["checkpoint"] = ckpt
    if deadline is not None:
        run_kwargs["deadline"] = deadline
    if faults is not None:
        run_kwargs["faults"] = faults

    report: RunReport | None = None
    with trace("bpmax", variant=variant, n=inputs.n, m=inputs.m):
        if metrics:
            with collecting() as counters:
                t0 = time.perf_counter()
                score = engine.run(**run_kwargs)
                wall = time.perf_counter() - t0
            ran_variant = getattr(engine, "variant", variant)
            backend = getattr(engine, "backend", None)
            extra: dict = {"semiring": inputs.semiring}
            fr = getattr(engine, "_fr", None)
            if fr is not None:
                extra["fr_q"] = fr.q
                extra["fr_sparsify"] = fr.sparsify
            note = getattr(engine, "backend_note", None)
            if note:
                extra["backend_note"] = note
            report = RunReport.from_counters(
                counters,
                n=inputs.n,
                m=inputs.m,
                variant=ran_variant,
                backend=backend.name if backend is not None else None,
                threads=getattr(engine, "threads", 1),
                wall_s=wall,
                score=score,
                resumed_windows=len(resumed),
                **extra,
            )
        else:
            score = engine.run(**run_kwargs)
    struct = traceback(inputs, engine.table) if structure else None
    return BpmaxResult(
        score=score,
        variant=getattr(engine, "variant", variant),
        inputs=inputs,
        table=engine.table,
        structure=struct,
        degraded_from=getattr(engine, "degraded_from", ()),
        resumed_windows=len(resumed),
        report=report,
    )


def serve_many(
    requests,
    variant: str = DEFAULT_VARIANT,
    model: ScoringModel = DEFAULT_MODEL,
    semiring: str = "max-plus",
    structure: bool = False,
    max_batch: int = 16,
    max_delay_s: float = 0.01,
    workers: int = 2,
    cache: int | None = 1024,
    scheduler=None,
):
    """Serve a whole workload of scoring requests through the batch layer.

    The multi-request counterpart of :func:`bpmax`: requests are
    deduplicated against a content-addressed result cache, grouped into
    same-shape batches that share one kernel workspace, and dispatched
    over a worker pool — see :mod:`repro.serve`.  Returns one
    :class:`~repro.serve.request.ServeResult` per request, in input
    order; per-request failures come back as error results rather than
    exceptions, so one poisoned request never sinks the workload.

    Parameters
    ----------
    requests:
        An iterable of :class:`~repro.serve.request.SubmitRequest`, or
        of ``(seq1, seq2)`` pairs which are wrapped into requests using
        ``variant`` / ``model`` / ``semiring`` / ``structure``.
    max_batch, max_delay_s, workers, cache:
        Batching knobs forwarded to
        :class:`~repro.serve.scheduler.BatchScheduler` (size watermark,
        latency watermark, concurrent batches, cache capacity; ``cache=0``
        disables caching).
    scheduler:
        A preconfigured, still-open
        :class:`~repro.serve.scheduler.BatchScheduler` to reuse (kept
        open afterwards, so its cache persists across calls); overrides
        the batching knobs.

    Examples
    --------
    >>> results = serve_many([("GCGCUUCG", "CGAAGCGC"), ("GGGG", "CCCC")])
    >>> [r.ok for r in results]
    [True, True]
    """
    from ..serve.request import SubmitRequest
    from ..serve.scheduler import BatchScheduler

    prepared = []
    for idx, item in enumerate(requests):
        if isinstance(item, SubmitRequest):
            prepared.append(item)
        else:
            seq1, seq2 = item
            prepared.append(
                SubmitRequest(
                    seq1=str(seq1),
                    seq2=str(seq2),
                    id=f"req{idx}",
                    variant=variant,
                    model=model,
                    semiring=semiring,
                    structure=structure,
                )
            )
    with trace("serve_many", requests=len(prepared)):
        if scheduler is not None:
            return scheduler.serve_all(prepared)
        with BatchScheduler(
            max_batch=max_batch,
            max_delay_s=max_delay_s,
            workers=workers,
            cache=cache if cache is not None else 0,
        ) as sched:
            return sched.serve_all(prepared)


def fold(
    seq: RnaSequence | str, model: ScoringModel = DEFAULT_MODEL
) -> tuple[float, str]:
    """Single-strand weighted Nussinov folding: (score, dot-bracket)."""
    from ..rna.nussinov import nussinov, nussinov_traceback, pairs_to_dotbracket

    s = seq if isinstance(seq, RnaSequence) else RnaSequence(seq)
    if len(s) == 0:
        raise ValueError("sequence must be non-empty")
    table = nussinov(s, model)
    pairs = nussinov_traceback(s, table, model)
    return float(table[0, len(s) - 1]) if len(s) > 1 else 0.0, pairs_to_dotbracket(
        len(s), pairs
    )
