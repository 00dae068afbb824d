"""Windowed BPMax: sliding-window interaction scanning.

The related work (paper §II) notes Gildemaster's GPU implementation can
only process "a window of nucleotide sequences" at a time; windowing is
also how RRI tools scan a short regulatory RNA along a long transcript.
This module provides the windowed mode as a first-class library feature:

* slide a window of length ``window`` along the long strand with a given
  ``stride``;
* score each window with any BPMax engine (windows reuse one engine
  configuration; the short strand's tables are computed once);
* report both the raw BPMax score and the **interaction gain**
  ``F - (S1 + S2)`` — the pairing added by the interaction over folding
  each molecule separately, which is the quantity that localises binding
  sites (raw scores reward GC-rich windows for their own hairpins);
* optionally reverse the window (``antiparallel=True``, the default):
  BPMax's intermolecular pairs are monotone in both indices, so an
  antiparallel duplex requires one strand reversed — the standard RRI
  convention.

Memory stays bounded: each window's F table is dropped after scoring
(the windowed analogue of the paper's out-of-core motivation).

Two execution paths share the same :class:`ScanResult` shape:
:func:`scan_windows` runs each window on a fresh in-process engine
(accepts every engine kwarg, e.g. ``tile=``), while
:func:`scan_windows_served` routes the sweep through the serving layer
(:func:`repro.core.api.serve_many`) — windows become
:class:`~repro.serve.request.SubmitRequest` objects, so identical
windows (repeats in the target, overlapping strides over homopolymer
runs) are served from the content-addressed result cache instead of
recomputed, and the whole sweep shares batched workspaces.  Both paths
take a ``semiring`` — ``"logsumexp"`` scans report log-partition gains
(BPPart-style enrichment) instead of max-plus score gains.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..rna.scoring import DEFAULT_MODEL, ScoringModel
from ..rna.sequence import RnaSequence
from .engine import DEFAULT_VARIANT, ENGINES, make_engine
from .reference import prepare_inputs

__all__ = ["WindowHit", "ScanResult", "scan_windows", "scan_windows_served"]


@dataclass(frozen=True)
class WindowHit:
    """One scored window."""

    start: int  # window start on the long strand (original orientation)
    score: float  # BPMax score of (short, window)
    gain: float  # score - (S1 + S2): the interaction's contribution
    cached: bool = False  # served from the result cache (serve path only)


@dataclass(frozen=True)
class ScanResult:
    """All windows of one scan, plus conveniences."""

    query: str
    target: str
    window: int
    stride: int
    antiparallel: bool
    hits: tuple[WindowHit, ...]

    @property
    def best(self) -> WindowHit:
        if not self.hits:
            raise ValueError("scan produced no windows")
        return max(self.hits, key=lambda h: h.gain)

    def top(self, k: int) -> list[WindowHit]:
        """The k windows with the highest interaction gain."""
        if k <= 0:
            raise ValueError(f"k must be > 0, got {k}")
        return sorted(self.hits, key=lambda h: h.gain, reverse=True)[:k]


def _scan_setup(
    query: RnaSequence | str,
    target: RnaSequence | str,
    window: int,
    stride: int,
    variant: str,
) -> tuple[RnaSequence, RnaSequence, int, list[int]]:
    """Shared validation + window-start enumeration of both scan paths."""
    q = query if isinstance(query, RnaSequence) else RnaSequence(query)
    t = target if isinstance(target, RnaSequence) else RnaSequence(target)
    if len(q) == 0 or len(t) == 0:
        raise ValueError("query and target must be non-empty")
    if stride <= 0:
        raise ValueError(f"stride must be > 0, got {stride}")
    if window <= 0:
        raise ValueError(f"window must be > 0, got {window}")
    if variant not in ENGINES:
        raise ValueError(f"unknown variant {variant!r}; use one of {ENGINES}")
    window = min(window, len(t))
    starts = list(range(0, len(t) - window + 1, stride))
    if not starts:
        starts = [0]
    return q, t, window, starts


def scan_windows(
    query: RnaSequence | str,
    target: RnaSequence | str,
    window: int = 24,
    stride: int = 6,
    variant: str = DEFAULT_VARIANT,
    model: ScoringModel = DEFAULT_MODEL,
    semiring: str = "max-plus",
    antiparallel: bool = True,
    **engine_kwargs,
) -> ScanResult:
    """Score ``query`` against every window of ``target``.

    Parameters
    ----------
    query: the short strand (e.g. an sRNA); becomes BPMax's outer strand.
    target: the long strand to scan (e.g. an mRNA).
    window: window length on the target (clamped to the target length).
    stride: distance between consecutive window starts.
    variant: BPMax engine for each window.
    semiring: reduction algebra (``"max-plus"`` or ``"logsumexp"``).
    antiparallel: feed windows 3'->5' (reversed), the duplex convention.
    """
    q, t, window, starts = _scan_setup(query, target, window, stride, variant)

    hits: list[WindowHit] = []
    for start in starts:
        piece = RnaSequence(t[start : start + window])
        if antiparallel:
            piece = piece.reversed()
        inputs = prepare_inputs(q, piece, model, semiring=semiring)
        engine = make_engine(inputs, variant, **engine_kwargs)
        score = engine.run()
        independent = float(inputs.s1[0, -1] + inputs.s2[0, -1])
        hits.append(WindowHit(start=start, score=score, gain=score - independent))
        # windowed mode keeps memory bounded: drop the window's table
        for w in engine.table.allocated():
            engine.table.free(*w)
    return ScanResult(
        query=q.seq,
        target=t.seq,
        window=window,
        stride=stride,
        antiparallel=antiparallel,
        hits=tuple(hits),
    )


def scan_windows_served(
    query: RnaSequence | str,
    target: RnaSequence | str,
    window: int = 24,
    stride: int = 6,
    variant: str = DEFAULT_VARIANT,
    model: ScoringModel = DEFAULT_MODEL,
    semiring: str = "max-plus",
    antiparallel: bool = True,
    backend: str | None = None,
    cache: int = 1024,
    scheduler=None,
) -> ScanResult:
    """Windowed sweep through the serving layer, with per-window caching.

    Each window becomes one :class:`~repro.serve.request.SubmitRequest`
    (priority class ``"scan"``) and the whole sweep goes through
    :func:`repro.core.api.serve_many`: identical windows are deduplicated
    against the content-addressed result cache — their hits come back
    with ``cached=True`` — and distinct same-shape windows share batched
    kernel workspaces.  Pass an open
    :class:`~repro.serve.scheduler.BatchScheduler` as ``scheduler`` to
    keep the window cache warm across successive scans (e.g. the same
    sRNA against many transcripts).

    The interaction gain subtracts per-window independent folding scores
    computed in the *same* semiring (log-space Nussinov for
    ``"logsumexp"``), so max-plus and log-partition sweeps rank windows
    by comparable enrichment quantities.
    """
    from ..robust.errors import BpmaxError
    from ..serve.request import SubmitRequest
    from .api import serve_many

    q, t, window, starts = _scan_setup(query, target, window, stride, variant)

    pieces: list[RnaSequence] = []
    requests: list[SubmitRequest] = []
    for start in starts:
        piece = RnaSequence(t[start : start + window])
        if antiparallel:
            piece = piece.reversed()
        pieces.append(piece)
        requests.append(
            SubmitRequest(
                seq1=q.seq,
                seq2=piece.seq,
                id=f"w{start}",
                variant=variant,
                backend=backend,
                model=model,
                semiring=semiring,
                priority="scan",
            )
        )
    results = serve_many(requests, cache=cache, scheduler=scheduler)

    # Independent folding scores for the gain: s1 is the same for every
    # window; s2 is memoized by window content, so repeated windows cost
    # one Nussinov fill total (mirroring the serve-side result cache).
    indep2: dict[str, float] = {}
    s1_indep: float | None = None
    hits: list[WindowHit] = []
    for start, piece, res in zip(starts, pieces, results):
        if not res.ok:
            raise BpmaxError(
                f"scan window at {start} failed ({res.error_type}): {res.error}"
            )
        if s1_indep is None or piece.seq not in indep2:
            inputs = prepare_inputs(q, piece, model, semiring=semiring)
            s1_indep = float(inputs.s1[0, -1])
            indep2[piece.seq] = float(inputs.s2[0, -1])
        independent = s1_indep + indep2[piece.seq]
        hits.append(
            WindowHit(
                start=start,
                score=float(res.score),
                gain=float(res.score) - independent,
                cached=res.cached,
            )
        )
    return ScanResult(
        query=q.seq,
        target=t.seq,
        window=window,
        stride=stride,
        antiparallel=antiparallel,
        hits=tuple(hits),
    )
