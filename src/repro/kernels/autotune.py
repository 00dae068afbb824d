"""Tile-size autotuner for the tiled wavefront backend.

The tiled executor's one tunable is the **window-block width** ``WB``:
how many same-diagonal outer windows one tile batches.  ``WB`` trades
scheduler exposure (more, smaller tiles → more wavefront parallelism)
against batching efficiency (fewer, larger tiles → longer GEMM stacks
and fewer dispatch rounds).  The right value depends on the machine's
cache sizes, the problem shape and the thread count, so it is resolved
in three stages:

1. a **persisted winner** from a previous ``bpmax tune`` run, keyed by
   ``(machine fingerprint, dtype, size class, threads)`` — size classes
   are power-of-two buckets of (N, M) so one measurement covers a
   neighbourhood of problem sizes;
2. otherwise a **cache-aware heuristic**: one tile per diagonal for
   single-thread runs (zero scheduler exposure), else enough tiles to
   feed every worker while one tile's accumulator + GEMM slab stays
   inside the L2 estimate of :mod:`repro.machine.specs`;
3. ``bpmax tune`` (or :func:`tune`) benchmarks candidate widths on a
   synthetic problem of the requested shape and persists the winner.

The cache file is JSON (see EXPERIMENTS.md for the format), stored at
``$BPMAX_TUNE_CACHE`` or ``~/.cache/bpmax/autotune.json``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..machine.specs import XEON_E5_1650V4, MachineSpec

__all__ = [
    "TUNE_CACHE_VERSION",
    "TuneResult",
    "cache_path",
    "cache_key",
    "default_candidates",
    "default_q_candidates",
    "fr_cache_key",
    "machine_fingerprint",
    "size_class",
    "heuristic_block",
    "get_block_width",
    "get_tile_shape",
    "load_cache",
    "save_entry",
    "tune",
    "tune_fourrussians",
]

TUNE_CACHE_VERSION = 1

#: environment override for the cache file location
CACHE_ENV = "BPMAX_TUNE_CACHE"


def cache_path(path: str | os.PathLike | None = None) -> Path:
    """Resolve the autotune cache file location."""
    if path is not None:
        return Path(path)
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "bpmax" / "autotune.json"


def _blas_vendor() -> str:
    """Best-effort name of the BLAS numpy was built against.

    Tries the numpy >= 1.26 ``show_config(mode="dicts")`` metadata first,
    then the legacy ``np.__config__`` info dicts; anything unreadable
    reports ``blas-unknown`` rather than failing a cache lookup.
    """
    import numpy as np

    try:
        info = np.show_config(mode="dicts")
    except TypeError:
        info = None
    except Exception:  # pragma: no cover - metadata layout surprises
        return "blas-unknown"
    if isinstance(info, dict):
        blas = (info.get("Build Dependencies") or {}).get("blas") or {}
        name = blas.get("name")
        if name:
            return str(name)
    cfg = getattr(np, "__config__", None)
    for attr in (
        "blas_ilp64_opt_info",
        "blas_opt_info",
        "openblas_info",
        "blas_mkl_info",
    ):
        d = getattr(cfg, attr, None)
        if isinstance(d, dict) and d.get("libraries"):
            return str(d["libraries"][0])
    return "blas-unknown"


_FINGERPRINT: str | None = None


def machine_fingerprint() -> str:
    """A stable-enough identifier of the host *environment* for cache keying.

    Includes the numpy version and BLAS vendor alongside the hardware
    identity: a tuned winner measured under one numpy/BLAS pairing is
    stale under another, so an upgrade must invalidate persisted entries
    instead of replaying them.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import numpy as np

        parts = (
            f"{platform.machine()}-{platform.system()}-c{os.cpu_count() or 1}"
            f"-np{np.__version__}-{_blas_vendor()}"
        )
        # the fingerprint is a cache-key *field*: strip the separator
        _FINGERPRINT = parts.replace("|", "_").replace(" ", "_")
    return _FINGERPRINT


def size_class(x: int) -> int:
    """Power-of-two bucket of a problem dimension (min bucket 8)."""
    b = 8
    while b < x:
        b *= 2
    return b


def cache_key(n: int, m: int, threads: int, dtype: str = "float32") -> str:
    return (
        f"{machine_fingerprint()}|{dtype}|n{size_class(n)}|m{size_class(m)}"
        f"|t{threads}"
    )


def fr_cache_key(n: int, m: int, threads: int, d: int) -> str:
    """Cache key of the Four-Russians sweep: the tiled key plus the
    verified difference bound ``d`` (tables and the best ``q`` depend on
    it, not just on the problem shape)."""
    return f"{cache_key(n, m, threads)}|fr|d{d}"


def heuristic_block(
    n: int, m: int, threads: int, machine: MachineSpec = XEON_E5_1650V4
) -> int:
    """Default window-block width when no tuned entry exists.

    Single-thread: one tile per diagonal — the scheduler degenerates to
    the plain span-group sweep with no dispatch overhead at all.
    Multi-thread: at least ``2 * threads`` tiles on mid diagonals for
    load balance, but never so wide that a tile's hot working set (the
    (M, M) accumulator plus the per-step GEMM block, ~3 inner matrices)
    spills the L2 estimate.
    """
    if n <= 1:
        return 1
    if threads <= 1:
        return n
    by_threads = max(1, -(-n // (2 * threads)))
    cells_bytes = 4 * m * m
    by_cache = max(1, machine.cache("L2").size_bytes // max(1, 3 * cells_bytes))
    return max(1, min(n, by_threads, by_cache))


# -- persisted winners --------------------------------------------------------


def load_cache(path: str | os.PathLike | None = None) -> dict:
    """Read the cache file; unreadable/foreign files read as empty."""
    p = cache_path(path)
    try:
        with open(p) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return {"version": TUNE_CACHE_VERSION, "entries": {}}
    if not isinstance(data, dict) or data.get("version") != TUNE_CACHE_VERSION:
        return {"version": TUNE_CACHE_VERSION, "entries": {}}
    if not isinstance(data.get("entries"), dict):
        data["entries"] = {}
    return data


def save_entry(key: str, entry: dict, path: str | os.PathLike | None = None) -> Path:
    """Merge one tuned entry into the cache file (atomic replace)."""
    p = cache_path(path)
    data = load_cache(p)
    data["entries"][key] = entry
    p.parent.mkdir(parents=True, exist_ok=True)
    tmp = p.with_name(p.name + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, p)
    return p


def get_tile_shape(
    n: int,
    m: int,
    threads: int = 1,
    path: str | os.PathLike | None = None,
    machine: MachineSpec = XEON_E5_1650V4,
) -> int:
    """The window-block width the tiled executor should use.

    Tuned winner for this (machine, dtype, size-class, threads) if one
    was persisted, else :func:`heuristic_block`.
    """
    entry = load_cache(path)["entries"].get(cache_key(n, m, threads))
    if entry:
        wb = int(entry.get("wb", 0))
        if wb >= 1:
            return min(wb, max(1, n))
    return heuristic_block(n, m, threads, machine)


# -- measurement --------------------------------------------------------------


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one autotuning sweep.

    ``param`` names the tuned knob (``"wb"`` for the tiled window-block
    sweep, ``"fr_q"`` for the Four-Russians block-width sweep) and
    ``best_wb`` holds its winning value either way; the Four-Russians
    sweep is joint over ``(q, sparsify)`` and also reports
    ``best_sparsify``.
    """

    key: str
    n: int
    m: int
    threads: int
    best_wb: int
    best_wall_s: float
    candidates: dict = field(default_factory=dict)
    cache_file: str = ""
    param: str = "wb"
    best_sparsify: bool | None = None


def default_candidates(n: int, threads: int) -> list[int]:
    """Candidate widths: powers of two up to N, plus the heuristic picks.

    Deduplicated and sorted — the power-of-two ladder and the heuristic
    picks overlap (``n // 2`` is frequently itself a power of two), and
    benchmarking the same width twice would double the sweep cost for no
    information.  :func:`tune` additionally deduplicates caller-supplied
    candidate lists for the same reason.
    """
    cands = {n, max(1, n // 2), max(1, -(-n // max(1, 2 * threads)))}
    w = 1
    while w < n:
        cands.add(w)
        w *= 2
    return sorted(c for c in cands if 1 <= c <= max(1, n))


def default_q_candidates(m: int, d: int) -> list[int]:
    """Candidate Four-Russians block widths for a ``(m, d)`` problem.

    Every feasible ``q`` from 2 up to the MAX_CODES hard cap, truncated
    to the cache-residency budget plus one (so the sweep can contradict
    the budget heuristic on machines with bigger caches), deduplicated
    and sorted like :func:`default_candidates`.
    """
    from .fourrussians_tables import cache_block_width, max_block_width

    hi = min(max_block_width(d), max(2, cache_block_width(d) + 1))
    return sorted({q for q in range(2, hi + 1)})


def tune(
    n: int,
    m: int,
    threads: int = 1,
    candidates: list[int] | None = None,
    seed: int = 7,
    repeats: int = 2,
    path: str | os.PathLike | None = None,
    persist: bool = True,
) -> TuneResult:
    """Benchmark candidate window-block widths; persist and return the winner.

    Times the real tiled executor on a synthetic random problem of the
    requested shape (best of ``repeats`` per candidate, interleaved so
    machine noise hits every candidate equally).
    """
    # engine imports are deferred: repro.core imports repro.kernels
    from ..core.engine import make_engine
    from ..core.reference import prepare_inputs
    from ..rna.sequence import random_pair
    from .tiled_backend import TiledExecutor

    if candidates is None:
        candidates = default_candidates(n, threads)
    # order-preserving dedup: a caller-supplied list may repeat widths
    candidates = list(dict.fromkeys(candidates))
    s1, s2 = random_pair(n, m, seed)
    inputs = prepare_inputs(s1, s2)

    def run_one(wb: int) -> float:
        engine = make_engine(inputs, variant="batched", backend="tiled", threads=threads)
        t0 = time.perf_counter()
        TiledExecutor(engine, wb=wb).run()
        return time.perf_counter() - t0

    for wb in candidates:  # warm caches/BLAS before timing
        run_one(wb)
        break
    best: dict[int, float] = {wb: float("inf") for wb in candidates}
    for _ in range(max(1, repeats)):
        for wb in candidates:
            best[wb] = min(best[wb], run_one(wb))
    best_wb = min(best, key=lambda wb: (best[wb], wb))
    key = cache_key(n, m, threads)
    cache_file = ""
    if persist:
        entry = {
            "wb": best_wb,
            "wall_s": best[best_wb],
            "n": n,
            "m": m,
            "threads": threads,
            "candidates": {str(wb): best[wb] for wb in candidates},
        }
        cache_file = str(save_entry(key, entry, path))
    return TuneResult(
        key=key,
        n=n,
        m=m,
        threads=threads,
        best_wb=best_wb,
        best_wall_s=best[best_wb],
        candidates=dict(best),
        cache_file=cache_file,
    )


# -- Four-Russians block-width sweep ------------------------------------------


def get_block_width(
    n: int,
    m: int,
    threads: int,
    d: int,
    path: str | os.PathLike | None = None,
) -> int:
    """The Four-Russians block width ``q`` an engine should use.

    Tuned winner for this (machine, dtype, size-class, threads, d) if
    one was persisted by ``bpmax tune --backend fourrussians``, else the
    cache-budget-clamped ``q ~ log2(M)`` heuristic.
    """
    from .fourrussians_tables import heuristic_q, max_block_width

    entry = load_cache(path)["entries"].get(fr_cache_key(n, m, threads, d))
    if entry:
        q = int(entry.get("q", 0))
        if q >= 2:
            return min(q, max_block_width(d))
    return heuristic_q(m, d)


def tune_fourrussians(
    n: int,
    m: int,
    threads: int = 1,
    q_candidates: list[int] | None = None,
    seed: int = 7,
    repeats: int = 2,
    path: str | os.PathLike | None = None,
    persist: bool = True,
) -> TuneResult:
    """Joint ``(q, sparsify)`` sweep of the Four-Russians backend.

    Benchmarks every feasible block width with the candidate-list prune
    on and off (the prune's bound passes cost real time on inputs where
    nothing prunes, so it is a tunable too), interleaved best-of-repeats
    like :func:`tune`, and persists the winning pair under
    :func:`fr_cache_key`.
    """
    from ..core.engine import make_engine
    from ..core.reference import prepare_inputs
    from ..rna.sequence import random_pair
    from .fourrussians_tables import check_bounded_scores

    s1, s2 = random_pair(n, m, seed)
    inputs = prepare_inputs(s1, s2)
    check = check_bounded_scores(inputs)
    if not check.ok:
        raise ValueError(
            f"cannot tune fourrussians: precondition failed ({check.reason})"
        )
    if q_candidates is None:
        q_candidates = default_q_candidates(m, check.d)
    q_candidates = list(dict.fromkeys(q_candidates))
    grid = [(q, sp) for q in q_candidates for sp in (False, True)]

    def run_one(q: int, sp: bool) -> float:
        engine = make_engine(
            inputs,
            variant="batched",
            backend="fourrussians",
            fr_q=q,
            fr_sparsify=sp,
        )
        t0 = time.perf_counter()
        engine.run()
        return time.perf_counter() - t0

    run_one(*grid[0])  # warm caches/tables before timing
    best: dict[tuple[int, bool], float] = {g: float("inf") for g in grid}
    for _ in range(max(1, repeats)):
        for g in grid:
            best[g] = min(best[g], run_one(*g))
    best_q, best_sp = min(best, key=lambda g: (best[g], g))
    key = fr_cache_key(n, m, threads, check.d)
    cache_file = ""
    if persist:
        entry = {
            "q": best_q,
            "sparsify": best_sp,
            "wall_s": best[(best_q, best_sp)],
            "n": n,
            "m": m,
            "threads": threads,
            "d": check.d,
            "candidates": {
                f"q{q}|sp{int(sp)}": t for (q, sp), t in best.items()
            },
        }
        cache_file = str(save_entry(key, entry, path))
    return TuneResult(
        key=key,
        n=n,
        m=m,
        threads=threads,
        best_wb=best_q,
        best_wall_s=best[(best_q, best_sp)],
        candidates={f"q{q}|sp{int(sp)}": t for (q, sp), t in best.items()},
        cache_file=cache_file,
        param="fr_q",
        best_sparsify=best_sp,
    )
