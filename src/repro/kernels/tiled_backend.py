"""Tiled wavefront execution backend: the whole fill as a tile graph.

The ``tiled`` backend executes the BPMax fill as a real inter-tile
wavefront instead of a per-window loop:

* **Views of the F table.**  The :class:`~repro.core.tables.FTable`
  square ``(N, N, M, M)`` buffer indexed ``[i1, j1]`` is the only copy:
  every R0/R3/R4/closure operand stack of a diagonal block is a
  read-only strided view of it (see :meth:`TiledExecutor._block_views`)
  and the block's windows are computed in place — no gather loop and no
  second copy of the table.

* **R0 outer-sums as rank-2 GEMMs.**  The R0 step for inner split ``k2``
  is the outer *sum* ``t[i2, j2] = A[i2, k2] + B[k2, j2]``, which is
  exactly the rank-2 product ``[A[:, k2], 1] @ [[1], [B[k2, :]]]`` — a
  batched BLAS ``matmul`` over every (window, split) of the tile.  This
  is bit-exact in IEEE float32: the two products are by the constant
  1.0 (exact), the dot product is a single two-term sum (one rounding,
  identical to ``a + b`` whether or not the BLAS uses FMA), and no
  ``0 x inf`` products can arise because the constant planes are 1.0.
  An import-time probe verifies this on the installed BLAS; if it does
  not hold the backend registers as unavailable and falls back to
  ``numpy-batched`` rather than risk non-identical scores.

* **Tile graph + dependence-counting scheduler.**  Tiles are
  ``(diagonal, window-block)`` rectangles of the outer triangle; in
  (diag, windex) space the window dependences are the constant vectors
  ``(1, 0)`` and ``(1, -1)``, so the inter-tile DAG comes straight from
  :func:`repro.polyhedral.tiling.tile_graph` and is executed by
  :func:`repro.parallel.wavefront.execute_dag` on a
  :class:`~repro.parallel.pool.ParallelRunner`.  The window-block width
  comes from the autotuner (:mod:`repro.kernels.autotune`).

Every reassociation here is of ``max`` (order-independent) over sums
that are computed identically, so the backend is **bit-identical** to
``numpy-batched`` on full tables, not just on final scores — the
equivalence and golden suites assert exactly that.

Robustness hooks (checkpoint / deadline / fault injection / resume) are
polled per *window* in deterministic order, exactly like the per-window
engines, so crash/resume behaviour is preserved.
"""

from __future__ import annotations

import math
import threading
import time
from typing import TYPE_CHECKING

import numpy as np

from ..observe.metrics import active as _metrics_active
from ..observe.tracer import trace
from ..parallel.pool import ParallelRunner
from ..parallel.wavefront import execute_dag
from ..polyhedral.tiling import TileSpec, tile_graph
from ..semiring.maxplus import NEG_INF, maxplus_batched
from .autotune import get_tile_shape
from .backend import KernelBackend, register_backend

if TYPE_CHECKING:  # pragma: no cover
    from ..robust.checkpoint import CheckpointManager
    from ..robust.deadline import Deadline
    from ..robust.faults import FaultPlan

__all__ = ["TILED_BACKEND", "TiledExecutor", "gemm_outer_sum_exact"]

#: outer-window dependence vectors in (diagonal, window-index) space:
#: (i1, j1) needs its west (i1, j1-1) -> (1, 0) and south (i1+1, j1) -> (1, -1)
DEP_VECTORS = ((1, 0), (1, -1))

#: refuse tile scratch (per-thread buffers x threads) beyond this footprint
#: and let the engine fall back to the per-window batched path (still
#: bit-identical); the table itself is the engine's on either path
SCRATCH_BYTES_CAP = 512 * 2**20


def gemm_outer_sum_exact(dtype=np.float32) -> bool:
    """Probe whether BLAS ``[a, 1] @ [[1], [b]]`` equals ``a + b`` bitwise.

    Exercises the cases that could go wrong: ``-inf`` padding, signed
    zeros, values needing a rounded two-term sum, and large-magnitude
    cancellation.  Probed per dtype: float32 gates the max-plus
    (bit-exact) contract, float64 gates the log-sum-exp one.
    """
    vals = np.array(
        [NEG_INF, -0.0, 0.0, 1.5, -2.25, 3.0e7, 1.0e-3, -3.0e7], dtype=dtype
    )
    r = len(vals)
    a2 = np.empty((1, r, 2), dtype=dtype)
    b2 = np.empty((1, 2, r), dtype=dtype)
    a2[0, :, 0] = vals
    a2[0, :, 1] = 1.0
    b2[0, 0, :] = 1.0
    b2[0, 1, :] = vals
    with np.errstate(all="ignore"):
        got = np.matmul(a2, b2)[0]
    want = vals[:, None] + vals[None, :]
    return bool(np.array_equal(got, want, equal_nan=True))


_GEMM_EXACT = gemm_outer_sum_exact(np.float32)
_GEMM_EXACT64 = gemm_outer_sum_exact(np.float64)


def _k1(m: int) -> int:
    return (m - 1) * m * (m + 1) // 6 if m >= 2 else 0


def _scratch_shapes(wb: int, n: int, m: int) -> dict[str, tuple[int, ...]]:
    """Shapes of one worker slot's buffers (sized by what each phase reads).

    ``lmax`` is the largest (window, split) count of a tile; R0's GEMM
    block for inner split ``k`` is ``(k + 1) x (m - k - 1)``, at most
    ``m^2 / 4``.  ``tbuf`` also serves the ``(wb, m, m)`` addend of the
    streamed R3/R4/closure terms and, one after the other, the
    finish-rows candidate stack and R2 stack of each row.
    """
    lmax = max([min(wb, n - s) * s for s in range(1, n)] + [1])
    kmax = max(n - 1, 1)
    return {  # name -> shape
        "a2": (lmax, 2, m),
        "b2": (lmax, 2, m),
        "tbuf": (max(lmax * (m * m // 4), wb * (m + 2) * m),),
        "rbuf": (wb, m, m),
        "rowbuf": (wb, m),
        "scrbuf": (wb, m),
        "seedbuf": (wb, max(m - 1, 1)),
        "s1l": (wb, kmax, 1, 1),
        "s1r": (wb, kmax, 1, 1),
    }


class _TileScratch:
    """One worker slot's preallocated buffers (checked out per tile)."""

    def __init__(self, wb: int, n: int, m: int, dtype=np.float32) -> None:
        for name, shape in _scratch_shapes(wb, n, m).items():
            setattr(self, name, np.empty(shape, dtype=dtype))
        # rank-2 GEMM planes: column/row of ones is persistent
        self.a2[:, 1, :] = 1.0
        self.b2[:, 0, :] = 1.0

    @staticmethod
    def footprint(wb: int, n: int, m: int, itemsize: int) -> int:
        """Bytes one slot allocates, computed without allocating."""
        shapes = _scratch_shapes(wb, n, m).values()
        return itemsize * sum(math.prod(shape) for shape in shapes)

    def nbytes(self) -> int:
        return sum(b.nbytes for b in vars(self).values())


class TiledExecutor:
    """Runs one engine's fill as a tiled wavefront over the outer triangle.

    Parameters
    ----------
    engine: a :class:`~repro.core.vectorized.VectorizedBPMax` (its
        inputs, table and precomputed finish-row views are reused; the
        filled table is the engine's own, so ``engine.table.inner`` and
        checkpointing behave exactly as in the per-window path).
    wb: window-block width (windows per tile along a diagonal); default
        from the autotuner / heuristic.
    """

    def __init__(self, engine, wb: int | None = None) -> None:
        inp = engine.inputs
        self.engine = engine
        self.inp = inp
        self.table = engine.table
        self.n, self.m = inp.n, inp.m
        self.threads = max(1, engine.threads)
        self.wb = wb if wb is not None else get_tile_shape(self.n, self.m, self.threads)
        self.wb = max(1, min(self.wb, self.n))
        n, m = self.n, self.m
        self.sr = engine.sr
        self._dtype = self.sr.npdtype
        self._s2_ut = engine._s2_ut
        self._score2_diag1 = engine._score2_diag1
        self._fin_r1 = engine._fin_r1
        self._fin_clo = engine._fin_clo
        self._fin_r2 = engine._fin_r2
        self._scratch: list[_TileScratch] = [
            _TileScratch(self.wb, n, m, dtype=self._dtype) for _ in range(self.threads)
        ]
        self._scratch_lock = threading.Lock()
        self._done: frozenset[tuple[int, int]] = frozenset()
        self._deadline: "Deadline | None" = None
        self._faults: "FaultPlan | None" = None

    @classmethod
    def fits(cls, n: int, m: int, itemsize: int, threads: int, wb: int) -> bool:
        """Whether ``threads`` worker slots of tile scratch fit
        :data:`SCRATCH_BYTES_CAP` (``itemsize``: 4 for max-plus float32,
        8 for log-sum-exp float64).  Pure arithmetic: nothing is allocated.
        """
        wb = max(1, min(wb, n))
        per_slot = _TileScratch.footprint(wb, n, m, itemsize)
        return max(1, threads) * per_slot <= SCRATCH_BYTES_CAP

    # -- per-tile body (worker threads) --------------------------------------

    def _checkout(self) -> _TileScratch:
        with self._scratch_lock:
            if self._scratch:
                return self._scratch.pop()
        # only reachable if a caller overcommits the runner; keep safe
        return _TileScratch(self.wb, self.n, self.m, dtype=self._dtype)

    def _checkin(self, sc: _TileScratch) -> None:
        with self._scratch_lock:
            self._scratch.append(sc)

    def _block_views(self, span: int, w0: int, w1: int) -> tuple:
        """Strided views of the table for the block ``(span, [w0, w1))``.

        Returns ``(g, A, AT, B, inner)``: the block's own windows ``g[w]
        = (w0+w, w0+w+span)`` (writable, computed in place), and for
        split ``k1 = w0+w+kk`` the left operand ``A[w, kk] = (w0+w, k1)``,
        its transpose ``AT``, the right operand ``B[w, kk] = (k1+1,
        w0+w+span)``, plus the closure operand ``inner[w] = (w0+w+1,
        w0+w+span-1)`` (``None`` below span 2).  Operands are read-only.
        With ``si`` / ``sj`` the byte strides of ``i1`` / ``j1``, ``w``
        steps by ``si + sj``, ``A``'s splits by ``sj`` and ``B``'s by ``si``.
        """
        nb, m, K = w1 - w0, self.m, span
        packed = self.table.packed
        sj, row, it = packed.strides
        si = self.n * sj
        diag = si + sj  # one window down the diagonal

        def view(i1, j1, shape, strides, writeable=False):
            # np.ndarray over the buffer, not as_strided: the latter's
            # per-call interface objects grew RSS by ~0.5 MB per 1000 runs
            off = self.table.offset(i1, j1) * sj
            v = np.ndarray(shape, packed.dtype, buffer=packed, offset=off, strides=strides)
            v.flags.writeable = writeable
            return v

        g = view(w0, w0 + span, (nb, m, m), (diag, row, it), writeable=True)
        A = view(w0, w0, (nb, K, m, m), (diag, sj, row, it))
        AT = view(w0, w0, (nb, K, m, m), (diag, sj, it, row))
        # span 0 has no splits: anchor the empty B stack on a valid window
        B = view(min(w0 + 1, w0 + span), w0 + span, (nb, K, m, m), (diag, si, row, it))
        inner = None
        if span >= 2:
            inner = view(w0 + 1, w0 + span - 1, (nb, m, m), (diag, row, it))
        return g, A, AT, B, inner

    def _exec_tile(self, tile: tuple[int, int]) -> dict | None:
        """Compute the windows of one (diagonal, block) tile.

        Returns the accounting record consumed by the coordinator's
        ``on_complete`` (``None`` for tiles outside the triangle).
        """
        span, b = tile
        n, m = self.n, self.m
        w0 = b * self.wb
        w1 = min(w0 + self.wb, n - span)
        if w0 >= w1:
            return None
        # resume prefixes are whole diagonals, already in the table
        if (w0, w0 + span) in self._done:
            return {"resumed": True, "windows": w1 - w0, "span": span}
        # robustness hooks, per window in deterministic order
        for i1 in range(w0, w1):
            if self._deadline is not None:
                self._deadline.check(f"window ({i1}, {i1 + span})")
            if self._faults is not None:
                delay = self._faults.engine_window(i1, i1 + span)
                if delay > 0:
                    time.sleep(delay)
        sc = self._checkout()
        try:
            with np.errstate(invalid="ignore"):
                self._compute_block(span, w0, w1, sc)
        finally:
            self._checkin(sc)
        nb = w1 - w0
        itemsize = self._dtype.itemsize
        slab_bytes = itemsize * (2 * nb * span + 2 * nb) * _k1(m) if span else 0
        return {"resumed": False, "windows": nb, "span": span, "slab_bytes": slab_bytes}

    def _compute_block(self, span: int, w0: int, w1: int, sc: _TileScratch) -> None:
        inp = self.inp
        m = self.m
        nb = w1 - w0
        # ⊗ is plain + for both engine semirings; only ⊕ varies (max or
        # logaddexp).  Each candidate below appears in exactly one ⊕, so
        # the same schedule is valid for non-idempotent sums.
        add, maximum = np.add, self.sr.add
        reduce = self.sr.add_reduce
        for i1 in range(w0, w1):
            self.table.alloc(i1, i1 + span)
        g, A, AT, B, inner = self._block_views(span, w0, w1)
        tmp = sc.tbuf[: nb * m * m].reshape(nb, m, m)

        if span == 0:
            for w in range(nb):
                add(self._s2_ut, inp.s1[w0 + w, w0 + w], out=g[w])
            self._finish_block(span, w0, w1, g, sc, use_iscore=True)
            return

        K = span
        L = nb * K
        g.fill(NEG_INF)

        # R0: per inner-k2 step, one rank-2 batched GEMM over every
        # (window, split) of the tile, then a split-axis max reduction;
        # the split-shifted right operand row k is B's row k + 1
        a2 = sc.a2[:L]
        b2 = sc.b2[:L]
        for k in range(m - 1):
            rows = k + 1
            c0 = k + 1
            wd = m - c0
            np.copyto(a2[:, 0, :rows].reshape(nb, K, rows), AT[:, :, k, :rows])
            np.copyto(b2[:, 1, :wd].reshape(nb, K, wd), B[:, :, k + 1, c0:])
            t = sc.tbuf[: L * rows * wd].reshape(L, rows, wd)
            np.matmul(a2[:, :, :rows].transpose(0, 2, 1), b2[:, :, :wd], out=t)
            t4 = t.reshape(nb, K, rows, wd)
            rblk = sc.rbuf[:nb, :rows, :wd]
            reduce(t4, axis=1, out=rblk)
            ablk = g[:, :rows, c0:]
            maximum(ablk, rblk, out=ablk)

        # R3 (right operands + S1[i1, k1]) and R4 (left operands +
        # S1[k1+1, j1]), each streamed over the splits into rbuf
        s1l = sc.s1l[:nb, :K]
        s1r = sc.s1r[:nb, :K]
        for kk in range(K):
            s1l[:, kk, 0, 0] = inp.s1.diagonal(kk)[w0:w1]
            s1r[:, kk, 0, 0] = inp.s1.diagonal(span - 1 - kk)[1 + kk + w0 : 1 + kk + w1]
        acc = sc.rbuf[:nb]
        for ops, bias in ((B, s1l), (A, s1r)):
            add(ops[:, 0], bias[:, 0], out=acc)
            for kk in range(1, K):
                add(ops[:, kk], bias[:, kk], out=tmp)
                maximum(acc, tmp, out=acc)
            maximum(g, acc, out=g)

        # closure of the (i1, j1) pair + independent folds
        sc1 = np.ascontiguousarray(inp.score1.diagonal(span)[w0:w1]).reshape(nb, 1, 1)
        s1v = np.ascontiguousarray(inp.s1.diagonal(span)[w0:w1]).reshape(nb, 1, 1)
        add(self._s2_ut[None] if inner is None else inner, sc1, out=tmp)
        maximum(g, tmp, out=g)
        add(self._s2_ut[None], s1v, out=tmp)
        maximum(g, tmp, out=g)

        self._finish_block(span, w0, w1, g, sc, use_iscore=False)

    def _finish_block(
        self, span: int, w0: int, w1: int, g: np.ndarray, sc: _TileScratch, use_iscore: bool
    ) -> None:
        """Finish-rows (R1 + collapsed R2 + closure-2) for a whole block.

        The batched form of :meth:`VectorizedBPMax._finish_rows`: the
        per-row candidate stack gains a leading window axis, everything
        else is identical, so the computed sums (and therefore the
        float32 results) are exactly the per-window ones.
        """
        inp = self.inp
        m = self.m
        nb = w1 - w0
        row_full = sc.rowbuf[:nb]
        scr = sc.scrbuf[:nb]
        add, maximum = np.add, self.sr.add
        reduce = self.sr.add_reduce
        idempotent = self.sr.idempotent
        s2ut = self._s2_ut
        s1vs = np.ascontiguousarray(inp.s1.diagonal(span)[w0:w1])
        if m > 1:
            seed = sc.seedbuf[:nb, : m - 1]
            add(self._score2_diag1[None, :], s1vs[:, None], out=seed)
        if use_iscore:
            iscore_rows = inp.iscore[w0:w1]
        for i2 in range(m - 1, -1, -1):
            kspan = m - 1 - i2
            if kspan == 0:
                if use_iscore:
                    g[:, i2, i2] = iscore_rows[:, i2]
                continue
            w = m - i2
            f = sc.tbuf[: nb * (kspan + 2) * w].reshape(nb, kspan + 2, w)
            add(self._fin_r1[i2][None], g[:, i2 + 1 : m, i2:], out=f[:, :kspan])
            add(g[:, i2 + 1, i2 : m - 1], self._fin_clo[i2][None], out=f[:, kspan, 1:])
            f[:, kspan, 0] = NEG_INF
            f[:, kspan, 1] = seed[:, i2]
            np.copyto(f[:, kspan + 1], g[:, i2, i2:])
            row = row_full[:, :w]
            reduce(f, axis=1, out=row)
            if use_iscore:
                d = iscore_rows[:, i2]
            else:
                d = row[:, 0].copy()
            g[:, i2, i2] = d
            if not idempotent:
                # sequential R2 over the whole window block at once (see
                # VectorizedBPMax._finish_rows): columns left to right,
                # each reading finalized cells of its own row — every
                # derivation summed exactly once
                np.copyto(g[:, i2, i2 + 1 :], row[:, 1:])
                growb = g[:, i2]
                for j2 in range(i2 + 1, m):
                    cand = growb[:, i2:j2] + s2ut[i2 + 1 : j2 + 1, j2][None]
                    growb[:, j2] = maximum(growb[:, j2], reduce(cand, axis=1))
                continue
            row[:, 0] = d
            f2 = sc.tbuf[: nb * kspan * kspan].reshape(nb, kspan, kspan)
            add(row[:, :kspan, None], self._fin_r2[i2][None], out=f2)
            reduce(f2, axis=1, out=scr[:, :kspan])
            maximum(row[:, 1:], scr[:, :kspan], out=g[:, i2, i2 + 1 :])

    # -- coordination ---------------------------------------------------------

    def run(
        self,
        done: frozenset[tuple[int, int]] = frozenset(),
        checkpoint: "CheckpointManager | None" = None,
        deadline: "Deadline | None" = None,
        faults: "FaultPlan | None" = None,
    ) -> float:
        """Execute the whole tile graph; return the interaction score."""
        n, m = self.n, self.m
        self._done = done
        self._deadline = deadline
        self._faults = faults
        counters = _metrics_active()
        if counters is not None:
            counters.gauge_ws_bytes(sum(s.nbytes() for s in self._scratch))
        graph = tile_graph((n, n), TileSpec(("diag", "win"), (1, self.wb)), DEP_VECTORS)
        runner = ParallelRunner(self.threads)

        def on_complete(tile: tuple[int, int], res: dict | None) -> None:
            if res is None:
                return
            span, b = tile
            if not res["resumed"]:
                if counters is not None:
                    for _ in range(res["windows"]):
                        counters.count_window(span, m)
                    counters.count_tile(res["slab_bytes"])
                if checkpoint is not None:
                    w0 = b * self.wb
                    for i1 in range(w0, w0 + res["windows"]):
                        checkpoint.mark_done(i1, i1 + span)
                    checkpoint.maybe_save(self.table)

        try:
            with trace(
                "engine.tiled",
                n=n,
                m=m,
                wb=self.wb,
                threads=self.threads,
                tiles=graph.number_of_nodes(),
            ):
                stats = execute_dag(
                    graph,
                    runner,
                    self._exec_tile,
                    on_complete=on_complete,
                    key=lambda t: t,
                )
            if counters is not None:
                counters.tile_wavefronts += stats.rounds
                counters.tile_idle_ns += stats.idle_ns
        finally:
            runner.close()
            self._done = frozenset()
            self._deadline = None
            self._faults = None
        return float(self.table.get(0, n - 1, 0, m - 1))


# -- registry entry -----------------------------------------------------------


def _matmul(a: np.ndarray, bs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Single-split product (stack of one through the shared primitive)."""
    return maxplus_batched(a[None], bs[None], out)


TILED_BACKEND = register_backend(
    KernelBackend(
        "tiled",
        matmul=_matmul,
        batched_r0=maxplus_batched,
        description="tile-graph wavefront executor: packed slabs, rank-2 GEMM "
        "outer-sums, dependence-counting scheduler, autotuned tile width",
        available=_GEMM_EXACT,
        fallback="numpy-batched",
        note="" if _GEMM_EXACT else "BLAS GEMM outer-sum is not bit-exact here",
        capabilities={
            "threads": True,
            "workspace_reuse": True,
            "autotune": True,
            "tile_graph": True,
        },
        # the log-sum-exp contract runs the same tile graph in float64;
        # gated on its own GEMM outer-sum probe
        semirings=("max-plus",) + (("logsumexp",) if _GEMM_EXACT64 else ()),
    )
)
