"""Vectorized BPMax engines: the optimized program versions.

One engine class covers the paper's coarse / fine / hybrid / hybrid-tiled
program versions (Figs. 15/16) plus the backend-dispatched ``batched``
version.  In this reproduction NumPy row operations play the role of
compiler auto-vectorization, so the variants differ in:

* the outer-triangle traversal order (diagonal vs bottom-up-left-right —
  the paper finds them nearly equivalent, Fig. 13 orange vs blue);
* the R0 kernel (vectorized rows vs the tiled (i2 x k2 x j2) kernel vs a
  :mod:`repro.kernels` backend that stacks all ``k1`` splits into 3-D
  blocks and reduces them with whole-array max-plus ops);
* the *parallelization granularity* metadata (triangle / row / hybrid)
  consumed by the thread-level simulator and the perf model — plus an
  optional real thread pool that row-partitions the R0 products
  (fine-grain parallelism over ``i2`` rows, exactly the paper's scheme).

The per-window computation follows the Phase-II/III schedules:

1. accumulate R0 (max-plus matrix products over ``k1`` splits) together
   with R3/R4, which "are almost free since those get computed along
   with the R0" (§V-C);
2. add the intramolecular closure terms and the independent-fold term;
3. finish rows bottom-up: R1 scatters contributions from completed rows
   below as one blocked update per row, R2 in the collapsed single-step
   form (see :meth:`VectorizedBPMax._finish_rows`).

The hot path is allocation-free: every per-window temporary (the
accumulator, the stacked split operands, the broadcast scratch, the row
buffers) lives in a per-engine :class:`~repro.kernels.Workspace`, and
the shifted right-operand triangles are computed once per completed
window and cached on the :class:`~repro.core.tables.FTable`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from ..kernels import DEFAULT_BACKEND, KernelBackend, Workspace, get_backend
from ..observe.metrics import active as _metrics_active
from ..observe.tracer import trace
from ..parallel.pool import ParallelRunner
from ..semiring.generic import check_engine_semiring, semiring_bias_reduce
from ..semiring.maxplus import NEG_INF
from .dmp import DMP_KERNELS
from .reference import BpmaxInputs
from .tables import FTable

if TYPE_CHECKING:  # pragma: no cover
    from ..robust.checkpoint import CheckpointManager
    from ..robust.deadline import Deadline
    from ..robust.faults import FaultPlan

__all__ = ["VectorizedBPMax", "VARIANT_CONFIGS"]

#: paper program version -> engine configuration
VARIANT_CONFIGS: dict[str, dict] = {
    "coarse": {"order": "diagonal", "kernel": "vectorized", "granularity": "triangle"},
    "fine": {"order": "bottomup", "kernel": "vectorized", "granularity": "row"},
    "hybrid": {"order": "bottomup", "kernel": "vectorized", "granularity": "hybrid"},
    "hybrid-tiled": {"order": "bottomup", "kernel": "tiled", "granularity": "hybrid"},
    "batched": {
        "order": "bottomup",
        "kernel": "vectorized",
        "granularity": "hybrid",
        "backend": "numpy-batched",
    },
}


class VectorizedBPMax:
    """NumPy-vectorized BPMax engine.

    Parameters
    ----------
    inputs: precomputed tables from :func:`repro.core.reference.prepare_inputs`.
    variant: one of ``coarse | fine | hybrid | hybrid-tiled | batched``
        (presets), or pass explicit ``order`` / ``kernel`` / ``backend``
        overrides.
    tile: (i2, k2, j2) extents for the tiled kernel; 0 = untiled dim.
    threads: >1 row-partitions the R0 products over a real thread pool
        (one persistent pool per ``run()``, created lazily and closed in
        its ``finally``).
    backend: a :mod:`repro.kernels` backend name (or resolved
        :class:`~repro.kernels.KernelBackend`) routing R0/R3/R4 through
        the stacked batched path; ``None`` keeps the variant's classic
        per-split kernel.
    workspace: a pre-built :class:`~repro.kernels.Workspace` to reuse
        instead of allocating a fresh one — the serving layer passes one
        workspace to every engine of a same-shape batch so the stacked
        buffers warm up once per *batch* rather than once per request.
        Must match this problem's inner length and split bound, and must
        never be shared between concurrently-running engines.
    fr_q: block width of the ``fourrussians`` backend's lookup tables
        (``None`` = the persisted/heuristic ``~log2(M)`` default).
    fr_sparsify: enable the candidate-list split/block pruning of the
        ``fourrussians`` backend (bit-identical either way).

    A backend carrying the ``bounded_scores`` capability verifies its
    weight-model precondition here: when it fails, the engine resolves
    the backend's declared fallback instead and records a structured
    note on :attr:`backend_note` (``{"requested", "resolved",
    "reason"}``) — a wrong score is never produced.
    """

    def __init__(
        self,
        inputs: BpmaxInputs,
        variant: str = "hybrid-tiled",
        order: str | None = None,
        kernel: str | None = None,
        tile: tuple[int, int, int] = (32, 4, 0),
        threads: int = 1,
        layout: str = "option1",
        backend: str | KernelBackend | None = None,
        workspace: Workspace | None = None,
        fr_q: int | None = None,
        fr_sparsify: bool = True,
    ) -> None:
        if variant not in VARIANT_CONFIGS:
            raise ValueError(
                f"unknown variant {variant!r}; use one of {list(VARIANT_CONFIGS)}"
            )
        cfg = VARIANT_CONFIGS[variant]
        self.variant = variant
        self.order = order or cfg["order"]
        self.kernel_name = kernel or cfg["kernel"]
        self.granularity = cfg["granularity"]
        if self.kernel_name not in DMP_KERNELS:
            raise ValueError(f"unknown kernel {self.kernel_name!r}")
        if self.order not in ("diagonal", "bottomup"):
            raise ValueError(f"order must be 'diagonal' or 'bottomup', got {self.order!r}")
        self.tile = tile
        self.threads = threads
        if backend is None:
            backend = cfg.get("backend")
        self.backend: KernelBackend | None = (
            get_backend(backend) if backend is not None else None
        )
        self._faults: "FaultPlan | None" = None
        self._pool: ParallelRunner | None = None
        self.inputs = inputs
        self.sr = check_engine_semiring(inputs.semiring)
        self.backend_note: dict[str, str] | None = None
        if self.sr.name != "max-plus":
            # the classic per-split kernels and any max-plus-only backend
            # cannot run this algebra: resolve a semiring-generic backend
            # and record how we got there — a wrong-algebra score is
            # never produced silently
            if self.backend is None:
                resolved = get_backend(DEFAULT_BACKEND)
                self.backend_note = {
                    "requested": "(classic kernels)",
                    "resolved": resolved.name,
                    "reason": (
                        "the classic per-split kernels are max-plus only; "
                        f"semiring {self.sr.name!r} runs on the batched path"
                    ),
                }
                self.backend = resolved
            elif self.sr.name not in self.backend.semirings:
                requested = self.backend.name
                resolved = get_backend(self.backend.fallback or DEFAULT_BACKEND)
                if self.sr.name not in resolved.semirings:
                    resolved = get_backend(DEFAULT_BACKEND)
                self.backend_note = {
                    "requested": requested,
                    "resolved": resolved.name,
                    "reason": (
                        f"backend {requested!r} supports semirings "
                        f"{self.backend.semirings}; requested {self.sr.name!r}"
                    ),
                }
                self.backend = resolved
        dt = self.sr.npdtype
        self._scalar = dt.type  # scalar cast keeping the engine dtype exact
        self.table = FTable(inputs.n, inputs.m, layout=layout, dtype=dt)
        m = inputs.m
        kmax = max(inputs.n - 1, 0)
        if workspace is not None:
            if workspace.m != m or workspace.kmax < kmax or workspace.dtype != dt:
                raise ValueError(
                    f"workspace sized for (m={workspace.m}, kmax="
                    f"{workspace.kmax}, dtype={workspace.dtype.name}) cannot "
                    f"serve a problem needing (m={m}, kmax={kmax}, "
                    f"dtype={dt.name})"
                )
            self._ws = workspace
        else:
            self._ws = Workspace(m, kmax, dtype=dt)
        # S2 restricted to the upper triangle (-inf elsewhere) so it can be
        # combined with F matrices without masking in the hot loops.
        self._s2_ut = np.full((m, m), NEG_INF, dtype=dt)
        iu = np.triu_indices(m)
        self._s2_ut[iu] = inputs.s2[iu]
        # static per-row views of the finish-rows scan, built once so the
        # O(N^2 M) row loop does no slice construction for fixed operands
        s2, score2 = inputs.s2, inputs.score2
        self._fin_r1 = [s2[i2, i2 : m - 1, None] for i2 in range(m)]
        self._fin_clo = [score2[i2, i2 + 1 :] for i2 in range(m)]
        self._fin_r2 = [self._s2_ut[i2 + 1 : m, i2 + 1 :] for i2 in range(m)]
        self._score2_diag1 = (
            np.ascontiguousarray(score2.diagonal(1))
            if m > 1
            else np.empty(0, dtype=dt)
        )
        # bounded-scores backends (fourrussians): verify the precondition
        # now, fall back with a structured note when it does not hold
        self._fr = None
        if self.backend is not None and self.backend.capabilities.get(
            "bounded_scores"
        ):
            from ..kernels.fourrussians_backend import FourRussiansState
            from ..kernels.fourrussians_tables import check_bounded_scores

            check = check_bounded_scores(inputs)
            if not check.ok:
                requested = self.backend.name
                resolved = get_backend(self.backend.fallback)
                self.backend_note = {
                    "requested": requested,
                    "resolved": resolved.name,
                    "reason": check.reason,
                }
                self.backend = resolved
            elif self.threads == 1:
                # the blocked whole-window path; threaded runs keep the
                # generic row-partitioned kernel (still bit-identical)
                self._fr = FourRussiansState(
                    self, d=check.d, q=fr_q, sparsify=fr_sparsify
                )

    # -- traversal ------------------------------------------------------------

    def _windows(self):
        n = self.inputs.n
        if self.order == "diagonal":
            for span in range(1, n):
                for i1 in range(n - span):
                    yield (i1, i1 + span)
        else:
            for i1 in range(n - 1, -1, -1):
                for j1 in range(i1 + 1, n):
                    yield (i1, j1)

    # -- R0/R3/R4 accumulation ---------------------------------------------------

    def _get_pool(self) -> ParallelRunner:
        """The persistent per-run pool (created lazily, closed by run())."""
        if self._pool is None:
            self._pool = ParallelRunner(self.threads, faults=self._faults)
        return self._pool

    def _accumulate_splits(self, i1: int, j1: int, acc: np.ndarray) -> None:
        if self.backend is not None:
            self._accumulate_splits_batched(i1, j1, acc)
            return
        inp = self.inputs
        kern = DMP_KERNELS[self.kernel_name]
        tri = self.table

        def product(a: np.ndarray, bs: np.ndarray, out: np.ndarray) -> None:
            if self.kernel_name in ("tiled", "register-tiled"):
                kern(a, bs, out, tile=self.tile)
            else:
                kern(a, bs, out)

        if self.threads > 1:
            blocks = np.array_split(np.arange(inp.m), self.threads)
            pool = self._get_pool()
            for k1 in range(i1, j1):
                a = tri.inner(i1, k1)
                b = tri.inner(k1 + 1, j1)
                bs = tri.shifted(k1 + 1, j1)

                def do_rows(rows, a=a, bs=bs, b=b, k1=k1):
                    sl = slice(rows[0], rows[-1] + 1)
                    product(a[sl], bs, acc[sl])
                    np.maximum(
                        acc[sl], inp.s1[i1, k1] + b[sl], out=acc[sl]
                    )
                    np.maximum(
                        acc[sl], a[sl] + inp.s1[k1 + 1, j1], out=acc[sl]
                    )

                pool.map(do_rows, [blk for blk in blocks if len(blk)])
            return

        ws = self._ws
        for k1 in range(i1, j1):
            a = tri.inner(i1, k1)
            b = tri.inner(k1 + 1, j1)
            product(a, tri.shifted(k1 + 1, j1), acc)  # R0
            np.add(b, inp.s1[i1, k1], out=ws.red)
            np.maximum(acc, ws.red, out=acc)  # R3
            np.add(a, inp.s1[k1 + 1, j1], out=ws.red)
            np.maximum(acc, ws.red, out=acc)  # R4

    def _accumulate_splits_batched(self, i1: int, j1: int, acc: np.ndarray) -> None:
        """Stacked R0/R3/R4: all ``k1`` splits as one 3-D block reduction."""
        with trace("r0.batched", window=(i1, j1), splits=j1 - i1):
            self._accumulate_splits_batched_inner(i1, j1, acc)

    def _accumulate_splits_batched_inner(
        self, i1: int, j1: int, acc: np.ndarray
    ) -> None:
        if self._fr is not None:
            self._fr.accumulate(self, i1, j1, acc)
            return
        inp = self.inputs
        tri = self.table
        ws = self._ws
        backend = self.backend
        k = j1 - i1
        astack, bstack, braw = ws.stacks(k)
        for s in range(k):
            k1 = i1 + s
            np.copyto(astack[s], tri.inner(i1, k1))
            np.copyto(braw[s], tri.inner(k1 + 1, j1))
            np.copyto(bstack[s], tri.shifted(k1 + 1, j1))
        s1l = np.ascontiguousarray(inp.s1[i1, i1:j1])  # S1[i1, k1]
        s1r = np.ascontiguousarray(inp.s1[i1 + 1 : j1 + 1, j1])  # S1[k1+1, j1]

        sr = self.sr
        if self.threads > 1:
            blocks = np.array_split(np.arange(inp.m), self.threads)
            pool = self._get_pool()

            # row blocks are disjoint slices of ``acc``, so accumulating a
            # non-idempotent ⊕ per block is race-free and counts each
            # candidate exactly once
            def do_rows(rows):
                sl = slice(rows[0], rows[-1] + 1)
                backend.batched_r0(astack[:, sl], bstack, acc[sl], semiring=sr)
                semiring_bias_reduce(sr, braw[:, sl], s1l, acc[sl])  # R3
                semiring_bias_reduce(sr, astack[:, sl], s1r, acc[sl])  # R4

            pool.map(do_rows, [blk for blk in blocks if len(blk)])
            return

        tmp = ws.tmp3(k)
        backend.batched_r0(
            astack, bstack, acc, tmp=tmp, red=ws.red, triangular=True, semiring=sr
        )
        semiring_bias_reduce(sr, braw, s1l, acc, tmp=tmp, red=ws.red)  # R3
        semiring_bias_reduce(sr, astack, s1r, acc, tmp=tmp, red=ws.red)  # R4

    # -- per-window computation --------------------------------------------------

    def _compute_window(self, i1: int, j1: int) -> None:
        inp = self.inputs
        counters = _metrics_active()
        if counters is not None:
            counters.count_window(j1 - i1, inp.m)
        s1v = float(inp.s1[i1, j1])
        g = self.table.alloc(i1, j1)

        if i1 == j1:
            self._compute_diagonal_window(i1, g)
            return

        ws = self._ws
        acc = ws.acc_reset()
        if self._fr is not None:
            # seed the split-independent terms first so the Four-Russians
            # dominance prune starts from a meaningful baseline (max is
            # order-independent: same bits either way)
            self._apply_window_terms(i1, j1, acc, s1v)
            self._accumulate_splits(i1, j1, acc)
        else:
            self._accumulate_splits(i1, j1, acc)
            self._apply_window_terms(i1, j1, acc, s1v)

        self._finish_rows(i1, j1, g, acc, s1v)

    def _apply_window_terms(
        self, i1: int, j1: int, acc: np.ndarray, s1v: float
    ) -> None:
        """The window's split-independent terms: closure-1 + independent
        folds of both windows."""
        inp = self.inputs
        ws = self._ws
        accum = self.sr.add
        # closure of the (i1, j1) intramolecular pair
        if j1 == i1 + 1:
            np.add(self._s2_ut, inp.score1[i1, j1], out=ws.red)
        else:
            np.add(self.table.inner(i1 + 1, j1 - 1), inp.score1[i1, j1], out=ws.red)
        accum(acc, ws.red, out=acc)
        # independent folds of both windows
        np.add(self._s2_ut, self._scalar(s1v), out=ws.red)
        accum(acc, ws.red, out=acc)

    def _compute_diagonal_window(self, i1: int, g: np.ndarray) -> None:
        """Windows with a single strand-1 base (no R0/R3/R4/closure1)."""
        inp = self.inputs
        acc = self._ws.acc
        # -inf stays -inf below the diagonal, so the add alone seeds the
        # independent-fold term everywhere it applies
        np.add(self._s2_ut, inp.s1[i1, i1], out=acc)
        self._finish_rows(i1, i1, g, acc, float(inp.s1[i1, i1]), base_iscore=True)

    def _finish_rows(
        self,
        i1: int,
        j1: int,
        g: np.ndarray,
        start: np.ndarray,
        s1v: float,
        base_iscore: bool = False,
    ) -> None:
        """Rows bottom-up; R1 and R2 as blocked whole-row updates.

        R1 reads only completed rows below, whose matrices carry -inf
        left of the diagonal, so the split-range restriction is implicit
        and the whole scan is one broadcast-and-reduce per row.

        Under max-plus, R2 uses the collapsed single-step form: because
        ``S2`` is built by the Nussinov recurrence it is max-plus
        superadditive (``S2[a, b] >= S2[a, k] + S2[k+1, b]`` exactly as
        stored), so any chained scatter through an intermediate finalized
        cell is dominated by the direct contribution from the pre-R2 row
        value — the incremental left-to-right scatter collapses to
        ``max_k2 vals[k2] + S2[k2+1, j2]`` with ``vals`` the post-R1 row
        (plus the finalized diagonal).  With the integer-valued scoring
        models every sum is exact in float32, making this bit-identical
        to the scalar references.

        That collapse is the one optimization in the engine that needs an
        *idempotent* ⊕ (the chained and direct derivations coincide under
        max, but are distinct summands).  Non-idempotent semirings take a
        sequential left-to-right scan instead: each ``j2`` reduces the
        candidates ``F[i2, k2] ⊗ S2[k2+1, j2]`` over finalized cells to
        its left — each derivation counted exactly once, matching the
        reference recursion's candidate set verbatim.
        """
        inp = self.inputs
        m = inp.m
        ws = self._ws
        sr = self.sr
        fin_flat = ws.fin.reshape(-1)  # contiguous (rows, w) blocks per row
        rowbuf = ws.row_a
        scratch = ws.row_c
        fin_r1 = self._fin_r1
        fin_clo = self._fin_clo
        fin_r2 = self._fin_r2
        add = np.add
        maximum = sr.add
        reduce = sr.add_reduce
        copyto = np.copyto
        use_iscore = base_iscore and j1 == i1
        # closure-2 seed for the empty inner window, all rows at once
        if m > 1:
            seed = ws.row_b[: m - 1]
            add(self._score2_diag1, self._scalar(s1v), out=seed)
        for i2 in range(m - 1, -1, -1):
            kspan = m - 1 - i2
            if kspan == 0:
                g[i2, i2] = inp.iscore[i1, i2] if use_iscore else start[i2, i2]
                continue
            w = m - i2  # columns [i2:] — the only ones the triangle stores
            # One stacked reduce covers three sources at once: every R1
            # row below (the -inf left of each stored diagonal makes the
            # split-range restriction implicit), the closure-2 row, and
            # the accumulator row itself.
            fin = fin_flat[: (kspan + 2) * w].reshape(kspan + 2, w)
            add(fin_r1[i2], g[i2 + 1 : m, i2:], out=fin[:kspan])
            add(g[i2 + 1, i2 : m - 1], fin_clo[i2], out=fin[kspan, 1:])
            fin[kspan, 0] = NEG_INF
            fin[kspan, 1] = seed[i2]  # empty inner window
            copyto(fin[kspan + 1], start[i2, i2:])
            row = rowbuf[:w]
            reduce(fin, axis=0, out=row)
            # diagonal cell
            d = inp.iscore[i1, i2] if use_iscore else row[0]
            g[i2, i2] = d
            if not sr.idempotent:
                # sequential R2 (see docstring): finalize columns left to
                # right, reading already-final cells of this same row
                copyto(g[i2, i2 + 1 :], row[1:])
                grow = g[i2]
                s2ut = self._s2_ut
                for j2 in range(i2 + 1, m):
                    cand = grow[i2:j2] + s2ut[i2 + 1 : j2 + 1, j2]
                    grow[j2] = maximum(grow[j2], reduce(cand))
                continue
            # R2, collapsed (see docstring); only columns > i2 exist.
            # row[0] is dead after the diagonal store, so it doubles as
            # the k2 = i2 candidate slot.
            row[0] = d
            fin2 = fin_flat[: kspan * kspan].reshape(kspan, kspan)
            add(row[:kspan, None], fin_r2[i2], out=fin2)
            reduce(fin2, axis=0, out=scratch[:kspan])
            maximum(row[1:], scratch[:kspan], out=g[i2, i2 + 1 :])

    # -- public API -----------------------------------------------------------------

    def run(
        self,
        *,
        checkpoint: "CheckpointManager | None" = None,
        deadline: "Deadline | None" = None,
        faults: "FaultPlan | None" = None,
        resume: frozenset[tuple[int, int]] | None = None,
    ) -> float:
        """Fill the full table; return the interaction score.

        The optional robustness hooks are polled per outer window:
        windows listed in ``resume`` (pre-loaded from a checkpoint) are
        skipped, ``deadline`` raises when the budget expires, ``faults``
        injects crash/slow faults, and ``checkpoint`` snapshots the
        table whenever a full prefix of outer diagonals completes.

        With ``threads > 1`` one persistent :class:`ParallelRunner` is
        created lazily for the whole run (not one per window) and closed
        here, whatever the outcome — preserving the pool's
        fault-injection and close-after-use semantics.
        """
        inp = self.inputs
        done = frozenset() if resume is None else frozenset(resume)
        if (
            self.backend is not None
            and self.backend.capabilities.get("tile_graph")
        ):
            # tile-graph backends run the whole fill through the tiled
            # wavefront executor (bit-identical tables, same hooks)
            from ..kernels.tiled_backend import TiledExecutor

            if TiledExecutor.fits(inp.n, inp.m, itemsize=self.sr.npdtype.itemsize):
                with trace(
                    "engine.run",
                    variant=self.variant,
                    n=inp.n,
                    m=inp.m,
                    order=self.order,
                    kernel=self.kernel_name,
                    backend=self.backend.name,
                    threads=self.threads,
                ):
                    return TiledExecutor(self).run(
                        done=done,
                        checkpoint=checkpoint,
                        deadline=deadline,
                        faults=faults,
                    )
            # mirrors would not fit: fall through to the per-window
            # batched path, which computes the identical sums in the
            # same semiring dtype
        self._faults = faults
        try:
            with trace(
                "engine.run",
                variant=self.variant,
                n=inp.n,
                m=inp.m,
                order=self.order,
                kernel=self.kernel_name,
                backend=self.backend.name if self.backend is not None else None,
                threads=self.threads,
            ):
                for i1 in range(inp.n):
                    self._run_window(i1, i1, done, checkpoint, deadline, faults)
                for i1, j1 in self._windows():
                    self._run_window(i1, j1, done, checkpoint, deadline, faults)
        finally:
            if self._pool is not None:
                self._pool.close()
                self._pool = None
            self._faults = None
        return float(self.table.get(0, inp.n - 1, 0, inp.m - 1))

    def _run_window(
        self,
        i1: int,
        j1: int,
        done: frozenset[tuple[int, int]],
        checkpoint: "CheckpointManager | None",
        deadline: "Deadline | None",
        faults: "FaultPlan | None",
    ) -> None:
        if (i1, j1) in done:
            return
        if deadline is not None:
            deadline.check(f"window ({i1}, {j1})")
        if faults is not None:
            delay = faults.engine_window(i1, j1)
            if delay > 0:
                time.sleep(delay)
        with trace("engine.window", i1=i1, j1=j1):
            self._compute_window(i1, j1)
        if checkpoint is not None:
            checkpoint.mark_done(i1, j1)
            checkpoint.maybe_save(self.table)
