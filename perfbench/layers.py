"""Per-layer timing for the traced run, taken from outside the program.

:class:`LayerTrace` replaces public entry points of each layer with thin
timing wrappers while it is entered, and puts the originals back on
exit.  The program itself is not edited: every span is recorded here,
around the call into the layer.

==============  ========================================================
layer           entry points wrapped
==============  ========================================================
``repro.rna``   ``prepare_inputs`` (score tables and S1/S2 folds)
``repro.core``  ``make_engine``; ``VectorizedBPMax.run`` (the table fill)
``repro.kernels`` the R0 entry points: the classic per-split kernels in
                ``DMP_KERNELS``, ``KernelBackend.batched_r0`` and
                ``TiledExecutor.run`` (the tile-graph executor)
``repro.serve`` ``BatchScheduler.submit`` (submit and resolve times),
                ``repro.core.api.bpmax`` as the scheduler calls it
                (engine start and end), ``GatewayClient.fold``
==============  ========================================================

Counts come from the program's own ``repro.observe.collecting()``
counters, installed for the same interval.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time
from typing import Any, Callable

clock = time.perf_counter


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _timed(orig: Callable, spans: list) -> Callable:
    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            return orig(*args, **kwargs)
        finally:
            spans.append((t0, clock()))

    return wrapper


class LayerTrace:
    """Install the layer wrappers and an observe collector while entered.

    After exit, :meth:`metrics` turns the spans and counters into the
    benchmark's per-layer metrics, and :attr:`engine_runs` lists the
    ``(n, m)`` of every table fill, for the closed-form count check.
    """

    def __init__(self) -> None:
        self.prepare: list = []
        self.build: list = []
        self.fill: list = []
        self.r0: list = []
        self.submits: list = []  # [id, key, t_submit, t_resolve, answered_at_submit]
        self.engine_calls: list = []  # (key, t0, t1)
        self.folds: list = []  # (id, t0, t1)
        self.engine_runs: list[tuple[int, int]] = []
        self.wrapped_calls = 0
        self.counters = None
        self._undo: list[Callable[[], None]] = []
        self._r0_depth = threading.local()
        self._collect = None

    # -- installation ---------------------------------------------------------

    def _set(self, owner: Any, name: str, value: Any) -> None:
        old = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, old))

    def _patch_everywhere(self, orig: Callable, wrapper: Callable) -> None:
        """Replace ``orig`` in every ``repro`` module that imported it."""
        for modname, mod in list(sys.modules.items()):
            if modname == "repro" or modname.startswith("repro."):
                if getattr(mod, orig.__name__, None) is orig:
                    self._set(mod, orig.__name__, wrapper)

    def _r0_wrapper(self, orig: Callable) -> Callable:
        depth = self._r0_depth
        spans = self.r0

        def wrapper(*args, **kwargs):
            if getattr(depth, "n", 0):
                return orig(*args, **kwargs)
            depth.n = 1
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                spans.append((t0, clock()))
                depth.n = 0

        return wrapper

    def __enter__(self) -> "LayerTrace":
        import repro.core.api as api
        from repro.core.dmp import DMP_KERNELS
        from repro.core.engine import make_engine
        from repro.core.reference import prepare_inputs
        from repro.core.vectorized import VectorizedBPMax
        from repro.kernels import KernelBackend, TiledExecutor
        from repro.observe import collecting
        from repro.serve import BatchScheduler, GatewayClient

        self._patch_everywhere(prepare_inputs, _timed(prepare_inputs, self.prepare))
        self._patch_everywhere(make_engine, _timed(make_engine, self.build))

        fill_run = VectorizedBPMax.run
        fill, runs = self.fill, self.engine_runs

        def run(engine, **kwargs):
            runs.append((engine.inputs.n, engine.inputs.m))
            t0 = clock()
            try:
                return fill_run(engine, **kwargs)
            finally:
                fill.append((t0, clock()))

        self._set(VectorizedBPMax, "run", run)

        for name, kernel in list(DMP_KERNELS.items()):
            DMP_KERNELS[name] = self._r0_wrapper(kernel)
            self._undo.append(lambda n=name, k=kernel: DMP_KERNELS.__setitem__(n, k))
        self._set(KernelBackend, "batched_r0", self._r0_wrapper(KernelBackend.batched_r0))
        self._set(TiledExecutor, "run", self._r0_wrapper(TiledExecutor.run))

        submit_orig = BatchScheduler.submit
        submits = self.submits

        def submit(sched, request):
            t0 = clock()
            fut = submit_orig(sched, request)
            rec = [request.id, (request.seq1, request.seq2, request.semiring), t0, None, fut.done()]
            fut.add_done_callback(lambda _f, rec=rec: rec.__setitem__(3, clock()))
            submits.append(rec)
            return fut

        self._set(BatchScheduler, "submit", submit)

        bpmax_orig = api.bpmax
        calls = self.engine_calls

        def bpmax(seq1, seq2, *args, **kwargs):
            t0 = clock()
            try:
                return bpmax_orig(seq1, seq2, *args, **kwargs)
            finally:
                key = (str(seq1), str(seq2), kwargs.get("semiring", "max-plus"))
                calls.append((key, t0, clock()))

        self._set(api, "bpmax", bpmax)

        fold_orig = GatewayClient.fold
        folds = self.folds

        def fold(client, request):
            t0 = clock()
            try:
                return fold_orig(client, request)
            finally:
                rid = request.get("id", "") if isinstance(request, dict) else request.id
                folds.append((rid, t0, clock()))

        self._set(GatewayClient, "fold", fold)

        self._collect = collecting()
        self.counters = self._collect.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._collect.__exit__(None, None, None)
        while self._undo:
            self._undo.pop()()
        self.wrapped_calls = sum(
            len(x)
            for x in (
                self.prepare,
                self.build,
                self.fill,
                self.r0,
                self.submits,
                self.engine_calls,
                self.folds,
            )
        )

    # -- results --------------------------------------------------------------

    def _serve_metrics(self) -> dict[str, float]:
        first_submit: dict = {}
        resolve_s: dict[str, float] = {}
        requests: list[float] = []
        for rid, key, t0, t1, answered in self.submits:
            if t1 is None:
                continue
            requests.append(t1 - t0)
            resolve_s[rid] = t1 - t0
            if not answered and (key not in first_submit or t0 < first_submit[key]):
                first_submit[key] = t0
        waits, service = [], []
        for key, t0, t1 in self.engine_calls:
            if key in first_submit:
                waits.append(t0 - first_submit[key])
                service.append(t1 - t0)
        http = [
            (t1 - t0) - resolve_s[rid] for rid, t0, t1 in self.folds if rid in resolve_s
        ]
        c = self.counters
        computed = len(service)
        submitted = len(requests)
        return {
            "serve.queue_wait_p50_s": percentile(waits, 50),
            "serve.service_p50_s": percentile(service, 50),
            "serve.http_overhead_p50_s": percentile(http, 50),
            "serve.request_p95_s": percentile(requests, 95),
            "serve.batches": c.batches_dispatched,
            "serve.mean_batch_size": computed / c.batches_dispatched
            if c.batches_dispatched
            else 0.0,
            "serve.cache_hit_ratio": 1.0 - computed / submitted if submitted else 0.0,
            "serve.computed": computed,
        }

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over the traced interval (times in seconds)."""

        def busy(spans: list) -> float:
            return sum(t1 - t0 for t0, t1 in spans)

        c = self.counters
        fill_s = busy(self.fill)
        r0_s = busy(self.r0)
        out = {
            "rna.prepare_s": busy(self.prepare),
            "rna.prepare_calls": len(self.prepare),
            "core.engine_build_s": busy(self.build),
            "core.fill_s": fill_s,
            "core.fill_self_s": fill_s - r0_s,
            "core.windows": c.windows,
            "core.cells": c.cells,
            "core.ops": c.ops_total,
            # two flops (one add, one max) per counted max-plus operation,
            # the paper's GFLOPS convention
            "core.fill_gops": 2 * c.ops_total / fill_s / 1e9 if fill_s else 0.0,
            "kernels.r0_s": r0_s,
            "kernels.calls": len(self.r0),
            "kernels.ws_bytes_allocated": c.ws_bytes_allocated,
            "kernels.ws_grow_events": c.ws_grow_events,
            "kernels.tiles_executed": c.tiles_executed,
        }
        out.update(self._serve_metrics())
        return out

    def count_errors(self) -> list[str]:
        """Compare the program's op and cell counters with the closed forms
        summed over the table fills actually run (empty list: equal)."""
        from checks import closed_form_counts

        expected: dict[str, int] = {}
        for n, m in self.engine_runs:
            for name, value in closed_form_counts(n, m).items():
                expected[name] = expected.get(name, 0) + value
        errors = []
        for name in ("windows", "cells", "ops_r0", "ops_r1", "ops_r2", "ops_r3", "ops_r4"):
            got = getattr(self.counters, name)
            if got != expected.get(name, 0):
                errors.append(f"counter {name}: program {got} != closed form {expected.get(name, 0)}")
        return errors


def wrapper_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Median extra seconds one timing wrapper adds to a call."""
    spans: list = []

    def noop() -> None:
        return None

    wrapped = _timed(noop, spans)
    extra = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        spans.clear()
        extra.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(0.0, statistics.median(extra))
