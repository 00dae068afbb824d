"""Tiled wavefront backend: scheduler, executor, autotuner, counters.

The generic equivalence suite (tests/kernels/test_equivalence.py) already
covers the ``tiled`` backend through its registry sweep; this module pins
the tile-specific contracts — window-block sweeps and thread counts stay
bit-identical, the dependence-counting scheduler is deterministic and
propagates failures, the autotune cache round-trips, resumed tiles are
skipped, and counters report the same op totals as the batched path.
"""

from __future__ import annotations

import json

import networkx as nx
import numpy as np
import pytest

from repro.core.api import bpmax
from repro.core.engine import make_engine
from repro.core.reference import bpmax_recursive, prepare_inputs
from repro.kernels import BACKENDS, TiledExecutor, Workspace, get_tile_shape
from repro.kernels.autotune import (
    cache_key,
    default_candidates,
    heuristic_block,
    load_cache,
    save_entry,
    size_class,
    tune,
)
from repro.kernels.tiled_backend import gemm_outer_sum_exact
from repro.observe import collecting
from repro.parallel.pool import ParallelRunner
from repro.parallel.wavefront import execute_dag
from repro.rna.sequence import random_pair
from repro.robust.errors import EngineFailure
from repro.robust.faults import FaultPlan

TILED = BACKENDS["tiled"]

pytestmark = pytest.mark.skipif(
    not TILED.available, reason=f"tiled backend unavailable: {TILED.note}"
)


def _full_tables(engine):
    n = engine.inputs.n
    return {
        (i1, j1): np.array(engine.table.inner(i1, j1), copy=True)
        for i1 in range(n)
        for j1 in range(i1, n)
    }


class TestBackendRegistration:
    def test_probe_passes_on_this_machine(self):
        assert gemm_outer_sum_exact()

    def test_capability_flags(self):
        assert TILED.capabilities == {
            "threads": True,
            "workspace_reuse": True,
            "autotune": True,
            "tile_graph": True,
            "bounded_scores": False,
        }
        batched = BACKENDS["numpy-batched"]
        assert not batched.capabilities["tile_graph"]
        assert set(TILED.capabilities) == set(TILED.CAPABILITY_FLAGS)


class TestBitIdentity:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_threads_bit_identical_tables(self, medium_inputs, threads):
        ref = make_engine(medium_inputs, variant="batched", backend="numpy-batched")
        tiled = make_engine(
            medium_inputs, variant="batched", backend="tiled", threads=threads
        )
        assert ref.run() == tiled.run()
        expected = _full_tables(ref)
        got = _full_tables(tiled)
        for key, block in expected.items():
            np.testing.assert_array_equal(got[key], block, err_msg=str(key))

    @pytest.mark.parametrize("wb", [1, 2, 3, 5, 99])
    def test_window_block_sweep_exact(self, wb):
        s1, s2 = random_pair(9, 6, 17)
        inp = prepare_inputs(s1, s2)
        expected = bpmax_recursive(inp)
        engine = make_engine(inp, variant="batched", backend="tiled", threads=2)
        assert TiledExecutor(engine, wb=wb).run() == expected

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (2, 2), (3, 7)])
    def test_degenerate_shapes(self, shape):
        n, m = shape
        s1, s2 = random_pair(n, m, 3)
        inp = prepare_inputs(s1, s2)
        expected = bpmax_recursive(inp)
        got = make_engine(inp, variant="batched", backend="tiled", threads=2).run()
        assert got == expected

    def test_op_counts_match_batched(self, medium_inputs):
        with collecting() as ref_c:
            make_engine(medium_inputs, variant="batched", backend="numpy-batched").run()
        with collecting() as tiled_c:
            make_engine(
                medium_inputs, variant="batched", backend="tiled", threads=2
            ).run()
        assert tiled_c.op_counts() == ref_c.op_counts()
        assert tiled_c.cells == ref_c.cells
        assert tiled_c.tiles_executed > 0
        assert tiled_c.tile_wavefronts > 0
        assert ref_c.tiles_executed == 0

    def test_scratch_cap_falls_back_to_batched_path(self, small_inputs, monkeypatch):
        """Over-cap problems run the per-window path, still exact."""
        import repro.kernels.tiled_backend as tb

        n, m = small_inputs.n, small_inputs.m
        tiled_score = make_engine(small_inputs, variant="batched", backend="tiled").run()
        monkeypatch.setattr(tb, "SCRATCH_BYTES_CAP", 0)
        assert not TiledExecutor.fits(n, m, 4, 1, n)
        expected = bpmax_recursive(small_inputs)
        with collecting() as c:
            got = make_engine(small_inputs, variant="batched", backend="tiled").run()
        assert got == expected == tiled_score
        assert c.tiles_executed == 0

    def test_fits_refuses_paper_shape_by_arithmetic(self, monkeypatch):
        """16 x 2500 (the paper's workload) is refused from shapes alone."""
        import repro.kernels.tiled_backend as tb

        def no_alloc(*args, **kwargs):
            raise AssertionError("fits() must not allocate")

        monkeypatch.setattr(tb.np, "empty", no_alloc)
        monkeypatch.setattr(tb.np, "zeros", no_alloc)
        wb = heuristic_block(16, 2500, 1)
        assert wb == 16
        assert not TiledExecutor.fits(16, 2500, 4, 1, wb)
        assert TiledExecutor.fits(16, 64, 4, 1, 16)
        # the footprint is per worker slot: threads multiply it
        per_slot = tb._TileScratch.footprint(16, 16, 64, 4)
        monkeypatch.setattr(tb, "SCRATCH_BYTES_CAP", 2 * per_slot)
        assert TiledExecutor.fits(16, 64, 4, 2, 16)
        assert not TiledExecutor.fits(16, 64, 4, 3, 16)
        assert not TiledExecutor.fits(16, 64, 8, 2, 16)

    def test_scratch_footprint_matches_allocation(self):
        import repro.kernels.tiled_backend as tb

        for wb, n, m, dtype in ((16, 16, 64, np.float32), (3, 7, 5, np.float64)):
            sc = tb._TileScratch(wb, n, m, dtype=dtype)
            itemsize = np.dtype(dtype).itemsize
            assert sc.nbytes() == tb._TileScratch.footprint(wb, n, m, itemsize)


class TestTableViews:
    def test_block_views_equal_table_windows(self):
        """Every operand view is exactly the table window it names."""
        s1, s2 = random_pair(5, 7, 23)
        inp = prepare_inputs(s1, s2)
        engine = make_engine(inp, variant="batched", backend="tiled")
        engine.run()
        table = engine.table
        ex = TiledExecutor(engine, wb=2)
        n = inp.n
        for span in range(n):
            for w0 in range(0, n - span, 2):
                w1 = min(w0 + 2, n - span)
                g, A, AT, B, inner = ex._block_views(span, w0, w1)
                assert g.flags.writeable
                assert not (A.flags.writeable or AT.flags.writeable or B.flags.writeable)
                assert A.shape == B.shape == (w1 - w0, span, 7, 7)
                assert (inner is None) == (span < 2)
                for w in range(w1 - w0):
                    i1, j1 = w0 + w, w0 + w + span
                    np.testing.assert_array_equal(g[w], table.inner(i1, j1))
                    for kk in range(span):
                        k1 = i1 + kk
                        np.testing.assert_array_equal(A[w, kk], table.inner(i1, k1))
                        np.testing.assert_array_equal(AT[w, kk], table.inner(i1, k1).T)
                        np.testing.assert_array_equal(B[w, kk], table.inner(k1 + 1, j1))
                    if inner is not None:
                        np.testing.assert_array_equal(inner[w], table.inner(i1 + 1, j1 - 1))


class TestResumeAndFaults:
    def test_crash_checkpoint_resume(self, tmp_path):
        s1, s2 = random_pair(6, 5, 8)
        clean = bpmax(s1, s2, variant="batched", backend="tiled", threads=2)
        path = tmp_path / "tiled.npz"
        plan = FaultPlan(crash_windows=[(1, 3)])
        with pytest.raises(EngineFailure):
            bpmax(
                s1, s2, variant="batched", backend="tiled", threads=2,
                checkpoint=path, faults=plan,
            )
        resumed = bpmax(
            s1, s2, variant="batched", backend="tiled", threads=2,
            checkpoint=path, resume=True,
        )
        assert resumed.score == clean.score
        assert resumed.resumed_windows > 0

    def test_resumed_tiles_not_recounted(self, tmp_path):
        """Resume computes (and counts) only the windows past the prefix."""
        s1, s2 = random_pair(6, 5, 8)
        path = tmp_path / "tiled.npz"
        with pytest.raises(EngineFailure):
            bpmax(
                s1, s2, variant="batched", backend="tiled",
                checkpoint=path, faults=FaultPlan(crash_windows=[(0, 3)]),
            )
        with collecting() as c:
            bpmax(
                s1, s2, variant="batched", backend="tiled",
                checkpoint=path, resume=True,
            )
        inp = prepare_inputs(s1, s2)
        with collecting() as full:
            make_engine(inp, variant="batched", backend="tiled").run()
        assert c.cells < full.cells

    def test_slow_fault_applies(self):
        s1, s2 = random_pair(4, 4, 5)
        clean = bpmax(s1, s2, variant="batched", backend="tiled")
        slowed = bpmax(
            s1, s2, variant="batched", backend="tiled",
            faults=FaultPlan(slow_windows={(0, 1): 0.01}),
        )
        assert slowed.score == clean.score


class TestExecuteDag:
    def _chain(self, k):
        g = nx.DiGraph()
        for i in range(k):
            g.add_node(i)
            if i:
                g.add_edge(i - 1, i)
        return g

    @pytest.mark.parametrize("threads", [1, 3])
    def test_executes_every_task_in_order(self, threads):
        g = self._chain(6)
        order = []
        with ParallelRunner(threads) as runner:
            stats = execute_dag(g, runner, lambda t: order.append(t) or t)
        assert stats.tasks == 6
        assert order == list(range(6))

    def test_on_complete_receives_results(self):
        g = nx.DiGraph()
        g.add_nodes_from("abc")
        seen = {}
        with ParallelRunner(2) as runner:
            execute_dag(
                g, runner, lambda t: t.upper(),
                on_complete=lambda t, r: seen.__setitem__(t, r),
            )
        assert seen == {"a": "A", "b": "B", "c": "C"}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_error_propagates_and_cancels(self, threads):
        g = self._chain(5)
        ran = []

        def body(t):
            if t == 2:
                raise ValueError("boom at 2")
            ran.append(t)
            return t

        with ParallelRunner(threads) as runner:
            with pytest.raises(ValueError, match="boom at 2"):
                execute_dag(g, runner, body)
        assert 3 not in ran and 4 not in ran  # successors never dispatched

    def test_cyclic_graph_rejected(self):
        g = nx.DiGraph([(0, 1), (1, 0)])
        with ParallelRunner(1) as runner:
            with pytest.raises(ValueError, match="acyclic"):
                execute_dag(g, runner, lambda t: t)

    def test_key_orders_ready_set(self):
        g = nx.DiGraph()
        g.add_nodes_from([3, 1, 2])
        order = []
        with ParallelRunner(1) as runner:
            execute_dag(g, runner, lambda t: order.append(t), key=lambda t: -t)
        assert order == [3, 2, 1]


class TestAutotune:
    def test_size_class_buckets(self):
        assert size_class(1) == 8
        assert size_class(8) == 8
        assert size_class(9) == 16
        assert size_class(60) == 64

    def test_heuristic_single_thread_one_tile_per_diagonal(self):
        assert heuristic_block(40, 40, threads=1) == 40
        assert heuristic_block(1, 40, threads=8) == 1

    def test_heuristic_multithread_bounded(self):
        wb = heuristic_block(60, 60, threads=2)
        assert 1 <= wb <= 15  # at most ceil(n / 2 threads)

    def test_default_candidates_cover_heuristic_picks(self):
        cands = default_candidates(16, threads=2)
        assert set(cands) >= {1, 2, 4, 8, 16}
        assert all(1 <= c <= 16 for c in cands)

    def test_cache_round_trip(self, tmp_path):
        path = tmp_path / "autotune.json"
        key = cache_key(12, 9, 2)
        save_entry(key, {"wb": 6, "wall_s": 0.1}, path)
        assert load_cache(path)["entries"][key]["wb"] == 6
        assert get_tile_shape(12, 9, threads=2, path=path) == 6
        # other keys still fall back to the heuristic
        assert get_tile_shape(12, 9, threads=3, path=path) == heuristic_block(
            12, 9, 3
        )

    def test_corrupt_cache_reads_empty(self, tmp_path):
        path = tmp_path / "autotune.json"
        path.write_text("{ not json")
        assert load_cache(path) == {"version": 1, "entries": {}}
        path.write_text(json.dumps({"version": 999, "entries": {"x": {}}}))
        assert load_cache(path)["entries"] == {}

    def test_tuned_wb_clamped_to_n(self, tmp_path):
        path = tmp_path / "autotune.json"
        save_entry(cache_key(5, 4, 1), {"wb": 1000}, path)
        assert get_tile_shape(5, 4, threads=1, path=path) == 5

    def test_tune_measures_and_persists(self, tmp_path):
        path = tmp_path / "autotune.json"
        res = tune(6, 5, threads=2, candidates=[1, 6], repeats=1, path=path)
        assert res.best_wb in (1, 6)
        assert set(res.candidates) == {1, 6}
        entry = load_cache(path)["entries"][res.key]
        assert entry["wb"] == res.best_wb
        assert get_tile_shape(6, 5, threads=2, path=path) == res.best_wb


class TestWorkspaceQuantum:
    def test_growth_rounds_to_quantum(self):
        ws = Workspace(4, kmax=100, quantum=8)
        ws.stacks(3)
        assert ws._cap == 8  # want=max(4, 0) rounded up to the quantum
        ws.stacks(9)
        assert ws._cap == 16  # doubled and still quantum-aligned

    def test_growth_never_exceeds_kmax(self):
        ws = Workspace(3, kmax=5, quantum=8)
        ws.stacks(5)
        assert ws._cap == 5

    def test_workspace_bytes_gauge(self, small_inputs):
        with collecting() as c:
            make_engine(small_inputs, variant="batched", backend="numpy-batched").run()
        assert c.workspace_bytes > 0

    def test_tiled_reports_scratch_high_water(self, small_inputs):
        with collecting() as c:
            make_engine(small_inputs, variant="batched", backend="tiled").run()
        assert c.workspace_bytes > 0
        assert c.tile_slab_bytes >= 0
