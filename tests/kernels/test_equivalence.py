"""Backend-equivalence suite: every backend must be *bit-identical* to the
references — on clean runs, across variants, under checkpoint/resume
interruption, under fault injection, threaded, and through fallback
chains.  This is the contract that makes the backend registry safe to
dispatch at runtime."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import bpmax
from repro.core.bppart import bppart_recursive
from repro.core.dmp import DoubleMaxPlus, dmp_reference, random_triangles
from repro.core.engine import make_engine
from repro.core.reference import bpmax_recursive, prepare_inputs
from repro.core.vectorized import VARIANT_CONFIGS, VectorizedBPMax
from repro.kernels import (
    BACKENDS,
    DEFAULT_BACKEND,
    KernelBackend,
    available_backends,
    register_backend,
)
from repro.rna.sequence import random_pair
from repro.robust.errors import EngineFailure
from repro.robust.faults import FaultPlan
from repro.serve.request import SubmitRequest
from repro.serve.scheduler import BatchScheduler

BACKEND_NAMES = list(available_backends())
RNA = st.text(alphabet="ACGU", min_size=1, max_size=6)
DEGENERATE_SHAPES = [(1, 1), (1, 5), (5, 1), (2, 2), (3, 7)]
#: pinned log-sum-exp tolerance of the golden manifest
LSE_ATOL = 1e-9


def _full_table_items(engine):
    n, m = engine.inputs.n, engine.inputs.m
    return {
        (i1, j1): np.array(engine.table.inner(i1, j1), copy=True)
        for i1 in range(n)
        for j1 in range(i1, n)
    }


class TestScoreEquivalence:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_batched_matches_oracle(self, medium_inputs, backend):
        expected = bpmax_recursive(medium_inputs)
        got = make_engine(medium_inputs, variant="batched", backend=backend).run()
        assert got == expected

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("variant", list(VARIANT_CONFIGS))
    def test_every_variant_accepts_every_backend(
        self, small_inputs, variant, backend
    ):
        expected = bpmax_recursive(small_inputs)
        got = VectorizedBPMax(
            small_inputs, variant=variant, backend=backend, tile=(2, 2, 0)
        ).run()
        assert got == expected

    @given(RNA, RNA)
    @settings(max_examples=25, deadline=None)
    def test_property_backends_bit_identical(self, a, b):
        inp = prepare_inputs(a, b)
        expected = bpmax_recursive(inp)
        scores = {
            name: make_engine(inp, variant="batched", backend=name).run()
            for name in BACKEND_NAMES
        }
        for name, score in scores.items():
            assert score == expected, name  # exact, not approx

    def test_full_tables_bit_identical(self, medium_inputs):
        engines = {
            name: make_engine(medium_inputs, variant="batched", backend=name)
            for name in BACKEND_NAMES
        }
        engines["legacy"] = make_engine(medium_inputs, variant="hybrid")
        for eng in engines.values():
            eng.run()
        tables = {name: _full_table_items(eng) for name, eng in engines.items()}
        ref = tables.pop("legacy")
        for name, table in tables.items():
            for key, block in ref.items():
                np.testing.assert_array_equal(table[key], block, err_msg=f"{name} {key}")


class TestBackendParity:
    """Shape, algebra and serving contracts every registered backend meets."""

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("shape", DEGENERATE_SHAPES)
    def test_degenerate_shapes(self, shape, backend):
        n, m = shape
        s1, s2 = random_pair(n, m, 3)
        inp = prepare_inputs(s1, s2)
        expected = bpmax_recursive(inp)
        got = make_engine(inp, variant="batched", backend=backend).run()
        assert got == expected

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_logsumexp_matches_bppart_reference(self, backend):
        """A backend without the algebra resolves to its fallback and says
        so; either way the log-partition matches the recursive reference."""
        s1, s2 = random_pair(7, 6, 41)
        inp = prepare_inputs(s1, s2, semiring="logsumexp")
        engine = make_engine(inp, variant="batched", backend=backend)
        got = engine.run()
        assert got == pytest.approx(bppart_recursive(inp), abs=LSE_ATOL)
        native = "logsumexp" in BACKENDS[backend].semirings
        assert (engine.backend_note is None) == native
        if not native:
            assert engine.backend_note["requested"] == backend

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_logsumexp_threaded_matches_serial(self, backend):
        """Row blocks accumulate a non-idempotent ⊕: each candidate must
        still be counted exactly once."""
        s1, s2 = random_pair(5, 8, 7)
        inp = prepare_inputs(s1, s2, semiring="logsumexp")
        serial = make_engine(inp, variant="batched", backend=backend).run()
        threaded = make_engine(
            inp, variant="batched", backend=backend, threads=3
        ).run()
        assert threaded == pytest.approx(serial, abs=LSE_ATOL)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("variant", list(VARIANT_CONFIGS))
    def test_every_variant_logsumexp(self, variant, backend):
        s1, s2 = random_pair(4, 5, 42)
        inp = prepare_inputs(s1, s2, semiring="logsumexp")
        got = VectorizedBPMax(
            inp, variant=variant, backend=backend, tile=(2, 2, 0)
        ).run()
        assert got == pytest.approx(bppart_recursive(inp), abs=LSE_ATOL)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_serve_passthrough(self, backend):
        s1, s2 = random_pair(6, 6, 57)
        req = SubmitRequest(str(s1), str(s2), backend=backend)
        with BatchScheduler(cache=0) as sched:
            (r,) = sched.serve_all([req])
        assert r.ok, r.error
        assert r.score == bpmax(str(s1), str(s2)).score


class TestDmpEquivalence:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_dmp_backend_bit_identical(self, backend):
        tris = random_triangles(6, 5, 3)
        ref = dmp_reference(tris)
        got = DoubleMaxPlus(tris, backend=backend).run()
        for key in ref:
            np.testing.assert_array_equal(got[key], ref[key], err_msg=str(key))

    @pytest.mark.parametrize("shape", [(1, 3), (4, 1), (5, 6)])
    @pytest.mark.parametrize("order", ["diagonal", "bottomup"])
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_dmp_orders_and_shapes_bit_identical(self, backend, order, shape):
        """Either window order, including one-triangle and width-1 inputs."""
        n, m = shape
        tris = random_triangles(n, m, 11)
        ref = dmp_reference(tris)
        got = DoubleMaxPlus(tris, order=order, backend=backend).run()
        assert set(got) >= set(ref)
        for key in ref:
            np.testing.assert_array_equal(got[key], ref[key], err_msg=str(key))

    def test_dmp_fallback_name_accepted(self):
        """An unavailable backend's name resolves to its fallback and stays
        exact."""
        register_backend(
            KernelBackend(
                "_test-missing",
                matmul=lambda a, b, c: c,
                batched_r0=lambda *a, **k: a[2],
                available=False,
                fallback=DEFAULT_BACKEND,
                note="unit test",
            )
        )
        try:
            tris = random_triangles(5, 4, 9)
            ref = dmp_reference(tris)
            got = DoubleMaxPlus(tris, backend="_test-missing").run()
        finally:
            del BACKENDS["_test-missing"]
        for key in ref:
            np.testing.assert_array_equal(got[key], ref[key], err_msg=str(key))


class TestRobustnessEquivalence:
    """Backends must stay bit-identical through the fault-tolerance layer."""

    @pytest.fixture
    def strands(self):
        return random_pair(5, 7, 21)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_crash_resume_bit_identical(self, tmp_path, strands, backend):
        s1, s2 = strands
        clean = bpmax(s1, s2, variant="batched", backend=backend)
        path = tmp_path / f"{backend}.npz"
        plan = FaultPlan(crash_windows=[(1, 3)])
        with pytest.raises(EngineFailure):
            bpmax(
                s1, s2, variant="batched", backend=backend,
                checkpoint=path, faults=plan,
            )
        resumed = bpmax(
            s1, s2, variant="batched", backend=backend,
            checkpoint=path, resume=True,
        )
        assert resumed.score == clean.score
        assert resumed.resumed_windows > 0

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_fallback_chain_score_exact(self, strands, backend):
        s1, s2 = strands
        clean = bpmax(s1, s2, variant="batched", backend=backend)
        plan = FaultPlan(crash_windows=[(0, 4)])
        res = bpmax(
            s1, s2, variant="batched", backend=backend,
            fallback=("hybrid", "baseline"), faults=plan,
        )
        assert res.score == clean.score
        assert res.degraded_from == ("batched",)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_threaded_bit_identical(self, medium_inputs, backend):
        serial = make_engine(medium_inputs, variant="batched", backend=backend)
        threaded = make_engine(
            medium_inputs, variant="batched", backend=backend, threads=3
        )
        assert serial.run() == threaded.run()
        ref = _full_table_items(serial)
        got = _full_table_items(threaded)
        for key, block in ref.items():
            np.testing.assert_array_equal(got[key], block, err_msg=str(key))


class TestPersistentPool:
    def test_one_pool_per_run(self, medium_inputs, monkeypatch):
        """A threaded run builds exactly one pool and closes it at the end."""
        import repro.core.vectorized as vec

        created = []
        real_runner = vec.ParallelRunner

        class CountingRunner(real_runner):
            def __init__(self, *args, **kwargs):
                created.append(self)
                self.closed = False
                super().__init__(*args, **kwargs)

            def close(self):
                self.closed = True
                super().close()

        monkeypatch.setattr(vec, "ParallelRunner", CountingRunner)
        eng = VectorizedBPMax(medium_inputs, variant="batched", threads=2)
        eng.run()
        assert len(created) == 1
        assert created[0].closed
        assert eng._pool is None  # released for the next run

    def test_serial_run_builds_no_pool(self, small_inputs, monkeypatch):
        import repro.core.vectorized as vec

        def boom(*args, **kwargs):
            raise AssertionError("serial run must not build a thread pool")

        monkeypatch.setattr(vec, "ParallelRunner", boom)
        VectorizedBPMax(small_inputs, variant="batched").run()


class TestShiftedCache:
    def test_shifted_cached_and_consistent(self, small_inputs):
        eng = VectorizedBPMax(small_inputs, variant="hybrid")
        eng.run()
        tri = eng.table
        first = tri.shifted(1, small_inputs.n - 1)
        assert tri.shifted(1, small_inputs.n - 1) is first  # cached view
        inner = tri.inner(1, small_inputs.n - 1)
        np.testing.assert_array_equal(first[:-1], inner[1:])
        assert np.all(first[-1] == -np.inf)

    def test_cache_invalidated_on_set_inner(self, small_inputs):
        from repro.core.tables import FTable

        n, m = small_inputs.n, small_inputs.m
        t = FTable(n, m)
        t.alloc(0, 1)
        stale = t.shifted(0, 1)
        fresh_block = np.zeros((m, m), dtype=np.float32)
        t.set_inner(0, 1, fresh_block)
        renewed = t.shifted(0, 1)
        assert renewed is not stale
        np.testing.assert_array_equal(renewed[:-1], fresh_block[1:])

    def test_cache_dropped_on_free(self, small_inputs):
        from repro.core.tables import FTable

        n, m = small_inputs.n, small_inputs.m
        t = FTable(n, m)
        t.alloc(0, 1)
        t.shifted(0, 1)
        t.free(0, 1)
        t.alloc(0, 1)
        s = t.shifted(0, 1)  # rebuilt from the fresh block, no stale view
        assert np.all(s == -np.inf)
