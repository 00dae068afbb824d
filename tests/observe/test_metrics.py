"""Counter semantics: closed forms, hand-computed totals, regressions.

The hand-computed (N=4, M=4) case is the acceptance check from the
issue: ``T1(4) = 10`` windows/cells per axis and ``K1(4) = 10`` split
triples give exactly 100 operations for every one of R0-R4 and 100
cells, and every engine must observe exactly that.
"""

from __future__ import annotations

import pytest

from repro.core.engine import ENGINES, make_engine
from repro.core.reference import prepare_inputs
from repro.kernels import Workspace
from repro.machine.counters import k1, t1
from repro.observe import Counters, active, collecting, predicted_op_counts
from repro.rna.sequence import random_pair


class TestCollecting:
    def test_inactive_by_default(self):
        assert active() is None

    def test_collecting_installs_and_restores(self):
        with collecting() as c:
            assert active() is c
        assert active() is None

    def test_nested_collectors_shadow(self):
        with collecting() as outer:
            with collecting() as inner:
                assert active() is inner
            assert active() is outer

    def test_collecting_accepts_existing_counters(self):
        mine = Counters()
        with collecting(mine) as c:
            assert c is mine

    def test_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with collecting():
                raise RuntimeError("x")
        assert active() is None


class TestClosedForms:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
    def test_count_window_matches_brute_force(self, m):
        """count_window's closed forms equal explicit loop enumeration."""
        cells = sum(1 for i2 in range(m) for j2 in range(i2, m))
        k1m = sum(j2 - i2 for i2 in range(m) for j2 in range(i2, m))
        for splits in range(4):
            c = Counters()
            c.count_window(splits, m)
            assert c.cells == cells
            assert c.ops_r0 == splits * k1m
            assert c.ops_r1 == c.ops_r2 == k1m
            assert c.ops_r3 == c.ops_r4 == splits * cells

    def test_predicted_op_counts_hand_computed_4x4(self):
        # T1(4) = 10, K1(4) = 10: every term is exactly 100
        assert predicted_op_counts(4, 4) == {
            "r0": 100,
            "r1": 100,
            "r2": 100,
            "r3": 100,
            "r4": 100,
            "cells": 100,
        }

    def test_predicted_matches_machine_closed_forms(self):
        pred = predicted_op_counts(6, 9)
        assert pred["r0"] == k1(6) * k1(9)
        assert pred["r1"] == pred["r2"] == t1(6) * k1(9)
        assert pred["r3"] == pred["r4"] == k1(6) * t1(9)
        assert pred["cells"] == t1(6) * t1(9)


@pytest.fixture(scope="module")
def inputs_4x4():
    s1, s2 = random_pair(4, 4, 11)
    return prepare_inputs(s1, s2)


class TestEngineCounts:
    @pytest.mark.parametrize("variant", ENGINES)
    def test_every_engine_observes_100_ops_per_term(self, inputs_4x4, variant):
        """Acceptance check: per-term counts at (4, 4) are exactly 100."""
        with collecting() as c:
            make_engine(inputs_4x4, variant).run()
        assert c.op_counts() == {t: 100 for t in ("r0", "r1", "r2", "r3", "r4")}
        assert c.cells == 100
        assert c.windows == t1(4)

    @pytest.mark.parametrize("variant", ENGINES)
    def test_counts_match_prediction_rectangular(self, variant):
        s1, s2 = random_pair(5, 7, 3)
        inp = prepare_inputs(s1, s2)
        with collecting() as c:
            make_engine(inp, variant).run()
        pred = predicted_op_counts(5, 7)
        observed = dict(c.op_counts(), cells=c.cells)
        assert observed == pred


class TestSlabAccounting:
    def test_triangular_skip_matches_structure(self):
        """The triangular-aware batched mode skips exactly the structural
        slab fraction: touched cells per window are K1(M) of the M^3
        dense cells, i.e. a skip fraction of 1 - (M^2 - 1) / (6 M^2)."""
        m = 8
        s1, s2 = random_pair(6, m, 5)
        inp = prepare_inputs(s1, s2)
        with collecting() as c:
            make_engine(inp, "batched", backend="numpy-batched").run()
        assert c.slabs_total > 0
        expected_touch = (m * m - 1) / (6 * m * m)
        assert c.slab_skip_fraction() == pytest.approx(1 - expected_touch)
        # the issue's floor: at least ~3/4 of dense cells always skipped
        assert c.slab_skip_fraction() >= 0.75
        # the paper's ~6x traffic-cut claim
        assert c.traffic_ratio() == pytest.approx(
            (6 * m * m) / (m * m - 1)
        )
        assert c.traffic_ratio() > 5.9

    def test_fully_skipped_slabs_counted(self):
        # the last reduction step (k = m - 1) has an empty slab
        m = 6
        s1, s2 = random_pair(4, m, 9)
        inp = prepare_inputs(s1, s2)
        with collecting() as c:
            make_engine(inp, "batched", backend="numpy-batched").run()
        assert c.slabs_skipped > 0
        assert c.slabs_skipped < c.slabs_total

    def test_touched_cells_equal_r0_ops(self):
        """Each touched slab cell corresponds to one R0 max-plus op."""
        s1, s2 = random_pair(5, 6, 21)
        inp = prepare_inputs(s1, s2)
        with collecting() as c:
            make_engine(inp, "batched", backend="numpy-batched").run()
        assert c.slab_cells_touched == c.ops_r0


class TestWorkspaceAccounting:
    def test_grow_counts_bytes(self):
        with collecting() as c:
            ws = Workspace(4, 8)
            ws.stacks(2)
        assert c.ws_grow_events == 1
        assert c.ws_bytes_allocated == 4 * ws._astack.nbytes

    def test_warm_workspace_never_grows(self):
        ws = Workspace(4, 8)
        ws.stacks(8)  # warm to the high-water mark
        with collecting() as c:
            for k in range(1, 9):
                ws.stacks(k)
                ws.tmp3(k)
        assert c.ws_grow_events == 0
        assert c.ws_stack_reuses == 8

    def test_engine_hot_path_zero_alloc_after_warmup(self):
        """Regression: a warmed engine's hot path allocates nothing."""
        s1, s2 = random_pair(6, 5, 13)
        inp = prepare_inputs(s1, s2)
        engine = make_engine(inp, "batched", backend="numpy-batched")
        first = engine.run()  # warm-up: grows to the high-water mark
        with collecting() as c:
            second = engine.run()
        assert second == first
        assert c.ws_grow_events == 0
        assert c.ws_bytes_allocated == 0
        assert c.ws_stack_reuses > 0


class TestDerived:
    def test_ops_total_and_repr(self):
        c = Counters()
        c.count_window(2, 3)
        assert c.ops_total == c.ops_r0 + c.ops_r1 + c.ops_r2 + c.ops_r3 + c.ops_r4
        assert "Counters(" in repr(c)

    def test_ratios_degenerate_cases(self):
        c = Counters()
        assert c.traffic_ratio() == 1.0
        assert c.slab_skip_fraction() == 0.0

    def test_as_dict_covers_every_field(self):
        from repro.observe import COUNTER_FIELDS

        d = Counters().as_dict()
        assert tuple(d) == COUNTER_FIELDS
        assert all(v == 0 for v in d.values())
