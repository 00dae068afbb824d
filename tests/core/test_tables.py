"""Tests for the F-table storage."""

import numpy as np
import pytest

from repro.core.tables import FTable, MEMORY_LAYOUTS


class TestFTable:
    def test_alloc_and_get(self):
        t = FTable(3, 4)
        g = t.alloc(0, 2)
        g[1, 3] = 7.0
        assert t.get(0, 2, 1, 3) == 7.0

    def test_windows_diagonal_order(self):
        t = FTable(3, 2)
        ws = list(t.windows())
        assert ws == [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)]

    def test_unallocated_window_raises(self):
        t = FTable(3, 3)
        with pytest.raises(KeyError, match="not computed"):
            t.inner(0, 1)

    def test_out_of_range_window(self):
        t = FTable(3, 3)
        with pytest.raises(IndexError, match="outer"):
            t.alloc(2, 1)
        with pytest.raises(IndexError, match="outer"):
            t.alloc(0, 3)

    def test_out_of_range_inner(self):
        t = FTable(2, 3)
        t.alloc(0, 1)
        with pytest.raises(IndexError, match="inner"):
            t.get(0, 1, 2, 1)

    def test_set_inner_shape_checked(self):
        t = FTable(2, 3)
        with pytest.raises(ValueError, match="inner matrix"):
            t.set_inner(0, 0, np.zeros((2, 2), dtype=np.float32))

    def test_free(self):
        t = FTable(2, 2)
        t.alloc(0, 1)
        t.free(0, 1)
        assert not t.has(0, 1)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            FTable(0, 3)

    def test_invalid_layout(self):
        with pytest.raises(ValueError, match="layout"):
            FTable(2, 2, layout="option3")


class TestSquareIndex:
    """Windows live in an ``(n, n, m, m)`` buffer indexed ``[i1, j1]``."""

    def test_offset_is_square_index(self):
        t = FTable(4, 3)
        assert [t.offset(i1, j1) for i1, j1 in t.windows()] == [
            i1 * 4 + j1 for i1, j1 in t.windows()
        ]
        assert t.packed.shape == (16, 3, 3)
        g = t.alloc(1, 3)
        g[0, 2] = 5.0
        assert t.packed[t.offset(1, 3)][0, 2] == 5.0
        assert np.shares_memory(g, t.packed)

    def test_row_slab_is_contiguous_row(self):
        t = FTable(4, 2)
        for w in t.windows():
            t.alloc(*w)[0, 1] = 10 * w[0] + w[1]
        slab = t.row_slab(1, 1, 3)
        assert slab.flags.c_contiguous
        assert [float(s[0, 1]) for s in slab] == [11.0, 12.0, 13.0]
        with pytest.raises(IndexError, match="leaves the outer row"):
            t.row_slab(1, 2, 3)

    def test_below_diagonal_is_zero_and_never_addressed(self):
        t = FTable(5, 4)
        for w in t.windows():
            t.alloc(*w).fill(1.0)
        square = t.packed.reshape(5, 5, 4, 4)
        for i1 in range(5):
            for j1 in range(5):
                want = 1.0 if i1 <= j1 else 0.0
                assert (square[i1, j1] == want).all(), (i1, j1)
        for i1, j1 in ((1, 0), (4, 2)):
            with pytest.raises(IndexError, match="outer"):
                t.offset(i1, j1)
            with pytest.raises(IndexError, match="outer"):
                t.alloc(i1, j1)

    def test_fresh_upper_half_is_fill(self):
        t = FTable(3, 2, dtype=np.float64)
        square = t.packed.reshape(3, 3, 2, 2)
        for i1 in range(3):
            assert np.isneginf(square[i1, i1:]).all()
            assert (square[i1, :i1] == 0).all()

    def test_free_refills_only_the_window(self):
        t = FTable(3, 2)
        t.alloc(0, 2).fill(3.0)
        t.alloc(0, 1).fill(4.0)
        t.free(0, 2)
        assert not t.has(0, 2)
        assert np.isneginf(t.packed[t.offset(0, 2)]).all()
        assert (t.inner(0, 1) == 4.0).all()

    def test_accounting_counts_triangle_only(self):
        t = FTable(4, 10)
        for w in t.windows():
            t.alloc(*w)
        assert t.bytes_allocated() == 10 * 10 * 10 * 4
        assert t.bytes_touched() == 10 * 55 * 4

    def test_checkpoint_round_trip(self, tmp_path):
        from repro.core.api import bpmax
        from repro.robust.checkpoint import CheckpointManager

        path = tmp_path / "ck.npz"
        res = bpmax("GCGCUA", "UAGCGC", checkpoint=path)
        fresh = FTable(res.n, res.m)
        restored = CheckpointManager(path, res.inputs).load(fresh)
        assert restored == frozenset(res.table.windows())
        np.testing.assert_array_equal(fresh.packed, res.table.packed)


class TestMemoryAccounting:
    def test_allocated_vs_touched(self):
        """The paper's §IV-B-c point: the box allocates ~2x what the
        triangular computation touches per window (4x over the 4-D box)."""
        t = FTable(4, 10)
        for w in t.windows():
            t.alloc(*w)
        ratio = t.bytes_allocated() / t.bytes_touched()
        assert 1.7 < ratio < 2.0

    def test_full_allocation_is_box(self):
        t = FTable(4, 10)
        assert t.full_allocation_bytes() == 10 * 10 * 4 * 10  # T1(4)=10 windows


class TestLayouts:
    def test_option1_physical_is_logical(self):
        t = FTable(2, 4, layout="option1")
        g = t.alloc(0, 1)
        g[0, 3] = 5.0
        assert t.physical(0, 1)[0, 3] == 5.0

    def test_option2_skews_rows(self):
        t = FTable(2, 4, layout="option2")
        g = t.alloc(0, 1)
        g[1, 3] = 9.0
        phys = t.physical(0, 1)
        assert phys[1, 2] == 9.0  # column j2 - i2

    def test_option2_diagonal_in_column_zero(self):
        t = FTable(2, 4, layout="option2")
        g = t.alloc(0, 0)
        for i in range(4):
            g[i, i] = float(i)
        phys = t.physical(0, 0)
        assert np.allclose(phys[:, 0], np.arange(4.0))

    def test_layouts_registry(self):
        assert MEMORY_LAYOUTS == ("option1", "option2")
