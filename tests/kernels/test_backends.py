"""Tests for the kernel backend registry and its fallback semantics."""

import numpy as np
import pytest

from repro.kernels import (
    BACKENDS,
    DEFAULT_BACKEND,
    KernelBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.semiring.maxplus import NEG_INF, maxplus_matmul_naive


class TestRegistry:
    def test_registry_is_exactly_the_survivors(self):
        assert set(BACKENDS) == {"numpy", "numpy-batched", "tiled", "fourrussians"}

    def test_default_resolves(self):
        assert get_backend(None).name == DEFAULT_BACKEND
        assert get_backend(DEFAULT_BACKEND).name == DEFAULT_BACKEND

    def test_resolved_backend_passthrough(self):
        b = get_backend("numpy")
        assert get_backend(b) is b

    def test_unknown_backend_raises_with_listing(self):
        with pytest.raises(ValueError, match="unknown backend 'warp'"):
            get_backend("warp")
        with pytest.raises(ValueError, match="numpy-batched"):
            get_backend("warp")

    @pytest.mark.parametrize("name", ["generated", "numba"])
    def test_removed_backends_raise_naming_survivors(self, name):
        with pytest.raises(ValueError, match=f"unknown backend {name!r}") as exc:
            get_backend(name)
        for survivor in ("numpy", "numpy-batched", "tiled", "fourrussians"):
            assert survivor in str(exc.value)

    def test_unavailable_backend_follows_fallback(self):
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
            assert get_backend("_test-missing").name == DEFAULT_BACKEND
            assert "unavailable (unit test)" in repr(BACKENDS["_test-missing"])
        finally:
            del BACKENDS["_test-missing"]

    def test_available_backends_sorted_and_available(self):
        names = available_backends()
        assert list(names) == sorted(names)
        assert all(BACKENDS[n].available for n in names)
        assert DEFAULT_BACKEND in names

    def test_unavailable_without_fallback_raises(self):
        register_backend(
            KernelBackend(
                "_test-dead",
                matmul=lambda a, b, c: c,
                batched_r0=lambda *a, **k: a[2],
                available=False,
                note="unit test",
            )
        )
        try:
            with pytest.raises(ValueError, match="unavailable"):
                get_backend("_test-dead")
        finally:
            del BACKENDS["_test-dead"]

    def test_fallback_cycle_detected(self):
        register_backend(
            KernelBackend(
                "_test-cycle",
                matmul=lambda a, b, c: c,
                batched_r0=lambda *a, **k: a[2],
                available=False,
                fallback="_test-cycle",
                note="unit test",
            )
        )
        try:
            with pytest.raises(ValueError, match="fallback"):
                get_backend("_test-cycle")
        finally:
            del BACKENDS["_test-cycle"]

    def test_register_last_wins(self):
        original = BACKENDS["numpy"]
        try:
            replacement = KernelBackend(
                "numpy", matmul=original._matmul, batched_r0=original._batched_r0
            )
            assert register_backend(replacement) is replacement
            assert get_backend("numpy") is replacement
        finally:
            BACKENDS["numpy"] = original

    def test_repr_mentions_availability(self):
        assert "available" in repr(get_backend("numpy"))


def _random_stacks(rng, s, m, triangular):
    """Stacked operands, optionally with the BPMax triangle structure."""
    a = rng.uniform(-4, 9, size=(s, m, m)).astype(np.float32)
    b = rng.uniform(-4, 9, size=(s, m, m)).astype(np.float32)
    if triangular:
        for t in range(s):
            a[t][np.tril_indices(m, -1)] = NEG_INF  # strictly lower = -inf
            b[t][np.tril_indices(m, 0)] = NEG_INF  # shifted: row k cols <= k
    return a, b


class TestBackendKernels:
    @pytest.mark.parametrize("name", ["numpy", "numpy-batched"])
    def test_batched_r0_matches_naive(self, rng, name):
        backend = get_backend(name)
        a, b = _random_stacks(rng, 3, 6, triangular=False)
        expected = np.full((6, 6), NEG_INF, dtype=np.float32)
        for t in range(3):
            maxplus_matmul_naive(a[t], b[t], expected)
        got = np.full((6, 6), NEG_INF, dtype=np.float32)
        backend.batched_r0(a, b, got)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("name", ["numpy", "numpy-batched"])
    def test_triangular_flag_bit_identical(self, rng, name):
        backend = get_backend(name)
        a, b = _random_stacks(rng, 4, 7, triangular=True)
        dense = np.full((7, 7), NEG_INF, dtype=np.float32)
        backend.batched_r0(a, b, dense)
        tri = np.full((7, 7), NEG_INF, dtype=np.float32)
        backend.batched_r0(a, b, tri, triangular=True)
        np.testing.assert_array_equal(tri, dense)

    @pytest.mark.parametrize("name", ["numpy", "numpy-batched"])
    def test_matmul_matches_naive(self, rng, name):
        backend = get_backend(name)
        a = rng.uniform(-4, 9, size=(5, 5)).astype(np.float32)
        b = rng.uniform(-4, 9, size=(5, 5)).astype(np.float32)
        expected = np.full((5, 5), NEG_INF, dtype=np.float32)
        maxplus_matmul_naive(a, b, expected)
        got = np.full((5, 5), NEG_INF, dtype=np.float32)
        backend.matmul(a, b, got)
        np.testing.assert_array_equal(got, expected)

    def test_batched_scratch_reuse_bit_identical(self, rng):
        """Passing Workspace scratch must not change a single bit."""
        backend = get_backend("numpy-batched")
        a, b = _random_stacks(rng, 3, 6, triangular=False)
        plain = np.full((6, 6), NEG_INF, dtype=np.float32)
        backend.batched_r0(a, b, plain)
        tmp = np.empty((3, 6, 6), dtype=np.float32)
        red = np.empty((6, 6), dtype=np.float32)
        pooled = np.full((6, 6), NEG_INF, dtype=np.float32)
        backend.batched_r0(a, b, pooled, tmp=tmp, red=red)
        np.testing.assert_array_equal(pooled, plain)
