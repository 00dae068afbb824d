"""Max-plus matrix-product kernels: the heart of the R0 computation.

Fig. 5 of the paper shows that for a fixed split point ``k1`` the double
max-plus reduction is one *max-plus matrix product* between two slices of
the F table (Fig. 8).  The paper's optimization story for this kernel is:

1. the original code uses a loop order that forbids auto-vectorization
   (the reduction index ``k2`` innermost);
2. permuting the loops so ``j2`` is innermost enables vectorization
   (Table I schedules);
3. tiling ``(i2, k2, j2)`` — with ``j2`` left untiled for the streaming
   effect — recovers locality (Fig. 8, Fig. 18).

We mirror those stages exactly: a pure-Python triple loop (baseline), a
scalar-reduction loop order whose innermost axis stays scalar, a
NumPy row-vectorized order (NumPy = SIMD surrogate) and a tiled variant.
All kernels compute the *accumulating* product

    C[i, j] ⊕= max_k  A[i, k] + B[k, j]

because R0 accumulates over successive ``k1`` instances into the same
output triangle.
"""

from __future__ import annotations

import numpy as np

from ..observe.metrics import active as _metrics_active

__all__ = [
    "NEG_INF",
    "maxplus_matmul_naive",
    "maxplus_matmul_scalar_kinner",
    "maxplus_matmul_vectorized",
    "maxplus_matmul_tiled",
    "maxplus_matmul_register",
    "maxplus_matmul",
    "maxplus_batched",
    "maxplus_bias_reduce",
    "matmul_flops",
    "KERNELS",
]

NEG_INF = np.float32(-np.inf)


def _check(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[int, int, int]:
    if a.ndim != 2 or b.ndim != 2 or c.ndim != 2:
        raise ValueError("max-plus matmul requires 2-D operands")
    n, k = a.shape
    k2, m = b.shape
    if k != k2 or c.shape != (n, m):
        raise ValueError(
            f"incompatible shapes A{a.shape} B{b.shape} C{c.shape}"
        )
    return n, k, m


def maxplus_matmul_naive(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Baseline: pure-Python i, j, k loops, scalar updates.

    Stands in for the original (unvectorized, locality-oblivious) code.
    """
    n, kk, m = _check(a, b, c)
    for i in range(n):
        for j in range(m):
            acc = c[i, j]
            for k in range(kk):
                v = a[i, k] + b[k, j]
                if v > acc:
                    acc = v
            c[i, j] = acc
    return c


def maxplus_matmul_scalar_kinner(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Loop order with the reduction ``k`` innermost, reduced per element.

    Mirrors the schedule the paper flags as "auto-vectorization is
    prohibited if k2 is the innermost loop": each output element performs
    its own full reduction, so there is no long unit-stride output axis.
    The per-element reduction itself uses ``np.max`` over the k stripe
    (a gather + horizontal reduction, the vector unit's worst case).
    """
    n, kk, m = _check(a, b, c)
    for i in range(n):
        ai = a[i]
        for j in range(m):
            v = np.max(ai + b[:, j]) if kk else NEG_INF
            if v > c[i, j]:
                c[i, j] = v
    return c


def maxplus_matmul_vectorized(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Row-vectorized i, k loops with ``j`` innermost (the good permutation).

    The update ``C[i, :] = max(C[i, :], A[i, k] + B[k, :])`` is exactly the
    paper's SIMD access pattern ``Y = max(a + X, Y)``: one scalar broadcast
    against two streamed rows.
    """
    n, kk, m = _check(a, b, c)
    for i in range(n):
        ci = c[i]
        ai = a[i]
        for k in range(kk):
            s = ai[k]
            if s == NEG_INF:
                continue
            np.maximum(ci, s + b[k], out=ci)
    return c


def maxplus_matmul_tiled(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    tile: tuple[int, int, int] = (32, 4, 0),
) -> np.ndarray:
    """Tiled (i, k, j) kernel; a ``j`` tile extent of 0 means "untiled".

    Tile shape follows the paper's notation ``(i2 x k2 x j2)``; the paper's
    best shapes keep ``j2`` untiled (streaming) and use small ``k2``
    (e.g. 32x4xN, 64x16xN).
    """
    n, kk, m = _check(a, b, c)
    ti, tk, tj = tile
    if ti <= 0 or tk <= 0 or tj < 0:
        raise ValueError(f"invalid tile shape {tile}; i/k extents must be > 0")
    tj = tj or m or 1
    for i0 in range(0, n, ti):
        i1 = min(i0 + ti, n)
        for k0 in range(0, kk, tk):
            k1 = min(k0 + tk, kk)
            for j0 in range(0, m, tj):
                j1 = min(j0 + tj, m)
                cblk = c[i0:i1, j0:j1]
                ablk = a[i0:i1, k0:k1]
                bblk = b[k0:k1, j0:j1]
                for dk in range(k1 - k0):
                    np.maximum(
                        cblk, ablk[:, dk : dk + 1] + bblk[dk], out=cblk
                    )
    return c


def maxplus_matmul_register(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    tile: tuple[int, int, int] = (32, 4, 0),
    reg: int = 4,
) -> np.ndarray:
    """Two-level tiled kernel: cache tiles + a register-level micro-kernel.

    The paper's conclusion notes the tiled kernel "remains bandwidth-bound
    ... an additional level of tiling at the register level is required to
    make the program compute-bound".  The micro-kernel keeps a block of
    the accumulator live and consumes ``reg`` reduction steps per update:
    in C this is unroll-and-jam into registers; in the NumPy surrogate it
    batches ``reg`` k-steps into one fused broadcast-and-reduce, cutting
    per-step accumulator traffic (and interpreter overhead) by ``reg``.
    """
    n, kk, m = _check(a, b, c)
    ti, tk, tj = tile
    if ti <= 0 or tk <= 0 or tj < 0:
        raise ValueError(f"invalid tile shape {tile}; i/k extents must be > 0")
    if reg <= 0:
        raise ValueError(f"register depth must be > 0, got {reg}")
    tj = tj or m or 1
    for i0 in range(0, n, ti):
        i1 = min(i0 + ti, n)
        for k0 in range(0, kk, tk):
            k1 = min(k0 + tk, kk)
            for j0 in range(0, m, tj):
                j1 = min(j0 + tj, m)
                cblk = c[i0:i1, j0:j1]
                ablk = a[i0:i1, k0:k1]
                bblk = b[k0:k1, j0:j1]
                for r0 in range(0, k1 - k0, reg):
                    r1 = min(r0 + reg, k1 - k0)
                    # micro-kernel: reg reduction steps fused in one op
                    contrib = (
                        ablk[:, r0:r1, None] + bblk[None, r0:r1, :]
                    ).max(axis=1)
                    np.maximum(cblk, contrib, out=cblk)
    return c


def _check_batched(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[int, int, int, int]:
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError("batched max-plus matmul requires 3-D stacked operands")
    s, n, k = a.shape
    s2, k2, m = b.shape
    if s != s2 or k != k2 or c.shape != (n, m):
        raise ValueError(
            f"incompatible shapes A{a.shape} B{b.shape} C{c.shape}"
        )
    return s, n, k, m


def maxplus_batched(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    tmp: np.ndarray | None = None,
    red: np.ndarray | None = None,
    triangular: bool = False,
) -> np.ndarray:
    """Batched accumulating product over a stack of split instances.

    Computes ``C[i, j] ⊕= max_{s, k} A[s, i, k] + B[s, k, j]`` — the whole
    R0 reduction of one outer window with every ``k1`` split stacked into
    the leading axis.  The Python loop runs over the reduction index ``k``
    only; each step is one whole-array broadcast-add over the full stack
    followed by one max-reduce, so interpreter overhead is O(k) per window
    instead of O(splits x n x k) for the per-split row kernels.

    ``tmp`` (>= (s, n, m)) and ``red`` (>= (n, m)) are optional
    preallocated scratch buffers; passing them makes the call
    allocation-free (the :class:`~repro.kernels.Workspace` hot path).

    ``triangular=True`` asserts the BPMax operand structure: column ``k``
    of every ``A[s]`` is finite only in rows ``<= k`` (stored triangles)
    and row ``k`` of every ``B[s]`` is finite only in columns ``>= k + 1``
    (shifted triangles).  The step for ``k`` then touches only the
    ``(k+1) x (m-k-1)`` finite block instead of the full ``n x m`` square
    — about a 6x cut in memory traffic.  Every skipped cell would have
    received a ``-inf`` candidate, which never changes a max, so the
    result is bit-identical to the dense form for such operands.
    """
    s, n, kk, m = _check_batched(a, b, c)
    if s == 0 or kk == 0:
        return c
    if tmp is None:
        tmp = np.empty((s, n, m), dtype=c.dtype)
    if red is None:
        red = np.empty((n, m), dtype=c.dtype)
    counters = _metrics_active()
    # np.maximum.reduce is np.max without the python dispatch wrapper —
    # this loop runs O(N^3) times per BPMax run, the wrapper is measurable
    reduce = np.maximum.reduce
    if triangular:
        add, maximum = np.add, np.maximum
        # contiguous scratch blocks (when the buffers allow it) keep the
        # add/reduce slabs dense regardless of the (rows, w) shape
        flat_t = tmp.reshape(-1) if tmp.flags["C_CONTIGUOUS"] else None
        flat_r = red.reshape(-1) if red.flags["C_CONTIGUOUS"] else None
        for k in range(kk):
            rows = min(k + 1, n)
            c0 = k + 1
            if c0 >= m:
                if counters is not None:
                    counters.count_slab(s, rows, 0, n, m)
                continue
            w = m - c0
            if counters is not None:
                counters.count_slab(s, rows, w, n, m)
            if flat_t is not None:
                t = flat_t[: s * rows * w].reshape(s, rows, w)
            else:
                t = tmp[:s, :rows, :w]
            if flat_r is not None:
                r = flat_r[: rows * w].reshape(rows, w)
            else:
                r = red[:rows, :w]
            cblk = c[:rows, c0:]
            add(a[:, :rows, k, None], b[:, k, None, c0:], out=t)
            reduce(t, axis=0, out=r)
            maximum(cblk, r, out=cblk)
        return c
    t = tmp[:s, :n, :m]
    r = red[:n, :m]
    for k in range(kk):
        if counters is not None:
            counters.count_slab(s, n, m, n, m)
        np.add(a[:, :, k, None], b[:, k, None, :], out=t)
        reduce(t, axis=0, out=r)
        np.maximum(c, r, out=c)
    return c


def maxplus_bias_reduce(
    stack: np.ndarray,
    bias: np.ndarray,
    c: np.ndarray,
    tmp: np.ndarray | None = None,
    red: np.ndarray | None = None,
) -> np.ndarray:
    """Accumulate ``C ⊕= max_s (stack[s] + bias[s])`` over a stack.

    The batched form of the R3/R4 reductions: each split contributes a
    whole triangle plus one scalar.  ``tmp``/``red`` as in
    :func:`maxplus_batched`.
    """
    if stack.ndim != 3 or stack.shape[1:] != c.shape:
        raise ValueError(
            f"incompatible shapes stack{stack.shape} C{c.shape}"
        )
    s = stack.shape[0]
    if bias.shape != (s,):
        raise ValueError(f"bias must have shape ({s},), got {bias.shape}")
    if s == 0:
        return c
    if tmp is None:
        tmp = np.empty_like(stack)
    if red is None:
        red = np.empty_like(c)
    t = tmp[:s, : c.shape[0], : c.shape[1]]
    r = red[: c.shape[0], : c.shape[1]]
    np.add(stack, bias[:, None, None], out=t)
    np.maximum.reduce(t, axis=0, out=r)
    np.maximum(c, r, out=c)
    return c


def maxplus_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Non-accumulating convenience wrapper: returns ``A ⊗ B``."""
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    c = np.full((a.shape[0], b.shape[1]), NEG_INF, dtype=np.float32)
    return maxplus_matmul_vectorized(a, b, c)


def matmul_flops(n: int, k: int, m: int) -> int:
    """FLOP count of one n x k x m max-plus product (2 ops per element)."""
    return 2 * n * k * m


#: Kernel registry used by benchmarks: name -> accumulating kernel.
KERNELS = {
    "naive": maxplus_matmul_naive,
    "scalar-k-inner": maxplus_matmul_scalar_kinner,
    "vectorized": maxplus_matmul_vectorized,
    "tiled": maxplus_matmul_tiled,
    "register-tiled": maxplus_matmul_register,
}
