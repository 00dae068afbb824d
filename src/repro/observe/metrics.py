"""Per-run counters: the paper's operation-count accounting, observed.

The paper justifies every optimization with *counted* work — Θ(N³M³)
max-plus operations for R0, Θ(N²M³) for R1/R2, a ~6× memory-traffic cut
from the triangular-aware batched kernel.  :class:`Counters` turns those
assertions into observed numbers:

* **logical op counts** (``ops_r0`` … ``ops_r4``, ``cells``) — counted
  per outer window from the recurrence's closed forms, so they are
  *backend- and thread-independent*: every engine computing the same
  (N, M) problem must report identical values (the differential fuzz
  suite asserts exactly this, making the counters part of the
  equivalence contract);
* **physical traffic** (``slab_cells_touched`` / ``slab_cells_dense``,
  ``bytes_moved``) — counted inside the batched R0 kernel, where the
  triangular-aware mode's slab shrinking is observable;
* **workspace accounting** (``ws_grow_events`` / ``ws_bytes_allocated``
  / ``ws_stack_reuses``) — proves the hot path allocates nothing after
  warm-up;
* **robustness accounting** (``checkpoint_saves`` / ``retries`` /
  ``faults_injected``) — events from the fault-tolerant layer;
* **serving accounting** (``cache_hits`` / ``cache_misses`` /
  ``cache_evictions``, ``batches_dispatched`` / ``requests_served``,
  ``requests_shed`` / ``requests_rerouted`` / ``worker_deaths`` /
  ``worker_respawns``) — events from the :mod:`repro.serve` result
  cache, batch scheduler, and sharded process-pool tier.

Collection is opt-in and guarded: instrumented sites call
:func:`active` and skip all accounting when it returns ``None`` (the
default), so a run without a collector pays one ``is None`` test per
*window*, not per operation.  Install a collector with
:func:`collecting`::

    with collecting() as c:
        make_engine(inputs, "batched").run()
    print(c.ops_r0, c.traffic_ratio())

Counter increments are plain int ``+=`` under the GIL; the logical op
counts are incremented only on the engine's coordinating thread, so they
are exact even for ``threads > 1`` runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["Counters", "COUNTER_FIELDS", "active", "collecting"]

#: every integer counter carried by :class:`Counters`, in report order
COUNTER_FIELDS = (
    "windows",
    "cells",
    "ops_r0",
    "ops_r1",
    "ops_r2",
    "ops_r3",
    "ops_r4",
    "bytes_moved",
    "slabs_total",
    "slabs_skipped",
    "slab_cells_touched",
    "slab_cells_dense",
    "ws_grow_events",
    "ws_bytes_allocated",
    "ws_stack_reuses",
    "workspace_bytes",
    "tiles_executed",
    "tile_wavefronts",
    "tile_idle_ns",
    "tile_slab_bytes",
    "checkpoint_saves",
    "checkpoint_bytes",
    "retries",
    "faults_injected",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "batches_dispatched",
    "requests_served",
    "requests_shed",
    "requests_rerouted",
    "worker_deaths",
    "worker_respawns",
    "fr_windows",
    "fr_table_builds",
    "fr_table_cells",
    "fr_lookup_cells",
    "fr_boundary_cells",
    "r0_splits_total",
    "r0_splits_pruned",
    "r0_blocks_total",
    "r0_blocks_pruned",
)


def _t1(n: int) -> int:
    return n * (n + 1) // 2


def _k1(n: int) -> int:
    return (n - 1) * n * (n + 1) // 6 if n >= 2 else 0


class Counters:
    """One run's metric counters (all plain ints, see
    :data:`COUNTER_FIELDS`)."""

    __slots__ = COUNTER_FIELDS

    def __init__(self) -> None:
        for f in COUNTER_FIELDS:
            setattr(self, f, 0)

    # -- engine hooks --------------------------------------------------------

    def count_window(self, splits: int, m: int) -> None:
        """Account one outer window with ``splits = j1 - i1`` k1 splits.

        Uses the recurrence's closed forms over the inner triangle
        (``T1(m) = m(m+1)/2`` cells, ``K1(m) = (m-1)m(m+1)/6`` split
        triples), so the totals over a full run reproduce the analytic
        model of :mod:`repro.machine.counters` exactly:

        * R0: one (i2, k2, j2) triple per split — ``splits * K1(m)``;
        * R1/R2: one k2 choice per inner cell pair — ``K1(m)`` each;
        * R3/R4: one k1 choice per inner cell — ``splits * T1(m)`` each.
        """
        t1m = _t1(m)
        k1m = _k1(m)
        self.windows += 1
        self.cells += t1m
        self.ops_r0 += splits * k1m
        self.ops_r1 += k1m
        self.ops_r2 += k1m
        self.ops_r3 += splits * t1m
        self.ops_r4 += splits * t1m

    # -- kernel hooks --------------------------------------------------------

    def count_slab(self, stack: int, rows: int, width: int, full_rows: int, full_width: int) -> None:
        """Account one reduction step of the batched R0 kernel.

        ``rows x width`` is the slab actually touched; ``full_rows x
        full_width`` is what the dense (triangular-unaware) form would
        touch for the same step, across a stack of ``stack`` splits.
        ``bytes_moved`` models the dominant traffic of one step: the
        stacked broadcast-add writes the (stack, rows, width) block, the
        reduction reads it back, and the accumulator slab is read and
        written once (float32 throughout).
        """
        touched = rows * width
        self.slabs_total += 1
        if touched == 0:
            self.slabs_skipped += 1
        self.slab_cells_touched += stack * touched
        self.slab_cells_dense += stack * full_rows * full_width
        self.bytes_moved += 4 * (2 * stack * touched + 2 * touched)

    # -- Four-Russians hooks -------------------------------------------------

    def count_fr_window(self) -> None:
        """One R0 window accumulated through the Four-Russians kernel."""
        self.fr_windows += 1

    def count_fr_table_build(self, cells: int) -> None:
        """One ``(d, q)`` pair-table construction (amortized: the table
        cache makes this a handful per process, vs millions of lookups)."""
        self.fr_table_builds += 1
        self.fr_table_cells += cells

    def count_fr_lookup(self, cells: int) -> None:
        """Block-resolved accumulator cells: each counted cell replaced a
        width-q direct max-plus run with one pair-table lookup."""
        self.fr_lookup_cells += cells

    def count_fr_boundary(self, cells: int) -> None:
        """Accumulator cells finished by the direct (non-table) boundary
        pass around partial blocks."""
        self.fr_boundary_cells += cells

    def count_fr_splits(self, total: int, pruned: int) -> None:
        """k1-split candidate-list accounting for one window: ``pruned``
        of ``total`` splits were dominated under the monotone triangular
        bound and skipped entirely."""
        self.r0_splits_total += total
        self.r0_splits_pruned += pruned

    def count_fr_blocks(self, total: int, pruned: int) -> None:
        """k2-block candidate accounting: ``pruned`` of ``total`` lookup
        block-columns were dominated by the current accumulator."""
        self.r0_blocks_total += total
        self.r0_blocks_pruned += pruned

    # -- workspace hooks -----------------------------------------------------

    def count_ws_grow(self, nbytes: int) -> None:
        self.ws_grow_events += 1
        self.ws_bytes_allocated += nbytes

    def count_ws_reuse(self) -> None:
        self.ws_stack_reuses += 1

    def gauge_ws_bytes(self, nbytes: int) -> None:
        """High-water gauge of live workspace bytes (max, not a sum)."""
        if nbytes > self.workspace_bytes:
            self.workspace_bytes = nbytes

    # -- tiled-execution hooks -----------------------------------------------

    def count_tile(self, slab_bytes: int = 0) -> None:
        """Account one executed tile of the wavefront tile graph.

        ``slab_bytes`` is the tile's analytic slab traffic (operand slabs
        read + accumulator written), kept separate from ``bytes_moved``
        so the per-kernel and per-tile models stay individually
        comparable.
        """
        self.tiles_executed += 1
        self.tile_slab_bytes += slab_bytes

    def count_wavefront(self, idle_ns: int = 0) -> None:
        """Account one wavefront step (an anti-diagonal of ready tiles);
        ``idle_ns`` is scheduler time not spent inside tile bodies."""
        self.tile_wavefronts += 1
        self.tile_idle_ns += idle_ns

    # -- derived -------------------------------------------------------------

    @property
    def ops_total(self) -> int:
        """All counted max-plus reduction operations."""
        return self.ops_r0 + self.ops_r1 + self.ops_r2 + self.ops_r3 + self.ops_r4

    def traffic_ratio(self) -> float:
        """Dense-over-touched slab cells: the observed traffic cut of the
        triangular-aware batched mode (~6x for square operands)."""
        if self.slab_cells_touched == 0:
            return 1.0
        return self.slab_cells_dense / self.slab_cells_touched

    def slab_skip_fraction(self) -> float:
        """Fraction of dense slab cells the triangular mode never touched."""
        if self.slab_cells_dense == 0:
            return 0.0
        return 1.0 - self.slab_cells_touched / self.slab_cells_dense

    def as_dict(self) -> dict[str, int]:
        return {f: getattr(self, f) for f in COUNTER_FIELDS}

    def op_counts(self) -> dict[str, int]:
        """The R0-R4 logical op counters (the equivalence contract)."""
        return {
            "r0": self.ops_r0,
            "r1": self.ops_r1,
            "r2": self.ops_r2,
            "r3": self.ops_r3,
            "r4": self.ops_r4,
        }

    def __repr__(self) -> str:
        return (
            f"Counters(windows={self.windows}, cells={self.cells}, "
            f"ops={self.ops_total}, bytes={self.bytes_moved})"
        )


#: the installed collector; ``None`` (the default) disables all accounting
_ACTIVE: Counters | None = None


def active() -> Counters | None:
    """The currently-installed collector, or ``None`` when metrics are off.

    Instrumented hot paths call this once per coarse unit of work (an
    outer window, a kernel invocation) and skip all accounting on
    ``None`` — the disabled cost is one global read and one identity
    test.
    """
    return _ACTIVE


@contextmanager
def collecting(counters: Counters | None = None) -> Iterator[Counters]:
    """Install a collector for the duration of a ``with`` block.

    Nested blocks shadow outer ones (innermost wins) and the previous
    collector is restored on exit.  Not async-safe by design: one
    process-wide slot, matching the engines' thread model (counters are
    incremented from the coordinating thread).
    """
    global _ACTIVE
    c = Counters() if counters is None else counters
    prev = _ACTIVE
    _ACTIVE = c
    try:
        yield c
    finally:
        _ACTIVE = prev
