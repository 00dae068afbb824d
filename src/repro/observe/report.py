"""RunReport: observed counters vs the analytic model, roofline-linked.

A :class:`RunReport` freezes one run's :class:`~repro.observe.metrics.
Counters` next to the *predicted* operation counts from the closed forms
of :mod:`repro.machine.counters` (the paper's Θ(N³M³)/Θ(N²M³)
accounting), so "the engines perform exactly the modelled work" is a
checkable equality rather than an assertion.  It also connects observed
ops/bytes to the :mod:`repro.machine` roofline model: the achieved
arithmetic intensity of the batched R0 kernel against the paper's
predicted ``Y = max(a + X, Y)`` stream intensity (2 FLOPs / 12 bytes)
and the resulting attainable-GFLOPS bound per memory level.

Reports serialize to JSON (``bpmax run --metrics-out report.json``) and
back (``bpmax report report.json``), and :meth:`RunReport.render`
pretty-prints the whole comparison.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

from ..machine.counters import k1, t1
from ..machine.roofline import MAXPLUS_STREAM_AI, Roofline
from ..machine.specs import XEON_E5_1650V4, MachineSpec
from .metrics import COUNTER_FIELDS, Counters

__all__ = [
    "RunReport",
    "predicted_op_counts",
    "predicted_fr_cells",
    "predicted_window_fr_cells",
]

REPORT_VERSION = 1

#: max-plus FLOPs per counted op (one add + one max), the paper's unit
FLOPS_PER_OP = 2


def predicted_op_counts(n: int, m: int) -> dict[str, int]:
    """Analytic per-term max-plus op counts for an (N, M) run.

    The closed forms behind the paper's complexity table: R0 iterates
    ``(i1,k1,j1) x (i2,k2,j2)``, R1/R2 ``(i1,j1) x (i2,k2,j2)``, R3/R4
    ``(i1,k1,j1) x (i2,j2)``; cells is the number of F entries.
    """
    return {
        "r0": k1(n) * k1(m),
        "r1": t1(n) * k1(m),
        "r2": t1(n) * k1(m),
        "r3": k1(n) * t1(m),
        "r4": k1(n) * t1(m),
        "cells": t1(n) * t1(m),
    }


def predicted_window_fr_cells(m: int, q: int) -> tuple[int, int]:
    """Per-split ``(lookup, boundary)`` accumulator cells of one window.

    The closed form of the Four-Russians region decomposition over an
    ``M x M`` inner triangle with block width ``q``, mirroring the two
    lookup passes of the kernel: for each full block ``kb`` (covering
    ``k2 in [kb*q, kb*q + q)``) the *merged* pass serves every cell with
    its row in an earlier block (``i2 < kb*q``) and its column past the
    block's start (in-block columns through the ``pu`` prefix tables,
    later columns through ``pf[0]``), and the *tail* pass serves the
    ``q`` rows inside the block against all columns past it through
    ``pf[t0]``.  The boundary pass handles what no table serves: per
    strip, the ``bw x bw`` diagonal A block against the strip's
    ``bw x (bw - 1)`` B diagonal block (rows and columns both in-strip),
    plus the ragged-tail splits against every earlier row — the stored
    ``-inf`` triangle structure masks the invalid combinations, which is
    why the boundary counts are the full block rectangles.
    """
    nbf = m // q
    lookup = 0
    for kb in range(nbf):
        b0 = kb * q
        # merged whole-block + prefix pass: rows above block kb against
        # every column past its start (in-block columns via pu, the rest
        # via pf[0])
        if kb > 0:
            lookup += b0 * (m - b0 - 1)
        # tail pass: the q rows inside block kb against columns past it
        w = m - b0 - q
        if w > 0:
            lookup += q * w
    boundary = 0
    b0 = 0
    while b0 < m:
        # in-strip corner: the bw x bw diagonal A block against the
        # strip's bw x (bw - 1) B diagonal block
        bw = min(q, m - b0)
        if bw >= 2:
            boundary += bw * bw * (bw - 1)
        b0 += q
    b0t = nbf * q
    bwt = m - b0t
    if b0t > 0 and bwt >= 2:
        # ragged-tail splits against every earlier row
        boundary += b0t * bwt * (bwt - 1)
    return lookup, boundary


def predicted_fr_cells(n: int, m: int, q: int) -> dict[str, int]:
    """Predicted ``fr_lookup_cells`` / ``fr_boundary_cells`` for a full
    (N, M) run with pruning disabled.

    Every window with ``k = j1 - i1 >= 1`` splits contributes ``k`` times
    the per-split window counts; summed over the outer triangle that is
    ``K1(N)`` splits total — the same split count behind the R0 closed
    form, so ``lookup*q + boundary ~ K1(N) * K1(M)`` up to block
    rounding.  With sparsification enabled the observed counters can
    only be lower (that is the point), so this form is the
    predicted-vs-observed equality check for ``fr_sparsify=False`` runs
    and an upper bound otherwise.
    """
    lookup, boundary = predicted_window_fr_cells(m, q)
    splits = k1(n)
    return {
        "fr_lookup_cells": splits * lookup,
        "fr_boundary_cells": splits * boundary,
    }


@dataclass(frozen=True)
class RunReport:
    """Observed metrics of one BPMax run, with predictions alongside.

    Build one with :meth:`from_counters` after a
    :func:`~repro.observe.metrics.collecting` run; ``bpmax run
    --metrics`` does this for you.
    """

    n: int
    m: int
    variant: str
    counters: dict[str, int]
    backend: str | None = None
    threads: int = 1
    wall_s: float = 0.0
    score: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_counters(
        cls,
        counters: Counters,
        n: int,
        m: int,
        variant: str,
        backend: str | None = None,
        threads: int = 1,
        wall_s: float = 0.0,
        score: float | None = None,
        **attrs,
    ) -> "RunReport":
        return cls(
            n=n,
            m=m,
            variant=variant,
            counters=counters.as_dict(),
            backend=backend,
            threads=threads,
            wall_s=wall_s,
            score=score,
            attrs=dict(attrs),
        )

    # -- observed vs predicted ----------------------------------------------

    def observed_op_counts(self) -> dict[str, int]:
        c = self.counters
        return {
            "r0": c["ops_r0"],
            "r1": c["ops_r1"],
            "r2": c["ops_r2"],
            "r3": c["ops_r3"],
            "r4": c["ops_r4"],
            "cells": c["cells"],
        }

    def predicted(self) -> dict[str, int]:
        return predicted_op_counts(self.n, self.m)

    def deviations(self) -> dict[str, tuple[int, int]]:
        """Terms whose observed count differs from the prediction,
        as ``term -> (observed, predicted)``.  Empty means the run
        performed exactly the modelled work."""
        obs, pred = self.observed_op_counts(), self.predicted()
        return {k: (obs[k], pred[k]) for k in pred if obs[k] != pred[k]}

    @property
    def ops_total(self) -> int:
        c = self.counters
        return c["ops_r0"] + c["ops_r1"] + c["ops_r2"] + c["ops_r3"] + c["ops_r4"]

    @property
    def flops(self) -> int:
        """Observed max-plus FLOPs (2 per counted reduction op)."""
        return FLOPS_PER_OP * self.ops_total

    def traffic_ratio(self) -> float:
        c = self.counters
        if c["slab_cells_touched"] == 0:
            return 1.0
        return c["slab_cells_dense"] / c["slab_cells_touched"]

    def slab_skip_fraction(self) -> float:
        c = self.counters
        if c["slab_cells_dense"] == 0:
            return 0.0
        return 1.0 - c["slab_cells_touched"] / c["slab_cells_dense"]

    # -- roofline link -------------------------------------------------------

    def achieved_intensity(self) -> float | None:
        """Observed FLOPs per byte of the batched R0 kernel, or ``None``
        when the run moved no counted bytes (non-batched kernels)."""
        bytes_moved = self.counters["bytes_moved"]
        if bytes_moved == 0:
            return None
        r0_flops = FLOPS_PER_OP * self.counters["ops_r0"]
        return r0_flops / bytes_moved

    def roofline_summary(
        self, machine: MachineSpec = XEON_E5_1650V4, level: str = "L1"
    ) -> dict[str, Any]:
        """Achieved vs predicted intensity on one machine's roofline.

        ``predicted_ai`` is the paper's stream-kernel intensity (2/12);
        ``achieved_ai`` is observed R0 FLOPs over counted kernel bytes.
        Both are evaluated against the same roof so the attainable
        GFLOPS are directly comparable.
        """
        roof = Roofline(machine, threads=self.threads)
        predicted = roof.attainable(MAXPLUS_STREAM_AI, level)
        ai = self.achieved_intensity()
        out: dict[str, Any] = {
            "machine": machine.name,
            "level": level,
            "threads": self.threads,
            "predicted_ai": MAXPLUS_STREAM_AI,
            "predicted_gflops": predicted.attainable_gflops,
            "achieved_ai": ai,
        }
        if ai is not None:
            achieved = roof.attainable(ai, level)
            out["achieved_gflops_bound"] = achieved.attainable_gflops
            out["bound"] = achieved.bound
        if self.wall_s > 0:
            out["measured_gflops"] = self.flops / self.wall_s / 1e9
        return out

    # -- serialization -------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        return {
            "version": REPORT_VERSION,
            "n": self.n,
            "m": self.m,
            "variant": self.variant,
            "backend": self.backend,
            "threads": self.threads,
            "wall_s": self.wall_s,
            "score": self.score,
            "counters": dict(self.counters),
            "attrs": dict(self.attrs),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2) + "\n"

    def save(self, path: str | os.PathLike) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunReport":
        version = data.get("version")
        if version != REPORT_VERSION:
            raise ValueError(
                f"unsupported RunReport version {version!r} "
                f"(expected {REPORT_VERSION})"
            )
        counters = {f: int(data["counters"].get(f, 0)) for f in COUNTER_FIELDS}
        return cls(
            n=int(data["n"]),
            m=int(data["m"]),
            variant=str(data["variant"]),
            backend=data.get("backend"),
            threads=int(data.get("threads", 1)),
            wall_s=float(data.get("wall_s", 0.0)),
            score=data.get("score"),
            counters=counters,
            attrs=dict(data.get("attrs", {})),
        )

    @classmethod
    def load(cls, path: str | os.PathLike) -> "RunReport":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    # -- rendering -----------------------------------------------------------

    def render(self, machine: MachineSpec = XEON_E5_1650V4) -> str:
        c = self.counters
        obs, pred = self.observed_op_counts(), self.predicted()
        head = f"RunReport: (N, M) = ({self.n}, {self.m}), variant {self.variant}"
        if self.backend:
            head += f", backend {self.backend}"
        if self.threads > 1:
            head += f", {self.threads} threads"
        lines = [head]
        if self.score is not None:
            lines.append(f"score {self.score:g}, wall {self.wall_s:.4f} s")
        lines.append("")
        lines.append(f"{'term':8s} {'observed':>14s} {'predicted':>14s}")
        for term in ("r0", "r1", "r2", "r3", "r4", "cells"):
            mark = "" if obs[term] == pred[term] else "  <- MISMATCH"
            lines.append(f"{term:8s} {obs[term]:14d} {pred[term]:14d}{mark}")
        lines.append(
            f"{'total':8s} {self.ops_total:14d} "
            f"{sum(v for k, v in pred.items() if k != 'cells'):14d}"
        )
        if c["slabs_total"]:
            lines.append("")
            lines.append(
                f"batched R0 traffic: {c['slab_cells_touched']} of "
                f"{c['slab_cells_dense']} dense cells touched "
                f"({self.traffic_ratio():.2f}x cut, "
                f"{self.slab_skip_fraction():.1%} skipped, "
                f"{c['slabs_skipped']}/{c['slabs_total']} slabs fully skipped)"
            )
            lines.append(f"bytes moved (model): {c['bytes_moved']}")
        if c["fr_windows"]:
            pruned_s = c["r0_splits_pruned"]
            total_s = c["r0_splits_total"]
            frac_s = pruned_s / total_s if total_s else 0.0
            lines.append(
                f"four-russians: {c['fr_windows']} windows, "
                f"{c['fr_lookup_cells']} lookup cells + "
                f"{c['fr_boundary_cells']} boundary cells, "
                f"{c['fr_table_builds']} table builds "
                f"({c['fr_table_cells']} table cells)"
            )
            lines.append(
                f"  pruning: {pruned_s}/{total_s} splits skipped "
                f"({frac_s:.1%}), {c['r0_blocks_pruned']}/"
                f"{c['r0_blocks_total']} lookup blocks skipped"
            )
            fr_q = self.attrs.get("fr_q")
            if fr_q:
                p = predicted_fr_cells(self.n, self.m, int(fr_q))
                mark_l = (
                    ""
                    if c["fr_lookup_cells"] == p["fr_lookup_cells"]
                    else (
                        " (pruned)"
                        if c["fr_lookup_cells"] < p["fr_lookup_cells"]
                        else "  <- MISMATCH"
                    )
                )
                mark_b = (
                    ""
                    if c["fr_boundary_cells"] == p["fr_boundary_cells"]
                    else (
                        " (pruned)"
                        if c["fr_boundary_cells"] < p["fr_boundary_cells"]
                        else "  <- MISMATCH"
                    )
                )
                lines.append(
                    f"  q={fr_q}: predicted lookup {p['fr_lookup_cells']}"
                    f"{mark_l}, predicted boundary "
                    f"{p['fr_boundary_cells']}{mark_b}"
                )
        if c["tiles_executed"]:
            idle_ms = c["tile_idle_ns"] / 1e6
            lines.append(
                f"tiling: {c['tiles_executed']} tiles over "
                f"{c['tile_wavefronts']} wavefronts, "
                f"{idle_ms:.1f} ms scheduler idle, "
                f"{c['tile_slab_bytes']} slab bytes"
            )
        ws_line = (
            f"workspace: {c['ws_grow_events']} grows, "
            f"{c['ws_bytes_allocated']} bytes allocated, "
            f"{c['ws_stack_reuses']} stack reuses"
        )
        if c["workspace_bytes"]:
            ws_line += f", {c['workspace_bytes']} bytes high-water"
        lines.append(ws_line)
        if c["checkpoint_saves"] or c["retries"] or c["faults_injected"]:
            lines.append(
                f"robustness: {c['checkpoint_saves']} checkpoint saves "
                f"({c['checkpoint_bytes']} bytes), {c['retries']} retries, "
                f"{c['faults_injected']} faults injected"
            )
        if c["requests_served"] or c["cache_hits"] or c["cache_misses"]:
            looked_up = c["cache_hits"] + c["cache_misses"]
            rate = c["cache_hits"] / looked_up if looked_up else 0.0
            lines.append(
                f"serving: {c['requests_served']} requests in "
                f"{c['batches_dispatched']} batches; cache "
                f"{c['cache_hits']}/{looked_up} hits ({rate:.1%}), "
                f"{c['cache_evictions']} evictions"
            )
        if c["requests_shed"] or c["worker_deaths"] or c["worker_respawns"]:
            lines.append(
                f"sharding: {c['requests_shed']} shed, "
                f"{c['requests_rerouted']} rerouted, "
                f"{c['worker_deaths']} worker deaths, "
                f"{c['worker_respawns']} respawns"
            )
        roof = self.roofline_summary(machine)
        lines.append("")
        lines.append(
            f"roofline ({roof['machine']}, {roof['level']}): predicted AI "
            f"{roof['predicted_ai']:.4f} -> {roof['predicted_gflops']:.1f} GFLOPS"
        )
        if roof["achieved_ai"] is not None:
            lines.append(
                f"achieved AI {roof['achieved_ai']:.4f} -> "
                f"{roof['achieved_gflops_bound']:.1f} GFLOPS bound "
                f"({roof['bound']}-bound)"
            )
        if "measured_gflops" in roof:
            lines.append(f"measured: {roof['measured_gflops']:.3f} GFLOPS")
        return "\n".join(lines)
