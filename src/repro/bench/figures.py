"""One generator per paper table/figure (the per-experiment index of
DESIGN.md).  Each returns an :class:`~repro.bench.harness.ExperimentResult`
whose rows are the series the paper plots; ``benchmarks/`` wraps these in
pytest-benchmark entries and EXPERIMENTS.md records paper-vs-measured.

Model-projected rows use the calibrated :class:`~repro.machine.PerfModel`
(see DESIGN.md's substitution table: no 6-core Xeon is available here);
wall-clock rows measure the real NumPy/pure-Python engines at substrate
scale.
"""

from __future__ import annotations

import numpy as np

from ..core.alpha_model import (
    bpmax_system,
    dmp_system,
    schedules_for,
    target_mapping_for,
)
from ..core.dmp import DoubleMaxPlus, dmp_flops, random_triangles
from ..core.engine import make_engine
from ..core.reference import prepare_inputs
from ..machine.counters import bpmax_breakdown, flops_r0
from ..machine.perfmodel import BPMAX_VARIANTS, DMP_VARIANTS, PerfModel
from ..machine.roofline import MAXPLUS_STREAM_AI, Roofline
from ..machine.specs import XEON_E2278G, XEON_E5_1650V4
from ..polyhedral.codegen import (
    count_loc,
    generate_schedule_code,
    generate_write_code,
)
from ..polyhedral.dependence import check_all
from ..rna.sequence import random_pair
from ..semiring.microbench import StreamBenchmark
from .harness import ExperimentResult, measure
from .workloads import (
    CHUNK_SWEEP_FIG12,
    MODEL_SWEEP_M,
    OUTER_N,
    TILE_SHAPES_FIG18,
    WALLCLOCK_BPMAX,
    WALLCLOCK_DMP,
)

__all__ = ["EXPERIMENTS", "run_experiment"]

_DEFAULT_TILE = (64, 16, 0)


def fig01_summary() -> ExperimentResult:
    """Fig. 1 — optimization-result overview on both Xeons (model)."""
    res = ExperimentResult(
        "fig01",
        "BPMax summary: GFLOPS and speedup, hybrid-tiled vs original",
        ("machine", "m", "base_gflops", "tiled_gflops", "speedup", "peak_fraction"),
        notes="paper: >100x, 76 GFLOPS ~ 1/4..1/5 of peak; E-2278G same or better",
    )
    for machine in (XEON_E5_1650V4, XEON_E2278G):
        pm = PerfModel(machine)
        for m in (1024, 2048):
            base = pm.predict_bpmax("base", OUTER_N, m)
            tiled = pm.predict_bpmax("hybrid-tiled", OUTER_N, m, tile=_DEFAULT_TILE)
            res.add(
                machine=machine.name,
                m=m,
                base_gflops=base.gflops,
                tiled_gflops=tiled.gflops,
                speedup=tiled.speedup_over(base),
                peak_fraction=tiled.gflops / (machine.maxplus_peak_flops() / 1e9),
            )
    return res


def fig11_roofline() -> ExperimentResult:
    """Fig. 11 — roofline of the Xeon E5-1650v4."""
    rl = Roofline(XEON_E5_1650V4, threads=6)
    res = ExperimentResult(
        "fig11",
        "Roofline (6 threads): attainable GFLOPS per level",
        ("level", "ridge_ai", "maxplus_ai", "attainable_gflops", "bound"),
        notes=f"theoretical max-plus peak {rl.peak_gflops:.0f} GFLOPS; "
        "paper expects ~329 GFLOPS at the L1 roof for AI = 1/6",
    )
    for level in rl.levels():
        pt = rl.attainable(MAXPLUS_STREAM_AI, level)
        res.add(
            level=level,
            ridge_ai=rl.ridge_point(level),
            maxplus_ai=MAXPLUS_STREAM_AI,
            attainable_gflops=pt.attainable_gflops,
            bound=pt.bound,
        )
    return res


def fig12_microbench(measured: bool = True) -> ExperimentResult:
    """Fig. 12 — the Y = max(a+X, Y) micro-benchmark."""
    pm = PerfModel()
    res = ExperimentResult(
        "fig12",
        "Stream micro-benchmark GFLOPS vs per-thread chunk size",
        ("chunk_bytes", "model_6t", "model_12t", "measured_1t"),
        notes="paper: up to 120 GFLOPS at 6 threads, 240 at 12",
    )
    for chunk in CHUNK_SWEEP_FIG12:
        measured_1t = float("nan")
        if measured and chunk <= 2 ** 22:
            n_elems = max(chunk // 4, 1)
            bench = StreamBenchmark(n_elems, iterations=4, threads=1)
            measured_1t = bench.run().gflops
        res.add(
            chunk_bytes=chunk,
            model_6t=pm.predict_stream(chunk, 6),
            model_12t=pm.predict_stream(chunk, 12),
            measured_1t=measured_1t,
        )
    return res


def fig13_dmp_perf() -> ExperimentResult:
    """Fig. 13 — double max-plus GFLOPS per schedule (model)."""
    pm = PerfModel()
    res = ExperimentResult(
        "fig13",
        "Double max-plus GFLOPS by schedule, 6 threads (model)",
        ("m",) + DMP_VARIANTS,
        notes="paper: tiled reaches 117 GFLOPS = 97% of the stream target",
    )
    for m in MODEL_SWEEP_M:
        row = {"m": m}
        for v in DMP_VARIANTS:
            row[v] = pm.predict_dmp(v, OUTER_N, m, tile=_DEFAULT_TILE).gflops
        res.add(**row)
    return res


def fig14_dmp_speedup() -> ExperimentResult:
    """Fig. 14 — double max-plus speedup over the original (model)."""
    pm = PerfModel()
    res = ExperimentResult(
        "fig14",
        "Double max-plus speedup over base, 6 threads (model)",
        ("m",) + tuple(v for v in DMP_VARIANTS if v != "base"),
        notes="paper: ~178x for the tiled kernel",
    )
    for m in MODEL_SWEEP_M:
        base = pm.predict_dmp("base", OUTER_N, m)
        row = {"m": m}
        for v in DMP_VARIANTS:
            if v == "base":
                continue
            row[v] = pm.predict_dmp(v, OUTER_N, m, tile=_DEFAULT_TILE).speedup_over(base)
        res.add(**row)
    return res


def fig13_dmp_wallclock() -> ExperimentResult:
    """Fig. 13 companion — real wall-clock kernel comparison."""
    res = ExperimentResult(
        "fig13w",
        "Double max-plus wall-clock GFLOPS (this substrate)",
        ("n", "m", "naive", "scalar_k_inner", "vectorized", "tiled"),
        notes="NumPy = SIMD surrogate; ratios, not absolutes, transfer",
    )
    for n, m in WALLCLOCK_DMP:
        tr = random_triangles(n, m, 0)
        flops = dmp_flops(n, m)
        row = {"n": n, "m": m}
        for label, kernel in (
            ("naive", "naive"),
            ("scalar_k_inner", "scalar-k-inner"),
            ("vectorized", "vectorized"),
            ("tiled", "tiled"),
        ):
            eng = DoubleMaxPlus(
                [t.copy() for t in tr], kernel=kernel, tile=(16, 4, 0)
            )
            meas = measure(eng.run, label, flops=flops)
            row[label] = meas.gflops
        res.add(**row)
    return res


def fig15_bpmax_perf() -> ExperimentResult:
    """Fig. 15 — BPMax GFLOPS per program version (model)."""
    pm = PerfModel()
    res = ExperimentResult(
        "fig15",
        "BPMax GFLOPS by program version, 6 threads (model)",
        ("m",) + BPMAX_VARIANTS,
        notes="paper: tiled hybrid ~76 GFLOPS at moderate sizes",
    )
    for m in MODEL_SWEEP_M:
        row = {"m": m}
        for v in BPMAX_VARIANTS:
            row[v] = pm.predict_bpmax(v, OUTER_N, m, tile=_DEFAULT_TILE).gflops
        res.add(**row)
    return res


def fig16_bpmax_speedup() -> ExperimentResult:
    """Fig. 16 — BPMax speedup over the original program (model)."""
    pm = PerfModel()
    res = ExperimentResult(
        "fig16",
        "BPMax speedup over the original program (model)",
        ("m",) + tuple(v for v in BPMAX_VARIANTS if v != "base"),
        notes="paper: ~100x for longer sequences with 6 threads",
    )
    for m in MODEL_SWEEP_M:
        base = pm.predict_bpmax("base", OUTER_N, m)
        row = {"m": m}
        for v in BPMAX_VARIANTS:
            if v == "base":
                continue
            row[v] = pm.predict_bpmax(v, OUTER_N, m, tile=_DEFAULT_TILE).speedup_over(
                base
            )
        res.add(**row)
    return res


def fig15_bpmax_wallclock() -> ExperimentResult:
    """Fig. 15/16 companion — real wall-clock program comparison."""
    res = ExperimentResult(
        "fig15w",
        "BPMax wall-clock seconds and speedup (this substrate)",
        ("n", "m", "baseline_s", "hybrid_s", "tiled_s", "speedup_tiled"),
        notes="pure-Python baseline vs NumPy engines",
    )
    for n, m in WALLCLOCK_BPMAX:
        s1, s2 = random_pair(n, m, 123)
        inp = prepare_inputs(s1, s2)
        t_base = measure(lambda: make_engine(inp, "baseline").run(), "base").seconds
        t_hyb = measure(lambda: make_engine(inp, "hybrid").run(), "hybrid").seconds
        t_til = measure(
            lambda: make_engine(inp, "hybrid-tiled", tile=(8, 4, 0)).run(), "tiled"
        ).seconds
        res.add(
            n=n,
            m=m,
            baseline_s=t_base,
            hybrid_s=t_hyb,
            tiled_s=t_til,
            speedup_tiled=t_base / t_til,
        )
    return res


def fig17_hyperthreading() -> ExperimentResult:
    """Fig. 17 — SMT effect on the tiled double max-plus (model)."""
    pm = PerfModel()
    res = ExperimentResult(
        "fig17",
        "Tiled double max-plus: 6 vs 12 threads (model)",
        ("m", "gflops_6t", "gflops_12t", "smt_gain"),
        notes="paper: minimal (3-5%) improvement from hyper-threading",
    )
    for m in MODEL_SWEEP_M:
        g6 = pm.predict_dmp("tiled", OUTER_N, m, 6, tile=_DEFAULT_TILE).gflops
        g12 = pm.predict_dmp("tiled", OUTER_N, m, 12, tile=_DEFAULT_TILE).gflops
        res.add(m=m, gflops_6t=g6, gflops_12t=g12, smt_gain=g12 / g6)
    return res


def fig18_tile_shapes(measured: bool = True) -> ExperimentResult:
    """Fig. 18 — tile-shape sweep at the paper's 16 x 2500 workload."""
    pm = PerfModel()
    res = ExperimentResult(
        "fig18",
        "Tile shape (i2 x k2 x j2) effect on double max-plus",
        ("tile", "model_gflops_16x2500", "wallclock_gflops_small"),
        notes="paper: cubic tiles poor; best shapes leave j2 untiled; "
        "~10% best-vs-generic gap",
    )
    tr = random_triangles(4, 64, 0) if measured else None
    flops = dmp_flops(4, 64)
    for tile in TILE_SHAPES_FIG18:
        wall = float("nan")
        if measured:
            small = tuple(min(t, 64) if t else 0 for t in tile)
            eng = DoubleMaxPlus([t.copy() for t in tr], kernel="tiled", tile=small)
            wall = measure(eng.run, str(tile), flops=flops).gflops or float("nan")
        res.add(
            tile=f"{tile[0]}x{tile[1]}x{tile[2] or 'N'}",
            model_gflops_16x2500=pm.predict_dmp(
                "tiled", OUTER_N, 2500, tile=tile
            ).gflops,
            wallclock_gflops_small=wall,
        )
    return res


def tables_schedules() -> ExperimentResult:
    """Tables I-IV — legality report for every published schedule."""
    res = ExperimentResult(
        "tables1-4",
        "Published schedules: machine-checked legality",
        ("variant", "paper_table", "rank", "parallel_dim", "dependences", "violations"),
        notes="checked by exhaustive enumeration at N=3, M=4",
    )
    params = {"N": 3, "M": 4}
    deps_bpmax = bpmax_system(include_s=False).dependences()
    deps_dmp = dmp_system().dependences()
    for variant in ("dmp", "fine", "coarse", "hybrid"):
        vs = schedules_for(variant)
        deps = deps_dmp if variant == "dmp" else deps_bpmax
        scheds, ready = vs.checker_schedules()
        viol = check_all(deps, scheds, params, producer_schedules=ready)
        res.add(
            variant=variant,
            paper_table=vs.table,
            rank=next(iter(scheds.values())).rank,
            parallel_dim=vs.parallel_dim if vs.parallel_dim is not None else "-",
            dependences=len(deps),
            violations=len(viol),
        )
    return res


def table6_loc() -> ExperimentResult:
    """Table VI — auto-generated code statistics."""
    res = ExperimentResult(
        "table6",
        "Generated-code LOC per program version",
        ("implementation", "loc", "loops", "statements"),
        notes="paper (C): base 140, DMP 150, BPMax ~1200, tiled ~1400; "
        "ordering and growth, not absolutes, transfer",
    )
    sys_dmp = dmp_system()
    sys_bpmax = bpmax_system(include_s=False)
    sources = {
        "BPMax base (writeC)": generate_write_code(bpmax_system(True), "bpmax_base"),
        "Double max-plus (scheduled)": generate_schedule_code(
            sys_dmp, target_mapping_for("dmp", "dmp"), "dmp_sched"
        ),
        "BPMax fine (scheduled)": generate_schedule_code(
            sys_bpmax, target_mapping_for("fine"), "bpmax_fine"
        ),
        "BPMax coarse (scheduled)": generate_schedule_code(
            sys_bpmax, target_mapping_for("coarse"), "bpmax_coarse"
        ),
        "BPMax hybrid (scheduled)": generate_schedule_code(
            sys_bpmax, target_mapping_for("hybrid"), "bpmax_hybrid"
        ),
    }
    tiled_tm = target_mapping_for("dmp", "dmp")
    tiled_tm.set_tiling("R0", (0, 0, 0, 8, 8, 0))
    tiled_tm.set_tiling("F", (0, 0, 0, 8, 8, 0))
    sources["Double max-plus tiled (scheduled)"] = generate_schedule_code(
        sys_dmp, tiled_tm, "dmp_tiled"
    )
    for name, src in sources.items():
        stats = count_loc(name, src)
        res.add(
            implementation=name,
            loc=stats.code_lines,
            loops=stats.loop_count,
            statements=stats.statement_functions,
        )
    return res


def real_speedup() -> ExperimentResult:
    """§V headline on this substrate: optimized vs baseline wall clock.

    Two granularities, as in the paper: the R0 kernel alone (where the
    paper reports ~178x and this substrate exceeds 100x once the work is
    large enough to amortize call overhead) and the whole program (whose
    speedup grows with the inner length exactly as Fig. 16 shows).
    """
    res = ExperimentResult(
        "real-speedup",
        "Measured speedup, optimized vs pure-Python baseline",
        ("scope", "n", "m", "baseline_s", "optimized_s", "speedup"),
        notes="the >100x headline, on our Python substrate",
    )
    # kernel-level: one window's max-plus product chain (eq. 4)
    for n, m in ((3, 96), (3, 160)):
        tr = random_triangles(n, m, 5)
        base = DoubleMaxPlus([t.copy() for t in tr], kernel="naive")
        tiled = DoubleMaxPlus([t.copy() for t in tr], kernel="tiled", tile=(32, 4, 0))
        t_base = measure(base.run, "naive").seconds
        t_opt = measure(tiled.run, "tiled").seconds
        res.add(
            scope="R0 kernel",
            n=n,
            m=m,
            baseline_s=t_base,
            optimized_s=t_opt,
            speedup=t_base / t_opt,
        )
    # program-level: full BPMax
    for n, m in ((4, 32), (4, 64)):
        s1, s2 = random_pair(n, m, 7)
        inp = prepare_inputs(s1, s2)
        t_base = measure(lambda: make_engine(inp, "baseline").run(), "base").seconds
        t_opt = measure(
            lambda: make_engine(inp, "hybrid-tiled", tile=(16, 4, 0)).run(), "opt"
        ).seconds
        res.add(
            scope="full BPMax",
            n=n,
            m=m,
            baseline_s=t_base,
            optimized_s=t_opt,
            speedup=t_base / t_opt,
        )
    return res


def work_breakdown() -> ExperimentResult:
    """§V-C analysis: where the FLOPs go (R1/R2 limit the whole program)."""
    res = ExperimentResult(
        "breakdown",
        "BPMax FLOP breakdown by component",
        ("n", "m", "r0_pct", "r1r2_pct", "r3r4_pct", "cells_pct"),
        notes="paper: R3/R4 almost free; R1/R2 dominate the gap to 117 GFLOPS",
    )
    for n, m in ((16, 1024), (16, 2048), (16, 4096), (64, 1024)):
        wk = bpmax_breakdown(n, m)
        res.add(
            n=n,
            m=m,
            r0_pct=100 * wk.r0 / wk.total,
            r1r2_pct=100 * wk.r1r2 / wk.total,
            r3r4_pct=100 * wk.r3r4 / wk.total,
            cells_pct=100 * wk.cells / wk.total,
        )
    return res


def correlation() -> ExperimentResult:
    """§I motivation — BPMax vs. thermodynamic ensembles.

    The paper motivates BPMax by its correlation with full thermodynamic
    models (Pearson 0.904 at -180 C and 0.836 at 37 C vs piRNA).  We
    reproduce the analysis exactly at small scale: BPMax score against
    the exact ensemble free energy over the enumerated structure space.
    """
    from ..core.bppart import correlation_study

    res = ExperimentResult(
        "correlation",
        "BPMax score vs exact ensemble -dG (random pairs)",
        ("temperature_c", "beta", "pearson", "spearman", "samples"),
        notes="paper (piRNA vs BPMax): 0.904 at -180C, 0.836 at 37C; "
        "colder ensembles correlate higher",
    )
    for r in correlation_study(n_samples=40, lengths=(4, 5), rng=11):
        res.add(
            temperature_c=r.temperature_c,
            beta=r.beta,
            pearson=r.pearson,
            spearman=r.spearman,
            samples=r.n_samples,
        )
    return res


def mpi_scaling() -> ExperimentResult:
    """Conclusion future work — MPI distribution across a cluster.

    Projects strong scaling of the wavefront-distributed BPMax at the
    paper's 16 x 2500 workload on a simulated cluster of tiled-kernel
    nodes (117 GFLOPS each, 100 Gb/s interconnect).
    """
    from ..core.distributed import DistributedBPMax
    from ..parallel.mpi import ClusterSpec

    res = ExperimentResult(
        "mpi-scaling",
        "Simulated MPI strong scaling, BPMax 16 x 2500",
        ("ranks", "makespan_s", "speedup", "efficiency", "gbytes_comm"),
        notes="future work of the paper's conclusion; wavefront width "
        "(N - d1) bounds parallelism, triangles are the messages",
    )
    s1, s2 = random_pair(OUTER_N, 4, 9)
    inp = prepare_inputs(s1, s2)
    for ranks in (1, 2, 4, 8, 16):
        rep = DistributedBPMax(
            inp, ClusterSpec(ranks=ranks), execute=False, m_effective=2500
        ).run()
        res.add(
            ranks=ranks,
            makespan_s=rep.makespan_s,
            speedup=rep.speedup,
            efficiency=rep.efficiency,
            gbytes_comm=rep.bytes_sent / 1e9,
        )
    return res


def future_work() -> ExperimentResult:
    """Conclusion §VI ablations — register tiling and R1/R2 tiling.

    Projects the two remaining optimizations the paper plans: a register
    micro-kernel lifting the R0 kernel from bandwidth-bound to
    compute-bound, and tiling R1/R2 so the full program escapes the
    long-sequence DRAM collapse.  A real (NumPy surrogate) register
    kernel is measured alongside.
    """
    from ..core.dmp import DoubleMaxPlus, dmp_flops, random_triangles

    pm = PerfModel()
    res = ExperimentResult(
        "future-work",
        "Conclusion ablations: register tiling and R1/R2 tiling (model)",
        (
            "m",
            "dmp_tiled",
            "dmp_register",
            "dmp_bound",
            "bpmax_tiled",
            "bpmax_r12_tiled",
        ),
        notes="paper §VI: register tiling should make the kernel "
        "compute-bound; R1/R2 tiling should lift the 76-GFLOPS program cap",
    )
    for m in (512, 1024, 2048, 4096):
        r = pm.predict_dmp("register-tiled", OUTER_N, m, tile=_DEFAULT_TILE)
        res.add(
            m=m,
            dmp_tiled=pm.predict_dmp("tiled", OUTER_N, m, tile=_DEFAULT_TILE).gflops,
            dmp_register=r.gflops,
            dmp_bound=r.bound,
            bpmax_tiled=pm.predict_bpmax(
                "hybrid-tiled", OUTER_N, m, tile=_DEFAULT_TILE
            ).gflops,
            bpmax_r12_tiled=pm.predict_bpmax(
                "hybrid-tiled-r12", OUTER_N, m, tile=_DEFAULT_TILE
            ).gflops,
        )
    return res


def schedule_exploration() -> ExperimentResult:
    """§IV-A automated — explore the schedule design space.

    Generates every (outer order x inner permutation) candidate the
    paper enumerates by hand, legality-checks each against the extracted
    dependences, and ranks the survivors with the perf model.  The
    published choice (j2 innermost) must rank first.
    """
    from ..core.explore import explore_dmp_schedules

    res = ExperimentResult(
        "explore",
        "Double max-plus schedule exploration (12 candidates)",
        ("candidate", "legal", "vectorizable", "predicted_gflops"),
        notes="paper: any inner order is legal; k2 innermost prohibits "
        "vectorization; outer orders nearly equivalent",
    )
    for c in explore_dmp_schedules():
        res.add(
            candidate=c.name,
            legal=c.legal,
            vectorizable=c.vectorizable,
            predicted_gflops=c.predicted_gflops or float("nan"),
        )
    return res


def gpu_compare() -> ExperimentResult:
    """§II related work — the CPU-vs-GPU trade-off, quantified.

    Gildemaster's GPU library wins while the F table fits device memory;
    beyond that, windowing and PCIe transfers erode the advantage — "it
    is crucial to speed up the algorithm on the CPU".
    """
    from ..machine.gpu import GpuWindowedModel

    gm = GpuWindowedModel()
    res = ExperimentResult(
        "gpu-compare",
        "Windowed GPU vs tiled CPU on the DMP kernel (model)",
        ("n", "m", "fits_device", "windows", "gpu_s", "transfer_pct", "cpu_s", "gpu_speedup"),
        notes="related work: GPU limited to windows by device memory; "
        "transfer costs erode its advantage past capacity",
    )
    for n, m in ((16, 1024), (16, 2500), (64, 2500), (256, 2500)):
        c = gm.compare(n, m)
        res.add(
            n=n,
            m=m,
            fits_device=c.fits_device,
            windows=c.windows_needed,
            gpu_s=c.gpu_total_s,
            transfer_pct=100 * c.transfer_fraction,
            cpu_s=c.cpu_total_s,
            gpu_speedup=c.gpu_speedup_over_cpu,
        )
    return res


#: experiment id -> generator
EXPERIMENTS = {
    "correlation": correlation,
    "mpi-scaling": mpi_scaling,
    "future-work": future_work,
    "explore": schedule_exploration,
    "gpu-compare": gpu_compare,
    "fig01": fig01_summary,
    "fig11": fig11_roofline,
    "fig12": fig12_microbench,
    "fig13": fig13_dmp_perf,
    "fig13w": fig13_dmp_wallclock,
    "fig14": fig14_dmp_speedup,
    "fig15": fig15_bpmax_perf,
    "fig15w": fig15_bpmax_wallclock,
    "fig16": fig16_bpmax_speedup,
    "fig17": fig17_hyperthreading,
    "fig18": fig18_tile_shapes,
    "tables1-4": tables_schedules,
    "table6": table6_loc,
    "real-speedup": real_speedup,
    "breakdown": work_breakdown,
}


def run_experiment(name: str) -> ExperimentResult:
    """Run one experiment by id (see :data:`EXPERIMENTS`)."""
    try:
        gen = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    return gen()
