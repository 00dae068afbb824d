"""Kernel-backend benchmark: the R0 hot path across registered backends.

Times a full BPMax run per registered-and-available backend (through the
``batched`` program version) against the classic ``hybrid-tiled`` engine
on one (N, M) workload, checks that every timed engine returns the exact
same score, and writes ``BENCH_kernels.json``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_kernel_backends.py \\
        --n 40 --m 40 --out BENCH_kernels.json

Single-backend mode (``--backend`` / ``--threads``) times one named
backend against the always-timed ``numpy-batched`` denominator and
records ``speedup_vs_numpy_batched`` — how ``BENCH_tiled.json`` is made::

    PYTHONPATH=src python benchmarks/bench_kernel_backends.py \\
        --backend tiled --threads 2 --n 60 --m 60 --out BENCH_tiled.json

CI regression gate (perf-smoke job)::

    PYTHONPATH=src python benchmarks/bench_kernel_backends.py \\
        --n 24 --m 24 --out BENCH_kernels.json \\
        --check-against benchmarks/BENCH_kernels_baseline.json --tolerance 0.3

The gate compares the *relative speedup* of the default backend over
``hybrid-tiled`` measured in the same process — machine-independent, so
a committed laptop baseline remains meaningful on a CI runner.

Scaling-exponent mode (``--slope``) times every backend over a ladder of
inner sizes M, least-squares-fits log(time) against log(M) per backend
and reports the fitted exponent — the honest way to compare a
Four-Russians kernel (lower growth rate, higher constant) against the
dense batched kernel on a noisy machine::

    PYTHONPATH=src python benchmarks/bench_kernel_backends.py \\
        --slope 24,40,64,96 --backend fourrussians \\
        --merge-baseline benchmarks/BENCH_kernels_baseline.json

Semiring mode (``--semiring logsumexp``) times the log-partition
(BPPart) workload instead of max-plus: only backends declaring the
semiring are timed, scores agree within the corpus tolerance rather
than bit-identically, and the advisory CI artifact is written as::

    PYTHONPATH=src python benchmarks/bench_kernel_backends.py \\
        --n 24 --m 24 --semiring logsumexp --out BENCH_semiring.json

Under pytest the module also exposes a smoke test at tiny sizes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(SRC))

from repro.core.engine import make_engine  # noqa: E402
from repro.core.reference import bpmax_recursive, prepare_inputs  # noqa: E402
from repro.kernels import BACKENDS, DEFAULT_BACKEND, available_backends  # noqa: E402
from repro.rna.sequence import random_pair  # noqa: E402
from repro.semiring import get_semiring  # noqa: E402

#: score-agreement tolerance for non-exact semirings (corpus policy)
LSE_TOL = 1e-9


def _time_once(inputs, **kwargs) -> tuple[float, float]:
    """(wall seconds, score) of one full run with a fresh engine."""
    engine = make_engine(inputs, **kwargs)
    t0 = time.perf_counter()
    s = engine.run()
    return time.perf_counter() - t0, s


def _agree(a: float, b: float, exact: bool) -> bool:
    """Score equality under the semiring's contract: bit-identity for
    exact semirings, the corpus tolerance otherwise."""
    if exact:
        return a == b
    return math.isclose(a, b, rel_tol=LSE_TOL, abs_tol=LSE_TOL)


def _semiring_backends(names: list[str], semiring: str) -> list[str]:
    """Drop backends that do not declare the semiring (timing their
    transparent fallback would mislabel another backend's numbers)."""
    kept = [n for n in names if semiring in BACKENDS[n].semirings]
    for skipped in sorted(set(names) - set(kept)):
        print(
            f"note: skipping {skipped!r} (declares {BACKENDS[skipped].semirings}, "
            f"not {semiring!r})",
            file=sys.stderr,
        )
    return kept


def run_bench(
    n: int,
    m: int,
    repeats: int = 3,
    seed: int = 99,
    backend: str | None = None,
    threads: int = 1,
    semiring: str = "max-plus",
) -> dict:
    """Time hybrid-tiled and every available backend; verify score equality.

    Repeats are *interleaved* (reference, then each backend, per round)
    so a load spike on a shared machine hits every contender alike
    instead of whichever happened to run during it; each entry reports
    its best round.

    ``backend`` narrows the sweep to one named backend (``numpy-batched``
    is always timed too, as the denominator of the relative-speedup
    field); ``threads`` sizes the thread pool handed to every timed
    backend engine.  ``semiring`` swaps the reduction algebra: only
    backends declaring it are timed, and score agreement is checked
    under the semiring's contract (bit-identity when exact, the corpus
    1e-9 tolerance otherwise).
    """
    sr = get_semiring(semiring)
    names = _semiring_backends(available_backends(), sr.name)
    if backend is not None:
        if backend not in names:
            raise SystemExit(
                f"backend {backend!r} is not available for semiring "
                f"{sr.name!r}; choose from {names}"
            )
        names = sorted({backend, "numpy-batched"})
    s1, s2 = random_pair(n, m, seed)
    inputs = prepare_inputs(s1, s2, semiring=sr.name)

    results: dict = {
        "n": n,
        "m": m,
        "repeats": repeats,
        "seed": seed,
        "threads": threads,
        "semiring": sr.name,
        "default_backend": DEFAULT_BACKEND,
        "engine": {},
        "backends": {},
        "speedup_vs_hybrid_tiled": {},
        "speedup_vs_numpy_batched": {},
    }
    ref_time = float("inf")
    ref_score = None
    times: dict[str, float] = {}
    scores: dict[str, float] = {}
    for _ in range(repeats):
        t, s = _time_once(inputs, variant="hybrid-tiled")
        ref_time = min(ref_time, t)
        if ref_score is None:
            ref_score = s
        elif s != ref_score:
            raise AssertionError(f"non-deterministic score: {s} != {ref_score}")
        for name in names:
            t, s = _time_once(
                inputs, variant="batched", backend=name, threads=threads
            )
            times[name] = min(times.get(name, float("inf")), t)
            scores.setdefault(name, s)
            if s != scores[name]:
                raise AssertionError(f"non-deterministic score: {s} != {scores[name]}")
    results["engine"]["hybrid-tiled"] = ref_time
    results["score"] = ref_score
    batched_time = times.get("numpy-batched")
    for name, t in times.items():
        if not _agree(scores[name], ref_score, sr.exact):
            raise AssertionError(
                f"backend {name} score {scores[name]} != "
                f"hybrid-tiled score {ref_score} ({sr.name})"
            )
        results["backends"][name] = t
        results["speedup_vs_hybrid_tiled"][name] = ref_time / t if t > 0 else 0.0
        if batched_time is not None and t > 0:
            results["speedup_vs_numpy_batched"][name] = batched_time / t
    return results


def _fit_loglog(ms: list[int], times: list[float]) -> float:
    """Least-squares slope of log(time) against log(M): the fitted exponent."""
    xs = [math.log(m) for m in ms]
    ys = [math.log(max(t, 1e-12)) for t in times]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def run_slope(
    ms: list[int],
    n: int = 24,
    repeats: int = 3,
    seed: int = 99,
    backend: str | None = None,
    threads: int = 1,
) -> dict:
    """Fit the scaling exponent of each backend over a ladder of M sizes.

    For each round, each size and each backend one full run is timed —
    fully interleaved, so machine noise hits every (backend, M) cell
    alike — and the best round per cell feeds a least-squares fit of
    log(time) vs log(M).  A backend with a genuinely cheaper inner loop
    shows up as a *lower fitted exponent* even on hardware where
    run-to-run variance swamps any single same-size comparison.  Scores
    are cross-checked per size as in :func:`run_bench`.
    """
    if len(ms) < 2:
        raise SystemExit("--slope needs at least two M sizes to fit a line")
    names = available_backends()
    if backend is not None:
        if backend not in names:
            raise SystemExit(
                f"backend {backend!r} is not available; choose from {names}"
            )
        names = sorted({backend, "numpy-batched"})
    problems = []
    for m in ms:
        s1, s2 = random_pair(n, m, seed)
        problems.append((m, prepare_inputs(s1, s2)))

    times: dict[str, dict[int, float]] = {
        name: {m: float("inf") for m in ms} for name in names
    }
    scores: dict[int, float] = {}
    for _ in range(repeats):
        for m, inputs in problems:
            for name in names:
                t, s = _time_once(
                    inputs, variant="batched", backend=name, threads=threads
                )
                times[name][m] = min(times[name][m], t)
                scores.setdefault(m, s)
                if s != scores[m]:
                    raise AssertionError(
                        f"backend {name} at M={m}: score {s} != {scores[m]}"
                    )

    exponents = {
        name: _fit_loglog(ms, [times[name][m] for m in ms]) for name in names
    }
    nb = exponents.get("numpy-batched")
    return {
        "mode": "slope",
        "n": n,
        "ms": list(ms),
        "repeats": repeats,
        "seed": seed,
        "threads": threads,
        "times": {name: {str(m): times[name][m] for m in ms} for name in names},
        "fitted_exponent": exponents,
        "exponent_delta_vs_numpy_batched": (
            {name: e - nb for name, e in exponents.items()}
            if nb is not None
            else {}
        ),
    }


def merge_slope(results: dict, baseline_path: Path) -> None:
    """Insert one slope run under the baseline file's ``slopes`` section."""
    baseline = (
        json.loads(baseline_path.read_text()) if baseline_path.exists() else {}
    )
    key = f"n{results['n']}|m{'-'.join(str(m) for m in results['ms'])}"
    baseline.setdefault("slopes", {})[key] = results
    baseline_path.write_text(json.dumps(baseline, indent=2) + "\n")


def render_slope(results: dict) -> str:
    ms = results["ms"]
    lines = [
        f"scaling exponents over M = {ms} at N = {results['n']}, "
        f"threads={results['threads']}, best of {results['repeats']} "
        "(interleaved)",
        f"{'backend':24s} {'exponent':>9s} {'vs batched':>11s}  "
        + " ".join(f"{'M=' + str(m):>9s}" for m in ms),
    ]
    for name in sorted(results["fitted_exponent"]):
        e = results["fitted_exponent"][name]
        d = results["exponent_delta_vs_numpy_batched"].get(name)
        d_s = f"{d:+10.2f} " if d is not None else f"{'':>11s}"
        cells = " ".join(
            f"{results['times'][name][str(m)]:9.4f}" for m in ms
        )
        lines.append(f"{name:24s} {e:9.2f} {d_s} {cells}")
    return "\n".join(lines)


def verify_against_oracle(
    n: int = 6, m: int = 9, seed: int = 5, semiring: str = "max-plus"
) -> None:
    """Every backend must match the recursive oracle at a checkable size.

    The oracle is :func:`bpmax_recursive` for max-plus (bit-identity)
    and :func:`repro.core.bppart.bppart_recursive` for log-sum-exp
    (corpus tolerance).
    """
    sr = get_semiring(semiring)
    s1, s2 = random_pair(n, m, seed)
    inputs = prepare_inputs(s1, s2, semiring=sr.name)
    if sr.name == "max-plus":
        expected = bpmax_recursive(inputs)
    else:
        from repro.core.bppart import bppart_recursive

        expected = bppart_recursive(inputs)
    for name in _semiring_backends(available_backends(), sr.name):
        got = make_engine(inputs, variant="batched", backend=name).run()
        if not _agree(got, expected, sr.exact):
            raise AssertionError(
                f"backend {name} ({sr.name}): {got} != oracle {expected}"
            )


def merge_baseline(results: dict, baseline_path: Path) -> None:
    """Insert this run's results into the per-size baseline file.

    The baseline holds one entry per problem size (``"40x40"`` etc.)
    because the relative speedup grows with the window size — a gate
    must compare same-size measurements only.
    """
    baseline = (
        json.loads(baseline_path.read_text()) if baseline_path.exists() else {}
    )
    baseline.setdefault("sizes", {})[f"{results['n']}x{results['m']}"] = results
    baseline_path.write_text(json.dumps(baseline, indent=2) + "\n")


def check_regression(results: dict, baseline_path: Path, tolerance: float) -> int:
    """Exit status 1 when the default backend lost >tolerance of its speedup."""
    baseline = json.loads(baseline_path.read_text())
    if "sizes" in baseline:
        key = f"{results['n']}x{results['m']}"
        baseline = baseline["sizes"].get(key)
        if baseline is None:
            print(
                f"regression check: baseline has no {key} entry "
                f"(regenerate with --merge-baseline)",
                file=sys.stderr,
            )
            return 1
    name = results["default_backend"]
    measured = results["speedup_vs_hybrid_tiled"].get(name)
    reference = baseline.get("speedup_vs_hybrid_tiled", {}).get(name)
    if measured is None or reference is None:
        print(f"regression check: no '{name}' speedup to compare", file=sys.stderr)
        return 1
    floor = reference * (1.0 - tolerance)
    print(
        f"regression check: {name} speedup {measured:.2f}x "
        f"(baseline {reference:.2f}x, floor {floor:.2f}x)"
    )
    if measured < floor:
        print(
            f"FAIL: default backend regressed more than {tolerance:.0%} "
            "against the committed baseline",
            file=sys.stderr,
        )
        return 1
    return 0


def render(results: dict) -> str:
    lines = [
        f"kernel backends at (N, M) = ({results['n']}, {results['m']}), "
        f"threads={results.get('threads', 1)}, "
        f"semiring={results.get('semiring', 'max-plus')}, "
        f"best of {results['repeats']}",
        f"{'engine/backend':24s} {'seconds':>10s} {'speedup':>9s} {'vs batched':>11s}",
        f"{'hybrid-tiled (engine)':24s} {results['engine']['hybrid-tiled']:10.4f} "
        f"{'1.00x':>9s} {'':>11s}",
    ]
    for name, t in sorted(results["backends"].items()):
        sp = results["speedup_vs_hybrid_tiled"][name]
        vsb = results.get("speedup_vs_numpy_batched", {}).get(name)
        vsb_s = f"{vsb:10.2f}x" if vsb is not None else f"{'':>11s}"
        mark = "  [default]" if name == results["default_backend"] else ""
        lines.append(f"{name:24s} {t:10.4f} {sp:8.2f}x {vsb_s}{mark}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n", type=int, default=40, help="outer sequence length")
    p.add_argument("--m", type=int, default=40, help="inner sequence length")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=99)
    p.add_argument(
        "--backend",
        metavar="NAME",
        help="time only this backend (numpy-batched is still timed as the "
        "relative-speedup denominator)",
    )
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        metavar="N",
        help="thread-pool size for every timed backend engine",
    )
    p.add_argument(
        "--slope",
        metavar="M1,M2,...",
        help="fit log(time) vs log(M) per backend over these inner sizes "
        "instead of timing one size (the exponent-comparison mode)",
    )
    p.add_argument("--out", metavar="PATH", help="write results JSON here")
    p.add_argument(
        "--merge-baseline",
        metavar="PATH",
        help="insert this run into a per-size baseline JSON (for committing)",
    )
    p.add_argument(
        "--check-against",
        metavar="PATH",
        help="committed baseline JSON to gate the default backend against",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=0.3,
        help="allowed fractional speedup loss vs the baseline (default 0.3)",
    )
    p.add_argument(
        "--semiring",
        default="max-plus",
        metavar="NAME",
        help="reduction algebra to time (max-plus or logsumexp); only "
        "backends declaring it are timed, and score agreement follows the "
        "semiring's contract",
    )
    p.add_argument(
        "--skip-oracle",
        action="store_true",
        help="skip the small-size recursive-oracle verification",
    )
    args = p.parse_args(argv)

    if not args.skip_oracle:
        verify_against_oracle(semiring=args.semiring)
    if args.slope:
        if get_semiring(args.semiring).name != "max-plus":
            raise SystemExit(
                "--slope mode is max-plus only (the exponent ladder relies "
                "on bit-identical score cross-checks per size)"
            )
        try:
            ms = sorted({int(x) for x in args.slope.split(",") if x.strip()})
        except ValueError as exc:
            raise SystemExit(
                f"--slope must be comma-separated integers: {exc}"
            ) from exc
        results = run_slope(
            ms,
            n=args.n,
            repeats=args.repeats,
            seed=args.seed,
            backend=args.backend,
            threads=args.threads,
        )
        print(render_slope(results))
        if args.out:
            Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
            print(f"wrote {args.out}")
        if args.merge_baseline:
            merge_slope(results, Path(args.merge_baseline))
            print(f"merged into {args.merge_baseline}")
        if args.check_against:
            print(
                "note: --check-against is ignored in --slope mode "
                "(exponent comparison is advisory)",
                file=sys.stderr,
            )
        return 0
    results = run_bench(
        args.n,
        args.m,
        repeats=args.repeats,
        seed=args.seed,
        backend=args.backend,
        threads=args.threads,
        semiring=args.semiring,
    )
    print(render(results))
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.out}")
    if args.merge_baseline:
        merge_baseline(results, Path(args.merge_baseline))
        print(f"merged into {args.merge_baseline}")
    if args.check_against:
        return check_regression(results, Path(args.check_against), args.tolerance)
    return 0


# -- pytest smoke coverage ------------------------------------------------------


def test_backends_benchmark_smoke(tmp_path):
    """Tiny-size end-to-end: bench runs, scores agree, JSON round-trips."""
    verify_against_oracle(n=4, m=6, seed=2)
    results = run_bench(6, 8, repeats=1, seed=3)
    assert results["backends"], "no available backends were timed"
    assert results["speedup_vs_numpy_batched"]["numpy-batched"] == 1.0
    out = tmp_path / "BENCH_kernels.json"
    out.write_text(json.dumps(results))
    again = json.loads(out.read_text())
    assert again["default_backend"] in again["backends"]
    assert check_regression(again, out, tolerance=0.999) == 0


def test_backends_benchmark_slope_smoke(tmp_path):
    """--slope path: exponents fitted per backend, baseline merge round-trips."""
    results = run_slope([6, 10], n=5, repeats=1, seed=3, backend="fourrussians")
    assert set(results["times"]) == {"fourrussians", "numpy-batched"}
    assert set(results["fitted_exponent"]) == set(results["times"])
    assert results["exponent_delta_vs_numpy_batched"]["numpy-batched"] == 0.0
    out = tmp_path / "baseline.json"
    merge_slope(results, out)
    again = json.loads(out.read_text())
    assert again["slopes"]["n5|m6-10"]["mode"] == "slope"
    assert render_slope(results)


def test_backends_benchmark_logsumexp_smoke(capsys):
    """--semiring logsumexp path: max-plus-only backends are skipped, the
    timed ones agree with the log-partition oracle within tolerance."""
    verify_against_oracle(n=4, m=6, seed=2, semiring="logsumexp")
    results = run_bench(6, 8, repeats=1, seed=3, semiring="log-sum-exp")
    assert results["semiring"] == "logsumexp"  # canonicalized
    assert results["backends"], "no logsumexp-capable backends were timed"
    assert "fourrussians" not in results["backends"]  # max-plus-only, skipped
    assert "semiring=logsumexp" in render(results)
    err = capsys.readouterr().err
    if "fourrussians" in BACKENDS:
        assert "skipping 'fourrussians'" in err


def test_backends_benchmark_single_backend_threads(tmp_path):
    """--backend/--threads path: one backend plus the batched denominator."""
    results = run_bench(8, 6, repeats=1, seed=4, backend="numpy", threads=2)
    assert set(results["backends"]) == {"numpy", "numpy-batched"}
    assert results["threads"] == 2
    assert "numpy" in results["speedup_vs_numpy_batched"]


if __name__ == "__main__":
    sys.exit(main())
