"""Run one workload of the repo benchmark and print its result as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-16xM --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (``setup_s``,
``pairs_per_s``, ``latency_p50_s``, ``peak_rss_mib``); ``--trace 1``
runs the same workload with the per-layer wrappers of ``layers.py``
installed and prints the per-layer metrics instead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

One run is one Python process that starts no child process.  BLAS and
OpenMP are pinned to one thread, and the autotune and generated-kernel
caches point at a fresh directory under ``.perfbench-tmp/`` in the
checkout, removed at exit, so a tuned winner left in ``~/.cache/bpmax``
cannot change what a run measures.
"""

from __future__ import annotations

import os
import sys
import time

_SCRIPT_START = time.perf_counter()

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("paper-16xM", "gateway-mixed", "bppart-scan")


def _process_start_offset() -> float:
    """Seconds between process start and the first line of this script.

    Linux records the start in clock ticks since boot; anywhere that
    cannot be read, the script's own start is taken as the process start.
    """
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        now = time.clock_gettime(time.CLOCK_BOOTTIME)
        offset = now - started - (time.perf_counter() - _SCRIPT_START)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return offset if 0.0 <= offset < 60.0 else 0.0


def since_start() -> float:
    """Seconds since this process started."""
    return _START_OFFSET + time.perf_counter() - _SCRIPT_START


_START_OFFSET = _process_start_offset()


def open_sockets() -> set[str]:
    """File descriptors of this process that are sockets."""
    fd_dir = Path("/proc/self/fd")
    found = set()
    if fd_dir.is_dir():
        for fd in fd_dir.iterdir():
            try:
                if os.readlink(fd).startswith("socket:"):
                    found.add(fd.name)
            except OSError:
                continue
    return found


def leftovers(inherited_sockets: set[str]) -> list[str]:
    """Threads, child processes and sockets the run left alive (empty: none)."""
    found = []
    for th in threading.enumerate():
        if th is not threading.main_thread():
            th.join(timeout=5.0)
            if th.is_alive():
                found.append(f"thread {th.name!r} (daemon={th.daemon}) still alive")
    task_dir = Path("/proc/self/task")
    if task_dir.is_dir():
        for task in task_dir.iterdir():
            try:
                children = (task / "children").read_text().split()
            except OSError:
                continue
            found += [f"child process {pid} still alive" for pid in children]
    for fd in sorted(open_sockets() - inherited_sockets):
        found.append(f"socket fd {fd} still open")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    inherited_sockets = open_sockets()

    scratch_root = ROOT / ".perfbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    os.environ["BPMAX_TUNE_CACHE"] = str(scratch / "autotune.json")
    os.environ["BPMAX_CODEGEN_CACHE"] = str(scratch / "codegen")
    try:
        import repro

        if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
            print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
            return 2
        from workloads import WORKLOADS

        result = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), since_start
        )
        calibration = None
        if args.trace:
            from repro.semiring.microbench import StreamBenchmark

            from layers import wrapper_cost_s

            # Fig. 12 stream kernel on an L1-resident chunk: separates
            # machine speed from code speed across commits
            calibration = statistics.median(
                StreamBenchmark(chunk_size=2048, iterations=2000, seed=i).run().gflops
                for i in range(5)
            )
            overhead_s = wrapper_cost_s() * result.wrapped_calls
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    for failure in result.failures:
        print(f"perfbench: operation failed: {failure}", file=sys.stderr)
    errors = result.errors + leftovers(inherited_sockets)
    for err in errors:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    if result.latencies:
        latency_p50 = statistics.median(result.latencies)
    else:
        latency_p50 = 0.0
    pairs_per_s = result.pairs / result.elapsed_s if result.elapsed_s > 0 else 0.0
    if args.trace:
        metrics = dict(result.layers)
        metrics["trace.overhead_share"] = overhead_s / result.elapsed_s
        metrics["trace.pairs_per_s"] = pairs_per_s
        metrics["calib.stream_gflops"] = calibration
    else:
        metrics = {
            "setup_s": result.setup_s,
            "pairs_per_s": pairs_per_s,
            "latency_p50_s": latency_p50,
            "peak_rss_mib": result.peak_rss_mib,
        }
    units = metric_units()
    out = {
        "correct": not errors,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(out))
    return 0


def metric_units() -> dict[str, str]:
    """Metric name -> unit, as declared in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
