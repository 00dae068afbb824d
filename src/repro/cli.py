"""Command-line interface: ``bpmax`` (or ``python -m repro``).

Subcommands
-----------
``run SEQ1 SEQ2``      score (and optionally fold) two strands
``fold SEQ``           single-strand weighted Nussinov folding
``scan QUERY TARGET``  slide QUERY along TARGET, rank windows by gain
                       (sweeps run through the serving layer, so
                       identical windows are served from cache)
``serve FILE``         serve a JSONL request stream through the batch layer
                       (``--http`` serves over sockets instead)
``submit SEQ1 SEQ2``   emit one JSONL request line for ``serve``
                       (``--url`` POSTs it to a running gateway)
``golden``             verify (or ``--regen``) the golden-corpus manifest
``experiment ID``      regenerate one paper table/figure (or ``all``)
``report FILE``        render a saved metrics report (``--metrics-out``)
``list``               list available experiments and engine variants
``backends``           list kernel backends available on this machine
``tune``               autotune the tiled backend's window-block width

Serving: ``bpmax serve requests.jsonl`` reads one JSON request object
per line (``bpmax submit`` writes them), batches same-shape problems,
deduplicates identical ones through the content-addressed result cache
and writes one JSON result object per line; ``--stats`` appends the
scheduler/cache summary to stderr, and ``--strict`` exits 2 when any
request failed.  ``--shards N`` routes through the multi-process tier
instead: N workers with consistent-hash cache sharding, admission
control (``--queue-limit``, per-request ``priority`` classes) and
self-healing respawn/re-route on worker death.

HTTP serving: ``bpmax serve --http --port 8642 --shards 2`` puts the
stdlib gateway (:mod:`repro.serve.http`) in front of the chosen tier —
``POST /v1/fold``, streaming ``POST /v1/batch``, ``GET /healthz``,
``GET /metrics`` — with admission verdicts mapped to 429/503 +
``Retry-After`` and graceful drain on SIGTERM.  ``bpmax submit SEQ1
SEQ2 --url http://HOST:PORT`` round-trips one request through a running
gateway with the retry-aware client.

Observability: ``run --metrics`` prints the observed-vs-predicted
operation counts (and saves them with ``--metrics-out report.json``);
``run --trace trace.json`` records spans of every layer to a JSON file.

Semirings: ``run``, ``scan`` and ``submit`` accept ``--semiring`` to
swap the reduction algebra — ``max-plus`` (BPMax scores, the default)
or ``logsumexp`` (BPPart-style log-partition values); ``bpmax
backends`` lists which backends support which algebra.

Error handling: every structured failure
(:class:`~repro.robust.errors.BpmaxError` — bad sequences, stale
checkpoints, engine crashes, exceeded deadlines) is caught at the
``main()`` boundary and reported as a one-line message with exit
status 2; pass ``--debug`` (before the subcommand) for the full
traceback.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack

from .bench.figures import EXPERIMENTS, run_experiment
from .core.api import bpmax, fold
from .core.engine import DEFAULT_VARIANT, ENGINES
from .robust.errors import BpmaxError
from .serve.request import PRIORITY_CLASSES

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bpmax",
        description="BPMax RNA-RNA interaction (reproduction of Mondal & "
        "Rajopadhye 2021)",
    )
    p.add_argument(
        "--debug",
        action="store_true",
        help="show full tracebacks instead of one-line error messages",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="score two interacting strands")
    run.add_argument("seq1", help="first (outer, ideally shorter) strand")
    run.add_argument("seq2", nargs="?", default=None, help="second strand")
    run.add_argument(
        "--fasta",
        action="store_true",
        help="treat seq1 as a FASTA file containing (at least) two records",
    )
    run.add_argument(
        "--variant", default=DEFAULT_VARIANT, choices=ENGINES, help="program version"
    )
    run.add_argument(
        "--backend",
        metavar="NAME",
        help="kernel backend for the R0 hot path, e.g. 'tiled' for the "
        "tile-graph wavefront executor (see 'bpmax backends')",
    )
    run.add_argument(
        "--threads",
        type=int,
        default=1,
        metavar="N",
        help="row-partition the R0 products over a real thread pool",
    )
    run.add_argument(
        "--semiring",
        default="max-plus",
        metavar="NAME",
        help="reduction algebra: 'max-plus' (BPMax score, default) or "
        "'logsumexp' (BPPart-style log-partition value)",
    )
    run.add_argument(
        "--structure", action="store_true", help="also report one optimal structure"
    )
    run.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="periodically snapshot the partial F table to PATH (.npz)",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="restore a previous --checkpoint snapshot before running",
    )
    run.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="abort (exit 2) when the run exceeds this compute budget",
    )
    run.add_argument(
        "--fallback",
        metavar="VARIANTS",
        help="comma-separated variants to degrade to if the engine crashes "
        "(e.g. 'hybrid,baseline')",
    )
    run.add_argument(
        "--metrics",
        action="store_true",
        help="collect op/traffic counters and print the run report",
    )
    run.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="save the run report as JSON (implies --metrics)",
    )
    run.add_argument(
        "--trace",
        metavar="PATH",
        help="record spans of every layer and save them as JSON",
    )

    rep = sub.add_parser("report", help="render a saved metrics report")
    rep.add_argument("file", help="JSON file written by 'run --metrics-out'")

    f = sub.add_parser("fold", help="fold one strand (weighted Nussinov)")
    f.add_argument("seq")

    sc = sub.add_parser("scan", help="windowed interaction scan")
    sc.add_argument("query", help="short strand (e.g. an sRNA)")
    sc.add_argument("target", help="long strand to scan")
    sc.add_argument("--window", type=int, default=24)
    sc.add_argument("--stride", type=int, default=6)
    sc.add_argument("--top", type=int, default=5)
    sc.add_argument(
        "--variant", default=DEFAULT_VARIANT, choices=ENGINES, help="program version"
    )
    sc.add_argument(
        "--backend",
        metavar="NAME",
        help="kernel backend for the R0 hot path (see 'bpmax backends')",
    )
    sc.add_argument(
        "--semiring",
        default="max-plus",
        metavar="NAME",
        help="reduction algebra for the sweep: 'max-plus' or 'logsumexp'",
    )
    sc.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        metavar="N",
        help="per-window result-cache capacity (0 disables caching)",
    )

    srv = sub.add_parser(
        "serve", help="serve a JSONL request stream through the batch layer"
    )
    srv.add_argument(
        "input",
        nargs="?",
        default=None,
        help="JSONL request file (one JSON object per line), or '-' for "
        "stdin; omit with --http",
    )
    srv.add_argument(
        "--http",
        action="store_true",
        help="serve over HTTP instead of a request file: POST /v1/fold, "
        "streaming POST /v1/batch, GET /healthz, GET /metrics; drains "
        "gracefully on SIGTERM",
    )
    srv.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="ADDR",
        help="HTTP mode: address to bind (default 127.0.0.1)",
    )
    srv.add_argument(
        "--port",
        type=int,
        default=8642,
        metavar="N",
        help="HTTP mode: port to bind (0 picks an ephemeral port; "
        "default 8642)",
    )
    srv.add_argument(
        "--max-inflight",
        type=int,
        default=32,
        metavar="N",
        help="HTTP mode: per-connection bound on /v1/batch requests in "
        "flight (backpressure window)",
    )
    srv.add_argument(
        "--out",
        metavar="PATH",
        help="write JSONL results to PATH instead of stdout",
    )
    srv.add_argument(
        "--max-batch",
        type=int,
        default=16,
        metavar="N",
        help="size watermark: dispatch a shape group at N requests",
    )
    srv.add_argument(
        "--max-delay",
        type=float,
        default=0.01,
        metavar="SECONDS",
        help="latency watermark: dispatch a group once its oldest request "
        "queued this long",
    )
    srv.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrent batch executions",
    )
    srv.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        metavar="N",
        help="result-cache capacity in entries (0 disables caching)",
    )
    srv.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="serve through N worker processes (sharded tier with "
        "admission control and self-healing); 0 uses the in-process "
        "batch tier",
    )
    srv.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="sharded tier: per-shard bound on queued requests; beyond "
        "it new arrivals are shed with a structured error",
    )
    srv.add_argument(
        "--priority",
        default=None,
        choices=PRIORITY_CLASSES,
        help="sharded tier: default admission class for requests that "
        "do not carry one (default: batch)",
    )
    srv.add_argument(
        "--stats",
        action="store_true",
        help="print the scheduler/cache summary to stderr when done",
    )
    srv.add_argument(
        "--strict",
        action="store_true",
        help="exit 2 if any request came back as an error result",
    )

    sm = sub.add_parser("submit", help="emit one JSONL request line for 'serve'")
    sm.add_argument("seq1")
    sm.add_argument("seq2")
    sm.add_argument("--id", default="", help="request id echoed in the result")
    sm.add_argument(
        "--variant", default=DEFAULT_VARIANT, choices=ENGINES, help="program version"
    )
    sm.add_argument("--backend", metavar="NAME", help="kernel backend")
    sm.add_argument(
        "--semiring",
        default="max-plus",
        metavar="NAME",
        help="reduction algebra: 'max-plus' (default) or 'logsumexp'",
    )
    sm.add_argument(
        "--structure", action="store_true", help="also request one optimal structure"
    )
    sm.add_argument(
        "--deadline", type=float, metavar="SECONDS", help="per-request compute budget"
    )
    sm.add_argument(
        "--retries", type=int, default=0, metavar="N", help="transient retries"
    )
    sm.add_argument(
        "--fallback",
        metavar="VARIANTS",
        help="comma-separated degradation chain (e.g. 'hybrid,baseline')",
    )
    sm.add_argument(
        "--priority",
        default=None,
        choices=PRIORITY_CLASSES,
        help="admission class for the sharded tier (default: batch)",
    )
    sm.add_argument(
        "--out",
        metavar="PATH",
        help="append the request line to PATH instead of stdout",
    )
    sm.add_argument(
        "--url",
        metavar="URL",
        help="POST the request to a running gateway (e.g. "
        "http://127.0.0.1:8642) instead of printing the line; retries "
        "429/503 honoring Retry-After and prints the result object",
    )

    g = sub.add_parser(
        "golden", help="verify the golden-corpus manifest (or --regen it)"
    )
    g.add_argument(
        "--manifest",
        metavar="PATH",
        help="manifest file (default: tests/golden/manifest.json of the checkout)",
    )
    g.add_argument(
        "--variant",
        default=None,
        choices=ENGINES,
        help="engine variant to verify with (default: the manifest generator)",
    )
    g.add_argument("--backend", metavar="NAME", help="kernel backend to verify with")
    g.add_argument(
        "--semiring",
        default=None,
        metavar="NAME",
        help="verify only this pinned semiring (default: all the "
        "configuration can run)",
    )
    g.add_argument(
        "--regen",
        action="store_true",
        help="recompute and rewrite the pinned scores (refused under CI)",
    )

    e = sub.add_parser("experiment", help="regenerate a paper table/figure")
    e.add_argument("id", help=f"one of {sorted(EXPERIMENTS)} or 'all'")
    e.add_argument("--csv", metavar="DIR", help="also write <DIR>/<id>.csv")

    tn = sub.add_parser(
        "tune", help="autotune a backend knob (tiled window-block width "
        "or Four-Russians block width)"
    )
    tn.add_argument(
        "--backend",
        choices=("tiled", "fourrussians"),
        default="tiled",
        help="which backend to tune: 'tiled' sweeps the window-block width, "
        "'fourrussians' jointly sweeps (block width q, sparsify on/off)",
    )
    tn.add_argument("--n", type=int, default=40, help="outer strand length")
    tn.add_argument("--m", type=int, default=40, help="inner strand length")
    tn.add_argument(
        "--threads", type=int, default=1, metavar="N", help="thread count to tune for"
    )
    tn.add_argument(
        "--candidates",
        metavar="W1,W2,...",
        help="comma-separated candidate values: window-block widths for "
        "--backend tiled, block widths q for --backend fourrussians "
        "(default: backend-specific heuristic ladder)",
    )
    tn.add_argument(
        "--repeats", type=int, default=2, metavar="N", help="timing repeats per width"
    )
    tn.add_argument(
        "--cache",
        metavar="PATH",
        help="autotune cache file (default: $BPMAX_TUNE_CACHE or "
        "~/.cache/bpmax/autotune.json)",
    )
    tn.add_argument(
        "--no-persist",
        action="store_true",
        help="benchmark only; do not write the winner to the cache file",
    )

    sub.add_parser("list", help="list experiments and engine variants")
    sub.add_parser("backends", help="list kernel backends and their availability")
    return p


def _check_backend(name: str | None) -> None:
    """One-line error for unknown backend names, before any engine work."""
    if name is None:
        return
    from .kernels import BACKENDS

    if name not in BACKENDS:
        raise BpmaxError(
            f"unknown backend {name!r}; available: {', '.join(sorted(BACKENDS))} "
            "(see 'bpmax backends')"
        )


def _check_semiring(name: str) -> str:
    """Resolve a --semiring value to its canonical engine name."""
    from .semiring import ENGINE_SEMIRINGS, get_semiring

    try:
        sr = get_semiring(name)
    except ValueError as exc:
        raise BpmaxError(str(exc)) from None
    if sr.name not in ENGINE_SEMIRINGS:
        raise BpmaxError(
            f"semiring {sr.name!r} has no engine support; "
            f"use one of {ENGINE_SEMIRINGS}"
        )
    return sr.name


def _cmd_backends() -> int:
    from .kernels import BACKENDS, DEFAULT_BACKEND, get_backend

    for name in sorted(BACKENDS):
        b = BACKENDS[name]
        if b.available:
            status = "available"
        else:
            status = f"unavailable ({b.note}); falls back to {get_backend(name).name}"
        default = "  [default]" if name == DEFAULT_BACKEND else ""
        caps = ",".join(f for f in b.CAPABILITY_FLAGS if b.capabilities.get(f))
        print(f"{name:15s} {status}{default}")
        print(f"{'':15s}   {b.description}")
        print(f"{'':15s}   capabilities: {caps or '-'}")
        print(f"{'':15s}   semirings: {','.join(b.semirings)}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from .kernels import BACKENDS
    from .kernels.autotune import cache_key, heuristic_block, tune

    if args.n < 1 or args.m < 1:
        raise BpmaxError(f"--n/--m must be >= 1, got n={args.n} m={args.m}")
    if args.threads < 1:
        raise BpmaxError(f"--threads must be >= 1, got {args.threads}")
    if args.repeats < 1:
        raise BpmaxError(f"--repeats must be >= 1, got {args.repeats}")
    backend = getattr(args, "backend", "tiled")
    if not BACKENDS[backend].available:
        raise BpmaxError(
            f"{backend} backend unavailable on this machine "
            f"({BACKENDS[backend].note})"
        )
    candidates = None
    if args.candidates:
        try:
            candidates = sorted(
                {int(w) for w in args.candidates.split(",") if w.strip()}
            )
        except ValueError as exc:
            raise BpmaxError(
                f"--candidates must be comma-separated integers: {exc}"
            ) from exc
        lo = 2 if backend == "fourrussians" else 1
        hi = args.m if backend == "fourrussians" else args.n
        if not candidates or any(w < lo or w > hi for w in candidates):
            raise BpmaxError(
                f"--candidates must be values in [{lo}, {hi}], "
                f"got {args.candidates!r}"
            )
    if backend == "fourrussians":
        return _tune_fourrussians(args, candidates)
    result = tune(
        args.n,
        args.m,
        threads=args.threads,
        candidates=candidates,
        repeats=args.repeats,
        path=args.cache,
        persist=not args.no_persist,
    )
    print(f"key     : {result.key}")
    print("width   wall_s")
    for wb in sorted(result.candidates):
        mark = "  <-- best" if wb == result.best_wb else ""
        print(f"{wb:5d}   {result.candidates[wb]:.4f}{mark}")
    print(f"best    : wb={result.best_wb} ({result.best_wall_s:.4f} s; "
          f"heuristic would pick {heuristic_block(args.n, args.m, args.threads)})")
    if result.cache_file:
        print(f"cache   : {result.cache_file} [{cache_key(args.n, args.m, args.threads)}]")
    else:
        print("cache   : not persisted (--no-persist)")
    return 0


def _tune_fourrussians(args: argparse.Namespace, candidates: list[int] | None) -> int:
    from .kernels.autotune import tune_fourrussians
    from .kernels.fourrussians_tables import heuristic_q

    try:
        result = tune_fourrussians(
            args.n,
            args.m,
            threads=args.threads,
            q_candidates=candidates,
            repeats=args.repeats,
            path=args.cache,
            persist=not args.no_persist,
        )
    except ValueError as exc:
        raise BpmaxError(str(exc)) from exc
    print(f"key     : {result.key}")
    print("q  sparsify   wall_s")
    for label in sorted(result.candidates):
        q, sp = label.split("|")
        q_val, sp_val = int(q[1:]), bool(int(sp[2:]))
        mark = (
            "  <-- best"
            if q_val == result.best_wb and sp_val == result.best_sparsify
            else ""
        )
        print(
            f"{q_val:2d} {'on ' if sp_val else 'off':>8s}  "
            f"{result.candidates[label]:.4f}{mark}"
        )
    d = result.key.rsplit("d", 1)[-1]
    print(
        f"best    : q={result.best_wb} sparsify="
        f"{'on' if result.best_sparsify else 'off'} "
        f"({result.best_wall_s:.4f} s; heuristic would pick "
        f"q={heuristic_q(args.m, int(d))})"
    )
    if result.cache_file:
        print(f"cache   : {result.cache_file} [{result.key}]")
    else:
        print("cache   : not persisted (--no-persist)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    seq1, seq2 = args.seq1, args.seq2
    if args.fasta:
        from .rna.sequence import read_fasta

        records = read_fasta(seq1)
        if len(records) < 2:
            raise BpmaxError(
                f"FASTA file {seq1!r} must contain at least two records, "
                f"found {len(records)}"
            )
        seq1, seq2 = records[0], records[1]
    elif seq2 is None:
        raise BpmaxError("run needs two sequences (or --fasta FILE)")
    if args.deadline is not None and args.deadline <= 0:
        raise BpmaxError(f"--deadline must be positive, got {args.deadline:g}")
    fallback: tuple[str, ...] = ()
    if args.fallback:
        fallback = tuple(v.strip() for v in args.fallback.split(",") if v.strip())
        for v in fallback:
            if v not in ENGINES:
                raise BpmaxError(
                    f"unknown fallback variant {v!r}; use one of {ENGINES}"
                )
    _check_backend(args.backend)
    semiring = _check_semiring(args.semiring)
    if semiring != "max-plus":
        if args.variant == "baseline":
            raise BpmaxError(
                "the baseline engine is max-plus only; pick a vectorized "
                f"variant for --semiring {semiring}"
            )
        if args.structure:
            raise BpmaxError(
                "--structure follows max-plus argmax decisions; it is "
                f"undefined for --semiring {semiring}"
            )
    if args.threads < 1:
        raise BpmaxError(f"--threads must be >= 1, got {args.threads}")
    engine_kwargs: dict = {}
    if args.variant != "baseline":
        if args.backend is not None:
            engine_kwargs["backend"] = args.backend
        if args.threads > 1:
            engine_kwargs["threads"] = args.threads
    elif args.backend is not None or args.threads > 1:
        raise BpmaxError("--backend/--threads do not apply to the baseline engine")
    want_metrics = args.metrics or args.metrics_out is not None
    tracer = None
    with ExitStack() as stack:
        if args.trace:
            from .observe import tracing

            tracer = stack.enter_context(tracing())
        result = bpmax(
            seq1,
            seq2,
            variant=args.variant,
            semiring=semiring,
            structure=args.structure,
            fallback=fallback,
            checkpoint=args.checkpoint,
            resume=args.resume,
            deadline=args.deadline,
            metrics=want_metrics,
            **engine_kwargs,
        )
    if tracer is not None:
        tracer.save(args.trace)
    print(f"score   : {result.score:g}")
    print(f"variant : {result.variant}")
    if result.degraded_from:
        print(f"degraded: {' -> '.join((*result.degraded_from, result.variant))}")
    if result.resumed_windows:
        print(f"resumed : {result.resumed_windows} windows from checkpoint")
    if result.structure is not None:
        db1, db2 = result.structure.dotbracket()
        print(f"strand1 : {str(seq1).upper().replace('T', 'U')}")
        print(f"          {db1}")
        print(f"strand2 : {str(seq2).upper().replace('T', 'U')}")
        print(f"          {db2}")
        print(f"inter   : {result.structure.inter}")
    if result.report is not None:
        if args.metrics_out:
            result.report.save(args.metrics_out)
            print(f"report  : saved to {args.metrics_out}")
        print()
        print(result.report.render())
    if tracer is not None:
        print(f"trace   : {len(tracer.records())} records saved to {args.trace}")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    from .core.windowed import scan_windows_served

    _check_backend(args.backend)
    semiring = _check_semiring(args.semiring)
    if args.cache_size < 0:
        raise BpmaxError(f"--cache-size must be >= 0, got {args.cache_size}")
    result = scan_windows_served(
        args.query,
        args.target,
        window=args.window,
        stride=args.stride,
        variant=args.variant,
        semiring=semiring,
        backend=args.backend,
        cache=args.cache_size,
    )
    cached = sum(1 for h in result.hits if h.cached)
    print(f"{len(result.hits)} windows of length {result.window}, "
          f"stride {result.stride} ({cached} served from cache)")
    print("start  score  gain")
    for hit in result.top(args.top):
        print(f"{hit.start:5d}  {hit.score:5.1f}  {hit.gain:5.1f}")
    best = result.best
    print(f"best window: start {best.start} (gain {best.gain:g})")
    return 0


def _make_scheduler(args: argparse.Namespace):
    """The serving tier ``bpmax serve`` asked for: ``--shards N`` worker
    processes, or the in-process batch tier for ``--shards 0``."""
    if args.shards > 0:
        from .serve.shard import ShardScheduler

        return ShardScheduler(
            shards=args.shards,
            queue_limit=args.queue_limit,
            cache_size=args.cache_size,
            default_priority=args.priority or "batch",
        )
    from .serve.scheduler import BatchScheduler

    return BatchScheduler(
        max_batch=args.max_batch,
        max_delay_s=args.max_delay,
        workers=args.workers,
        cache=args.cache_size,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.request import parse_request_line

    if args.max_batch < 1:
        raise BpmaxError(f"--max-batch must be >= 1, got {args.max_batch}")
    if args.max_delay < 0:
        raise BpmaxError(f"--max-delay must be >= 0, got {args.max_delay:g}")
    if args.workers < 1:
        raise BpmaxError(f"--workers must be >= 1, got {args.workers}")
    if args.cache_size < 0:
        raise BpmaxError(f"--cache-size must be >= 0, got {args.cache_size}")
    if args.shards < 0:
        raise BpmaxError(f"--shards must be >= 0, got {args.shards}")
    if args.queue_limit < 1:
        raise BpmaxError(f"--queue-limit must be >= 1, got {args.queue_limit}")
    if args.http:
        if args.input is not None:
            raise BpmaxError(
                "--http serves over sockets; drop the request-file argument"
            )
        return _cmd_serve_http(args)
    if args.input is None:
        raise BpmaxError("serve needs a JSONL request file (or --http)")

    if args.input == "-":
        lines = sys.stdin.readlines()
    else:
        try:
            with open(args.input) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise BpmaxError(f"cannot read request file {args.input!r}: {exc}") from exc
    requests = []
    for lineno, line in enumerate(lines, start=1):
        req = parse_request_line(line, lineno)
        if req is not None:
            requests.append(req)
    if not requests:
        raise BpmaxError(f"no requests found in {args.input!r}")

    with _make_scheduler(args) as sched:
        results = sched.serve_all(requests)
        stats_dict = sched.stats
    if not isinstance(stats_dict, dict):
        stats_dict = stats_dict.as_dict()
    out_lines = [r.to_json() for r in results]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(out_lines) + "\n")
    else:
        for line in out_lines:
            print(line)
    errors = sum(1 for r in results if not r.ok)
    if args.stats:
        import json as _json

        print(f"serve: {_json.dumps(stats_dict)}", file=sys.stderr)
    if errors and args.strict:
        raise BpmaxError(f"{errors} of {len(results)} requests failed (--strict)")
    return 0


def _cmd_serve_http(args: argparse.Namespace) -> int:
    import json as _json
    import signal
    import threading

    from .serve.http import HttpGateway

    if not 0 <= args.port <= 65535:
        raise BpmaxError(f"--port must be in [0, 65535], got {args.port}")
    if args.max_inflight < 1:
        raise BpmaxError(f"--max-inflight must be >= 1, got {args.max_inflight}")

    sched = _make_scheduler(args)
    if args.shards > 0:
        tier = f"{args.shards} shard(s)"
    else:
        tier = f"in-process batch tier ({args.workers} worker(s))"
    try:
        gateway = HttpGateway(
            sched,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            own_scheduler=True,
        ).start()
    except OSError as exc:
        sched.close()
        raise BpmaxError(
            f"cannot bind {args.host}:{args.port}: {exc}"
        ) from exc
    # the subprocess e2e test parses this line for the bound port, so
    # it must be the first stdout line and flushed before blocking
    print(f"bpmax gateway listening on {gateway.url()} ({tier})", flush=True)

    stop = threading.Event()
    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        previous[sig] = signal.signal(sig, lambda *_: stop.set())
    try:
        stop.wait()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print("bpmax gateway draining", file=sys.stderr, flush=True)
    metrics = gateway.metrics()
    gateway.close()
    if args.stats:
        print(f"serve: {_json.dumps(metrics)}", file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json as _json

    _check_backend(args.backend)
    semiring = _check_semiring(args.semiring)
    if args.retries < 0:
        raise BpmaxError(f"--retries must be >= 0, got {args.retries}")
    if args.deadline is not None and args.deadline <= 0:
        raise BpmaxError(f"--deadline must be positive, got {args.deadline:g}")
    request: dict = {"seq1": args.seq1, "seq2": args.seq2}
    if args.id:
        request["id"] = args.id
    if args.variant != DEFAULT_VARIANT:
        request["variant"] = args.variant
    if args.backend is not None:
        request["backend"] = args.backend
    if semiring != "max-plus":
        request["semiring"] = semiring
    if args.structure:
        request["structure"] = True
    if args.deadline is not None:
        request["deadline"] = args.deadline
    if args.retries:
        request["retries"] = args.retries
    if args.fallback:
        chain = [v.strip() for v in args.fallback.split(",") if v.strip()]
        for v in chain:
            if v not in ENGINES:
                raise BpmaxError(
                    f"unknown fallback variant {v!r}; use one of {ENGINES}"
                )
        request["fallback"] = chain
    if args.priority:
        request["priority"] = args.priority
    line = _json.dumps(request, separators=(",", ":"))
    if args.url:
        if args.out:
            raise BpmaxError("--url submits over HTTP; drop --out")
        from .serve.client import GatewayClient

        result = GatewayClient(args.url).fold(request)
        print(_json.dumps(result, separators=(",", ":")))
        return 0
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(line + "\n")
    else:
        print(line)
    return 0


def _cmd_golden(args: argparse.Namespace) -> int:
    from . import golden

    _check_backend(args.backend)
    semirings = None
    if args.semiring is not None:
        semirings = (_check_semiring(args.semiring),)
    if args.regen:
        if args.variant is not None or args.backend is not None:
            raise BpmaxError(
                "--regen always pins with the generator variant; "
                "drop --variant/--backend"
            )
        path = golden.regen_manifest(args.manifest)
        print(f"golden : regenerated {len(golden.GOLDEN_CASES)} case(s) and "
              f"{len(golden.ERROR_CASES)} error case(s)")
        print(f"manifest: {path}")
        return 0
    variant = args.variant or golden.GENERATOR_VARIANT
    problems = golden.verify_manifest(args.manifest, variant=variant,
                                      backend=args.backend, semirings=semirings)
    label = variant + (f"+{args.backend}" if args.backend else "")
    if semirings:
        label += f" [{semirings[0]}]"
    if problems:
        for p in problems:
            print(f"MISMATCH: {p}", file=sys.stderr)
        raise BpmaxError(
            f"golden corpus: {len(problems)} mismatch(es) with {label} "
            "(regen deliberately with 'bpmax golden --regen' if intended)"
        )
    print(f"golden : {len(golden.GOLDEN_CASES)} case(s) and "
          f"{len(golden.ERROR_CASES)} error case(s) conform ({label})")
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "golden":
        return _cmd_golden(args)
    if args.command == "fold":
        score, db = fold(args.seq)
        print(f"score : {score:g}")
        print(args.seq.upper().replace("T", "U"))
        print(db)
        return 0
    if args.command == "scan":
        return _cmd_scan(args)
    if args.command == "report":
        from .observe.report import RunReport

        try:
            report = RunReport.load(args.file)
        except (OSError, ValueError, KeyError) as exc:
            raise BpmaxError(f"cannot load report {args.file!r}: {exc}") from exc
        print(report.render())
        return 0
    if args.command == "experiment":
        names = sorted(EXPERIMENTS) if args.id == "all" else [args.id]
        for name in names:
            result = run_experiment(name)
            print(result.render())
            print()
            if args.csv:
                from pathlib import Path

                out = Path(args.csv)
                out.mkdir(parents=True, exist_ok=True)
                result.save_csv(out / f"{name}.csv")
        return 0
    if args.command == "list":
        print("experiments:", ", ".join(sorted(EXPERIMENTS)))
        print("engine variants:", ", ".join(ENGINES))
        return 0
    if args.command == "backends":
        return _cmd_backends()
    if args.command == "tune":
        return _cmd_tune(args)
    return 1  # pragma: no cover


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except BpmaxError as exc:
        if args.debug:
            raise
        print(f"bpmax: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
