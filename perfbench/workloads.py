"""The benchmark's three workloads, each driven through public default paths.

Every workload function takes ``(seed, seconds, trace, since_start)``
and returns a :class:`RunResult`.  Inputs come only from the benchmark's
own seeded generator (``random.Random`` keyed by workload and seed); the
program receives the generated sequences and nothing else.

* ``paper-16xM`` — one caller, closed loop, default ``bpmax(q, t)`` on
  16 x 64 pairs (the paper's short-by-long shape, scaled down).
* ``gateway-mixed`` — two client threads, each a closed loop over its
  own ``GatewayClient``, ``POST /v1/fold`` to an ``HttpGateway`` on
  127.0.0.1 in front of a default ``BatchScheduler``; 6-14 nt pairs in
  mixed shapes, one request in four an exact repeat.
* ``bppart-scan`` — one caller, closed loop,
  ``scan_windows_served(q, t, semiring="logsumexp")`` on a 12 nt query
  and a 150 nt target carrying a repeated 36 nt segment on the stride
  grid.

A closed loop starts its next operation only after the previous one
returned, and starts none once ``seconds`` have passed; operations in
flight at that moment run to the end and count.
"""

from __future__ import annotations

import random
import resource
import threading
from dataclasses import dataclass, field

import checks
from layers import LayerTrace, clock

BASES = "ACGU"

#: paper-16xM shape: one (N, M) for every pair, so the median latency is
#: the median of one shape.  M = 64 rather than 96: fresh processes at
#: 16 x 96 differed far more in speed from one to the next on a shared
#: host, and 64 gives twice the calls per run with R0 still ~2/3 of the fill
PAPER_N, PAPER_M = 16, 64
#: gateway-mixed: strand lengths, round size and repeat spacing
GATEWAY_MIN, GATEWAY_MAX = 6, 14
GATEWAY_SHAPE_COPIES = 3
GATEWAY_REPEAT_EVERY = 4
GATEWAY_ROUND = (GATEWAY_MAX - GATEWAY_MIN + 1) ** 2 * GATEWAY_SHAPE_COPIES * 4 // 3
GATEWAY_CLIENTS = 2
#: bppart-scan: query, target, the CLI's default window/stride, and the
#: repeated segment (a multiple of the stride, longer than a window)
SCAN_QUERY = 12
SCAN_WINDOW, SCAN_STRIDE = 24, 6
SCAN_TARGET = SCAN_WINDOW + 21 * SCAN_STRIDE  # 22 windows
SCAN_REPEAT = 36  # 3 windows lie inside each copy
SCAN_REPEAT_AT = (18, 96)  # both on the stride grid, non-overlapping
#: tiny pairs for the brute-force checks (up to 7 x 7)
TINY_SHAPES = ((4, 5), (5, 6), (6, 6), (7, 5))
PARTITION_SHAPES = ((3, 4), (4, 5), (5, 5))


@dataclass
class RunResult:
    """What one run measured and what its checks found."""

    setup_s: float
    attempted: int = 0
    failed: int = 0
    pairs: int = 0
    elapsed_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    peak_rss_mib: float = 0.0
    errors: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None
    wrapped_calls: int = 0


def rand_seq(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(BASES) for _ in range(n))


def peak_rss_mib() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _traced(trace: bool):
    return LayerTrace() if trace else None


def _finish_trace(result: RunResult, tracer: LayerTrace | None) -> None:
    if tracer is None:
        return
    result.layers = tracer.metrics()
    result.wrapped_calls = tracer.wrapped_calls
    result.errors += tracer.count_errors()


def tiny_pair_errors(rng: random.Random) -> list[str]:
    """Default-path scores of tiny pairs equal the best enumerated weight."""
    import repro
    from repro.core.enumerate import enumerate_structures
    from repro.core.reference import prepare_inputs

    weights = repro.DEFAULT_MODEL.pair_weights
    errors = []
    for n, m in TINY_SHAPES:
        q, t = rand_seq(rng, n), rand_seq(rng, m)
        score = repro.bpmax(q, t).score
        space = enumerate_structures(prepare_inputs(q, t))
        best = max(checks.structure_weights(q, t, space, weights))
        if score != best:
            errors.append(f"tiny pair {q}/{t}: default path {score} != enumerated best {best}")
    return errors


# -- paper-16xM -----------------------------------------------------------------


def paper_16xm(seed: int, seconds: float, trace: bool, since_start) -> RunResult:
    import repro

    rng = random.Random(f"paper-16xM/{seed}")
    pair = lambda: (rand_seq(rng, PAPER_N), rand_seq(rng, PAPER_M))  # noqa: E731
    warm = pair()
    scored = [(warm, repro.bpmax(*warm).score)]
    result = RunResult(setup_s=since_start())

    tracer = _traced(trace)
    if tracer:
        tracer.__enter__()
    begin = clock()
    deadline = begin + seconds
    end = begin
    while end < deadline:
        q, t = pair()
        t0 = clock()
        result.attempted += 1
        try:
            score = repro.bpmax(q, t).score
        except Exception as exc:  # a failed operation is counted, not fatal
            result.failed += 1
            result.failures.append(f"bpmax failed: {type(exc).__name__}: {exc}")
            score = None
        end = clock()
        if score is not None:
            result.latencies.append(end - t0)
            result.pairs += 1
            scored.append(((q, t), score))
    result.elapsed_s = end - begin
    if tracer:
        tracer.__exit__(None, None, None)
    result.peak_rss_mib = peak_rss_mib()
    _finish_trace(result, tracer)

    weights = repro.DEFAULT_MODEL.pair_weights
    folds: dict[str, float] = {}

    def fold(s: str) -> float:
        if s not in folds:
            folds[s] = checks.nussinov_best(s, weights)
        return folds[s]

    for (q, t), score in scored:
        bound = fold(q) + fold(t)
        if not score >= bound:
            result.errors.append(f"score {score} below independent folds {bound} for {q}/{t}")
    check_rng = random.Random(f"paper-16xM/check/{seed}")
    (q, t), score = check_rng.choice(scored)
    res = repro.bpmax(q, t, structure=True)
    s = res.structure
    result.errors += checks.structure_errors(
        q, t, s.pairs1, s.pairs2, s.inter, weights, expected=score
    )
    result.errors += tiny_pair_errors(check_rng)
    return result


# -- gateway-mixed ----------------------------------------------------------------


class _Load:
    """The request stream: rounds of fresh pairs, every 4th an exact repeat.

    Each round holds every (n, m) shape of 6..14 x 6..14 three times, in
    a seeded order, so every round asks for the same work whatever the
    seed; a repeat copies a pair sent earlier in the same round.  Round
    ``r`` draws from its own generator, so a run sees the same stream
    whatever its speed.  Thread-safe: clients take the next request
    under a lock.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.sent = 0
        self._round: list[tuple[str, str]] = []
        self._lock = threading.Lock()

    def _make_round(self, r: int) -> list[tuple[str, str]]:
        rng = random.Random(f"gateway-mixed/{self.seed}/{r}")
        sizes = range(GATEWAY_MIN, GATEWAY_MAX + 1)
        shapes = [(n, m) for n in sizes for m in sizes] * GATEWAY_SHAPE_COPIES
        rng.shuffle(shapes)
        out: list[tuple[str, str]] = []
        for k in range(GATEWAY_ROUND):
            if k % GATEWAY_REPEAT_EVERY == GATEWAY_REPEAT_EVERY - 1:
                out.append(rng.choice(out))
            else:
                n, m = shapes.pop()
                out.append((rand_seq(rng, n), rand_seq(rng, m)))
        return out

    def take(self, deadline: float):
        """Next ``(index, (q, t))``, or ``None`` once the deadline passed."""
        with self._lock:
            if clock() >= deadline:
                return None
            k = self.sent % GATEWAY_ROUND
            if k == 0:
                self._round = self._make_round(self.sent // GATEWAY_ROUND)
            self.sent += 1
            return self.sent - 1, self._round[k]


def gateway_mixed(seed: int, seconds: float, trace: bool, since_start) -> RunResult:
    import repro
    import repro.core.api as api

    # the benchmark's own count of engine calls: the scheduler looks up
    # repro.core.api.bpmax at call time
    engine_calls = [0]
    bpmax_orig = api.bpmax

    def counting_bpmax(*args, **kwargs):
        engine_calls[0] += 1
        return bpmax_orig(*args, **kwargs)

    api.bpmax = counting_bpmax
    sched = repro.BatchScheduler()
    gateway = None
    try:
        gateway = repro.HttpGateway(sched, host="127.0.0.1", port=0).start()
        clients = [repro.GatewayClient(gateway.url()) for _ in range(GATEWAY_CLIENTS)]
        rng = random.Random(f"gateway-mixed/warm/{seed}")
        warm = (rand_seq(rng, GATEWAY_MIN), rand_seq(rng, GATEWAY_MIN))
        body = clients[0].fold({"seq1": warm[0], "seq2": warm[1], "id": "warm"})
        result = RunResult(setup_s=since_start())
        sent = 1
        answers: dict[tuple[str, str], set] = {warm: {body.get("score")}}
        if not body.get("ok"):
            result.errors.append(f"warm-up request failed: {body}")

        load = _Load(seed)
        lock = threading.Lock()
        tracer = _traced(trace)
        if tracer:
            tracer.__enter__()
        begin = clock()
        deadline = begin + seconds
        ends: list[float] = []

        def client_loop(client) -> None:
            end = clock()
            while True:
                item = load.take(deadline)
                if item is None:
                    break
                idx, (q, t) = item
                t0 = clock()
                try:
                    body = client.fold({"seq1": q, "seq2": t, "id": f"r{idx}"})
                    error = None if body.get("ok") else f"not ok: {body}"
                except Exception as exc:  # a failed request is counted, not fatal
                    body, error = None, f"{type(exc).__name__}: {exc}"
                end = clock()
                with lock:
                    if error is None:
                        result.latencies.append(end - t0)
                        answers.setdefault((q, t), set()).add(body["score"])
                    else:
                        result.failed += 1
                        result.failures.append(f"request r{idx} failed: {error}")
            with lock:
                ends.append(end)

        threads = [
            threading.Thread(target=client_loop, args=(c,), name=f"perfbench-client-{i}")
            for i, c in enumerate(clients)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        sched.drain()
        result.elapsed_s = max(ends) - begin
        if tracer:
            tracer.__exit__(None, None, None)
        result.attempted = load.sent
        result.pairs = len(result.latencies)
        sent += load.sent
        result.peak_rss_mib = peak_rss_mib()
        stats = sched.stats
    finally:
        if gateway is not None:
            gateway.close()
        sched.close()
        api.bpmax = bpmax_orig
    _finish_trace(result, tracer)

    from repro.core.reference import bpmax_recursive, prepare_inputs

    for (q, t), scores in answers.items():
        if len(scores) != 1:
            result.errors.append(f"pair {q}/{t} answered with different scores {sorted(scores)}")
    check_rng = random.Random(f"gateway-mixed/check/{seed}")
    for q, t in check_rng.sample(sorted(answers), min(4, len(answers))):
        want = bpmax_recursive(prepare_inputs(q, t))
        (got,) = answers[(q, t)]
        if got != want:
            result.errors.append(f"pair {q}/{t}: served {got} != bpmax_recursive {want}")
    hits, coalesced = stats.cache["hits"], stats.coalesced
    if sent != hits + coalesced + engine_calls[0]:
        result.errors.append(
            f"sent {sent} != cache hits {hits} + coalesced {coalesced} "
            f"+ engine calls {engine_calls[0]}"
        )
    result.errors += tiny_pair_errors(check_rng)
    return result


# -- bppart-scan ------------------------------------------------------------------


def scan_input(rng: random.Random) -> tuple[str, str]:
    """A query and a target whose repeated segment sits on the stride grid."""
    query = rand_seq(rng, SCAN_QUERY)
    target = list(rand_seq(rng, SCAN_TARGET))
    segment = rand_seq(rng, SCAN_REPEAT)
    for at in SCAN_REPEAT_AT:
        target[at : at + SCAN_REPEAT] = segment
    return query, "".join(target)


def bppart_scan(seed: int, seconds: float, trace: bool, since_start) -> RunResult:
    import repro
    from repro.core.windowed import scan_windows_served

    rng = random.Random(f"bppart-scan/{seed}")
    warm_q, warm_t = rand_seq(rng, SCAN_QUERY), rand_seq(rng, SCAN_WINDOW)
    warm = scan_windows_served(warm_q, warm_t, semiring="logsumexp")
    result = RunResult(setup_s=since_start())
    scans = [(warm_q, warm_t, warm)]

    tracer = _traced(trace)
    if tracer:
        tracer.__enter__()
    begin = clock()
    deadline = begin + seconds
    end = begin
    while end < deadline:
        q, t = scan_input(rng)
        t0 = clock()
        result.attempted += 1
        try:
            scan = scan_windows_served(q, t, semiring="logsumexp")
        except Exception as exc:  # a failed operation is counted, not fatal
            result.failed += 1
            result.failures.append(f"scan failed: {type(exc).__name__}: {exc}")
            scan = None
        end = clock()
        if scan is not None:
            result.latencies.append(end - t0)
            result.pairs += len(scan.hits)
            scans.append((q, t, scan))
    result.elapsed_s = end - begin
    if tracer:
        tracer.__exit__(None, None, None)
    result.peak_rss_mib = peak_rss_mib()
    _finish_trace(result, tracer)

    for q, t, scan in scans:
        by_content: dict[str, float] = {}
        for hit in scan.hits:
            content = t[hit.start : hit.start + scan.window]
            if by_content.setdefault(content, hit.score) != hit.score:
                result.errors.append(
                    f"identical windows at {hit.start} differ: {hit.score} vs {by_content[content]}"
                )

    check_rng = random.Random(f"bppart-scan/check/{seed}")
    q, t, scan = check_rng.choice(scans[1:] or scans)
    for hit in check_rng.sample(scan.hits, min(3, len(scan.hits))):
        window = t[hit.start : hit.start + scan.window]
        maxplus = scan_windows_served(q, window, window=len(window)).hits[0].score
        if not hit.score >= maxplus:
            result.errors.append(f"window {hit.start}: log-partition {hit.score} < max-plus {maxplus}")
        # the scan feeds the window reversed; scanning the reversed query
        # with the window as query scores the same pair, strands swapped
        piece = window[::-1]
        swapped = scan_windows_served(
            piece, q[::-1], window=len(q), semiring="logsumexp"
        ).hits[0].score
        if abs(swapped - hit.score) > 1e-9:
            result.errors.append(f"window {hit.start}: swapped strands give {swapped} vs {hit.score}")

    from repro.core.enumerate import enumerate_structures
    from repro.core.reference import prepare_inputs

    weights = repro.DEFAULT_MODEL.pair_weights
    for n, m in PARTITION_SHAPES:
        tq, tt = rand_seq(check_rng, n), rand_seq(check_rng, m)
        value = scan_windows_served(tq, tt, window=m, semiring="logsumexp").hits[0].score
        piece = tt[::-1]
        space = enumerate_structures(prepare_inputs(tq, piece))
        log_z = checks.log_partition(checks.structure_weights(tq, piece, space, weights))
        if not value >= log_z - 1e-9:
            result.errors.append(f"tiny pair {tq}/{tt}: log-partition {value} < log Z {log_z}")
    result.errors += tiny_pair_errors(check_rng)
    return result


WORKLOADS = {
    "paper-16xM": paper_16xm,
    "gateway-mixed": gateway_mixed,
    "bppart-scan": bppart_scan,
}
