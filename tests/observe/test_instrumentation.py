"""Spans and events from every instrumented layer, plus CLI surface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.api import bpmax
from repro.core.dmp import DoubleMaxPlus, random_triangles
from repro.machine.counters import k1, t1
from repro.observe import collecting, tracing
from repro.parallel.pool import ParallelRunner
from repro.parallel.wavefront import simulate_dag, triangle_task_graph
from repro.robust.errors import BpmaxError
from repro.robust.faults import FaultPlan
from repro.robust.retry import retry


class TestEngineSpans:
    def test_run_window_kernel_span_hierarchy(self):
        with tracing() as tr:
            bpmax("GCGCA", "CGCG", variant="batched", backend="numpy-batched")
        names = {r.name for r in tr.spans()}
        assert {"bpmax", "engine.run", "engine.window", "r0.batched"} <= names
        run = tr.spans("engine.run")[0]
        assert run.attrs["variant"] == "batched"
        # every window span nests under the engine.run span
        for w in tr.spans("engine.window"):
            assert w.parent == run.sid

    def test_baseline_span(self):
        with tracing() as tr:
            bpmax("GCG", "CGC", variant="baseline")
        assert tr.spans("engine.run")[0].attrs["variant"] == "baseline"

    def test_dmp_span_and_counters(self):
        tris = random_triangles(4, 5, 1)
        with tracing() as tr, collecting() as c:
            DoubleMaxPlus(tris, kernel="vectorized").run()
        span = tr.spans("dmp.run")[0]
        assert span.attrs["n"] == 4 and span.attrs["m"] == 5
        assert c.windows == t1(4) - 4  # diagonal windows are inputs
        assert c.ops_r0 == k1(4) * k1(5)


class TestParallelSpans:
    def test_pool_map_span(self):
        with tracing() as tr:
            with ParallelRunner(threads=2) as pool:
                assert pool.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        span = tr.spans("pool.map")[0]
        assert span.attrs == {"tasks": 3, "threads": 2}

    def test_wavefront_span(self):
        with tracing() as tr:
            simulate_dag(triangle_task_graph(4), threads=2)
        span = tr.spans("wavefront.simulate")[0]
        assert span.attrs["tasks"] == t1(4)


class TestRobustEvents:
    def test_checkpoint_save_event_and_counters(self, tmp_path):
        path = tmp_path / "ck.npz"
        with tracing() as tr, collecting() as c:
            bpmax_score = bpmax(
                "GCGC", "GCGC", variant="baseline", checkpoint=path
            ).score
        assert bpmax_score is not None
        events = tr.events("checkpoint.save")
        assert events
        assert c.checkpoint_saves == len(events)
        assert c.checkpoint_bytes == sum(e.attrs["bytes"] for e in events)
        assert c.checkpoint_bytes > 0

    def test_retry_event_and_counter(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise BpmaxError("transient")
            return "ok"

        with tracing() as tr, collecting() as c:
            assert retry(flaky, attempts=4, backoff=0.0) == "ok"
        assert c.retries == 2
        evts = tr.events("retry")
        assert [e.attrs["attempt"] for e in evts] == [0, 1]
        assert all(e.attrs["error"] == "BpmaxError" for e in evts)

    def test_fault_events_and_counter(self):
        plan = FaultPlan(crash_windows=[(0, 1)], slow_windows=[(1, 2)])
        with tracing() as tr, collecting() as c:
            with pytest.raises(Exception):
                plan.engine_window(0, 1)
            plan.engine_window(1, 2)
        assert c.faults_injected == 2
        names = {e.name for e in tr.events()}
        assert names == {"fault.crash-window", "fault.slow-window"}
        # the plan's own deterministic log is unchanged by the tracer
        assert [e.kind for e in plan.events] == ["crash-window", "slow-window"]


class TestDistributedEvents:
    def test_rank_death_recovery_events(self, small_inputs):
        from repro.core.distributed import DistributedBPMax
        from repro.parallel.mpi import ClusterSpec

        plan = FaultPlan(rank_deaths=[(1, 2)], message_drops=[(1, 0)])
        with tracing() as tr:
            report = DistributedBPMax(
                small_inputs, ClusterSpec(ranks=2), faults=plan
            ).run()
        assert report.recovered_windows > 0
        names = {r.name for r in tr.records()}
        assert {"dist.run", "dist.wavefront", "dist.rank_death",
                "dist.recovered", "dist.transfer_retry"} <= names
        death = tr.events("dist.rank_death")[0]
        assert death.attrs == {"rank": 1, "diagonal": 2}


class TestCliObservability:
    def test_run_metrics_prints_report(self, capsys):
        assert main(["run", "GCGC", "GCGC", "--variant", "batched",
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "RunReport" in out
        assert "MISMATCH" not in out
        assert "roofline" in out

    def test_run_metrics_out_and_report_subcommand(self, tmp_path, capsys):
        path = tmp_path / "rep.json"
        assert main(["run", "GCGC", "GCGC", "--metrics-out", str(path)]) == 0
        capsys.readouterr()
        assert path.exists()
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "RunReport" in out and "predicted" in out

    def test_run_trace_writes_json(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["run", "GCGC", "GCGC", "--trace", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["version"] == 1
        names = {s["name"] for s in data["spans"]}
        assert "engine.run" in names
        assert "trace" in capsys.readouterr().out

    def test_report_subcommand_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["report", str(bad)]) == 2
        assert "cannot load report" in capsys.readouterr().err
