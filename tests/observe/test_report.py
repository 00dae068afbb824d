"""RunReport: serialization, observed-vs-predicted, roofline link."""

from __future__ import annotations

import json

import pytest

from repro.core.api import bpmax
from repro.machine.roofline import MAXPLUS_STREAM_AI
from repro.observe import Counters, RunReport, collecting, predicted_op_counts
from repro.observe.report import FLOPS_PER_OP, REPORT_VERSION


def _report(n=4, m=4, **kw) -> RunReport:
    c = Counters()
    for d1 in range(n):
        for _ in range(n - d1):
            c.count_window(d1, m)
    return RunReport.from_counters(c, n=n, m=m, variant="batched", **kw)


class TestObservedVsPredicted:
    def test_exact_run_has_no_deviations(self):
        rep = _report()
        assert rep.deviations() == {}
        assert rep.observed_op_counts() == rep.predicted()

    def test_deviation_detected(self):
        c = Counters()
        c.ops_r0 = 7  # wrong on purpose
        rep = RunReport.from_counters(c, n=4, m=4, variant="x")
        dev = rep.deviations()
        assert dev["r0"] == (7, predicted_op_counts(4, 4)["r0"])

    def test_flops_and_totals(self):
        rep = _report()
        pred = predicted_op_counts(4, 4)
        total = sum(v for k, v in pred.items() if k != "cells")
        assert rep.ops_total == total
        assert rep.flops == FLOPS_PER_OP * total


class TestRoofline:
    def test_summary_without_bytes(self):
        rep = _report()
        roof = rep.roofline_summary()
        assert roof["predicted_ai"] == MAXPLUS_STREAM_AI
        assert roof["predicted_gflops"] > 0
        assert roof["achieved_ai"] is None

    def test_summary_with_bytes(self):
        c = Counters()
        c.count_window(2, 4)
        c.count_slab(2, 3, 3, 4, 4)
        rep = RunReport.from_counters(c, n=4, m=4, variant="batched", wall_s=0.5)
        roof = rep.roofline_summary()
        expected_ai = FLOPS_PER_OP * c.ops_r0 / c.bytes_moved
        assert roof["achieved_ai"] == pytest.approx(expected_ai)
        assert roof["achieved_gflops_bound"] > 0
        assert roof["bound"] in ("compute", "memory")
        assert roof["measured_gflops"] == pytest.approx(rep.flops / 0.5 / 1e9)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rep = _report(wall_s=1.25, score=9.0, backend="numpy-batched", threads=2)
        path = tmp_path / "report.json"
        rep.save(path)
        back = RunReport.load(path)
        assert back == rep

    def test_version_checked(self, tmp_path):
        rep = _report()
        data = rep.as_dict()
        data["version"] = REPORT_VERSION + 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="version"):
            RunReport.load(path)

    def test_as_dict_is_json_safe(self):
        json.dumps(_report().as_dict())


class TestRender:
    def test_render_clean_run(self):
        out = _report(score=5.0, wall_s=0.1).render()
        assert "MISMATCH" not in out
        assert "r0" in out and "predicted" in out
        assert "roofline" in out

    def test_render_marks_mismatch(self):
        c = Counters()
        c.ops_r2 = 1
        out = RunReport.from_counters(c, n=4, m=4, variant="x").render()
        assert "MISMATCH" in out


class TestApiIntegration:
    def test_bpmax_metrics_attaches_report(self):
        result = bpmax(
            "GCGC", "GCGC", variant="batched", backend="numpy-batched", metrics=True
        )
        rep = result.report
        assert rep is not None
        assert rep.deviations() == {}
        assert rep.score == result.score
        assert rep.wall_s > 0
        assert rep.backend == "numpy-batched"
        assert rep.variant == "batched"

    def test_bpmax_default_has_no_report(self):
        assert bpmax("GCGC", "GCGC").report is None

    def test_metrics_collection_is_scoped(self):
        from repro.observe import active

        bpmax("GCG", "CGC", metrics=True)
        assert active() is None
