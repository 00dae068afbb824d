"""End-to-end CLI tests: real subprocesses, real exit codes.

The in-process tests in ``test_cli.py`` exercise ``main()`` directly;
these spawn ``python -m repro`` the way a user (or a pipeline) would, so
they also cover argument parsing, stdout/stderr separation, JSONL piping
through stdin, and the exit-code contract (0 ok, 2 structured error).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args: str, stdin: str | None = None, env: dict | None = None):
    """Run ``python -m repro <args>`` and return the completed process."""
    full_env = {**os.environ, "PYTHONPATH": SRC, **(env or {})}
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
        env=full_env,
    )


class TestRun:
    def test_run_and_exit_zero(self):
        p = run_cli("run", "GGGG", "CCCC")
        assert p.returncode == 0
        assert "score" in p.stdout and "12" in p.stdout

    def test_backend_selection(self):
        p = run_cli("run", "GGGG", "CCCC", "--variant", "batched",
                    "--backend", "numpy")
        assert p.returncode == 0 and "12" in p.stdout

    def test_unknown_backend_exits_two(self):
        p = run_cli("run", "GGGG", "CCCC", "--backend", "fpga")
        assert p.returncode == 2
        assert "error" in p.stderr.lower()

    def test_removed_backend_exits_two_with_one_line(self):
        p = run_cli("run", "GGGG", "CCCC", "--backend", "generated")
        assert p.returncode == 2
        lines = p.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("bpmax: error: unknown backend 'generated'")
        assert "tiled" in lines[0] and "fourrussians" in lines[0]

    def test_invalid_sequence_exits_two(self):
        p = run_cli("run", "GXGG", "CCCC")
        assert p.returncode == 2
        assert "error" in p.stderr.lower()

    def test_backends_listing(self):
        p = run_cli("backends")
        assert p.returncode == 0 and "numpy" in p.stdout
        assert "capabilities:" in p.stdout

    def test_tiled_backend_selection_threaded(self):
        p = run_cli("run", "GGGG", "CCCC", "--variant", "batched",
                    "--backend", "tiled", "--threads", "2")
        assert p.returncode == 0 and "12" in p.stdout


class TestTune:
    def test_tune_writes_cache(self, tmp_path):
        cache = tmp_path / "autotune.json"
        p = run_cli("tune", "--n", "8", "--m", "6", "--threads", "2",
                    "--repeats", "1",
                    env={"BPMAX_TUNE_CACHE": str(cache)})
        assert p.returncode == 0
        assert "best" in p.stdout and cache.exists()
        data = json.loads(cache.read_text())
        assert data["version"] == 1 and data["entries"]

    def test_tune_no_persist(self, tmp_path):
        cache = tmp_path / "autotune.json"
        p = run_cli("tune", "--n", "6", "--m", "5", "--repeats", "1",
                    "--candidates", "1,6", "--no-persist",
                    env={"BPMAX_TUNE_CACHE": str(cache)})
        assert p.returncode == 0 and not cache.exists()

    def test_tune_joint_rejected_by_argparse(self):
        p = run_cli("tune", "--joint", "--n", "6", "--m", "5")
        assert p.returncode == 2
        assert "unrecognized arguments: --joint" in p.stderr

    def test_tune_bad_candidates_exits_two(self):
        p = run_cli("tune", "--n", "6", "--m", "5", "--candidates", "0,99")
        assert p.returncode == 2 and "error" in p.stderr.lower()


class TestMetricsAndReport:
    def test_metrics_out_then_report(self, tmp_path):
        out = tmp_path / "metrics.json"
        p = run_cli("run", "GGGG", "CCCC", "--metrics-out", str(out))
        assert p.returncode == 0 and out.exists()
        rep = run_cli("report", str(out))
        assert rep.returncode == 0 and rep.stdout.strip()

    def test_report_on_missing_file_exits_two(self, tmp_path):
        p = run_cli("report", str(tmp_path / "nope.json"))
        assert p.returncode == 2


class TestServe:
    def _lines(self, *objs: dict) -> str:
        return "\n".join(json.dumps(o) for o in objs) + "\n"

    def test_serve_from_stdin(self):
        stdin = self._lines(
            {"seq1": "GGGG", "seq2": "CCCC", "id": "a"},
            {"seq1": "GCAU", "seq2": "AUGC", "id": "b"},
        )
        p = run_cli("serve", "-", stdin=stdin)
        assert p.returncode == 0
        results = [json.loads(line) for line in p.stdout.splitlines()]
        assert [r["id"] for r in results] == ["a", "b"]
        assert results[0]["score"] == 12.0 and results[0]["ok"]

    def test_serve_from_file_with_out_and_stats(self, tmp_path):
        reqs = tmp_path / "reqs.jsonl"
        reqs.write_text(
            "# demo workload\n\n"
            + self._lines(
                {"seq1": "GGGG", "seq2": "CCCC", "id": "a"},
                {"seq1": "GGGG", "seq2": "CCCC", "id": "dup"},
            )
        )
        out = tmp_path / "out.jsonl"
        p = run_cli("serve", str(reqs), "--out", str(out), "--stats")
        assert p.returncode == 0
        results = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(results) == 2
        assert all(r["score"] == 12.0 for r in results)
        assert "serve:" in p.stderr  # stats land on stderr, results in the file

    def test_serve_poisoned_line_degrades_not_dies(self):
        stdin = self._lines(
            {"seq1": "GGGG", "seq2": "CCCC", "id": "good"},
            {"seq1": "", "seq2": "CCCC", "id": "bad"},
        )
        p = run_cli("serve", "-", stdin=stdin)
        assert p.returncode == 0  # without --strict the service reports, not fails
        by_id = {r["id"]: r for r in map(json.loads, p.stdout.splitlines())}
        assert by_id["good"]["ok"] and not by_id["bad"]["ok"]

    def test_serve_strict_exits_two_on_failures(self):
        stdin = self._lines({"seq1": "", "seq2": "CCCC", "id": "bad"})
        p = run_cli("serve", "-", "--strict", stdin=stdin)
        assert p.returncode == 2

    def test_serve_malformed_jsonl_exits_two(self):
        p = run_cli("serve", "-", stdin="{broken\n")
        assert p.returncode == 2
        assert "line 1" in p.stderr

    def test_serve_empty_input_exits_two(self):
        p = run_cli("serve", "-", stdin="# only comments\n")
        assert p.returncode == 2

    def test_serve_sharded_tier(self, tmp_path):
        out = tmp_path / "out.jsonl"
        stdin = self._lines(
            {"seq1": "GGGG", "seq2": "CCCC", "id": "a"},
            {"seq1": "GCAUGC", "seq2": "AUGCAU", "id": "b",
             "priority": "interactive"},
            {"seq1": "GGGG", "seq2": "CCCC", "id": "dup"},
        )
        p = run_cli("serve", "-", "--shards", "2", "--queue-limit", "8",
                    "--out", str(out), "--stats", stdin=stdin)
        assert p.returncode == 0
        results = {r["id"]: r for line in out.read_text().splitlines()
                   for r in [json.loads(line)]}
        assert results["a"]["ok"] and results["a"]["score"] == 12.0
        assert results["b"]["ok"] and results["b"]["score"] == 15.0
        assert results["a"]["shard"] >= 0
        # identical content routes to one shard and reuses its cache
        assert results["dup"]["shard"] == results["a"]["shard"]
        assert results["dup"]["cached"]
        stats = json.loads(p.stderr.split("serve: ", 1)[1])
        assert stats["deaths"] == 0 and stats["admission"]["admitted"] == 3

    def test_serve_sharded_bad_flags_exit_two(self):
        stdin = self._lines({"seq1": "G", "seq2": "C"})
        p = run_cli("serve", "-", "--shards", "-1", stdin=stdin)
        assert p.returncode == 2
        p = run_cli("serve", "-", "--shards", "2", "--queue-limit", "0",
                    stdin=stdin)
        assert p.returncode == 2

    def test_serve_missing_file_exits_two(self, tmp_path):
        p = run_cli("serve", str(tmp_path / "missing.jsonl"))
        assert p.returncode == 2


class TestSubmitServePipeline:
    def test_submit_output_feeds_serve(self, tmp_path):
        reqs = tmp_path / "reqs.jsonl"
        for seqs in (("GGGG", "CCCC"), ("GCAU", "AUGC")):
            p = run_cli("submit", *seqs, "--out", str(reqs))
            assert p.returncode == 0
        p = run_cli("serve", str(reqs))
        assert p.returncode == 0
        results = [json.loads(line) for line in p.stdout.splitlines()]
        assert len(results) == 2 and all(r["ok"] for r in results)

    def test_submit_emits_one_json_line(self):
        p = run_cli("submit", "GGGG", "CCCC", "--id", "x", "--deadline", "5",
                    "--fallback", "hybrid,coarse")
        assert p.returncode == 0
        data = json.loads(p.stdout)
        assert data == {
            "seq1": "GGGG", "seq2": "CCCC", "id": "x",
            "deadline": 5.0, "fallback": ["hybrid", "coarse"],
        }

    def test_submit_priority_round_trips_through_serve(self, tmp_path):
        p = run_cli("submit", "GGGG", "CCCC", "--id", "vip",
                    "--priority", "interactive")
        assert p.returncode == 0
        assert json.loads(p.stdout)["priority"] == "interactive"
        p = run_cli("serve", "-", stdin=p.stdout)
        assert p.returncode == 0
        assert json.loads(p.stdout)["ok"]

    def test_submit_bad_fallback_exits_two(self):
        p = run_cli("submit", "G", "C", "--fallback", "warp-drive")
        assert p.returncode == 2


class TestGolden:
    def test_golden_verifies_checked_in_manifest(self):
        p = run_cli("golden")
        assert p.returncode == 0
        assert "conform" in p.stdout

    def test_golden_regen_refused_under_ci(self, tmp_path):
        p = run_cli(
            "golden", "--regen", "--manifest", str(tmp_path / "m.json"),
            env={"CI": "true"},
        )
        assert p.returncode == 2
        assert "refusing" in p.stderr
        assert not (tmp_path / "m.json").exists()

    def test_golden_detects_tampered_manifest(self, tmp_path):
        from repro.golden import default_manifest_path

        data = json.loads(default_manifest_path().read_text())
        data["cases"]["gc-only-4"]["score"] = 999.0
        tampered = tmp_path / "m.json"
        tampered.write_text(json.dumps(data))
        p = run_cli("golden", "--manifest", str(tampered))
        assert p.returncode == 2
        assert "MISMATCH" in p.stderr


class TestUsageErrors:
    def test_no_command_is_usage_error(self):
        p = run_cli()
        assert p.returncode == 2  # argparse usage error

    def test_unknown_variant_is_usage_error(self):
        p = run_cli("run", "G", "C", "--variant", "bogus")
        assert p.returncode == 2
