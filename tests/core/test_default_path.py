"""The default path: every entry point runs ``DEFAULT_VARIANT`` on
``DEFAULT_BACKEND`` (the ``tiled`` wavefront executor), and that path
produces exactly the tables of the paper's classic kernels.

The shard worker is a separate process, so its backend is observed by a
fault plan that rides the request into the worker and records which
engine polled it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.core.api as api
from repro import BatchScheduler, ShardScheduler, SubmitRequest
from repro.cli import main
from repro.core.engine import DEFAULT_VARIANT
from repro.core.windowed import scan_windows_served
from repro.kernels import DEFAULT_BACKEND
from repro.rna.sequence import random_pair
from repro.robust.faults import FaultPlan

SEMIRINGS = ("max-plus", "logsumexp")


class _BackendProbe(FaultPlan):
    """Records, in a file, the backend of every engine that polls it."""

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = path

    def engine_window(self, i1: int, j1: int) -> float:
        import sys

        owner = sys._getframe(1).f_locals["self"]
        engine = getattr(owner, "engine", owner)  # TiledExecutor -> engine
        with open(self.path, "a") as fh:
            fh.write(engine.backend.name + "\n")
        return super().engine_window(i1, j1)


def _probed_backends(path) -> set[str]:
    return set(path.read_text().split())


@pytest.fixture
def served_backends(monkeypatch):
    """Wrap ``repro.core.api.bpmax`` (what ``run_request`` calls) and
    collect the backend each in-process engine run reports."""
    seen: list[str | None] = []
    real = api.bpmax

    def wrapped(*args, **kwargs):
        res = real(*args, metrics=True, **kwargs)
        seen.append(res.report.backend)
        return res

    monkeypatch.setattr(api, "bpmax", wrapped)
    return seen


class TestDefaultRunsDefaultBackend:
    @pytest.mark.parametrize("semiring", SEMIRINGS)
    def test_bpmax(self, semiring):
        res = api.bpmax("GCGCUUCG", "CGAAGCGC", semiring=semiring, metrics=True)
        assert res.variant == DEFAULT_VARIANT
        assert res.report.backend == DEFAULT_BACKEND == "tiled"
        assert "backend_note" not in res.report.attrs

    @pytest.mark.parametrize("semiring", SEMIRINGS)
    def test_batch_scheduler(self, served_backends, semiring):
        with BatchScheduler() as sched:
            (r,) = sched.serve_all([SubmitRequest("GGGAAA", "UUUCCC", semiring=semiring)])
        assert r.ok and r.variant == DEFAULT_VARIANT
        assert served_backends == [DEFAULT_BACKEND]

    def test_scan_windows_served(self, served_backends):
        scan = scan_windows_served("GCAUGC", "AUGCAUGCAUGC", window=6, stride=3)
        assert len(scan.hits) == 3
        assert served_backends and set(served_backends) == {DEFAULT_BACKEND}

    def test_one_shard_scheduler(self, tmp_path):
        path = tmp_path / "backends.txt"
        req = SubmitRequest("GGGAAA", "UUUCCC", faults=_BackendProbe(str(path)))
        with ShardScheduler(shards=1, heartbeat_timeout_s=20.0) as sched:
            (r,) = sched.serve_all([req])
        assert r.ok and r.shard == 0, r.error
        assert r.score == api.bpmax("GGGAAA", "UUUCCC").score
        assert _probed_backends(path) == {DEFAULT_BACKEND}

    def test_probe_sees_the_classic_path_too(self, tmp_path):
        """The probe is not blind: a per-window engine reports its own."""
        path = tmp_path / "backends.txt"
        probe = _BackendProbe(str(path))
        api.bpmax("GGGAAA", "UUUCCC", backend="numpy-batched", faults=probe)
        assert _probed_backends(path) == {"numpy-batched"}

    def test_cli_run_metrics(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert main(["run", "GCGCUUCG", "CGAAGCGC", "--metrics-out", str(out)]) == 0
        assert f"backend {DEFAULT_BACKEND}" in capsys.readouterr().out
        assert json.loads(out.read_text())["backend"] == DEFAULT_BACKEND


class TestDefaultMatchesClassicKernels:
    @pytest.mark.parametrize("shape", [(16, 64), (6, 6)])
    def test_full_table_and_traceback_bit_identical(self, shape):
        s1, s2 = random_pair(*shape, 29)
        default = api.bpmax(s1, s2, structure=True)
        classic = api.bpmax(s1, s2, variant="hybrid-tiled", structure=True)
        assert default.score == classic.score
        n = shape[0]
        for i1 in range(n):
            for j1 in range(i1, n):
                np.testing.assert_array_equal(
                    default.table.inner(i1, j1),
                    classic.table.inner(i1, j1),
                    err_msg=str((i1, j1)),
                )
        assert default.structure.dotbracket() == classic.structure.dotbracket()
        assert default.structure.inter == classic.structure.inter

    def test_logsumexp_table_matches_numpy_batched(self):
        s1, s2 = random_pair(7, 9, 31)
        default = api.bpmax(s1, s2, semiring="logsumexp")
        ref = api.bpmax(s1, s2, semiring="logsumexp", backend="numpy-batched")
        for i1 in range(7):
            for j1 in range(i1, 7):
                np.testing.assert_allclose(
                    default.table.inner(i1, j1),
                    ref.table.inner(i1, j1),
                    rtol=0,
                    atol=1e-9,
                )
