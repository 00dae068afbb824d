"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.robust.errors import BpmaxError


class TestCli:
    def test_run_prints_score(self, capsys):
        assert main(["run", "GCGC", "GCGC", "--variant", "hybrid"]) == 0
        out = capsys.readouterr().out
        assert "score" in out and "hybrid" in out

    def test_run_with_structure(self, capsys):
        assert main(["run", "GGG", "CCC", "--structure"]) == 0
        out = capsys.readouterr().out
        assert "strand1" in out and "inter" in out

    def test_fold(self, capsys):
        assert main(["fold", "GGGCCC"]) == 0
        out = capsys.readouterr().out
        assert "score : 9" in out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "hybrid-tiled" in out and "fig13" in out

    def test_experiment(self, capsys):
        assert main(["experiment", "fig11"]) == 0
        out = capsys.readouterr().out
        assert "Roofline" in out and "DRAM" in out

    def test_experiment_unknown(self):
        with pytest.raises(ValueError, match="unknown"):
            main(["experiment", "fig99"])

    def test_bad_variant_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "GC", "GC", "--variant", "bogus"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestScanCommand:
    def test_scan_prints_windows(self, capsys):
        from repro.cli import main as cli_main

        assert (
            cli_main(
                [
                    "scan",
                    "CUCC",
                    "GGAGGAGGAGGA",
                    "--window",
                    "6",
                    "--stride",
                    "3",
                    "--top",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "best window" in out
        assert "gain" in out

    def test_scan_bad_variant(self):
        import pytest as _pytest

        from repro.cli import main as cli_main

        with _pytest.raises(SystemExit):
            cli_main(["scan", "GC", "GCGC", "--variant", "nope"])

    def test_scan_reports_cache_hits_on_periodic_target(self, capsys):
        from repro.cli import main as cli_main

        assert (
            cli_main(["scan", "CUCC", "GGAGGA" * 4, "--window", "6", "--stride", "6"])
            == 0
        )
        out = capsys.readouterr().out
        assert "(3 served from cache)" in out

    def test_scan_semiring_logsumexp(self, capsys):
        from repro.cli import main as cli_main

        assert (
            cli_main(
                [
                    "scan",
                    "CUCC",
                    "GGAGGAGGAGGA",
                    "--window",
                    "6",
                    "--stride",
                    "3",
                    "--semiring",
                    "log-sum-exp",
                ]
            )
            == 0
        )
        assert "best window" in capsys.readouterr().out

    def test_scan_unknown_semiring_is_one_line_error(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["scan", "GC", "GCGC", "--semiring", "nope"]) == 2
        assert "semiring" in capsys.readouterr().err


class TestSemiringFlags:
    def test_run_semiring_logsumexp_scores_higher(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["run", "GGGG", "CCCC"]) == 0
        mp = float(capsys.readouterr().out.split()[2])
        assert cli_main(["run", "GGGG", "CCCC", "--semiring", "logsumexp"]) == 0
        lse = float(capsys.readouterr().out.split()[2])
        assert lse > mp == 12.0

    def test_run_semiring_rejects_baseline_and_structure(self, capsys):
        from repro.cli import main as cli_main

        assert (
            cli_main(
                ["run", "GC", "GC", "--semiring", "logsumexp", "--variant", "baseline"]
            )
            == 2
        )
        assert "max-plus only" in capsys.readouterr().err
        assert (
            cli_main(["run", "GC", "GC", "--semiring", "logsumexp", "--structure"])
            == 2
        )
        assert "argmax" in capsys.readouterr().err

    def test_submit_emits_semiring_only_when_nondefault(self, capsys):
        import json

        from repro.cli import main as cli_main

        assert cli_main(["submit", "GC", "GC", "--semiring", "log-sum-exp"]) == 0
        req = json.loads(capsys.readouterr().out)
        assert req["semiring"] == "logsumexp"  # canonicalized
        assert cli_main(["submit", "GC", "GC"]) == 0
        assert "semiring" not in json.loads(capsys.readouterr().out)

    def test_backends_renders_semirings_column(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "semirings: max-plus,logsumexp" in out
        assert "semirings: max-plus\n" in out  # fourrussians stays exact-only


class TestFastaAndCsv:
    def test_run_from_fasta(self, tmp_path, capsys):
        fasta = tmp_path / "pair.fasta"
        fasta.write_text(">a\nGCGC\n>b\nGCGC\n")
        assert main(["run", str(fasta), "--fasta"]) == 0
        assert "score" in capsys.readouterr().out

    def test_run_fasta_needs_two_records(self, tmp_path, capsys):
        fasta = tmp_path / "one.fasta"
        fasta.write_text(">a\nGCGC\n")
        assert main(["run", str(fasta), "--fasta"]) == 2
        assert "two records" in capsys.readouterr().err

    def test_run_fasta_two_records_debug_raises(self, tmp_path):
        fasta = tmp_path / "one.fasta"
        fasta.write_text(">a\nGCGC\n")
        with pytest.raises(BpmaxError, match="two records"):
            main(["--debug", "run", str(fasta), "--fasta"])

    def test_run_without_second_seq_rejected(self, capsys):
        assert main(["run", "GCGC"]) == 2
        assert "two sequences" in capsys.readouterr().err

    def test_experiment_csv_output(self, tmp_path, capsys):
        assert main(["experiment", "fig11", "--csv", str(tmp_path)]) == 0
        csv_file = tmp_path / "fig11.csv"
        assert csv_file.exists()
        assert "attainable_gflops" in csv_file.read_text()


class TestFaultTolerance:
    def test_checkpoint_then_resume_round_trip(self, tmp_path, capsys):
        ckpt = str(tmp_path / "run.npz")
        assert main(["run", "GCGCUU", "ACGGCU", "--checkpoint", ckpt]) == 0
        first = capsys.readouterr().out
        assert main(["run", "GCGCUU", "ACGGCU", "--checkpoint", ckpt, "--resume"]) == 0
        second = capsys.readouterr().out
        assert "resumed" in second
        # the resumed run reproduces the original score line verbatim
        score = next(l for l in first.splitlines() if "score" in l)
        assert score in second

    def test_resume_without_checkpoint_file_ok(self, tmp_path, capsys):
        ckpt = str(tmp_path / "missing.npz")
        assert main(["run", "GCGC", "GCGC", "--checkpoint", ckpt, "--resume"]) == 0
        assert "resumed" not in capsys.readouterr().out

    def test_stale_checkpoint_exits_2(self, tmp_path, capsys):
        ckpt = str(tmp_path / "run.npz")
        assert main(["run", "GCGCUU", "ACGGCU", "--checkpoint", ckpt]) == 0
        capsys.readouterr()
        assert main(["run", "AUAUAU", "UGGAAU", "--checkpoint", ckpt, "--resume"]) == 2
        assert "stale" in capsys.readouterr().err

    def test_deadline_exceeded_exits_2(self, capsys):
        assert main(["run", "GCGCUU", "ACGGCU", "--deadline", "1e-12"]) == 2
        assert "deadline" in capsys.readouterr().err

    def test_invalid_nucleotide_exits_2(self, capsys):
        assert main(["run", "GCXC", "GCGC"]) == 2
        err = capsys.readouterr().err
        assert "invalid nucleotide" in err and "'X'" in err

    def test_unknown_fallback_rejected(self, capsys):
        assert main(["run", "GC", "GC", "--fallback", "warp"]) == 2
        assert "fallback" in capsys.readouterr().err

    def test_debug_reraises_traceback(self):
        with pytest.raises(BpmaxError):
            main(["--debug", "run", "GCXC", "GCGC"])
