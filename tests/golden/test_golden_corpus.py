"""Golden-corpus conformance: every engine × backend × semiring.

The manifest (``manifest.json``, checked in next to this file) pins one
value *per semiring* per curated pair — each with its tolerance policy
— and one structured-error type per invalid input.  These tests hold
every engine variant and every registered kernel backend to those
pins under each pin's own contract: max-plus **exactly** (float
equality, no tolerance), log-sum-exp within its pinned 1e-9
``atol``/``rtol`` — and hold the serving layer to the same contract,
cached and uncached.

Regenerating the pins is deliberately manual: ``bpmax golden --regen``
(refused under CI, see test below); the regen cross-checks fresh
log-sum-exp pins against the recursive BPPart reference.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from repro.core.api import bpmax, serve_many
from repro.core.vectorized import VARIANT_CONFIGS
from repro.golden import (
    CROSSCHECK_MAX_LEN,
    ERROR_CASES,
    GOLDEN_CASES,
    MANIFEST_SEMIRINGS,
    MANIFEST_VERSION,
    TOLERANCES,
    load_manifest,
    regen_manifest,
    verify_manifest,
)
from repro.kernels import BACKENDS
from repro.robust.errors import BpmaxError, InvalidSequenceError
from repro.serve.request import SubmitRequest, scoring_fingerprint
from repro.rna.scoring import DEFAULT_MODEL

MANIFEST = Path(__file__).parent / "manifest.json"

#: engine configurations held to the manifest: every variant with its
#: own kernel, and every variant once per registered backend — the
#: backend replaces the split reduction but each variant keeps its own
#: window order (unavailable backends fall back transparently and must
#: *still* conform)
VARIANTS = list(VARIANT_CONFIGS)
ENGINE_CONFIGS = [(variant, None) for variant in VARIANTS] + [
    (variant, name) for variant in VARIANTS for name in sorted(BACKENDS)
]

#: the scalar reference engine is held to the pins on the cases it can
#: finish quickly; the vectorized engines cover the rest
BASELINE_MAX_LEN = 12


@pytest.fixture(scope="module")
def manifest() -> dict:
    return load_manifest(MANIFEST)


class TestManifest:
    def test_manifest_is_checked_in(self):
        assert MANIFEST.exists(), (
            "tests/golden/manifest.json is missing; run 'bpmax golden --regen' "
            "locally and commit the result"
        )

    def test_version_and_model_fingerprint(self, manifest):
        assert manifest["version"] == MANIFEST_VERSION
        assert manifest["model"] == scoring_fingerprint(DEFAULT_MODEL)

    def test_manifest_covers_whole_corpus(self, manifest):
        assert set(manifest["cases"]) == {c.name for c in GOLDEN_CASES}
        assert set(manifest["errors"]) == {name for name, *_ in ERROR_CASES}

    def test_corpus_has_curated_coverage(self):
        """The corpus keeps its required shape classes (guards future edits)."""
        names = {c.name for c in GOLDEN_CASES}
        assert {"gc-only-4", "wobble-heavy-12", "len1-pairable"} <= names
        assert any(c.n != c.m for c in GOLDEN_CASES), "needs asymmetric cases"
        assert any(c.n == 1 or c.m == 1 for c in GOLDEN_CASES), "needs length-1"
        assert {name for name, *_ in ERROR_CASES} >= {"empty-seq1", "empty-seq2"}

    def test_every_case_pins_every_semiring_with_policy(self, manifest):
        """Each case carries one pin per semiring, stamped atol/rtol/exact."""
        for name, pin in manifest["cases"].items():
            assert set(pin["semirings"]) == set(MANIFEST_SEMIRINGS), name
            for sr_name, sr_pin in pin["semirings"].items():
                atol, rtol = TOLERANCES[sr_name]
                assert sr_pin["atol"] == atol and sr_pin["rtol"] == rtol, name
                assert sr_pin["exact"] == (atol == rtol == 0.0), name
                assert isinstance(sr_pin["value"], float), name
            # the top-level score mirrors the exact max-plus pin
            assert pin["score"] == pin["semirings"]["max-plus"]["value"], name
            # a log-partition value can only add mass over the best path
            assert (
                pin["semirings"]["logsumexp"]["value"]
                >= pin["semirings"]["max-plus"]["value"]
            ), name


class TestConformance:
    @pytest.mark.parametrize("semiring", MANIFEST_SEMIRINGS)
    @pytest.mark.parametrize(
        "variant,backend",
        ENGINE_CONFIGS,
        ids=[f"{v}+{b}" if b else v for v, b in ENGINE_CONFIGS],
    )
    def test_engine_matches_manifest(self, variant, backend, semiring):
        problems = verify_manifest(
            MANIFEST, variant=variant, backend=backend, semirings=(semiring,)
        )
        assert problems == []

    def test_baseline_matches_manifest_on_small_cases(self, manifest):
        checked = 0
        for case in GOLDEN_CASES:
            if max(case.n, case.m) > BASELINE_MAX_LEN:
                continue
            got = bpmax(case.seq1, case.seq2, variant="baseline").score
            assert got == manifest["cases"][case.name]["score"], case.name
            checked += 1
        assert checked >= 8  # the corpus must keep enough baseline-sized cases

    def test_error_cases_raise_pinned_types(self, manifest):
        for name, seq1, seq2, _ in ERROR_CASES:
            pinned = manifest["errors"][name]["error"]
            with pytest.raises(BpmaxError) as exc_info:
                bpmax(seq1, seq2)
            assert type(exc_info.value).__name__ == pinned, name
            assert isinstance(exc_info.value, InvalidSequenceError)

    def test_logsumexp_pins_match_recursive_bppart(self, manifest):
        """Pinned log-partition values come from the same quantity the
        recursive BPPart reference computes (small cases: the reference
        is O(n^2 m^2) memoized Python)."""
        from repro.core.bppart import bppart_recursive
        from repro.core.reference import prepare_inputs

        atol, rtol = TOLERANCES["logsumexp"]
        checked = 0
        for case in GOLDEN_CASES:
            if max(case.n, case.m) > CROSSCHECK_MAX_LEN:
                continue
            ref = bppart_recursive(
                prepare_inputs(case.seq1, case.seq2, semiring="logsumexp")
            )
            pin = manifest["cases"][case.name]["semirings"]["logsumexp"]["value"]
            assert math.isclose(ref, pin, rel_tol=rtol, abs_tol=atol), case.name
            checked += 1
        assert checked >= 8  # keep enough reference-sized cases


class TestServingConformance:
    """The serving layer is held to the same pins as the engines."""

    def test_serve_many_matches_manifest(self, manifest):
        # each pair twice: the second copy must come back (coalesced or
        # cached) with the identical pinned score
        requests = [
            SubmitRequest(c.seq1, c.seq2, id=f"{c.name}#{k}")
            for k in range(2)
            for c in GOLDEN_CASES
        ]
        results = serve_many(requests, workers=2)
        by_name = {c.name: manifest["cases"][c.name]["score"] for c in GOLDEN_CASES}
        for r in results:
            assert r.ok, (r.id, r.error)
            assert r.score == by_name[r.id.rsplit("#", 1)[0]], r.id
        assert any(r.cached for r in results)

    def test_serve_many_logsumexp_within_pinned_tolerance(self, manifest):
        requests = [
            SubmitRequest(c.seq1, c.seq2, id=c.name, semiring="logsumexp")
            for c in GOLDEN_CASES
        ]
        results = serve_many(requests, workers=2)
        for r in results:
            assert r.ok, (r.id, r.error)
            pin = manifest["cases"][r.id]["semirings"]["logsumexp"]
            assert math.isclose(
                r.score, pin["value"], rel_tol=pin["rtol"], abs_tol=pin["atol"]
            ), r.id

    def test_poisoned_corpus_requests_fail_cleanly(self):
        requests = [SubmitRequest(seq1, seq2, id=name) for name, seq1, seq2, _ in ERROR_CASES]
        requests.append(SubmitRequest("GGGG", "CCCC", id="good"))
        results = serve_many(requests)
        by_id = {r.id: r for r in results}
        assert by_id["good"].ok and by_id["good"].score == 12.0
        for name, *_ , pinned in ERROR_CASES:
            assert not by_id[name].ok
            assert by_id[name].error_type == pinned


class TestRegenGuard:
    def test_regen_refuses_under_ci(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CI", "true")
        with pytest.raises(BpmaxError, match="refusing"):
            regen_manifest(tmp_path / "manifest.json")
        assert not (tmp_path / "manifest.json").exists()

    def test_regen_outside_ci_round_trips(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CI", raising=False)
        monkeypatch.delenv("GITHUB_ACTIONS", raising=False)
        p = regen_manifest(tmp_path / "manifest.json")
        fresh = load_manifest(p)
        pinned = load_manifest(MANIFEST)
        assert fresh["cases"] == pinned["cases"], (
            "freshly computed scores differ from the checked-in manifest"
        )
        assert fresh["errors"] == pinned["errors"]
