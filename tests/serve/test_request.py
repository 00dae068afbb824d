"""Unit tests for the serving request/result objects and JSONL parsing."""

from __future__ import annotations

import json

import pytest

from repro.core.engine import DEFAULT_VARIANT
from repro.robust.errors import BpmaxError
from repro.rna.scoring import DEFAULT_MODEL, ScoringModel
from repro.serve.request import (
    ServeResult,
    SubmitRequest,
    batch_key,
    cache_key,
    parse_request_line,
    request_from_dict,
    scoring_fingerprint,
)


class TestScoringFingerprint:
    def test_stable_across_calls(self):
        assert scoring_fingerprint(DEFAULT_MODEL) == scoring_fingerprint(DEFAULT_MODEL)

    def test_insertion_order_independent(self):
        a = ScoringModel(
            pair_weights={frozenset("GC"): 3.0, frozenset("AU"): 2.0}
        )
        b = ScoringModel(
            pair_weights={frozenset("AU"): 2.0, frozenset("GC"): 3.0}
        )
        assert scoring_fingerprint(a) == scoring_fingerprint(b)

    def test_different_weights_differ(self):
        tweaked = ScoringModel(pair_weights={frozenset("GC"): 4.0})
        assert scoring_fingerprint(tweaked) != scoring_fingerprint(DEFAULT_MODEL)

    def test_format(self):
        fp = scoring_fingerprint(DEFAULT_MODEL)
        assert len(fp) == 12
        int(fp, 16)  # pure hex


class TestSubmitRequestValidation:
    def test_defaults(self):
        r = SubmitRequest("GGGG", "CCCC")
        assert r.variant == DEFAULT_VARIANT
        assert r.backend is None and not r.structure
        assert r.retries == 0 and r.fallback == () and r.deadline_s is None

    def test_unknown_variant_rejected(self):
        with pytest.raises(BpmaxError, match="unknown variant"):
            SubmitRequest("G", "C", variant="warp-drive")

    def test_unknown_fallback_rejected(self):
        with pytest.raises(BpmaxError, match="unknown fallback"):
            SubmitRequest("G", "C", fallback=("warp-drive",))

    def test_negative_retries_rejected(self):
        with pytest.raises(BpmaxError, match="retries"):
            SubmitRequest("G", "C", retries=-1)

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(BpmaxError, match="deadline"):
            SubmitRequest("G", "C", deadline_s=0.0)


class TestKeys:
    def test_cache_key_normalizes_sequences(self):
        a = cache_key(SubmitRequest("gcau", "AUGC"))
        b = cache_key(SubmitRequest("GCAU", "augc"))
        assert a == b

    def test_cache_key_normalizes_dna(self):
        assert cache_key(SubmitRequest("GCTT", "AAGC")) == cache_key(
            SubmitRequest("GCUU", "AAGC")
        )

    def test_cache_key_ignores_variant(self):
        # the engine-equivalence contract makes the answer variant-free
        a = cache_key(SubmitRequest("GGGG", "CCCC", variant="coarse"))
        b = cache_key(SubmitRequest("GGGG", "CCCC", variant="batched"))
        assert a == b

    def test_cache_key_includes_backend(self):
        a = cache_key(SubmitRequest("GGGG", "CCCC"))
        b = cache_key(SubmitRequest("GGGG", "CCCC", backend="numpy"))
        assert a != b

    def test_batch_key_groups_by_shape_and_variant(self):
        k1 = batch_key(SubmitRequest("GGGG", "CCCC"))
        k2 = batch_key(SubmitRequest("AUAU", "UAUA"))  # same 4x4 shape
        k3 = batch_key(SubmitRequest("GGGGG", "CCCC"))  # 5x4
        k4 = batch_key(SubmitRequest("GGGG", "CCCC", variant="coarse"))
        assert k1 == k2
        assert k1 != k3
        assert k1 != k4

    def test_invalid_sequence_raises(self):
        with pytest.raises(BpmaxError):
            cache_key(SubmitRequest("GXG", "CCC"))


class TestServeResult:
    def test_ok_property(self):
        assert ServeResult("a", "G", "C", score=3.0).ok
        assert not ServeResult("a", "G", "C", error="boom").ok

    def test_json_round_trip(self):
        r = ServeResult(
            "a", "GGGG", "CCCC", score=12.0, variant="hybrid-tiled",
            cached=True, batch=7, wall_s=0.0012345678,
        )
        data = json.loads(r.to_json())
        assert data["id"] == "a" and data["ok"] is True
        assert data["score"] == 12.0 and data["cached"] is True
        assert data["batch"] == 7
        assert data["wall_s"] == round(0.0012345678, 6)

    def test_error_result_serializes(self):
        r = ServeResult("b", "", "C", error="empty", error_type="InvalidSequenceError")
        data = json.loads(r.to_json())
        assert data["ok"] is False
        assert data["score"] is None
        assert data["error_type"] == "InvalidSequenceError"


class TestRequestFromDict:
    def test_minimal(self):
        r = request_from_dict({"seq1": "G", "seq2": "C"})
        assert r.seq1 == "G" and r.variant == DEFAULT_VARIANT

    def test_full(self):
        r = request_from_dict(
            {
                "id": "x",
                "seq1": "GGGG",
                "seq2": "CCCC",
                "variant": "batched",
                "backend": "numpy",
                "structure": True,
                "deadline": 2,
                "retries": 1,
                "fallback": ["hybrid", "coarse"],
            }
        )
        assert r.id == "x" and r.variant == "batched" and r.backend == "numpy"
        assert r.structure and r.deadline_s == 2.0 and r.retries == 1
        assert r.fallback == ("hybrid", "coarse")

    def test_fallback_comma_string(self):
        r = request_from_dict({"seq1": "G", "seq2": "C", "fallback": "hybrid, coarse"})
        assert r.fallback == ("hybrid", "coarse")

    def test_unknown_key_rejected(self):
        with pytest.raises(BpmaxError, match="unknown key"):
            request_from_dict({"seq1": "G", "seq2": "C", "sequence3": "A"})

    def test_missing_required_key(self):
        with pytest.raises(BpmaxError, match="seq2"):
            request_from_dict({"seq1": "G"})

    def test_non_string_sequence_rejected(self):
        with pytest.raises(BpmaxError, match="must be a string"):
            request_from_dict({"seq1": "G", "seq2": 42})

    def test_non_numeric_deadline_rejected(self):
        with pytest.raises(BpmaxError, match="deadline"):
            request_from_dict({"seq1": "G", "seq2": "C", "deadline": "soon"})


class TestParseRequestLine:
    def test_blank_and_comment_lines_skip(self):
        assert parse_request_line("") is None
        assert parse_request_line("   \n") is None
        assert parse_request_line("# a comment") is None

    def test_parses_and_autonames(self):
        r = parse_request_line('{"seq1": "G", "seq2": "C"}', lineno=3)
        assert r is not None and r.id == "line3"

    def test_explicit_id_kept(self):
        r = parse_request_line('{"seq1": "G", "seq2": "C", "id": "mine"}', lineno=3)
        assert r.id == "mine"

    def test_invalid_json_names_line(self):
        with pytest.raises(BpmaxError, match="line 7"):
            parse_request_line("{not json", lineno=7)

    def test_array_line_rejected(self):
        with pytest.raises(BpmaxError, match="JSON object"):
            parse_request_line('["G", "C"]', lineno=1)
