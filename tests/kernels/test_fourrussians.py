"""Tests for the Four-Russians backend: tables, encoders, precondition,
bit-identity, observe counters, sparsification and the autotune sweep."""

import itertools

import numpy as np
import pytest

from repro.core.engine import make_engine
from repro.core.reference import bpmax_recursive, prepare_inputs
from repro.kernels import BACKENDS, DEFAULT_BACKEND
from repro.kernels.autotune import (
    default_candidates,
    default_q_candidates,
    fr_cache_key,
    get_block_width,
    tune_fourrussians,
)
from repro.kernels.fourrussians_tables import (
    EXACT_INT_LIMIT,
    MAX_CODES,
    TABLE_CACHE_BUDGET,
    BoundedScoresCheck,
    FourRussiansTables,
    cache_block_width,
    check_bounded_scores,
    encode_col_blocks,
    encode_row_blocks,
    get_tables,
    heuristic_q,
    max_block_width,
    nussinov_fourrussians,
)
from repro.observe import collecting
from repro.observe.report import predicted_fr_cells
from repro.rna.nussinov import nussinov_reference
from repro.rna.scoring import ScoringModel
from repro.rna.sequence import random_pair


@pytest.fixture
def rng():
    return np.random.default_rng(17)


# -- block-width arithmetic ----------------------------------------------------


class TestBlockWidths:
    def test_max_block_width_respects_code_cap(self):
        for d in (0, 1, 2, 3, 7):
            q = max_block_width(d)
            assert (d + 1) ** (q - 1) <= MAX_CODES
            assert d == 0 or (d + 1) ** q > MAX_CODES

    def test_cache_block_width_respects_budget(self):
        for d in (1, 2, 3):
            q = cache_block_width(d)
            t = FourRussiansTables(d, q)
            assert t.comb.nbytes <= TABLE_CACHE_BUDGET
            # one step wider must blow the budget (or the code cap)
            if q < max_block_width(d):
                assert FourRussiansTables(d, q + 1).comb.nbytes > TABLE_CACHE_BUDGET

    def test_heuristic_q_clamped_by_cache_budget(self):
        # d=3 at large M: log2 would pick 7+, the budget caps lower
        assert heuristic_q(160, 3) == cache_block_width(3)
        assert heuristic_q(8, 3) == 3  # small M: log2 rules
        assert heuristic_q(2, 3) == 2  # floor


# -- table construction --------------------------------------------------------


def _brute_tables(d, q):
    """Brute-force pf/pu from first principles over all digit strings.

    Codes are little-endian in base ``d + 1`` (digit ``k`` scales by
    ``(d + 1)**k``), matching the ``powers`` vector of the tables.
    """
    t = FourRussiansTables(d, q)

    def prefix_of(code):
        digits = [(code // (d + 1) ** k) % (d + 1) for k in range(q - 1)]
        return np.concatenate([[0], np.cumsum(digits)])

    for ca in range(t.ncodes):
        pa = prefix_of(ca)
        for cb in range(t.ncodes):
            yield t, ca, cb, pa, prefix_of(cb)


@pytest.mark.parametrize("d,q", [(1, 3), (2, 3), (3, 2)])
class TestTables:
    def test_pair_matches_brute_force(self, d, q):
        for t, ca, cb, pa, pb in _brute_tables(d, q):
            assert t.pair[ca, cb] == max(pa[k] - pb[k] for k in range(q))

    def test_pf_matches_brute_force(self, d, q):
        for t, ca, cb, pa, pb in _brute_tables(d, q):
            for t0 in range(q):
                want = max(pa[k] - pa[t0] - pb[k] for k in range(t0, q))
                assert t.pf[t0, ca, cb] == want

    def test_pu_matches_brute_force(self, d, q):
        for t, ca, cb, pa, pb in _brute_tables(d, q):
            for tmax in range(1, q):
                want = max(pa[k] - pb[k] for k in range(tmax))
                assert t.pu[tmax, ca, cb] == want

    def test_comb_layout_views(self, d, q):
        t = FourRussiansTables(d, q)
        # pu occupies [0, q), pf occupies [q, 2q); pair is pf[0]
        assert np.shares_memory(t.pu, t.comb) and np.shares_memory(t.pf, t.comb)
        assert t.comb.shape == (2 * q, t.ncodes, t.ncodes)
        np.testing.assert_array_equal(t.comb[q], t.pair)
        assert t.pair_flat.base is not None


class TestTableCache:
    def test_get_tables_is_cached(self):
        assert get_tables(2, 3) is get_tables(2, 3)

    def test_rejects_code_overflow(self):
        with pytest.raises(ValueError, match="MAX_CODES"):
            FourRussiansTables(31, 4)

    def test_rejects_degenerate_width(self):
        with pytest.raises(ValueError, match=">= 2"):
            FourRussiansTables(2, 1)


# -- difference encoders -------------------------------------------------------


class TestEncoders:
    def test_row_blocks_round_trip(self, rng):
        q, d = 3, 2
        t = get_tables(d, q)
        mat = np.cumsum(rng.integers(0, d + 1, size=(4, 10)), axis=1).astype(
            np.float32
        )
        codes, base = encode_row_blocks(mat, q, d, t.powers)
        assert codes.shape == base.shape == (4, 10 // q)
        for i in range(4):
            for kb in range(10 // q):
                assert base[i, kb] == mat[i, kb * q]
                for k in range(q):
                    got = base[i, kb] + t.prefix[codes[i, kb], k]
                    assert got == mat[i, kb * q + k]

    def test_col_blocks_round_trip(self, rng):
        q, d = 3, 2
        t = get_tables(d, q)
        mat = (
            np.cumsum(rng.integers(0, d + 1, size=(9, 5)), axis=0)[::-1]
            .astype(np.float32)
            .copy()
        )
        codes, base = encode_col_blocks(mat, q, d, t.powers)
        for kb in range(9 // q):
            for j in range(5):
                assert base[kb, j] == mat[kb * q, j]
                for k in range(q):
                    got = base[kb, j] - t.prefix[codes[kb, j], k]
                    assert got == mat[kb * q + k, j]

    def test_partial_blocks_not_encoded(self):
        t = get_tables(1, 4)
        codes, base = encode_row_blocks(np.zeros((3, 7), np.float32), 4, 1, t.powers)
        assert codes.shape == (3, 1)  # 7 // 4

    def test_neg_inf_regions_do_not_poison(self):
        t = get_tables(2, 2)
        mat = np.full((2, 4), -np.inf, dtype=np.float32)
        mat[0] = [0.0, 1.0, 2.0, 2.0]
        codes, base = encode_row_blocks(mat, 2, 2, t.powers)
        assert np.all(codes >= 0) and np.all(codes < t.ncodes)


# -- Nussinov prototype --------------------------------------------------------


class TestNussinovPrototype:
    @pytest.mark.parametrize("seq", ["GGGCCC", "GCAUGCAUGCAU", "AUGCGCGAUAUGCCG"])
    @pytest.mark.parametrize("q", [None, 2, 4])
    def test_bitwise_equal_to_reference(self, seq, q):
        ref = nussinov_reference(seq)
        got = nussinov_fourrussians(seq, q=q)
        np.testing.assert_array_equal(got, ref)

    def test_refuses_unbounded_model(self):
        bad = ScoringModel(pair_weights={frozenset("GC"): 2.5})
        with pytest.raises(ValueError, match="precondition"):
            nussinov_fourrussians("GGCC", model=bad)


# -- precondition checker ------------------------------------------------------


class TestPrecondition:
    def test_default_model_passes(self):
        check = check_bounded_scores(ScoringModel())
        assert check == BoundedScoresCheck(ok=True, d=3)

    def test_prepared_inputs_pass(self):
        s1, s2 = random_pair(6, 8, 3)
        assert check_bounded_scores(prepare_inputs(s1, s2)).ok

    @pytest.mark.parametrize(
        "weights,why",
        [
            ({frozenset("GC"): 2.5}, "not integers"),
            ({frozenset("GC"): -1.0}, "negative"),
            ({frozenset("GC"): float(2 * EXACT_INT_LIMIT)}, "exceed"),
        ],
    )
    def test_violations_detected(self, weights, why):
        check = check_bounded_scores(ScoringModel(pair_weights=weights))
        assert not check.ok and why in check.reason


class TestEngineFallback:
    """Satellite: violating models fall back, never compute a wrong score."""

    def _violating_inputs(self):
        model = ScoringModel(pair_weights={frozenset("GC"): 1.5})
        s1, s2 = random_pair(5, 7, 11)
        return prepare_inputs(s1, s2, model=model)

    def test_falls_back_with_structured_note(self):
        inputs = self._violating_inputs()
        engine = make_engine(inputs, variant="batched", backend="fourrussians")
        note = engine.backend_note
        assert note is not None
        assert note["requested"] == "fourrussians"
        assert note["resolved"] == BACKENDS["fourrussians"].fallback
        assert note["resolved"] == DEFAULT_BACKEND
        assert "not integers" in note["reason"]

    def test_fallback_score_is_correct(self):
        inputs = self._violating_inputs()
        got = make_engine(inputs, variant="batched", backend="fourrussians").run()
        assert got == bpmax_recursive(inputs)

    def test_conforming_inputs_carry_no_note(self):
        s1, s2 = random_pair(5, 7, 11)
        engine = make_engine(
            prepare_inputs(s1, s2), variant="batched", backend="fourrussians"
        )
        assert engine.backend_note is None and engine._fr is not None

    def test_threaded_run_keeps_generic_kernel_bit_identical(self):
        s1, s2 = random_pair(6, 9, 13)
        inputs = prepare_inputs(s1, s2)
        ref = make_engine(inputs, variant="batched", backend="numpy-batched").run()
        got = make_engine(
            inputs, variant="batched", backend="fourrussians", threads=2
        ).run()
        assert got == ref


# -- bit-identity of the blocked kernel ----------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("n,m", [(4, 5), (6, 9), (8, 12), (5, 16), (7, 13)])
    @pytest.mark.parametrize("q", [None, 2, 3])
    @pytest.mark.parametrize("sparsify", [True, False])
    def test_table_matches_batched(self, n, m, q, sparsify):
        s1, s2 = random_pair(n, m, n * 31 + m)
        inputs = prepare_inputs(s1, s2)
        ref = make_engine(inputs, variant="batched", backend="numpy-batched")
        ref_score = ref.run()
        fr = make_engine(
            inputs,
            variant="batched",
            backend="fourrussians",
            fr_q=q,
            fr_sparsify=sparsify,
        )
        assert fr.run() == ref_score
        np.testing.assert_array_equal(fr.table.packed, ref.table.packed)

    def test_matches_recursive_oracle(self):
        s1, s2 = random_pair(5, 8, 21)
        inputs = prepare_inputs(s1, s2)
        got = make_engine(inputs, variant="batched", backend="fourrussians").run()
        assert got == bpmax_recursive(inputs)

    def test_tiny_inner_strand(self):
        # m < q: no full blocks at all, boundary pass carries the window
        s1, s2 = random_pair(6, 2, 9)
        inputs = prepare_inputs(s1, s2)
        ref = make_engine(inputs, variant="batched", backend="numpy-batched").run()
        assert make_engine(inputs, variant="batched", backend="fourrussians").run() == ref


# -- observe counters ----------------------------------------------------------


class TestCounters:
    @pytest.mark.parametrize("n,m,q", [(4, 6, 2), (5, 9, 3), (6, 13, 3)])
    def test_predicted_equals_observed_without_pruning(self, n, m, q):
        s1, s2 = random_pair(n, m, m)
        inputs = prepare_inputs(s1, s2)
        with collecting() as c:
            make_engine(
                inputs,
                variant="batched",
                backend="fourrussians",
                fr_q=q,
                fr_sparsify=False,
            ).run()
        want = predicted_fr_cells(n, m, q)
        got = c.as_dict()
        assert got["fr_lookup_cells"] == want["fr_lookup_cells"]
        assert got["fr_boundary_cells"] == want["fr_boundary_cells"]
        assert got["r0_splits_pruned"] == 0

    def test_table_build_counted_once_per_config(self):
        from repro.kernels import fourrussians_tables as ft

        ft._TABLES.pop("fr|d3|q2", None)
        with collecting() as c:
            get_tables(3, 2)
            get_tables(3, 2)
        assert c.fr_table_builds == 1 and c.fr_table_cells > 0

    def test_sparsifiable_input_prunes_splits(self):
        # no intermolecular weight and an unpairable inner strand: whole
        # splits are dominated and must be skipped, not just bounded
        model = ScoringModel(inter_weights={})
        inputs = prepare_inputs("GGGCCCGGGCCC", "AAAAAAAAAA", model=model)
        with collecting() as c:
            fr = make_engine(inputs, variant="batched", backend="fourrussians")
            score = fr.run()
        assert c.r0_splits_pruned > 0
        ref = make_engine(inputs, variant="batched", backend="numpy-batched").run()
        assert score == ref

    def test_pruned_run_counts_fewer_lookups(self):
        model = ScoringModel(inter_weights={})
        inputs = prepare_inputs("GGGCCCGGGCCC", "AAAAAAAAAA", model=model)
        def cells(sparsify):
            with collecting() as c:
                make_engine(
                    inputs,
                    variant="batched",
                    backend="fourrussians",
                    fr_sparsify=sparsify,
                ).run()
            return c.fr_lookup_cells
        assert cells(True) < cells(False)


# -- registry capability flags -------------------------------------------------


class TestRegistration:
    def test_registered_with_capabilities(self):
        b = BACKENDS["fourrussians"]
        assert b.available
        assert b.capabilities.get("bounded_scores")
        assert b.capabilities.get("workspace_reuse")
        assert b.capabilities.get("autotune")
        assert b.fallback == DEFAULT_BACKEND


# -- autotune ------------------------------------------------------------------


class TestAutotune:
    def test_default_candidates_deduplicated(self):
        # n=16, threads=4: n//2 == 8 collides with the power-of-two ladder
        cands = default_candidates(16, 4)
        assert cands == sorted(set(cands))
        assert len(cands) == len(set(cands))

    def test_default_q_candidates_range(self):
        qs = default_q_candidates(80, 3)
        assert qs[0] == 2 and qs == sorted(set(qs))
        assert qs[-1] <= max_block_width(3)
        assert qs[-1] >= cache_block_width(3)

    def test_fr_cache_key_includes_bound(self):
        a = fr_cache_key(8, 16, 1, 3)
        b = fr_cache_key(8, 16, 1, 2)
        assert a != b and a.endswith("|fr|d3")

    def test_tune_round_trip(self, tmp_path):
        path = tmp_path / "autotune.json"
        result = tune_fourrussians(
            5, 12, q_candidates=[2, 3, 3], repeats=1, path=path
        )
        assert result.param == "fr_q"
        assert result.best_wb in (2, 3)
        assert result.best_sparsify in (True, False)
        assert set(result.candidates) == {"q2|sp0", "q2|sp1", "q3|sp0", "q3|sp1"}
        # the persisted winner is what engines pick up afterwards
        assert get_block_width(5, 12, 1, 3, path=path) == result.best_wb

    def test_get_block_width_falls_back_to_heuristic(self, tmp_path):
        path = tmp_path / "empty.json"
        assert get_block_width(5, 24, 1, 3, path=path) == heuristic_q(24, 3)

    def test_tune_refuses_violating_model(self, tmp_path, monkeypatch):
        from repro.kernels import autotune as at

        def bad_check(_):
            return BoundedScoresCheck(ok=False, reason="unit test")

        monkeypatch.setattr(
            "repro.kernels.fourrussians_tables.check_bounded_scores", bad_check
        )
        with pytest.raises(ValueError, match="precondition"):
            at.tune_fourrussians(4, 8, repeats=1, path=tmp_path / "x.json")


# -- serving passthrough -------------------------------------------------------


class TestServePassthrough:
    def test_scheduler_accepts_fourrussians_backend(self):
        from repro.serve import BatchScheduler, SubmitRequest

        req = SubmitRequest(
            "GGGG", "CCCC", variant="batched", backend="fourrussians"
        )
        with BatchScheduler(cache=0) as sched:
            (r,) = sched.serve_all([req])
        assert r.ok and r.score == 12.0
