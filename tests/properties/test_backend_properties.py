"""Property-based suite for the kernel backends (requires Hypothesis;
skipped cleanly without it).

Every registered backend replaces only the stacked split reduction of
the ``batched`` engine, and ⊕ combines each candidate exactly once, so
no backend and no backend knob may change a result:

* every backend's run equals the memoized recursion oracle and leaves
  packed tables bit-identical to ``numpy-batched`` under max-plus;
* every backend's log-sum-exp run stays within the golden tolerance of
  ``numpy-batched`` (backends without the algebra fall back);
* any drawn window-block width and thread count of the ``tiled``
  wavefront executor, and any drawn block width of the
  ``fourrussians`` lookup tables, with or without split pruning, is
  exact.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="property-based suite needs the hypothesis package"
)
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.engine import make_engine  # noqa: E402
from repro.core.reference import bpmax_recursive, prepare_inputs  # noqa: E402
from repro.core.vectorized import VectorizedBPMax  # noqa: E402
from repro.kernels import BACKENDS, TiledExecutor, available_backends  # noqa: E402

SETTINGS = settings(max_examples=25, deadline=None)

BACKEND_NAMES = list(available_backends())

#: short RNA strands; lengths small enough for the recursion oracle
rna = st.text(alphabet="ACGU", min_size=1, max_size=6)


def _full_tables(engine):
    n = engine.inputs.n
    return {
        (i1, j1): np.array(engine.table.inner(i1, j1), copy=True)
        for i1 in range(n)
        for j1 in range(i1, n)
    }


def _assert_tables_equal(got, expected):
    for key, block in expected.items():
        np.testing.assert_array_equal(got[key], block, err_msg=str(key))


# the recursion oracle adjusts sys.recursionlimit per call, which
# Hypothesis reports as a mutated-state warning; silence it
@pytest.mark.filterwarnings("ignore::hypothesis.errors.HypothesisWarning")
class TestAnyBackendMatchesReference:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @SETTINGS
    @given(seq1=rna, seq2=rna)
    def test_matches_oracle_and_batched_tables(self, backend, seq1, seq2):
        inp = prepare_inputs(seq1, seq2)
        eng = make_engine(inp, variant="batched", backend=backend)
        ref = make_engine(inp, variant="batched")
        score = eng.run()
        assert score == bpmax_recursive(inp)
        assert score == ref.run()
        _assert_tables_equal(_full_tables(eng), _full_tables(ref))

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @SETTINGS
    @given(seq1=rna, seq2=rna)
    def test_logsumexp_close_to_reference(self, backend, seq1, seq2):
        inp = prepare_inputs(seq1, seq2, semiring="logsumexp")
        eng = make_engine(inp, variant="batched", backend=backend)
        got = eng.run()
        ref = make_engine(inp, variant="batched").run()
        assert got == pytest.approx(ref, abs=1e-9)
        if "logsumexp" not in BACKENDS[backend].semirings:
            assert eng.backend_note["requested"] == backend


@pytest.mark.filterwarnings("ignore::hypothesis.errors.HypothesisWarning")
class TestBackendKnobsNeverChangeResults:
    @SETTINGS
    @given(
        seq1=rna,
        seq2=rna,
        wb=st.integers(min_value=1, max_value=8),
        threads=st.integers(min_value=1, max_value=3),
    )
    def test_tiled_any_window_block_and_threads(self, seq1, seq2, wb, threads):
        inp = prepare_inputs(seq1, seq2)
        ref = make_engine(inp, variant="batched")
        expected = ref.run()
        eng = make_engine(inp, variant="batched", backend="tiled", threads=threads)
        assert TiledExecutor(eng, wb=wb).run() == expected
        _assert_tables_equal(_full_tables(eng), _full_tables(ref))

    @SETTINGS
    @given(
        seq1=rna,
        seq2=rna,
        q=st.sampled_from([None, 2, 3, 4]),
        sparsify=st.booleans(),
    )
    def test_fourrussians_any_block_width(self, seq1, seq2, q, sparsify):
        inp = prepare_inputs(seq1, seq2)
        ref = make_engine(inp, variant="batched")
        expected = ref.run()
        eng = VectorizedBPMax(
            inp,
            variant="batched",
            backend="fourrussians",
            fr_q=q,
            fr_sparsify=sparsify,
        )
        assert eng.run() == expected
        _assert_tables_equal(_full_tables(eng), _full_tables(ref))
