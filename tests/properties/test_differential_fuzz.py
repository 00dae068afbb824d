"""Differential fuzzing across every engine x backend x thread count.

One random problem, every registered execution configuration: all must
produce the bit-identical score AND the identical logical R0-R4 op
counters (the counters are incremented from closed forms per window, so
they are part of the equivalence contract — a configuration that skips
or duplicates work is caught even if its score happens to agree).

The same matrix runs under the ``logsumexp`` semiring against the
recursive BPPart reference — there the contract is the corpus
tolerance (1e-9), not bit-identity, because ``logaddexp`` rounds under
reassociation; and the max-plus-only backend (fourrussians) must
resolve to a semiring-capable fallback and *still* agree.  The
max-plus bit-identity test doubles as the refactor guard: engines are
semiring-parametric now, and for max-plus the parametric path must
dispatch to the identical kernels.

Failures are reproducible: the ``fuzz_rng`` fixture prints its derived
seed, and ``BPMAX_TEST_SEED`` replays the suite-wide stream.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.bppart import bppart_recursive
from repro.core.engine import ENGINES, make_engine
from repro.core.reference import bpmax_recursive, prepare_inputs
from repro.kernels import available_backends
from repro.observe import collecting
from repro.rna.sequence import RnaSequence

NUCS = "ACGU"


def _random_pair(rng: np.random.Generator) -> tuple[RnaSequence, RnaSequence]:
    n = int(rng.integers(2, 7))
    m = int(rng.integers(2, 7))
    mk = lambda k: RnaSequence("".join(rng.choice(list(NUCS), size=k)))
    return mk(n), mk(m)


def _configs():
    """Every runnable (variant, engine_kwargs) configuration."""
    out = [("baseline", {})]
    backends = available_backends()
    for variant in ENGINES:
        if variant == "baseline":
            continue
        for backend in backends:
            for threads in (1, 2):
                out.append((variant, {"backend": backend, "threads": threads}))
    return out


CONFIGS = _configs()


@pytest.mark.parametrize("round_idx", range(3))
def test_all_configs_bit_identical_scores_and_counters(fuzz_rng, round_idx):
    rng = np.random.default_rng(fuzz_rng.integers(0, 2**63 - 1) + round_idx)
    seq1, seq2 = _random_pair(rng)
    inp = prepare_inputs(seq1, seq2)
    oracle = bpmax_recursive(inp)

    results = []
    for variant, kwargs in CONFIGS:
        with collecting() as c:
            score = make_engine(inp, variant, **kwargs).run()
        results.append((variant, kwargs, score, c.op_counts(), c.cells))

    ref_variant, ref_kwargs, ref_score, ref_ops, ref_cells = results[0]
    assert ref_score == oracle, f"baseline disagrees with oracle on {seq1}/{seq2}"
    for variant, kwargs, score, ops, cells in results[1:]:
        label = f"{variant} {kwargs} on ({seq1!s}, {seq2!s})"
        assert score == ref_score, f"score mismatch: {label}"
        assert ops == ref_ops, f"op-counter mismatch: {label}"
        assert cells == ref_cells, f"cell-counter mismatch: {label}"


@pytest.mark.parametrize("round_idx", range(3))
def test_logsumexp_configs_agree_with_bppart_reference(fuzz_rng, round_idx):
    """Every vectorized config reproduces the recursive BPPart value
    within the corpus tolerance under the logsumexp semiring."""
    rng = np.random.default_rng(fuzz_rng.integers(0, 2**63 - 1) + 7000 + round_idx)
    seq1, seq2 = _random_pair(rng)
    inp = prepare_inputs(seq1, seq2, semiring="logsumexp")
    ref = bppart_recursive(inp)

    for variant, kwargs in CONFIGS:
        if variant == "baseline":  # scalar reference engine is max-plus only
            continue
        score = make_engine(inp, variant, **kwargs).run()
        label = f"{variant} {kwargs} on ({seq1!s}, {seq2!s})"
        assert math.isclose(score, ref, rel_tol=1e-9, abs_tol=1e-9), (
            f"logsumexp mismatch: {label}: engine {score!r} vs reference {ref!r}"
        )


@pytest.mark.parametrize("round_idx", range(2))
def test_maxplus_unchanged_by_explicit_semiring(fuzz_rng, round_idx):
    """Passing semiring='max-plus' explicitly is bit-identical to the
    historical default path on every config."""
    rng = np.random.default_rng(fuzz_rng.integers(0, 2**63 - 1) + 9000 + round_idx)
    seq1, seq2 = _random_pair(rng)
    implicit = prepare_inputs(seq1, seq2)
    explicit = prepare_inputs(seq1, seq2, semiring="max-plus")
    for variant, kwargs in CONFIGS:
        a = make_engine(implicit, variant, **kwargs).run()
        b = make_engine(explicit, variant, **kwargs).run()
        assert a == b, f"{variant} {kwargs} on ({seq1!s}, {seq2!s})"


def test_maxplus_only_backend_falls_back_with_structured_note(fuzz_rng):
    """A max-plus-only backend requested for a logsumexp run resolves to
    a capable fallback and records why."""
    rng = np.random.default_rng(fuzz_rng.integers(0, 2**63 - 1))
    seq1, seq2 = _random_pair(rng)
    inp = prepare_inputs(seq1, seq2, semiring="logsumexp")
    ref = bppart_recursive(inp)
    engine = make_engine(inp, "batched", backend="fourrussians")
    score = engine.run()
    assert math.isclose(score, ref, rel_tol=1e-9, abs_tol=1e-9)
    note = engine.backend_note
    assert note is not None and note["requested"] == "fourrussians"
    assert "logsumexp" in note["reason"]
    assert engine.backend.name == note["resolved"]
    assert "logsumexp" in engine.backend.semirings


def test_config_matrix_covers_every_backend_and_engine():
    variants = {v for v, _ in CONFIGS}
    assert variants == set(ENGINES)
    used_backends = {kw["backend"] for _, kw in CONFIGS if "backend" in kw}
    assert used_backends == set(available_backends())
    threads = {kw.get("threads") for _, kw in CONFIGS if kw}
    assert {1, 2} <= threads
