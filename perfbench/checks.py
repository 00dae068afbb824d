"""Correctness oracles of the benchmark, written apart from the program.

Everything here is computed by the benchmark itself from the sequences
and ``ScoringModel.pair_weights``; nothing calls the engines, the
Nussinov fills or the traceback of ``repro``.  The only program function
used is ``enumerate_structures``, the brute-force enumeration of the
structure space, which shares no code with the recurrence engines.
"""

from __future__ import annotations

import math
from math import comb


def pair_weight(weights: dict, a: str, b: str) -> float:
    """Weight of pairing bases ``a`` and ``b`` (0 when they cannot pair)."""
    return float(weights.get(frozenset((a, b)), 0.0))


def nussinov_best(seq: str, weights: dict) -> float:
    """Best weight of a non-crossing intramolecular pairing of ``seq``.

    Plain O(n^3) fill with no minimum loop, the BPMax model's fold:
    ``S[i][j] = max(S[i+1][j], max_k w(i, k) + S[i+1][k-1] + S[k+1][j])``.
    """
    n = len(seq)
    if n < 2:
        return 0.0
    s = [[0.0] * (n + 1) for _ in range(n + 1)]  # s[i][j+1]: best of seq[i..j]
    w = [[pair_weight(weights, a, b) for b in seq] for a in seq]
    for i in range(n - 2, -1, -1):
        row_next = s[i + 1]
        wi = w[i]
        row = s[i]
        for j in range(i + 1, n):
            best = row_next[j + 1]
            for k in range(i + 1, j + 1):
                if wi[k] > 0.0:
                    cand = wi[k] + row_next[k] + s[k + 1][j + 1]
                    if cand > best:
                        best = cand
            row[j + 1] = best
    return s[0][n]


def structure_errors(
    seq1: str,
    seq2: str,
    pairs1,
    pairs2,
    inter,
    weights: dict,
    expected: float,
) -> list[str]:
    """Problems with one interaction structure (empty list: valid).

    Checks that intramolecular pairs are ordered and non-crossing, that
    every base is used at most once, that intermolecular pairs are
    monotone in both strands, and that the weight summed here equals
    ``expected``.
    """
    errors: list[str] = []
    for name, seq, pairs in (("strand1", seq1, pairs1), ("strand2", seq2, pairs2)):
        ps = sorted(tuple(p) for p in pairs)
        for i, j in ps:
            if not 0 <= i < j < len(seq):
                errors.append(f"{name}: pair ({i}, {j}) out of order or range")
        for a, (i, j) in enumerate(ps):
            for k, l in ps[a + 1 :]:
                if i < k < j < l:
                    errors.append(f"{name}: pairs ({i}, {j}) and ({k}, {l}) cross")
    used1: list[int] = [p for pair in pairs1 for p in pair]
    used2: list[int] = [p for pair in pairs2 for p in pair]
    used1 += [i1 for i1, _ in inter]
    used2 += [i2 for _, i2 in inter]
    for name, used in (("strand1", used1), ("strand2", used2)):
        if len(used) != len(set(used)):
            errors.append(f"{name}: a base is used by more than one pair")
    ordered = sorted(tuple(p) for p in inter)
    for (a1, a2), (b1, b2) in zip(ordered, ordered[1:]):
        if not (a1 < b1 and a2 < b2):
            errors.append(f"intermolecular pairs ({a1}, {a2}), ({b1}, {b2}) not monotone")
    for i1, i2 in ordered:
        if not (0 <= i1 < len(seq1) and 0 <= i2 < len(seq2)):
            errors.append(f"intermolecular pair ({i1}, {i2}) out of range")
    if errors:
        return errors
    total = sum(pair_weight(weights, seq1[i], seq1[j]) for i, j in pairs1)
    total += sum(pair_weight(weights, seq2[i], seq2[j]) for i, j in pairs2)
    total += sum(pair_weight(weights, seq1[i1], seq2[i2]) for i1, i2 in inter)
    if total != expected:
        errors.append(f"structure weight {total} != score {expected}")
    return errors


def structure_weights(seq1: str, seq2: str, structures, weights: dict) -> list[float]:
    """Weight of each enumerated structure, summed from ``pair_weights``."""
    out = []
    for s in structures:
        total = sum(pair_weight(weights, seq1[i], seq1[j]) for i, j in s.pairs1)
        total += sum(pair_weight(weights, seq2[i], seq2[j]) for i, j in s.pairs2)
        total += sum(pair_weight(weights, seq1[i1], seq2[i2]) for i1, i2 in s.inter)
        out.append(total)
    return out


def log_partition(weights: list[float]) -> float:
    """``log(sum(exp(w)))`` over structure weights, computed stably."""
    top = max(weights)
    return top + math.log(sum(math.exp(w - top) for w in weights))


def closed_form_counts(n: int, m: int) -> dict[str, int]:
    """Candidate counts of the BPMax recurrence for one (N, M) table fill.

    An outer window is any ``i1 <= j1`` (``N(N+1)/2`` of them) and an
    outer split any ``i1 <= k1 < j1`` (``C(N+1, 3)``); likewise inside.
    R0 pairs an outer with an inner split; R1/R2 take one inner split
    per outer window; R3/R4 take one outer split per inner cell.
    """
    win_n, win_m = comb(n + 1, 2), comb(m + 1, 2)
    split_n, split_m = comb(n + 1, 3), comb(m + 1, 3)
    return {
        "windows": win_n,
        "cells": win_n * win_m,
        "ops_r0": split_n * split_m,
        "ops_r1": win_n * split_m,
        "ops_r2": win_n * split_m,
        "ops_r3": split_n * win_m,
        "ops_r4": split_n * win_m,
    }
