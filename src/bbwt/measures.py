"""Repetitiveness measures: symbol-sort runs, factor-sort runs, Lyndon factor
counts, greedy self-referential LZ77, and the Fibonacci word family."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._ranks import _SMALL, suffix_ranks_np
from .macro import induce_bms
from .strings import as_text, lyndon_factorize
from .transforms import _core, bbwt, bwt


@dataclass(frozen=True)
class LzFactor:
    start: int
    length: int
    source: int | None


@dataclass(frozen=True)
class Lz77Factorization:
    factors: tuple[LzFactor, ...]

    @property
    def z(self) -> int:
        return len(self.factors)


def _match_len(w: bytes, j: int, i: int) -> int:
    """Length of the longest common prefix of w[j:] extended past i (overlap ok)."""
    n = len(w)
    k = 0
    while i + k < n and w[j + k] == w[i + k]:
        k += 1
    return k


def _lz77_small(w: bytes) -> list[LzFactor]:
    n = len(w)
    factors = []
    i = 0
    while i < n:
        best_len, best_src = 0, -1
        for j in range(i):
            if w[j] != w[i]:
                continue
            k = _match_len(w, j, i)
            if k > best_len:
                best_len, best_src = k, j
        if best_len == 0:
            factors.append(LzFactor(i + 1, 1, None))
            i += 1
        else:
            factors.append(LzFactor(i + 1, best_len, best_src + 1))
            i += best_len
    return factors


def _lz77_sa(w: bytes) -> list[LzFactor]:
    """Longest previous factors via nearest smaller start positions in suffix order."""
    n = len(w)
    ranks = suffix_ranks_np(w)
    sa = np.empty(n, dtype=np.int64)
    sa[ranks] = np.arange(n, dtype=np.int64)
    sa_list = sa.tolist()
    left = [-1] * n
    stack: list[int] = []
    for pos in sa_list:
        while stack and stack[-1] > pos:
            stack.pop()
        left[pos] = stack[-1] if stack else -1
        stack.append(pos)
    right = [-1] * n
    stack = []
    for pos in reversed(sa_list):
        while stack and stack[-1] > pos:
            stack.pop()
        right[pos] = stack[-1] if stack else -1
        stack.append(pos)
    factors = []
    i = 0
    while i < n:
        l1 = _match_len(w, left[i], i) if left[i] >= 0 else 0
        l2 = _match_len(w, right[i], i) if right[i] >= 0 else 0
        if l1 == 0 and l2 == 0:
            factors.append(LzFactor(i + 1, 1, None))
            i += 1
            continue
        if l1 > l2 or (l1 == l2 and left[i] < right[i]):
            length, src = l1, left[i]
        else:
            length, src = l2, right[i]
        factors.append(LzFactor(i + 1, length, src + 1))
        i += length
    return factors


def lz77_factorize(w) -> Lz77Factorization:
    """Greedy leftmost factorization; each factor is the longest earlier-starting
    match (overlap with itself allowed) or a single first-occurrence symbol."""
    w = as_text(w)
    if not w:
        raise ValueError("lz77_factorize: empty input")
    if len(w) <= _SMALL:
        factors = _lz77_small(w)
    else:
        factors = _lz77_sa(w)
    return Lz77Factorization(tuple(factors))


def fibonacci_word(k: int, max_length: int = 1 << 26) -> bytes:
    """k-th word of the b, a, ab, aba, abaab, ... concatenation recurrence."""
    if k < 0:
        raise ValueError("fibonacci_word: k must be >= 0")
    la, lb = 1, 1  # lengths of words k=1 and k=0
    for _ in range(k - 1):
        la, lb = la + lb, la
    if la > max_length:
        raise ValueError(f"fibonacci_word: length {la} exceeds limit {max_length}")
    if k == 0:
        return b"b"
    prev, cur = b"b", b"a"
    for _ in range(k - 1):
        prev, cur = cur, cur + prev
    return cur


@dataclass(frozen=True)
class MeasureReport:
    n: int
    r: int
    r_B: int
    ell: int
    total_factors: int
    z: int
    bms_phrases: int
    ratio_rB_over_zlog2n: float


def measure_report(w) -> MeasureReport:
    """All repetitiveness quantities for one text, plus the r_B / (z log2(n)^2)
    ratio used as a fixed-constant regression guard (0 when n < 2)."""
    w = as_text(w)
    if not w:
        raise ValueError("measure_report: empty input")
    n = len(w)
    core = _core(w)
    fact, r_b = core.fact, core.runs
    r = bwt(w).runs
    z = lz77_factorize(w).z
    phrases = induce_bms(w).phrase_count
    ratio = r_b / (z * math.log2(n) ** 2) if n >= 2 else 0.0
    return MeasureReport(n, r, r_b, fact.necklace_count, fact.total_factors,
                         z, phrases, ratio)


@dataclass(frozen=True)
class SeparationRow:
    i: int
    n: int
    ell: int
    r_B: int
    r: int


def fibonacci_separation_table(i_max: int,
                               max_length: int = 1 << 26) -> list[SeparationRow]:
    """Rows (i, n, ell, r_B, r) for the odd-index Fibonacci words k = 2i + 3.

    The factor-sort run count grows with i while the plain rotation-sort run
    count stays at 2, so the two measures separate on this family.
    """
    if i_max < 0:
        raise ValueError("fibonacci_separation_table: i_max must be >= 0")
    rows = []
    for i in range(i_max + 1):
        w = fibonacci_word(2 * i + 3, max_length=max_length)
        rows.append(SeparationRow(
            i, len(w), lyndon_factorize(w).necklace_count,
            bbwt(w).runs, bwt(w).runs))
    return rows
