"""Repetitiveness measures: symbol-sort runs, factor-sort runs, Lyndon factor
counts, greedy self-referential LZ77, and the Fibonacci word family."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._ranks import _SMALL, suffix_ranks_np
from .macro import _induced_phrase_count
from .strings import as_text, lyndon_factorize
from .transforms import _core, bbwt, bwt


@dataclass(frozen=True, slots=True)
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


def _common_prefix(w: bytes, j: int, i: int) -> int:
    """Length of the longest common prefix of w[j:] and w[i:], for j < i and
    w[j] == w[i]; the match may run into w[i:] itself.

    Short matches are compared byte by byte.  Past 16 bytes the match gallops
    on slice equality: the step doubles from 1 until a slice differs, then
    halves back down to 1.  A slice that runs off the end of w is shorter than
    its partner from j, so it never compares equal.

    Most matches in random text are short, and there the byte loop pays: over
    the matches of a 2^17-byte random text, galloping from the first byte took
    96-99 against 32-58 ms at 4 symbols and 188-195 against 70-119 ms at 256.
    Byte loops of 8 and 32 were within noise of 16.
    """
    n = len(w)
    k = 1
    while k < 16:
        if i + k == n or w[j + k] != w[i + k]:
            return k
        k += 1
    step = 1
    while w[j + k:j + k + step] == w[i + k:i + k + step]:
        k += step
        step += step
    # the match ends in [k, k + step); halving a power of two covers it
    while step > 1:
        step >>= 1
        if w[j + k:j + k + step] == w[i + k:i + k + step]:
            k += step
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
            k = _common_prefix(w, j, i)
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
    """Longest previous factors from the nearest smaller start positions in
    suffix order (Crochemore and Ilie, IPL 2008).

    The longest earlier match of w[i:] starts at left[i] or right[i], the
    nearest suffixes before and after w[i:] in suffix order that start earlier
    in the text.  One left-to-right scan of the suffix array finds both
    (Karkkainen, Kempa and Puglisi, CPM 2013): the stack holds increasing
    start positions; every position that the new one pops has it as its right,
    and the position left on top is the new one's left.  A side whose first
    symbol differs has match length 0; otherwise `_common_prefix` measures it.
    The longer match wins, and a tie goes to the smaller source.
    """
    n = len(w)
    ranks = suffix_ranks_np(w)
    sa = np.empty(n, dtype=np.int64)
    sa[ranks] = np.arange(n, dtype=np.int64)
    left = [-1] * n
    right = [-1] * n
    stack = [-1]  # -1 sits below every position, so the pops stop on it
    push, pop = stack.append, stack.pop
    top = -1
    for pos in sa.tolist():
        while top > pos:
            right[top] = pos
            pop()
            top = stack[-1]
        left[pos] = top
        push(pos)
        top = pos
    factors = []
    add = factors.append
    i = 0
    while i < n:
        c = w[i]
        j1, j2 = left[i], right[i]
        l1 = _common_prefix(w, j1, i) if j1 >= 0 and w[j1] == c else 0
        l2 = _common_prefix(w, j2, i) if j2 >= 0 and w[j2] == c else 0
        if l1 == 0 and l2 == 0:
            add(LzFactor(i + 1, 1, None))
            i += 1
            continue
        if l1 > l2 or (l1 == l2 and j1 < j2):
            length, src = l1, j1
        else:
            length, src = l2, j2
        add(LzFactor(i + 1, length, src + 1))
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


@dataclass(frozen=True, slots=True)
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
    phrases = _induced_phrase_count(w)
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
