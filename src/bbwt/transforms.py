"""Rotation-sort transforms and their inverses.

bwt sorts all cyclic rotations of the input; bbwt sorts all rotations of all
Lyndon factors in omega order.  Both report the circular suffix array: entry i
is the 1-based text position starting the i-th sorted rotation, so the output
symbol at i sits at the cyclic predecessor of csa[i] inside its factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import ne
from typing import NamedTuple

import numpy as np

from ._ranks import _SMALL, power_ranks
from .strings import LyndonFactorization, as_text, lyndon_factorize


@dataclass(frozen=True, slots=True)
class TransformResult:
    output: bytes
    csa: tuple[int, ...]
    runs: int


def count_runs(x) -> int:
    """Number of maximal blocks of equal adjacent symbols."""
    x = as_text(x)
    if not x:
        raise ValueError("count_runs: empty input")
    if len(x) > _SMALL:
        a = np.frombuffer(x, dtype=np.uint8)
        return 1 + int(np.count_nonzero(a[1:] != a[:-1]))
    return 1 + sum(map(ne, x, x[1:]))


def bwt(w) -> TransformResult:
    """Last symbols of all cyclic rotations of w, sorted; equal rotations keep text order."""
    w = as_text(w)
    if not w:
        raise ValueError("bwt: empty input")
    n = len(w)
    if n <= _SMALL:
        doubled = w + w
        order = sorted(range(n), key=lambda i: doubled[i:i + n])
        out = bytes(w[i - 1] for i in order)
        csa = tuple(i + 1 for i in order)
    else:
        text = np.frombuffer(w, dtype=np.uint8)
        ranks = power_ranks(text, np.zeros(n, dtype=np.int64), np.full(n, n, dtype=np.int64))
        order = np.argsort(ranks * n + np.arange(n))  # unique keys: ties by position
        out = text[order - 1].tobytes()
        csa = tuple((order + 1).tolist())
    return TransformResult(out, csa, count_runs(out))


class _Core(NamedTuple):
    """One text's transform; every field is immutable, so the memo can share it."""

    fact: LyndonFactorization
    csa: tuple[int, ...]  # 1-based rotation starts in omega order
    tpos: tuple[int, ...]  # 0-based text position of each output symbol
    output: bytes
    runs: int


@lru_cache(maxsize=1)
def _core(w: bytes) -> _Core:
    """Factorize w once, sort every factor copy's rotations in omega order, and
    locate each output symbol (the start's cyclic predecessor in its factor).

    Copies of one factor have equal rotations; ties go to the text position.
    Callers pass nonempty bytes.  The memo serves the common pattern of several
    views (bbwt, induce_bms, bounds) asked of one text in a row.
    """
    fact = lyndon_factorize(w)
    n = len(w)
    if n <= _SMALL:
        pad = 2 * n  # distinct powers of words no longer than n differ by then
        keys = [b""]  # keys[p]: power prefix of the rotation at 1-based start p
        pred = list(range(-2, n - 1))  # pred[p]: 0-based cyclic predecessor of p
        pos = 0
        for f, count in fact.necklaces:
            flen = len(f)
            reps = f * (pad // flen + 2)
            keys += [reps[off:off + pad] for off in range(flen)] * count
            for _ in range(count):
                pred[pos + 1] = pos + flen - 1
                pos += flen
        csa = tuple(sorted(range(1, n + 1), key=keys.__getitem__))  # stable: ties by start
        tpos = tuple(map(pred.__getitem__, csa))
        output = bytes(map(w.__getitem__, tpos))
    else:
        lens = np.repeat(
            np.array([len(f) for f, _ in fact.necklaces], dtype=np.int64),
            [count for _, count in fact.necklaces],
        )
        starts = np.cumsum(lens) - lens
        text = np.frombuffer(w, dtype=np.uint8)
        ranks = power_ranks(text, np.repeat(starts, lens), np.repeat(lens, lens))
        order = np.argsort(ranks * n + np.arange(n))  # unique keys: ties by position
        pred = np.arange(-1, n - 1)  # pred[p]: 0-based cyclic predecessor of p
        pred[starts] += lens
        tpos_array = pred[order]
        csa = tuple((order + 1).tolist())
        tpos = tuple(tpos_array.tolist())
        output = text[tpos_array].tobytes()
    return _Core(fact, csa, tpos, output, count_runs(output))


def bbwt(w) -> TransformResult:
    """Last symbols of all rotations of all Lyndon factors, sorted in omega order.

    Rotations of equal factor copies tie; ties resolve by text position, so the
    copies of one necklace appear adjacently in text order.
    """
    w = as_text(w)
    if not w:
        raise ValueError("bbwt: empty input")
    core = _core(w)
    return TransformResult(core.output, core.csa, core.runs)


_ROW_CELLS = 1 << 19  # cells per _bbwt_rows chunk: about 100 B of temporaries each, 50 MB


def _bbwt_rows(rows: np.ndarray) -> np.ndarray:
    """bbwt output of every row of an (N, n) uint8 array, n >= 1, as an (N, n) array.

    Chunks of at most _ROW_CELLS cells are transformed together, so memory
    stays bounded however many rows there are.
    """
    out = np.empty_like(rows)
    step = max(1, _ROW_CELLS // rows.shape[1])
    for a in range(0, rows.shape[0], step):
        out[a:a + step] = _bbwt_chunk(rows[a:a + step])
    return out


def _bbwt_chunk(rows: np.ndarray) -> np.ndarray:
    """_bbwt_rows of one chunk.

    Each row followed by a least terminator is one cyclic segment, whose
    rotations then sort as the row's suffixes; the left-to-right strict
    minima of the suffix ranks in a row start its Lyndon factors (the last
    factor is the least suffix, the one before it the least suffix of the
    rest, and so on).  Omega ranks of every factor rotation then order each
    row's output positions, ties by column, as in _core.
    """
    count, n = rows.shape
    cells = count * n
    ext = np.zeros((count, n + 1), dtype=np.int16)  # symbol + 1, then terminator 0
    ext[:, :n] = rows
    ext[:, :n] += 1
    seg = np.arange(0, count * (n + 1), n + 1, dtype=np.int64)
    suffix = power_ranks(ext.ravel(), np.repeat(seg, n + 1),
                         np.full(count * (n + 1), n + 1, dtype=np.int64))
    suffix = suffix.reshape(count, n + 1)[:, :n]
    is_start = (suffix == np.minimum.accumulate(suffix, axis=1)).ravel()
    starts = np.flatnonzero(is_start)
    lens = np.diff(starts, append=cells)
    factor = np.cumsum(is_start) - 1
    flat = rows.ravel()
    omega = power_ranks(flat, starts[factor], lens[factor]).reshape(count, n)
    order = np.argsort(omega * n + np.arange(n), axis=1)  # unique keys: ties by column
    pred = np.arange(-1, cells - 1)  # pred[p]: cyclic predecessor of p in its factor
    pred[starts] += lens
    return flat[pred[order + np.arange(0, cells, n)[:, None]]]


def lf_map(x) -> list[int]:
    """1-based stable symbol-sort map: entry i is
    |{j : x[j] < x[i]}| + |{j <= i : x[j] = x[i]}|."""
    x = as_text(x)
    if not x:
        raise ValueError("lf_map: empty input")
    # rank in the stable sort by symbol; numpy pays from about 32 symbols on
    n = len(x)
    if n <= 32:
        out = [0] * n
        for rank, i in enumerate(sorted(range(n), key=x.__getitem__), 1):
            out[i] = rank
        return out
    order = np.argsort(np.frombuffer(x, dtype=np.uint8), kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1)
    return ranks.tolist()


def bwt_inverse_multiset(x) -> list[bytes]:
    """Lyndon roots of the LF cycles of x, in nonincreasing order.

    x is the bbwt of some text (Gessel-Reutenauer; Mantaci, Restivo, Rosone,
    Sciortino, TCS 2007), so its rows hold factor rotations in omega order, and
    the cycle walked from row i spells the rotation at row i.  Walks that start
    at the smallest unvisited row therefore spell Lyndon roots, in increasing
    omega (for Lyndon words, lexicographic) order: no search, and no sort.
    """
    x = as_text(x)
    if not x:
        raise ValueError("bwt_inverse_multiset: empty input")
    psi = lf_map(x)
    n = len(x)
    seen = bytearray(n)
    words = []
    for i0 in range(n):
        if seen[i0]:
            continue
        chars = []
        i = i0
        while not seen[i]:
            seen[i] = 1
            chars.append(x[i])
            i = psi[i] - 1
        chars.reverse()
        words.append(bytes(chars))
    return words[::-1]


def bbwt_inverse(x) -> bytes:
    """The unique preimage: cycle words concatenated in nonincreasing order."""
    return b"".join(bwt_inverse_multiset(x))


class _OmegaInfinity:
    """Sentinel for equal adjacent rotations (their powers agree forever)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INF"


INF = _OmegaInfinity()


def omega_lcp_array(w) -> list:
    """Longest common prefix of the infinite powers of adjacent sorted rotations.

    Entry 1 is 0 by convention; equal rotations yield the INF sentinel.  The
    count of irreducible entries (i = 1 or a symbol change in the transform
    output) equals the transform's run count.
    """
    w = as_text(w)
    if not w:
        raise ValueError("omega_lcp_array: empty input")
    core = _core(w)
    home = []  # home[p - 1]: (start, stop) of the factor copy holding 1-based position p
    pos = 0
    for f, count in core.fact.necklaces:
        for _ in range(count):
            home += [(pos, pos + len(f))] * len(f)
            pos += len(f)

    def rotation(p: int) -> bytes:
        """The factor rotation starting at 1-based position p."""
        start, stop = home[p - 1]
        return w[p - 1:stop] + w[start:p - 1]

    values: list = [0]
    v = rotation(core.csa[0])
    for p in core.csa[1:]:
        u, v = v, rotation(p)
        if u == v:
            values.append(INF)
            continue
        bound = len(u) + len(v)
        eu = (u * (bound // len(u) + 1))[:bound]
        ev = (v * (bound // len(v) + 1))[:bound]
        lcp = 0
        while lcp < bound and eu[lcp] == ev[lcp]:
            lcp += 1
        values.append(lcp)
    return values
