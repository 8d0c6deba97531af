"""Rotation-sort transforms and their inverses.

bwt sorts all cyclic rotations of the input; bbwt sorts all rotations of all
Lyndon factors in omega order.  Both report the circular suffix array: entry i
is the 1-based text position starting the i-th sorted rotation, so the output
symbol at i sits at the cyclic predecessor of csa[i] inside its factor.

One sorter serves both.  Past the small-input cutoff it ranks the rotations
of one copy of each factor with the prefix-doubling engine, gives every
further copy those ranks, and sorts by rank, ties by text position.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import takewhile
from operator import eq, ne
from typing import NamedTuple, Sequence

import numpy as np

from ._ranks import _SMALL, cyclic_pred, power_ranks
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


def _omega_sort(w: bytes, necklaces) -> tuple[Sequence[int], Sequence[int], bytes]:
    """Sort the rotations of nonempty w's cyclic segments by their infinite powers.

    necklaces spells w as (word, count) pairs; each copy of a word is one
    segment.  Returns (csa, tpos, output): the 1-based starts in sorted
    order, ties by start; the 0-based text position of each output symbol,
    the start's cyclic predecessor in its segment; and the symbols there.
    csa and tpos are tuples up to _SMALL and read-only int64 arrays past it,
    so the memo can share them and no caller builds a tuple it does not read.
    """
    n = len(w)
    if n <= _SMALL:
        # by Fine and Wilf, powers of two segments that fit in w together
        # differ within n symbols unless they are equal
        keys = [b""]  # keys[p]: power prefix of the rotation at 1-based start p
        pred = list(range(-2, n - 1))  # pred[p]: 0-based cyclic predecessor of p
        pos = 0
        for f, count in necklaces:
            flen = len(f)
            reps = f * (n // flen + 2)
            keys += [reps[off:off + n] for off in range(flen)] * count
            for _ in range(count):
                pred[pos + 1] = pos + flen - 1
                pos += flen
        csa = tuple(sorted(range(1, n + 1), key=keys.__getitem__))  # stable: ties by start
        tpos = tuple(map(pred.__getitem__, csa))
        return csa, tpos, bytes(map(w.__getitem__, tpos))
    lens = np.array([len(f) for f, _ in necklaces], dtype=np.int64)
    counts = np.array([count for _, count in necklaces], dtype=np.int64)
    # copies of a word have equal rotations: rank one copy of each
    rank = power_ranks(np.frombuffer(b"".join(f for f, _ in necklaces), dtype=np.uint8), lens)
    copy_lens = np.repeat(lens, counts)  # one segment per copy
    pos = np.arange(n)
    if copy_lens.size > lens.size:  # each copy reads its ranks off its word's one copy
        # text start of each copy less the one-copy start of its word
        shift = copy_lens.cumsum() - copy_lens - np.repeat(lens.cumsum() - lens, counts)
        rank = rank[pos - np.repeat(shift, copy_lens)]
    order = np.argsort(rank * n + pos)  # unique keys: ties by position
    csa, tpos = order + 1, cyclic_pred(copy_lens)[order]
    csa.flags.writeable = tpos.flags.writeable = False
    return csa, tpos, np.frombuffer(w, dtype=np.uint8)[tpos].tobytes()


def _ints(column: Sequence[int]) -> Sequence[int]:
    """An _omega_sort column as Python ints, never np.int64 (their repr differs)."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def bwt(w) -> TransformResult:
    """Last symbols of all cyclic rotations of w, sorted; equal rotations keep text order."""
    w = as_text(w)
    if not w:
        raise ValueError("bwt: empty input")
    csa, _, output = _omega_sort(w, ((w, 1),))
    return TransformResult(output, tuple(_ints(csa)), count_runs(output))


class _Core(NamedTuple):
    """One text's transform; every field is immutable, so the memo can share it."""

    fact: LyndonFactorization
    csa: Sequence[int]  # 1-based rotation starts in omega order
    tpos: Sequence[int]  # 0-based text position of each output symbol
    output: bytes
    runs: int


@lru_cache(maxsize=1)
def _core(w: bytes) -> _Core:
    """Factorize w once and sort every factor copy's rotations in omega order.

    Copies of one factor have equal rotations; ties go to the text position.
    Callers pass nonempty bytes.  The memo serves the common pattern of several
    views (bbwt, induce_bms, bounds) asked of one text in a row.
    """
    fact = lyndon_factorize(w)
    csa, tpos, output = _omega_sort(w, fact.necklaces)
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
    return TransformResult(core.output, tuple(_ints(core.csa)), core.runs)


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
    row's output positions, ties by column, as in _omega_sort.
    """
    count, n = rows.shape
    cells = count * n
    ext = np.zeros((count, n + 1), dtype=np.int16)  # symbol + 1, then terminator 0
    ext[:, :n] = rows
    ext[:, :n] += 1
    suffix = power_ranks(ext.ravel(), np.full(count, n + 1, dtype=np.int64))
    suffix = suffix.reshape(count, n + 1)[:, :n]
    is_start = (suffix == np.minimum.accumulate(suffix, axis=1)).ravel()
    flat = rows.ravel()
    lens = np.diff(np.flatnonzero(is_start), append=cells)
    omega, pred = power_ranks(flat, lens), cyclic_pred(lens)
    # unique keys: ties by column
    order = np.argsort(omega.reshape(count, n) * n + np.arange(n), axis=1)
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


# Walk/loop time, median over 60 random texts in two runs: 1.08-1.15 at 256
# symbols, 0.93-0.99 at 384, 0.86-0.88 at 512, 0.77 at 1,000 (the walk has
# 20-30 us of fixed cost); inputs up to 512 symbols keep the loop.
_LOOP_MAX = 512
_COPY_CELLS = 1 << 16  # most shifted rows _copies compares in one numpy call


def bwt_inverse_multiset(x) -> list[bytes]:
    """Lyndon roots of the LF cycles of x, in nonincreasing order.

    x is the bbwt of some text (Gessel-Reutenauer; Mantaci, Restivo, Rosone,
    Sciortino, TCS 2007), so its rows hold factor rotations in omega order, and
    the cycle walked from row i spells the rotation at row i.  Walks that start
    at the smallest unvisited row therefore spell Lyndon roots, in increasing
    omega (for Lyndon words, lexicographic) order: no search, and no sort.

    Past _LOOP_MAX symbols the walk runs forward: row r's rotation starts with
    the r-th symbol of sorted x and goes on at row order[r], where order is
    the stable sort order of x.  If every row p of a cycle keeps its symbol at
    p + 1, ..., p + c - 1, then LF, which keeps equal symbols in order, maps
    those rows to c - 1 more cycles spelling the same word, so the word is
    walked once and emitted c times.
    """
    x = as_text(x)
    if not x:
        raise ValueError("bwt_inverse_multiset: empty input")
    if len(x) > _LOOP_MAX:
        return _cycle_words(x)[::-1]
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


def _cycle_words(x: bytes) -> list[bytes]:
    """The cycle words of nonempty x, each from its least row, in increasing order."""
    n = len(x)
    a = np.frombuffer(x, dtype=np.uint8)
    order = np.argsort(a, kind="stable")
    first = a[order]
    nxt = order.tolist()
    del order
    seen = bytearray(n)
    marks = np.frombuffer(seen, dtype=np.uint8)
    # rows of a cycle past 2^16 rows as int32, half the bytes at the peak;
    # shorter ones as int64, which numpy indexes without a cast
    narrow = np.int32 if n < 1 << 31 else np.int64
    words = []
    i0 = 0
    while i0 >= 0:
        # chased in C: extend reads each row as it appends it
        path = [i0]
        path.extend(takewhile(partial(ne, i0), map(nxt.__getitem__, path)))
        # copies need every row's symbol again one row down: i0's first, then
        # the rest in C up to the first row that changes
        twin = False
        if i0 + 1 < n and x[i0 + 1] == x[i0]:
            try:
                twin = all(map(eq, map(x.__getitem__, map((1).__add__, path)),
                               map(x.__getitem__, path)))
            except IndexError:  # row n - 1 has none below it
                pass
        rows = np.fromiter(path, narrow if len(path) > 1 << 16 else np.int64, len(path))
        del path
        marks[rows] = 1
        c = _copies(a, rows) if twin else 1
        if c > 1:
            marks[rows[:, None] + np.arange(1, c)] = 1
        words += [first[rows].tobytes()] * c
        i0 = seen.find(0, i0 + 1)
    return words


def _copies(a: np.ndarray, rows: np.ndarray) -> int:
    """Largest c with a[p + k] == a[p] for every p in rows and every k < c.

    Shifts are compared in blocks of 256 cells or more, doubling up to
    _COPY_CELLS, until a block holds a changed symbol.
    """
    sym, top = a[rows, None], len(a) - int(rows.max())
    c, cells = 1, 256
    while c < top:
        k = np.arange(c, min(c + max(1, cells // len(rows)), top))
        same = (a[rows[:, None] + k] == sym).all(axis=0)
        if not same.all():
            return c + int(same.argmin())
        c += len(k)
        cells = min(2 * cells, _COPY_CELLS)
    return c


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

    Kasai's argument (CPM 2001) over the core's csa: dropping the first
    symbol a row shares with the row above keeps the two in order, so
    walking a necklace's first copy rotation by rotation, the LCP falls by at
    most one a step.  Symbols compare in place; later copies' rows are INF.
    """
    w = as_text(w)
    if not w:
        raise ValueError("omega_lcp_array: empty input")
    core = _core(w)
    lens = [len(f) for f, count in core.fact.necklaces for _ in range(count)]  # one per copy
    sizes = np.repeat(lens, lens)  # sizes[p]: length of the copy holding 0-based p
    starts = np.repeat(np.cumsum(lens), lens) - sizes  # starts[p]: that copy's text start
    csa = np.asarray(core.csa)
    row = np.empty(len(w), dtype=np.int64)  # row[p - 1]: where 1-based start p sorts
    row[csa - 1] = np.arange(len(w))
    csa, row, starts, sizes = csa.tolist(), row.tolist(), starts.tolist(), sizes.tolist()
    values: list = [INF] * len(w)
    values[0] = 0  # the last necklace's offset 0
    s = 0  # text start of the necklace's first copy
    for f, count in core.fact.necklaces:
        m, h = len(f), 0
        for a in range(m):
            r = row[s + a]
            if r:  # compare with the row above, which starts at offset p of its copy
                p = csa[r - 1] - 1
                b, size = starts[p], sizes[p]
                p -= b
                while f[(a + h) % m] == w[b + (p + h) % size]:
                    h += 1
                values[r] = h
                if h:
                    h -= 1
        s += m * count
    return values
