"""Rotation search for the fewest transform runs, Lyndon trees, and
factorization sizes of all rotations in one pass.

Everything about all rotations works in the least-rotation frame of the
primitive root u (a Lyndon word) of w = rot(u^m): the rotation cut at offset
q of u is u[q:] u^(m-1) u[:q], and its Lyndon factors are those of the suffix
u[q:], m - 1 copies of u, and those of the prefix u[:q], since no factor of a
rotation of a Lyndon word ever spans the wrap point.  One left-to-right scan
of u's suffix ranks (_scan) keeps the stack of the next-smaller search, which
gives every position's next and previous smaller rank, and beside it runs
Duval's recurrence, which gives the period of every prefix.  The Lyndon
array is the next-smaller array of the suffix ranks, so the suffix u[q:]
factors at exactly the positions j >= q whose previous smaller rank lies
before q: every suffix's factor count is one bincount and one cumsum.  A
prefix u[:q] of period p is (u[:p])^(q // p), then the factors of u[:q % p].
The run counts of the transform of every rotation come from one omega sort
of the O(d) distinct factors, then one sort of each rotation's output codes
as a row of a matrix; only very small and very large searches transform
shift by shift.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from ._ranks import _SMALL, cyclic_pred, power_ranks, rotation_ranks
from .macro import _held
from .strings import as_text, is_lyndon, rot
from .transforms import bbwt


# Most cells (one period of d shifts times the length n) all_rotation_runs
# may take on; past the shared sort's window only the per-shift loop runs.
# Measured per path (Python 3.11, numpy 2.4, 2-core VM): the loop took 6.6 s
# at 2^24 (random 4-symbol text, n = 4096), about 0.4 us a cell; the shared
# sort at most about 0.3 us a cell inside its window (0.31 s at 2^20 on
# random 4-symbol text, 0.22 s on a^1023 b, 0.03 s on a Fibonacci word).
ROTATION_BUDGET = 1 << 24

# all_rotation_runs sorts all rotations together when _SHARED_MIN <= d * n <=
# _SHARED_MAX and transforms shift by shift otherwise.  On random ternary
# text the two cost about the same at 64 cells (n = 8: 147 us for the loop,
# 139 us shared), the loop wins below (n = 4: 61 against 137 us), and the
# window starts where the shared sort is clearly ahead (n = 12: 248 against
# 141 us).  The shared sort ranks about d^2 / 2 factor rotations, so its
# memory grows with d^2: on random 4-symbol text it took 0.31 s and 30 MB at
# 2^20 cells (n = 1024) against 0.44-0.61 s for the loop, and 1.2 s and
# 113 MB at 2^22 against 1.7 s and 1 MB.
_SHARED_MIN = 128
_SHARED_MAX = 1 << 20


@dataclass(frozen=True)
class TreeNode:
    """Binary tree node spanning text positions start..end (1-based, closed)."""

    start: int
    end: int
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def split(self) -> int | None:
        """Start position of the right child; None for leaves."""
        return self.right.start if self.right is not None else None


@dataclass(frozen=True)
class LyndonTree:
    flavor: str  # "RIGHT" or "LEFT"
    root: TreeNode


@dataclass(frozen=True)
class BestRotation:
    shift: int
    rotated: bytes
    r_B: int


def _shared_pairs(totals: list[int], necks: list[int]) -> tuple[tuple[int, int], ...]:
    """The (total, necklace) pairs in order, one tuple object per distinct pair."""
    shared: dict[tuple[int, int], tuple[int, int]] = {}
    return tuple([shared.setdefault(pair, pair) for pair in zip(totals, necks)])


@dataclass(frozen=True)
class RotationSizes:
    """by_start[p - 1] = (total_factors, necklace_count) of the rotation that
    starts at 1-based text position p.

    Past _SMALL symbols all_rotation_factorization_sizes returns one holding
    two int64 columns, the totals and the necklace counts by start, which
    sizes_to_text reads.  .by_start builds the tuple on its first read, one
    object per distinct pair, and drops the columns.  Equality, hash, repr
    and pickling are those of RotationSizes(by_start).
    """

    by_start: tuple[tuple[int, int], ...]

    __getattr__, _count, _holding = _held("by_start", _shared_pairs)


def all_rotation_runs(w) -> tuple[int, ...]:
    """Transform run count of every rotation: entry k is bbwt(rot(w, k)).runs.

    Only the d shifts of one primitive period are distinct, since
    rot(w, k) == rot(w, k + d).  When d * n is between _SHARED_MIN and
    _SHARED_MAX, one omega sort ranks every rotation of the distinct Lyndon
    factors of all rotations, and one row sort per shift orders its output
    codes (see _frame_runs); outside that window each shift is transformed
    by bbwt.  Raises ValueError when d * n passes ROTATION_BUDGET.
    """
    w = as_text(w)
    if not w:
        raise ValueError("all_rotation_runs: empty input")
    n = len(w)
    d = (w + w).find(w, 1)  # primitive period
    if d * n > ROTATION_BUDGET:
        raise ValueError(
            f"rotation search would transform {d * n} symbols, over its "
            f"budget of {ROTATION_BUDGET}")
    if not _SHARED_MIN <= d * n <= _SHARED_MAX:
        return tuple(bbwt(rot(w, k)).runs for k in range(d)) * (n // d)
    j0, u, nss, _, per = _frame(w, d)
    per_q = _frame_runs(u, nss, per, n // d)
    # rot(w, k) starts at text position -k, which is offset -k - j0 of u
    return tuple(per_q[(-k - j0) % d] for k in range(d)) * (n // d)


def best_rotation(w) -> BestRotation:
    """Rotation with the fewest transform runs; smallest shift wins ties."""
    runs = all_rotation_runs(w)
    best_runs = min(runs)
    shift = runs.index(best_runs)
    return BestRotation(shift, rot(w, shift), best_runs)


def _tree(flavor: str, splits: list[tuple[int, int, int]], n: int) -> LyndonTree:
    """The LyndonTree over 1..n whose cut t splits node w[i:j] for each
    (i, j, t) in splits, which list every node before its descendants."""
    made: dict[tuple[int, int], TreeNode] = {}
    for i, j, t in reversed(splits):
        left = made.pop((i, t)) if t - i > 1 else TreeNode(i + 1, t)
        right = made.pop((t, j)) if j - t > 1 else TreeNode(t + 1, j)
        made[i, j] = TreeNode(i + 1, j, left, right)
    return LyndonTree(flavor, made[0, n] if n > 1 else TreeNode(1, 1))


def right_lyndon_tree(w) -> LyndonTree:
    """Recursive split at the longest proper Lyndon suffix, in linear time.

    That suffix is the smallest proper suffix, so cut t splits the node from
    the nearest smaller suffix rank before t to the nearest after it (_scan's
    psv and nss; a Lyndon word's rotation ranks serve), and a parent's cut
    ranks lowest.  TreeNode's ==, hash, repr and pickling recurse once per
    level, so on trees deeper than the recursion limit they raise
    RecursionError.
    """
    w = as_text(w)
    if not is_lyndon(w):
        raise ValueError("right_lyndon_tree: input is not a Lyndon word")
    n = len(w)
    ranks = rotation_ranks(w)
    hi, lo, _ = _scan(ranks, w)
    by_rank = [0] * n
    for t, r in enumerate(ranks):
        by_rank[r] = t
    return _tree("RIGHT", [(lo[t], hi[t], t) for t in by_rank[1:]], n)


def left_lyndon_tree(w) -> LyndonTree:
    """Recursive split at the longest proper Lyndon prefix, in linear time.

    Every left child, like the root, spells a prefix w[:m], and its right
    spine cuts at the Lyndon factors of w[:m - 1]: those of a prefix w[:j]
    of period p (_scan's per) are j // p copies of w[:p], then those of
    w[:j % p].  Deep trees: see right_lyndon_tree.
    """
    w = as_text(w)
    if not is_lyndon(w):
        raise ValueError("left_lyndon_tree: input is not a Lyndon word")
    n = len(w)
    _, _, per = _scan(rotation_ranks(w), w)
    splits = []
    stack = [(0, n)]  # (x, m): a node at text offset x spelling w[:m]
    while stack:
        x, m = stack.pop()
        i, j = x, m - 1
        while j:  # the factors of w[:j], cut one by one off the spine
            size = per[j]
            q, j = divmod(j, size)
            for _ in range(q):
                splits.append((i, x + m, i + size))
                if size > 1:
                    stack.append((i, size))
                i += size
    return _tree("LEFT", splits, n)


def _frame(w: bytes, d: int) -> tuple[int, bytes, array, array, array]:
    """(j0, u, nss, psv, per): where the least rotation starts inside w, its
    root u of length d (a Lyndon word), and _scan of u's suffix ranks.

    One rotation-rank pass over w gives them all, as the suffixes of a
    Lyndon word sort as its rotations do.  Past _SMALL symbols the ranks
    stay a numpy array until the d of u are listed, in u's order, for the
    scan; the list is dropped here, before the callers' passes.
    """
    n = len(w)
    if n > _SMALL:
        ranks = power_ranks(np.frombuffer(w, dtype=np.uint8), np.array([n], dtype=np.int64))
        j0 = int(ranks[:d].argmin())
        ranks = np.concatenate((ranks[j0:d], ranks[:j0])).tolist()
    else:
        ranks = rotation_ranks(w)
        j0 = ranks.index(min(ranks))
        ranks = ranks[j0:d] + ranks[:j0]
    u = w[j0:d] + w[:j0]
    nss, psv, per = _scan(ranks, u)
    return j0, u, nss, psv, per


def _scan(ranks: list[int], u: bytes) -> tuple[array, array, array]:
    """(nss, psv, per) of a Lyndon word u from its suffix ranks, in one pass.

    nss[i] and psv[i] are the nearest positions after and before i with a
    smaller rank, else d and -1: the next-smaller stack gives nss[i] when i
    is popped and psv[j] as its top before j is pushed.  u[i:nss[i]] is the
    first Lyndon factor of the suffix u[i:].  per[j] is the period of the
    prefix u[:j] (per[0] = 1), by Duval's recurrence: the period p of a prefix
    of a Lyndon word lasts while u[j] == u[j - p], and becomes j + 1 where
    u[j] is larger.  ranks gets a -1 for the stack's floor, position -1, and
    loses it again.  The columns are C ints (d < 2^31, as power_ranks
    requires): as cheap to write as lists, at 4 bytes an entry.
    """
    d = len(u)
    nss = array("i", [d]) * d
    psv, per = nss[:], nss[:]  # the loop writes every entry of these two
    ranks.append(-1)
    stack = [-1]
    p = 1
    j = 0
    for r, c in zip(ranks, u):
        while ranks[stack[-1]] > r:
            nss[stack.pop()] = j
        psv[j] = stack[-1]
        stack.append(j)
        per[j] = p
        if u[j - p] < c:
            p = j + 1
        j += 1
    ranks.pop()
    return nss, psv, per


def _factor_codes(factors: list[bytes]) -> tuple[np.ndarray, list[int]]:
    """(codes, firsts): the output code of every rotation of every factor,
    factor after factor, and where each factor's codes begin.

    A code is the rotation's omega rank (one power_ranks call over all the
    factors as segments) times 256 plus its last symbol, the one the
    transform outputs for it; equal ranks carry equal symbols.
    """
    lens = np.array([len(f) for f in factors], dtype=np.int64)
    symbols = np.frombuffer(b"".join(factors), dtype=np.uint8)
    codes = power_ranks(symbols, lens) * 256 + symbols[cyclic_pred(lens)]
    return codes, (np.cumsum(lens) - lens).tolist()


def _frame_runs(u: bytes, nss: array, per: array, m: int) -> list[int]:
    """Transform run count of the rotation cut at every offset q of u^m.

    That rotation's factors are those of u[q:] (u[q:nss[q]], then those of
    u[nss[q]:]), m - 1 copies of u, and those of u[:q] (those of u[:par],
    par = q % per[q], then copies of u[:per[q]]).  So every factor is one
    of at most 2d distinct substrings of u, and _factor_codes codes all their
    rotations at once.  Row q of a (d, d) matrix holds the codes of u[q:]'s
    factors in columns [0, d - q) and of u[:q]'s in [d - q, d), copying the
    part it shares from row nss[q] or row par.  When m > 1 one copy of u's
    codes joins every row: codes that repeat in a row never change its runs.
    Sorted, a row is in the transform's output order, and its runs are one
    plus its symbol changes.
    """
    d = len(u)
    ids: dict[bytes, int] = {}  # distinct factor -> its index
    suffix_id = [ids.setdefault(u[q:nss[q]], len(ids)) for q in range(d)]
    prefix_id = [ids.setdefault(u[:per[j]], len(ids)) for j in range(1, d)]
    codes, firsts = _factor_codes(list(ids))

    rows = np.empty((d, d), dtype=np.int64)
    for q in range(d - 1, -1, -1):
        e, a = nss[q], firsts[suffix_id[q]]
        rows[q, :e - q] = codes[a:a + e - q]
        if e < d:
            rows[q, e - q:d - q] = rows[e, :d - e]
    for j, f in enumerate(prefix_id, 1):
        size, a = per[j], firsts[f]
        par = j % size
        rows[j, d - j:d - j + par] = rows[par, d - par:]
        # the copies of u[:size], through a 2-d view of the row's contiguous tail
        rows[j, d - j + par:].reshape(-1, size)[:] = codes[a:a + size]
    if m > 1:  # row 0 holds the codes of u itself
        rows = np.hstack([rows, np.broadcast_to(rows[0], (d, d))])
    rows.sort(axis=1)
    symbols = rows.astype(np.uint8)  # the low byte of a code
    return (1 + np.count_nonzero(symbols[:, 1:] != symbols[:, :-1], axis=1)).tolist()


def _listed_sizes(u: bytes, nss: array, per: array, m: int) -> list[tuple[int, int]]:
    """(total, necklace count) of the rotation cut at every offset q of u^m,
    by recurrences over lists; for texts of up to _SMALL symbols.

    The suffix u[i:] is u[i:nss[i]], then the factors of u[nss[i]:], and
    it has one necklace more unless the next factor is the same.  The prefix
    u[:q] of period p is one necklace of q // p factors, then u[:q % p].
    """
    d = len(u)
    s_cnt, s_neck = [0] * (d + 1), [0] * (d + 1)
    for i in range(d - 1, -1, -1):
        j = nss[i]
        s_cnt[i] = s_cnt[j] + 1
        s_neck[i] = s_neck[j] + (j == d or nss[j] - j != j - i or u[i:j] != u[j:2 * j - i])
    p_cnt, p_neck = [0] * d, [0] * d
    per_q = [(m, 1)]
    for q in range(1, d):
        copies, par = divmod(q, per[q])
        p_cnt[q], p_neck[q] = copies + p_cnt[par], 1 + p_neck[par]
        per_q.append((s_cnt[q] + m - 1 + p_cnt[q], s_neck[q] + (m > 1) + p_neck[q]))
    return per_q


def _counted_sizes(u: bytes, nss: array, psv: array, per: array,
                   m: int) -> tuple[np.ndarray, np.ndarray]:
    """_listed_sizes as (totals, necklace counts), in numpy passes over the
    scan's columns.

    The suffix u[q:] factors at every j >= q with psv[j] < q, so its total
    counts the j with psv[j] < q, less the q positions before q (each has
    psv[j] < j).  Its necklace count leaves out each such j whose factor
    u[j:nss[j]] equals the next, which needs nss[nss[j]] - nss[j] ==
    nss[j] - j: numpy finds those, compares one-symbol factors by a gather,
    and slices compare the longer ones.  Each round of the prefix counts
    takes q to q % per[q] < q / 2, so there are at most log2 d of them.
    """
    d = len(u)
    pos = np.arange(d)
    nss, psv, per = (np.frombuffer(col, dtype=np.intc) for col in (nss, psv, per))
    # nss[d - 1] == d stands in for nss[d], and never passes the test
    cand = np.flatnonzero(nss[np.minimum(nss, d - 1)] - nss == nss - pos)
    ends = nss[cand]
    one = ends - cand == 1
    short = cand[one]
    ub = np.frombuffer(u, dtype=np.uint8)
    same = np.concatenate((short[ub[short] == ub[short + 1]], np.array(
        [j for j, e in zip(cand[~one].tolist(), ends[~one].tolist()) if u[j:e] == u[e:2 * e - j]],
        dtype=np.int64)))
    del cand, ends, one, short  # each array goes once read, to keep the peak down
    totals = np.bincount(psv + 1, minlength=d).cumsum() - pos
    # the factor at j in same counts for the q with psv[j] < q <= j
    necks = totals - (np.bincount(psv[same] + 1, minlength=d + 1)
                      - np.bincount(same + 1, minlength=d + 1))[:d].cumsum()
    copies, rest = np.divmod(pos, per)
    del pos
    totals += copies
    del copies
    necks[1:] += 1
    at = np.flatnonzero(rest)
    rest = rest[at]
    while at.size:
        copies, rest = np.divmod(rest, per[rest])
        totals[at] += copies
        necks[at] += 1
        kept = np.flatnonzero(rest)
        at, rest = at[kept], rest[kept]
    totals += m - 1
    if m > 1:
        necks += 1
    totals[0], necks[0] = m, 1
    return totals, necks


def all_rotation_factorization_sizes(w) -> RotationSizes:
    """(total_factors, necklace_count) of every rotation, in linear total time.

    Works in the least-rotation frame of the primitive root u (_frame): the
    rotation cut at offset q is factored as (suffix of u from q) +
    u^(m-1) + (prefix of u up to q); the junctions never merge because
    Lyndon words are unbordered.  Up to _SMALL symbols the counts run over
    lists (_listed_sizes); past it they are numpy passes (_counted_sizes),
    and the result holds them as columns (see RotationSizes).
    """
    w = as_text(w)
    if not w:
        raise ValueError("all_rotation_factorization_sizes: empty input")
    n = len(w)
    d = (w + w).find(w, 1)  # primitive period
    m = n // d
    j0, u, nss, psv, per = _frame(w, d)
    shift = -j0 % d  # rotation p starts at offset (p - j0) mod d of u
    if n <= _SMALL:
        per_q = _listed_sizes(u, nss, per, m)
        return RotationSizes(tuple((per_q[shift:] + per_q[:shift]) * m))
    at = np.arange(shift, shift + n) % d
    return RotationSizes._holding(tuple(col[at] for col in _counted_sizes(u, nss, psv, per, m)))


_PAIRS_PER_CHUNK = 1 << 16


def sizes_to_text(sizes: RotationSizes) -> str:
    """The "(total,necklaces)" pairs by start, space-separated, on one line.

    Held columns are written a chunk of pairs at a time, so only one chunk's
    Python ints and strings are alive besides the columns and the text.
    """
    cols = sizes.__dict__.get("_cols")
    if cols is None:
        return " ".join(f"({t},{k})" for t, k in sizes.by_start) + "\n"
    totals, necks = cols
    return " ".join(
        " ".join([f"({t},{k})" for t, k in zip(totals[a:a + _PAIRS_PER_CHUNK].tolist(),
                                                necks[a:a + _PAIRS_PER_CHUNK].tolist())])
        for a in range(0, len(totals), _PAIRS_PER_CHUNK)) + "\n"
