"""Rotation search for the fewest transform runs, Lyndon trees, and
factorization sizes of all rotations in one pass.

Everything about all rotations works in the least-rotation frame of the
primitive root u (a Lyndon word) of w = rot(u^m): the rotation cut at offset
q of u is u[q:] u^(m-1) u[:q], and its Lyndon factors are those of the suffix
u[q:] (a chain of next-smaller suffix ranks), m - 1 copies of u, and those of
the prefix u[:q] (a parent forest recorded by an instrumented Duval scan),
since no factor of a rotation of a Lyndon word ever spans the wrap point.
The per-rotation sizes are counts along the two chains.  The run counts of
the transform of every rotation come from one omega sort of the O(d) distinct
factors, then one sort of each rotation's output codes as a row of a matrix;
only very small and very large searches transform shift by shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._ranks import cyclic_pred, power_ranks, rotation_ranks
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


@dataclass(frozen=True)
class RotationSizes:
    """by_start[p - 1] = (total_factors, necklace_count) of the rotation that
    starts at 1-based text position p."""

    by_start: tuple[tuple[int, int], ...]


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
    j0, u, nss = _frame(w, d)
    per_q = _frame_runs(u, nss, n // d)
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
    the nearest smaller suffix rank before t to the nearest after it (a
    Lyndon word's rotation ranks serve), and a parent's cut ranks lowest.
    TreeNode's ==, hash, repr and pickling recurse once per level, so on
    trees deeper than the recursion limit they raise RecursionError.
    """
    w = as_text(w)
    if not is_lyndon(w):
        raise ValueError("right_lyndon_tree: input is not a Lyndon word")
    n = len(w)
    ranks = rotation_ranks(w)
    hi = _next_smaller(ranks)
    lo = [n - 1 - b for b in reversed(_next_smaller(ranks[::-1]))]
    by_rank = [0] * n
    for t, r in enumerate(ranks):
        by_rank[r] = t
    return _tree("RIGHT", [(lo[t], hi[t], t) for t in by_rank[1:]], n)


def left_lyndon_tree(w) -> LyndonTree:
    """Recursive split at the longest proper Lyndon prefix, in linear time.

    Every left child, like the root, spells a prefix w[:m], and its right
    spine cuts at the Lyndon factors of w[:m - 1], which _prefix_counts
    lists: q copies of w[:(j - par) // q], then the factors of w[:par].
    Deep trees: see right_lyndon_tree.
    """
    w = as_text(w)
    if not is_lyndon(w):
        raise ValueError("left_lyndon_tree: input is not a Lyndon word")
    n = len(w)
    p_cnt, _, p_par = _prefix_counts(w)
    splits = []
    stack = [(0, n)]  # (x, m): a node at text offset x spelling w[:m]
    while stack:
        x, m = stack.pop()
        i, j = x, m - 1
        while j:  # the factors of w[:j], cut one by one off the spine
            par = p_par[j]
            q = p_cnt[j] - p_cnt[par]
            size = (j - par) // q
            for _ in range(q):
                splits.append((i, x + m, i + size))
                if size > 1:
                    stack.append((i, size))
                i += size
            j = par
    return _tree("LEFT", splits, n)


def _frame(w: bytes, d: int) -> tuple[int, bytes, list[int]]:
    """(j0, u, nss): where the least rotation starts inside w, its root u of
    length d (a Lyndon word), and _next_smaller of u's suffix ranks.

    One rotation-rank pass over w gives all three, as the suffixes of a
    Lyndon word sort as its rotations do.  The rank list, a Python int per
    position, is dropped here, before the callers' scans add their lists.
    """
    ranks = rotation_ranks(w)
    j0 = ranks.index(min(ranks))
    u = (w[j0:] + w[:j0])[:d]
    return j0, u, _next_smaller((ranks[j0:] + ranks[:j0])[:d])


def _next_smaller(ranks: list[int]) -> list[int]:
    """nss[i]: the first position after i with a smaller rank, else len(ranks).

    For the suffix ranks of a Lyndon word x, x[i:nss[i]] is the first Lyndon
    factor of the suffix x[i:], and the rest factors as x[nss[i]:].
    """
    n = len(ranks)
    nss = [n] * n
    stack: list[int] = []
    for j in range(n):
        while stack and ranks[stack[-1]] > ranks[j]:
            nss[stack.pop()] = j
        stack.append(j)
    return nss


def _suffix_counts(x: bytes, nss: list[int]):
    """Factor totals and necklace counts of every suffix of Lyndon word x.

    The first factor of the suffix at i runs to nss[i]; counts chain off that
    tail, merging the necklace when the following factor is identical.
    """
    n = len(x)
    s_cnt = [0] * (n + 1)
    s_neck = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        j = nss[i]
        lam = j - i
        s_cnt[i] = s_cnt[j] + 1
        if j < n and nss[j] - j == lam and x[i:j] == x[j:j + lam]:
            s_neck[i] = s_neck[j]
        else:
            s_neck[i] = s_neck[j] + 1
    return s_cnt, s_neck


def _prefix_counts(x: bytes):
    """Factor totals, necklace counts and parents of every prefix of x.

    A Duval scan instrumented so that at scan position j the prefix x[:j]
    is (emitted factors) v^q v' with v Lyndon and v' a proper prefix of v;
    its counts reduce to those of its parent x[:par], par = j - q|v|, which
    is (emitted factors) v'.  For a Lyndon word x nothing is emitted before
    the end, so v = x[:(j - par) // q] and par = |v'|.
    """
    n = len(x)
    p_cnt = [0] * (n + 1)
    p_neck = [0] * (n + 1)
    p_par = [0] * (n + 1)
    i = 0
    while i < n:
        j, k = i + 1, i
        while True:
            q, r = divmod(j - i, j - k)
            par = i + r
            p_par[j] = par
            p_cnt[j] = q + p_cnt[par]
            p_neck[j] = p_neck[par] + 1
            if j == n or x[k] > x[j]:
                break
            if x[k] < x[j]:
                k = i
            else:
                k += 1
            j += 1
        period = j - k
        i += period * ((j - i) // period)
    return p_cnt, p_neck, p_par


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


def _frame_runs(u: bytes, nss: list[int], m: int) -> list[int]:
    """Transform run count of the rotation cut at every offset q of u^m.

    That rotation's factors are those of u[q:] (u[q:nss[q]], then those of
    u[nss[q]:]), m - 1 copies of u, and those of u[:q] (those of u[:par],
    then copies of u[:period], from _prefix_counts).  So every factor is one
    of at most 2d distinct substrings of u, and _factor_codes codes all their
    rotations at once.  Row q of a (d, d) matrix holds the codes of u[q:]'s
    factors in columns [0, d - q) and of u[:q]'s in [d - q, d), copying the
    part it shares from row nss[q] or row par.  When m > 1 one copy of u's
    codes joins every row: codes that repeat in a row never change its runs.
    Sorted, a row is in the transform's output order, and its runs are one
    plus its symbol changes.
    """
    d = len(u)
    p_cnt, _, p_par = _prefix_counts(u)
    copies = [p_cnt[j] - p_cnt[p_par[j]] for j in range(d)]  # of u[:period] in u[:j]
    ids: dict[bytes, int] = {}  # distinct factor -> its index
    suffix_id = [ids.setdefault(u[q:nss[q]], len(ids)) for q in range(d)]
    prefix_id = [ids.setdefault(u[:(j - p_par[j]) // copies[j]], len(ids))
                 for j in range(1, d)]
    codes, firsts = _factor_codes(list(ids))

    rows = np.empty((d, d), dtype=np.int64)
    for q in range(d - 1, -1, -1):
        e, a = nss[q], firsts[suffix_id[q]]
        rows[q, :e - q] = codes[a:a + e - q]
        if e < d:
            rows[q, e - q:d - q] = rows[e, :d - e]
    for j, f in enumerate(prefix_id, 1):
        par, a = p_par[j], firsts[f]
        rows[j, d - j:d - j + par] = rows[par, d - par:]
        # the copies of u[:period], through a 2-d view of the row's contiguous tail
        rows[j, d - j + par:].reshape(copies[j], -1)[:] = codes[a:a + (j - par) // copies[j]]
    if m > 1:  # row 0 holds the codes of u itself
        rows = np.hstack([rows, np.broadcast_to(rows[0], (d, d))])
    rows.sort(axis=1)
    symbols = rows.astype(np.uint8)  # the low byte of a code
    return (1 + np.count_nonzero(symbols[:, 1:] != symbols[:, :-1], axis=1)).tolist()


def all_rotation_factorization_sizes(w) -> RotationSizes:
    """(total_factors, necklace_count) of every rotation, in linear total time.

    Works in the least-rotation frame of the primitive root u (_frame): the
    rotation cut at offset q is factored as (suffix of u from q) +
    u^(copies-1) + (prefix of u up to q); the junctions never merge because
    Lyndon words are unbordered.
    """
    w = as_text(w)
    if not w:
        raise ValueError("all_rotation_factorization_sizes: empty input")
    n = len(w)
    d = (w + w).find(w, 1)  # primitive period
    m = n // d
    j0, u, nss = _frame(w, d)
    s_cnt, s_neck = _suffix_counts(u, nss)
    p_cnt, p_neck, _ = _prefix_counts(u)
    extra_neck = 1 if m >= 2 else 0
    shared: dict = {}
    per_q = [(m, 1)]
    for q in range(1, d):
        pair = (s_cnt[q] + (m - 1) + p_cnt[q], s_neck[q] + extra_neck + p_neck[q])
        per_q.append(shared.setdefault(pair, pair))
    # rotation p starts at offset (p - j0) mod d of u
    shift = -j0 % d
    return RotationSizes(tuple((per_q[shift:] + per_q[:shift]) * m))
