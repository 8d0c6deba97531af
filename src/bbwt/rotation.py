"""Rotation search for the fewest transform runs, Lyndon trees, and
factorization sizes of all rotations in one pass.

The per-rotation sizes come from two linear scans over the least-rotation
frame: factor counts of every suffix (next-smaller suffix ranks) and of every
prefix (an instrumented Duval scan).  A rotation's factorization is its
suffix part followed by its prefix part, since no factor of a rotation of a
Lyndon word ever spans the wrap point.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._ranks import rotation_ranks
from .strings import as_text, is_lyndon, rot
from .transforms import bbwt


# Most symbols all_rotation_runs may transform, one period of shifts times
# the length.  At n = 4096 a symbol took 0.27 us on random text and 0.56 us
# on a Fibonacci word (Python 3.11, 2-core VM), so 2^24 is 4.5-9.4 s.
ROTATION_BUDGET = 1 << 24


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

    Only the d shifts of one primitive period are transformed, since
    rot(w, k) == rot(w, k + d).  Raises ValueError when that would transform
    more than ROTATION_BUDGET symbols (d * n).
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
    return tuple(bbwt(rot(w, k)).runs for k in range(d)) * (n // d)


def best_rotation(w) -> BestRotation:
    """Rotation with the fewest transform runs; smallest shift wins ties."""
    runs = all_rotation_runs(w)
    best_runs = min(runs)
    shift = runs.index(best_runs)
    return BestRotation(shift, rot(w, shift), best_runs)


def _realize(split_root, n: int) -> TreeNode:
    """Turn a nested [split, left, right] structure over cut points 1..n-1
    into interval TreeNodes covering [1..n]."""
    pending = []
    stack = [(split_root, 0, n)]
    while stack:
        node, i, j = stack.pop()
        pending.append((node, i, j))
        t, left, right = node
        if left is not None:
            stack.append((left, i, t))
        if right is not None:
            stack.append((right, t, j))
    made: dict[int, TreeNode] = {}
    for node, i, j in reversed(pending):
        t, left, right = node
        lnode = made[id(left)] if left is not None else TreeNode(i + 1, t)
        rnode = made[id(right)] if right is not None else TreeNode(t + 1, j)
        made[id(node)] = TreeNode(i + 1, j, lnode, rnode)
    return made[id(split_root)]


def right_lyndon_tree(w) -> LyndonTree:
    """Recursive split at the longest proper Lyndon suffix.

    That suffix is the lexicographically smallest proper suffix, so the tree
    is the minimum-at-top binary tree over suffix ranks at cut points.  A
    Lyndon word's rotations sort as its suffixes do, so rotation ranks serve.
    """
    w = as_text(w)
    if not is_lyndon(w):
        raise ValueError("right_lyndon_tree: input is not a Lyndon word")
    n = len(w)
    if n == 1:
        return LyndonTree("RIGHT", TreeNode(1, 1))
    ranks = rotation_ranks(w)
    stack: list[list] = []
    for t in range(1, n):
        last = None
        while stack and ranks[stack[-1][0]] > ranks[t]:
            last = stack.pop()
        node = [t, last, None]
        if stack:
            stack[-1][2] = node
        stack.append(node)
    return LyndonTree("RIGHT", _realize(stack[0], n))


def _longest_proper_lyndon_prefix(w: bytes, i: int, j: int) -> int:
    """Length of the longest Lyndon prefix of w[i:j] shorter than the segment."""
    m = j - i
    best = 1
    p = 1
    for t in range(1, m - 1):
        c, d = w[i + t], w[i + t - p]
        if c < d:
            break
        if c > d:
            p = t + 1
            best = p
    return best


def left_lyndon_tree(w) -> LyndonTree:
    """Recursive split at the longest proper Lyndon prefix."""
    w = as_text(w)
    if not is_lyndon(w):
        raise ValueError("left_lyndon_tree: input is not a Lyndon word")
    n = len(w)
    if n == 1:
        return LyndonTree("LEFT", TreeNode(1, 1))
    pending = []
    stack = [(0, n)]
    while stack:
        i, j = stack.pop()
        if j - i == 1:
            continue
        length = _longest_proper_lyndon_prefix(w, i, j)
        pending.append((i, j, length))
        stack.append((i, i + length))
        stack.append((i + length, j))
    made: dict[tuple[int, int], TreeNode] = {}
    for i, j, length in reversed(pending):
        left = made.get((i, i + length)) or TreeNode(i + 1, i + length)
        right = made.get((i + length, j)) or TreeNode(i + length + 1, j)
        made[(i, j)] = TreeNode(i + 1, j, left, right)
    return LyndonTree("LEFT", made[(0, n)])


def _suffix_counts(x: bytes, ranks: list[int]):
    """Factor totals and necklace counts of every suffix of Lyndon word x.

    The first factor of the suffix at i runs to the next position with a
    smaller suffix rank; counts chain off that tail, merging the necklace
    when the following factor is identical.
    """
    n = len(x)
    nss = [n] * n
    stack: list[int] = []
    for j in range(n):
        while stack and ranks[stack[-1]] > ranks[j]:
            nss[stack.pop()] = j
        stack.append(j)
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
    """Factor totals and necklace counts of every prefix of x.

    A Duval scan instrumented so that at scan position j the prefix x[:j]
    is (emitted factors) u^q u' with u' a proper prefix of u; its counts
    reduce to the already-known prefix x[:i+r] plus the u^q block.
    """
    n = len(x)
    p_cnt = [0] * (n + 1)
    p_neck = [0] * (n + 1)
    i = 0
    while i < n:
        j, k = i + 1, i
        while True:
            q, r = divmod(j - i, j - k)
            p_cnt[j] = q + p_cnt[i + r]
            p_neck[j] = p_neck[i + r] + 1
            if j == n or x[k] > x[j]:
                break
            if x[k] < x[j]:
                k = i
            else:
                k += 1
            j += 1
        period = j - k
        i += period * ((j - i) // period)
    return p_cnt, p_neck


def all_rotation_factorization_sizes(w) -> RotationSizes:
    """(total_factors, necklace_count) of every rotation, in linear total time.

    Works in the least-rotation frame of the primitive root u: the rotation
    cut at offset q is factored as (suffix of u from q) + u^(copies-1) +
    (prefix of u up to q); the junctions never merge because Lyndon words
    are unbordered.  One rotation-rank pass over w gives the frame and u's
    suffix ranks, as the suffixes of a Lyndon word sort as its rotations do.
    """
    w = as_text(w)
    if not w:
        raise ValueError("all_rotation_factorization_sizes: empty input")
    n = len(w)
    d = (w + w).find(w, 1)  # primitive period
    m = n // d
    ranks = rotation_ranks(w)
    j0 = ranks.index(min(ranks))  # where the least rotation starts inside w
    u = (w[j0:] + w[:j0])[:d]
    s_cnt, s_neck = _suffix_counts(u, (ranks[j0:] + ranks[:j0])[:d])
    p_cnt, p_neck = _prefix_counts(u)
    extra_neck = 1 if m >= 2 else 0
    shared: dict = {}
    per_q = [(m, 1)]
    for q in range(1, d):
        pair = (s_cnt[q] + (m - 1) + p_cnt[q], s_neck[q] + extra_neck + p_neck[q])
        per_q.append(shared.setdefault(pair, pair))
    # rotation p starts at offset (p - j0) mod d of u
    shift = -j0 % d
    return RotationSizes(tuple((per_q[shift:] + per_q[:shift]) * m))
