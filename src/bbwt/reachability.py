"""Reachability between equal-content strings under rotation and the
factor-sort transform: descent toward the sorted string, path search, and
whole-class orbit connectivity checks."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .strings import as_text, rot, smallest_rotation
from .transforms import _bbwt_rows, bbwt, bbwt_inverse


class NotANecklaceError(ValueError):
    """Input is not its own smallest rotation."""


class AlreadyMinimalError(ValueError):
    """Input already is the sorted (smallest possible) string."""


class DescentConditionError(ValueError):
    """The last symbol matches the symbol at the sorted-prefix boundary, so the
    one-step descent is not guaranteed to decrease."""


class UnsupportedAlphabetError(ValueError):
    """Constructive transformation only covers binary or all-distinct inputs."""


class OrbitBudgetError(RuntimeError):
    """Content class, or a path search, is larger than its budget."""


# Most strings a path search may store, and the default largest class
# orbit_connected enumerates.  At n = 24 (tracemalloc peak) find_path takes
# about 158 bytes of Python heap per stored string, and orbit_connected about
# 91 per member (2.69M members, 245 MB: rows, images and index maps in numpy,
# plus a fixed 50 MB for one transform chunk), so a full budget costs about
# 1.6 GB and 0.9 GB.  So orbit_connected also refuses a class whose members
# take more than 24 * budget bytes, the size of a full budget at n = 24.
SEARCH_BUDGET = 10_000_000


class ReachabilityCounterexample(Exception):
    """Two equal-content strings whose orbits never meet."""

    def __init__(self, first: bytes, second: bytes):
        self.first = first
        self.second = second
        super().__init__(
            f"no operation path connects {first!r} and {second!r}")


@dataclass(frozen=True)
class ParikhVector:
    """Symbol multiplicities, stored sorted by symbol byte.

    Raises ValueError unless the symbols are strictly increasing bytes
    (0-255) and every count is at least 1.
    """

    counts: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.counts:
            raise ValueError("ParikhVector: no symbols")
        prev = -1
        for entry in self.counts:
            if not (isinstance(entry, tuple) and len(entry) == 2
                    and all(isinstance(v, int) for v in entry)):
                raise ValueError(f"ParikhVector: {entry!r} is not a (symbol, count) pair")
            symbol, count = entry
            if not prev < symbol <= 255:
                raise ValueError(
                    f"ParikhVector: symbol {symbol} is not a byte above {prev}")
            if count < 1:
                raise ValueError(f"ParikhVector: count {count} of symbol {symbol} is below 1")
            prev = symbol

    @property
    def n(self) -> int:
        return sum(c for _, c in self.counts)

    @property
    def sigma(self) -> int:
        return len(self.counts)

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)


def parikh(w) -> ParikhVector:
    """Multiplicity of every symbol occurring in w."""
    w = as_text(w)
    if not w:
        raise ValueError("parikh: empty input")
    seen: dict[int, int] = {}
    for c in w:
        seen[c] = seen.get(c, 0) + 1
    return ParikhVector(tuple(sorted(seen.items())))


def canonical_smallest(p: ParikhVector) -> bytes:
    """The lexicographically smallest string with these symbol counts."""
    return b"".join(bytes([c]) * e for c, e in p.counts)


def class_size(p: ParikhVector) -> int:
    """Number of distinct strings with these symbol counts (multinomial)."""
    size, placed = 1, 0
    for _, e in p.counts:
        placed += e
        size *= comb(placed, e)
    return size


def _class_size_within(p: ParikhVector, budget: int) -> int | None:
    """class_size(p) if it is at most budget, else None.

    A running product of the multinomial stops once it passes budget.  The
    largest count goes first, so every later factor (placed + i) / i is at
    least 2 and the product takes at most log2(budget) + 1 steps.
    """
    first, *rest = sorted((e for _, e in p.counts), reverse=True)
    size, placed = 1, first
    for e in rest:
        for i in range(1, e + 1):
            size = size * (placed + i) // i
            if size > budget:
                return None
        placed += e
    return size if size <= budget else None


def _lcp_len(x: bytes, y: bytes) -> int:
    m = min(len(x), len(y))
    for i in range(m):
        if x[i] != y[i]:
            return i
    return m


def descent_step(x) -> bytes:
    """One guaranteed-decreasing move: the smallest rotation of the transform
    preimage of rot(x, 1).

    Requires x to be a necklace, not already the sorted string, and the symbol
    closing the sorted prefix to differ from the last symbol.
    """
    x = as_text(x)
    if not x:
        raise ValueError("descent_step: empty input")
    if smallest_rotation(x)[0] != x:
        raise NotANecklaceError(f"{x!r} is not its own smallest rotation")
    y = canonical_smallest(parikh(x))
    if x == y:
        raise AlreadyMinimalError(f"{x!r} is already the sorted string")
    i = _lcp_len(x, y)
    if x[i - 1] == x[-1]:
        raise DescentConditionError(
            f"symbol at position {i} equals the final symbol; "
            "descent not guaranteed")
    return smallest_rotation(bbwt_inverse(rot(x, 1)))[0]


def _apply_one(x: bytes, kind: str, amount: int) -> bytes:
    """One rotation by amount, or one transform step in amount's direction."""
    if kind == "rot":
        return rot(x, amount)
    if kind == "bbwt":
        return bbwt(x).output if amount > 0 else bbwt_inverse(x)
    raise ValueError(f"unknown step kind {kind!r}")


@dataclass(frozen=True)
class OpPath:
    """Alternating sequence of ('rot', k) / ('bbwt', m) steps.

    Positive bbwt counts apply the forward transform, negative the inverse.
    """

    steps: tuple[tuple[str, int], ...]

    def apply(self, x) -> bytes:
        x = as_text(x)
        for kind, amount in self.steps:
            for _ in range(abs(amount) if kind == "bbwt" else 1):
                x = _apply_one(x, kind, amount)
        return x

    def format(self) -> str:
        return ",".join(
            ("r" if kind == "rot" else "b") + str(amount)
            for kind, amount in self.steps)

    def __str__(self) -> str:
        return self.format()


def parse_path(text: str) -> OpPath:
    """Parse the comma-separated r<k>/b<m> token form."""
    text = text.strip()
    if not text:
        return OpPath(())
    steps = []
    for token in text.split(","):
        token = token.strip()
        if len(token) < 2 or token[0] not in "rb":
            raise ValueError(f"bad path token {token!r}")
        try:
            amount = int(token[1:])
        except ValueError:
            raise ValueError(f"bad path token {token!r}") from None
        steps.append(("rot" if token[0] == "r" else "bbwt", amount))
    return OpPath(tuple(steps))


def normalize_steps(steps, n: int) -> tuple[tuple[str, int], ...]:
    """Merge adjacent same-kind steps, reduce rotations modulo n, drop no-ops."""
    cur = list(steps)
    while True:
        merged: list[list] = []
        for kind, amount in cur:
            if merged and merged[-1][0] == kind:
                merged[-1][1] += amount
            else:
                merged.append([kind, amount])
        reduced = []
        for kind, amount in merged:
            if kind == "rot":
                amount %= n
            if amount != 0:
                reduced.append((kind, amount))
        if reduced == cur:
            return tuple(reduced)
        cur = reduced


_GENERATORS = (("rot", 1), ("rot", -1), ("bbwt", 1), ("bbwt", -1))


def find_path(x, y) -> OpPath:
    """Shortest operation path from x to y (bidirectional breadth-first search).

    Raises ValueError when the symbol counts differ,
    ReachabilityCounterexample when the whole class is exhausted without
    connecting the two strings, and OrbitBudgetError when the search would
    store more than SEARCH_BUDGET strings before the two sides meet.
    """
    x, y = as_text(x), as_text(y)
    if not x or not y:
        raise ValueError("find_path: empty input")
    if parikh(x) != parikh(y):
        raise ValueError("find_path: inputs have different symbol counts")
    n = len(x)
    if x == y:
        return OpPath(())
    fwd: dict[bytes, tuple[bytes, tuple[str, int]] | None] = {x: None}
    bwd: dict[bytes, tuple[bytes, tuple[str, int]] | None] = {y: None}
    frontier_f, frontier_b = [x], [y]
    meet = None
    while meet is None and (frontier_f or frontier_b):
        grow_fwd = frontier_f and (not frontier_b
                                   or len(frontier_f) <= len(frontier_b))
        frontier, seen, other = ((frontier_f, fwd, bwd) if grow_fwd
                                 else (frontier_b, bwd, fwd))
        nxt = []
        for state in frontier:
            for step in _GENERATORS:
                image = _apply_one(state, *step)
                if image in seen:
                    continue
                seen[image] = (state, step)
                if image in other:
                    meet = image
                    break
                if len(fwd) + len(bwd) > SEARCH_BUDGET:
                    raise OrbitBudgetError(
                        f"path search would store more than its budget of "
                        f"{SEARCH_BUDGET} strings")
                nxt.append(image)
            if meet is not None:
                break
        frontier[:] = nxt
    if meet is None:
        raise ReachabilityCounterexample(x, y)
    steps: list[tuple[str, int]] = []
    cur = meet
    while fwd[cur] is not None:
        prev, step = fwd[cur]
        steps.append(step)
        cur = prev
    steps.reverse()
    cur = meet
    while bwd[cur] is not None:
        prev, (kind, amount) = bwd[cur]
        steps.append((kind, -amount))
        cur = prev
    path = OpPath(normalize_steps(steps, n))
    return path


def _next_perm(a: bytearray) -> bool:
    i = len(a) - 2
    while i >= 0 and a[i] >= a[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(a) - 1
    while a[j] <= a[i]:
        j -= 1
    a[i], a[j] = a[j], a[i]
    a[i + 1:] = bytes(reversed(a[i + 1:]))
    return True


@dataclass(frozen=True)
class OrbitReport:
    class_size: int
    orbit_count: int
    connected: bool
    witness: tuple[bytes, bytes] | None


# Classes of at least this many members take the batched path.  Timed on the
# ternary classes to n = 7, a class of 15 members took 112 us member by member
# and 136 us batched, one of 20 members 140-160 against 132-144 us; long rows
# move the crossover up (a^(n-1) b batches faster from about 40 members).
BATCH_MIN = 20


def orbit_connected(p: ParikhVector,
                    budget: int = SEARCH_BUDGET) -> OrbitReport:
    """Split one content class into orbits under rotation and the transform.

    Both steps permute the finite class (the transform is a bijection), so
    an orbit is the set reachable from any of its members by forward steps.
    The class is enumerated in lexicographic order; each member outside every
    orbit found so far roots a new closure, and enumeration stops once every
    member is seen.  When disconnected, the witness pairs the sorted string
    with the first member outside its orbit.
    """
    size = _class_size_within(p, budget)
    if size is None:
        # an exact count takes 5 ms at 10^4 symbols but 39 s at 2 * 10^6
        shown = class_size(p) if p.n <= 10_000 else f"more than {budget}"
        raise OrbitBudgetError(f"class has {shown} members, budget is {budget}")
    if size * p.n > 24 * budget:  # members cost n bytes each; see SEARCH_BUDGET
        raise OrbitBudgetError(
            f"class has {size} members of {p.n} bytes, over the "
            f"{24 * budget} bytes its budget of {budget} allows")
    if size == 1:  # one member is its own image under both steps: nothing to build
        return OrbitReport(1, 1, True, None)
    roots = (_roots_per_member if size < BATCH_MIN else _roots_batched)(p, size)
    connected = len(roots) == 1
    witness = None if connected else (roots[0], roots[1])
    return OrbitReport(size, len(roots), connected, witness)


def _roots_per_member(p: ParikhVector, size: int) -> list[bytes]:
    """Closure roots, storing members as bytes and transforming one at a time."""
    seen: set[bytes] = set()
    roots: list[bytes] = []
    cur = bytearray(canonical_smallest(p))
    while len(seen) < size:
        root = bytes(cur)
        if root not in seen:
            roots.append(root)
            seen.add(root)
            stack = [root]
            while stack:
                x = stack.pop()
                for image in (rot(x, 1), bbwt(x).output):
                    if image not in seen:
                        seen.add(image)
                        stack.append(image)
        _next_perm(cur)
    return roots


def _class_rows(p: ParikhVector, size: int) -> np.ndarray:
    """Every member of the class as one row of a (size, n) uint8 array, in
    lexicographic order.

    Column j is filled prefix by prefix: each length-j prefix, in order,
    extends by each symbol it has left, smallest first, and the extension
    repeats once per completion (a prefix with m completions and counts c
    left extends by s in m * c[s] / (n - j) ways).
    """
    n = p.n
    symbols = np.array([s for s, _ in p.counts], dtype=np.uint8)
    left = np.array([[c for _, c in p.counts]], dtype=np.min_scalar_type(n))
    ways = np.array([size], dtype=np.int64)
    rows = np.empty((size, n), dtype=np.uint8)
    for j in range(n):
        parent, pick = np.nonzero(left)
        left = left[parent]
        ways = ways[parent] * left[np.arange(pick.size), pick] // (n - j)
        rows[:, j] = np.repeat(symbols[pick], ways)
        left[np.arange(pick.size), pick] -= 1
    return rows


def _roots_batched(p: ParikhVector, size: int) -> list[bytes]:
    """Closure roots over member indices: the whole class is enumerated as
    rows and transformed in one batch, and every rotation and transform
    image is located among the sorted rows by binary search."""
    rows = _class_rows(p, size)
    key = f"V{p.n}"  # one opaque n-byte item per row; they compare as bytes do
    members = rows.view(key).ravel()
    index = np.min_scalar_type(size)
    steps = [np.searchsorted(members, images.view(key).ravel()).astype(index).data
             for images in (np.roll(rows, 1, axis=1), _bbwt_rows(rows))]
    seen = bytearray(size)
    roots: list[int] = []
    reached = 0
    for root in range(size):
        if reached == size:
            break
        if seen[root]:
            continue
        roots.append(root)
        seen[root] = 1
        reached += 1
        stack = [root]
        while stack:
            x = stack.pop()
            for step in steps:
                y = step[x]
                if not seen[y]:
                    seen[y] = 1
                    reached += 1
                    stack.append(y)
    return [rows[r].tobytes() for r in roots]


def transform_to_smallest(x) -> OpPath:
    """Path from x to the sorted string, via repeated rotate-to-necklace and
    guaranteed-decreasing inverse-transform rounds.

    Only binary or all-distinct-symbol inputs carry the guarantee; anything
    else raises UnsupportedAlphabetError.
    """
    x = as_text(x)
    if not x:
        raise ValueError("transform_to_smallest: empty input")
    distinct = len(set(x))
    if distinct > 2 and distinct != len(x):
        raise UnsupportedAlphabetError(
            "guaranteed descent needs a binary or all-distinct alphabet")
    target = canonical_smallest(parikh(x))
    n = len(x)
    steps: list[tuple[str, int]] = []
    cur = x
    prev_necklace = None
    while True:
        least, k = smallest_rotation(cur)
        if k:
            steps.append(("rot", k))
        cur = least
        if prev_necklace is not None and not cur < prev_necklace:
            raise AssertionError("descent failed to decrease")
        prev_necklace = cur
        if cur == target:
            break
        steps.append(("rot", 1))
        steps.append(("bbwt", -1))
        cur = bbwt_inverse(rot(cur, 1))
    return OpPath(normalize_steps(steps, n))
