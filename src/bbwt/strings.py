"""Rotations, Lyndon words, Duval factorization, least rotations, omega order.

Every public function accepts bytes, bytearray, or str (encoded latin-1 so one
character is one byte) and returns bytes where it returns text.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._ranks import rotation_ranks

_GALLOP = 16  # equal Duval steps in a row before lyndon_factorize gallops


def as_text(x) -> bytes:
    """Coerce input to bytes; str is encoded latin-1."""
    if isinstance(x, str):
        return x.encode("latin-1")
    return bytes(x)


def rot(x, k: int = 1) -> bytes:
    """Rotate by k steps; one step moves the last symbol to the front.

    Negative k rotates the other way (first symbol to the end).
    """
    x = as_text(x)
    n = len(x)
    if n == 0:
        raise ValueError("rot: empty input")
    k %= n
    return x[n - k:] + x[:n - k]


def is_primitive(x) -> bool:
    """True iff x is not u^k for any shorter u and k >= 2."""
    x = as_text(x)
    if not x:
        raise ValueError("is_primitive: empty input")
    return (x + x).find(x, 1) == len(x)


def is_lyndon(x) -> bool:
    """True iff x is strictly smaller than every proper suffix of x, that is,
    iff its longest Lyndon prefix is all of x."""
    x = as_text(x)
    if not x:
        raise ValueError("is_lyndon: empty input")
    return _lyndon_prefix(x, 0, len(x)) == len(x)


def _lyndon_prefix(x: bytes, i: int, j: int) -> int:
    """Length of the longest Lyndon prefix of the nonempty segment x[i:j].

    Duval's scan: x[i:t] stays a power of the Lyndon prefix of length p,
    possibly cut short, until a symbol below its period ends every longer
    Lyndon prefix; a symbol above the period makes all of x[i:t + 1] Lyndon.
    """
    p = 1
    for t in range(i + 1, j):
        cur, prev = x[t], x[t - p]
        if cur < prev:
            break
        if cur > prev:
            p = t - i + 1
    return p


@dataclass(frozen=True)
class LyndonFactorization:
    """Grouped factorization: (factor, exponent) pairs, factors strictly decreasing."""

    necklaces: tuple[tuple[bytes, int], ...]

    @property
    def total_factors(self) -> int:
        return sum(k for _, k in self.necklaces)

    @property
    def necklace_count(self) -> int:
        return len(self.necklaces)

    def expand(self) -> bytes:
        return b"".join(f * k for f, k in self.necklaces)


def lyndon_factorize(x) -> LyndonFactorization:
    """Unique factorization of x into a nonincreasing product of Lyndon words.

    Duval's scan; each emitted batch is one maximal group of equal factors.
    The scan compares x[k] with x[j]; after _GALLOP equal steps in a row it
    extends the match x[k:] == x[j:] by slice compares, doubling the block
    while it matches, then halving it, so a long periodic stretch costs
    O(log) Python steps instead of one per symbol.  A gallop that stops
    short only hands the rest back to the symbol loop.
    """
    x = as_text(x)
    if not x:
        raise ValueError("lyndon_factorize: empty input")
    n = len(x)
    groups = []
    i = 0
    while i < n:
        j, k, same = i + 1, i, 0
        while j < n:
            a, b = x[k], x[j]
            if a > b:
                break
            j += 1
            if a < b:
                k, same = i, 0
                continue
            k += 1
            same += 1
            if same == _GALLOP:
                # a block past the end is cut short there, so it never matches
                step = _GALLOP
                while x[k:k + step] == x[j:j + step]:
                    j, k, step = j + step, k + step, 2 * step
                while step > 1:
                    step //= 2
                    if x[k:k + step] == x[j:j + step]:
                        j, k = j + step, k + step
                same = 0
        length = j - k
        count = (j - i) // length
        groups.append((x[i:i + length], count))
        i += length * count
    return LyndonFactorization(tuple(groups))


def smallest_rotation(x) -> tuple[bytes, int]:
    """Return (least rotation of x, smallest k >= 0 with rot(x, k) equal to it).

    The first start of least rotation rank gives the rotation; starts a period
    apart tie with it, and the last of them gives the smallest k.
    """
    x = as_text(x)
    if not x:
        raise ValueError("smallest_rotation: empty input")
    n = len(x)
    ranks = rotation_ranks(x)
    start = ranks.index(min(ranks))
    least = x[start:] + x[:start]
    period = (least + least).find(least, 1)
    if start == 0:
        return least, 0
    # all valid starts are start + j*period; the largest one gives the smallest k
    last = start + period * ((n - 1 - start) // period)
    return least, n - last


def omega_compare(x, y) -> int:
    """Compare the infinite repetitions x^inf and y^inf; returns -1, 0, or 1.

    Both inputs must be primitive; distinct primitive strings always differ
    within the first len(x) + len(y) symbols.
    """
    x, y = as_text(x), as_text(y)
    if not is_primitive(x) or not is_primitive(y):
        raise ValueError("omega_compare: inputs must be primitive")
    if x == y:
        return 0
    total = len(x) + len(y)
    ex = (x * (total // len(x) + 1))[:total]
    ey = (y * (total // len(y) + 1))[:total]
    return -1 if ex < ey else 1
