"""The prefix-doubling rank engine on the repetitive texts that take it the
most rounds, and on a text over most of the byte alphabet, checked against
sorting power prefixes of length 2n.

Every text is longer than the transforms' small-input cutoff, so bbwt, bwt and
lz77_factorize all run through the rank engine here.  rotation_ranks is also
checked below that cutoff, where it sorts rotations directly.
"""

import random

import numpy as np
import pytest

import oracles as O
from bbwt import bbwt, bwt, lyndon_factorize
from bbwt._ranks import _SMALL, power_ranks, rotation_ranks, suffix_ranks_np
from test_measures import check_against_oracle


def fibonacci(n):
    k = 1
    while len(O.brute_fibonacci(k)) < n:
        k += 1
    return O.brute_fibonacci(k)[:n]


def thue_morse(n):
    return bytes(97 + bin(i).count("1") % 2 for i in range(n))


def periodic(n):
    return (b"abracadabra" * n)[:n]


def unary(n):
    return b"a" * n


def equal_copies(n):
    # Lyndon factorization (abb)^i (ab)^j a^k: three necklaces of equal copies
    i, j = n // 6, n // 4
    return b"abb" * i + b"ab" * j + b"a" * (n - 3 * i - 2 * j)


def byte_noise(n):
    # most of the byte alphabet, so symbols need 8 bits (9 with a terminator)
    return random.Random(n).randbytes(n)


KINDS = [fibonacci, thue_morse, periodic, unary, equal_copies, byte_noise]
SIZES = [65, 96, 130, 257, 400]
TEXTS = [pytest.param(kind(n), id=f"{kind.__name__}-{n}") for kind in KINDS for n in SIZES]


def factor_segments(w):
    """(seg_start, seg_len) of each position's Lyndon factor copy."""
    lens = [len(f) for f, count in lyndon_factorize(w).necklaces for _ in range(count)]
    starts = np.cumsum([0] + lens[:-1])
    return np.repeat(starts, lens), np.repeat(lens, lens)


def brute_power_ranks(w, seg_start, seg_len):
    """Dense ranks of each rotation's power prefix of length 2n."""
    keys = []
    for p, (s, m) in enumerate(zip(seg_start.tolist(), seg_len.tolist())):
        seg = w[s:s + m]
        keys.append(O.omega_key(seg[p - s:] + seg[:p - s], 2 * len(w)))
    dense = {key: r for r, key in enumerate(sorted(set(keys)))}
    return [dense[key] for key in keys]


@pytest.mark.parametrize("w", TEXTS)
def test_power_ranks_on_factor_rotations(w):
    seg_start, seg_len = factor_segments(w)
    got = power_ranks(np.frombuffer(w, dtype=np.uint8), seg_start, seg_len)
    assert got.tolist() == brute_power_ranks(w, seg_start, seg_len)


@pytest.mark.parametrize("w", TEXTS)
def test_power_ranks_on_text_rotations(w):
    n = len(w)
    seg_start, seg_len = np.zeros(n, dtype=np.int64), np.full(n, n, dtype=np.int64)
    got = power_ranks(np.frombuffer(w, dtype=np.uint8), seg_start, seg_len)
    assert got.tolist() == brute_power_ranks(w, seg_start, seg_len)


@pytest.mark.parametrize("w", TEXTS)
def test_suffix_ranks_are_the_sorted_suffix_order(w):
    ranks = suffix_ranks_np(w)
    order = sorted(range(len(w)), key=lambda i: w[i:])
    assert np.argsort(ranks).tolist() == order
    assert sorted(ranks.tolist()) == list(range(len(w)))


@pytest.mark.parametrize("w", TEXTS)
def test_transforms_and_lz77_match_oracles(w):
    got = bbwt(w)
    assert (got.output, got.csa) == O.brute_bbwt(w)
    assert bwt(w).output == O.brute_bwt(w)
    check_against_oracle(w)


def brute_rotation_ranks(w):
    """Dense ranks of the rotations of w, by start."""
    rots = O.rotations(w)
    dense = {r: i for i, r in enumerate(sorted(set(rots)))}
    return [dense[r] for r in rots]


def periodic_rotations(n):
    # a rotation of the longest power of a short word that fits in n:
    # equal rotations must tie
    u = b"abaab"
    return O.brute_rot(u * (n // len(u)), n % 7)


def random_ternary(n):
    return bytes(random.Random(n).choices(b"abc", k=n))


def test_rotation_ranks_on_both_sides_of_the_cutoff():
    texts = list(O.all_strings("ab", 1, 12))
    texts += [kind(n) for kind in (random_ternary, periodic_rotations, unary, byte_noise)
              for n in (_SMALL - 1, _SMALL, _SMALL + 1, 100, 193, 300)]
    for w in texts:
        assert rotation_ranks(w) == brute_rotation_ranks(w), w


def random_lyndon(rng, n):
    while True:
        w = bytes(rng.choices(b"abc", k=n))
        least = min(O.rotations(w))
        if O.brute_is_primitive(least):
            return least


def test_lyndon_rotations_sort_as_suffixes():
    # the suffix order that right_lyndon_tree and the rotation sizes read
    # from rotation_ranks
    rng = random.Random(61)
    words = [w for w in O.all_strings("abc", 1, 10) if O.brute_is_lyndon(w)]
    words += [random_lyndon(rng, n) for n in (_SMALL + 1, 90, 150, 257, 300) for _ in range(4)]
    for w in words:
        by_suffix = sorted(range(len(w)), key=lambda i: w[i:])
        ranks = rotation_ranks(w)
        assert sorted(range(len(w)), key=ranks.__getitem__) == by_suffix, w
