"""The prefix-doubling rank engine on the repetitive texts that take it the
most rounds, and on a text over most of the byte alphabet, checked against
sorting power prefixes of length 2n.

Every text is longer than the transforms' small-input cutoff, so bbwt, bwt and
lz77_factorize all run through the rank engine here.
"""

import random

import numpy as np
import pytest

import oracles as O
from bbwt import bbwt, bwt, lyndon_factorize
from bbwt._ranks import power_ranks, suffix_ranks_np
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
