"""The prefix-doubling rank engine on the repetitive texts that take it the
most rounds, and on a text over most of the byte alphabet, checked against
sorting power prefixes of length 2n.  The engine's sorts are counted, and its
repacking of dense ranks is checked where a sort leaves 2^b or 2^b + 1 ranks.

The engine takes segment lengths; the brute oracle takes each position's
segment start and length, spelled out from the same lengths.  Every text is
longer than the transforms' small-input cutoff, so bwt and lz77_factorize
run every position through the rank engine here.  bbwt ranks one copy of
each distinct Lyndon factor (a single symbol for unary text) and gives the
further copies its ranks.  rotation_ranks is also checked below that
cutoff, where it sorts rotations directly.
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


def factor_lens(w):
    """Length of each Lyndon factor copy of w, in text order."""
    lens = [len(f) for f, count in lyndon_factorize(w).necklaces for _ in range(count)]
    return np.array(lens, dtype=np.int64)


def text_lens(w):
    """w as one segment."""
    return np.array([len(w)], dtype=np.int64)


def per_position(lens):
    """(seg_start, seg_len) of each position, for consecutive segments of the
    given lengths."""
    return np.repeat(lens.cumsum() - lens, lens), np.repeat(lens, lens)


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
    lens = factor_lens(w)
    got = power_ranks(np.frombuffer(w, dtype=np.uint8), lens)
    assert got.tolist() == brute_power_ranks(w, *per_position(lens))


def near_periodic(root, n):
    """(root^ω)[:n] and its variants with one symbol changed."""
    w = (root * n)[:n]
    return [w] + [w[:i] + bytes([195 - w[i]]) + w[i + 1:] for i in range(n)]


SEGMENT_SETS = [
    pytest.param([fibonacci(n) for n in range(1, 41)], id="fibonacci-prefixes"),
    pytest.param([fibonacci(n) for n in (5, 8, 13, 21, 34, 55, 89)], id="fibonacci-words"),
    pytest.param(near_periodic(b"abaab", 23) + near_periodic(b"aab", 14), id="near-periodic"),
    pytest.param([b"ab" * 9 + b"a", b"ab" * 9, b"aba", b"abaab" * 3], id="long-agreements"),
]


@pytest.mark.parametrize("segments", SEGMENT_SETS)
def test_power_ranks_on_segments_of_many_lengths(segments):
    # the doubling stops at twice the longest segment, far short of twice
    # all positions; checked against power prefixes of twice all positions
    lens = np.array([len(s) for s in segments], dtype=np.int64)
    w = b"".join(segments)
    got = power_ranks(np.frombuffer(w, dtype=np.uint8), lens)
    assert got.tolist() == brute_power_ranks(w, *per_position(lens))


@pytest.mark.parametrize("w", TEXTS)
def test_power_ranks_on_text_rotations(w):
    lens = text_lens(w)
    got = power_ranks(np.frombuffer(w, dtype=np.uint8), lens)
    assert got.tolist() == brute_power_ranks(w, *per_position(lens))


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


@pytest.fixture
def sort_counts(monkeypatch):
    """Dense rank count after each sort that power_ranks makes, in order."""
    counts = []
    argsort = np.argsort

    def counting(key, *args, **kwargs):
        order = argsort(key, *args, **kwargs)
        ordered = key[order]
        counts.append(1 + int(np.count_nonzero(ordered[1:] != ordered[:-1])))
        return order

    monkeypatch.setattr(np, "argsort", counting)
    return counts


def rank_both_ways(w, counts):
    """power_ranks on text and on factor rotations, checked against brute
    force; returns the rank counts after each sort of both calls."""
    seen = []
    for lens in (text_lens(w), factor_lens(w)):
        counts.clear()
        got = power_ranks(np.frombuffer(w, dtype=np.uint8), lens)
        seen.append(list(counts))
        assert got.tolist() == brute_power_ranks(w, *per_position(lens))
    return seen


def periodic_1009(n):
    u = bytes(random.Random(1009).choices(b"abcd", k=1009))
    return (u * (n // 1009 + 1))[:n]


@pytest.mark.parametrize("kind", [fibonacci, thue_morse, periodic_1009])
@pytest.mark.parametrize("n", [2049, 4097])
def test_power_ranks_repack_on_repetitive_texts(kind, n, sort_counts):
    for counts in rank_both_ways(kind(n), sort_counts):
        assert len(counts) >= 3  # packs from ranks at least twice


def cube(size):
    # u^3 with u primitive and its rotations apart within 16 symbols, so the
    # first sort of its text rotations leaves exactly |u| ranks
    return bytes(random.Random(size).choices(b"abcd", k=size)) * 3


def seeded_periodic(seed):
    # a binary periodic text with a tail; EDGE_COUNTS names seeds where a sort
    # before the last leaves exactly 2^b or 2^b + 1 ranks, and the test checks it
    rng = random.Random(seed)
    u = bytes(rng.choices(b"ab", k=rng.randint(20, 300)))
    return u * rng.randint(2, 5) + bytes(rng.choices(b"ab", k=rng.randint(0, 40)))


EDGE_COUNTS = [pytest.param(cube(size), size, id=f"cube-{size}")
               for size in (16, 17, 64, 65, 256, 257)]
EDGE_COUNTS += [pytest.param(seeded_periodic(seed), count, id=f"periodic-{seed}")
                for seed, count in ((24, 257), (267, 256), (359, 129))]
EDGE_COUNTS += [pytest.param(periodic_1009(2049), 1024, id="periodic_1009-2049")]


@pytest.mark.parametrize("w,count", EDGE_COUNTS)
def test_power_ranks_repack_at_a_power_of_two(w, count, sort_counts):
    # a sort that leaves 2^b ranks repacks them in b bits, 2^b + 1 in b + 1
    text_counts, _ = rank_both_ways(w, sort_counts)
    assert count in text_counts[:-1]


@pytest.mark.parametrize("kind,n,most", [(fibonacci, 1 << 14, 5), (thue_morse, 1 << 14, 5),
                                         (unary, 1 << 14, 1), (unary, 100, 1)])
def test_power_ranks_sort_count(kind, n, most, sort_counts):
    w = kind(n)
    power_ranks(np.frombuffer(w, dtype=np.uint8), text_lens(w))
    assert len(sort_counts) <= most


def test_power_ranks_size_limit():
    # dense ranks of 2^31 positions no longer pack two to a 63-bit code;
    # broadcast views, so nothing of that size is allocated
    n = 1 << 31
    with pytest.raises(ValueError):
        power_ranks(np.broadcast_to(np.uint8(97), (n,)), np.broadcast_to(np.int64(n), (1,)))


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
