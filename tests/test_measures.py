import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as O
from bbwt import (
    LzFactor,
    bbwt,
    bwt,
    fibonacci_separation_table,
    fibonacci_word,
    induce_bms,
    lyndon_factorize,
    lz77_factorize,
    measure_report,
)
from bbwt.measures import _common_prefix


def as_tuples(fac):
    return [(f.start, f.length, f.source) for f in fac.factors]


def test_lz77_golden():
    f = lz77_factorize("abbbabbababab")
    assert f.z == 6
    assert as_tuples(f) == [
        (1, 1, None),
        (2, 1, None),
        (3, 2, 2),
        (5, 3, 1),
        (8, 2, 1),
        (10, 4, 8),
    ]

    f = lz77_factorize("aaaa")
    assert f.z == 2
    assert as_tuples(f) == [(1, 1, None), (2, 3, 1)]

    assert as_tuples(lz77_factorize("ab")) == [(1, 1, None), (2, 1, None)]
    assert lz77_factorize("a").z == 1
    with pytest.raises(ValueError):
        lz77_factorize("")


def check_against_oracle(w):
    # boundaries are unique and must match the oracle exactly; the source
    # of a copy factor is any earlier matching occurrence, so check it by
    # validity rather than by value
    got = lz77_factorize(w)
    want = O.brute_lz77(w)
    assert [(f.start, f.length) for f in got.factors] == [
        (s, l) for s, l, _ in want
    ], w
    for f, (_, _, src) in zip(got.factors, want):
        if src is None:
            assert f.source is None, w
        else:
            assert f.source is not None and 1 <= f.source < f.start, w
            for t in range(f.length):
                assert w[f.source - 1 + t] == w[f.start - 1 + t], w


def test_lz77_matches_oracle_exhaustive():
    for w in O.all_strings("ab", 1, 10):
        check_against_oracle(w)
    for w in O.all_strings("abc", 1, 6):
        check_against_oracle(w)


def test_lz77_matches_oracle_across_paths():
    # straddle the small/large implementation switch at both sides
    for w in O.random_strings(121, 200, 200, (1, 2, 3, 8, 26), n_lo=40):
        check_against_oracle(w)


def test_lz77_factor_validity():
    # factors tile the text; every sourced factor matches its source even
    # when it overlaps itself
    for w in O.random_strings(131, 150, 300, (2, 4)):
        fac = lz77_factorize(w)
        pos = 1
        for f in fac.factors:
            assert isinstance(f, LzFactor)
            assert f.start == pos
            if f.source is None:
                assert f.length == 1
            else:
                assert 1 <= f.source < f.start
                for t in range(f.length):
                    assert w[f.source - 1 + t] == w[f.start - 1 + t]
            pos += f.length
        assert pos == len(w) + 1


def test_fibonacci_word_golden():
    assert fibonacci_word(0) == b"b"
    assert fibonacci_word(1) == b"a"
    assert fibonacci_word(2) == b"ab"
    assert fibonacci_word(3) == b"aba"
    assert fibonacci_word(5) == b"abaababa"
    assert len(fibonacci_word(19)) == 6765
    assert len(fibonacci_word(20)) == 10946


def test_fibonacci_word_recurrence():
    for k in range(2, 21):
        assert fibonacci_word(k) == fibonacci_word(k - 1) + fibonacci_word(k - 2)
    for k in range(21):
        assert fibonacci_word(k) == O.brute_fibonacci(k)


def test_fibonacci_word_length_guard():
    with pytest.raises(ValueError):
        fibonacci_word(30, max_length=1000)
    with pytest.raises(ValueError):
        fibonacci_word(-1)
    # right at the boundary is fine
    assert len(fibonacci_word(16, max_length=1597)) == 1597


def test_measure_report_worked_example():
    rep = measure_report("abbbabbababab")
    assert rep.n == 13
    assert rep.r == 6
    assert rep.r_B == 6
    assert rep.ell == 3
    assert rep.total_factors == 5
    assert rep.z == 6
    assert rep.bms_phrases == 9
    expected = 6 / (6 * math.log2(13) ** 2)
    assert abs(rep.ratio_rB_over_zlog2n - expected) < 1e-12


def test_measure_report_single_char():
    rep = measure_report("a")
    assert (rep.n, rep.r, rep.r_B, rep.ell, rep.z) == (1, 1, 1, 1, 1)
    assert rep.ratio_rB_over_zlog2n == 0.0  # log2(1) = 0 handled as zero
    with pytest.raises(ValueError):
        measure_report("")


def test_measure_report_consistency():
    # the report's fields must equal what the underlying functions produce
    for w in O.random_strings(141, 80, 120, (1, 2, 3, 8)):
        rep = measure_report(w)
        assert rep.n == len(w)
        assert rep.r == bwt(w).runs
        assert rep.r_B == bbwt(w).runs
        f = lyndon_factorize(w)
        assert rep.ell == f.necklace_count
        assert rep.total_factors == f.total_factors
        assert rep.z == lz77_factorize(w).z
        if len(w) >= 2:
            want = rep.r_B / (rep.z * math.log2(len(w)) ** 2)
            assert abs(rep.ratio_rB_over_zlog2n - want) < 1e-12


def test_separation_table_golden():
    rows = fibonacci_separation_table(4)
    assert [(row.i, row.n, row.ell, row.r_B, row.r) for row in rows] == [
        (0, 3, 2, 3, 2),
        (1, 8, 3, 5, 2),
        (2, 21, 4, 7, 2),
        (3, 55, 5, 9, 2),
        (4, 144, 6, 11, 2),
    ]


def test_separation_table_growth():
    # the factor count grows linearly with i while the plain transform
    # stays at two runs; that gap is the point of the table
    rows = fibonacci_separation_table(6)
    for row in rows:
        assert row.ell == row.i + 2
        assert row.r == 2
        assert row.r_B >= row.ell
    assert [row.r_B for row in rows] == [3, 5, 7, 9, 11, 13, 15]


def test_separation_table_respects_length_guard():
    with pytest.raises(ValueError):
        fibonacci_separation_table(8, max_length=100)


def test_fibonacci_measures():
    # the odd-index words stay maximally compressible for the plain
    # transform no matter how long they get
    assert measure_report(fibonacci_word(13)).r == 2
    assert bwt(fibonacci_word(16)).runs == 2


def sa_tuples(w):
    got = [(f.start, f.length, f.source) for f in lz77_factorize(w).factors]
    want = O.brute_lz77_sa(w)
    assert got == want, w
    # the suffix-order choice keeps the greedy boundaries
    assert [t[:2] for t in want] == [t[:2] for t in O.brute_lz77(w)], w
    return got


def _planted(length, tail=b"z"):
    """A text whose factor after the marker y copies exactly `length`
    symbols of an earlier block, then stops at a symbol seen nowhere else
    (or at the end of the text when tail is empty)."""
    rng = random.Random(length)
    x = bytes(rng.randrange(97, 101) for _ in range(100))
    return x + b"y" + x[7:7 + length] + tail


def test_lz77_sa_unary():
    for n in (65, 200, 1000):
        assert sa_tuples(b"a" * n) == [(1, 1, None), (2, n - 1, 1)]


def test_lz77_sa_match_lengths_at_the_gallop():
    # byte-by-byte compares stop at 16; the gallop doubles from there
    for length in (15, 16, 17, 31, 32, 33, 63, 64, 65):
        for tail in (b"z", b""):
            w = _planted(length, tail)
            got = sa_tuples(w)
            assert any(s == 102 and k == length for s, k, _ in got), (length, tail)


def test_lz77_sa_last_factor_runs_to_the_end():
    rng = random.Random(3)
    for n in (65, 97, 130, 257, 400):
        for sigma in (1, 2, 3):
            x = bytes(rng.randrange(97, 97 + sigma) for _ in range(n // 2))
            w = (x * 3)[:n]
            got = sa_tuples(w)
            start, length, _ = got[-1]
            assert start + length - 1 == n and length > 1


def test_lz77_sa_structured_texts():
    fib = fibonacci_word(14)
    tm = bytes(97 + bin(i).count("1") % 2 for i in range(700))
    texts = [fib[:n] for n in (65, 89, 233, 377, 610)]
    texts += [fib[k:k + 300] for k in (1, 13, 100)]
    texts += [tm[:n] for n in (65, 128, 300, 700)]
    texts += [tm[k:k + 200] for k in (1, 5, 77)]
    for p in (1, 2, 3, 7, 16, 17, 33, 64):
        base = bytes(97 + (5 * t) % 3 for t in range(p - 1)) + b"d"
        texts += [(base * (300 // p + 1))[:n] for n in (65, 150, 300)]
    for w in texts:
        sa_tuples(w)


def test_lz77_sa_alphabets():
    rng = random.Random(7)
    for sigma, low in ((1, 0), (1, 255), (2, 0), (4, 97), (256, 0)):
        for n in (65, 66, 120, 300):
            w = bytes(low + rng.randrange(sigma) for _ in range(n))
            sa_tuples(w)
    # both extreme bytes in one text, in runs and alternating
    sa_tuples(bytes([0, 255]) * 40)
    sa_tuples(bytes([0] * 30 + [255] * 30 + [0] * 30 + [255] * 5))


_SMALL_ALPHABET = st.integers(1, 4).flatmap(
    lambda s: st.lists(st.integers(0, s - 1), min_size=65, max_size=300)
).map(lambda v: bytes(97 + c for c in v))


@given(st.one_of(_SMALL_ALPHABET, st.binary(min_size=65, max_size=300)))
def test_lz77_sa_property(w):
    sa_tuples(w)


def test_common_prefix_against_slices():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(2, 300)
        w = bytes(rng.randrange(97, 97 + rng.choice((1, 2))) for _ in range(n))
        i = rng.randrange(1, n)
        for j in range(i):
            if w[j] != w[i]:
                continue
            want = 0
            while i + want < n and w[j + want] == w[i + want]:
                want += 1
            assert _common_prefix(w, j, i) == want, (w, j, i)


def test_measure_report_counts_phrases_across_the_crossover():
    # past _SMALL the count comes from the scheme's columns, while induce_bms
    # builds its phrases in a loop up to 2,048 symbols
    rng = random.Random(9)
    fib = fibonacci_word(18)
    for n in (1, 2, 63, 64, 65, 66, 300, 2047, 2048, 2049, 3000):
        for w in (bytes(rng.randrange(97, 101) for _ in range(n)), fib[:n],
                  b"ab" * (n // 2) + b"a" * (n % 2)):
            assert measure_report(w).bms_phrases == induce_bms(w).phrase_count
