import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as O
from bbwt import (
    LyndonFactorization,
    is_lyndon,
    is_primitive,
    lyndon_factorize,
    omega_compare,
    rot,
    smallest_rotation,
)


def test_rot_golden():
    assert rot("abc", 1) == b"cab"
    assert rot("abc", 2) == b"bca"
    assert rot("abc", 3) == b"abc"
    assert rot("cab", -1) == b"abc"
    assert rot("abc", 0) == b"abc"
    assert rot(b"x", 7) == b"x"


def test_rot_empty_raises():
    with pytest.raises(ValueError):
        rot("", 5)


def test_rot_matches_oracle_and_composes():
    for w in O.random_strings(101, 200, 24, (1, 2, 3, 26)):
        n = len(w)
        for k in (-2 * n - 1, -3, -1, 0, 1, 2, n - 1, n, n + 5):
            assert rot(w, k) == O.brute_rot(w, k)
        assert rot(rot(w, 3), -3) == w
        assert rot(rot(w, 1), 1) == rot(w, 2)


def test_is_primitive():
    assert is_primitive("a")
    assert is_primitive("ab")
    assert not is_primitive("aa")
    assert not is_primitive("abab")
    assert not is_primitive("aabaab")
    assert is_primitive("aabab")
    with pytest.raises(ValueError):
        is_primitive("")
    for w in O.all_strings("ab", 1, 10):
        assert is_primitive(w) == O.brute_is_primitive(w)


def test_is_lyndon():
    assert is_lyndon("a")
    assert is_lyndon("ab")
    assert is_lyndon("aab")
    assert not is_lyndon("ba")
    assert not is_lyndon("aa")
    assert not is_lyndon("abab")
    with pytest.raises(ValueError):
        is_lyndon("")
    for w in O.all_strings("ab", 1, 10):
        assert is_lyndon(w) == O.brute_is_lyndon(w)
    for w in O.all_strings("abc", 1, 6):
        assert is_lyndon(w) == O.brute_is_lyndon(w)


def test_factorize_golden():
    f = lyndon_factorize("abbbabbababab")
    assert isinstance(f, LyndonFactorization)
    assert f.necklaces == ((b"abbb", 1), (b"abb", 1), (b"ab", 3))
    assert f.total_factors == 5
    assert f.necklace_count == 3
    assert f.expand() == b"abbbabbababab"

    assert lyndon_factorize("banana").necklaces == ((b"b", 1), (b"an", 2), (b"a", 1))
    assert lyndon_factorize("aaa").necklaces == ((b"a", 3),)
    with pytest.raises(ValueError):
        lyndon_factorize("")


def test_factorize_matches_oracle():
    for w in O.all_strings("ab", 1, 11):
        got = lyndon_factorize(w)
        want = O.brute_lyndon_grouped(w)
        assert list(got.necklaces) == want, w
        assert got.expand() == w, w
    for w in O.all_strings("abc", 1, 7):
        assert list(lyndon_factorize(w).necklaces) == O.brute_lyndon_grouped(w), w
    for w in O.random_strings(202, 300, 200, (1, 2, 4, 26)):
        f = lyndon_factorize(w)
        flat = [fac for fac, cnt in f.necklaces for _ in range(cnt)]
        assert flat == O.brute_lyndon_factors(w)


# equal-step runs around the gallop threshold (16) and its doublings
_RUNS = sorted({15, 16, 17, 31, 32, 33} | {2 ** j + d for j in range(1, 9) for d in (-1, 0, 1)})
_WORDS = st.lists(st.sampled_from(b"abc"), min_size=1, max_size=40).map(bytes)


@given(head=st.sampled_from([b"", b"c", b"cbc"]), u=_WORDS, run=st.sampled_from(_RUNS),
       tail=st.one_of(st.just(b""), st.lists(st.sampled_from(b"abcd"), max_size=12).map(bytes)))
def test_factorize_gallop_matches_oracle(head, u, run, tail):
    # u^k v: the least rotation of u, spelled on for run more symbols, so the
    # scan's equal steps last about run; an empty tail ends the match at the
    # end of the text
    u = smallest_rotation(u)[0]
    w = head + (u * (run // len(u) + 2))[:len(u) + run] + tail
    assert list(lyndon_factorize(w).necklaces) == O.brute_lyndon_grouped(w)


def test_factorize_properties():
    # factors concatenate back to the input and are strictly decreasing
    # across necklace batches
    for w in O.random_strings(303, 200, 64, (2, 3)):
        f = lyndon_factorize(w)
        assert f.expand() == w
        batches = [fac for fac, _ in f.necklaces]
        for a, b in zip(batches, batches[1:]):
            assert O.brute_omega_less(b, a)
        for fac, _ in f.necklaces:
            assert is_lyndon(fac)


def test_smallest_rotation_golden():
    assert smallest_rotation("caab") == (b"aabc", 3)
    assert smallest_rotation("banana") == (b"abanan", 1)
    assert smallest_rotation("aaa") == (b"aaa", 0)
    assert smallest_rotation("ba") == (b"ab", 1)
    assert smallest_rotation("a") == (b"a", 0)


def test_smallest_rotation_empty_raises():
    with pytest.raises(ValueError):
        smallest_rotation("")


def test_smallest_rotation_matches_oracle():
    for w in O.all_strings("ab", 1, 11):
        assert smallest_rotation(w) == O.brute_smallest_rotation(w), w
    for w in O.all_strings("abc", 1, 7):
        assert smallest_rotation(w) == O.brute_smallest_rotation(w), w
    # above the small-input cutoff, powers make equal rotations tie in rank
    powers = [O.brute_rot(u * m, k) for u in (b"ab", b"aab", b"abacb") for m in (33, 40, 61)
              for k in (0, 1, len(u) + 1, 5 * m)]
    powers += [b"a" * n for n in (65, 100, 257)]
    for w in list(O.random_strings(404, 400, 150, (1, 2, 3, 8))) + powers:
        least, k = smallest_rotation(w)
        assert (least, k) == O.brute_smallest_rotation(w)
        assert rot(w, k) == least


def test_omega_compare_golden():
    assert omega_compare("ab", "aab") > 0
    assert omega_compare("aab", "ab") < 0
    assert omega_compare("ab", "ab") == 0
    # plain lexicographic order would get this pair wrong
    assert omega_compare("aba", "ab") < 0


def test_omega_compare_matches_oracle():
    words = [w for w in O.all_strings("ab", 1, 6) if O.brute_is_primitive(w)]
    for x in words:
        for y in words:
            got = omega_compare(x, y)
            if O.brute_omega_less(x, y):
                assert got < 0, (x, y)
            elif O.brute_omega_less(y, x):
                assert got > 0, (x, y)
            else:
                assert got == 0, (x, y)


def test_omega_compare_rejects_bad_input():
    with pytest.raises(ValueError):
        omega_compare("", "a")
    with pytest.raises(ValueError):
        omega_compare("a", "")
    with pytest.raises(ValueError):
        omega_compare("ab", "abab")  # non-primitive
    with pytest.raises(ValueError):
        omega_compare("aa", "b")


def test_str_and_bytes_agree():
    assert rot("banana", 2) == rot(b"banana", 2)
    assert lyndon_factorize("banana").necklaces == lyndon_factorize(b"banana").necklaces
    assert smallest_rotation("banana") == smallest_rotation(b"banana")
