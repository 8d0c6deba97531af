import itertools
import random
import subprocess
import sys
import tracemalloc

import pytest

import bbwt as pkg
import oracles as O
from bbwt import (
    INF,
    TransformResult,
    bbwt,
    bbwt_inverse,
    bwt,
    bwt_inverse_multiset,
    count_runs,
    lf_map,
    lyndon_factorize,
    omega_lcp_array,
)
import numpy as np

from bbwt import transforms
from bbwt.transforms import _bbwt_rows, _core


def test_count_runs():
    assert count_runs(b"a") == 1
    assert count_runs(b"aabbb") == 2
    assert count_runs(b"ababa") == 5
    assert count_runs(b"nnbaaa") == 3
    with pytest.raises(ValueError):
        count_runs(b"")
    # the small loop and the vectorized path must agree, at the crossover
    # (64 symbols) and far past it
    rng = random.Random(11)
    for n in (*range(1, 5), *range(63, 67), *range(4095, 4098)):
        for sigma in (1, 2, 4):
            w = bytes(rng.randrange(97, 97 + sigma) for _ in range(n))
            assert count_runs(w) == O.brute_runs(w), (n, sigma)
        # a change of symbol in the last place only
        assert count_runs(b"a" * (n - 1) + b"b") == O.brute_runs(b"a" * (n - 1) + b"b")
    for w in O.random_strings(11, 30, 9000, (1, 2, 4), n_lo=4000):
        assert count_runs(w) == O.brute_runs(w)


def test_bwt_golden():
    r = bwt("banana")
    assert isinstance(r, TransformResult)
    assert r.output == b"nnbaaa"
    assert r.runs == 3
    assert bwt("a").output == b"a"
    with pytest.raises(ValueError):
        bwt("")


def test_bwt_matches_oracle():
    for w in O.all_strings("ab", 1, 10):
        assert bwt(w).output == O.brute_bwt(w), w
    for w in O.all_strings("abc", 1, 6):
        assert bwt(w).output == O.brute_bwt(w), w
    # n > 64 exercises the rank-based path
    for w in O.random_strings(21, 60, 220, (1, 2, 3, 8), n_lo=50):
        assert bwt(w).output == O.brute_bwt(w)


def test_bbwt_golden():
    r = bbwt("abbbabbababab")
    assert r.output == b"bbbbbaaabbaba"
    assert r.csa == (8, 10, 12, 5, 1, 9, 11, 13, 7, 4, 6, 3, 2)
    assert r.runs == 6

    assert bbwt("banana").output == b"annbaa"
    assert bbwt("banana").csa == (6, 2, 4, 1, 3, 5)
    assert bbwt("aaa").output == b"aaa"
    assert bbwt("aaa").csa == (1, 2, 3)
    with pytest.raises(ValueError):
        bbwt("")


def test_bbwt_matches_oracle():
    for w in O.all_strings("ab", 1, 10):
        got = bbwt(w)
        out, csa = O.brute_bbwt(w)
        assert (got.output, got.csa) == (out, csa), w
        assert got.runs == O.brute_runs(out)
    for w in O.all_strings("abc", 1, 6):
        got = bbwt(w)
        out, csa = O.brute_bbwt(w)
        assert (got.output, got.csa) == (out, csa), w


def test_bbwt_matches_oracle_large_path():
    # spans the switch from direct sorting to the rank-based path
    for w in O.random_strings(31, 80, 200, (1, 2, 3, 4, 26), n_lo=40):
        got = bbwt(w)
        out, csa = O.brute_bbwt(w)
        assert (got.output, got.csa) == (out, csa)



def _check_rows(rows):
    got = _bbwt_rows(rows)
    assert got.shape == rows.shape and got.dtype == np.uint8
    for row, out in zip(rows, got):
        assert out.tobytes() == bbwt(row.tobytes()).output, row.tobytes()


def test_bbwt_rows_matches_bbwt():
    rng = np.random.default_rng(71)
    for sigma in (1, 2, 3, 4, 256):
        for n in (1, 2, 3, 7, 12, 33):
            for count in (1, 2, 40):
                rows = rng.integers(0, sigma, (count, n)).astype(np.uint8)
                if sigma == 256:  # both extreme bytes, often
                    rows[rng.random(rows.shape) < 0.3] = 0
                    rows[rng.random(rows.shape) < 0.3] = 255
                _check_rows(rows)
    # periodic rows, powers of one symbol, and every ternary row of length 6
    periodic = [(b"ab" * 6), (b"aab" * 4), (b"abcabc" * 2), b"\xff" * 12, b"\x00" * 12,
                (b"\x00\xff" * 6), (b"\xff\x00\x00" * 4)]
    _check_rows(np.frombuffer(b"".join(periodic), dtype=np.uint8).reshape(-1, 12))
    ternary = np.array(list(itertools.product(b"abc", repeat=6)), dtype=np.uint8)
    _check_rows(ternary)


def test_bbwt_rows_fibonacci_and_near_periodic():
    # rows whose factor rotations agree longest before they differ: windows
    # of the Fibonacci word (its prefixes meet the Fine-Wilf bound) and
    # periodic words with one symbol changed
    fib = O.brute_fibonacci(12)
    for n in (8, 13, 21, 34):
        _check_rows(np.array([list(fib[i:i + n]) for i in range(60)], dtype=np.uint8))
        for root in (b"ab", b"aab", b"abaab", b"abaababa"):
            w = (root * n)[:n]
            near = [w[:i] + bytes([195 - w[i]]) + w[i + 1:] for i in range(n)]
            _check_rows(np.frombuffer(b"".join([w, *near]), dtype=np.uint8).reshape(-1, n))


def test_bbwt_rows_sort_count(monkeypatch):
    # 1,000 distinct ternary rows of 13: one sort ranks the suffixes (with a
    # terminator every rotation differs within 14 symbols), two rank the
    # factor rotations (the doubling stops at 32 >= twice the longest
    # factor), and one orders each row
    rng = np.random.default_rng(74)
    codes = rng.choice(3 ** 13, 1000, replace=False)
    rows = (97 + codes[:, None] // 3 ** np.arange(13) % 3).astype(np.uint8)
    sorts = []
    argsort = np.argsort

    def counting(*args, **kwargs):
        sorts.append(1)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    got = _bbwt_rows(rows)
    monkeypatch.undo()
    assert len(sorts) == 4
    for row, out in zip(rows, got):
        assert out.tobytes() == bbwt(row.tobytes()).output


def test_bbwt_rows_spans_chunks(monkeypatch):
    # 37-cell chunks cut a batch of 9-symbol rows into 4-row pieces (and a
    # 1-row chunk once the rows are longer than a chunk)
    monkeypatch.setattr(transforms, "_ROW_CELLS", 37)
    rng = np.random.default_rng(72)
    _check_rows(rng.integers(97, 100, (50, 9)).astype(np.uint8))
    _check_rows(rng.integers(0, 256, (5, 40)).astype(np.uint8))

def test_lf_map_golden():
    assert lf_map("nnbaaa") == [5, 6, 4, 1, 2, 3]
    assert lf_map("baac") == [3, 1, 2, 4]
    assert lf_map("a") == [1]
    with pytest.raises(ValueError):
        lf_map("")


def test_lf_map_cycles():
    # nnbaaa: one 6-cycle; baac: a 3-cycle plus a fixed point
    def cycles(psi):
        seen = [False] * len(psi)
        out = []
        for s in range(len(psi)):
            if seen[s]:
                continue
            c = 0
            p = s
            while not seen[p]:
                seen[p] = True
                p = psi[p] - 1
                c += 1
            out.append(c)
        return sorted(out)

    assert cycles(lf_map("nnbaaa")) == [6]
    assert cycles(lf_map("baac")) == [1, 3]


def test_lf_map_is_permutation():
    for w in O.random_strings(41, 100, 80, (1, 2, 3, 26)):
        psi = lf_map(w)
        assert sorted(psi) == list(range(1, len(w) + 1))


def test_lf_map_matches_its_definition():
    # both sides of the small-input cutoff, and bytes above 127
    rng = random.Random(43)
    texts = list(O.random_strings(42, 100, 100, (1, 2, 3, 26)))
    texts += [rng.randbytes(n) for n in (31, 32, 33, 64, 200)]
    for w in texts:
        want = [sum(c < x for c in w) + w[:i + 1].count(x) for i, x in enumerate(w)]
        assert lf_map(w) == want, w


def test_bwt_inverse_multiset_golden():
    assert bwt_inverse_multiset("baac") == [b"c", b"aab"]
    assert bwt_inverse_multiset("nnbaaa") == [b"abanan"]
    assert bwt_inverse_multiset("a") == [b"a"]
    with pytest.raises(ValueError):
        bwt_inverse_multiset("")


def test_bwt_inverse_multiset_properties():
    # every returned word is a necklace, the list is noningcreasing in
    # omega-order, and total length matches the input
    for w in O.random_strings(51, 120, 40, (1, 2, 3)):
        words = bwt_inverse_multiset(w)
        assert sum(len(u) for u in words) == len(w)
        for u in words:
            assert O.brute_smallest_rotation(u)[0] == u
        for a, b in zip(words, words[1:]):
            assert not O.brute_omega_less(a, b)  # a >= b in omega-order


def test_bwt_inverse_multiset_matches_oracle():
    # every string is a bbwt image, so the cycles must give back exactly the
    # Lyndon factors of its preimage, in their nonincreasing order
    texts = list(O.all_strings("abc", 1, 8))
    for w in texts + list(O.random_strings(52, 200, 299, (1, 2, 3, 4, 8))):
        assert bwt_inverse_multiset(O.brute_bbwt(w)[0]) == O.brute_lyndon_factors(w), w


def test_bwt_necklace_roundtrip():
    # a primitive necklace comes back as itself; u^m comes back as m copies
    # of the primitive root u (one psi-cycle each)
    for w in O.all_necklaces("ab", 1, 10):
        words = bwt_inverse_multiset(bwt(w).output)
        if O.brute_is_primitive(w):
            assert words == [w], w
        else:
            n = len(w)
            d = next(d for d in range(1, n) if n % d == 0 and w[:d] * (n // d) == w)
            assert words == [w[:d]] * (n // d), w


def test_bbwt_inverse_golden():
    assert bbwt_inverse("baac") == b"caab"
    assert bbwt_inverse("a") == b"a"
    assert bbwt_inverse("bbbbbaaabbaba") == b"abbbabbababab"
    with pytest.raises(ValueError):
        bbwt_inverse("")


def test_bbwt_bijective_exhaustive():
    # forward then inverse is the identity, and the inverse is also a
    # right-inverse (every string is some transform's output)
    for w in O.all_strings("ab", 1, 10):
        assert bbwt_inverse(bbwt(w).output) == w, w
        assert bbwt(bbwt_inverse(w)).output == w, w
    for w in O.all_strings("abc", 1, 6):
        assert bbwt_inverse(bbwt(w).output) == w, w
        assert bbwt(bbwt_inverse(w)).output == w, w


def test_bbwt_bijective_random_large():
    for w in O.random_strings(61, 120, 600, (1, 2, 4, 8, 26), n_lo=30):
        assert bbwt_inverse(bbwt(w).output) == w
        assert bbwt(bbwt_inverse(w)).output == w


def test_omega_lcp_golden():
    got = omega_lcp_array("abab")
    assert got[0] == 0
    assert got[1] is INF
    assert got[2] == 0
    assert got[3] is INF

    assert omega_lcp_array("banana")[:2] == [0, 1]
    assert omega_lcp_array("banana")[2] is INF
    assert omega_lcp_array("a") == [0]
    with pytest.raises(ValueError):
        omega_lcp_array("")


def test_omega_lcp_matches_oracle():
    for w in O.all_strings("ab", 1, 9):
        got = omega_lcp_array(w)
        want = O.brute_omega_lcp(w)
        assert len(got) == len(want), w
        for g, x in zip(got, want):
            if x is None:
                assert g is INF, w
            else:
                assert g == x, w


def test_omega_lcp_against_runs():
    # an INF entry means two equal rotations, which always carry the same
    # preceding symbol, so INF can never sit at a run boundary
    for w in O.random_strings(71, 150, 48, (1, 2, 3)):
        r = bbwt(w)
        lcps = omega_lcp_array(w)
        assert len(lcps) == len(w)
        irreducible = [
            i for i in range(len(w)) if i == 0 or r.output[i] != r.output[i - 1]
        ]
        assert len(irreducible) == r.runs
        for i in irreducible:
            assert lcps[i] is not INF


def test_omega_lcp_memory_is_linear():
    # a random binary text of 8,192 bytes has a Lyndon factor of several
    # thousand bytes; materialising all its rotations would take tens of MB
    w = next(O.random_strings(2, 1, 8192, (2,), n_lo=8192))
    assert max(len(f) for f, _ in lyndon_factorize(w).necklaces) > 4000
    _core.cache_clear()
    tracemalloc.start()
    try:
        lcps = omega_lcp_array(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lcps) == len(w)
    assert peak < 4 << 20, peak


def test_transform_result_is_frozen():
    r = bwt("banana")
    with pytest.raises(AttributeError):
        r.output = b"x"


# Each call's repr computed in a new interpreter, with the transform memo
# cleared before every call, so no earlier call can shape the answer.
_FRESH = """
import sys
import bbwt
from bbwt.transforms import _core
texts = [bytes.fromhex(h) for h in sys.argv[1].split(",")]
for call in sys.argv[2:]:
    name, i = call.split(":")
    _core.cache_clear()
    print(repr(getattr(bbwt, name)(texts[int(i)])))
"""


def test_transform_memo_matches_fresh_process():
    small = b"abbbabbababab"
    large = next(O.random_strings(131, 1, 150, (3,), n_lo=100))
    buf = bytearray(b"abab")
    forms = (small.decode("latin-1"), bytearray(small), small)
    calls = []  # (function name, index into texts, argument as passed)
    for form in forms:
        calls += [("bbwt", 0, form), ("induce_bms", 1, large), ("bbwt", 0, form),
                  ("induce_bms", 0, form), ("omega_lcp_array", 0, form),
                  ("measure_report", 1, large), ("bbwt", 1, large)]
    got = [repr(getattr(pkg, name)(arg)) for name, _, arg in calls]
    # an input mutated in place after a call is a new text
    got.append(repr(bbwt(buf)))
    buf[0] = ord("b")
    got.append(repr(bbwt(buf)))
    texts = [small, large, b"abab", bytes(buf)]
    argv = [f"{name}:{i}" for name, i, _ in calls] + ["bbwt:2", "bbwt:3"]
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH, ",".join(t.hex() for t in texts), *argv],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert got == proc.stdout.splitlines()


def test_transform_memo_shares_only_immutable_data():
    for w in (b"abbbabbababab", next(O.random_strings(132, 1, 150, (2,), n_lo=100))):
        # hashing fails on any list, bytearray or array inside the core
        hash(_core(w))
        assert type(bbwt(w).csa) is tuple
        lcps = omega_lcp_array(w)
        lcps[0] = "changed"
        assert omega_lcp_array(w)[0] == 0
