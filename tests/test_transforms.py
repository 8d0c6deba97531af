import itertools
import pickle
import random
import subprocess
import sys
import time
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
    # the whole result on both sides of the crossover, and where rotations tie
    texts = [*O.random_strings(22, 30, 65, (2, 3, 26), n_lo=63)]
    for n in (1, 2, 5, 63, 64, 65, 130):
        texts += [b"a" * n, *((u * n)[:n] for u in (b"ab", b"abc", b"aab", b"aabab"))]
    for w in texts:
        got = bwt(w)
        assert (got.output, got.csa) == (O.brute_bwt(w), O.brute_bwt_csa(w)), w
        assert got.runs == O.brute_runs(got.output)


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


def _one_copy_length(w):
    """Length of one copy of each distinct Lyndon factor of w."""
    return sum(len(f) for f, _ in lyndon_factorize(w).necklaces)


def _lyndon_word(seed, n):
    rng = random.Random(seed)
    while True:
        u = bytes(rng.choices(b"ab", k=n))
        if pkg.is_lyndon(u):
            return u


def _one_copy_cases():
    """(text, whether one copy of each distinct factor is at most half of it)."""
    cases = [(b"a" * n, True) for n in (65, 66, 100, 128, 129, 257, 300)]
    for u in (b"ab", b"abb", b"aabab", b"abc", _lyndon_word(1, 12), _lyndon_word(2, 29)):
        for k in (3, 8, 40):
            for head, tail in ((b"", b""), (b"c", b""), (b"", b"a"), (b"cb", b"aab")):
                w = head + u * k + tail
                if len(w) > 64:
                    cases.append((w, 2 * _one_copy_length(w) <= len(w)))
    # (abb)^i (ab)^j a^k: three necklaces of equal copies
    cases += [(b"abb" * i + b"ab" * j + b"a" * k, True)
              for i, j, k in ((4, 10, 40), (10, 10, 10), (20, 1, 1), (1, 30, 5), (2, 2, 90))]
    # one-copy layout at most _SMALL symbols, text past it
    cases += [(b"c" + b"aabab" * 20 + b"a" * 3, True), (b"abcd" * 17, True)]
    # either side of half: u^2 has 2m = n; u^2 a has 2m = n + 1
    for size in (33, 40, 64, 65):
        u = _lyndon_word(size, size)
        cases += [(u * 2, True), (u * 2 + b"a", False)]
    return cases


def test_bbwt_one_copy_layout_matches_oracle():
    from test_macro import brute_induced_phrases

    for w, one_copy in _one_copy_cases():
        assert (2 * _one_copy_length(w) <= len(w)) == one_copy, w
        got = bbwt(w)
        assert (got.output, got.csa) == O.brute_bbwt(w), w
        assert got.runs == O.brute_runs(got.output)
        assert pkg.induce_bms(w).phrases == brute_induced_phrases(w), w


def _omega_sort_both_layouts(w, monkeypatch):
    """_omega_sort of w's factorization and of the same copies listed one by
    one (which ranks every position); returns both and the ranked sizes."""
    sizes = []
    real = transforms.power_ranks

    def recording(symbols, lens):
        sizes.append(int(symbols.size))
        return real(symbols, lens)

    monkeypatch.setattr(transforms, "power_ranks", recording)
    necklaces = lyndon_factorize(w).necklaces
    grouped = transforms._omega_sort(w, necklaces)
    single = transforms._omega_sort(w, [(f, 1) for f, count in necklaces for _ in range(count)])
    return [(list(csa), list(tpos), out) for csa, tpos, out in (grouped, single)], sizes


def test_one_copy_layout_ranks_the_period_only(monkeypatch):
    from test_ranks import periodic_1009

    w = periodic_1009(1 << 13)
    (grouped, single), sizes = _omega_sort_both_layouts(w, monkeypatch)
    assert grouped == single
    assert sizes == [_one_copy_length(w), len(w)]
    assert 1009 <= sizes[0] < 2 * 1009


@pytest.mark.parametrize("w", [b"a" * 5000, b"ab" * 3000 + b"a", b"b" + b"aab" * 700 + b"aa"],
                         ids=["unary", "ab-power", "aab-power"])
def test_one_copy_layout_matches_full_layout(w, monkeypatch):
    (grouped, single), sizes = _omega_sort_both_layouts(w, monkeypatch)
    assert grouped == single
    assert sizes == [_one_copy_length(w), len(w)]


def _brute_omega_sort(w, necklaces):
    """(csa, tpos, output) of _omega_sort from a keyed sort of every copy's
    rotations by power prefixes of 2n symbols, ties by start."""
    keys, pred, pos = [], [], 0
    for f, count in necklaces:
        for _ in range(count):
            for off in range(len(f)):
                keys.append(O.omega_key(f[off:] + f[:off], 2 * len(w)))
                pred.append(pos + (off - 1) % len(f))
            pos += len(f)
    order = sorted(range(len(w)), key=keys.__getitem__)
    tpos = [pred[p] for p in order]
    return [p + 1 for p in order], tpos, bytes(w[t] for t in tpos)


# necklace lists that repeat a word, list words out of order or list words
# that are not Lyndon words, each with one copy of every entry at most half
# the text
REPEATED_WORDS = [
    ((b"aabab", 15), (b"aabab", 25)),
    ((b"aabab", 40),),
    ((b"ba", 30), (b"ab", 20), (b"ba", 10)),
    ((b"abb", 10), (b"ab", 20), (b"abb", 12), (b"a", 30)),
    ((b"c", 40), (b"abc", 9), (b"c", 33), (b"bca", 9)),
    ((b"ab", 3), (b"a", 20), (b"ab", 4)),
]


@pytest.mark.parametrize("necklaces", REPEATED_WORDS)
def test_omega_sort_takes_any_necklace_list(necklaces):
    w = b"".join(f * count for f, count in necklaces)
    assert 2 * sum(len(f) for f, _ in necklaces) <= len(w)
    csa, tpos, out = transforms._omega_sort(w, necklaces)
    assert (list(csa), list(tpos), out) == _brute_omega_sort(w, necklaces)


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


def _inverse_texts():
    """Preimages for the inverse: copy-heavy texts, whose cycle walk emits
    repeated necklaces without walking them, texts using bytes 0 and 255, and
    texts on both sides of the walk's cutoff."""
    cut = transforms._LOOP_MAX
    yield from (b"a" * n for n in (1, 2, 7, cut, cut + 1, 3 * cut))
    yield from (b"ab" * k for k in (1, 3, 20, cut // 2 + 1, 1000))
    yield from (b"abaab" * k + b"aab" for k in (1, 4, 200))
    for u in (b"b", b"ab", b"aab", b"abb", b"aabab", b"\x00\xff", b"\x00\x00\xff"):
        for k in (2, 3, 9, 200):
            for v in (b"", b"a", b"\x00", b"ba", u[:-1] + b"b"):
                yield u * k + v
    fib = O.brute_fibonacci(20)
    yield from (fib[:100], fib[7:5007])  # (21, 2) and (987, 2) necklaces
    rng = random.Random(53)
    for n in (cut - 1, cut, cut + 1, 1 << 12):
        for alphabet in (b"\x00\xff", b"ab", b"acgt", bytes(range(256))):
            yield bytes(rng.choice(alphabet) for _ in range(n))
        yield (b"ab" * n)[:n]


def test_bwt_inverse_multiset_matches_oracle():
    # every string is a bbwt image, so the cycles must give back exactly the
    # Lyndon factors of its preimage, in their nonincreasing order: short
    # texts against the brute-force factors, long ones against the factors of
    # the text whose oracle-checked bbwt they invert
    texts = list(O.all_strings("abc", 1, 8))
    short = [w for w in _inverse_texts() if len(w) <= 100]
    for w in texts + list(O.random_strings(52, 200, 299, (1, 2, 3, 4, 8))) + short:
        assert bwt_inverse_multiset(O.brute_bbwt(w)[0]) == O.brute_lyndon_factors(w), w
    for w in _inverse_texts():
        factors = [u for u, k in lyndon_factorize(w).necklaces for _ in range(k)]
        assert bwt_inverse_multiset(bbwt(w).output) == factors, w[:40]


def test_bwt_necklace_roundtrip():
    # a primitive necklace comes back as itself; u^m comes back as m copies
    # of the primitive root u (one psi-cycle each), also past the walk's
    # cutoff, where the copies are emitted without walking them
    cut = transforms._LOOP_MAX
    long = [b"a" * (cut + 1), b"ab" * 200, b"aab" * 200, b"aabab" * 103,
            b"a" * cut + b"b", b"a" * 300 + b"ab" * 200, b"\x00\xff" * 300]
    for w in list(O.all_necklaces("ab", 1, 10)) + long:
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
    texts = list(O.all_strings("ab", 1, 9)) + list(O.all_strings("abc", 1, 7))
    # repeated necklaces: later copies' rows are INF
    texts += [b"ab" * k + b"a" for k in range(1, 40)] + [b"abb" * k for k in range(1, 30)]
    texts += O.random_strings(72, 120, 200, (1, 2, 4, 256))
    for w in texts:
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


def test_omega_lcp_grows_linearly():
    # one factor whose LCPs sum to about n^2 / 2; building every rotation,
    # as an earlier version did, took about 24 s at this size on a 2-core VM
    n = 1 << 15
    w = b"a" * (n - 1) + b"b"
    _core.cache_clear()
    start = time.perf_counter()
    lcps = omega_lcp_array(w)
    assert time.perf_counter() - start < 5.0
    assert lcps == [0, *range(n - 2, -1, -1)]  # row r is a^(n-1-r) b a^r


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
        for field in _core(w):
            if isinstance(field, np.ndarray):  # csa and tpos past _SMALL
                assert field.dtype == np.int64
                with pytest.raises(ValueError):
                    field[0] = 0
            else:  # hashing fails on any list, bytearray or mutable array inside
                hash(field)
        assert type(bbwt(w).csa) is tuple
        lcps = omega_lcp_array(w)
        lcps[0] = "changed"
        assert omega_lcp_array(w)[0] == 0


@pytest.mark.parametrize("n", [65, 1000])
@pytest.mark.parametrize("kind", ["random", "periodic"])
def test_transform_csa_is_a_tuple_of_ints_past_small(kind, n):
    # the core holds int64 arrays past _SMALL; the public csa stays Python ints
    if kind == "random":
        w = next(O.random_strings(n, 1, n, (4,), n_lo=n))
    else:
        w = (b"abaab" * n)[:n]
    for got, csa in ((bbwt(w), O.brute_bbwt(w)[1]), (bwt(w), O.brute_bwt_csa(w))):
        assert type(got.csa) is tuple and {type(p) for p in got.csa} == {int}
        assert got.csa == csa
        built = TransformResult(got.output, tuple(csa), got.runs)
        assert repr(got) == repr(built)
        assert pickle.dumps(got) == pickle.dumps(built)
        assert pickle.loads(pickle.dumps(got)) == built


def test_transform_memo_keeps_no_per_position_python_ints():
    # the memo keeps the last core after the call returns: past _SMALL it is
    # int64 arrays (8 B a position each), not tuples of Python ints
    w = bytes(random.Random(20).choices(b"acgt", k=1 << 17))
    _core.cache_clear()
    tracemalloc.start()
    try:
        scheme = pkg.induce_bms(w)
        del scheme
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        _core.cache_clear()
    assert held <= 32 * len(w), held / len(w)
