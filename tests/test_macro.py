import dataclasses
import pickle
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as O
from bbwt import (
    Literal,
    Lz77Factorization,
    MacroScheme,
    Reference,
    SchemeFormatError,
    SchemeStructureError,
    ValidationReport,
    bbwt,
    decode_bms,
    induce_bms,
    lyndon_factorize,
    lz77_factorize,
    macro,
    scheme_from_text,
    scheme_to_text,
    validate_bms,
)


def test_induce_worked_example():
    s = induce_bms("abbbabbababab")
    assert s.n == 13
    assert s.phrases == (
        Literal(position=1, symbol=ord("a")),
        Literal(position=2, symbol=ord("b")),
        Reference(start=3, length=2, source_start=6),
        Literal(position=5, symbol=ord("a")),
        Literal(position=6, symbol=ord("b")),
        Reference(start=7, length=1, source_start=13),
        Literal(position=8, symbol=ord("a")),
        Literal(position=9, symbol=ord("b")),
        Reference(start=10, length=4, source_start=8),
    )
    assert s.phrase_count == 9


def test_induce_small_goldens():
    assert induce_bms("aaa").phrases == (
        Literal(position=1, symbol=ord("a")),
        Reference(start=2, length=2, source_start=1),
    )
    assert induce_bms("ab").phrases == (
        Literal(position=1, symbol=ord("a")),
        Literal(position=2, symbol=ord("b")),
    )
    assert induce_bms("a").phrases == (Literal(position=1, symbol=ord("a")),)
    with pytest.raises(ValueError):
        induce_bms("")


def brute_induced_phrases(w):
    """induce_bms's docstring rendered from the oracle transform.

    The output symbol at sorted index i sits at the cyclic predecessor of
    csa[i] inside its Lyndon factor.  A run start is a literal; any other
    output symbol's text position copies the previous output symbol's text
    position; neighbours sharing one offset join a single reference.
    """
    w = O.to_bytes(w)
    out, csa = O.brute_bbwt(w)
    pred = {}
    pos = 1
    for f in O.brute_lyndon_factors(w):
        for off in range(len(f)):
            pred[pos + off] = pos + (off - 1) % len(f)
        pos += len(f)
    tpos = [pred[p] for p in csa]
    source = {tpos[0]: None}
    for i in range(1, len(w)):
        source[tpos[i]] = None if out[i] != out[i - 1] else tpos[i - 1]
    phrases = []
    for t in range(1, len(w) + 1):
        s = source[t]
        last = phrases[-1] if phrases else None
        if s is None:
            phrases.append(Literal(t, w[t - 1]))
        elif (isinstance(last, Reference) and last.start + last.length == t
              and s - t == last.source_start - last.start):
            phrases[-1] = Reference(last.start, last.length + 1, last.source_start)
        else:
            phrases.append(Reference(t, 1, s))
    return tuple(phrases)


def test_induce_matches_oracle():
    for w in O.all_strings("abc", 1, 7):
        assert induce_bms(w).phrases == brute_induced_phrases(w), w
    # n from 40 to 200 spans the switch from direct sorting to the rank path
    for w in O.random_strings(121, 60, 200, (1, 2, 3, 4, 26), n_lo=40):
        assert induce_bms(w).phrases == brute_induced_phrases(w), w


def test_decode_inverts_induce_exhaustive():
    for w in O.all_strings("ab", 1, 10):
        assert decode_bms(induce_bms(w)) == w, w
    for w in O.all_strings("abc", 1, 6):
        assert decode_bms(induce_bms(w)) == w, w


def test_decode_inverts_induce_random():
    for w in O.random_strings(81, 150, 256, (1, 2, 4, 8, 26)):
        assert decode_bms(induce_bms(w)) == w


def test_phrase_bound():
    for w in O.random_strings(91, 200, 128, (1, 2, 3)):
        s = induce_bms(w)
        bound = 3 * bbwt(w).runs + lyndon_factorize(w).necklace_count
        assert s.phrase_count <= bound, w


def test_literal_only_roundtrip():
    s = MacroScheme(
        n=2,
        phrases=(
            Literal(position=1, symbol=ord("x")),
            Literal(position=2, symbol=ord("y")),
        ),
    )
    assert decode_bms(s) == b"xy"


def test_decode_self_referential_overlap():
    # a run compressor's classic: source overlaps its own target
    s = MacroScheme(
        n=5,
        phrases=(
            Literal(position=1, symbol=ord("a")),
            Reference(start=2, length=4, source_start=1),
        ),
    )
    assert decode_bms(s) == b"aaaaa"


def test_decode_detects_cycle():
    s = MacroScheme(
        n=2,
        phrases=(
            Reference(start=1, length=1, source_start=2),
            Reference(start=2, length=1, source_start=1),
        ),
    )
    with pytest.raises(SchemeStructureError):
        decode_bms(s)


def test_decode_detects_structural_problems():
    # gap in coverage
    with pytest.raises(SchemeStructureError):
        decode_bms(MacroScheme(n=2, phrases=(Literal(position=1, symbol=97),)))
    # overlap of phrases
    with pytest.raises(SchemeStructureError):
        decode_bms(
            MacroScheme(
                n=2,
                phrases=(
                    Literal(position=1, symbol=97),
                    Reference(start=1, length=2, source_start=1),
                ),
            )
        )
    # source out of range
    with pytest.raises(SchemeStructureError):
        decode_bms(
            MacroScheme(
                n=2,
                phrases=(
                    Literal(position=1, symbol=97),
                    Reference(start=2, length=1, source_start=3),
                ),
            )
        )
    # lone reference, nothing to bottom out on (source also out of range)
    with pytest.raises(SchemeStructureError):
        decode_bms(
            MacroScheme(n=2, phrases=(Reference(start=1, length=2, source_start=2),))
        )
    # self-referential single position
    with pytest.raises(SchemeStructureError):
        decode_bms(
            MacroScheme(
                n=2,
                phrases=(
                    Reference(start=1, length=1, source_start=1),
                    Literal(position=2, symbol=97),
                ),
            )
        )


def test_validate_ok():
    w = b"abbbabbababab"
    rep = validate_bms(induce_bms(w), w)
    assert rep.phrase_count == 9
    assert rep.acyclic and rep.decodes and rep.bound_ok
    assert rep.ok


def test_validate_never_raises():
    # tampered scheme: decodes to the wrong text
    s = MacroScheme(
        n=2,
        phrases=(
            Literal(position=1, symbol=ord("x")),
            Literal(position=2, symbol=ord("y")),
        ),
    )
    rep = validate_bms(s, b"ab")
    assert rep.acyclic and not rep.decodes and not rep.ok

    # cyclic scheme
    s = MacroScheme(
        n=2,
        phrases=(
            Reference(start=1, length=1, source_start=2),
            Reference(start=2, length=1, source_start=1),
        ),
    )
    rep = validate_bms(s, b"aa")
    assert not rep.acyclic and not rep.decodes and not rep.ok

    # a header claiming far more positions than the phrases cover, and one
    # whose reference would cover more than any transform: structural
    # failures, with nothing allocated for the claimed length
    for text in ("BMS 100000000000000000000\n", "BMS 2000000000\nL 1 61\nL 2 62\n",
                 "BMS 100000000000000000000\nL 1 61\nR 2 99999999999999999999 1\n"):
        rep = validate_bms(scheme_from_text(text), b"ab")
        assert not rep.acyclic and not rep.decodes and not rep.ok


def test_validate_random_sweep():
    for w in O.random_strings(101, 120, 200, (1, 2, 4, 16)):
        assert validate_bms(induce_bms(w), w).ok


def test_scheme_text_roundtrip():
    w = b"abbbabbababab"
    s = induce_bms(w)
    text = scheme_to_text(s)
    assert text.splitlines()[0] == "BMS 13"
    assert scheme_from_text(text) == s

    for v in O.random_strings(111, 60, 100, (1, 2, 26)):
        s = induce_bms(v)
        assert scheme_from_text(scheme_to_text(s)) == s
        assert decode_bms(scheme_from_text(scheme_to_text(s))) == v


def test_scheme_text_golden():
    assert scheme_to_text(induce_bms("aaa")) == "BMS 3\nL 1 61\nR 2 2 1\n"


def test_scheme_text_symbol_hex():
    s = MacroScheme(n=1, phrases=(Literal(position=1, symbol=0x0A),))
    text = scheme_to_text(s)
    assert "L 1 0a" in text
    assert scheme_from_text(text) == s


def test_scheme_from_text_rejects_malformed():
    for bad in (
        "",  # no header
        "XYZ 3\nL 1 61\n",  # wrong magic
        "BMS\nL 1 61\n",  # missing n
        "BMS x\n",  # non-numeric n
        "BMS 1\nL 1\n",  # truncated literal
        "BMS 1\nL 1 zz\n",  # bad hex
        "BMS 3\nL 1 61\nR 2 2\n",  # truncated reference
        "BMS 1\nQ 1 61\n",  # unknown record
        "BMS 1\nL one 61\n",  # non-numeric field
    ):
        with pytest.raises(SchemeFormatError):
            scheme_from_text(bad)


def test_scheme_from_text_skips_blank_lines():
    s = scheme_from_text("BMS 3\n\nL 1 61\n\nR 2 2 1\n")
    assert s == induce_bms("aaa")


def test_unsound_parsed_schemes_keep_their_phrases():
    # "BMS 100\nL 1 61\nR 2 99 1\n" is sound and holds columns; each scheme
    # below breaks coverage or a range, so its text parses to phrases that
    # decode_bms and validate_bms check as they check any phrase-built scheme
    assert "_cols" in vars(scheme_from_text("BMS 100\nL 1 61\nR 2 99 1\n"))
    a = Literal(1, 97)
    for n, phrases in [
        (100, (a, Reference(3, 98, 1))),  # a gap at 2
        (100, (a, Reference(2, 1, 0), Reference(3, 98, 1))),  # source 0
        (100, (a, Reference(2, 99, 3))),  # a source past n
        (2**31, (a, Reference(2, 99, 1))),
        *((big, (a, Reference(2, 99, 1))) for big in (2**63, 10**20)),
        *((100, (a, Reference(2, big, 1))) for big in (2**63, 10**20)),
        *((100, (a, Reference(2, 99, big))) for big in (2**63, 10**20)),
    ]:
        m = scheme_from_text(scheme_to_text(MacroScheme(n, phrases)))
        assert vars(m) == {"n": n, "phrases": phrases}, (n, phrases)
        assert validate_bms(m, b"a" * 100) == ValidationReport(len(phrases), False, False, True)


def test_scheme_from_text_memory():
    # about 2^17 phrases: held as typed columns, not as line strings and
    # phrase objects
    text = scheme_to_text(induce_bms(bytes(random.Random(17).choices(b"acgt", k=140000))))
    tracemalloc.start()
    try:
        m = scheme_from_text(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.phrase_count > 125000
    assert peak <= 6 * 10**6, peak



def _column_texts():
    for w in O.all_strings("abc", 1, 8):
        yield w
    rng = random.Random(131)
    for sigma in (1, 2, 4, 256):
        for n in (1, 2, 63, 64, 65, 100, 500, 1999, 2000, 2049, 4000,
                  *rng.sample(range(1, 2000), 8)):
            low = rng.choice((0, 256 - sigma))  # bytes 0 and 255 both occur
            yield bytes(rng.randrange(low, low + sigma) for _ in range(n))
    for n in (65, 377, 1000, 2000, 2049, 5000):
        yield O.brute_fibonacci(20)[:n]
        yield bytes(97 + bin(i).count("1") % 2 for i in range(n))
        yield (b"abracadabra" * n)[:n]
        yield b"a" * n
        yield b"ab" * (n // 2)


def test_scheme_arrays_match_loop():
    # induce_bms's phrase loop, forced at every length, is the reference
    for w in _column_texts():
        w = O.to_bytes(w)
        with mock.patch.object(macro, "_SMALL", 1 << 31):
            expected = induce_bms(w).phrases
        assert induce_bms(w).phrases == expected, w


def test_scheme_arrays_columns():
    starts, lengths, sources, firsts = macro._scheme_arrays(b"abbbabbababab")
    assert starts.tolist() == [1, 2, 3, 5, 6, 7, 8, 9, 10]
    assert lengths.tolist() == [1, 1, 2, 1, 1, 1, 1, 1, 4]
    assert sources.tolist() == [0, 0, 6, 0, 0, 13, 0, 0, 8]
    assert firsts.tobytes() == b"abbabbaba"


def _held_texts():
    """_column_texts() plus random and Fibonacci texts on both sides of _SMALL."""
    yield from map(O.to_bytes, _column_texts())
    rng = random.Random(6465)
    for n in (64, 65, 66):
        for sigma in (1, 2, 4, 256):
            yield bytes(rng.randrange(256 - sigma, 256) for _ in range(n))
        yield O.brute_fibonacci(12)[:n]


# the column-holding records and their one shared helper, macro._held: how
# each is made from a text, the plain record of its tuple, and the tuple field
_HELD = [
    pytest.param(induce_bms, lambda w, tup: MacroScheme(len(w), tup), "phrases",
                 id="MacroScheme"),
    pytest.param(lambda w: scheme_from_text(scheme_to_text(induce_bms(w))),
                 lambda w, tup: MacroScheme(len(w), tup), "phrases", id="parsed"),
    pytest.param(lz77_factorize, lambda w, tup: Lz77Factorization(tup), "factors",
                 id="Lz77Factorization"),
]


@pytest.mark.parametrize("make, plain, field", _HELD)
def test_induced_scheme_holds_columns_past_small(make, plain, field):
    for w in _held_texts():
        m = make(w)
        assert type(m) is type(plain(w, ()))
        assert ("_cols" in vars(m)) == (len(w) > macro._SMALL), w
        assert not hasattr(m, "symbols")
        tup = getattr(m, field)
        assert vars(m) == vars(plain(w, tup)), w
        assert getattr(m, field) is tup


@pytest.mark.parametrize("make, plain, field", _HELD)
def test_phrases_built_by_a_racing_reader_are_returned(make, plain, field):
    # a reader whose lookup missed, after another stored the tuple and
    # dropped the columns, gets that tuple, not an AttributeError
    w = O.brute_fibonacci(12)[:65]
    m, built = make(w), getattr(make(w), field)
    vars(m)[field] = built
    del vars(m)["_cols"]
    assert m.__getattr__(field) is built
    del vars(m)[field]
    with pytest.raises(AttributeError):
        m.__getattr__(field)


@pytest.mark.parametrize("make, plain, field", _HELD)
def test_held_columns_have_plain_value_semantics(make, plain, field):
    for w in _held_texts():
        p = plain(w, getattr(make(w), field))
        assert make(w) == p and p == make(w), w
        assert hash(make(w)) == hash(p), w
        assert repr(make(w)) == repr(p), w
        for m in (make(w), p):
            assert pickle.loads(pickle.dumps(m)) == p, w
        fewer = getattr(p, field)[:-1]
        assert dataclasses.replace(make(w), **{field: fewer}) == plain(w, fewer)
        assert dataclasses.replace(make(w)) == p, w


def test_held_columns_read_the_same_before_and_after_phrases():
    for w in _held_texts():
        m = induce_bms(w)
        before = (m.phrase_count, scheme_to_text(m), decode_bms(m))
        assert before[2] == w
        m.phrases
        assert (m.phrase_count, scheme_to_text(m), decode_bms(m)) == before, w


def test_held_columns_decode_like_both_checked_paths():
    for w in _held_texts():
        m = induce_bms(w)
        got = decode_bms(m)
        assert _decode_both(MacroScheme(m.n, induce_bms(w).phrases)) == [got, got], w
        if "_cols" not in vars(m):
            continue
        # every symbol comes from a literal column: change them all, and
        # every decoded symbol changes with them
        starts, lengths, sources, firsts = vars(m)["_cols"]
        flipped = induce_bms(w)
        vars(flipped)["_cols"] = (starts, lengths, sources, firsts ^ 1)
        got = decode_bms(flipped)
        assert got == bytes(c ^ 1 for c in w)
        assert _decode_both(MacroScheme(m.n, flipped.phrases)) == [got, got], w


def _decode_both(m):
    """(bytes or None) from each decode path: walk, then pointer doubling."""
    results = []
    for small in (1 << 31, -1):
        with mock.patch.object(macro, "_SMALL", small):
            try:
                results.append(decode_bms(m))
            except SchemeStructureError:
                results.append(None)
    return results


@st.composite
def small_schemes(draw):
    """Schemes of up to 12 positions: covering partitions with arbitrary
    in-range sources (so self-references and cycles are common), and now and
    then a shifted start, a bad source or a wrong header length."""
    n = draw(st.integers(0, 12))
    phrases = []
    t = 1
    while t <= n:
        length = draw(st.integers(1, n - t + 1))
        if draw(st.booleans()):
            phrases.append(Literal(t, draw(st.integers(0, 255))))
            length = 1
        else:
            phrases.append(Reference(t, length, draw(st.integers(1, n - length + 1))))
        t += length
    if phrases and draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(phrases) - 1))
        ph = phrases[i]
        if isinstance(ph, Reference):
            phrases[i] = Reference(ph.start + draw(st.integers(-1, 1)), ph.length,
                                   draw(st.integers(-1, n + 1)))
        else:
            phrases[i] = Literal(ph.position + draw(st.integers(-1, 1)), ph.symbol)
    return MacroScheme(n + draw(st.sampled_from([0, 0, 0, -1, 1])), tuple(phrases))


@given(small_schemes())
def test_decode_paths_agree(m):
    walked, doubled = _decode_both(m)
    # parsed past a cutoff of -1, a sound scheme holds columns at every n
    with mock.patch.object(macro, "_SMALL", -1):
        try:
            parsed = decode_bms(scheme_from_text(scheme_to_text(m)))
        except SchemeStructureError:
            parsed = None
    assert walked == doubled == parsed


def _by_position(n, sources):
    """A scheme of n positions: each t in sources copies sources[t]; every
    other position is a literal 'a'."""
    return MacroScheme(n, tuple(Reference(t, 1, sources[t]) if t in sources
                                else Literal(t, 97) for t in range(1, n + 1)))


def _cycle_position(m):
    with pytest.raises(SchemeStructureError) as err:
        decode_bms(m)
    return int(str(err.value).rsplit(" ", 1)[1])


def test_decode_large_path_cycles():
    n = 1000
    assert n > macro._SMALL
    # a self-reference
    assert _cycle_position(_by_position(n, {500: 500})) == 500
    # a 2-cycle
    assert _cycle_position(_by_position(n, {10: 20, 20: 10})) in (10, 20)
    # a cycle longer than n / 2, written as two references: 1..599 copy
    # 2..600, and 600 copies 1
    m = MacroScheme(n, (Reference(1, 599, 2), Reference(600, 1, 1),
                        *(Literal(t, 97) for t in range(601, n + 1))))
    assert 1 <= _cycle_position(m) <= 600
    # a chain of 300 steps running into a 10-cycle
    sources = {t: t + 1 for t in range(1, 301)}
    sources.update({t: t + 1 for t in range(301, 310)})
    sources[310] = 301
    assert 301 <= _cycle_position(_by_position(n, sources)) <= 310
    # one clean chain still decodes beside literals
    assert decode_bms(_by_position(n, {1: 2, 2: 3, 999: 1})) == b"a" * n


def _long_chain():
    return scheme_from_text("BMS 1000000\nL 1 61\nR 2 999999 1\n")


def test_decode_large_path_long_chain():
    # each position copies the one before it: a chain of 999,999 steps
    assert decode_bms(_long_chain()) == b"a" * 1000000


def test_decode_long_chain_memory():
    m = _long_chain()
    tracemalloc.start()
    try:
        decode_bms(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 10**6, peak
