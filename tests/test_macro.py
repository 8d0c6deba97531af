import pytest

import oracles as O
from bbwt import (
    Literal,
    MacroScheme,
    Reference,
    SchemeFormatError,
    SchemeStructureError,
    bbwt,
    decode_bms,
    induce_bms,
    lyndon_factorize,
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
