"""The benchmark's checks reject deliberately corrupted outputs.

    python3 -m pytest -q perfbench/test_checks.py

Each test first shows that a check accepts the program's true output, then
corrupts that output the way a broken program could and expects the check to
raise, so no check is vacuous.
"""

import dataclasses
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"), str(HERE.parent / "tests")]

import checks  # noqa: E402
from bbwt import (  # noqa: E402
    all_rotation_factorization_sizes,
    bbwt,
    bbwt_inverse,
    best_rotation,
    bwt,
    decode_bms,
    induce_bms,
    lz77_factorize,
    measure_report,
    orbit_connected,
    parikh,
    transform_to_smallest,
)
from bbwt.macro import Literal, Reference  # noqa: E402

CheckError = checks.CheckError


def text(n, sigma, seed):
    rng = random.Random(seed)
    return bytes(rng.randrange(97, 97 + sigma) for _ in range(n))


# one text on each side of the program's 64-byte small/large switch
TEXTS = [text(40, 3, 1), text(300, 4, 2)]


def ell(w):
    return checks.necklace_count(w, checks.lyndon_factors(w))


@pytest.mark.parametrize("w", TEXTS, ids=["n40", "n300"])
def test_bbwt_swapped_bytes(w):
    tr = bbwt(w)
    checks.check_bbwt(w, tr, checks.lyndon_factors(w))
    checks.oracle_bbwt(w, tr)
    out = bytearray(tr.output)
    i = 3
    j = next(k for k in range(i + 1, len(out)) if out[k] != out[i])
    out[i], out[j] = out[j], out[i]
    bad = dataclasses.replace(tr, output=bytes(out))
    with pytest.raises(CheckError):
        checks.check_bbwt(w, bad, checks.lyndon_factors(w))
    with pytest.raises(CheckError):
        checks.oracle_bbwt(w, bad)


@pytest.mark.parametrize("w", TEXTS, ids=["n40", "n300"])
def test_bbwt_other_corruptions(w):
    tr = bbwt(w)
    facs = checks.lyndon_factors(w)
    csa = list(tr.csa)
    csa[0], csa[1] = csa[1], csa[0]
    for bad in (dataclasses.replace(tr, runs=tr.runs + 1),
                dataclasses.replace(tr, csa=tuple(csa)),
                dataclasses.replace(tr, csa=(tr.csa[1],) + tr.csa[1:]),
                dataclasses.replace(tr, output=tr.output[:-1] + bytes([tr.output[-1] ^ 1]))):
        with pytest.raises(CheckError):
            checks.check_bbwt(w, bad, facs)


@pytest.mark.parametrize("w", TEXTS, ids=["n40", "n300"])
def test_inverse_and_decode_mismatch(w):
    assert bbwt_inverse(bbwt(w).output) == w
    checks.check_equal(w, decode_bms(induce_bms(w)), "decode_bms")
    with pytest.raises(CheckError):
        checks.check_equal(w, w[1:] + w[:1], "bbwt_inverse")


@pytest.mark.parametrize("w", TEXTS, ids=["n40", "n300"])
def test_scheme_dropped_or_shifted_phrase(w):
    scheme = induce_bms(w)
    r_b, n_ell = bbwt(w).runs, ell(w)
    checks.check_scheme(w, scheme, r_b, n_ell)
    phrases = scheme.phrases
    for k in (0, len(phrases) // 2, len(phrases) - 1):
        dropped = dataclasses.replace(scheme, phrases=phrases[:k] + phrases[k + 1:])
        with pytest.raises(CheckError):
            checks.check_scheme(w, dropped, r_b, n_ell)
    shifted_sources = 0
    for k, ph in enumerate(phrases):
        if isinstance(ph, Literal):
            moved = Literal(ph.position, (ph.symbol + 1) % 256)
        else:
            src = ph.source_start + 1
            if src + ph.length - 1 > len(w) or w[src - 1:src - 1 + ph.length] == w[
                    ph.source_start - 1:ph.source_start - 1 + ph.length]:
                continue  # still a valid copy of the same block
            moved = Reference(ph.start, ph.length, src)
            shifted_sources += 1
        bad = dataclasses.replace(scheme, phrases=phrases[:k] + (moved,) + phrases[k + 1:])
        with pytest.raises(CheckError):
            checks.check_scheme(w, bad, r_b, n_ell)
    assert shifted_sources >= 3
    start_moved = [dataclasses.replace(p, **({"position": p.position + 1} if isinstance(p, Literal)
                                             else {"start": p.start + 1})) for p in phrases]
    with pytest.raises(CheckError):
        checks.check_scheme(w, dataclasses.replace(scheme, phrases=tuple(start_moved)), r_b, n_ell)
    with pytest.raises(CheckError):  # the phrase bound itself
        checks.check_scheme(w, scheme, 0, scheme.phrase_count - 1)


@pytest.mark.parametrize("w", TEXTS, ids=["n40", "n300"])
def test_lz_source_moved_by_one(w):
    lz = lz77_factorize(w)
    checks.check_lz(w, lz)
    checks.oracle_lz(w, lz)
    factors = lz.factors
    moved = 0
    for k, f in enumerate(factors):
        if f.source is None:
            continue
        for src in (f.source - 1, f.source + 1):
            if 1 <= src and src + f.length - 1 <= len(w) and w[src - 1:src - 1 + f.length] == w[
                    f.start - 1:f.start - 1 + f.length] and src < f.start:
                continue  # still a valid earlier copy
            bad = dataclasses.replace(lz, factors=factors[:k] + (
                dataclasses.replace(f, source=src),) + factors[k + 1:])
            with pytest.raises(CheckError):
                checks.check_lz(w, bad)
            moved += 1
    assert moved >= 3
    with pytest.raises(CheckError):
        checks.check_lz(w, dataclasses.replace(lz, factors=factors[:-1]))
    first_copy = next(k for k, f in enumerate(factors) if f.source is not None)
    fresh = dataclasses.replace(factors[first_copy], source=None)
    with pytest.raises(CheckError):
        checks.check_lz(w, dataclasses.replace(lz, factors=factors[:first_copy] + (fresh,)
                                               + factors[first_copy + 1:]))
    longer = dataclasses.replace(factors[first_copy], length=factors[first_copy].length + 1)
    with pytest.raises(CheckError):
        checks.oracle_lz(w, dataclasses.replace(lz, factors=factors[:first_copy] + (longer,)
                                                + factors[first_copy + 1:]))


@pytest.mark.parametrize("w", TEXTS, ids=["n40", "n300"])
def test_measure_report_fields(w):
    rep = measure_report(w)
    facs = checks.lyndon_factors(w)
    ref = (bwt(w).runs, bbwt(w).runs, lz77_factorize(w).z, induce_bms(w).phrase_count)
    checks.check_measure(w, rep, facs, *ref)
    checks.oracle_measure(w, rep)
    for field in ("r", "r_B", "ell", "z", "bms_phrases", "total_factors"):
        bad = dataclasses.replace(rep, **{field: getattr(rep, field) + 1})
        with pytest.raises(CheckError):
            checks.check_measure(w, bad, facs, *ref)


def test_best_rotation():
    w = TEXTS[0]
    br = best_rotation(w)
    r = bwt(w).runs
    checks.check_best_rotation(w, br, bbwt(br.rotated).runs, r)
    checks.oracle_best_rotation(w, br)
    for bad in (dataclasses.replace(br, shift=(br.shift + 1) % len(w)),
                dataclasses.replace(br, r_B=br.r_B + 1)):
        with pytest.raises(CheckError):
            checks.check_best_rotation(w, bad, bbwt(br.rotated).runs, r)
    with pytest.raises(CheckError):  # the min-rotation bound
        checks.check_best_rotation(w, br, br.r_B, br.r_B - 1)
    worse = next(k for k in range(len(w)) if bbwt(w[len(w) - k:] + w[:len(w) - k]).runs > br.r_B)
    rotated = w[len(w) - worse:] + w[:len(w) - worse]
    with pytest.raises(CheckError):
        checks.oracle_best_rotation(w, dataclasses.replace(
            br, shift=worse, rotated=rotated, r_B=bbwt(rotated).runs))


@pytest.mark.parametrize("w", TEXTS, ids=["n40", "n300"])
def test_rotation_sizes(w):
    rs = all_rotation_factorization_sizes(w)
    starts = checks.rotation_sample(len(w))
    checks.check_rotation_sizes(w, rs, starts)
    for p in starts:
        total, neck = rs.by_start[p]
        by_start = rs.by_start[:p] + ((total + 1, neck),) + rs.by_start[p + 1:]
        with pytest.raises(CheckError):
            checks.check_rotation_sizes(w, dataclasses.replace(rs, by_start=by_start), starts)


def test_orbit_connected():
    counts = ((97, 3), (98, 2), (99, 2))
    rep = orbit_connected(parikh(b"aaabbcc"))
    checks.check_orbit(counts, rep)
    checks.oracle_orbit(counts, rep)
    for bad in (dataclasses.replace(rep, class_size=rep.class_size - 1),
                dataclasses.replace(rep, connected=not rep.connected),
                dataclasses.replace(rep, orbit_count=0)):
        with pytest.raises(CheckError):
            checks.check_orbit(counts, bad)
    with pytest.raises(CheckError):
        checks.oracle_orbit(counts, dataclasses.replace(
            rep, orbit_count=2, connected=False, witness=(b"aaabbcc", b"cbbaaca")))


@pytest.mark.parametrize("x", [text(60, 2, 3), bytes(random.Random(4).sample(range(256), 40))],
                         ids=["binary", "permutation"])
def test_descent_path(x):
    path = transform_to_smallest(x)

    def forward(v):
        return bbwt(v).output

    checks.check_descent(x, path, forward, bbwt_inverse)
    assert any(kind == "bbwt" for kind, _ in path.steps)
    for k in range(len(path.steps)):
        bad = dataclasses.replace(path, steps=path.steps[:k] + path.steps[k + 1:])
        with pytest.raises(CheckError):
            checks.check_descent(x, bad, forward, bbwt_inverse)


def test_lyndon_probe():
    w = TEXTS[1]
    checks.check_lyndon_probe(w, bbwt, bwt)

    def broken_bwt(v):
        tr = bwt(v)
        return dataclasses.replace(tr, output=tr.output[1:] + tr.output[:1])

    with pytest.raises(CheckError):
        checks.check_lyndon_probe(w, bbwt, broken_bwt)
    with pytest.raises(CheckError):  # a power is no primitive probe
        checks.check_lyndon_probe(b"ab" * 20, bbwt, bwt)
