"""Output checks made apart from the program under test.

Each `check_*` function raises `CheckError` when an output is wrong.  They
use numpy, a Duval scan of their own and slice comparisons on the text, never
a stored copy of an earlier output.  The `oracle_*` functions compare exact
outputs with the brute-force references in `tests/oracles.py`; they are meant
for small inputs only.
"""

from __future__ import annotations

import math

import numpy as np

import oracles


class CheckError(AssertionError):
    """An output failed its check."""


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


def lyndon_factors(w: bytes) -> list[tuple[int, int]]:
    """(0-based start, length) of every Lyndon factor of w, left to right (Duval)."""
    n = len(w)
    out = []
    i = 0
    while i < n:
        j, k = i + 1, i
        while j < n and w[k] <= w[j]:
            k = i if w[k] < w[j] else k + 1
            j += 1
        p = j - k
        while i <= k:
            out.append((i, p))
            i += p
    return out


def necklace_count(w: bytes, factors) -> int:
    """Number of maximal groups of equal adjacent Lyndon factors."""
    groups = 0
    prev = None
    for s, p in factors:
        cur = w[s:s + p]
        if cur != prev:
            groups += 1
        prev = cur
    return groups


def runs_np(x: bytes) -> int:
    a = np.frombuffer(x, dtype=np.uint8)
    return 1 + int(np.count_nonzero(a[1:] != a[:-1]))


def _byte_counts(x: bytes) -> np.ndarray:
    return np.bincount(np.frombuffer(x, dtype=np.uint8), minlength=256)


def check_bbwt(w: bytes, tr, factors) -> None:
    """Output symbol i is the cyclic predecessor, inside its Lyndon factor, of
    rotation start csa[i]; csa is a permutation; the run count is right."""
    n = len(w)
    _require(len(tr.output) == n and len(tr.csa) == n, "bbwt: wrong length")
    _require(np.array_equal(_byte_counts(tr.output), _byte_counts(w)),
             "bbwt: byte counts differ from the text")
    _require(tr.runs == runs_np(tr.output), "bbwt: run count differs from numpy's")
    csa = np.asarray(tr.csa, dtype=np.int64) - 1
    _require(csa.min() >= 0 and csa.max() < n
             and np.bincount(csa, minlength=n).max() == 1, "bbwt: csa is not a permutation")
    starts = np.array([s for s, _ in factors], dtype=np.int64)
    lens = np.array([p for _, p in factors], dtype=np.int64)
    pred = np.arange(-1, n - 1, dtype=np.int64)
    pred[starts] += lens
    text = np.frombuffer(w, dtype=np.uint8)
    _require(np.array_equal(np.frombuffer(tr.output, dtype=np.uint8), text[pred[csa]]),
             "bbwt: an output symbol is not the predecessor of its rotation start")


def check_equal(w: bytes, got, what: str) -> None:
    _require(got == w, f"{what}: result differs from the text")


def check_scheme(w: bytes, scheme, r_b: int, ell: int) -> None:
    """Phrases tile 1..n in order; literals hold the text symbol; each
    reference copies an equal block of the text; at most 3 r_B + ell phrases."""
    n = len(w)
    _require(scheme.n == n, "induce_bms: wrong length")
    cursor = 1
    for ph in scheme.phrases:
        if hasattr(ph, "symbol"):
            _require(ph.position == cursor, f"induce_bms: literal at {ph.position}, expected {cursor}")
            _require(ph.symbol == w[cursor - 1], f"induce_bms: wrong literal at {cursor}")
            cursor += 1
            continue
        start, length, src = ph.start, ph.length, ph.source_start
        _require(start == cursor, f"induce_bms: reference at {start}, expected {cursor}")
        _require(length >= 1 and start + length - 1 <= n, f"induce_bms: bad length at {start}")
        _require(1 <= src and src + length - 1 <= n and src != start,
                 f"induce_bms: bad source at {start}")
        _require(w[src - 1:src - 1 + length] == w[start - 1:start - 1 + length],
                 f"induce_bms: reference at {start} copies an unequal block")
        cursor += length
    _require(cursor == n + 1, f"induce_bms: phrases cover {cursor - 1} of {n}")
    _require(scheme.phrase_count <= 3 * r_b + ell, "induce_bms: more than 3 r_B + ell phrases")


def check_lz(w: bytes, lz) -> None:
    """Factors tile 1..n; a fresh factor is the first occurrence of its
    symbol; a reference copies an equal block starting earlier (overlap ok)."""
    n = len(w)
    _, first = np.unique(np.frombuffer(w, dtype=np.uint8), return_index=True)
    first_pos = set((first + 1).tolist())
    cursor = 1
    for f in lz.factors:
        _require(f.start == cursor, f"lz77: factor at {f.start}, expected {cursor}")
        if f.source is None:
            _require(f.length == 1 and cursor in first_pos,
                     f"lz77: fresh factor at {cursor} repeats an earlier symbol")
        else:
            _require(f.length >= 1 and cursor + f.length - 1 <= n, f"lz77: bad length at {cursor}")
            _require(1 <= f.source < cursor, f"lz77: source of {cursor} does not start earlier")
            _require(w[f.source - 1:f.source - 1 + f.length] == w[cursor - 1:cursor - 1 + f.length],
                     f"lz77: factor at {cursor} copies an unequal block")
        cursor += f.length
    _require(cursor == n + 1, f"lz77: factors cover {cursor - 1} of {n}")


def check_measure(w: bytes, rep, factors, r: int, r_b: int, z: int, phrases: int) -> None:
    """Every field against a value checked elsewhere, plus the paper's
    ell <= r_B and ell < 4z."""
    n = len(w)
    ell = necklace_count(w, factors)
    _require((rep.n, rep.ell, rep.total_factors) == (n, ell, len(factors)),
             "measure_report: n or factor counts differ")
    _require((rep.r, rep.r_B, rep.z, rep.bms_phrases) == (r, r_b, z, phrases),
             "measure_report: a measure differs from its own operation")
    _require(ell <= r_b and ell < 4 * z, "measure_report: ell <= r_B or ell < 4z fails")
    ratio = r_b / (z * math.log2(n) ** 2) if n >= 2 else 0.0
    _require(math.isclose(rep.ratio_rB_over_zlog2n, ratio), "measure_report: wrong ratio")


def check_best_rotation(w: bytes, br, runs_of_rotated: int, r: int) -> None:
    """The result is the slice-rotated text, its r_B is that rotation's run
    count, and it is at most r = bwt(w).runs (the paper's min-rotation bound)."""
    n = len(w)
    _require(0 <= br.shift < n, "best_rotation: shift out of range")
    _require(br.rotated == w[n - br.shift:] + w[:n - br.shift], "best_rotation: wrong rotated text")
    _require(br.r_B == runs_of_rotated, "best_rotation: r_B is not the rotation's run count")
    _require(br.r_B <= r, "best_rotation: r_B exceeds bwt(w).runs")


def rotation_sample(n: int) -> list[int]:
    """0-based rotation starts checked by `check_rotation_sizes`."""
    return list(range(n)) if n <= 8 else sorted({0, 1, n // 3, n - 1})


def check_rotation_sizes(w: bytes, rs, starts) -> None:
    """(factor total, necklace count) of each sampled rotation, by Duval."""
    n = len(w)
    _require(len(rs.by_start) == n, "rotation sizes: wrong length")
    for p in starts:
        v = w[p:] + w[:p]
        facs = lyndon_factors(v)
        _require(tuple(rs.by_start[p]) == (len(facs), necklace_count(v, facs)),
                 f"rotation sizes: wrong counts for the rotation at {p + 1}")


def multinomial(counts) -> int:
    size = math.factorial(sum(c for _, c in counts))
    for _, c in counts:
        size //= math.factorial(c)
    return size


def check_orbit(counts, rep) -> None:
    size = multinomial(counts)
    _require(rep.class_size == size, f"orbit_connected: class size {rep.class_size}, expected {size}")
    _require(1 <= rep.orbit_count <= size, "orbit_connected: orbit count out of range")
    _require(rep.connected == (rep.orbit_count == 1), "orbit_connected: flag disagrees with count")
    if rep.connected:
        _require(rep.witness is None, "orbit_connected: witness on a connected class")
    else:
        letters = sorted(b for b, c in counts for _ in range(c))
        _require(rep.witness is not None
                 and all(sorted(x) == letters for x in rep.witness)
                 and rep.witness[0] != rep.witness[1], "orbit_connected: bad witness")


def check_descent(x: bytes, path, forward, inverse) -> None:
    """Applying the path (rotations by slicing, transform steps by the given
    forward and inverse) turns x into its sorted text."""
    n = len(x)
    cur = x
    for kind, amount in path.steps:
        if kind == "rot":
            k = amount % n
            cur = cur[n - k:] + cur[:n - k]
        elif kind == "bbwt":
            step = forward if amount > 0 else inverse
            for _ in range(abs(amount)):
                cur = step(cur)
        else:
            raise CheckError(f"transform_to_smallest: unknown step {kind!r}")
    _require(cur == bytes(sorted(x)), "transform_to_smallest: path does not reach the sorted text")


def check_lyndon_probe(w: bytes, bbwt, bwt) -> None:
    """On a Lyndon word (the least rotation of a primitive text) bbwt equals bwt."""
    _require(oracles.brute_is_primitive(w), "probe text is not primitive")
    least, _ = oracles.brute_smallest_rotation(w)
    _require(len(lyndon_factors(least)) == 1, "least rotation is not a Lyndon word")
    _require(bbwt(least).output == bwt(least).output, "bbwt and bwt differ on a Lyndon word")


# exact comparisons with tests/oracles.py, for small inputs

def oracle_bbwt(w: bytes, tr) -> None:
    _require((tr.output, tr.csa) == oracles.brute_bbwt(w), "bbwt differs from the oracle")


def oracle_lz(w: bytes, lz) -> None:
    """Factor boundaries are unique; a copy's source may be any earlier
    occurrence (check_lz verifies it), so only fresh-or-copy is compared."""
    got = [(f.start, f.length, f.source is None) for f in lz.factors]
    want = [(s, length, src is None) for s, length, src in oracles.brute_lz77(w)]
    _require(got == want, "lz77 differs from the oracle")


def oracle_measure(w: bytes, rep) -> None:
    factors = oracles.brute_lyndon_factors(w)
    want = (oracles.brute_runs(oracles.brute_bwt(w)), oracles.brute_runs(oracles.brute_bbwt(w)[0]),
            len(oracles.brute_lyndon_grouped(w)), len(factors), len(oracles.brute_lz77(w)))
    _require((rep.r, rep.r_B, rep.ell, rep.total_factors, rep.z) == want,
             "measure_report differs from the oracle")


def oracle_best_rotation(w: bytes, br) -> None:
    runs, shift = min((oracles.brute_runs(oracles.brute_bbwt(oracles.brute_rot(w, k))[0]), k)
                      for k in range(len(w)))
    _require((br.shift, br.r_B, br.rotated) == (shift, runs, oracles.brute_rot(w, shift)),
             "best_rotation differs from the oracle")


def oracle_rotation_sizes(w: bytes, rs) -> None:
    _require([tuple(s) for s in rs.by_start] == oracles.brute_rotation_sizes(w),
             "rotation sizes differ from the oracle")


def _arrangements(counts):
    if not counts:
        yield b""
        return
    for i, (sym, c) in enumerate(counts):
        rest = counts[:i] + (((sym, c - 1),) if c > 1 else ()) + counts[i + 1:]
        for tail in _arrangements(rest):
            yield bytes([sym]) + tail


def oracle_orbit(counts, rep) -> None:
    """Orbits of the class under one rotation and the forward transform, by
    union-find over every arrangement."""
    members = list(_arrangements(tuple(counts)))
    index = {m: i for i, m in enumerate(members)}
    parent = list(range(len(members)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, m in enumerate(members):
        for image in (oracles.brute_rot(m, 1), oracles.brute_bbwt(m)[0]):
            a, b = find(i), find(index[image])
            parent[a] = b
    orbits = len({find(i) for i in range(len(members))})
    _require((rep.class_size, rep.orbit_count) == (len(members), orbits),
             "orbit_connected differs from the oracle")
