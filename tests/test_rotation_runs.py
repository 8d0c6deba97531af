"""all_rotation_runs against transforming every shift with bbwt.

all_rotation_runs sorts the rotations of all shifts together only when one
period of shifts times the length lies in a window (rotation._SHARED_MIN to
rotation._SHARED_MAX); the oracle tests open that window to every input,
and the edge test checks both sides of each edge as they are.
"""

import random

import numpy as np
import pytest

import oracles as O
from bbwt import all_rotation_runs, bbwt, rotation
from bbwt.transforms import _bbwt_rows
from test_ranks import fibonacci, thue_morse


@pytest.fixture
def shared(monkeypatch):
    monkeypatch.setattr(rotation, "_SHARED_MIN", 1)
    monkeypatch.setattr(rotation, "_SHARED_MAX", rotation.ROTATION_BUDGET)


def per_shift(w, period=None):
    """bbwt(rot(w, k)).runs for every k; a given period of w is trusted."""
    d = period or len(w)
    return tuple(bbwt(O.brute_rot(w, k)).runs for k in range(d)) * (len(w) // d)


def test_every_ternary_string(shared):
    # every rotation of a string of length n is itself a string of length n,
    # so one transform per string gives every expected table
    runs = {w: bbwt(w).runs for w in O.all_strings("abc", 1, 9)}
    for w in runs:
        n = len(w)  # brute_rot(w, k) is w[n - k:] + w[:n - k]
        assert all_rotation_runs(w) == tuple(runs[w[n - k:] + w[:n - k]] for k in range(n)), w


def test_every_binary_necklace(shared):
    # lengths up to 9 are among the ternary strings above; the expected
    # tables come from one batched transform of every rotation of every
    # necklace of a length (transforms._bbwt_rows, itself checked row by row
    # against bbwt in test_transforms)
    for n in range(10, 17):
        necklaces = list(O.all_necklaces("ab", n, n))
        rotations = b"".join(O.brute_rot(w, k) for w in necklaces for k in range(n))
        out = _bbwt_rows(np.frombuffer(rotations, dtype=np.uint8).reshape(-1, n))
        tables = (1 + np.count_nonzero(out[:, 1:] != out[:, :-1], axis=1)).reshape(-1, n)
        for w, table in zip(necklaces, tables.tolist()):
            assert all_rotation_runs(w) == tuple(table), w


ALPHABETS = [b"\x00", b"\x00\xff", b"abc", b"\x00a\x80\xff", bytes(range(256))]


def seeded_texts():
    rng = random.Random(9)
    for alphabet in ALPHABETS:
        for n in (12, 13, 31, 150, 400):
            yield bytes(rng.choices(alphabet, k=n))
    for n in (12, 13, 89, 377):
        yield fibonacci(n)
        yield thue_morse(n)
        yield b"a" * (n - 1) + b"b"


def periodic_texts():
    rng = random.Random(10)
    for d, m in ((1, 12), (2, 7), (3, 20), (5, 4), (12, 3), (40, 10), (133, 3)):
        root = bytes(rng.choices(b"abc", k=d))
        while not O.brute_is_primitive(root):
            root = bytes(rng.choices(b"abc", k=d))
        yield root * m, d


def test_seeded_texts(shared):
    for w in seeded_texts():
        assert all_rotation_runs(w) == per_shift(w), w


def test_periodic_texts(shared):
    for w, d in periodic_texts():
        assert (w + w).find(w, 1) == d < len(w)
        assert all_rotation_runs(w) == per_shift(w, d), w


def test_window_edges(monkeypatch):
    # d * n on either side of each edge of the window: the shared sort runs
    # exactly inside it, and agrees with the transform there
    framed = []
    frame_runs = rotation._frame_runs

    def spy(*args):
        framed.append(args)
        return frame_runs(*args)

    monkeypatch.setattr(rotation, "_frame_runs", spy)
    rng = random.Random(11)
    primitive = bytes(rng.choices(b"abcd", k=1024))
    root = bytes(rng.choices(b"abcd", k=513))
    assert len(primitive) ** 2 == rotation._SHARED_MAX < 513 * 2052
    cases = [
        (b"a" * (rotation._SHARED_MIN - 1), 1, False),
        (b"a" * rotation._SHARED_MIN, 1, True),
        (b"abcabcabcab", 11, False),  # 121 cells
        (b"abcabcabcabb", 12, True),  # 144 cells
        (primitive, 1024, True),
    ]
    for w, d, inside in cases:
        framed.clear()
        assert all_rotation_runs(w) == per_shift(w, d), w[:20]
        assert bool(framed) == inside, (len(w), d)
    # above the window each of the d shifts is transformed, which is what
    # per_shift computes; a stand-in transform of one run keeps this cheap
    transformed = []

    def stand_in(x):
        transformed.append(x)
        return bbwt(x[:1])

    monkeypatch.setattr(rotation, "bbwt", stand_in)
    framed.clear()
    assert all_rotation_runs(root * 4) == (1,) * 2052
    assert transformed == [O.brute_rot(root * 4, k) for k in range(513)]
    assert not framed
