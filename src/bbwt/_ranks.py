"""Prefix-doubling rank engine (numpy) shared by the transform and measure paths.

Callers give the symbols and the lengths of the consecutive cyclic segments
they are cut into; successors wrap with one scatter at the segment ends.
Keys are int64 codes of at most 63 bits.  A stretch of doublings packs each
position's code with its successor's (key << bits | key[succ]) while the
doubled width fits; one unstable argsort then turns the codes into dense
ranks, and the next stretch packs those ranks in bit_length(count - 1) bits.
"""

from __future__ import annotations

import numpy as np

_SMALL = 64  # below this, plain python sorting beats numpy setup cost
_MAX_N = 1 << 31  # dense ranks of < 2^31 positions fit 31 bits, so a pack always fits


def power_ranks(symbols: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Rank positions by the infinite repetition of the rotation starting there.

    symbols is cut into consecutive cyclic segments of the given int64
    lengths (each at least 1), and each position is read cyclically from
    there inside its segment; succ maps p to its k-th successor.
    Ranks are equal exactly for rotations whose infinite repetitions coincide.
    Length-k prefixes are packed into one code while it fits 63 bits, starting
    from dense symbol codes and, after each sort, from the dense ranks, so a
    sort happens only when the next doubling would overflow or the length
    reaches 2L, L the longest segment.  Doubling stops at length >= 2L
    (by Fine and Wilf, periodic strings with periods p, q <= L that agree on
    p + q symbols agree forever), when a sort leaves the partition as it was
    (after symbols, the alphabet), or when all ranks are distinct.
    Raises ValueError for n >= 2^31 positions.
    """
    n = int(symbols.size)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n >= _MAX_N:
        raise ValueError(f"power_ranks: {n} positions, the limit is {_MAX_N - 1}")
    ends = lens.cumsum()
    succ = np.arange(1, n + 1, dtype=np.int64)
    succ[ends - 1] = ends - lens  # each segment's last position wraps to its start
    enough = 2 * int(lens.max())
    codes = (np.bincount(symbols) > 0).cumsum() - 1  # dense symbol codes
    key, distinct, k = codes[symbols], int(codes[-1]) + 1, 1
    while True:
        bits = max((distinct - 1).bit_length(), 1)
        while 2 * bits < 64 and k < enough:
            key, succ, bits, k = (key << bits) | key[succ], succ[succ], 2 * bits, 2 * k
        order = np.argsort(key)
        ordered = key[order]
        sorted_ranks = np.zeros(n, dtype=np.int64)
        (ordered[1:] != ordered[:-1]).cumsum(out=sorted_ranks[1:])
        key = np.empty_like(sorted_ranks)
        key[order] = sorted_ranks
        refined = int(sorted_ranks[-1]) + 1
        if refined in (distinct, n) or k >= enough:
            return key
        distinct = refined


def cyclic_pred(lens: np.ndarray) -> np.ndarray:
    """The 0-based position cyclically preceding each position inside its
    segment, for consecutive segments of the given int64 lengths."""
    ends = lens.cumsum()
    pred = np.arange(-1, int(ends[-1]) - 1)
    pred[ends - lens] += lens
    return pred


def suffix_ranks_np(data: bytes) -> np.ndarray:
    """Dense 0-based ranks of all suffixes of data (smallest suffix gets 0)."""
    n = len(data)
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.int64) + 1
    ext = np.concatenate([arr, np.zeros(1, dtype=np.int64)])  # unique least terminator
    return power_ranks(ext, np.array([n + 1], dtype=np.int64))[:n] - 1


def rotation_ranks(x: bytes) -> list[int]:
    """Dense 0-based ranks of the rotations of x by start; equal rotations tie.

    For a Lyndon word these rank its suffixes too: its rotations sort exactly
    as its suffixes do.
    """
    n = len(x)
    if n > _SMALL:
        ranks = power_ranks(np.frombuffer(x, dtype=np.uint8), np.array([n], dtype=np.int64))
        return ranks.tolist()
    doubled = x + x
    keys = [doubled[i:i + n] for i in range(n)]
    dense = {key: r for r, key in enumerate(sorted(set(keys)))}
    return [dense[key] for key in keys]
