"""Prefix-doubling rank engine (numpy) shared by the transform and measure paths.

A round that sorts does one unstable argsort of the int64 key rank * n +
rank[succ]; dense ranks keep it below n^2, which fits for n < 3 * 10^9.
"""

from __future__ import annotations

import numpy as np


def power_ranks(symbols: np.ndarray, seg_start: np.ndarray, seg_len: np.ndarray) -> np.ndarray:
    """Rank positions by the infinite repetition of the rotation starting there.

    Position p belongs to a segment (seg_start/seg_len, a cyclic word
    occurrence) read cyclically from p; succ maps p to its k-th successor.
    Ranks are equal exactly for rotations whose infinite repetitions coincide.
    Length-k prefixes of the small non-negative symbols are packed into one
    code while 2k of them fit 63 bits; later rounds sort once each.  Doubling
    stops at length >= 2n (periodic strings with periods <= n that agree that
    far agree forever) or when the partition stops refining.
    """
    n = int(symbols.size)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    succ = seg_start + (np.arange(1, n + 1, dtype=np.int64) - seg_start) % seg_len
    codes = np.cumsum(np.bincount(symbols) > 0) - 1  # dense symbol codes
    bits = max(int(codes[-1]).bit_length(), 1)
    key, distinct, k = codes[symbols], 0, 1
    while 2 * k * bits < 64 and k < 2 * n:
        key, succ, k = (key << (k * bits)) | key[succ], succ[succ], 2 * k
    while True:
        order = np.argsort(key)
        ordered = key[order]
        sorted_ranks = np.zeros(n, dtype=np.int64)
        np.cumsum(ordered[1:] != ordered[:-1], out=sorted_ranks[1:])
        rank = np.empty_like(sorted_ranks)
        rank[order] = sorted_ranks
        refined = int(sorted_ranks[-1]) + 1
        if refined in (distinct, n) or k >= 2 * n:
            return rank
        key, succ, distinct, k = rank * n + rank[succ], succ[succ], refined, 2 * k


def suffix_ranks_np(data: bytes) -> np.ndarray:
    """Dense 0-based ranks of all suffixes of data (smallest suffix gets 0)."""
    n = len(data)
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.int64) + 1
    ext = np.concatenate([arr, np.zeros(1, dtype=np.int64)])  # unique least terminator
    m = n + 1
    ranks = power_ranks(ext, np.zeros(m, dtype=np.int64), np.full(m, m, dtype=np.int64))
    return ranks[:n] - 1
