"""Seeded inputs for the four workloads.

Every workload runs every timed operation, each on the inputs that suit it in
that workload: the bulk texts feed the linear-time operations, and short
slices of the same texts feed the operations whose cost grows faster than n
(`best_rotation`, `orbit_connected`, `transform_to_smallest`) or that repeat
the others (`measure_report`).  The same seed always gives the same inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

BULK_N = 1 << 17  # 2^19 made one round last 14-24 s, one sample per run


@dataclass
class Inputs:
    texts: list  # bbwt, induce_bms and lz77_factorize; the inverse and decode passes chain off them
    measure: list  # measure_report
    rotate: list  # best_rotation
    sizes: list  # all_rotation_factorization_sizes
    classes: list  # orbit_connected: ((symbol, count), ...) sorted by symbol
    descend: list  # transform_to_smallest: binary or all-distinct texts
    probe: bytes  # primitive text whose least rotation must have bbwt == bwt
    oracle: dict  # input list name -> indices compared with tests/oracles.py


def _fibonacci(min_len: int) -> bytes:
    prev, cur = b"b", b"a"
    while len(cur) < min_len:
        prev, cur = cur, cur + prev
    return cur


def _thue_morse(start: int, n: int) -> bytes:
    pos = np.arange(start, start + n, dtype=np.uint64)
    return (97 + np.bitwise_count(pos) % 2).astype(np.uint8).tobytes()


def _permutation(rng: random.Random, n: int) -> bytes:
    return bytes(rng.sample(range(256), n))


def bulk_random(seed: int) -> Inputs:
    """Uniform texts of 2^17 bytes over 4 and over 256 symbols."""
    gen = np.random.default_rng(seed)
    r4 = (97 + gen.integers(0, 4, BULK_N, dtype=np.uint8)).tobytes()
    r256 = gen.integers(0, 256, BULK_N, dtype=np.uint8).tobytes()
    rng = random.Random(seed)
    quad = tuple(sorted(rng.sample(range(256), 4)))
    binary = bytes(97 + (c & 1) for c in r4[:512])
    return Inputs(
        texts=[r4, r256],
        measure=[r4[:1 << 13], r256[:1 << 13]],
        rotate=[r4[:128], r256[:128]],
        sizes=[r4[:1 << 15], r256[:1 << 15]],
        classes=[tuple((c, 2) for c in quad)],
        descend=[binary, _permutation(rng, 256)],
        probe=r4[:1 << 13],
        oracle={},
    )


def bulk_repetitive(seed: int) -> Inputs:
    """Windows of 2^17 bytes of the Fibonacci and Thue-Morse words at seeded
    offsets, and a seeded 1,009-byte period repeated to 2^17 bytes."""
    rng = random.Random(seed)
    off = rng.randrange(BULK_N)
    fib = _fibonacci(off + BULK_N)[off:off + BULK_N]
    tm = _thue_morse(rng.randrange(1 << 30), BULK_N)
    period = bytes(rng.randrange(97, 101) for _ in range(1009))
    per = (period * (BULK_N // len(period) + 1))[:BULK_N]
    texts = [fib, tm, per]
    return Inputs(
        texts=texts,
        measure=[t[:1 << 13] for t in texts],
        rotate=[t[:128] for t in texts],
        sizes=[t[:1 << 15] for t in texts],
        classes=[((97, 9), (98, 5))],
        descend=[fib[:512], tm[:512]],
        probe=tm[:1 << 13],  # Thue-Morse is overlap-free, so no window is a power
        oracle={},
    )


SWEEP_TERNARY = 7  # every string over "abc" up to this length
SWEEP_RANDOM_N = range(8, 513, 3)  # one seeded random string of each of these lengths


def sweep(seed: int) -> Inputs:
    """Every ternary string up to length 7, then one seeded string of every
    third length 8..512 over 1 + n % 8 symbols (lengths differ from the
    ternary strings, so no input repeats)."""
    rng = random.Random(seed)
    texts = [bytes(t) for n in range(1, SWEEP_TERNARY + 1)
             for t in itertools.product(b"abc", repeat=n)]
    for n in SWEEP_RANDOM_N:
        sigma = 1 + n % 8
        texts.append(bytes(rng.randrange(97, 97 + sigma) for _ in range(n)))
    classes = sorted({tuple(sorted((c, t.count(c)) for c in set(t)))
                      for t in texts if len(t) <= SWEEP_TERNARY})
    rotate = [t for t in texts if len(t) <= 12]
    descend = [t for t in texts
               if len(t) <= 128 and (len(set(t)) <= 2 or len(set(t)) == len(t))]
    pick = random.Random(seed + 1)
    return Inputs(
        texts=texts,
        measure=texts,
        rotate=rotate,
        sizes=texts,
        classes=classes,
        descend=descend,
        probe=texts[-2],  # 509 bytes over 6 symbols
        oracle={
            "texts": sorted(pick.sample(range(len(texts)), 60)),
            "rotate": sorted(pick.sample(range(len(rotate)), 60)),
            "sizes": sorted(pick.sample([i for i, t in enumerate(texts) if len(t) <= 24], 40)),
            "classes": sorted(pick.sample(range(len(classes)), 12)),
        },
    )


def rotate_reach(seed: int) -> Inputs:
    """Texts of 192-320 bytes for best_rotation, one ternary text of 2^18
    bytes for the per-rotation sizes, binary, ternary and permutation classes,
    and binary texts of 1,000 and 512 bytes plus a 256-byte permutation to
    descend.
    The transform passes run on rotations of the best_rotation texts."""
    rng = random.Random(seed)

    def text(n, sigma):
        return bytes(rng.randrange(97, 97 + sigma) for _ in range(n))

    rotate = [text(192, 2), text(256, 4), text(320, 3)]
    descend = [text(1000, 2), text(512, 2), _permutation(rng, 256)]
    sizes = (97 + np.random.default_rng(seed).integers(0, 3, 1 << 18, dtype=np.uint8)).tobytes()
    # every 4th of the rotations best_rotation transforms (random texts are
    # primitive, so all distinct), then the texts to descend
    texts = [t[k:] + t[:k] for t in rotate for k in range(0, len(t), 4)] + descend
    return Inputs(
        texts=texts,
        measure=texts,
        rotate=rotate,
        sizes=[sizes],
        classes=[((97, 7), (98, 7)), ((97, 3), (98, 3), (99, 3)),
                 tuple((c, 1) for c in range(97, 104))],
        descend=descend,
        probe=rotate[1],
        oracle={
            "texts": sorted(random.Random(seed + 1).sample(range(len(texts)), 20)),
            "rotate": [0],
            "classes": [0, 1, 2],
        },
    )


WORKLOADS = {
    "bulk-random": bulk_random,
    "bulk-repetitive": bulk_repetitive,
    "sweep": sweep,
    "rotate-reach": rotate_reach,
}
