"""One sha256 per public call over its results on a fixed seeded corpus.

    python3 tools/output_digest.py [--quick] [--call NAME ...]

Prints one JSON line per call: its name, the number of cases and a sha256
over the `repr` of each case's result, or of the name of the exception the
case raised.  Run it in two checkouts and compare the lines to check that a
change keeps every output: each side runs in its own process, and nothing
in a line depends on timing.  The corpus is every ternary text up to 8
symbols, seeded random texts of up to 5,000 symbols over 1, 2, 3, 4, 8, 26
and 256 symbols, texts whose inverse repeats a necklace many times, and one
text of 2^14 symbols per benchmark family (random over 4 and 256 symbols,
Fibonacci, Thue-Morse, 1,009-periodic).  `--quick` is a smaller corpus of
the same kinds.  The inverses read each text and its bbwt, so repeated
necklaces reach them; the reachability calls skip texts they would search
for too long (see CALLS).  Standard library only; bbwt is imported from
../src.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bbwt import (  # noqa: E402
    bbwt,
    bbwt_inverse,
    bwt_inverse_multiset,
    canonical_smallest,
    descent_step,
    find_path,
    parikh,
    smallest_rotation,
    transform_to_smallest,
)


def _and_image(f):
    """f of the text, then of its bbwt."""
    return lambda w: (f(w), f(bbwt(w).output))


def _descends(w: bytes) -> bool:
    """transform_to_smallest's alphabets: binary or all distinct."""
    return len(set(w)) <= 2 or len(set(w)) == len(w)


# name -> (function of one text, longest text it is given, other filter)
CALLS = {
    "bbwt_inverse": (_and_image(bbwt_inverse), None, None),
    "bwt_inverse_multiset": (_and_image(bwt_inverse_multiset), None, None),
    "transform_to_smallest": (transform_to_smallest, 2000, _descends),
    "descent_step": (lambda w: descent_step(smallest_rotation(w)[0]), None, None),
    "find_path": (lambda w: find_path(w, canonical_smallest(parikh(w))), 6, None),
}


def _fibonacci(n: int) -> bytes:
    prev, cur = b"b", b"a"
    while len(cur) < n:
        prev, cur = cur, cur + prev
    return cur[:n]


def corpus(quick: bool) -> list[bytes]:
    """The fixed texts, in a fixed order."""
    rng = random.Random(22)
    top, count, bulk = (5, 40, 1 << 11) if quick else (8, 1500, 1 << 14)
    texts = [bytes(t) for n in range(1, top + 1)
             for t in itertools.product(b"abc", repeat=n)]
    for _ in range(count):
        n, sigma = rng.randint(1, 1500 if quick else 5000), rng.choice((1, 2, 3, 4, 8, 26, 256))
        lo = min(97, 256 - sigma)
        texts.append(bytes(rng.randrange(lo, lo + sigma) for _ in range(n)))
    # repeated necklaces: powers, u^k v for Lyndon u, a Fibonacci prefix with
    # a (987, 2) necklace
    for k in (1, 2, 200, 600):
        texts += [b"a" * k, b"ab" * k, b"abaab" * k + b"aab"]
        texts += [u * k + v for u in (b"aab", b"abb", b"aabab", b"\x00\xff")
                  for v in (b"", b"a", b"ba")]
    texts.append(_fibonacci(5007)[7:])
    period = bytes(rng.randrange(97, 101) for _ in range(1009))
    texts += [
        bytes(rng.randrange(97, 101) for _ in range(bulk)),
        rng.randbytes(bulk),
        _fibonacci(bulk + 999)[999:],
        bytes(97 + bin(i).count("1") % 2 for i in range(12345, 12345 + bulk)),
        (period * (bulk // 1009 + 1))[:bulk],
    ]
    return texts


def digest(name: str, texts: list[bytes]) -> dict:
    f, longest, keep = CALLS[name]
    h, cases = hashlib.sha256(), 0
    for w in texts:
        if (longest is not None and len(w) > longest) or (keep and not keep(w)):
            continue
        try:
            out = repr(f(w))
        except Exception as exc:  # noqa: BLE001 - the error's type is the result
            out = "raises " + type(exc).__name__
        h.update(out.encode() + b"\n")
        cases += 1
    return {"call": name, "cases": cases, "sha256": h.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--quick", action="store_true", help="the smaller corpus")
    ap.add_argument("--call", action="append", choices=list(CALLS),
                    help="digest only this call (repeatable; default all)")
    args = ap.parse_args(argv)
    texts = corpus(args.quick)
    for name in args.call or CALLS:
        print(json.dumps(digest(name, texts)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
