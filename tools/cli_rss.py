"""Peak memory of every input-reading CLI subcommand, per input byte.

    python3 tools/cli_rss.py K [--seed S]

Writes seeded random 4-symbol input of 2^K bytes to a temporary directory
and runs each subcommand that reads an input through bbwt.cli.main, each in
a child process of its own (`bms verify` checks the scheme `bms build`
wrote).  The child reads ru_maxrss once bbwt.cli and numpy are imported, the
import baseline, and again when main returns.  One JSON line per subcommand
gives its exit code, wall seconds, the baseline and the peak above it in
KiB, and that peak in bytes per input byte.  `--max-bytes` is passed as 2^K,
so the default limit plays no part; past 4,096 random bytes `measure` and
`rotopt` refuse the input over the rotation budget (exit 2).  Standard
library only; bbwt is imported from ../src.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"

# run in the child: argv[1] is the JSON list of arguments to cli.main
_CHILD = """
import json, resource, sys, time
from bbwt import cli
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
t0 = time.perf_counter()
code = cli.main(json.loads(sys.argv[1]))
seconds = time.perf_counter() - t0
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps([code, seconds, base, peak]))
"""

# The input is written a chunk at a time: a child's ru_maxrss starts from this
# process's resident size when it is spawned, which must stay below the
# child's import baseline.
_CHUNK = 1 << 16
_ACGT = bytes(b"acgt"[i & 3] for i in range(256))

# (name, arguments before the I/O options); bms build comes before bms verify
COMMANDS = [
    ("transform bwt", ["transform", "bwt"]),
    ("transform bbwt", ["transform", "bbwt"]),
    ("transform ibwt-multiset", ["transform", "ibwt-multiset"]),
    ("transform ibbwt", ["transform", "ibbwt"]),
    ("measure", ["measure"]),
    ("bms build", ["bms", "build"]),
    ("bms verify", ["bms", "verify", "{scheme}"]),
    ("rotopt", ["rotopt"]),
    ("lynrot", ["lynrot"]),
]


def run_child(argv: list[str]) -> dict:
    """Run cli.main(argv) in a fresh interpreter; ru_maxrss is in KiB on Linux."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(_SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argv)],
                          capture_output=True, text=True, env=env, check=True)
    code, seconds, base, peak = json.loads(proc.stdout.splitlines()[-1])
    return {"exit": code, "seconds": round(seconds, 3), "baseline_kib": base,
            "peak_kib": peak - base}


def measure(log2n: int, seed: int):
    """Yield one record per entry of COMMANDS on 2^log2n random bytes."""
    n = 1 << log2n
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        src, scheme = Path(tmp) / "input.bin", Path(tmp) / "scheme.txt"
        with open(src, "wb") as fh:
            for a in range(0, n, _CHUNK):
                fh.write(rng.randbytes(min(_CHUNK, n - a)).translate(_ACGT))
        for name, args in COMMANDS:
            out = scheme if name == "bms build" else Path(tmp) / "out"
            argv = [a.format(scheme=scheme) for a in args]
            rec = run_child(argv + ["-i", str(src), "-o", str(out), "--max-bytes", str(n)])
            yield {"command": name, "n": n, **rec,
                   "bytes_per_byte": round(rec["peak_kib"] * 1024 / n, 1)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("log2n", type=int, help="input length is 2^LOG2N bytes")
    ap.add_argument("--seed", type=int, default=1, help="seed of the random input")
    args = ap.parse_args(argv)
    for rec in measure(args.log2n, args.seed):
        print(json.dumps(rec), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
