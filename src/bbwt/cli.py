"""Command-line surface: byte-exact transforms plus structured text reports.

Exit codes: 0 success, 1 semantic failure (failed verification, disconnected
orbit), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import sys

from . import macro, measures, reachability, rotation, transforms
from .strings import rot

DEFAULT_LIMIT = 1 << 26


def _read_input(args) -> bytes:
    if args.input:
        with open(args.input, "rb") as fh:
            data = fh.read()
    else:
        data = sys.stdin.buffer.read()
    if args.strip_newline:
        if data.endswith(b"\r\n"):
            data = data[:-2]
        elif data.endswith(b"\n"):
            data = data[:-1]
    if len(data) > args.max_bytes:
        raise ValueError(
            f"input is {len(data)} bytes, over the {args.max_bytes} limit")
    return data


def _write_output(args, data: bytes) -> None:
    if getattr(args, "output", None):
        with open(args.output, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _cmd_transform(args) -> int:
    data = _read_input(args)
    if not data:
        print("error: empty input", file=sys.stderr)
        return 2
    csa = None
    if args.mode == "bwt":
        res = transforms.bwt(data)
        out, csa = res.output, res.csa
    elif args.mode == "bbwt":
        res = transforms.bbwt(data)
        out, csa = res.output, res.csa
    elif args.mode == "ibwt-multiset":
        out = b"\n".join(transforms.bwt_inverse_multiset(data)) + b"\n"
    else:  # ibbwt
        out = transforms.bbwt_inverse(data)
    if args.csa:
        if csa is None:
            print("error: --csa applies to forward transforms only",
                  file=sys.stderr)
            return 2
        with open(args.csa, "w") as fh:
            fh.write("".join(f"{v}\n" for v in csa))
    _write_output(args, out)
    return 0


def _measure_fields(data: bytes, input_id: str) -> list[tuple[str, object]]:
    rep = measures.measure_report(data)
    best = rotation.best_rotation(data)
    return [
        ("input_id", input_id),
        ("n", rep.n),
        ("r", rep.r),
        ("rB", rep.r_B),
        ("ell", rep.ell),
        ("total_factors", rep.total_factors),
        ("z", rep.z),
        ("bms_phrases", rep.bms_phrases),
        ("best_rotation_shift", best.shift),
        ("best_rotation_rB", best.r_B),
    ]


def _cmd_measure(args) -> int:
    if args.fib is not None:
        data = measures.fibonacci_word(args.fib, max_length=args.max_bytes)
        input_id = f"fib:{args.fib}"
    else:
        data = _read_input(args)
        input_id = args.input or "-"
    if not data:
        print("error: empty input", file=sys.stderr)
        return 2
    fields = _measure_fields(data, input_id)
    pairs = [f"{k}={v}" for k, v in fields]
    text = " ".join(pairs) + "\n" if args.porcelain else "\n".join(pairs) + "\n"
    _write_output(args, text.encode())
    return 0


def _cmd_bms(args) -> int:
    data = _read_input(args)
    if not data:
        print("error: empty input", file=sys.stderr)
        return 2
    if args.action == "build":
        scheme = macro.induce_bms(data)
        _write_output(args, macro.scheme_to_text(scheme).encode())
        return 0
    with open(args.scheme, encoding="latin-1") as fh:
        scheme_text = fh.read()
    scheme = macro.scheme_from_text(scheme_text)  # SchemeFormatError -> exit 2
    rep = macro.validate_bms(scheme, data)
    lines = [
        f"phrase_count={rep.phrase_count}",
        f"acyclic={str(rep.acyclic).lower()}",
        f"decodes={str(rep.decodes).lower()}",
        f"bound_ok={str(rep.bound_ok).lower()}",
    ]
    _write_output(args, ("\n".join(lines) + "\n").encode())
    return 0 if rep.ok else 1


def _cmd_rotopt(args) -> int:
    data = _read_input(args)
    if not data:
        print("error: empty input", file=sys.stderr)
        return 2
    lines = []
    if args.table:
        runs = [transforms.bbwt(rot(data, k)).runs for k in range(len(data))]
        best_runs = min(runs)
        shift = runs.index(best_runs)
        lines.append(f"shift={shift}")
        lines.append(f"rB={best_runs}")
        lines.extend(f"{k} {v}" for k, v in enumerate(runs))
    else:
        best = rotation.best_rotation(data)
        lines.append(f"shift={best.shift}")
        lines.append(f"rB={best.r_B}")
    _write_output(args, ("\n".join(lines) + "\n").encode())
    return 0


def _cmd_lynrot(args) -> int:
    data = _read_input(args)
    if not data:
        print("error: empty input", file=sys.stderr)
        return 2
    sizes = rotation.all_rotation_factorization_sizes(data)
    line = " ".join(f"({t},{k})" for t, k in sizes.by_start)
    _write_output(args, (line + "\n").encode())
    return 0


def parse_parikh(text: str) -> reachability.ParikhVector:
    """Parse 'a:2,b:1' style symbol:count lists; \\xNN escapes allowed."""
    counts: dict[int, int] = {}
    for token in text.split(","):
        token = token.strip()
        sym, sep, count = token.rpartition(":")
        if not sep or not sym:
            raise ValueError(f"bad symbol:count token {token!r}")
        if sym.startswith("\\x"):
            if len(sym) != 4:
                raise ValueError(f"bad hex escape in {token!r}")
            byte = int(sym[2:], 16)
        elif len(sym) == 1:
            byte = ord(sym.encode("latin-1"))
        else:
            raise ValueError(f"bad symbol in token {token!r}")
        value = int(count)
        if value <= 0:
            raise ValueError(f"count must be positive in {token!r}")
        counts[byte] = counts.get(byte, 0) + value
    if not counts:
        raise ValueError("empty symbol list")
    return reachability.ParikhVector(tuple(sorted(counts.items())))


def _cmd_reach(args) -> int:
    if args.action == "check-orbit":
        report = reachability.orbit_connected(parse_parikh(args.parikh),
                                              budget=args.budget)
        print(f"class_size={report.class_size}")
        print(f"orbit_count={report.orbit_count}")
        print(f"connected={str(report.connected).lower()}")
        if not report.connected:
            a, b = report.witness
            print(f"witness_1={a.decode('latin-1')}")
            print(f"witness_2={b.decode('latin-1')}")
            return 1
        return 0
    if args.action == "path":
        path = reachability.find_path(args.source.encode("latin-1"),
                                      args.target.encode("latin-1"))
        print(path.format())
        return 0
    # descend
    result = reachability.descent_step(args.text.encode("latin-1"))
    print(result.decode("latin-1"))
    return 0


def _cmd_fib(args) -> int:
    data = measures.fibonacci_word(args.k, max_length=args.max_bytes)
    _write_output(args, data)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbwt",
        description="Factor-sort transforms, macro schemes, repetitiveness "
                    "measures, rotation optimization, and reachability.")
    io_common = argparse.ArgumentParser(add_help=False)
    io_common.add_argument("--input", "-i", help="read from FILE instead of stdin")
    io_common.add_argument("--output", "-o", help="write to FILE instead of stdout")
    io_common.add_argument("--strip-newline", action="store_true",
                           help="drop one trailing newline from the input")
    io_common.add_argument("--max-bytes", type=int, default=DEFAULT_LIMIT,
                           help="input size limit (default 2^26)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", parents=[io_common],
                       help="apply a transform or its inverse")
    p.add_argument("mode", choices=["bwt", "ibwt-multiset", "bbwt", "ibbwt"])
    p.add_argument("--csa", metavar="FILE",
                   help="also write the circular suffix array, one integer per line")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("measure", parents=[io_common],
                       help="report repetitiveness measures")
    p.add_argument("--porcelain", action="store_true",
                   help="single-line record with fixed field order")
    p.add_argument("--fib", type=int, metavar="K",
                   help="measure the K-th Fibonacci word instead of reading input")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("bms", help="build or verify a macro scheme")
    bms_sub = p.add_subparsers(dest="action", required=True)
    b = bms_sub.add_parser("build", parents=[io_common])
    b.set_defaults(func=_cmd_bms)
    v = bms_sub.add_parser("verify", parents=[io_common])
    v.add_argument("scheme", help="scheme file to check against the input text")
    v.set_defaults(func=_cmd_bms)

    p = sub.add_parser("rotopt", parents=[io_common],
                       help="rotation minimizing the transform run count")
    p.add_argument("--table", action="store_true",
                   help="also list the run count of every shift")
    p.set_defaults(func=_cmd_rotopt)

    p = sub.add_parser("lynrot", parents=[io_common],
                       help="factorization sizes of every rotation")
    p.set_defaults(func=_cmd_lynrot)

    p = sub.add_parser("reach", help="orbit and path exploration")
    reach_sub = p.add_subparsers(dest="action", required=True)
    c = reach_sub.add_parser("check-orbit")
    c.add_argument("parikh", help="symbol counts, e.g. a:2,b:2 or \\x00:3")
    c.add_argument("--budget", type=int, default=10_000_000,
                   help="largest class size to enumerate")
    c.set_defaults(func=_cmd_reach)
    t = reach_sub.add_parser("path")
    t.add_argument("source")
    t.add_argument("target")
    t.set_defaults(func=_cmd_reach)
    d = reach_sub.add_parser("descend")
    d.add_argument("text")
    d.set_defaults(func=_cmd_reach)

    p = sub.add_parser("fib", parents=[io_common],
                       help="emit a Fibonacci word")
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_fib)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except reachability.ReachabilityCounterexample as exc:
        print(f"counterexample: {exc}", file=sys.stderr)
        return 1
    except reachability.OrbitBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
