"""Command-line surface: byte-exact transforms plus structured text reports.

Exit codes: 0 success, 1 semantic failure (failed verification, disconnected
orbit), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import sys

from . import macro, measures, reachability, rotation, transforms

DEFAULT_LIMIT = 1 << 25


def _read_input(args) -> bytes:
    # a stripped newline takes at most 2 bytes, so 3 past the limit are refused
    # whatever follows them, and nothing further is read
    if args.input:
        with open(args.input, "rb") as fh:
            data = fh.read(args.max_bytes + 3)
    else:
        data = sys.stdin.buffer.read(args.max_bytes + 3)
    if len(data) > args.max_bytes + 2:
        raise ValueError(f"input is over the --max-bytes limit of {args.max_bytes}")
    if args.strip_newline:
        if data.endswith(b"\r\n"):
            data = data[:-2]
        elif data.endswith(b"\n"):
            data = data[:-1]
    if not data:
        raise ValueError("empty input")
    if len(data) > args.max_bytes:
        raise ValueError(
            f"input is {len(data)} bytes, over the --max-bytes limit of {args.max_bytes}")
    return data


def _max_bytes(text: str) -> int:
    """--max-bytes as parsed: below 1 nothing could be read, so it is a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _read_scheme(path: str, max_bytes: int) -> macro.MacroScheme:
    """Parse a scheme file, reading no more than scheme_to_text could write.

    The header line comes first.  One that does not end within the bytes of
    'BMS <max_bytes>\r\n' is refused, so the length checked is the whole
    one, and a length over max_bytes is refused before anything else is
    read.  A scheme of n positions has at most n phrase lines of at most
    3 * len(str(n)) + 6 bytes each, CRLF ends included, so reading stops
    one byte past that and refuses the file.
    """
    head_max = len(f"BMS {max_bytes}\r\n")
    with open(path, "rb") as fh:
        line = fh.readline(head_max)
        if len(line) == head_max and not line.endswith(b"\n"):  # padded, as in BMS 000...
            raise ValueError(
                f"scheme header is over the {head_max} bytes of one within --max-bytes")
        n = macro.scheme_from_text(line.decode("latin-1")).n  # SchemeFormatError -> exit 2
        if n > max_bytes:  # refused before decoding allocates n positions
            raise ValueError(
                f"scheme claims {n} positions, over the --max-bytes limit of {max_bytes}")
        limit = max(n, 0) * (3 * len(str(n)) + 6)
        text = (line + fh.read(limit + 1)).decode("latin-1")
    if len(text) - len(line) > limit:
        raise ValueError(f"scheme file is over the {limit} bytes of lines {n} positions can take")
    return macro.scheme_from_text(text)


def _write_output(args, data: bytes) -> None:
    if getattr(args, "output", None):
        with open(args.output, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _cmd_transform(args) -> int:
    if args.csa and args.mode not in ("bwt", "bbwt"):
        raise ValueError("--csa applies to forward transforms only")
    data = _read_input(args)
    if args.mode in ("bwt", "bbwt"):
        res = transforms.bwt(data) if args.mode == "bwt" else transforms.bbwt(data)
        out, csa = res.output, res.csa
    elif args.mode == "ibwt-multiset":
        out = b"\n".join(transforms.bwt_inverse_multiset(data)) + b"\n"
    else:  # ibbwt
        out = transforms.bbwt_inverse(data)
    if args.csa:
        with open(args.csa, "w") as fh:
            fh.write("".join(f"{v}\n" for v in csa))
    _write_output(args, out)
    return 0


def _measure_fields(data: bytes, input_id: str) -> list[tuple[str, object]]:
    best = rotation.best_rotation(data)  # raises over its budget before the measures run
    rep = measures.measure_report(data)
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
    fields = _measure_fields(data, input_id)
    pairs = [f"{k}={v}" for k, v in fields]
    text = " ".join(pairs) + "\n" if args.porcelain else "\n".join(pairs) + "\n"
    _write_output(args, text.encode())
    return 0


def _cmd_bms(args) -> int:
    data = _read_input(args)
    if args.action == "build":
        _write_output(args, macro.scheme_to_text(macro.induce_bms(data)).encode())
        return 0
    rep = macro.validate_bms(_read_scheme(args.scheme, args.max_bytes), data)
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
    if args.table:
        runs = rotation.all_rotation_runs(data)
        best_runs = min(runs)
        lines = [f"shift={runs.index(best_runs)}", f"rB={best_runs}"]
        lines.extend(f"{k} {v}" for k, v in enumerate(runs))
    else:
        best = rotation.best_rotation(data)
        lines = [f"shift={best.shift}", f"rB={best.r_B}"]
    _write_output(args, ("\n".join(lines) + "\n").encode())
    return 0


def _cmd_lynrot(args) -> int:
    data = _read_input(args)
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
    io_common.add_argument("--max-bytes", type=_max_bytes, default=DEFAULT_LIMIT,
                           help="input size limit, also on the length a verified "
                                "scheme claims (default 2^25)")
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
    c.add_argument("--budget", type=int, default=reachability.SEARCH_BUDGET,
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
