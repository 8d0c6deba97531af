import io
import random
import subprocess
import sys
import time

import pytest

from bbwt import (
    bbwt,
    bwt,
    best_rotation,
    cli,
    induce_bms,
    macro,
    measures,
    reachability,
    rot,
    rotation,
    scheme_to_text,
)


def run(argv, capsysbinary=None):
    rc = cli.main(argv)
    return rc


def test_transform_bwt_files(tmp_path):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    src.write_bytes(b"banana")
    assert cli.main(["transform", "bwt", "-i", str(src), "-o", str(dst)]) == 0
    assert dst.read_bytes() == b"nnbaaa"


def test_transform_bbwt_with_csa(tmp_path):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    csa = tmp_path / "csa.txt"
    src.write_bytes(b"abbbabbababab")
    rc = cli.main(
        ["transform", "bbwt", "-i", str(src), "-o", str(dst), "--csa", str(csa)]
    )
    assert rc == 0
    assert dst.read_bytes() == b"bbbbbaaabbaba"
    got = [int(line) for line in csa.read_text().split()]
    assert got == [8, 10, 12, 5, 1, 9, 11, 13, 7, 4, 6, 3, 2]


def test_transform_inverse_modes(tmp_path):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    src.write_bytes(b"baac")
    assert cli.main(["transform", "ibbwt", "-i", str(src), "-o", str(dst)]) == 0
    assert dst.read_bytes() == b"caab"

    assert cli.main(["transform", "ibwt-multiset", "-i", str(src), "-o", str(dst)]) == 0
    assert dst.read_bytes() == b"c\naab\n"


def test_transform_csa_flag_rejected_for_inverse(tmp_path, capsys, monkeypatch):
    def refuse(data):
        raise AssertionError("the inverse ran before --csa was refused")

    monkeypatch.setattr(cli.transforms, "bbwt_inverse", refuse)
    src = tmp_path / "in.txt"
    src.write_bytes(b"baac")
    rc = cli.main(
        ["transform", "ibbwt", "-i", str(src), "--csa", str(tmp_path / "c.txt")]
    )
    assert rc == 2
    assert "csa" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("argv", [
    pytest.param(["transform", "bwt"], id="transform"),
    pytest.param(["measure"], id="measure"),
    pytest.param(["bms", "build"], id="bms-build"),
    pytest.param(["bms", "verify", "scheme.txt"], id="bms-verify"),
    pytest.param(["rotopt"], id="rotopt"),
    pytest.param(["lynrot"], id="lynrot"),
])
def test_empty_input_is_an_error(argv, tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_bytes(b"")
    assert cli.main([*argv, "-i", str(src)]) == 2
    assert capsys.readouterr().err == "error: empty input\n"


def test_transform_strip_newline(tmp_path):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    src.write_bytes(b"banana\n")
    rc = cli.main(
        ["transform", "bwt", "--strip-newline", "-i", str(src), "-o", str(dst)]
    )
    assert rc == 0
    assert dst.read_bytes() == b"nnbaaa"


def test_transform_max_bytes(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_bytes(b"a" * 100)
    rc = cli.main(["transform", "bwt", "-i", str(src), "--max-bytes", "10"])
    assert rc == 2
    assert "--max-bytes" in capsys.readouterr().err


def test_transform_roundtrip_via_files(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    c = tmp_path / "c"
    a.write_bytes(b"mississippi")
    assert cli.main(["transform", "bbwt", "-i", str(a), "-o", str(b)]) == 0
    assert cli.main(["transform", "ibbwt", "-i", str(b), "-o", str(c)]) == 0
    assert c.read_bytes() == b"mississippi"


def test_measure_default_output(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_bytes(b"abbbabbababab")
    assert cli.main(["measure", "-i", str(src)]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert lines["n"] == "13"
    assert lines["r"] == "6"
    assert lines["rB"] == "6"
    assert lines["ell"] == "3"
    assert lines["total_factors"] == "5"
    assert lines["z"] == "6"
    assert lines["bms_phrases"] == "9"


def test_measure_porcelain(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_bytes(b"abbbabbababab")
    assert cli.main(["measure", "--porcelain", "-i", str(src)]) == 0
    out = capsys.readouterr().out.strip()
    fields = out.split()
    assert len(fields) == 10
    assert fields[1] == "n=13"  # n right after the input id
    assert "\n" not in out


def test_measure_fib(capsys):
    assert cli.main(["measure", "--fib", "13", "--porcelain"]) == 0
    out = capsys.readouterr().out.strip().split()
    assert out[0] == "input_id=fib:13"
    assert out[1] == "n=377"
    assert "r=2" in out


def test_bms_build_and_verify_roundtrip(tmp_path, capsys):
    src = tmp_path / "in.txt"
    scheme = tmp_path / "scheme.txt"
    src.write_bytes(b"abbbabbababab")
    assert cli.main(["bms", "build", "-i", str(src), "-o", str(scheme)]) == 0
    text = scheme.read_text()
    assert text.splitlines()[0] == "BMS 13"
    assert text == scheme_to_text(induce_bms(b"abbbabbababab"))

    assert cli.main(["bms", "verify", str(scheme), "-i", str(src)]) == 0
    out = capsys.readouterr().out
    assert "phrase_count=9" in out
    assert "acyclic=true" in out
    assert "decodes=true" in out
    assert "bound_ok=true" in out


def test_bms_build_writes_the_induced_scheme(tmp_path, monkeypatch):
    # a chunk of 7 lines puts chunk boundaries inside every scheme below
    monkeypatch.setattr(macro, "_LINES_PER_CHUNK", 7)
    rng = random.Random(17)
    inputs = [b"a", b"\x00\xff", b"ab" * 32, b"ab" * 32 + b"a",
              bytes(rng.randrange(256) for _ in range(3000)),
              bytes(rng.randrange(97, 99) for _ in range(3000)),
              measures.fibonacci_word(16)]
    src = tmp_path / "in.bin"
    scheme = tmp_path / "scheme.txt"
    for data in inputs:
        src.write_bytes(data)
        assert cli.main(["bms", "build", "-i", str(src), "-o", str(scheme)]) == 0
        assert scheme.read_bytes() == scheme_to_text(induce_bms(data)).encode(), data


def test_bms_verify_refuses_scheme_over_max_bytes(tmp_path, monkeypatch, capsys):
    # three valid lines claiming 10^6 positions must not be decoded
    src = tmp_path / "in.txt"
    scheme = tmp_path / "scheme.txt"
    src.write_bytes(b"a")
    scheme.write_text("BMS 1000000\nL 1 61\nR 2 999999 1\n")

    def no_decode(m):
        raise AssertionError("decoded a scheme over --max-bytes")

    monkeypatch.setattr(macro, "decode_bms", no_decode)
    rc = cli.main(["bms", "verify", str(scheme), "-i", str(src), "--max-bytes", "999999"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-bytes" in captured.err
    monkeypatch.undo()
    # a scheme of exactly the limit is decoded and checked as before
    rc = cli.main(["bms", "verify", str(scheme), "-i", str(src), "--max-bytes", "1000000"])
    assert rc == 1
    assert "acyclic=true" in capsys.readouterr().out


def test_bms_verify_tampered(tmp_path, capsys):
    src = tmp_path / "in.txt"
    scheme = tmp_path / "scheme.txt"
    src.write_bytes(b"ab")
    scheme.write_text("BMS 2\nL 1 61\nL 2 63\n")  # decodes to "ac", not "ab"
    assert cli.main(["bms", "verify", str(scheme), "-i", str(src)]) == 1
    out = capsys.readouterr().out
    assert "decodes=false" in out


def test_bms_verify_malformed(tmp_path, capsys):
    src = tmp_path / "in.txt"
    scheme = tmp_path / "scheme.txt"
    src.write_bytes(b"ab")
    scheme.write_text("NOT A SCHEME\n")
    assert cli.main(["bms", "verify", str(scheme), "-i", str(src)]) == 2
    assert capsys.readouterr().err != ""


def test_bms_verify_missing_scheme_is_an_input_error(tmp_path, capsys):
    # exit 1 would claim the scheme failed verification
    src = tmp_path / "in.txt"
    src.write_bytes(b"ab")
    missing = tmp_path / "missing.txt"
    assert cli.main(["bms", "verify", str(missing), "-i", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "missing.txt" in captured.err


def test_missing_input_file_is_an_input_error(tmp_path, capsys):
    missing = tmp_path / "nonexistent"
    assert cli.main(["transform", "bwt", "--input", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_rotopt_default(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_bytes(b"aaabaabaaabaabb")
    assert cli.main(["rotopt", "-i", str(src)]) == 0
    out = capsys.readouterr().out
    assert "shift=1" in out
    assert "rB=3" in out


def test_rotopt_table(tmp_path, capsys):
    src = tmp_path / "in.txt"
    # a primitive text and a periodic one, whose shifts repeat every 3
    for text in (b"aaabaabaaabaabb", b"aab" * 4):
        src.write_bytes(text)
        assert cli.main(["rotopt", "--table", "-i", str(src)]) == 0
        shift, r_b, *rows = capsys.readouterr().out.strip().splitlines()
        best = best_rotation(text)
        assert (shift, r_b) == (f"shift={best.shift}", f"rB={best.r_B}")
        assert rows == [f"{k} {bbwt(rot(text, k)).runs}"
                        for k in range(len(text))]


def test_rotation_commands_match_per_shift_transforms(tmp_path, capsys):
    # 300 bytes: 300 shifts times 300 symbols lies inside the window where
    # all rotations are sorted together, not transformed one by one
    text = bytes(random.Random(300).choices(b"abcd", k=300))
    src = tmp_path / "in.txt"
    src.write_bytes(text)
    table = [bbwt(rot(text, k)).runs for k in range(len(text))]
    best = (table.index(min(table)), min(table))
    assert cli.main(["rotopt", "--table", "-i", str(src)]) == 0
    shift, r_b, *rows = capsys.readouterr().out.strip().splitlines()
    assert (shift, r_b) == (f"shift={best[0]}", f"rB={best[1]}")
    assert rows == [f"{k} {runs}" for k, runs in enumerate(table)]
    assert cli.main(["measure", "--porcelain", "-i", str(src)]) == 0
    fields = dict(pair.split("=", 1) for pair in capsys.readouterr().out.split())
    assert (fields["best_rotation_shift"], fields["best_rotation_rB"]) == tuple(map(str, best))


def test_rotation_budget_is_an_input_error(tmp_path, capsys, monkeypatch):
    src = tmp_path / "in.txt"
    src.write_bytes(b"aaabaabaaabaabb")
    monkeypatch.setattr(rotation, "ROTATION_BUDGET", 15 * 15 - 1)
    for argv in (["measure", "-i", str(src)], ["rotopt", "-i", str(src)],
                 ["rotopt", "--table", "-i", str(src)]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "budget" in captured.err
        assert "Traceback" not in captured.err


def test_measure_checks_rotation_budget_first(tmp_path, capsys, monkeypatch):
    src = tmp_path / "in.txt"
    src.write_bytes(b"aaabaabaaabaabb")
    monkeypatch.setattr(rotation, "ROTATION_BUDGET", 15 * 15 - 1)

    def measure_report(_):
        raise AssertionError("measure_report ran before the rotation budget check")

    monkeypatch.setattr(measures, "measure_report", measure_report)
    assert cli.main(["measure", "-i", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget" in captured.err

def test_lynrot(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_bytes(b"aab")
    assert cli.main(["lynrot", "-i", str(src)]) == 0
    assert capsys.readouterr().out.strip() == "(1,1) (2,2) (3,2)"


def test_reach_descend(capsys):
    assert cli.main(["reach", "descend", "aacb"]) == 0
    assert capsys.readouterr().out.strip() == "aabc"


def test_reach_descend_minimal_is_error(capsys):
    assert cli.main(["reach", "descend", "aab"]) == 2
    assert capsys.readouterr().err != ""


def test_reach_path(capsys):
    assert cli.main(["reach", "path", "cab", "abc"]) == 0
    assert capsys.readouterr().out.strip() == "r2"


def test_reach_path_identity_is_empty(capsys):
    assert cli.main(["reach", "path", "abc", "abc"]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_reach_path_parikh_mismatch(capsys):
    assert cli.main(["reach", "path", "ab", "bb"]) == 2
    assert capsys.readouterr().err != ""


def test_reach_path_budget(monkeypatch, capsys):
    monkeypatch.setattr(reachability, "SEARCH_BUDGET", 10)
    assert cli.main(["reach", "path", "bbaacab", "aabcabb"]) == 2
    assert "budget" in capsys.readouterr().err


def test_reach_check_orbit(capsys):
    assert cli.main(["reach", "check-orbit", "a:2,b:2"]) == 0
    out = capsys.readouterr().out
    assert "class_size=6" in out
    assert "orbit_count=1" in out
    assert "connected=true" in out


def test_reach_check_orbit_single_member_class(monkeypatch, capsys):
    # enumerating this class would build and transform 10^8 bytes (GBs)
    def refuse(*args):
        raise AssertionError("enumerated a single-member class")

    for name in ("_roots_per_member", "_roots_batched"):
        monkeypatch.setattr(reachability, name, refuse)
    assert cli.main(["reach", "check-orbit", "a:100000000"]) == 0
    assert capsys.readouterr().out == "class_size=1\norbit_count=1\nconnected=true\n"


def test_reach_check_orbit_budget(capsys):
    assert cli.main(["reach", "check-orbit", "a:30,b:30", "--budget", "100"]) == 2
    assert "budget" in capsys.readouterr().err


def test_reach_check_orbit_bad_spec(capsys):
    assert cli.main(["reach", "check-orbit", "a:x"]) == 2
    assert cli.main(["reach", "check-orbit", "a:0"]) == 2
    capsys.readouterr()


def test_fib_command(capsys):
    assert cli.main(["fib", "5"]) == 0
    assert capsys.readouterr().out == "abaababa"


def test_fib_command_guard(capsys):
    assert cli.main(["fib", "40", "--max-bytes", "1000"]) == 2
    capsys.readouterr()


def test_fib_command_guard_on_a_huge_index(capsys):
    start = time.perf_counter()
    assert cli.main(["fib", "1000000000", "--max-bytes", "1000"]) == 2
    assert time.perf_counter() - start < 1.0
    capsys.readouterr()


class _CountingStdin:
    """A stdin whose buffer hands out data and counts the bytes read."""

    def __init__(self, data):
        self.buffer, self.data, self.taken = self, data, 0

    def read(self, size=-1):
        stop = len(self.data) if size < 0 else self.taken + size
        chunk = self.data[self.taken:stop]
        self.taken += len(chunk)
        return chunk


@pytest.mark.parametrize("strip", [False, True])
def test_stdin_read_stops_past_max_bytes(monkeypatch, capsys, strip):
    limit = 100
    body = bytes(random.Random(limit).choices(b"abc", k=limit))
    cases = [(body, True), (body + b"c", False), (body * 10**4, False),
             (body + b"\n", strip), (body + b"\r\n", strip), (body + b"c\n", False),
             (body + b"c\r\n", False), (body + b"\n\n", False)]
    flags = ["--strip-newline"] if strip else []
    for data, accepted in cases:
        stdin = _CountingStdin(data)
        monkeypatch.setattr(sys, "stdin", stdin)
        rc = cli.main(["transform", "bwt", "--max-bytes", str(limit)] + flags)
        out = capsys.readouterr().out
        assert rc == (0 if accepted else 2), data[limit:]
        assert stdin.taken <= limit + 3
        if accepted:
            assert out.encode() == bwt(body).output


_READING_COMMANDS = [["transform", "bwt"], ["measure"], ["bms", "build"],
                     ["bms", "verify", "scheme.txt"], ["rotopt"], ["lynrot"]]


@pytest.mark.parametrize("command", _READING_COMMANDS)
def test_max_bytes_below_one_is_refused_unread(command, monkeypatch, capsys):
    for limit in (-5, -4, -1, 0):
        stdin = _CountingStdin(b"ab" * 10**5)
        monkeypatch.setattr(sys, "stdin", stdin)
        with pytest.raises(SystemExit) as exc:
            cli.main(command + [f"--max-bytes={limit}"])
        assert exc.value.code == 2
        assert stdin.taken == 0
        assert "--max-bytes" in capsys.readouterr().err


class _CountingFile(io.BytesIO):
    """A binary file that counts the bytes read from it."""

    taken = 0

    def read(self, size=-1):
        chunk = super().read(size)
        self.taken += len(chunk)
        return chunk

    def readline(self, size=-1):
        line = super().readline(size)
        self.taken += len(line)
        return line


def _verify_counting(monkeypatch, tmp_path, scheme_bytes, max_bytes):
    src = tmp_path / "in.txt"
    src.write_bytes(b"a")
    fake = _CountingFile(scheme_bytes)
    monkeypatch.setattr(cli, "open", lambda path, mode="r", **kw: fake
                        if path == "scheme.txt" else open(path, mode, **kw), raising=False)
    rc = cli.main(["bms", "verify", "scheme.txt", "-i", str(src), "--max-bytes", str(max_bytes)])
    return rc, fake.taken


def test_bms_verify_reads_only_the_header_over_max_bytes(tmp_path, monkeypatch, capsys):
    header = b"BMS 1000001\n"
    rc, taken = _verify_counting(monkeypatch, tmp_path, header + b"R 2 1 1\n" * 10**6, 10**6)
    assert (rc, taken) == (2, len(header))
    assert "--max-bytes" in capsys.readouterr().err


def test_bms_verify_refuses_a_padded_header_unread(tmp_path, monkeypatch, capsys):
    # zeros push the length past a header for --max-bytes positions: the
    # whole claim, 2^31 - 1, must be refused before anything is decoded
    def no_decode(m):
        raise AssertionError("decoded a scheme with a padded header")

    monkeypatch.setattr(macro, "decode_bms", no_decode)
    head_max = len(f"BMS {cli.DEFAULT_LIMIT}\r\n")
    scheme = b"BMS 00002147483647\nR 1 2147483647 1\n"
    rc, taken = _verify_counting(monkeypatch, tmp_path, scheme, cli.DEFAULT_LIMIT)
    assert (rc, taken) == (2, head_max)
    captured = capsys.readouterr()
    assert captured.out == "" and "scheme header" in captured.err
    monkeypatch.undo()
    # zeros that keep the header within that many bytes are read as before
    assert len(b"BMS 001\n") == len(b"BMS 10\r\n")
    rc, _ = _verify_counting(monkeypatch, tmp_path, b"BMS 001\nL 1 61\n", 10)
    assert rc == 0


def test_bms_verify_bounds_the_scheme_read(tmp_path, monkeypatch, capsys):
    # 10 positions: at most 10 lines of 3 * 2 + 6 bytes, CRLF ends included
    header, line = b"BMS 10\r\n", b"R 10 10 10\r\n"
    assert len(line) == 12
    rc, taken = _verify_counting(monkeypatch, tmp_path, header + line * 10, 10)
    assert (rc, taken) == (1, len(header) + 120)  # read whole; fails verification
    assert "acyclic=false" in capsys.readouterr().out
    rc, taken = _verify_counting(monkeypatch, tmp_path, header + line * 10**5, 10)
    assert (rc, taken) == (2, len(header) + 121)
    assert "scheme file is over" in capsys.readouterr().err


def test_default_max_bytes_is_pinned(capsys):
    # measured with tools/cli_rss.py at 2^22 bytes: the worst subcommand,
    # lynrot, peaks about 99 B per input byte above the import baseline, so
    # the default input takes about 3.3 GB, where 2^26 bytes would take 6.7
    assert cli.DEFAULT_LIMIT == 1 << 25
    parser = cli._build_parser()
    assert parser.parse_args(["bms", "verify", "s.txt"]).max_bytes == cli.DEFAULT_LIMIT
    with pytest.raises(SystemExit):
        parser.parse_args(["transform", "bwt", "--help"])
    assert "(default 2^25)" in " ".join(capsys.readouterr().out.split())


def test_console_script_installed():
    # the packaging entry point must work end to end
    proc = subprocess.run(
        [sys.executable, "-m", "bbwt.cli", "fib", "3"],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == b"aba"


def test_stdin_stdout_pipe():
    proc = subprocess.run(
        [sys.executable, "-m", "bbwt.cli", "transform", "bwt"],
        input=b"banana",
        capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == b"nnbaaa"
