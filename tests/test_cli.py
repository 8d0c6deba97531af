import subprocess
import sys

import pytest

from bbwt import cli, induce_bms, scheme_to_text


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


def test_transform_csa_flag_rejected_for_inverse(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_bytes(b"baac")
    rc = cli.main(
        ["transform", "ibbwt", "-i", str(src), "--csa", str(tmp_path / "c.txt")]
    )
    assert rc == 2
    assert "csa" in capsys.readouterr().err.lower()


def test_transform_empty_input_is_an_error(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_bytes(b"")
    assert cli.main(["transform", "bwt", "-i", str(src)]) == 2
    assert capsys.readouterr().err != ""


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
    assert "max-bytes" in capsys.readouterr().err or True


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
    src.write_bytes(b"aab")
    assert cli.main(["rotopt", "--table", "-i", str(src)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    # three rotations, each as "k value"
    table = [line.split() for line in out if not line.startswith(("shift", "rB"))]
    assert len(table) == 3
    assert all(len(row) == 2 for row in table)


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


def test_reach_check_orbit(capsys):
    assert cli.main(["reach", "check-orbit", "a:2,b:2"]) == 0
    out = capsys.readouterr().out
    assert "class_size=6" in out
    assert "orbit_count=1" in out
    assert "connected=true" in out


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
