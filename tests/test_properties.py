"""Property tests: the text parsers and the scheme decoder raise only their
own documented errors, whatever text they are given, every byte string is a
bbwt image that the inverse takes back, and every command that reads an
input maps whatever bytes it reads to a documented exit code and refuses an
input over --max-bytes without reading far past it."""

import io
import sys
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bbwt import (
    SchemeFormatError,
    SchemeStructureError,
    bbwt,
    bbwt_inverse,
    bwt_inverse_multiset,
    cli,
    decode_bms,
    parse_path,
    scheme_from_text,
    transforms,
)

# Small numbers make well-formed schemes likely; the huge ones are past any
# text a transform can have, so decode_bms must refuse them without
# allocating.  Numbers in between describe texts that really are that long.
_NUMBER = st.one_of(st.integers(-2, 40),
                    st.sampled_from([2**31, 10**20, 2**64])).map(str)
_TOKEN = st.one_of(_NUMBER, st.sampled_from(["BMS", "L", "R", "61", "ff", "-"]),
                   st.text(max_size=3))
_PHRASE = st.one_of(
    st.tuples(st.just("L"), _NUMBER,
              st.integers(-1, 300).map(lambda v: format(v, "x"))).map(" ".join),
    st.tuples(st.just("R"), _NUMBER, _NUMBER, _NUMBER).map(" ".join),
    st.lists(_TOKEN, max_size=5).map(" ".join),
)
_SCHEME_TEXT = st.one_of(
    st.builds(lambda n, body: "\n".join([f"BMS {n}", *body]),
              _NUMBER, st.lists(_PHRASE, max_size=8)),
    st.text(),
)


@given(_SCHEME_TEXT)
def test_scheme_text_decodes_or_raises_scheme_errors(text):
    try:
        decode_bms(scheme_from_text(text))
    except (SchemeFormatError, SchemeStructureError):
        pass


# up to three times the cycle walk's cutoff, so both inverse paths run; the
# two-letter texts repeat necklaces, which the walk emits without walking
_IMAGE_MAX = 3 * transforms._LOOP_MAX
_IMAGE = st.integers(1, _IMAGE_MAX).flatmap(lambda n: st.one_of(
    st.binary(min_size=n, max_size=n),
    st.text("ab", min_size=n, max_size=n).map(str.encode)))


@given(_IMAGE)
def test_every_byte_string_is_a_bbwt_image(x):
    words = bwt_inverse_multiset(x)
    assert bbwt(bbwt_inverse(x)).output == x
    assert b"".join(words) == bbwt_inverse(x)
    assert all(u >= v for u, v in zip(words, words[1:]))


_PATH_TOKEN = st.one_of(
    st.tuples(st.sampled_from("rbx"), st.integers(-10**20, 10**20).map(str)).map("".join),
    st.text(max_size=4),
)


@given(st.one_of(st.lists(_PATH_TOKEN, max_size=6).map(",".join), st.text()))
def test_parse_path_raises_only_value_error(text):
    try:
        parse_path(text)
    except ValueError:
        pass


_PARIKH_TOKEN = st.one_of(
    st.tuples(st.one_of(st.characters(), st.sampled_from(["\\x00", "\\xff", "\\x1", "\\xzz"])),
              st.sampled_from([":", "", "::"]),
              st.one_of(st.integers(-3, 10**20).map(str), st.text(max_size=2))
              ).map("".join),
    st.text(max_size=4),
)


@given(st.one_of(st.lists(_PARIKH_TOKEN, max_size=5).map(",".join), st.text()))
def test_parse_parikh_raises_only_value_error(text):
    try:
        cli.parse_parikh(text)
    except ValueError:
        pass


# every subcommand that reads an input; bms verify reads a scheme file too
INPUT_COMMANDS = [["transform", mode] for mode in ("bwt", "bbwt", "ibwt-multiset", "ibbwt")]
INPUT_COMMANDS += [["measure"], ["bms", "build"], ["bms", "verify", "SCHEME"], ["rotopt"],
                   ["rotopt", "--table"], ["lynrot"]]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.mark.parametrize("command", INPUT_COMMANDS, ids=" ".join)
@given(data=st.binary(max_size=64), scheme=st.binary(max_size=64))
def test_input_commands_exit_with_documented_codes(workdir, command, data, scheme):
    (workdir / "in").write_bytes(data)
    (workdir / "scheme").write_bytes(scheme)
    argv = [str(workdir / "scheme") if arg == "SCHEME" else arg for arg in command]
    argv += ["-i", str(workdir / "in"), "-o", str(workdir / "out")]
    assert cli.main(argv) in (0, 1, 2)


class _CountingStdin:
    """A stdin whose buffer wraps a BytesIO and counts the bytes read from it."""

    def __init__(self, data):
        self.buffer, self.raw, self.taken = self, io.BytesIO(data), 0

    def read(self, size=-1):
        chunk = self.raw.read(size)
        self.taken += len(chunk)
        return chunk


@pytest.mark.parametrize("command", INPUT_COMMANDS, ids=" ".join)
@given(limit=st.integers(-5, 64), data=st.binary(max_size=72))
def test_max_bytes_refuses_larger_inputs_and_bounds_the_read(workdir, command, limit, data):
    # a limit below 1 is a usage error raised by argparse before anything is read
    (workdir / "scheme").write_bytes(b"BMS 2\nL 1 61\nR 2 1 1\n")
    argv = [str(workdir / "scheme") if arg == "SCHEME" else arg for arg in command]
    stdin = _CountingStdin(data)
    with mock.patch.object(sys, "stdin", stdin):
        try:
            code = cli.main(argv + [f"--max-bytes={limit}", "-o", str(workdir / "out")])
        except SystemExit as exc:
            code = exc.code
    assert code == 2 if len(data) > limit else code in (0, 1, 2)
    assert stdin.taken <= max(limit, 0) + 3
