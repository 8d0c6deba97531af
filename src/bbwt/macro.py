"""Bidirectional macro scheme induced from the bbwt transform.

A scheme partitions positions 1..n into literal phrases (one symbol each) and
reference phrases copying an equal-length block from elsewhere in the same
text, possibly forward.  Chains of references must bottom out at literals.

Past _SMALL positions an induced or parsed scheme is columns, not phrase
objects, until its phrases are first read: induction reads the transform's
run breaks as numpy masks (`_scheme_arrays`), and parsing checks each phrase
as its line is read.  Decoding resolves every reference chain at once by
pointer doubling (Wyllie's list ranking): each position points at its
source, literals at themselves, and squaring the pointer map halves every
chain.  An acyclic chain is shorter than n, so after ceil(log2 n) + 1
squarings every pointer rests on a literal; one elsewhere is on a cycle.
"""

from __future__ import annotations

import re
from array import array
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from ._ranks import _MAX_N, _SMALL
from .strings import as_text
from .transforms import _core


class SchemeStructureError(ValueError):
    """Scheme violates a structural invariant (coverage, range, or cycle)."""


class SchemeFormatError(ValueError):
    """Serialized scheme text cannot be parsed."""


@dataclass(frozen=True, slots=True)
class Literal:
    position: int
    symbol: int


@dataclass(frozen=True, slots=True)
class Reference:
    start: int
    length: int
    source_start: int


def _held(field: str, build):
    """__getattr__, a count property and _holding(cols, **fields) for a frozen
    dataclass that may hold int columns, under "_cols", in place of its tuple
    `field`.  The first read of `field` stores build(*columns as lists), then
    drops the columns, so a racing reader finds one or the other."""
    def __getattr__(self, name):
        cols = self.__dict__.get("_cols")
        if name != field or (cols is None and field not in self.__dict__):
            raise AttributeError(name)
        if cols is not None:
            self.__dict__[field] = build(*(col.tolist() for col in cols))
            self.__dict__.pop("_cols", None)  # stored first, so a racing reader finds them
        return self.__dict__[field]

    def count(self) -> int:
        cols = self.__dict__.get("_cols")
        return len(self.__dict__[field]) if cols is None else len(cols[0])

    def holding(cls, cols, **fields):
        obj = object.__new__(cls)
        obj.__dict__.update(fields, _cols=cols)
        return obj
    return __getattr__, property(count), classmethod(holding)


@dataclass(frozen=True)
class MacroScheme:
    """Phrases covering positions 1..n in order.

    Past _SMALL positions, induce_bms and scheme_from_text return one holding
    sound columns in _scheme_arrays' layout; phrase_count, scheme_to_text and
    decode_bms read them.  .phrases builds the phrase tuple on its first read
    and drops the columns, so a scheme never holds both.  Equality, hash,
    repr and pickling are those of MacroScheme(n, phrases).
    """
    n: int
    phrases: tuple

    __getattr__, phrase_count, _holding = _held("phrases", lambda *cols: tuple(
        Reference(s, k, src) if src else Literal(s, c) for s, k, src, c in zip(*cols)))


@dataclass(frozen=True)
class ValidationReport:
    phrase_count: int
    acyclic: bool
    decodes: bool
    bound_ok: bool

    @property
    def ok(self) -> bool:
        return self.acyclic and self.decodes and self.bound_ok


def induce_bms(w) -> MacroScheme:
    """Build a macro scheme from the transform's run structure.

    Every text position whose transform position starts a run of equal output
    symbols becomes a literal; every other position references the text
    position holding the previous output symbol.  Consecutive text positions
    with one shared offset merge into a single reference phrase.  Past _SMALL
    symbols the scheme holds _scheme_arrays' columns (see MacroScheme).
    """
    w = as_text(w)
    if not w:
        raise ValueError("induce_bms: empty input")
    n = len(w)
    if n > _SMALL:
        return MacroScheme._holding(_scheme_arrays(w), n=n)
    core = _core(w)
    src = [-1] * n  # -1 marks a literal; sources are never negative
    prev_c, prev_t = -1, -1
    for c, t in zip(core.output, core.tpos):
        if c == prev_c:
            src[t] = prev_t
        prev_c, prev_t = c, t
    phrases = []
    t = 0
    while t < n:
        if src[t] < 0:
            phrases.append(Literal(t + 1, w[t]))
            t += 1
            continue
        start, off = t, src[t] - t
        t += 1
        while t < n and src[t] == t + off:
            t += 1
        phrases.append(Reference(start + 1, t - start, start + 1 + off))
    return MacroScheme(n, tuple(phrases))


def _scheme_arrays(w: bytes) -> tuple[np.ndarray, ...]:
    """The induced scheme of nonempty bytes w as columns: 1-based phrase
    starts, lengths, 1-based sources (0 for a literal), and each phrase's
    first symbol.

    Text position tpos[i] copies tpos[i - 1] wherever output[i] equals
    output[i - 1]; a phrase breaks where either neighbour is a literal or the
    source does not advance with the position.
    """
    n = len(w)
    core = _core(w)
    tpos = np.asarray(core.tpos, dtype=np.int64)  # the core's array past _SMALL
    out = np.frombuffer(core.output, dtype=np.uint8)
    same = out[1:] == out[:-1]
    src = np.full(n, -1, dtype=np.int64)  # -1 marks a literal
    src[tpos[1:][same]] = tpos[:-1][same]
    brk = np.ones(n, dtype=bool)
    brk[1:] = (src[1:] < 0) | (src[:-1] < 0) | (src[1:] != src[:-1] + 1)
    starts = np.flatnonzero(brk)
    lengths = np.diff(starts, append=n)
    return starts + 1, lengths, src[starts] + 1, np.frombuffer(w, dtype=np.uint8)[starts]


_LITERAL_LINE = "L {} {:02x}"
_REFERENCE_LINE = "R {} {} {}"
_LINES_PER_CHUNK = 1 << 16
# one line of text.splitlines(): a stretch free of its line boundaries
_LINE = re.compile(r"[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]+")


def _checked(n: int, phrases, walk: bool) -> tuple:
    """Check coverage and ranges, phrase by phrase, in one pass that fills
    what one decoder reads.

    For the chain walk: per-position (symbols, sources), a bytearray with each
    literal's symbol and a list with each position's 0-based source, -1 for a
    literal.  For pointer doubling: _scheme_arrays' layout, one entry per
    phrase, in int32 arrays (the checks keep values below _MAX_N) and bytes.
    Either grows per phrase, so a header claiming more positions than the
    phrases cover allocates nothing for the positions that are missing.
    """
    if n < 0:
        raise SchemeStructureError("negative length")
    if n >= _MAX_N:
        raise SchemeStructureError(
            f"length {n} is over the {_MAX_N - 1} positions a transform can have")
    if walk:
        val, src = bytearray(), []
    else:
        cols = array("i"), array("i"), array("i"), array("B")
    cursor = 1
    for ph in phrases:
        if isinstance(ph, Literal):
            if ph.position != cursor:
                raise SchemeStructureError(
                    f"phrase at {ph.position} does not continue coverage at {cursor}")
            if not 0 <= ph.symbol <= 255:
                raise SchemeStructureError(f"symbol {ph.symbol} out of byte range")
            if walk:
                val.append(ph.symbol)
                src.append(-1)
            else:
                for col, value in zip(cols, (cursor, 1, 0, ph.symbol)):
                    col.append(value)
            cursor += 1
        elif isinstance(ph, Reference):
            start, length, source = ph.start, ph.length, ph.source_start
            if start != cursor:
                raise SchemeStructureError(
                    f"phrase at {start} does not continue coverage at {cursor}")
            if length < 1:
                raise SchemeStructureError("reference length must be >= 1")
            if start + length - 1 > n:
                raise SchemeStructureError("reference extends past the end")
            if not (1 <= source and source + length - 1 <= n):
                raise SchemeStructureError("reference source out of range")
            if walk:
                val += bytes(length)
                src += range(source - 1, source - 1 + length)
            else:
                for col, value in zip(cols, (cursor, length, source, 0)):
                    col.append(value)
            cursor += length
        else:
            raise SchemeStructureError(f"unknown phrase type {type(ph).__name__}")
    if cursor != n + 1:
        raise SchemeStructureError(f"phrases cover {cursor - 1} of {n} positions")
    return (val, src) if walk else cols


def decode_bms(m: MacroScheme) -> bytes:
    """Resolve every reference chain down to its literal; the unique decoding.

    Up to _SMALL positions each chain is walked in Python.  Above it the
    chains are resolved together by pointer doubling: ptr[t] is t's source
    (t itself for a literal), and ptr = ptr[ptr] runs at most
    ceil(log2 n) + 1 times, stopping early once ptr no longer changes.  An
    acyclic chain has fewer than n steps, so a pointer that then rests off a
    literal lies on a cycle.

    A scheme holding columns (from induce_bms or scheme_from_text) is sound
    by construction, so they go to pointer doubling unchecked.

    Raises SchemeStructureError on malformed coverage, a cyclic chain (naming
    a position on the cycle), or a length of 2^31 or more (longer than any
    text the transform accepts).  Nothing of size n is allocated before the
    phrases are shown to cover 1..n.
    """
    cols = m.__dict__.get("_cols")
    if cols is None and m.n > _SMALL:
        cols = _checked(m.n, m.phrases, False)
    if cols is not None:
        return _double_pointers(m.n, *cols)
    out, src = _checked(m.n, m.phrases, True)
    state = bytearray(m.n)  # 0 unresolved, 1 on the active chain, 2 resolved
    for t0 in range(m.n):
        if state[t0] or src[t0] < 0:
            continue
        chain = []
        t = t0
        while state[t] == 0 and src[t] >= 0:
            state[t] = 1
            chain.append(t)
            t = src[t]
        if state[t] == 1:
            raise SchemeStructureError(
                f"cyclic reference chain through position {t + 1}")
        # every position on the chain copies the literal it bottoms out at
        c = out[t]
        for p in chain:
            out[p] = c
            state[p] = 2
    return bytes(out)


def _double_pointers(n, starts, lengths, sources, symbols) -> bytes:
    """decode_bms above _SMALL: every chain at once by pointer doubling."""
    starts, lengths, sources = (np.asarray(col) for col in (starts, lengths, sources))
    first, lit = starts - 1, sources == 0
    # ptr[t] = t + (source - start) of t's reference, or t for a literal: a
    # running sum of 1 per position plus each offset from its phrase's start
    # to its end
    off = np.where(lit, 0, sources - starts).astype(np.int32)
    step = np.ones(n + 1, dtype=np.int32)
    step[0] = 0
    step[first] += off
    step[first + lengths] -= off
    ptr = np.cumsum(step[:n], dtype=np.int32)  # n < 2^31: every index fits
    del step
    for _ in range((n - 1).bit_length() + 1):
        nxt = ptr[ptr]
        if np.array_equal(nxt, ptr):
            break
        ptr = nxt
    del nxt
    is_lit = np.zeros(n, dtype=bool)
    is_lit[first] = lit
    landed = is_lit[ptr]
    if not landed.all():
        t = int(ptr[np.argmin(landed)])
        raise SchemeStructureError(f"cyclic reference chain through position {t + 1}")
    sym = np.zeros(n, dtype=np.uint8)
    sym[first] = np.asarray(symbols)
    return sym[ptr].tobytes()


def validate_bms(m: MacroScheme, w) -> ValidationReport:
    """Check a scheme against a text: acyclic, decodes to w, phrase bound holds.

    The bound compares the phrase count with 3 * (transform run count) plus the
    number of distinct Lyndon factors of w.  Never raises; structural problems
    show up as acyclic=False.
    """
    w = as_text(w)
    try:
        decoded = decode_bms(m)
        acyclic = True
    except SchemeStructureError:
        decoded = None
        acyclic = False
    decodes = decoded == w
    if w:
        core = _core(w)
        bound = 3 * core.runs + core.fact.necklace_count
    else:
        bound = 0
    bound_ok = m.phrase_count <= bound
    return ValidationReport(m.phrase_count, acyclic, decodes, bound_ok)


def scheme_to_text(m: MacroScheme) -> str:
    """One header line 'BMS <n>' then one line per phrase.

    Held columns are written a chunk of lines at a time, so only one chunk's
    Python ints and line strings are alive besides the columns.
    """
    cols = m.__dict__.get("_cols")
    if cols is not None:
        chunks = [f"BMS {m.n}\n"]
        for a in range(0, len(cols[0]), _LINES_PER_CHUNK):
            chunks.append("".join(
                (_REFERENCE_LINE.format(s, k, src) if src else _LITERAL_LINE.format(s, c)) + "\n"
                for s, k, src, c in zip(*(col[a:a + _LINES_PER_CHUNK].tolist() for col in cols))))
        return "".join(chunks)
    lines = [f"BMS {m.n}"]
    for ph in m.phrases:
        if isinstance(ph, Literal):
            lines.append(_LITERAL_LINE.format(ph.position, ph.symbol))
        else:
            lines.append(_REFERENCE_LINE.format(ph.start, ph.length, ph.source_start))
    return "\n".join(lines) + "\n"


def _parsed(text: str, after: int):
    """The phrase of each nonempty line of text[after:], one line at a time."""
    for mt in _LINE.finditer(text, after):
        ln = mt.group().strip()
        if not ln:
            continue
        parts = ln.split()
        if parts[0] == "L" and len(parts) == 3:
            try:
                pos = int(parts[1])
                sym = int(parts[2], 16)
            except ValueError:
                raise SchemeFormatError(f"bad literal line: {ln!r}") from None
            if not 0 <= sym <= 255:
                raise SchemeFormatError(f"symbol out of range: {ln!r}")
            yield Literal(pos, sym)
        elif parts[0] == "R" and len(parts) == 4:
            try:
                start, length, source = (int(p) for p in parts[1:])
            except ValueError:
                raise SchemeFormatError(f"bad reference line: {ln!r}") from None
            yield Reference(start, length, source)
        else:
            raise SchemeFormatError(f"unrecognized line: {ln!r}")


def scheme_from_text(text: str) -> MacroScheme:
    """Parse the serialization produced by scheme_to_text.

    Raises SchemeFormatError on any malformed line; structural soundness is
    checked separately by decode/validate (past _SMALL positions, a scheme
    passing decode_bms' checks as it is parsed holds columns).
    """
    first = next((mt for mt in _LINE.finditer(text) if mt.group().strip()), None)
    if first is None:
        raise SchemeFormatError("empty scheme text")
    head = first.group().split()
    if len(head) != 2 or head[0] != "BMS":
        raise SchemeFormatError(f"bad header: {first.group().strip()!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise SchemeFormatError(f"bad length in header: {head[1]!r}") from None
    if n > _SMALL:
        with suppress(SchemeStructureError):  # if unsound, parsed again below
            return MacroScheme._holding(_checked(n, _parsed(text, first.end()), False), n=n)
    return MacroScheme(n, tuple(_parsed(text, first.end())))
