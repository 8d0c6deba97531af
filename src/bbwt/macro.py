"""Bidirectional macro scheme induced from the bbwt transform.

A scheme partitions positions 1..n into literal phrases (one symbol each) and
reference phrases copying an equal-length block from elsewhere in the same
text, possibly forward.  Chains of references must bottom out at literals.

Past _SMALL symbols an induced scheme is columns, not phrase objects:
induction reads the transform's run breaks as numpy masks (`_scheme_arrays`),
and the scheme holds those columns until its phrases are first read.
Decoding resolves every reference chain at once by pointer doubling
(Wyllie's list ranking): each position points at its source, literals at
themselves, and squaring the pointer map halves every chain.  An acyclic
chain is shorter than n, so after ceil(log2 n) + 1 squarings every pointer
rests on a literal; one that rests elsewhere is on a cycle.
"""

from __future__ import annotations

from array import array
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
    """__getattr__ and a count property for a frozen dataclass that may hold
    int columns, under "_cols", in place of its tuple `field`.  The first read
    of `field` stores build(*columns as lists), then drops the columns, so a
    reader racing it finds one or the other; the count reads either."""
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
    return __getattr__, property(count)


@dataclass(frozen=True)
class MacroScheme:
    """Phrases covering positions 1..n in order.

    induce_bms past _SMALL symbols returns a scheme that holds
    _scheme_arrays' columns instead; phrase_count, scheme_to_text and
    decode_bms read them.  The phrase tuple is built when .phrases is first
    read, and the columns are dropped then, so a scheme never holds both.
    Equality, hash, repr and pickling are those of MacroScheme(n, phrases).
    """
    n: int
    phrases: tuple

    __getattr__, phrase_count = _held("phrases", lambda *cols: tuple(
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
        m = object.__new__(MacroScheme)
        m.__dict__.update(n=n, _cols=_scheme_arrays(w))
        return m
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
    tpos = np.fromiter(core.tpos, dtype=np.int64, count=n)
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


def _checked(m: MacroScheme, walk: bool) -> tuple:
    """Check coverage and ranges, phrase by phrase, in one pass that fills
    what one decoder reads.

    For the chain walk: per-position (symbols, sources), a bytearray with each
    literal's symbol and a list with each position's 0-based source, -1 for a
    literal.  For pointer doubling: typed 0-based columns (literal positions,
    literal symbols, reference starts, lengths, sources), one entry per
    phrase.  Either grows per phrase, so a header claiming more positions than
    the phrases cover allocates nothing for the positions that are missing.
    """
    n = m.n
    if n < 0:
        raise SchemeStructureError("negative length")
    if n >= _MAX_N:
        raise SchemeStructureError(
            f"length {n} is over the {_MAX_N - 1} positions a transform can have")
    if walk:
        val, src = bytearray(), []
    else:
        lit_pos, lit_sym, ref_start, ref_len, ref_src = cols = (
            array("q"), bytearray(), array("q"), array("q"), array("q"))
    cursor = 1
    for ph in m.phrases:
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
                lit_pos.append(cursor - 1)
                lit_sym.append(ph.symbol)
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
                ref_start.append(cursor - 1)
                ref_len.append(length)
                ref_src.append(source - 1)
            cursor += length
        else:
            raise SchemeStructureError(f"unknown phrase type {type(ph).__name__}")
    if cursor != n + 1:
        raise SchemeStructureError(f"phrases cover {cursor - 1} of {n} positions")
    return (val, src) if walk else cols


# Up to this many positions decode_bms walks chains in Python; above it,
# numpy's fixed cost pays.  Per scheme, walk against doubling: 38 against 53
# us at n = 128 on random 4-symbol text, 57 against 69 at 192, 121 against
# 120 at 384, 163 against 149 at 512; on Fibonacci prefixes 32 against 53
# at 128, 74 against 74 at 384, 99 against 84 at 512.
_WALK_MAX = 384


def decode_bms(m: MacroScheme) -> bytes:
    """Resolve every reference chain down to its literal; the unique decoding.

    Up to _WALK_MAX positions each chain is walked in Python.  Above it the
    chains are resolved together by pointer doubling: ptr[t] is t's source
    (t itself for a literal), and ptr = ptr[ptr] runs at most
    ceil(log2 n) + 1 times, stopping early once ptr no longer changes.  An
    acyclic chain has fewer than n steps, so a pointer that then rests off a
    literal lies on a cycle.

    A scheme holding induce_bms' columns is sound by construction, so its
    literals and sources go to pointer doubling unchecked.

    Raises SchemeStructureError on malformed coverage, a cyclic chain (naming
    a position on the cycle), or a length of 2^31 or more (longer than any
    text the transform accepts).  Nothing of size n is allocated before the
    phrases are shown to cover 1..n.
    """
    cols = m.__dict__.get("_cols")
    if cols is not None:
        starts, lengths, sources, firsts = cols
        lit, ref = sources == 0, sources != 0
        return _double_pointers(m.n, starts[lit] - 1, firsts[lit],
                                starts[ref] - 1, lengths[ref], sources[ref] - 1)
    if m.n > _WALK_MAX:
        return _double_pointers(m.n, *_checked(m, False))
    out, src = _checked(m, True)
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


def _double_pointers(n, lit_pos, lit_sym, ref_start, ref_len, ref_src) -> bytes:
    """decode_bms above _WALK_MAX: every chain at once by pointer doubling."""
    lit_pos = np.frombuffer(lit_pos, dtype=np.int64)
    ref_start = np.frombuffer(ref_start, dtype=np.int64)
    ref_len = np.frombuffer(ref_len, dtype=np.int64)
    # ptr[t] = t + (source - start) of t's reference, or t for a literal: a
    # running sum of 1 per position plus each offset from its reference's
    # start to its end
    off = (np.frombuffer(ref_src, dtype=np.int64) - ref_start).astype(np.int32)
    step = np.ones(n + 1, dtype=np.int32)
    step[0] = 0
    step[ref_start] += off
    step[ref_start + ref_len] -= off
    ptr = np.cumsum(step[:n], dtype=np.int32)  # n < 2^31: every index fits
    del step
    for _ in range((n - 1).bit_length() + 1):
        nxt = ptr[ptr]
        if np.array_equal(nxt, ptr):
            break
        ptr = nxt
    del nxt
    is_lit = np.zeros(n, dtype=bool)
    is_lit[lit_pos] = True
    landed = is_lit[ptr]
    if not landed.all():
        t = int(ptr[np.argmin(landed)])
        raise SchemeStructureError(f"cyclic reference chain through position {t + 1}")
    sym = np.zeros(n, dtype=np.uint8)
    sym[lit_pos] = np.frombuffer(lit_sym, dtype=np.uint8)
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


def scheme_from_text(text: str) -> MacroScheme:
    """Parse the serialization produced by scheme_to_text.

    Raises SchemeFormatError on any malformed line; structural soundness is
    checked separately by decode/validate.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise SchemeFormatError("empty scheme text")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "BMS":
        raise SchemeFormatError(f"bad header: {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise SchemeFormatError(f"bad length in header: {head[1]!r}") from None
    phrases = []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "L" and len(parts) == 3:
            try:
                pos = int(parts[1])
                sym = int(parts[2], 16)
            except ValueError:
                raise SchemeFormatError(f"bad literal line: {ln!r}") from None
            if not 0 <= sym <= 255:
                raise SchemeFormatError(f"symbol out of range: {ln!r}")
            phrases.append(Literal(pos, sym))
        elif parts[0] == "R" and len(parts) == 4:
            try:
                start, length, source = (int(p) for p in parts[1:])
            except ValueError:
                raise SchemeFormatError(f"bad reference line: {ln!r}") from None
            phrases.append(Reference(start, length, source))
        else:
            raise SchemeFormatError(f"unrecognized line: {ln!r}")
    return MacroScheme(n, tuple(phrases))
