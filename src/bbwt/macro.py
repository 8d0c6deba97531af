"""Bidirectional macro scheme induced from the bbwt transform.

A scheme partitions positions 1..n into literal phrases (one symbol each) and
reference phrases copying an equal-length block from elsewhere in the same
text, possibly forward.  Chains of references must bottom out at literals.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._ranks import _MAX_N
from .strings import as_text
from .transforms import _core


class SchemeStructureError(ValueError):
    """Scheme violates a structural invariant (coverage, range, or cycle)."""


class SchemeFormatError(ValueError):
    """Serialized scheme text cannot be parsed."""


@dataclass(frozen=True)
class Literal:
    position: int
    symbol: int


@dataclass(frozen=True)
class Reference:
    start: int
    length: int
    source_start: int


@dataclass(frozen=True)
class MacroScheme:
    n: int
    phrases: tuple

    @property
    def phrase_count(self) -> int:
        return len(self.phrases)


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
    with one shared offset merge into a single reference phrase.
    """
    w = as_text(w)
    if not w:
        raise ValueError("induce_bms: empty input")
    n = len(w)
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


def _position_arrays(m: MacroScheme):
    """Per-position (literal value, source) arrays; checks coverage and ranges.

    The arrays grow phrase by phrase, so a header claiming more positions than
    the phrases cover allocates nothing for the positions that are missing.
    """
    n = m.n
    if n < 0:
        raise SchemeStructureError("negative length")
    if n >= _MAX_N:
        raise SchemeStructureError(
            f"length {n} is over the {_MAX_N - 1} positions a transform can have")
    val = bytearray()
    src: list[int] = []
    cursor = 1
    for ph in m.phrases:
        if isinstance(ph, Literal):
            if ph.position != cursor:
                raise SchemeStructureError(
                    f"phrase at {ph.position} does not continue coverage at {cursor}")
            if not 0 <= ph.symbol <= 255:
                raise SchemeStructureError(f"symbol {ph.symbol} out of byte range")
            val.append(ph.symbol)
            src.append(-1)
            cursor += 1
        elif isinstance(ph, Reference):
            if ph.start != cursor:
                raise SchemeStructureError(
                    f"phrase at {ph.start} does not continue coverage at {cursor}")
            if ph.length < 1:
                raise SchemeStructureError("reference length must be >= 1")
            if ph.start + ph.length - 1 > n:
                raise SchemeStructureError("reference extends past the end")
            if not (1 <= ph.source_start and ph.source_start + ph.length - 1 <= n):
                raise SchemeStructureError("reference source out of range")
            val += bytes(ph.length)
            src += range(ph.source_start - 1, ph.source_start - 1 + ph.length)
            cursor += ph.length
        else:
            raise SchemeStructureError(f"unknown phrase type {type(ph).__name__}")
    if cursor != n + 1:
        raise SchemeStructureError(f"phrases cover {cursor - 1} of {n} positions")
    return val, src


def decode_bms(m: MacroScheme) -> bytes:
    """Resolve every reference chain down to its literal; the unique decoding.

    Raises SchemeStructureError on malformed coverage, a cyclic chain, or a
    length of 2^31 or more (longer than any text the transform accepts).
    """
    out, src = _position_arrays(m)
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
    """One header line 'BMS <n>' then one line per phrase."""
    lines = [f"BMS {m.n}"]
    for ph in m.phrases:
        if isinstance(ph, Literal):
            lines.append(f"L {ph.position} {ph.symbol:02x}")
        else:
            lines.append(f"R {ph.start} {ph.length} {ph.source_start}")
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
