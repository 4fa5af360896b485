"""Lattice file parsing, monitor splitting, and segment planning.

The grammar is a small MAD-X-flavored subset, one statement per semicolon:

    name: kind, attr=value, ... ;
    name: sequence [, ring=true] = (elem1, elem2, ...) ;

Kinds: drift, quadrupole, sbend, sextupole, hcorrector, vcorrector,
monitor, marker.  Attributes: l, k1, k2, angle, kick, dx, dy, parametric,
and `at` (monitors only: offset into the directly preceding drift, consumed
by `split_at_monitors`).  `#` starts a comment that runs to end of line.
A lattice describes 4-D transverse motion; `plan_segments` groups it into
the list of `Segment`s that `network.build_network` turns into layers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .elements import ElementError, ElementSpec, KINDS


class LatticeError(ValueError):
    """Parse or structural error, with 1-based line and column."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


@dataclass
class LatticeDoc:
    definitions: dict  # name -> ElementSpec, insertion-ordered
    sequence: list  # element names in beamline order
    name: str = "ring"
    ring: bool = False

    def elements(self) -> list[ElementSpec]:
        return [self.definitions[n] for n in self.sequence]

    def total_length(self) -> float:
        return sum(e.length for e in self.elements())


_NUM_ATTRS = ("l", "k1", "k2", "angle", "kick", "dx", "dy", "at")
_ATTR_FIELD = {"l": "length", "k1": "k1", "k2": "k2", "angle": "angle",
               "kick": "kick", "dx": "dx", "dy": "dy", "at": "at"}
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9.]*|[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[:,;=()]|\S")


def _tokenize(text: str):
    """Yield (token, line, col) with comments stripped."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.split("#", 1)[0]
        for m in _TOKEN_RE.finditer(line):
            yield m.group(0), lineno, m.start() + 1


_NUMBER_RE = re.compile(r"^[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")


def _parse_value(tok, line, col):
    low = tok.lower()
    if low in ("true", "false"):
        return low == "true"
    if _NUMBER_RE.match(tok):
        return float(tok)
    raise LatticeError(f"expected a number or boolean, got '{tok}'", line, col)


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def next(self, expect: str | None = None, what: str = ""):
        if self.pos >= len(self.tokens):
            t, l, c = self.tokens[-1] if self.tokens else ("", 1, 1)
            raise LatticeError(f"unexpected end of input{', expected ' + repr(expect) if expect else ''}", l, c)
        tok, line, col = self.tokens[self.pos]
        self.pos += 1
        if expect is not None and tok != expect:
            raise LatticeError(f"expected '{expect}'{' ' + what if what else ''}, got '{tok}'", line, col)
        return tok, line, col

    def parse(self) -> LatticeDoc:
        defs: dict[str, ElementSpec] = {}
        seq_name = None
        sequence = None
        ring = False
        while self.pos < len(self.tokens):
            name, nline, ncol = self.next()
            if not re.match(r"^[A-Za-z_][A-Za-z_0-9.]*$", name):
                raise LatticeError(f"expected an element name, got '{name}'", nline, ncol)
            self.next(":", "after name")
            kind, kline, kcol = self.next()
            if kind == "sequence":
                if sequence is not None:
                    raise LatticeError("duplicate sequence statement", kline, kcol)
                seq_name = name
                sequence, ring = self._parse_sequence()
            elif kind in KINDS:
                if name in defs:
                    raise LatticeError(f"duplicate definition of '{name}'", nline, ncol)
                defs[name] = self._parse_element(name, kind, kline, kcol)
            else:
                raise LatticeError(f"unknown element kind '{kind}'", kline, kcol)
        if sequence is None:
            raise LatticeError("no sequence statement found", 1, 1)
        for ref, line, col in sequence:
            if ref not in defs:
                raise LatticeError(f"sequence references undefined element '{ref}'", line, col)
        doc = LatticeDoc(defs, [r for r, _, _ in sequence], name=seq_name, ring=ring)
        return doc

    def _parse_element(self, name, kind, line, col) -> ElementSpec:
        spec = ElementSpec(name=name, kind=kind)
        while True:
            tok, tline, tcol = self.next()
            if tok == ";":
                break
            if tok != ",":
                raise LatticeError(f"expected ',' or ';', got '{tok}'", tline, tcol)
            attr, aline, acol = self.next()
            attr = attr.lower()
            self.next("=", f"after attribute '{attr}'")
            vtok, vline, vcol = self.next()
            value = _parse_value(vtok, vline, vcol)
            if attr == "parametric":
                spec.parametric = bool(value)
            elif attr in _NUM_ATTRS:
                if attr == "at" and kind != "monitor":
                    raise LatticeError("'at' is only valid on monitors", aline, acol)
                if isinstance(value, bool):
                    raise LatticeError(f"attribute '{attr}' needs a number", vline, vcol)
                setattr(spec, _ATTR_FIELD[attr], value)
            else:
                raise LatticeError(f"unknown attribute '{attr}'", aline, acol)
        try:
            spec.validate()
        except ElementError as exc:
            raise LatticeError(str(exc), line, col) from exc
        return spec

    def _parse_sequence(self):
        ring = False
        tok, line, col = self.next()
        if tok == ",":
            attr, aline, acol = self.next()
            if attr.lower() != "ring":
                raise LatticeError(f"unknown sequence attribute '{attr}'", aline, acol)
            self.next("=", "after 'ring'")
            vtok, vline, vcol = self.next()
            val = _parse_value(vtok, vline, vcol)
            if not isinstance(val, bool):
                raise LatticeError("'ring' must be true or false", vline, vcol)
            ring = val
            tok, line, col = self.next()
        if tok != "=":
            raise LatticeError(f"expected '=', got '{tok}'", line, col)
        self.next("(", "to open the element list")
        refs = []
        while True:
            tok, tline, tcol = self.next()
            if not re.match(r"^[A-Za-z_][A-Za-z_0-9.]*$", tok):
                raise LatticeError(f"expected an element name, got '{tok}'", tline, tcol)
            refs.append((tok, tline, tcol))
            tok, tline, tcol = self.next()
            if tok == ")":
                break
            if tok != ",":
                raise LatticeError(f"expected ',' or ')', got '{tok}'", tline, tcol)
        self.next(";", "to end the sequence")
        return refs, ring


def parse_lattice(text: str) -> LatticeDoc:
    """Parse a lattice description; raises LatticeError with position."""
    return _Parser(text).parse()


def serialize_lattice(doc: LatticeDoc) -> str:
    """Render a LatticeDoc back to grammar text (parse/serialize round-trips)."""
    lines = []
    for spec in doc.definitions.values():
        attrs = []
        if spec.length:
            attrs.append(f"l={spec.length!r}")
        for attr in ("k1", "k2", "angle", "kick", "dx", "dy"):
            v = getattr(spec, attr)
            if v:
                attrs.append(f"{attr}={v!r}")
        if spec.parametric:
            attrs.append("parametric=true")
        if spec.at is not None:
            attrs.append(f"at={spec.at!r}")
        tail = (", " + ", ".join(attrs)) if attrs else ""
        lines.append(f"{spec.name}: {spec.kind}{tail};")
    ringattr = ", ring=true" if doc.ring else ""
    lines.append(f"{doc.name}: sequence{ringattr} = ({', '.join(doc.sequence)});")
    return "\n".join(lines) + "\n"


def split_at_monitors(doc: LatticeDoc) -> LatticeDoc:
    """Resolve monitor `at` offsets by splitting the preceding drift.

    A monitor with `at=s` must directly follow a drift of length >= s; the
    drift is replaced by two drifts of lengths s and L-s around the monitor.
    Monitors without `at` are left where they stand.  Total length is
    preserved exactly.
    """
    defs = dict(doc.definitions)
    seq: list[str] = []
    counter = 0
    for name in doc.sequence:
        spec = defs[name]
        if spec.kind != "monitor" or spec.at is None:
            seq.append(name)
            continue
        if not seq or defs[seq[-1]].kind != "drift":
            raise LatticeError(f"monitor '{name}' has at= but does not follow a drift")
        host = defs[seq.pop()]
        s = spec.at
        if not (0.0 <= s <= host.length):
            raise LatticeError(f"monitor '{name}': at={s} outside drift '{host.name}' of length {host.length}")
        counter += 1
        up = replace(host, name=f"{host.name}__{name}_up", length=s)
        down = replace(host, name=f"{host.name}__{name}_down", length=host.length - s)
        flat = replace(spec, at=None)
        for piece in (up, down):
            defs[piece.name] = piece
        defs[name] = flat
        seq.extend([up.name, name, down.name])
    return LatticeDoc(defs, seq, name=doc.name, ring=doc.ring)


@dataclass
class Segment:
    """One network layer worth of elements."""

    element_names: list
    tap: bool = False
    trainable: bool = False
    label: str = ""
    kind: str = "map"  # map | hcorrector | vcorrector | parametric


def plan_segments(doc: LatticeDoc, merge_policy: str = "minimal") -> list[Segment]:
    """Group the element sequence into network layers, one walk for both policies.

    Correctors become trainable segments and parametric magnets segments of
    their own; a monitor closes a tapped segment named after it.  Policy
    'minimal' merges the plain elements between them into spans, policy
    'per_element' flushes a segment named after each plain element.
    """
    if merge_policy not in ("minimal", "per_element"):
        raise ValueError(f"unknown merge policy '{merge_policy}'")
    segs: list[Segment] = []
    pending: list[str] = []
    n_span = 0

    def flush(tap=False, label=None):
        nonlocal n_span
        if pending or tap:
            n_span += 1
            segs.append(Segment(list(pending), tap=tap, label=label or f"span_{n_span}"))
            pending.clear()

    for name in doc.sequence:
        spec = doc.definitions[name]
        if spec.kind == "monitor":
            pending.append(name)
            flush(tap=True, label=name)
        elif spec.kind in ("hcorrector", "vcorrector"):
            flush()
            segs.append(Segment([name], trainable=True, label=name, kind=spec.kind))
        elif spec.parametric:
            flush()
            segs.append(Segment([name], label=name, kind="parametric"))
        else:
            pending.append(name)
            if merge_policy == "per_element":
                flush(label=name)
    flush()
    return segs
