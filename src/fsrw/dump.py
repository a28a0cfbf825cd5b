"""Plain-text machine serialization.

Single machine:

    #tokens a b <1          (optional: the input-tokenizer glyphs)
    fst <nstates> <initial>
    sym <id> <glyph>        (every table symbol, in id order)
    t <src> <dst> <in> <out>
    f <state>

`-` on a label side means epsilon; glyphs are escaped so whitespace, bare
`-` and backslashes survive.  The `#tokens` header appears when per-character
tokenization would not reconstruct the user alphabet (multi-character glyphs,
or user glyphs that collide with the six marker glyphs); loaders mark exactly
those as the user alphabet.  A cascade file is `cascade <k>` followed by k
single-machine sections sharing one symbol table.

Both directions canonicalize: a machine is trimmed and renumbered before it
is written and after it is read, so a loaded machine is in the form the
machine algebra builds, and dumping it again gives the same bytes.
"""

from __future__ import annotations

from typing import Union

from .fsm import (EPS, Fst, FsmError, SymbolTable, _finish, _is_recognizer,
                  canonicalize)


class DumpFormatError(FsmError):
    """Malformed machine file."""


_SIMPLE = {"\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"}
_UNESC = {"\\": "\\", "n": "\n", "t": "\t", "r": "\r"}


def esc(glyph: str) -> str:
    out = []
    for ch in glyph:
        if ch in _SIMPLE:
            out.append(_SIMPLE[ch])
        elif ch == " " or ord(ch) < 0x20:
            out.append("\\x%02x" % ord(ch))
        else:
            out.append(ch)
    s = "".join(out)
    return "\\x2d" if s == "-" else s


def unesc(text: str) -> str:
    if text == "":
        raise DumpFormatError("empty glyph")
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(text):
            raise DumpFormatError("dangling escape in %r" % text)
        nxt = text[i + 1]
        if nxt in _UNESC:
            out.append(_UNESC[nxt])
            i += 2
        elif nxt == "x":
            if i + 4 > len(text):
                raise DumpFormatError("bad \\x escape in %r" % text)
            try:
                out.append(chr(int(text[i + 2:i + 4], 16)))
            except ValueError:
                raise DumpFormatError("bad \\x escape in %r" % text)
            i += 4
        else:
            raise DumpFormatError("unknown escape \\%s" % nxt)
    return "".join(out)


def _needs_token_header(table: SymbolTable) -> bool:
    reserved = set(SymbolTable.RESERVED)
    for g in table.user_glyphs():
        if len(g) > 1 or g in reserved:
            return True
    return False


def _dump_one(m: Fst) -> list[str]:
    # a machine built by hand with the Fst constructor may not be canonical;
    # loading canonicalizes, so a dump must too to load back to its bytes
    m = canonicalize(m)
    table = m.table
    lines = []
    if _needs_token_header(table):
        lines.append("#tokens " + " ".join(esc(g) for g in table.user_glyphs()))
    lines.append("fst %d %d" % (m.n, m.initial))
    for sid in table.all_ids():
        lines.append("sym %d %s" % (sid, esc(table.glyph(sid))))
    for s, i, o, d in m.arcs:
        li = "-" if i == EPS else esc(table.glyph(i))
        lo = "-" if o == EPS else esc(table.glyph(o))
        lines.append("t %d %d %s %s" % (s, d, li, lo))
    for f in sorted(m.finals):
        lines.append("f %d" % f)
    return lines


def dump_text(m: Union[Fst, list, tuple]) -> str:
    """Serialize one machine, or a cascade given a list of machines sharing
    a table."""
    if isinstance(m, Fst):
        return "\n".join(_dump_one(m)) + "\n"
    ms = list(m)
    if not ms:
        raise DumpFormatError("empty cascade")
    table = ms[0].table
    for x in ms[1:]:
        if x.table is not table:
            raise DumpFormatError("cascade machines built against different symbol tables")
    lines = ["cascade %d" % len(ms)]
    for x in ms:
        lines.extend(_dump_one(x))
    return "\n".join(lines) + "\n"


def _parse_one(lines: list[str], pos: int, table: SymbolTable = None):
    """Parse one machine section starting at lines[pos].  Returns
    (Fst, next_pos).  A fresh table is built unless one is supplied, in
    which case sym lines must agree with it."""
    tokens_header = None
    if pos < len(lines) and lines[pos].startswith("#tokens"):
        parts = lines[pos].split()
        tokens_header = [unesc(p) for p in parts[1:]]
        pos += 1
    if pos >= len(lines) or not lines[pos].startswith("fst "):
        raise DumpFormatError("expected 'fst <nstates> <initial>' line")
    parts = lines[pos].split()
    if len(parts) != 3:
        raise DumpFormatError("bad fst line %r" % lines[pos])
    try:
        n, initial = int(parts[1]), int(parts[2])
    except ValueError:
        raise DumpFormatError("bad fst line %r" % lines[pos])
    if n < 1 or not (0 <= initial < n):
        raise DumpFormatError("bad state count or initial state")
    pos += 1

    fresh = table is None
    if fresh:
        table = SymbolTable()
    syms: dict[int, str] = {}
    arcs = []
    finals = set()
    while pos < len(lines):
        line = lines[pos]
        if line.startswith("cascade") or line.startswith("fst ") or line.startswith("#tokens"):
            break
        parts = line.split()
        if parts[0] == "sym":
            if len(parts) != 3:
                raise DumpFormatError("bad sym line %r" % line)
            try:
                sid = int(parts[1])
            except ValueError:
                raise DumpFormatError("bad sym line %r" % line)
            syms[sid] = unesc(parts[2])
        elif parts[0] == "t":
            if len(parts) != 5:
                raise DumpFormatError("bad t line %r" % line)
            arcs.append(parts[1:])
        elif parts[0] == "f":
            if len(parts) != 2:
                raise DumpFormatError("bad f line %r" % line)
            try:
                f = int(parts[1])
            except ValueError:
                raise DumpFormatError("bad f line %r" % line)
            if not (0 <= f < n):
                raise DumpFormatError("final state %d out of range" % f)
            finals.add(f)
        else:
            raise DumpFormatError("unrecognized line %r" % line)
        pos += 1

    expected = list(range(len(syms)))
    if sorted(syms) != expected:
        raise DumpFormatError("sym ids must be dense from 0")
    for sid in expected:
        glyph = syms[sid]
        if fresh:
            if sid < len(SymbolTable.RESERVED):
                if glyph != SymbolTable.RESERVED[sid]:
                    raise DumpFormatError(
                        "sym %d must be %r" % (sid, SymbolTable.RESERVED[sid]))
            else:
                got = table.intern(glyph)
                if got != sid:
                    raise DumpFormatError("duplicate glyph %r" % glyph)
        else:
            if sid >= len(table) or table.glyph(sid) != glyph:
                raise DumpFormatError("cascade sections disagree on symbol %d" % sid)
    if fresh:
        if tokens_header is not None:
            for g in tokens_header:
                if g not in table:
                    raise DumpFormatError("#tokens glyph %r not in symbol table" % g)
                table.add_user(g)
        else:
            for sid in range(len(SymbolTable.RESERVED), len(table)):
                table.add_user(table.glyph(sid))

    real_arcs = []
    for src_s, dst_s, li, lo in arcs:
        try:
            src, dst = int(src_s), int(dst_s)
        except ValueError:
            raise DumpFormatError("bad t line state ids")
        if not (0 <= src < n and 0 <= dst < n):
            raise DumpFormatError("t line state out of range")

        def lab(x):
            if x == "-":
                return EPS
            g = unesc(x)
            if g not in table:
                raise DumpFormatError("label glyph %r not in symbol table" % g)
            return table.id_of(g)

        i, o = lab(li), lab(lo)
        if i == EPS and o == EPS:
            raise DumpFormatError("epsilon:epsilon arcs are not stored")
        real_arcs.append((src, i, o, dst))

    # number densely just the states the file names, keeping their order
    # (the canonical numbering breaks ties on it): the others have no arcs,
    # so the trim would drop them anyway, and a huge declared count
    # allocates nothing
    named = sorted({initial, *finals, *(q for s, _, _, d in real_arcs for q in (s, d))})
    dense = {q: k for k, q in enumerate(named)}
    # trimmed and canonically numbered, like every machine the program builds
    return _finish(table, len(named), dense[initial], [dense[f] for f in finals],
                   [(dense[s], i, o, dense[d]) for s, i, o, d in real_arcs]), pos


def load_text(text: str):
    """Parse a machine file.  Returns an Fst, or a list of Fst for a
    cascade file (sharing one table)."""
    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if not lines:
        raise DumpFormatError("empty machine file")
    if lines[0].startswith("cascade"):
        parts = lines[0].split()
        if len(parts) != 2:
            raise DumpFormatError("bad cascade line")
        try:
            k = int(parts[1])
        except ValueError:
            raise DumpFormatError("bad cascade line")
        if k < 1:
            raise DumpFormatError("cascade must have at least one machine")
        pos = 1
        ms = []
        table = None
        for _ in range(k):
            m, pos = _parse_one(lines, pos, table)
            table = m.table
            ms.append(m)
        if pos != len(lines):
            raise DumpFormatError("trailing content after cascade sections")
        return ms
    m, pos = _parse_one(lines, 0)
    if pos != len(lines):
        raise DumpFormatError("trailing content after machine")
    return m


def remap(m: Fst, table: SymbolTable) -> Fst:
    """Rebuild `m` against another table, matching symbols by glyph and
    interning any that are missing."""
    if m.table is table:
        return m
    mapping = {}
    for sid in m.table.all_ids():
        mapping[sid] = table.intern(m.table.glyph(sid))
    arcs = tuple(sorted(
        (s, mapping[i] if i != EPS else EPS, mapping[o] if o != EPS else EPS, d)
        for s, i, o, d in m.arcs))
    return Fst(table, m.n, m.initial, m.finals, arcs, _is_recognizer(arcs))
