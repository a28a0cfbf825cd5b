r"""Plain-text machine serialization.

One record per line, blank lines ignored, fields separated by whitespace
(n = integer in ASCII decimal digits, g = glyph):

    cascade <n>             (optional first line: n sections follow)
    #tokens <g> ...         (optional: the input-tokenizer glyphs)
    fst <n> <n>             (state count >= 1, initial state)
    sym <n> <g>             (every table symbol, ids dense from 0)
    t <n> <n> <g> <g>       (an arc: source, target, input, output)
    f <n>                   (a final state)

A section is an optional `#tokens` line, an `fst` line, then `sym`, `t` and
`f` lines in any order.  Every line's keyword is its first field, headers
included.  States lie below the `fst` count.  Ids 0..5 hold
`SymbolTable.RESERVED` in order, no glyph repeats, every label glyph is in
the table, and no arc is `- -`.

Lines break and fields split at ASCII separators only, each of which a
glyph escapes: `\n`, `\r`, `\r\n`, `\v`, `\f` and `\x1c`..`\x1e` end a
line, and those, tab, space and `\x1f` separate fields.  Unicode spaces
and line separators such as `\xa0` and `\u2028` are glyph text.

`-` on a label is epsilon.  A glyph escapes `\\`, `\n`, `\t` and `\r` by
name, space and the other control characters as `\xHH` (exactly two hex
digits), and a bare `-` as `\x2d`; any other backslash is an error.

`#tokens` appears when per-character tokenization would not reconstruct
the user alphabet (multi-character glyphs, or user glyphs that collide
with the marker glyphs) and lists the user glyphs, each in the table;
without it every glyph past id 5 is a user glyph.  A cascade's sections
share one table: a later section's `sym` lines repeat a prefix of the
first section's, and its `#tokens` line, if any, lists the first
section's user glyphs in id order.

Both directions canonicalize: a machine is trimmed and renumbered before it
is written and after it is read, so a loaded machine is in the form the
machine algebra builds, and dumping it again gives the same bytes.  A
machine already in that form, as every machine the algebra builds and
every section `dump_text` writes is, passes `canonicalize` as it is.
"""

from __future__ import annotations

import re
from typing import Union

from .fsm import (EPS, Fst, FsmError, SymbolTable, _finish, _is_recognizer,
                  canonicalize)


class DumpFormatError(FsmError):
    """Malformed machine file."""


# the fields after each keyword: n = integer, s = token (`#tokens`: any glyphs)
_FIELDS = {"cascade": "n", "fst": "nn", "sym": "ns", "t": "nnss", "f": "n"}

# str.splitlines and str.split would also break at Unicode separators
_LINE_RE = re.compile(r"\r\n|[\n\r\x0b\x0c\x1c-\x1e]")
_FIELD_RE = re.compile(r"[^\t-\r\x1c-\x20]+")

_ESC = {chr(c): "\\x%02x" % c for c in range(0x21)}
_ESC.update({"\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"})
_ESC_RE = re.compile(r"[\x00-\x20\\]")
_UNESC = {"\\": "\\", "n": "\n", "t": "\t", "r": "\r"}
_UNESC_RE = re.compile(r"\\(x[0-9a-fA-F]{2}|.?)", re.S)


def esc(glyph: str) -> str:
    return "\\x2d" if glyph == "-" else _ESC_RE.sub(lambda m: _ESC[m.group()], glyph)


def _unesc_one(m) -> str:
    e = m.group(1)
    if e in _UNESC:
        return _UNESC[e]
    if len(e) == 3:
        return chr(int(e[1:], 16))
    if e == "":
        raise DumpFormatError("dangling escape in %r" % m.string)
    raise DumpFormatError("bad escape \\%s in %r" % (e, m.string))


def unesc(text: str) -> str:
    if text == "":
        raise DumpFormatError("empty glyph")
    return _UNESC_RE.sub(_unesc_one, text)


def _dump_one(m: Fst) -> list[str]:
    # a machine built by hand with the Fst constructor may not be canonical;
    # loading canonicalizes, so a dump must too to load back to its bytes
    m = canonicalize(m)
    table = m.table
    names = [esc(table.glyph(sid)) for sid in table.all_ids()]
    lines = []
    if any(len(g) > 1 or g in SymbolTable.RESERVED for g in table.user_glyphs()):
        lines.append("#tokens " + " ".join(names[sid] for sid in table.user_ids()))
    lines.append("fst %d %d" % (m.n, m.initial))
    lines.extend("sym %d %s" % sym for sym in enumerate(names))
    label = dict(enumerate(names))
    label[EPS] = "-"
    lines.extend("t %d %d %s %s" % (s, d, label[i], label[o]) for s, i, o, d in m.arcs)
    lines.extend("f %d" % f for f in sorted(m.finals))
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


def _int(text: str) -> int:
    """An integer field: ASCII decimal digits only, so no sign, no `_`
    and no other script's digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)


def _fields(line: list[str], keyword: str) -> list:
    """The fields after `keyword` on `line`, integers parsed, per `_FIELDS`."""
    spec = _FIELDS[keyword]
    if len(line) != len(spec) + 1:
        raise DumpFormatError("bad %s line %r" % (keyword, " ".join(line)))
    try:
        return [_int(p) if c == "n" else p for c, p in zip(spec, line[1:])]
    except ValueError:
        raise DumpFormatError("bad %s line %r" % (keyword, " ".join(line))) from None


def _fresh_table(glyphs: list[str], tokens) -> SymbolTable:
    """The table a first section's `sym` lines and `#tokens` line declare."""
    reserved = SymbolTable.RESERVED
    if tuple(glyphs[:len(reserved)]) != reserved[:len(glyphs)]:
        raise DumpFormatError("sym ids 0..%d must be %r" % (len(reserved) - 1, reserved))
    if len(set(glyphs)) != len(glyphs):
        raise DumpFormatError("duplicate glyph in sym lines")
    table = SymbolTable()
    for g in glyphs[len(reserved):]:
        table.intern(g)
    for g in glyphs[len(reserved):] if tokens is None else tokens:
        if g not in table:
            raise DumpFormatError("#tokens glyph %r not in symbol table" % g)
        table.add_user(g)
    return table


def _parse_one(lines: list[list[str]], pos: int, table: SymbolTable = None):
    """Parse one machine section starting at lines[pos], each line a list
    of fields.  Returns (Fst, next_pos).  A fresh table is built unless one
    is supplied, in which case the section's `sym` and `#tokens` lines must
    agree with it."""
    tokens = None
    if pos < len(lines) and lines[pos][0] == "#tokens":
        tokens = [unesc(p) for p in lines[pos][1:]]
        pos += 1
    if pos >= len(lines) or lines[pos][0] != "fst":
        raise DumpFormatError("expected 'fst <nstates> <initial>' line")
    n, initial = _fields(lines[pos], "fst")
    if n < 1 or not (0 <= initial < n):
        raise DumpFormatError("bad state count or initial state")
    pos += 1

    syms: dict[int, str] = {}
    arcs, finals = [], set()
    while pos < len(lines):
        keyword = lines[pos][0]
        if keyword == "sym":
            sid, g = _fields(lines[pos], "sym")
            syms[sid] = unesc(g)
        elif keyword == "t":
            arcs.append(_fields(lines[pos], "t"))
        elif keyword == "f":
            finals.update(_fields(lines[pos], "f"))
        else:
            break  # a header begins the next section; anything else is an error there
        pos += 1

    if set(syms) != set(range(len(syms))):
        raise DumpFormatError("sym ids must be dense from 0")
    glyphs = [syms[sid] for sid in range(len(syms))]
    if table is None:
        table = _fresh_table(glyphs, tokens)
    elif glyphs != [table.glyph(sid) for sid in range(min(len(glyphs), len(table)))]:
        raise DumpFormatError("cascade sections disagree on the symbol table")
    elif tokens is not None and tuple(tokens) != table.user_glyphs():
        raise DumpFormatError("cascade sections disagree on the #tokens glyphs")
    if not all(0 <= f < n for f in finals):
        raise DumpFormatError("final state out of range")

    label = {"-": EPS}
    for text in {x for arc in arcs for x in arc[2:]} - {"-"}:
        g = unesc(text)
        if g not in table:
            raise DumpFormatError("label glyph %r not in symbol table" % g)
        label[text] = table.id_of(g)
    real_arcs = []
    for src, dst, li, lo in arcs:
        if not (0 <= src < n and 0 <= dst < n):
            raise DumpFormatError("t line state out of range")
        if li == lo == "-":
            raise DumpFormatError("epsilon:epsilon arcs are not stored")
        real_arcs.append((src, label[li], label[lo], dst))

    # number densely just the states the file names, keeping their order
    # (the canonical numbering breaks ties on it): the others have no arcs,
    # so the trim would drop them anyway, and a huge declared count
    # allocates nothing
    named = sorted({initial, *finals, *(q for s, _, _, d in real_arcs for q in (s, d))})
    dense = {q: k for k, q in enumerate(named)}
    # trimmed and canonically numbered, like every machine the program builds
    numbered = tuple([(dense[s], i, o, dense[d]) for s, i, o, d in real_arcs])
    return canonicalize(Fst(table, len(named), dense[initial],
                            frozenset([dense[f] for f in finals]), numbered,
                            _is_recognizer(numbered))), pos


def load_text(text: str):
    """Parse a machine file.  Returns an Fst, or a list of Fst for a
    cascade file (sharing one table)."""
    lines = [f for f in map(_FIELD_RE.findall, _LINE_RE.split(text)) if f]
    if not lines:
        raise DumpFormatError("empty machine file")
    if lines[0][0] != "cascade":
        m, pos = _parse_one(lines, 0)
        if pos != len(lines):
            raise DumpFormatError("trailing content after machine")
        return m
    k, = _fields(lines[0], "cascade")
    if k < 1:
        raise DumpFormatError("cascade must have at least one machine")
    pos, ms, table = 1, [], None
    for _ in range(k):
        m, pos = _parse_one(lines, pos, table)
        table = m.table
        ms.append(m)
    if pos != len(lines):
        raise DumpFormatError("trailing content after cascade sections")
    return ms


def remap(m: Fst, table: SymbolTable) -> Fst:
    """Rebuild `m` against another table, matching symbols by glyph and
    interning any that are missing.  The result is canonically numbered."""
    if m.table is table:
        return m
    mapping = {EPS: EPS}
    for sid in m.table.all_ids():
        mapping[sid] = table.intern(m.table.glyph(sid))
    return _finish(table, m.n, m.initial, m.finals,
                   [(s, mapping[i], mapping[o], d) for s, i, o, d in m.arcs])
