"""The text interchange format: exact round-trips, escaping, validation."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import fsrw.dump
from fsrw import (
    DumpFormatError,
    Fst,
    SymbolTable,
    dump_text,
    equivalent,
    lang_enum,
    literal,
    load_text,
    remap,
    star,
    symbol_pair,
    transduce,
    union,
    word,
)

from gen import build_regex, random_regex


def rt(m):
    return load_text(dump_text(m))


def assert_same_machine(a, b):
    assert a.n == b.n
    assert a.initial == b.initial
    assert a.finals == b.finals
    assert a.arcs == b.arcs
    assert [a.table.glyph(i) for i in a.table.all_ids()] == \
        [b.table.glyph(i) for i in b.table.all_ids()]
    assert a.table.user_glyphs() == b.table.user_glyphs()


def test_round_trip_recognizer():
    tb = SymbolTable("ab")
    m = star(union(word(tb, "ab"), literal(tb, "b")))
    assert_same_machine(m, rt(m))


def test_round_trip_transduction():
    tb = SymbolTable("ab")
    m = star(union(symbol_pair(tb, "a", "b"), symbol_pair(tb, "b", None)))
    back = rt(m)
    assert_same_machine(m, back)
    assert sorted(transduce(back, "ab").strings()) == ["b"]


def test_round_trip_random():
    rng = random.Random(21)
    tb = SymbolTable("ab")
    for _ in range(50):
        m = build_regex(random_regex(rng, "ab", 3), tb)
        assert_same_machine(m, rt(m))


def test_multi_char_and_awkward_glyphs():
    tb = SymbolTable(["<abbr>", " ", "a\nb", "-", "\\", "0"])
    m = word(tb, ["<abbr>", " ", "a\nb", "-", "\\", "0"])
    back = rt(m)
    assert_same_machine(m, back)
    assert lang_enum(back, 6) == {"<abbr> a\nb-\\0"}
    # each section of a cascade repeats the #tokens line, and loads back
    text = dump_text([m, m])
    assert text.count("#tokens ") == 2
    assert dump_text(load_text(text)) == text


@pytest.mark.parametrize("glyph", ["\xa0", "\x85", "\u2028", "\u2029", "\u3000"])
def test_unicode_separator_glyphs_round_trip(glyph):
    # written unescaped, so the loader must not split lines or fields there
    m = word(SymbolTable(["a", glyph]), ["a", glyph])
    assert_same_machine(m, rt(m))
    assert dump_text(rt(m)) == dump_text(m)


def test_cascade_round_trip():
    tb = SymbolTable("ab")
    parts = [star(symbol_pair(tb, "a", "b")), star(symbol_pair(tb, "b", "a"))]
    text = dump_text(parts)
    assert text.startswith("cascade 2")
    back = load_text(text)
    assert isinstance(back, list) and len(back) == 2
    for orig, got in zip(parts, back):
        assert orig.arcs == got.arcs


def test_dump_deterministic():
    tb = SymbolTable("ab")
    m = star(union(word(tb, "ab"), literal(tb, "b")))
    assert dump_text(m) == dump_text(rt(m))


def test_remap_by_glyph():
    t1 = SymbolTable(["x", "y"])
    t2 = SymbolTable(["y", "x"])  # same glyphs, different ids
    m = word(t1, ["x", "y"])
    moved = remap(m, t2)
    assert moved.table is t2
    assert lang_enum(moved, 2) == {"xy"}
    assert equivalent(moved, word(t2, ["x", "y"]))


def test_remap_interns_missing_glyphs():
    m = literal(SymbolTable(["x"]), "x")
    target = SymbolTable(["y"])
    moved = remap(m, target)
    assert "x" in target
    assert lang_enum(moved, 1) == {"x"}


@pytest.mark.parametrize("mangle", [
    lambda t: "bogus\n" + t,
    lambda t: t.replace("fst ", "fst x", 1),
    lambda t: t + "t 0 99 a a\n",
    lambda t: t.replace("sym 0 0", "sym 0 zero", 1),
    lambda t: t.replace("sym 0 0", "sym zero 0", 1),
    lambda t: t + "f 99\n",
    lambda t: t + "f x\n",
    # escapes: dangling, unknown, short
    lambda t: t.replace("t 0 1 a a", "t 0 1 a\\ a"),
    lambda t: t.replace("t 0 1 a a", "t 0 1 \\q a"),
    lambda t: t.replace("t 0 1 a a", "t 0 1 \\x4 a"),
    # the symbol list: duplicate glyphs, ids that are not dense
    lambda t: t.replace("sym 7 b", "sym 7 a"),
    lambda t: t.replace("sym 7 b", "sym 7 0"),
    lambda t: t.replace("sym 7 b", "sym 8 b"),
    # a #tokens glyph not in the table, a state past n, no states at all
    lambda t: "#tokens a zz\n" + t,
    lambda t: t.replace("t 0 1 a a", "t 0 2 a a"),
    lambda t: t.replace("fst 2 0", "fst 0 0"),
    # cascade sections that disagree on the symbol table
    lambda t: "cascade 2\n" + t + t.replace("sym 7 b", "sym 7 c"),
    # keywords are whole fields, and \x takes exactly two hex digits
    lambda t: "cascadeX 1\n" + t,
    lambda t: "#tokensX a\n" + t,
    lambda t: t.replace("sym 7 b", "sym 7 \\x+f"),
    # a later section's #tokens lists exactly the table's user glyphs
    lambda t: "cascade 2\n" + t + "#tokens zz\n" + t,
    lambda t: "cascade 2\n" + t + "#tokens a\n" + t,
    # integer fields take ASCII decimal digits only
    lambda t: t + "f +1\n",
    lambda t: t + "f 0_1\n",
    lambda t: t + "f \u0661\n",
    lambda t: t + "f \u16801\n",
    lambda t: t.replace("fst 2 0", "fst \u0662 0"),
])
def test_malformed_dumps_rejected(mangle):
    tb = SymbolTable("ab")
    text = dump_text(literal(tb, "a"))
    with pytest.raises(DumpFormatError):
        load_text(mangle(text))


@pytest.mark.parametrize("respell", [
    lambda t: t.replace("fst ", "fst\t"),
    lambda t: t.replace("fst ", " fst "),
    lambda t: t.replace("#tokens ", "\t#tokens "),
    lambda t: " cascade\t1\n" + t,
])
def test_header_lines_follow_the_field_rule(respell):
    # a header's keyword is its first field, as on every other line
    tb = SymbolTable(["ab", "c"])
    text = dump_text(word(tb, ["ab", "c"]))
    assert text.startswith("#tokens ")
    got = load_text(respell(text))
    assert dump_text(got if isinstance(got, Fst) else got[0]) == text


def test_remap_returns_a_canonical_machine():
    ta, tb = SymbolTable("ab"), SymbolTable("ba")
    moved = remap(union(word(tb, ["b", "a"]), word(tb, ["a"])), ta)
    built = union(word(ta, ["b", "a"]), word(ta, ["a"]))
    assert moved.same_structure(built)


def test_hex_escape_spellings_load():
    text = dump_text(literal(SymbolTable("ab"), "a"))
    spelled = text.replace("sym 7 b", "sym 7 \\x62").replace("t 0 1 a a", "t 0 1 \\x61 a")
    assert dump_text(load_text(spelled)) == text
    assert fsrw.dump.unesc("\\x4A\\x4a") == "JJ"


def test_docstring_names_every_keyword():
    doc = fsrw.dump.__doc__
    for keyword in [*fsrw.dump._FIELDS, "#tokens"]:
        assert "\n    %s " % keyword in doc, keyword


def test_epsilon_epsilon_arc_rejected():
    tb = SymbolTable("ab")
    text = dump_text(star(literal(tb, "a")))
    lines = text.splitlines()
    lines.insert(len(lines), "t 0 0 - -")
    with pytest.raises(DumpFormatError):
        load_text("\n".join(lines) + "\n")


_WORDS = ["0", "1", "2", "-1", "x", "a", "-", "\\", "\\s", "1.5", "<1"]
_lines = st.builds(
    lambda head, rest: " ".join([head] + rest),
    st.sampled_from(["fst", "cascade", "#tokens", "sym", "t", "f"]),
    st.lists(st.sampled_from(_WORDS), max_size=4))
_machine_texts = st.one_of(
    st.text(max_size=40),
    st.builds(lambda head, body: "\n".join([head] + body),
              st.sampled_from(["", "fst 1 0", "fst 2 1", "cascade 1\nfst 1 0"]),
              st.lists(_lines, max_size=8)),
)


@given(_machine_texts)
@settings(max_examples=300, deadline=None)
def test_any_text_loads_or_is_a_format_error(text):
    try:
        got = load_text(text)
    except DumpFormatError:
        return
    assert isinstance(got, (Fst, list))
