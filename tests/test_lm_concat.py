"""Multi-part capture: split the input into consecutive pieces, greedily
longest first, and run one transduction per piece.

The machine must commit to the same split the scanning procedure
(oracle_lm_split) finds, or reject the input outright when no split
exists."""

import pytest

from fsrw import (
    FsmError,
    SymbolTable,
    concat,
    cross_product,
    empty_string,
    identity_lift,
    literal,
    lm_concat,
    MarkerKit,
    oracle_lm_concat,
    option,
    star,
    transduce,
    union,
    word,
)

from gen import all_strings


def out(m, s):
    res = transduce(m, list(s))
    assert not res.truncated
    return set(res.strings())


def test_three_piece_worked_example():
    tb = SymbolTable("topogical#")
    w = lambda s: word(tb, list(s))
    ident = lambda e: identity_lift(e)
    mark = cross_product(empty_string(tb), literal(tb, "#"))
    p1 = concat(ident(union(w("to"), w("top"))), mark)
    p2 = concat(ident(union(w("o"), w("polo"))), mark)
    p3 = ident(union(w("gical"), concat(option(w("o")), w("logical"))))
    m = lm_concat([p1, p2, p3])
    assert out(m, "topological") == {"top#o#logical"}
    assert out(m, "polotopogical") == set()


def test_single_piece_is_just_the_piece_on_its_domain():
    tb = SymbolTable("ab")
    p = cross_product(star(literal(tb, "a")), word(tb, "b"))
    m = lm_concat([p])
    assert out(m, "aa") == {"b"}
    assert out(m, "ab") == set()


def test_greedy_longest_first_with_backoff():
    tb = SymbolTable("ab#")
    mark = cross_product(empty_string(tb), literal(tb, "#"))
    a_star = identity_lift(star(literal(tb, "a")))
    a_one = identity_lift(literal(tb, "a"))
    m = lm_concat([concat(a_star, mark), a_one])
    # the first piece takes as much as it can while leaving a parse
    assert out(m, "aaa") == {"aa#a"}
    assert out(m, "a") == {"#a"}
    assert out(m, "") == set()


def test_agrees_with_the_scanning_oracle():
    tb = SymbolTable("ab#")
    mark = cross_product(empty_string(tb), literal(tb, "#"))
    pieces = [
        concat(identity_lift(union(word(tb, "a"), word(tb, "ab"))), mark),
        identity_lift(concat(star(literal(tb, "b")), literal(tb, "a"))),
    ]
    m = lm_concat(pieces)
    for s in all_strings("ab", 5):
        assert out(m, s) == oracle_lm_concat(pieces, list(s)), s


def test_split_points_are_observable_through_insertions():
    # pieces that copy their span and append a mark show where the
    # split landed
    tb = SymbolTable("ab#")
    mark = cross_product(empty_string(tb), literal(tb, "#"))
    anything = identity_lift(star(union(literal(tb, "a"), literal(tb, "b"))))
    m = lm_concat([concat(anything, mark), anything])
    # first piece is greedy: the mark lands at the end
    for s in ("", "a", "ab", "ba"):
        assert out(m, s) == {s + "#"}


def test_empty_domain_piece_is_reported():
    from fsrw import empty_lang
    tb = SymbolTable("ab")
    good = identity_lift(literal(tb, "a"))
    none = identity_lift(empty_lang(tb))
    with pytest.raises(FsmError, match="piece 2 has an empty domain"):
        lm_concat([good, none])


def test_rejects_an_empty_piece_list():
    with pytest.raises(FsmError, match="need at least one piece"):
        lm_concat([])


def test_rejects_mixed_symbol_tables():
    t1 = SymbolTable("a")
    t2 = SymbolTable("a")
    with pytest.raises(FsmError, match="different symbol tables"):
        lm_concat([identity_lift(literal(t1, "a")),
                   identity_lift(literal(t2, "a"))])


def test_mark_boundaries_places_one_marker_per_piece():
    from fsrw.capture import mark_boundaries
    tb = SymbolTable("ab")
    kit = MarkerKit(tb)
    m = mark_boundaries(kit, [literal(tb, "a"), literal(tb, "b")])
    res = transduce(m, ["a", "b"])
    assert set(res.strings()) == {"a0<11b0<11"}
