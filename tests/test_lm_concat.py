"""Multi-part capture: split the input into consecutive pieces, greedily
longest first, and run one transduction per piece.

The machine must commit to the same split the scanning procedure
(oracle_lm_split) finds, or reject the input outright when no split
exists."""

import random
from pathlib import Path

import pytest

import fsrw.capture
from fsrw import (
    FsmError,
    SymbolTable,
    complement,
    compile_rules,
    compose_cascade,
    concat,
    cross_product,
    empty_string,
    identity_lift,
    literal,
    lm_concat,
    MarkerKit,
    oracle_lm_concat,
    option,
    project,
    sigma_star,
    star,
    transduce,
    union,
    word,
)

from gen import all_strings, build_regex, random_regex

ROOT = Path(__file__).resolve().parent.parent


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


@pytest.mark.parametrize("extra", ["", "xyz"])
def test_bad_pieces_fail_as_before_whether_or_not_the_capture_collapses(
        monkeypatch, extra):
    # the pieces are checked, in this order, before any symbol is
    # collapsed and before the table is frozen; over "ab" the pieces
    # mention a and b on arcs that are no copy, over "abxyz" x, y and z
    # collapse
    from fsrw import empty_lang
    table, other = SymbolTable("ab" + extra), SymbolTable("ab" + extra)
    a_b = cross_product(literal(table, "a"), literal(table, "b"))
    none = identity_lift(empty_lang(table))
    far = literal(other, "a")
    tables_msg = "^pieces built against different symbol tables$"
    for pieces, msg in [([], "^need at least one piece$"),
                        ([a_b, far], tables_msg), ([none, far], tables_msg),
                        ([far, a_b, none], tables_msg),
                        ([a_b, none], "^piece 2 has an empty domain$"),
                        ([none, a_b, none], "^piece 1 has an empty domain$")]:
        with pytest.raises(FsmError, match=msg):
            lm_concat(pieces)
    table.add_user("w")
    tables = []
    monkeypatch.setattr(fsrw.capture, "MarkerKit",
                        lambda t: tables.append(t) or MarkerKit(t))
    assert out(lm_concat([a_b, star(a_b)]), "aa") == {"bb"}
    assert (tables[0] is not table) == bool(extra)


def test_mark_boundaries_places_one_marker_per_piece():
    from fsrw.capture import mark_boundaries
    tb = SymbolTable("ab")
    kit = MarkerKit(tb)
    m = mark_boundaries(kit, [literal(tb, "a"), literal(tb, "b")])
    res = transduce(m, ["a", "b"])
    assert set(res.strings()) == {"a0<11b0<11"}


# mark_boundaries removes the killers from range(B) by difference and
# composes B with the rest once; Kaplan & Kay compose B with the complement
# of each killer in turn.  Both give the same pair language, so the same
# reduced machine.


def marked_by_complements(kit, domains):
    """The marking of Kaplan & Kay: the boundary transducer composed with
    the complement of each killer, reduced after every step."""
    return compose_cascade([fsrw.capture.boundaries(kit, domains),
                            *(complement(k)
                              for k in fsrw.capture.greed_filters(kit, domains))])


def assert_same_marking(domains):
    kit = MarkerKit(domains[0].table)
    new = fsrw.capture.mark_boundaries(kit, domains)
    assert new.same_structure(marked_by_complements(kit, domains))


def random_domain(rng, table):
    """A random regex over the table's user glyphs; one in four also
    accepts the empty string, one in five is SIGMA*."""
    roll = rng.random()
    if roll < 0.2:
        return sigma_star(table, table.user_ids())
    node = random_regex(rng, table.user_glyphs(), depth=2)
    if roll < 0.45:
        node = ("option", node)
    return build_regex(node, table)


@pytest.mark.parametrize("seed", range(40))
def test_marking_by_difference_matches_the_complement_filters(seed):
    rng = random.Random(seed)
    table = SymbolTable("abc"[:rng.randint(1, 3)])
    assert_same_marking([random_domain(rng, table)
                         for _ in range(rng.randint(1, 4))])


def test_marking_by_difference_on_empty_string_and_sigma_star_pieces():
    tb = SymbolTable("ab")
    a, b = literal(tb, "a"), literal(tb, "b")
    sig = sigma_star(tb, tb.user_ids())
    for domains in ([empty_string(tb), a], [option(a), sig, star(b)],
                    [sig, sig], [sig, empty_string(tb), sig, option(b)],
                    [star(a), option(b), star(a), b]):
        assert_same_marking(domains)


@pytest.mark.parametrize("name", ["lm3", "lm5"])
def test_marking_by_difference_on_the_bench_captures(name):
    program = compile_rules((ROOT / "bench" / "rules" / (name + ".fsr")).read_text())
    assert_same_marking([project(t, "domain") for t in program.pieces])


def test_a_large_capture_is_the_same_machine_as_with_complements(monkeypatch):
    # [{a,b}*, a, {a,b}^j], [{a,b}^j, b, {a,b}*], {a,b}*, for j = 3
    tb = SymbolTable("ab")
    ab = union(literal(tb, "a"), literal(tb, "b"))
    ab_j = concat(*[ab] * 3)
    pieces = [concat(star(ab), literal(tb, "a"), ab_j),
              concat(ab_j, literal(tb, "b"), star(ab)),
              star(ab)]
    got = lm_concat(pieces)
    monkeypatch.setattr(fsrw.capture, "mark_boundaries", marked_by_complements)
    assert got.same_structure(lm_concat(pieces))
