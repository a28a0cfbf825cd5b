"""Multi-part capture: split the input into consecutive pieces, greedily
longest first, and run one transduction per piece.

The machine must commit to the same split the scanning procedure
(oracle_lm_split) finds, or reject the input outright when no split
exists."""

import random

import pytest

import fsrw.capture
from fsrw import (
    FsmError,
    SymbolTable,
    any_of,
    complement,
    compile_rules,
    compose,
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
    plus,
    project,
    sigma_star,
    star,
    transduce,
    union,
    word,
)

from fsrw.dump import dump_text
from gen import (CLASS_ALPHABET, ROOT, all_strings, build_regex, formula,
                 random_class_language, random_regex, random_target)


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
    init = MarkerKit.__init__
    monkeypatch.setattr(MarkerKit, "__init__",
                        lambda kit, t: tables.append(t) or init(kit, t))
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


# Killer i's middle part is the image of piece i with lb1 cells inserted
# between its cells (`capture.overrun`).  Kaplan & Kay wedge the marker
# between raw symbols instead: `ignx_1(e1, e2)`, the range of e1 composed
# with `wedge(e2)`, the killer `greed_filters` built before it read
# whole cells.  The two differ only on strings that split a cell, and no
# marking writes one, so both give the same marking.


def wedge(kit, s):
    """Insert at least one string of `s` between raw symbols, none at the
    end: the formula of the marker kit's former `_wedge`."""
    t = kit.table
    anysym = any_of(t, t.all_ids())
    return concat(plus(concat(star(anysym), cross_product(empty_string(t), s))),
                  plus(anysym))


def ignx_1(kit, e1, e2):
    return project(compose(e1, wedge(kit, e2)), "range")


def wedge_killers(kit, domains):
    """`greed_filters` with each middle part wedged between raw symbols."""
    images = [kit.non_markers_of(d) for d in domains]
    killers, front = [], []
    for i in range(len(domains) - 1):
        killers.append(concat(*front, ignx_1(kit, images[i], kit.lb1),
                              *[kit.ign(img, kit.lb1) for img in images[i + 1:]]))
        front += [images[i], kit.lb1]
    return killers


def marked_by_wedge_killers(kit, domains):
    """`mark_boundaries` with the raw-symbol killers."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fsrw.capture, "greed_filters", wedge_killers)
        return fsrw.capture.mark_boundaries(kit, domains)


def assert_same_marking(domains):
    kit = MarkerKit(domains[0].table)
    new = fsrw.capture.mark_boundaries(kit, domains)
    assert new.same_structure(marked_by_complements(kit, domains))
    assert new.same_structure(marked_by_wedge_killers(kit, domains))


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
    with monkeypatch.context() as mp:
        mp.setattr(fsrw.capture, "greed_filters", wedge_killers)
        assert got.same_structure(lm_concat(pieces))
    monkeypatch.setattr(fsrw.capture, "mark_boundaries", marked_by_complements)
    assert got.same_structure(lm_concat(pieces))


@pytest.mark.parametrize("seed", range(4))
def test_marking_matches_the_raw_symbol_killers_on_random_pieces(seed):
    # 60 captures a seed of one to four `random_target` pieces: untrimmed
    # machines, empty and [] domains among them
    rng = random.Random(seed)
    sizes = set()
    for _ in range(60):
        table = SymbolTable("abc"[:rng.randint(1, 3)])
        domains = [project(random_target(rng, table), "domain")
                   for _ in range(rng.randint(1, 4))]
        sizes.add(len(domains))
        kit = MarkerKit(table)
        assert fsrw.capture.mark_boundaries(kit, domains).same_structure(
            marked_by_wedge_killers(kit, domains))
    assert sizes == {1, 2, 3, 4}


def random_ignx_1_argument(rng):
    """A language over CLASS_ALPHABET read by raw symbol, or one read by
    cell: an encoded one or a set of bracket cells."""
    roll = rng.random()
    if roll < 0.4:
        return random_class_language(rng)
    if roll < 0.7:
        return "non_markers(%s)" % random_class_language(rng)
    return rng.choice(["lb1()", "lb()", "brack()", "sig()", "{lb1(), sig()}",
                       "[lb2(), rb2()]", "xsig()*"])


@pytest.mark.parametrize("seed", range(3))
def test_the_ignx_1_macro_is_the_raw_symbol_operator(seed):
    # 100 programs a seed: the predefined macro compiles to the bytes of
    # the kit's former operator, the range of E1 composed with the wedge
    rng = random.Random(seed)
    for _ in range(100):
        e1, e2 = random_ignx_1_argument(rng), random_ignx_1_argument(rng)
        program = compile_rules("%s\nignx_1(%s, %s).\n" % (CLASS_ALPHABET, e1, e2))
        table = program.machine.table
        old = ignx_1(MarkerKit.of(table), formula(table, e1), formula(table, e2))
        assert dump_text(program.machine) == dump_text(old), (e1, e2)
