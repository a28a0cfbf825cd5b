"""Core machine algebra: constructors, rational and boolean operations,
composition, projection, transduction, enumeration."""

import collections
import itertools
import operator
import random
import re
import sys
import tracemalloc

import pytest

import fsrw.classes as classes
import fsrw.cli as cli
import fsrw.markers as markers
from fsrw import fsm
from fsrw import (
    EPS,
    Fst,
    FsmError,
    SymbolTable,
    accepts,
    any_of,
    canonicalize,
    compile_rules,
    complement,
    compose,
    concat,
    containment,
    cross_product,
    determinize,
    difference,
    empty_lang,
    empty_string,
    enumerate_pairs,
    equivalent,
    identity_lift,
    intersection,
    invert,
    lang_enum,
    literal,
    minimize,
    option,
    plus,
    project,
    reduce_pairs,
    replace_factors,
    reverse,
    sigma_star,
    star,
    symbol_pair,
    transduce,
    union,
    word,
)
from fsrw.dump import dump_text, load_text
from fsrw.oracle import _Walker

from gen import (ROOT, RULE_FILES, arc_machine, build_regex, model_lang,
                 random_arc_machine, random_regex)


AMBIGUOUS = """\
#alphabet a e i o k t.
macro(vowel, {a, e, i, 'o'}).
replace([vowel, vowel] x vowel, [], []).
"""


@pytest.fixture
def tb():
    return SymbolTable("ab")


def test_symbol_table_reserved_layout(tb):
    assert tb.glyph(0) == "0"
    assert tb.glyph(1) == "1"
    assert [tb.glyph(i) for i in tb.bracket_ids()] == ["<1", "<2", "1>", "2>"]
    assert tb.user_glyphs() == ("a", "b")
    assert set(tb.encoded_ids()) == set(tb.user_ids()) | set(tb.bracket_ids())


def test_symbol_table_user_can_reuse_reserved_glyphs():
    tb = SymbolTable(["a", "<1", "0"])
    assert "a" in tb
    assert tb.id_of("<1") == 2
    assert tb.id_of("0") == 0
    assert set(tb.user_glyphs()) == {"a", "<1", "0"}


def test_constructors(tb):
    assert lang_enum(empty_lang(tb), 3) == set()
    assert lang_enum(empty_string(tb), 3) == {""}
    assert lang_enum(literal(tb, "a"), 3) == {"a"}
    assert lang_enum(word(tb, "ab"), 3) == {"ab"}
    assert lang_enum(any_of(tb, tb.user_ids()), 1) == {"a", "b"}
    assert lang_enum(sigma_star(tb, tb.user_ids()), 2) == \
        {"", "a", "b", "aa", "ab", "ba", "bb"}


def test_rational_ops(tb):
    a, b = literal(tb, "a"), literal(tb, "b")
    assert lang_enum(union(a, b), 2) == {"a", "b"}
    assert lang_enum(concat(a, b), 3) == {"ab"}
    assert lang_enum(star(a), 3) == {"", "a", "aa", "aaa"}
    assert lang_enum(plus(a), 3) == {"a", "aa", "aaa"}
    assert lang_enum(option(a), 3) == {"", "a"}


def test_boolean_ops(tb):
    a, b = literal(tb, "a"), literal(tb, "b")
    ab_star = star(union(a, b))
    has_ab = containment(word(tb, "ab"))
    assert accepts(has_ab, "ab")
    assert accepts(has_ab, "0ab1")  # containment ranges over the full alphabet
    assert not accepts(has_ab, "ba")
    assert lang_enum(intersection(ab_star, has_ab), 2) == {"ab"}
    assert lang_enum(difference(ab_star, has_ab), 2) == {"", "a", "b", "aa",
                                                         "ba", "bb"}


def test_complement_covers_reserved_glyphs(tb):
    a = literal(tb, "a")
    comp = complement(a)
    assert not accepts(comp, "a")
    assert accepts(comp, "")
    assert accepts(comp, ["<1"])
    assert accepts(comp, ["a", "a"])
    both = union(a, comp)
    assert equivalent(both, sigma_star(tb, tb.all_ids()))
    assert intersection(a, comp).is_empty()


@pytest.mark.parametrize("op", [complement, containment])
def test_full_alphabet_ops_freeze_the_table(op):
    # the result ranges over every glyph of the table at the time of the
    # call, so a glyph interned afterwards could never be in its language
    tb = SymbolTable("ab")
    m = op(literal(tb, "a"))
    with pytest.raises(FsmError, match="frozen"):
        literal(tb, "z")
    assert "z" not in tb
    assert accepts(m, "b") == (op is complement)
    assert lang_enum(literal(tb, "b"), 1) == {"b"}  # known glyphs still intern


def test_boolean_ops_reject_transductions(tb):
    t = symbol_pair(tb, "a", "b")
    for op in (complement, containment):
        with pytest.raises(FsmError):
            op(t)
    with pytest.raises(FsmError):
        difference(t, literal(tb, "a"))
    with pytest.raises(FsmError):
        identity_lift(t)


def _is_deterministic(m):
    labels = [(s, i) for s, i, _, _ in m.arcs]
    return len(labels) == len(set(labels))


def test_difference_is_set_difference_and_canonical_minimal():
    rng = random.Random(17)
    tb = SymbolTable("ab")
    shapes = {"nondeterministic": 0, "empty": 0, "superset": 0}
    for k in range(200):
        a = build_regex(random_regex(rng, "ab", 3), tb)
        b = build_regex(random_regex(rng, "ab", 3), tb)
        if k % 5 == 1:
            b = union(a, b)  # b covers a: nothing is left
        elif k % 5 == 2:
            a = random_arc_machine(rng, tb, max_states=4, recognizer=True)
        elif k % 10 == 3:
            a = empty_lang(tb)
        elif k % 10 == 8:
            b = empty_lang(tb)
        shapes["nondeterministic"] += not _is_deterministic(a)
        shapes["empty"] += a.is_empty() or b.is_empty()
        shapes["superset"] += k % 5 == 1
        r = difference(a, b)
        assert lang_enum(r, 4) == lang_enum(a, 4) - lang_enum(b, 4)
        assert r.same_structure(minimize(r))
        if k % 5 == 1:
            assert r.is_empty()
    assert min(shapes.values()) >= 20, shapes


def test_complement_is_full_table_difference():
    rng = random.Random(19)
    tb = SymbolTable("ab")
    everything = sigma_star(tb, tb.all_ids())
    assert complement(empty_lang(tb)).same_structure(everything)
    assert complement(everything).same_structure(empty_lang(tb))
    glyphs = [tb.glyph(i) for i in tb.all_ids()]
    full = {"".join(s) for n in range(3)
            for s in itertools.product(glyphs, repeat=n)}
    for k in range(60):
        if k % 3 == 0:
            m = random_arc_machine(rng, tb, max_states=4, recognizer=True)
        else:
            m = build_regex(random_regex(rng, "ab", 3), tb)
        c = complement(m)
        assert lang_enum(c, 2) == full - lang_enum(m, 2)
        assert c.same_structure(minimize(c))
        assert c.same_structure(difference(everything, m))


def test_cross_product_pads_trailing_epsilon(tb):
    m = cross_product(word(tb, "a"), word(tb, "abb"))
    assert sorted(transduce(m, "a").strings()) == ["abb"]
    m2 = cross_product(word(tb, "abb"), word(tb, "a"))
    assert sorted(transduce(m2, "abb").strings()) == ["a"]
    m3 = cross_product(star(literal(tb, "a")), word(tb, "bb"))
    assert sorted(transduce(m3, "aaaa").strings()) == ["bb"]
    assert sorted(transduce(m3, "").strings()) == ["bb"]


def test_compose_epsilon_alignment(tb):
    # output-then-input epsilon moves must survive composition
    del_a = concat(symbol_pair(tb, "a", None), symbol_pair(tb, "b", "b"))
    ins_b = concat(symbol_pair(tb, "b", "b"),
                   symbol_pair(tb, None, "b"))
    m = compose(del_a, ins_b)
    assert sorted(transduce(m, "ab").strings()) == ["bb"]


def test_compose_is_relation_join(tb):
    a_to_b = symbol_pair(tb, "a", "b")
    b_to_a = symbol_pair(tb, "b", "a")
    m = compose(star(a_to_b), star(b_to_a))
    assert sorted(transduce(m, "aaa").strings()) == ["aaa"]
    assert transduce(m, "b").strings() == []


def test_project_and_invert(tb):
    t = concat(symbol_pair(tb, "a", "b"), symbol_pair(tb, "b", None))
    assert lang_enum(project(t, "domain"), 3) == {"ab"}
    assert lang_enum(project(t, "range"), 3) == {"b"}
    assert sorted(transduce(invert(t), "b").strings()) == ["ab"]


def test_reverse_of_the_empty_machines(tb):
    assert reverse(empty_lang(tb)).same_structure(empty_lang(tb))
    assert reverse(empty_string(tb)).same_structure(empty_string(tb))


def test_reverse_reads_each_string_backwards():
    rng = random.Random(2030)
    tb = SymbolTable("ab")
    for k in range(300):
        if k % 2:  # trimmed, so that `minimize` gives the minimal machine
            m = canonicalize(random_arc_machine(rng, tb, max_states=4,
                                                recognizer=True))
            want = {s[::-1] for s in lang_enum(m, 5)}
        else:
            node = random_regex(rng, "ab", 3)
            m = build_regex(node, tb)
            want = {s[::-1] for s in model_lang(node, 5)}
        r = reverse(m)
        assert lang_enum(r, 5) == want
        assert equivalent(reverse(r), m)
        assert minimize(reverse(r)).same_structure(minimize(m))


def test_reverse_reverses_both_sides_of_each_pair():
    rng = random.Random(2031)
    tb = SymbolTable("abc")
    for k in range(200):
        if k % 2:
            m = random_arc_machine(rng, tb, max_states=4)
        else:  # input-epsilon arcs, which lead once reversed
            m = cross_product(build_regex(random_regex(rng, "ab", 2), tb),
                              word(tb, rng.choice(["c", "cab", "bbc"])))
        want = {(i[::-1], o[::-1]) for i, o in enumerate_pairs(m, 4)}
        assert enumerate_pairs(reverse(m), 4) == want


def test_identity_lift_round_trip(tb):
    r = union(word(tb, "ab"), word(tb, "b"))
    t = identity_lift(r)
    assert t.is_recognizer
    assert sorted(transduce(t, "ab").strings()) == ["ab"]


def test_transduce_multiple_outputs(tb):
    t = union(symbol_pair(tb, "a", "a"), symbol_pair(tb, "a", "b"))
    res = transduce(star(t), "aa")
    assert sorted(res.strings()) == ["aa", "ab", "ba", "bb"]
    assert not res.truncated
    # a fresh list on every call: the result keeps its own, so a caller
    # that sorts or edits the list it got leaves the result as it was
    res.strings().sort(reverse=True)
    assert res.strings() == list(res) == ["aa", "ab", "ba", "bb"]
    assert res.strings() is not res.strings()


def test_transduce_cyclic_truncates(tb):
    # identity on a, with free b-insertion: infinitely many outputs
    t = star(union(symbol_pair(tb, "a", "a"), symbol_pair(tb, None, "b")))
    res = transduce(t, "a", limit=5)
    assert res.truncated
    assert len(res.outputs) == 5
    assert len(set(res.outputs)) == 5
    assert all("a" in "".join(o) or o == () for o in res.outputs)
    # the five shortest of b* a b*, through the input-epsilon loop
    assert res.strings() == ["a", "ab", "abb", "ba", "bab"]
    res = transduce(t, "", limit=3)
    assert res.truncated
    assert res.strings() == ["", "b", "bb"]


def test_transduce_rejects_unknown_symbol(tb):
    # transduce and accepts name the first unknown glyph in the words of
    # `SymbolTable.id_of`
    m = literal(tb, "a")
    for line, first in [("z", "z"), ("azy", "z"), (["a", "zz", "y"], "zz"),
                        (["a", 5], 5)]:
        with pytest.raises(FsmError) as want:
            tb.id_of(first)
        assert str(want.value) == "unknown symbol %r" % first
        for query in (transduce, accepts):
            with pytest.raises(FsmError) as got:
                query(m, line)
            assert str(got.value) == str(want.value)


def _left_glyphs(tables):
    """The glyphs of every move the left table holds."""
    return {g for moves in tables.left.moves for g in moves}


@pytest.mark.parametrize("line, first", [
    ("qab", "q"), ("abqa", "q"), ("abq", "q"), ("aqbr", "q"),
    # b then a leads to no state: the walk stops there, and the glyphs
    # after it are still checked
    ("bab", None), ("baq", "q"), ("babqar", "q"), (["b", "a", "zz", "q"], "zz"),
])
def test_an_unknown_glyph_anywhere_is_named_and_stores_no_move(line, first):
    # a(b)* over {a, b, c}: its left table moves on the glyphs it reads,
    # and a glyph the table lacks raises `SymbolTable.id_of`'s error
    tb = SymbolTable("abc")
    m = arc_machine(tb, 2, [1], [(0, "a", "a", 1), (1, "b", "b", 1)])
    for query in (transduce, accepts):
        m = Fst(tb, m.n, m.initial, m.finals, m.arcs, query is accepts)
        tables = m.input_tables()
        if first is None:
            assert not query(m, line)
        else:
            with pytest.raises(FsmError) as want:
                tb.id_of(first)
            with pytest.raises(FsmError) as got:
                query(m, line)
            assert str(got.value) == str(want.value)
        assert _left_glyphs(tables) <= set("abc")
        # the tables still read a known line
        assert query(m, "abb") and m.input_tables() is tables


@pytest.mark.parametrize("rule, lines", [
    ("devoice_final.fsr", ["", "#", "bad#", "ab#d", "dbd#bb#t", "bbbb", "ba#x"]),
    ("abbrev.fsr", ["", " ", "   ", "finite", "<abbr> "]),
])
def test_a_str_line_reads_as_its_glyph_list(rule, lines):
    # a str is read one glyph per character, like the list of its
    # characters, through the same moves: the list adds none.  On abbrev,
    # whose glyphs are words, a line of several characters names its first
    # one that is no glyph of its own
    m = compile_rules((ROOT / "rules" / rule).read_text()).machine
    dom = project(m, "domain")
    for line in lines:
        got = []
        for given in (line, list(line), tuple(line)):
            try:
                res = transduce(m, given)
                got.append((res.strings(), res.outputs, accepts(dom, given)))
            except FsmError as exc:
                got.append(str(exc))
            if given is line:
                held = m.input_tables().size()
        assert got[0] == got[1] == got[2], line
        assert m.input_tables().size() == held, line


def test_a_step_built_from_the_next_live_list_is_the_intersections():
    # `read` builds each new step from the live list of the step after it,
    # L[p + 1] & R[p + 1] sorted; building it from that intersection gives
    # the same step
    rng = random.Random(28)
    tb = SymbolTable("ab")
    machines = [_with_input_epsilons(rng, random_arc_machine(rng, tb), rng.randint(0, 3))
                for _ in range(200)]
    machines += [compile_rules(AMBIGUOUS).machine,
                 compile_rules((ROOT / "rules" / "devoice_final.fsr").read_text()).machine]
    fields = operator.attrgetter("rid", "live", "arcs", "out", "exit", "endless")
    checked = 0
    for m in machines:
        glyphs = m.table.user_glyphs()
        for _ in range(60):
            transduce(m, [rng.choice(glyphs) for _ in range(rng.randint(0, 5))], limit=3)
        tables = m.input_tables()
        left, right = tables.left, tables.right
        for moves in left.moves:
            for t in moves.values():
                for rnext, st in list(t.steps.items()):
                    ahead = sorted(left.sets[t.to] & right.sets[rnext])
                    assert fields(st) == fields(tables._new_step(t.src, t.sym, st.rid, ahead))
                    checked += 1
    assert checked >= 500


@pytest.mark.parametrize("rule, lines", [
    ("devoice_final.fsr", ["", "#", "bad#", "ab#d", "dbd#bb#t", "bbbb"]),
    ("abbrev.fsr", [[], ["<abbr>", "non-deterministic", " ", "finite", " ",
                         "automaton", "</abbr>"],
                    ["finite", "<abbr>", "finite", "</abbr>", " "],
                    ["<abbr>", "<abbr>", "non-deterministic", " ", "finite",
                     " ", "automaton", "</abbr>", "N"]]),
])
def test_a_single_path_line_builds_its_glyph_tuple_once_on_demand(rule, lines, monkeypatch):
    m = compile_rules((ROOT / "rules" / rule).read_text()).machine
    built = []
    glyphs_of = fsm._glyphs_of
    monkeypatch.setattr(fsm, "_glyphs_of", lambda steps: built.append(1) or glyphs_of(steps))
    for line in lines:
        res = transduce(m, line)
        assert not built  # not built by transduce
        outputs = res.outputs
        assert outputs is res.outputs and len(built) == 1
        built.clear()
        assert outputs == _walker_outputs(m, line) and len(outputs) == 1
        assert res.strings() == ["".join(outputs[0])]


@pytest.mark.parametrize("rule, lines", [
    (AMBIGUOUS, ["aektaeiokoatie", "kaet", "aeae", "taeiotk", "kaetiok"]),
    # `aby` is one run a b, whose text prints like the glyph ab
    ("replace({[x,x] x {[a,b], ab}, y x {a, c}}, [], []).",
     ["yxx", "ayxx", "xx", "byb", "aby", "cyaxx", "yyxx"]),
])
def test_a_multi_output_line_builds_its_glyph_tuples_once_on_demand(rule, lines,
                                                                    monkeypatch):
    # a factored line keeps each run of single-path steps as its text: what
    # apply reads of it builds no glyph tuple, and `outputs` builds each
    # run's once
    m = compile_rules(rule).machine
    built = []
    glyphs_of = fsm._glyphs_of
    monkeypatch.setattr(fsm, "_glyphs_of", lambda steps: built.append(1) or glyphs_of(steps))
    runs_met = 0
    for line in lines:
        res = transduce(m, line)
        n = len(res)
        assert n > 1 and res._segs is not None, line
        assert res.joined("\t") == "\t".join(sorted(res.strings())), line
        assert res.least() == min(res.strings()), line
        assert not built, line
        runs = sum(type(seg) is list for seg in res._segs)
        outputs = res.outputs
        assert outputs is res.outputs and len(built) == runs, line
        built.clear()
        runs_met += runs
        assert outputs == _walker_outputs(m, line) and len(outputs) == n, line
    assert runs_met >= 5


@pytest.fixture(scope="module")
def devoice():
    return compile_rules((ROOT / "rules" / "devoice_final.fsr").read_text()).machine


def _devoice_line(rng, n):
    return "".join(rng.choice("abdpt#") for _ in range(n))


def _traced_peak(m, line):
    tracemalloc.start()
    try:
        transduce(m, line)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transduce_memory_grows_linearly(devoice):
    rng = random.Random(11)
    short = _traced_peak(devoice, _devoice_line(rng, 2500))
    long = _traced_peak(devoice, _devoice_line(rng, 10_000))
    assert long <= 6 * short


def test_transduce_memory_follows_output_size():
    # a^n -> {x^i y : i < n}: outputs of total length ~n^2/2 that share
    # no suffix, so storing every state's suffix list would cost ~n^3/6
    tb = SymbolTable("axy")
    a, x, y = (tb.id_of(g) for g in "axy")
    m = Fst(tb, 2, 0, frozenset([1]),
            ((0, a, x, 0), (0, a, y, 1), (1, a, EPS, 1)), False)
    assert transduce(m, "aaa").strings() == ["xxy", "xy", "y"]
    short = _traced_peak(m, "a" * 150)
    long = _traced_peak(m, "a" * 300)
    assert long <= 5 * short


def test_transduce_long_line_matches_reference(devoice):
    line = _devoice_line(random.Random(12), 100_000)
    want = re.sub(r"[bd](?=#)", lambda mo: {"b": "p", "d": "t"}[mo.group()],
                  line)
    res = transduce(devoice, line)
    assert res.strings() == [want]
    assert not res.truncated


def test_transduce_ambiguous_long_line():
    m = compile_rules(AMBIGUOUS).machine
    rng = random.Random(13)
    filler = ["".join(rng.choice("kt") for _ in range(3300)) for _ in range(4)]
    pairs = ["ae", "io", "oa"]
    line = filler[0] + "".join(p + f for p, f in zip(pairs, filler[1:]))
    want = sorted(filler[0] + "".join(v + f for v, f in zip(vs, filler[1:]))
                  for vs in itertools.product("aeio", repeat=3))
    res = transduce(m, line)
    assert len(res) == 64
    assert sorted(res.strings()) == want
    assert not res.truncated


def test_transduce_counts_a_product_without_building_it():
    # k vowel pairs, each a stretch of four outputs: len() multiplies the
    # list sizes, and neither the strings nor the glyph tuples are built
    m = compile_rules(AMBIGUOUS).machine
    for k in range(1, 10):
        res = transduce(m, "kt".join(["ae"] * k))
        assert len(res) == 4 ** k
        assert res._strings is None and res._outputs is None and res._segs, k
    res = transduce(m, "ae" + "io" + "kt")
    assert len(res) == 16 and res._strings is None
    assert res.strings() == [x + y + "kt" for x in "aeio" for y in "aeio"]
    assert len(res) == len(res.outputs) == 16


def test_transduce_leaves_recursion_limit_alone(devoice, monkeypatch):
    def refuse(n):
        raise AssertionError("transduce changed the recursion limit")

    before = sys.getrecursionlimit()
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    transduce(devoice, _devoice_line(random.Random(14), 20_000))
    assert sys.getrecursionlimit() == before


def _with_input_epsilons(rng, m, k):
    """`m` plus k random arcs that read nothing (any output, EPS too)."""
    syms = list(m.table.user_ids())
    arcs = set(m.arcs)
    for _ in range(k):
        arcs.add((rng.randrange(m.n), EPS, rng.choice(syms + [EPS]),
                  rng.randrange(m.n)))
    return Fst(m.table, m.n, 0, m.finals, tuple(sorted(arcs)), False)


def test_transduce_matches_enumerate_pairs_on_random_machines(tb):
    rng = random.Random(21)
    inputs = [w for n in range(4) for w in itertools.product("ab", repeat=n)]
    compared = 0
    for _ in range(900):
        m = _with_input_epsilons(rng, random_arc_machine(rng, tb),
                                 rng.randint(0, 2))
        try:
            pairs = enumerate_pairs(m, 3)
        except FsmError:  # an input-epsilon cycle
            continue
        for w in inputs:
            want = sorted({out for inp, out in pairs if inp == w},
                          key=lambda o: [tb.id_of(g) for g in o])
            res = transduce(m, w)
            assert (res.outputs, res.truncated) == (want, False), (m.arcs, w)
        compared += 1
    assert compared >= 500


def test_transduce_finds_a_cycle_through_the_start_state(tb):
    # the start state writes b on an input-epsilon loop, so the output DFA
    # loops back to its start state
    a, b = tb.id_of("a"), tb.id_of("b")
    m = Fst(tb, 1, 0, frozenset([0]),
            tuple(sorted([(0, EPS, b, 0), (0, a, a, 0), (0, b, b, 0)])), False)
    res = transduce(m, "ab", limit=3)
    assert res.outputs == [("a", "b"), ("a", "b", "b"), ("b", "a", "b")]
    assert res.truncated


def test_transduce_cycle_verdict_matches_the_oracle(tb):
    rng = random.Random(23)
    inputs = [w for n in range(4) for w in itertools.product("ab", repeat=n)]
    infinite = 0
    for _ in range(600):
        m = _with_input_epsilons(rng, random_arc_machine(rng, tb, max_states=4),
                                 rng.randint(0, 3))
        walker = _Walker(m)
        for w in inputs:
            res = transduce(m, w, limit=8)
            try:
                want = sorted(walker.outputs([tb.id_of(g) for g in w]))
            except FsmError:  # infinitely many outputs
                infinite += 1
                assert res.truncated and len(res.outputs) == 8, (m.arcs, w)
                continue
            assert not res.truncated, (m.arcs, w)
            assert res.outputs == [tuple(map(tb.glyph, o)) for o in want], (m.arcs, w)
    assert infinite >= 1000


def _cached_steps(tables):
    """Every step the tables hold: those on the left table's transitions
    and the end steps."""
    return [st for moves in tables.left.moves for t in moves.values()
            for st in t.steps.values()] + list(tables.ends.values())


def _walker_outputs(m, w):
    """The oracle's outputs of `m` on the glyphs `w`, as glyph tuples
    sorted by symbol id."""
    tb = m.table
    return [tuple(map(tb.glyph, o))
            for o in sorted(_Walker(m).outputs([tb.id_of(g) for g in w]))]


def test_transduce_dedups_outputs_that_collide_across_a_cut():
    # `a` writes {x, xy} and `b` writes {y, nothing, x}; both stretches end
    # in one state, so the line is cut after each.  xy comes out twice, and
    # with y before x in id order, the order is not the strings' order
    tb = SymbolTable("abyx")
    m = arc_machine(tb, 4, [2], [(0, None, "x", 3), (3, "a", "y", 1), (0, "a", "x", 1),
                                  (1, "b", "y", 2), (1, "b", None, 2), (1, "b", "x", 2)])
    res = transduce(m, "ab")
    assert len(m.input_tables().segments) == 2
    assert res.strings() == ["x", "xy", "xyy", "xyx", "xx"]
    assert res.outputs == _walker_outputs(m, "ab")
    assert len(res) == 5 and not res.truncated
    # the same {x, xy} on `a`, then one path: z on `b`, nothing on `c`.
    # Text after a list that is not prefix-free breaks the product's
    # order (xz, xyz, with y before z), so the outputs are sorted; a
    # stretch that writes nothing is left out, so the product stays
    # ordered and builds no glyph tuple until asked
    tb = SymbolTable("abyxzc")
    m = arc_machine(tb, 4, [2], [(0, None, "x", 3), (3, "a", "y", 1), (0, "a", "x", 1),
                                  (1, "b", "z", 2), (1, "c", None, 2), (2, "c", None, 2)])
    for line, want, ordered in (("ab", ["xyz", "xz"], False), ("ac", ["x", "xy"], True),
                                ("acc", ["x", "xy"], True)):
        res = transduce(m, line)
        assert (res._segs is not None) == ordered, line
        assert res.strings() == want, line
        assert res.outputs == _walker_outputs(m, line), line


def test_transduce_orders_multi_character_glyphs_by_id():
    # ids zz < b < ab < a, the reverse of string order; ("ab",) and
    # ("a", "b") are two outputs that print alike
    tb = SymbolTable(["zz", "b", "ab", "a"])
    m = arc_machine(tb, 4, [2], [(0, "b", "zz", 1), (0, "b", "b", 1), (1, "b", "ab", 2),
                                  (1, "b", "a", 3), (3, None, "b", 2)])
    res = transduce(m, ["b", "b"])
    want = [("zz", "ab"), ("zz", "a", "b"), ("b", "ab"), ("b", "a", "b")]
    assert res.strings() == ["zzab", "zzab", "bab", "bab"]
    assert res.outputs == want == _walker_outputs(m, ["b", "b"])
    pairs = enumerate_pairs(m, 2)
    assert sorted(out for inp, out in pairs if inp == ("b", "b")) == sorted(want)


def test_transduce_cyclic_stretch_beside_finite_ones():
    # {x, y} z* b {x, y} on aba: the middle stretch loops on z, so the
    # line's outputs are the `limit` shortest, ties in id order
    tb = SymbolTable("abxyz")
    m = arc_machine(tb, 4, [3], [(0, "a", "x", 1), (0, "a", "y", 1), (1, None, "z", 1),
                                  (1, "b", "b", 2), (2, "a", "x", 3), (2, "a", "y", 3)])
    with pytest.raises(FsmError):
        _walker_outputs(m, "aba")
    lang = [u + "z" * k + "b" + v for u in "xy" for v in "xy" for k in range(4)]
    for limit in (1, 3, 5, 9):
        res = transduce(m, "aba", limit=limit)
        want = sorted(sorted(lang, key=lambda o: (len(o), o))[:limit])
        assert res.truncated and len(res) == limit
        assert res.strings() == want
        assert res.outputs == [tuple(o) for o in want]


def test_transduce_matches_the_oracle_on_concatenated_pieces(tb):
    # concatenations of small nondeterministic pieces, some with
    # input-epsilon arcs: lines cut into several multi-path stretches
    rng = random.Random(24)
    short = [w for n in range(4) for w in itertools.product("ab", repeat=n)]
    infinite = several = 0
    for _ in range(150):
        m = concat(*(_with_input_epsilons(rng, random_arc_machine(rng, tb),
                                          rng.randint(0, 1))
                     for _ in range(rng.randint(2, 4))))
        try:
            pairs = enumerate_pairs(m, 3)
        except FsmError:  # an input-epsilon cycle
            pairs = None
        lines = short + [tuple(rng.choice("ab") for _ in range(rng.randint(4, 8)))
                         for _ in range(4)]
        for w in lines:
            res = transduce(m, w, limit=8)
            try:
                want = _walker_outputs(m, w)
            except FsmError:  # infinitely many outputs
                infinite += 1
                assert res.truncated and len(res) == 8, (m.arcs, w)
                continue
            assert not res.truncated, (m.arcs, w)
            assert res.outputs == want, (m.arcs, w)
            assert res.strings() == ["".join(o) for o in want], (m.arcs, w)
            if pairs is not None and len(w) <= 3:
                assert sorted(out for inp, out in pairs if inp == w) == sorted(want)
            several += len(want) > 1
    assert infinite >= 50 and several >= 300


def test_silent_cycle_beside_writing_arcs_is_finite():
    # 1 and 2 loop on eps:eps, and 2 writes y leaving the loop: no cycle
    # writes, so every line has finitely many outputs
    tb = SymbolTable("abxy")
    m = arc_machine(tb, 4, [3], [(0, "a", "x", 1), (0, "a", "y", 1), (1, None, None, 2),
                                  (2, None, None, 1), (2, None, "y", 3), (1, "b", "b", 3)])
    for w, want in (("a", ["xy", "yy"]), ("ab", ["xb", "yb"])):
        res = transduce(m, w, limit=1)
        assert not res.truncated and res.strings() == want
        assert res.outputs == _walker_outputs(m, w)
    assert not any(st.endless for st in _cached_steps(m.input_tables()))


def test_writing_cycle_behind_a_silent_arc_is_endless():
    # 2 and 4 loop writing z, entered from 1 by an eps:eps arc
    tb = SymbolTable("abxyz")
    m = arc_machine(tb, 5, [3], [(0, "a", "x", 1), (0, "a", "y", 1), (1, None, None, 2),
                                  (2, None, "z", 4), (4, None, None, 2), (2, "b", "b", 3)])
    with pytest.raises(FsmError):
        _walker_outputs(m, "ab")
    for limit in (1, 3, 64):
        res = transduce(m, "ab", limit=limit)
        assert res.truncated and len(res) == len(res.outputs) == limit
    assert transduce(m, "ab", limit=3).strings() == ["xb", "xzb", "yb"]
    trail, text = m.input_tables().read(["a", "b"])
    assert [st.endless for st in trail] == [False, True, False] and text is None


def test_endless_matches_a_brute_force_cycle_search(tb):
    # a step is endless iff a writing input-epsilon arc s -> d has d = s
    # or a path of input-epsilon arcs from d back to s, found here by
    # closing the reachability relation until it stops growing
    rng = random.Random(26)
    inputs = [w for n in range(4) for w in itertools.product("ab", repeat=n)]
    endless = 0
    for _ in range(400):
        m = _with_input_epsilons(rng, random_arc_machine(rng, tb, max_states=4),
                                 rng.randint(0, 4))
        for w in inputs:
            transduce(m, w, limit=3)
        for st in _cached_steps(m.input_tables()):
            reach = {(s, d) for s, _, d, same in st.arcs if same}
            while True:
                more = reach | {(s, e) for s, d in reach for d2, e in reach if d == d2}
                if more == reach:
                    break
                reach = more
            want = any(same and o != EPS and (d, s) in reach | {(s, s)}
                       for s, o, d, same in st.arcs)
            assert st.endless == want, st.arcs
            endless += want
    assert endless >= 50


def _x_in_each_block(tb, separator):
    """x written in place of any one symbol of each block over {a, b};
    `separator`, if any, closes a block and starts the next."""
    arcs = [(0, s, s, 0) for s in "ab"] + [(0, s, "x", 1) for s in "ab"] \
        + [(1, s, s, 1) for s in "ab"]
    if separator:
        arcs.append((1, separator, separator, 0))
    return arc_machine(tb, 2, [1], arcs)


def _one_x_each(block):
    return [block[:i] + "x" + block[i + 1:] for i in range(len(block))]


def _tables_renewed(m, lines, want):
    """Apply `m` to `lines` against `want`; how often the tables started
    afresh.  They stay under the cap, and segment outputs are nearly all
    they hold."""
    renewed = 0
    tables = m.input_tables()
    for line in lines:
        assert transduce(m, line).strings() == want(line)
        size = m.input_tables().size()
        assert size <= fsm.INPUT_TABLE_CAP
        renewed += m.input_tables() is not tables
        tables = m.input_tables()
        assert size - tables.held < 50
    return renewed


def test_segment_cache_counts_toward_the_cap():
    # one block, n outputs and no cut before its last symbol: a stretch
    # that reads the whole line, which only the same line could find, so
    # nothing is kept and the tables are never renewed
    m = _x_in_each_block(SymbolTable("abx"), None)
    rng = random.Random(25)
    lines = set()
    while len(lines) < 1500:
        lines.add("".join(rng.choice("ab") for _ in range(rng.randint(10, 20))))
    assert _tables_renewed(m, sorted(lines), lambda line: sorted(_one_x_each(line))) == 0
    assert m.input_tables().held == 0 and not m.input_tables().segments
    # c closes each block's one x: the line is cut after every block, and
    # each block's outputs are kept and count toward the cap
    m = _x_in_each_block(SymbolTable("abcx"), "c")
    lines = set()
    while len(lines) < 1500:
        lines.add("c".join("".join(rng.choice("ab") for _ in range(rng.randint(6, 12)))
                           for _ in range(rng.randint(2, 3))))

    def want(line):
        return sorted("c".join(p) for p in itertools.product(*map(_one_x_each, line.split("c"))))

    assert _tables_renewed(m, sorted(lines), want) >= 2


def _reference_acyclic_outputs(dadj, dfinals, glyph):
    """`fsm._acyclic_outputs` as it walked before chains were copied in one
    step: one loop turn per node of the outputs' trie."""
    outputs = []
    path = []
    todo = [(0, 0, None)]
    while todo:
        v, depth, g = todo.pop()
        del path[depth:]
        if g is not None:
            path.append(g)
        if v in dfinals:
            outputs.append(tuple(path))
        depth = len(path)
        for o, d in reversed(dadj[v]):
            todo.append((d, depth, glyph(o)))
    return outputs


def _random_output_dfa(rng, n):
    """A random acyclic DFA on states 0..n-1 with arcs only to higher
    states, in ascending label order; mostly single arcs, so it has long
    chains, most of them to the next state.  A state with no arc is
    final, so every state reaches one."""
    dadj = []
    for v in range(n):
        k = 0 if v == n - 1 else rng.choice([1, 1, 1, 1, 2, 3])
        labels = sorted(rng.sample(range(4), min(k, 4)))
        dadj.append([(o, v + 1 if rng.random() < 0.6 else rng.randrange(v + 1, n))
                     for o in labels])
    dfinals = {v for v in range(n) if not dadj[v] or rng.random() < 0.15}
    return dadj, dfinals


def test_acyclic_outputs_match_the_trie_walk():
    glyph = "wxyz".__getitem__
    rng = random.Random(27)
    chained = 0
    for _ in range(2000):
        dadj, dfinals = _random_output_dfa(rng, rng.randint(1, 14))
        want = _reference_acyclic_outputs(dadj, dfinals, glyph)
        assert fsm._acyclic_outputs(dadj, dfinals, glyph) == want, (dadj, dfinals)
        chained += any(len(o) > 4 for o in want)
    assert chained >= 500
    # the output DFAs of whole lines, and of stretches cut by c, of the
    # machines that write x in place of one symbol of each block
    for separator in (None, "c"):
        m = _x_in_each_block(SymbolTable("abcx"), separator)
        tables = m.input_tables()
        for _ in range(100):
            blocks = ["".join(rng.choice("ab") for _ in range(rng.randint(1, 12)))
                      for _ in range(rng.randint(1, 3))]
            line = (separator or "").join(blocks)
            trail, _ = tables.read(line)
            for lo, hi in ((0, len(trail)), (0, len(trail) - 1), (1, len(trail))):
                entry = trail[lo].live.index(m.initial) if lo == 0 else 0
                dadj, dfinals = fsm._output_dfa(trail, lo, hi, entry)
                assert fsm._acyclic_outputs(dadj, dfinals, m.table.glyph) \
                    == _reference_acyclic_outputs(dadj, dfinals, m.table.glyph)


def _nth_from_last_is_a(tb, k):
    """Identity on the strings over {a, b} whose k-th symbol from the end
    is an a: a nondeterministic machine whose left subsets number 2^k."""
    a, b = tb.id_of("a"), tb.id_of("b")
    arcs = [(0, a, a, 0), (0, b, b, 0), (0, a, a, 1)]
    arcs += [(q, s, s, q + 1) for q in range(1, k) for s in (a, b)]
    return Fst(tb, k + 1, 0, frozenset([k]), tuple(sorted(arcs)), True)


def test_input_tables_stay_under_their_cap(tb):
    m = _nth_from_last_is_a(tb, 11)
    rng = random.Random(22)
    lines = set()
    while len(lines) < 5000:
        lines.add("".join(rng.choice("ab") for _ in range(rng.randint(11, 24))))
    renewed = 0
    tables = m.input_tables()
    for line in sorted(lines):
        want = [line] if line[-11] == "a" else []
        assert transduce(m, line).strings() == want
        assert accepts(m, line) == bool(want)
        assert m.input_tables().size() <= fsm.INPUT_TABLE_CAP
        renewed += m.input_tables() is not tables
        tables = m.input_tables()
    assert renewed >= 1  # the cap was reached and the tables started afresh


# the four machines of the benchmark's apply workload, as `fsrw apply -m`
# loads them: (name, rule file, compiled with --cascade)
APPLY_MACHINES = [("devoice_final", ROOT / "rules" / "devoice_final.fsr", True),
                  ("topological", ROOT / "rules" / "topological.fsr", False),
                  ("cascade27", ROOT / "bench" / "rules" / "cascade27.fsr", False),
                  ("ambiguous", ROOT / "bench" / "rules" / "ambiguous.fsr", False)]

# topological's three pieces, so that half its lines are accepted
TOPO_PIECES = (["to", "top"], ["o", "polo"], ["gical", "ological"])


def _apply_machine(tmp_path, name, path, cascade):
    out = tmp_path / (name + ".fst")
    argv = ["compile", "-r", str(path), "-o", str(out)] + (["--cascade"] if cascade else [])
    assert cli.main(argv) == 0
    return cli._load_machine(str(out))


def _short_lines(rng, name, glyphs, count):
    lines = []
    for _ in range(count):
        if name == "topological" and rng.random() < 0.5:
            lines.append(list("".join(rng.choice(p) for p in TOPO_PIECES)))
        else:
            lines.append([rng.choice(glyphs) for _ in range(rng.randint(0, 10))])
    return lines


@pytest.mark.parametrize("name, path, cascade", APPLY_MACHINES,
                         ids=[name for name, _, _ in APPLY_MACHINES])
def test_apply_machines_match_the_oracle(tmp_path, monkeypatch, name, path, cascade):
    m = _apply_machine(tmp_path, name, path, cascade)
    lines = _short_lines(random.Random(31), name, m.table.user_glyphs(), 300)
    want = [_walker_outputs(m, line) for line in lines]
    results = [transduce(m, line) for line in lines]
    assert [res.outputs for res in results] == want
    assert not any(res.truncated for res in results)
    assert sum(map(bool, want)) >= 100
    # a small cap renews the tables many times over the same lines, read
    # twice so that later lines meet cached steps and segments
    monkeypatch.setattr(fsm, "INPUT_TABLE_CAP", 10)
    m = _apply_machine(tmp_path, name, path, cascade)
    renewed = 0
    tables = m.input_tables()
    for line, outputs in zip(lines + lines, want + want):
        res = transduce(m, line)
        assert (res.outputs, res.truncated) == (outputs, False), line
        renewed += m.input_tables() is not tables
        tables = m.input_tables()
    assert renewed >= 5


def test_transduce_leaves_the_machine_unchanged(devoice):
    m = Fst(devoice.table, devoice.n, devoice.initial, devoice.finals,
            devoice.arcs, devoice.is_recognizer)
    text = dump_text(m)
    twin = Fst(m.table, m.n, m.initial, m.finals, m.arcs, m.is_recognizer)
    rng = random.Random(23)
    for n in (0, 1, 7, 500):
        transduce(m, _devoice_line(rng, n))
    assert m.input_tables().size() > 0
    assert dump_text(m) == text
    assert m.same_structure(twin) and twin.same_structure(m)


# tracemalloc peak of one 10^4-symbol devoice_final line before the input
# tables, when transduce built the whole (state, position) lattice and its
# output automaton (Python 3.11; 14.35 MB and 14.46 MB for two lines)
LATTICE_PEAK_10K = 14_300_000


def test_transduce_long_line_memory_with_gc_on(devoice):
    line = _devoice_line(random.Random(24), 100_000)
    assert _traced_peak(devoice, line) < LATTICE_PEAK_10K


def test_enumerate_pairs(tb):
    t = star(symbol_pair(tb, "a", "b"))
    pairs = enumerate_pairs(t, 2)
    assert pairs == {((), ()), (("a",), ("b",)), (("a", "a"), ("b", "b"))}


def test_enumerate_pairs_rejects_input_epsilon_cycle(tb):
    t = star(symbol_pair(tb, None, "b"))
    with pytest.raises(FsmError):
        enumerate_pairs(t, 2)


def test_enumerate_pairs_stops_at_its_path_cap(tb, monkeypatch):
    m = star(union(literal(tb, "a"), literal(tb, "b")))
    assert len(enumerate_pairs(m, 3)) == 15
    monkeypatch.setattr(fsm, "ENUMERATE_PATH_CAP", 10)
    with pytest.raises(FsmError, match="path cap exceeded"):
        enumerate_pairs(m, 3)


def test_lang_enum_shares_the_path_cap(tb, monkeypatch):
    # lang_enum lists the inputs of enumerate_pairs
    m = star(union(literal(tb, "a"), literal(tb, "b")))
    assert len(lang_enum(m, 3)) == 15
    monkeypatch.setattr(fsm, "ENUMERATE_PATH_CAP", 10)
    with pytest.raises(FsmError, match="path cap exceeded"):
        lang_enum(m, 3)


def test_determinize_minimize_preserve_language(tb):
    rng = random.Random(5)
    for _ in range(60):
        node = random_regex(rng, "ab", 3)
        m = build_regex(node, tb)
        want = lang_enum(m, 5)
        d = determinize(m)
        assert lang_enum(d, 5) == want
        mini = minimize(m)
        assert lang_enum(mini, 5) == want
        assert mini.n <= max(d.n, 1)


def test_determinize_requires_pair_atomic_for_transductions(tb):
    t = symbol_pair(tb, "a", "b")
    with pytest.raises(FsmError):
        determinize(t)
    assert determinize(t, pair_atomic=True) is not None


def test_reduce_pairs_falls_back_past_the_state_cap(tb, monkeypatch):
    # the three paths share their first label a:b, so the subset machine
    # (5 states) is smaller than m (7) but outgrows a cap of 2 or 4
    m = union(cross_product(word(tb, "ab"), word(tb, "b")),
              cross_product(word(tb, "ab"), word(tb, "bb")),
              cross_product(word(tb, "aa"), word(tb, "b")))
    for cap, falls_back in ((2, True), (4, True), (5, False), (1000, False)):
        monkeypatch.setattr(fsm, "REDUCE_STATE_CAP", cap)
        assert (reduce_pairs(m) is m) == falls_back, cap
    reduced = reduce_pairs(m)
    assert reduced is not m
    assert reduced.n <= m.n
    assert enumerate_pairs(reduced, 3) == enumerate_pairs(m, 3)


def test_equivalent(tb):
    a = literal(tb, "a")
    assert equivalent(star(a), option(plus(a)))
    assert not equivalent(star(a), plus(a))
    t1 = cross_product(word(tb, "a"), word(tb, "bb"))
    assert equivalent(t1, concat(symbol_pair(tb, "a", "b"),
                                 symbol_pair(tb, None, "b")))


def test_canonical_numbering_is_stable(tb):
    rng = random.Random(9)
    for _ in range(40):
        node = random_regex(rng, "ab", 3)
        m1 = build_regex(node, tb)
        m2 = build_regex(node, SymbolTable("ab"))
        c1, c2 = canonicalize(m1), canonicalize(m2)
        assert c1.n == c2.n
        assert c1.arcs == c2.arcs
        assert c1.finals == c2.finals


def test_canonicalize_returns_a_canonical_machine_as_it_is():
    # a machine given by its arcs comes back as `_finish` makes it; one
    # already in that form, as every machine the algebra returns is, comes
    # back as the same object
    rng = random.Random(2034)
    tb = SymbolTable("abc")
    kept = 0
    for k in range(800):
        if k % 2:
            n, initial, finals, arcs = _random_raw(rng, tb)
            m = Fst(tb, n, initial, frozenset(finals), tuple(arcs),
                    fsm._is_recognizer(arcs))
        else:
            m = random_arc_machine(rng, tb, max_states=rng.randint(1, 5),
                                   recognizer=rng.random() < 0.5)
        if rng.random() < 0.2:  # the wrong kind, which `_finish` corrects
            m = Fst(tb, m.n, m.initial, m.finals, m.arcs, not m.is_recognizer)
        c = canonicalize(m)
        want = fsm._finish(tb, m.n, m.initial, m.finals, m.arcs)
        assert c.same_structure(want), (m.n, m.initial, m.finals, m.arcs)
        assert c.is_recognizer == want.is_recognizer
        kept += c is m
        r = canonicalize(random_arc_machine(rng, tb, max_states=3,
                                            recognizer=c.is_recognizer))
        built = [c, union(c, r), concat(c, r), star(c), option(c), plus(c),
                 compose(c, r), invert(c), reverse(c), project(c, "domain"),
                 project(c, "range"), minimize(c, pair_atomic=True),
                 determinize(c, pair_atomic=True), reduce_pairs(c)]
        if c.is_recognizer:
            built += [cross_product(c, r), intersection(c, r),
                      difference(c, r), identity_lift(c)]
        for x in built:
            assert canonicalize(x) is x, (x, m.arcs)
    assert 100 < kept < 700, kept


def test_model_agreement():
    rng = random.Random(3)
    tb = SymbolTable("ab")
    for _ in range(150):
        node = random_regex(rng, "ab", 3)
        assert lang_enum(build_regex(node, tb), 4) == model_lang(node, 4)


def test_mixed_tables_rejected():
    a = literal(SymbolTable("ab"), "a")
    b = literal(SymbolTable("ab"), "b")
    with pytest.raises(FsmError):
        union(a, b)


# -- the normalization kernels against the earlier ones -------------------------


def _reference_finish(table, n, initial, finals, arcs):
    """`fsm._finish` as it was before it closed only the states with an
    epsilon-pair arc and sorted per state, kept verbatim as the reference."""
    arcs = set(arcs)
    finals = set(finals)

    # epsilon-pair closure: eps:eps arcs are construction glue only
    eps = [[] for _ in range(n)]
    for s, i, o, d in arcs:
        if i == EPS and o == EPS:
            eps[s].append(d)
    if any(eps):
        out = [[] for _ in range(n)]
        for s, i, o, d in arcs:
            if not (i == EPS and o == EPS):
                out[s].append((i, o, d))
        arcs = set()
        closed_finals = set()
        for q in range(n):
            cl = fsm._reach([q], eps)
            if not finals.isdisjoint(cl):
                closed_finals.add(q)
            for c in cl:
                arcs.update((q, i, o, d) for i, o, d in out[c])
        finals = closed_finals

    # trim: forward-reachable and co-reachable
    fwd = [[] for _ in range(n)]
    bwd = [[] for _ in range(n)]
    for s, _, _, d in arcs:
        fwd[s].append(d)
        bwd[d].append(s)
    useful = fsm._reach([initial], fwd) & fsm._reach(finals, bwd)
    if initial not in useful:
        return Fst(table, 1, 0, frozenset(), (), True)

    # canonical renumbering: BFS from the initial state, arcs explored in
    # label order; ties on identical labels break on old dst id.  Only
    # useful states are reachable over arcs into useful states.
    out = [[] for _ in range(n)]
    for s, i, o, d in sorted(arcs):
        if d in useful:
            out[s].append((i, o, d))
    keys, new_arcs = fsm._explore(initial, out.__getitem__)
    new_arcs.sort()
    new_finals = frozenset(k for k, q in enumerate(keys) if q in finals)
    return Fst(table, len(keys), 0, new_finals, tuple(new_arcs),
               fsm._is_recognizer(new_arcs))


def _reference_moore(n, initial, finals, arcs, table):
    """`fsm._moore_minimize_dfa` as it was before it numbered its own
    quotient: the quotient went through `_finish`."""
    labs = [[] for _ in range(n)]
    dsts = [[] for _ in range(n)]
    for s, i, o, d in sorted(arcs):
        labs[s].append((i, o))
        dsts[s].append(d)
    first = {}
    cls = [first.setdefault((q in finals, tuple(labs[q])), len(first))
           for q in range(n)]
    k = len(first)
    while True:
        sig_index = {}
        cls = [sig_index.setdefault((cls[q], tuple([cls[d] for d in dsts[q]])),
                                    len(sig_index))
               for q in range(n)]
        if len(sig_index) == k:
            break
        k = len(sig_index)
    new_arcs = {(cls[s], i, o, cls[d]) for s, i, o, d in arcs}
    new_finals = {cls[f] for f in finals}
    return _reference_finish(table, k, cls[initial], new_finals, new_arcs)


def _random_raw(rng, tb):
    """Raw construction output: epsilon-pair arcs (cycles among them
    included), one-sided epsilon labels, duplicate arcs, unreachable and
    dead states, any initial state, possibly no finals."""
    n = rng.randint(1, 7)
    syms = list(tb.user_ids())
    arcs = []
    for _ in range(rng.randint(0, 3 * n)):
        roll = rng.random()
        if roll < 0.25:
            i = o = EPS
        elif roll < 0.6:
            i = o = rng.choice(syms)
        else:
            i, o = rng.choice(syms + [EPS]), rng.choice(syms + [EPS])
        arcs.append((rng.randrange(n), i, o, rng.randrange(n)))
    if arcs and rng.random() < 0.3:
        arcs += rng.choices(arcs, k=rng.randint(1, len(arcs)))
    rng.shuffle(arcs)
    finals = [q for q in range(n) if rng.random() < 0.3]
    return n, rng.randrange(n), finals, arcs


def _raw_shape(n, initial, finals, arcs):
    eps = [[] for _ in range(n)]
    fwd = [[] for _ in range(n)]
    bwd = [[] for _ in range(n)]
    for s, i, o, d in arcs:
        if i == EPS and o == EPS:
            eps[s].append(d)
        fwd[s].append(d)
        bwd[d].append(s)
    return {
        "eps_cycle": any(s in fsm._reach([d], eps)
                         for s in range(n) for d in eps[s]),
        "one_sided": any((i == EPS) != (o == EPS) for _, i, o, _ in arcs),
        "duplicate": len(set(arcs)) < len(arcs),
        "unreachable": len(fsm._reach([initial], fwd)) < n,
        "dead": len(fsm._reach(finals, bwd)) < n,
        "nonzero_initial": initial != 0,
        "no_finals": not finals,
    }


def test_finish_matches_the_reference_kernel():
    rng = random.Random(2026)
    tb = SymbolTable("abc")
    seen = dict.fromkeys(_raw_shape(1, 0, [], []), 0)
    for _ in range(2500):
        n, initial, finals, arcs = _random_raw(rng, tb)
        for key, hit in _raw_shape(n, initial, finals, arcs).items():
            seen[key] += hit
        got = fsm._finish(tb, n, initial, finals, arcs)
        want = _reference_finish(tb, n, initial, finals, arcs)
        assert got.same_structure(want), (n, initial, finals, arcs)
        assert got.is_recognizer == want.is_recognizer
    assert min(seen.values()) >= 200, seen


def test_moore_matches_the_reference_kernel():
    # untrimmed machines given by their arcs have dead subset states; the
    # reference kernel runs without the arcs into them
    rng = random.Random(2027)
    tb = SymbolTable("abc")
    dead = 0
    for _ in range(1000):
        m = random_arc_machine(rng, tb, max_states=rng.randint(1, 6),
                               recognizer=rng.random() < 0.5)
        n, initial, finals, arcs = fsm._subset_construct(m)
        into = [[] for _ in range(n)]
        for s, _, _, d in arcs:
            into[d].append(s)
        live = fsm._reach(finals, into)
        want = _reference_moore(n, initial, finals,
                                [arc for arc in arcs if arc[3] in live], tb)
        got = fsm._moore_minimize_dfa(n, initial, finals, arcs, tb)
        assert got.same_structure(want), m.arcs
        assert got.is_recognizer == want.is_recognizer
        assert reduce_pairs(m).same_structure(want)
        dead += not m.same_structure(canonicalize(m))
    assert dead >= 200


def _explored_finish(table, n, initial, finals, arcs):
    """`fsm._finish` as it was when it built every epsilon list, deduped
    and sorted every state's arcs, numbered its states through
    `fsm._explore` and read `is_recognizer` off the arcs afterwards, kept
    verbatim as the reference."""
    out = [[] for _ in range(n)]
    eps = [[] for _ in range(n)]
    into = [[] for _ in range(n)]
    for s, i, o, d in arcs:
        if i == EPS and o == EPS:
            eps[s].append(d)
        else:
            out[s].append((i, o, d))
        into[d].append(s)
    finals = set(finals)
    live = fsm._reach(finals, into)
    if initial not in live:
        return Fst(table, 1, 0, frozenset(), (), True)

    # epsilon-pair closure: eps:eps arcs are construction glue only
    closed = {}
    for q in range(n):
        if eps[q]:
            cl = fsm._reach([q], eps)
            closed[q] = (not finals.isdisjoint(cl),
                         [arc for c in cl for arc in out[c]])
    for q, (final, arcs_q) in closed.items():
        if final:
            finals.add(q)
        out[q] = arcs_q

    def moves(q):
        return sorted({arc for arc in out[q] if arc[2] in live})

    keys, new_arcs = fsm._explore(initial, moves)
    new_arcs.sort()
    new_finals = frozenset(k for k, q in enumerate(keys) if q in finals)
    return Fst(table, len(keys), 0, new_finals, tuple(new_arcs),
               fsm._is_recognizer(new_arcs))


def _explored_moore(n, initial, finals, arcs, table):
    """`fsm._moore_minimize_dfa` as it was when it filtered every arc by
    liveness, refined until the class count stood still and numbered its
    quotient through `fsm._explore`, kept verbatim as the reference."""
    into = [[] for _ in range(n)]
    for s, _, _, d in arcs:
        into[d].append(s)
    live = fsm._reach(finals, into)
    if initial not in live:
        return empty_lang(table)
    labs = [[] for _ in range(n)]
    dsts = [[] for _ in range(n)]
    for s, i, o, d in arcs:
        if d in live:
            labs[s].append((i, o))
            dsts[s].append(d)
    first = {}
    cls = [first.setdefault((q in finals, tuple(labs[q])), len(first))
           for q in range(n)]
    k = len(first)
    while True:
        sig_index = {}
        cls = [sig_index.setdefault((cls[q], tuple([cls[d] for d in dsts[q]])),
                                    len(sig_index))
               for q in range(n)]
        # a round only splits classes, so an unchanged count is a fixpoint
        if len(sig_index) == k:
            break
        k = len(sig_index)
    member = [0] * k
    for q, c in enumerate(cls):
        member[c] = q

    def moves(c):
        q = member[c]
        return [(i, o, cls[d]) for (i, o), d in zip(labs[q], dsts[q])]

    keys, new_arcs = fsm._explore(cls[initial], moves)
    new_finals = frozenset(k for k, c in enumerate(keys) if member[c] in finals)
    return Fst(table, len(keys), 0, new_finals, tuple(new_arcs),
               fsm._is_recognizer(new_arcs))


def _same_machine(got, want):
    return got.same_structure(want) and got.is_recognizer == want.is_recognizer


def _with_epsilon_pairs(rng, m):
    """The raw parts of arc machine `m` with a few epsilon-pair arcs among
    its states and up to two states of their own, none of them trimmed."""
    n = m.n + rng.randint(0, 2)
    eps = [(rng.randrange(n), EPS, EPS, rng.randrange(n))
           for _ in range(rng.randint(1, 3))]
    arcs = list(m.arcs) + eps
    rng.shuffle(arcs)
    return n, rng.randrange(n), m.finals, arcs


def test_the_kernels_match_the_explored_ones_on_arc_machines():
    # `_finish` on untrimmed arc machines, with and without epsilon-pair
    # arcs, and on raw construction output; Moore on the subset machines
    # of nondeterministic ones, with and without epsilon-pair arcs
    rng = random.Random(2040)
    tb = SymbolTable("abc")
    seen = dict.fromkeys(["eps", "untrimmed", "nondeterministic", "dead",
                          "merged", "singletons"], 0)
    for _ in range(1500):
        m = random_arc_machine(rng, tb, max_states=rng.randint(1, 6),
                               recognizer=rng.random() < 0.5)
        labels = {(s, i, o) for s, i, o, _ in m.arcs}
        seen["nondeterministic"] += len(labels) < len(m.arcs)
        seen["untrimmed"] += not m.same_structure(canonicalize(m))
        raws = [(m.n, m.initial, m.finals, m.arcs), _with_epsilon_pairs(rng, m),
                _random_raw(rng, tb)]
        for raw in raws:
            seen["eps"] += any(i == o == EPS for _, i, o, _ in raw[3])
            assert _same_machine(fsm._finish(tb, *raw), _explored_finish(tb, *raw)), raw
        n, initial, finals, arcs = fsm._subset_construct(m)
        got = fsm._moore_minimize_dfa(n, initial, finals, arcs, tb)
        assert _same_machine(got, _explored_moore(n, initial, finals, arcs, tb)), m.arcs
        # epsilon pairs read as atoms, as no machine the library builds has them
        n2, initial2, finals2, arcs2 = raws[1]
        built = fsm._subset_construct(Fst(tb, n2, initial2, frozenset(finals2),
                                          tuple(sorted(arcs2)), False))
        assert _same_machine(fsm._moore_minimize_dfa(*built, tb),
                             _explored_moore(*built, tb)), arcs2
        into = [[] for _ in range(n)]
        for s, _, _, d in arcs:
            into[d].append(s)
        dead = n - len(fsm._reach(finals, into))
        seen["dead"] += dead > 0
        seen["merged"] += got.n < n - dead
        seen["singletons"] += got.n == n  # every class a single state
    assert min(seen.values()) >= 40, seen


def test_the_kernels_match_the_explored_ones_on_a_compile(monkeypatch, store):
    # every `_finish` and Moore call that compiling the rule files, and
    # the factors of each replace rule under every flag pair (optimized,
    # stack_safe), makes from an empty marker store, and every store entry
    # it leaves
    calls = collections.Counter()

    def checked(kernel, reference):
        def check(*args):
            calls[kernel.__name__] += 1
            got = kernel(*args)
            assert _same_machine(got, reference(*args)), args
            return got
        return check
    finish = checked(fsm._finish, _explored_finish)
    for module in (fsm, classes):
        monkeypatch.setattr(module, "_finish", finish)
    moore = checked(fsm._moore_minimize_dfa, _explored_moore)
    for module in (fsm, markers):  # markers: the forward scans
        monkeypatch.setattr(module, "_moore_minimize_dfa", moore)
    for path in RULE_FILES:
        compiled = compile_rules(path.read_text())
        compiled.machine
        if compiled.kind == "replace":
            for flags in itertools.product((False, True), (True, False)):
                replace_factors(*compiled.pieces, *flags)
    entries = list(markers._shape_cache.values())
    monkeypatch.undo()
    assert calls["_finish"] >= 800 and calls["_moore_minimize_dfa"] >= 400, calls
    assert len(entries) >= 300, len(entries)
    for n, initial, finals, arcs, is_recognizer in entries:
        # the kernels only carry the table along
        assert _same_machine(fsm._finish(None, n, initial, finals, arcs),
                             _explored_finish(None, n, initial, finals, arcs))
        m = Fst(None, n, initial, finals, arcs, is_recognizer)
        built = fsm._subset_construct(m)
        assert _same_machine(fsm._moore_minimize_dfa(*built, None),
                             _explored_moore(*built, None))


def _reference_subset(m):
    """The full subset construction, as `fsm._subset_construct` ran it on
    every input before deterministic input could skip it."""
    adj = [[] for _ in range(m.n)]
    for s, i, o, d in m.arcs:
        adj[s].append((i, o, d))
    start = frozenset([m.initial])
    index = {start: 0}
    subsets = [start]
    arcs = []
    for src, subset in enumerate(subsets):
        by_label = {}
        for q in subset:
            for i, o, d in adj[q]:
                by_label.setdefault((i, o), set()).add(d)
        for i, o in sorted(by_label):
            nxt = frozenset(by_label[i, o])
            if nxt not in index:
                index[nxt] = len(subsets)
                subsets.append(nxt)
            arcs.append((src, i, o, index[nxt]))
    finals = {k for k, subset in enumerate(subsets) if subset & m.finals}
    return len(subsets), 0, finals, arcs


def _subset_inputs(rng, tb):
    """Arc machines (untrimmed, numbered anyhow, deterministic or not) and
    machines the library builds, several of them their own subset machine."""
    def arc_machine():
        return random_arc_machine(rng, tb, max_states=rng.randint(1, 4),
                                  recognizer=rng.random() < 0.5)

    def regex():
        return build_regex(random_regex(rng, "ab", 3), tb)

    makers = [
        arc_machine,
        lambda: minimize(regex()),
        lambda: minimize(arc_machine(), pair_atomic=True),
        lambda: compose(arc_machine(), arc_machine()),
        lambda: literal(tb, rng.choice("ab")),
        lambda: sigma_star(tb, rng.sample(tb.all_ids(), rng.randint(0, 3))),
        lambda: load_text(dump_text(rng.choice([arc_machine, regex])())),
    ]
    for k in range(700):
        yield makers[k % len(makers)]()


def test_subset_construct_matches_the_full_construction():
    rng = random.Random(2031)
    tb = SymbolTable("ab")
    seen = {"own": 0, "built": 0, "built_deterministic": 0}
    for m in _subset_inputs(rng, tb):
        want = _reference_subset(m)
        own = fsm._is_own_subset_machine(m)
        seen["own" if own else "built"] += 1
        labels = {(s, i, o) for s, i, o, _ in m.arcs}
        if not own and len(labels) == len(m.arcs):
            seen["built_deterministic"] += 1
        n, initial, finals, arcs = fsm._subset_construct(m)
        assert (n, initial, set(finals), list(arcs)) == \
            (want[0], want[1], want[2], want[3]), m
        assert fsm._subset_construct(m, n) is not None
        if n > 1:
            assert fsm._subset_construct(m, n - 1) is None
    assert min(seen.values()) >= 20, seen


def test_minimize_is_a_fixed_point():
    # arc machines are taken untrimmed, as given, and regexes as the
    # constructors build them
    rng = random.Random(2028)
    tb = SymbolTable("ab")
    for k in range(400):
        if k % 2:
            m = random_arc_machine(rng, tb, max_states=5, recognizer=True)
        else:
            m = build_regex(random_regex(rng, "ab", 3), tb)
        mini = minimize(m)
        assert canonicalize(mini).same_structure(mini)
        assert minimize(mini).same_structure(mini)


def test_minimize_trims_dead_subset_states():
    # an untrimmed arc machine for b*: states 3 and 4 cannot reach a
    # final state, so its subset machine has dead states
    tb = SymbolTable("ab")
    a, b = (tb.id_of(g) for g in "ab")
    arcs = [(0, b, 0), (0, b, 2), (0, b, 3), (1, a, 0), (1, a, 2), (1, a, 4),
            (1, b, 1), (2, b, 0), (3, b, 4), (4, a, 3)]
    m = Fst(tb, 5, 0, frozenset([0, 2]),
            tuple(sorted((s, i, i, d) for s, i, d in arcs)), True)
    assert minimize(m).n == 1
    assert equivalent(m, star(literal(tb, "b")))


def _random_accessible_dfa(rng, tb, n, recognizer):
    """A deterministic machine of `n` states, every one reachable from
    state 0, in no canonical numbering, untrimmed, with any finals at all;
    a transduction's labels are pairs, one side of which may be epsilon."""
    syms = list(tb.user_ids())
    if recognizer:
        labels = [(i, i) for i in syms]
    else:
        labels = [(i, o) for i in syms + [EPS] for o in syms + [EPS]
                  if (i, o) != (EPS, EPS)]
    free = [list(labels) for _ in range(n)]  # labels with no arc yet, by state
    arcs = []

    def arc(s, d):
        free[s].remove(label := rng.choice(free[s]))
        arcs.append((s, *label, d))
    for q in range(1, n):  # a spanning tree from state 0
        arc(rng.choice([p for p in range(q) if free[p]]), q)
    for _ in range(rng.randint(0, 2 * n)):
        s = rng.randrange(n)
        if free[s]:
            arc(s, rng.randrange(n))
    finals = frozenset(q for q in range(n) if rng.random() < 0.3)
    return Fst(tb, n, 0, finals, tuple(sorted(arcs)), fsm._is_recognizer(arcs))


def test_the_reversal_of_an_accessible_dfa_determinizes_to_its_minimal_machine():
    rng = random.Random(2041)
    tb = SymbolTable("abc")
    seen = collections.Counter()
    for k in range(600):
        m = _random_accessible_dfa(rng, tb, rng.randint(1, 7), k % 2 == 0)
        got = fsm._determinize_reversal(tb, m.n, m.initial, m.finals, m.arcs)
        want = reduce_pairs(reverse(m))
        assert got.same_structure(want), k
        assert got.is_recognizer == want.is_recognizer, k
        seen["transduction"] += not m.is_recognizer
        seen["no final"] += not m.finals
        seen["single state"] += m.n == 1
        seen["merged"] += got.n < m.n
    assert min(seen.values()) >= 30, seen


def test_intersection_and_difference_are_set_operations():
    rng = random.Random(2029)
    tb = SymbolTable("ab")
    for k in range(300):
        a = build_regex(random_regex(rng, "ab", 3), tb)
        if k % 3:
            b = build_regex(random_regex(rng, "ab", 3), tb)
        else:
            b = random_arc_machine(rng, tb, max_states=4, recognizer=True)
        la, lb = lang_enum(a, 4), lang_enum(b, 4)
        both, rest = intersection(a, b), difference(a, b)
        assert lang_enum(both, 4) == la & lb
        assert lang_enum(rest, 4) == la - lb
        assert both.same_structure(minimize(both))
        assert rest.same_structure(minimize(rest))
        assert both.same_structure(intersection(b, a))
