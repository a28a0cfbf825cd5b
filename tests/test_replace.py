"""The rewrite-rule compiler against the scanning semantics.

Expected outputs were derived by hand (and cross-checked with
oracle_replace) before being frozen here.  The rule applies its target
leftmost-longest, reads the left context on the output written so far and
the right context on the input still ahead."""

import collections
import importlib
import itertools
import random
import time
from pathlib import Path

import pytest

import fsrw.markers as markers
from fsrw import (
    EPS,
    Fst,
    FsmError,
    Oracle,
    SymbolTable,
    compile_rules,
    compose,
    compose_cascade,
    concat,
    cross_product,
    empty_string,
    enumerate_pairs,
    equivalent,
    literal,
    oracle_replace,
    project,
    replace,
    replace_factors,
    star,
    transduce,
    union,
    word,
)
from fsrw.fsm import _reach

from gen import all_strings, count_memo, random_replace_rule

BENCH_RULES = Path(__file__).resolve().parent.parent / "bench" / "rules"

# the package re-exports the function replace under the module's name
replace_module = importlib.import_module("fsrw.replace")


def tb():
    return SymbolTable("abx")


def rule(table, src, dst, left="", right="", **kw):
    t = cross_product(src, word(table, dst))
    l = word(table, left) if left else empty_string(table)
    r = word(table, right) if right else empty_string(table)
    return replace(t, l, r, **kw)


def out(m, s):
    res = transduce(m, list(s))
    assert not res.truncated
    return set(res.strings())


def test_unconditional_single_symbol():
    t = tb()
    m = rule(t, literal(t, "a"), "b")
    assert out(m, "axa") == {"bxb"}
    assert out(m, "") == {""}
    assert out(m, "aaa") == {"bbb"}


def test_longest_match_is_preferred():
    t = tb()
    m = rule(t, concat(literal(t, "a"), star(literal(t, "b"))), "x")
    assert out(m, "abb") == {"x"}
    assert out(m, "abab") == {"xx"}
    assert out(m, "ba") == {"bx"}


def test_left_context_sees_the_output():
    t = tb()
    m = rule(t, literal(t, "a"), "x", left="x")
    assert out(m, "xaa") == {"xxx"}
    assert out(m, "aa") == {"aa"}


def test_right_context_sees_the_input():
    t = tb()
    m = rule(t, literal(t, "a"), "b", right="b")
    assert out(m, "aabab") == {"abbbb"}
    assert out(m, "aa") == {"aa"}


def test_both_contexts():
    t = tb()
    m = rule(t, literal(t, "a"), "x", left="b", right="b")
    assert out(m, "bab") == {"bxb"}
    assert out(m, "ba") == {"ba"}
    assert out(m, "ab") == {"ab"}


def test_empty_string_in_domain():
    t = tb()
    m = rule(t, star(literal(t, "a")), "x")
    assert out(m, "") == {"x"}
    assert out(m, "a") == {"x"}
    assert out(m, "b") == {"xbx"}
    assert out(m, "ab") == {"xbx"}
    assert out(m, "aa") == {"x"}
    assert out(m, "bb") == {"xbxbx"}


def test_empty_string_in_domain_with_right_context():
    t = tb()
    src = union(empty_string(t), literal(t, "a"))
    m = replace(cross_product(src, word(t, "ab")),
                empty_string(t), literal(t, "b"), )
    assert out(m, "ab") == {"abb"}


def test_adjacent_deletions():
    # a fully deleted match leaves only its start marker behind, so the
    # next match's left-context check must see through a trailing marker
    t = tb()
    target = cross_product(literal(t, "a"), empty_string(t))
    eps = empty_string(t)
    m = replace(target, eps, eps)
    assert out(m, "aa") == {""}
    assert out(m, "aab") == {"b"}
    m2 = replace(target, eps, literal(t, "a"))
    assert out(m2, "aaa") == {"a"}


def test_multivalued_target():
    t = tb()
    target = cross_product(literal(t, "a"),
                           union(literal(t, "b"), literal(t, "x")))
    m = replace(target, empty_string(t), empty_string(t))
    assert out(m, "aa") == {"bb", "bx", "xb", "xx"}


def test_target_must_not_be_constrained_to_recognizers():
    # contexts must be recognizers, the target need not be
    t = tb()
    bad = cross_product(literal(t, "a"), literal(t, "b"))
    with pytest.raises(FsmError, match="left context must be a recognizer"):
        replace(bad, bad, empty_string(t))
    with pytest.raises(FsmError, match="right context must be a recognizer"):
        replace(bad, empty_string(t), bad)


def test_factor_count():
    t = tb()
    parts = replace_factors(cross_product(literal(t, "a"), word(t, "b")),
                            empty_string(t), empty_string(t))
    assert len(parts) == 9


def test_marker_glyphs_in_the_user_alphabet():
    # the bracket glyphs double as ordinary user symbols
    t = SymbolTable(["<1", "1>", "<2", "2>", "0", "1", "a"])
    m = rule(t, literal(t, "<1"), "a")
    res = transduce(m, ["<1", "0", "<1"])
    assert set(res.strings()) == {"a0a"}


def test_agrees_with_oracle_on_pinned_rules():
    t = tb()
    cases = [
        (literal(t, "a"), "b", "", ""),
        (concat(literal(t, "a"), star(literal(t, "b"))), "x", "", ""),
        (literal(t, "a"), "x", "x", ""),
        (literal(t, "a"), "b", "", "b"),
        (star(literal(t, "a")), "x", "", ""),
        (union(empty_string(t), literal(t, "b")), "a", "", "x"),
    ]
    for src, dst, lc, rc in cases:
        target = cross_product(src, word(t, dst))
        l = word(t, lc) if lc else empty_string(t)
        r = word(t, rc) if rc else empty_string(t)
        m = replace(target, l, r)
        for s in all_strings("abx", 4):
            want = oracle_replace(target, l, r, s)
            assert out(m, s) == want, (dst, lc, rc, s)


def machine_relation(m, max_len):
    rel = {}
    for inp, outp in enumerate_pairs(m, max_len):
        rel.setdefault(inp, set()).add(outp)
    return rel


def test_agrees_with_oracle_on_random_rules():
    rng = random.Random(99)
    for trial in range(12):
        table, t, left, right = random_replace_rule(rng)
        m = replace(t, left, right)
        rel = machine_relation(m, 5)
        glyphs = "".join(table.user_glyphs())
        for s in all_strings(glyphs, 5):
            want = {"".join(o) for o in
                    (oracle_replace(t, left, right, "".join(s)),)}
            got = {"".join(o) for o in rel.get(tuple(s), set())}
            want = oracle_replace(t, left, right, "".join(s))
            assert got == want, (trial, s)


def test_verbatim_formulas_match_on_epsilon_free_domains():
    t = tb()
    target = cross_product(concat(literal(t, "a"), star(literal(t, "b"))),
                           word(t, "x"))
    eps = empty_string(t)
    safe = replace(target, eps, eps, stack_safe=True)
    verbatim = replace(target, eps, eps, stack_safe=False)
    for s in all_strings("abx", 4):
        assert out(safe, s) == out(verbatim, s)


def test_verbatim_formulas_break_on_epsilon_domains():
    # with the empty string in the domain every unused candidate start
    # carries a stacked opener pair; the strict no-insert-at-end prefix
    # language in the verbatim left filter gives those tapes no image,
    # so a nonempty left context empties the whole machine
    t = tb()
    target = cross_product(star(literal(t, "a")), word(t, "x"))
    eps = empty_string(t)
    safe = replace(target, literal(t, "b"), eps, stack_safe=True)
    verbatim = replace(target, literal(t, "b"), eps, stack_safe=False)
    assert out(safe, "b") == {"bx"}
    res = transduce(verbatim, ["b"])
    assert set(res.strings()) == set()


def test_optimized_filter_gives_the_same_machine():
    t = tb()
    for src in (literal(t, "a"),
                concat(literal(t, "a"), star(literal(t, "b"))),
                star(literal(t, "a"))):
        target = cross_product(src, word(t, "x"))
        eps = empty_string(t)
        plain = replace(target, eps, eps, optimized=False)
        fast = replace(target, eps, eps, optimized=True)
        assert equivalent(plain, fast)


def test_five_state_arc_target_compiles_in_seconds():
    # a left-context filter built from double complements once took over
    # ten minutes on this T: its subset machine tracked every open match
    t = SymbolTable("abc")
    a, b, c = (t.id_of(g) for g in "abc")
    arcs = [(0, b, EPS, 1), (1, b, c, 2), (2, a, c, 0), (2, b, a, 3),
            (2, c, c, 1), (3, b, a, 0), (3, b, b, 4), (3, c, c, 0),
            (4, a, c, 0), (4, b, c, 0), (4, c, c, 2)]
    target = Fst(t, 5, 0, frozenset([0, 1, 3, 4]), tuple(sorted(arcs)), False)
    left = union(word(t, "c"), word(t, "bc"))
    right = word(t, "a")
    t0 = time.monotonic()
    m = replace(target, left, right)
    assert time.monotonic() - t0 < 10.0
    rel = machine_relation(m, 6)
    oracle = Oracle(target, left, right)
    inputs = all_strings("abc", 6)
    assert len(inputs) == 1093
    for s in inputs:
        got = {"".join(o) for o in rel.get(tuple(s), set())}
        assert got == oracle.replace(list(s)), s


def factor_tables(monkeypatch) -> list:
    """The tables `replace` builds its factors over, call by call."""
    tables = []

    def recording(t, *args):
        tables.append(t.table)
        return replace_factors(t, *args)
    monkeypatch.setattr(replace_module, "replace_factors", recording)
    return tables


def test_a_rule_folds_over_its_own_alphabet_as_over_its_table(monkeypatch):
    # the user symbols no piece mentions (up to four are added to the
    # table after the pieces are built) share one representative while the
    # rule folds; the machine is the fold of the factors over the whole
    # table, under every flag pair
    rng = random.Random(34)
    tables = factor_tables(monkeypatch)
    collapsed = 0
    for _ in range(260):
        table, t, left, right = random_replace_rule(rng)
        for g in "defg"[:rng.randint(0, 4)]:
            table.add_user(g)
        for flags in itertools.product((False, True), (True, False)):
            tables.clear()
            m = replace(t, left, right, *flags)
            want = compose_cascade(replace_factors(t, left, right, *flags))
            assert m.table is table
            assert m.same_structure(want), flags
            assert m.is_recognizer == want.is_recognizer
        collapsed += tables[0] is not table
    assert collapsed >= 150, collapsed


@pytest.mark.parametrize("extra", ["", "xyz"])
def test_bad_pieces_fail_as_before_whether_or_not_the_rule_collapses(
        monkeypatch, extra):
    # the pieces are checked before any symbol is collapsed; over "ab" the
    # pieces mention every user symbol, over "abxyz" x, y and z collapse
    table, other = SymbolTable("ab" + extra), SymbolTable("ab" + extra)
    t = cross_product(literal(table, "a"), literal(table, "b"))
    eps, far = empty_string(table), empty_string(other)
    far_t = cross_product(literal(other, "a"), literal(other, "b"))
    tables_msg = "^machines built against different symbol tables$"
    for pieces, msg in [((t, far, eps), tables_msg), ((t, eps, far), tables_msg),
                        ((far_t, eps, eps), tables_msg),
                        ((t, t, eps), "^left context must be a recognizer$"),
                        ((t, eps, t), "^right context must be a recognizer$"),
                        ((t, far_t, eps), "^left context must be a recognizer$")]:
        with pytest.raises(FsmError, match=msg):
            replace(*pieces)
    tables = factor_tables(monkeypatch)
    replace(t, eps, eps)
    assert (tables[0] is not table) == bool(extra)


@pytest.mark.parametrize("name, sizes", [("cascade27", [12, 4, 3, 4]),
                                         ("devoice27", [12])])
def test_the_corpus_rules_fold_over_their_own_alphabets(monkeypatch, name,
                                                        sizes):
    # over a-z and '#', each rule's factors are built over one
    # representative of each symbol class: the symbols its pieces mention
    # on other arcs stay apart, p and b (cascade27's second rule) and the
    # five vowels (its fourth) each share one, and so do all the others
    tables = factor_tables(monkeypatch)
    compile_rules((BENCH_RULES / (name + ".fsr")).read_text()).machine
    assert [len(t.user_ids()) for t in tables] == sizes


def untrimmed(m: Fst) -> bool:
    """Whether some state of `m` is unreachable or reaches no final."""
    ahead, behind = [[] for _ in range(m.n)], [[] for _ in range(m.n)]
    for s, _, _, d in m.arcs:
        ahead[s].append(d)
        behind[d].append(s)
    return min(len(_reach([m.initial], ahead)), len(_reach(m.finals, behind))) < m.n


def empty_store(monkeypatch):
    monkeypatch.setattr(markers, "_shape_cache", {})
    monkeypatch.setattr(markers, "_shape_cache_arcs", 0)


def test_the_fold_by_piece_is_the_fold_of_the_nine_factors(monkeypatch):
    # replace composes the encoder with r_right, f_phi with left_to_right,
    # and l1 with l2 and the decoder, keeps each group in the store, and
    # folds five machines: composition is associative and each reduction
    # canonical, so the machine is the nine factors' fold, byte for byte,
    # from an empty store (cold) and from one holding the groups of every
    # flag pair (warm), under both filters, and with the verbatim filters
    # on ε-free domains
    rng = random.Random(37)
    lookups, builds = count_memo(monkeypatch)
    seen = collections.Counter()
    for _ in range(120):
        table, t, left, right = random_replace_rule(rng)
        eps_free = not project(t, "domain").accepts_epsilon()
        flag_pairs = list(itertools.product((False, True), (True, False)[:1 + eps_free]))
        empty_store(monkeypatch)
        wants = {}
        for flags in flag_pairs:
            got = replace(t, left, right, *flags)
            wants[flags] = compose_cascade(replace_factors(t, left, right, *flags))
            assert got.same_structure(wants[flags]), ("cold", flags)
        groups = lookups["composed"], builds.total()
        for flags in flag_pairs:
            assert replace(t, left, right, *flags).same_structure(wants[flags]), \
                ("warm", flags)
        # the warm folds look their three groups up and build nothing
        assert lookups["composed"] == groups[0] + 3 * len(flag_pairs)
        assert builds.total() == groups[1]
        seen["optimized"] += len(flag_pairs) // 2
        seen["verbatim"] += eps_free
        seen["untrimmed"] += untrimmed(t)
        seen["eps_domain"] += not eps_free
    assert min(seen.values()) >= 20, seen


def test_a_warm_rule_composes_five_machines(monkeypatch):
    # a rule whose groups are all stored composes four times, where the
    # nine-factor fold composed eight times
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return compose(a, b)
    for module in (replace_module, markers):
        monkeypatch.setattr(module, "compose", counted)
    empty_store(monkeypatch)
    rng = random.Random(38)
    for _ in range(10):
        _, t, left, right = random_replace_rule(rng)
        for flags in itertools.product((False, True), (True, False)):
            replace(t, left, right, *flags)
            calls.clear()
            replace(t, left, right, *flags)
            assert len(calls) == 4, flags
