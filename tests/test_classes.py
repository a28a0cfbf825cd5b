"""`replace` and `lm_concat` fold their construction over the symbol
classes of their pieces (`fsrw.classes`): the user symbols each piece
only copies, on the same arcs, share one representative.  Every result
must be the machine the construction builds over the whole table."""

import collections
import importlib
import itertools
import random

import pytest

import fsrw.capture
import fsrw.classes
import fsrw.fsm
from fsrw import EPS, compile_rules, enumerate_pairs, lm_concat

from gen import ROOT, random_class_rule


# the package re-exports the function replace under the module's name
replace_module = importlib.import_module("fsrw.replace")
FOLDING = (replace_module, fsrw.capture)


def whole_table(pieces, build):
    return build(*pieces)


@pytest.fixture
def folds(monkeypatch):
    """The tables each fold builds over, fold by fold."""
    calls = []
    fold = fsrw.classes.fold_over_classes

    def recording(pieces, build):
        tables = []
        calls.append(tables)
        return fold(pieces, lambda *ps: (tables.append(ps[0].table), build(*ps))[1])
    for module in FOLDING:
        monkeypatch.setattr(module, "fold_over_classes", recording)
    return calls


def compiled(program, flags):
    if program.kind == "replace":
        return replace_module.replace(*program.pieces, *flags)
    return lm_concat(program.pieces)


def mentioned(program) -> set:
    return {program.table.glyph(x) for p in program.pieces
            for _, i, o, _ in p.arcs for x in (i, o) if x != EPS}


def over_whole_table(monkeypatch, program, flags):
    with monkeypatch.context() as mp:
        for module in FOLDING:
            mp.setattr(module, "fold_over_classes", whole_table)
        return compiled(program, flags)


def test_the_class_fold_is_the_build_over_the_whole_table(monkeypatch, folds):
    # pieces copy {c, d}, ?, ? - x and the unmentioned e and f alike; pairs,
    # insertions and cross products keep their symbols apart; replace
    # rules under every flag pair
    rng = random.Random(35)
    merged = collections.Counter()
    for kind, flag_pairs in [
            ("replace", list(itertools.product((False, True), (True, False)))),
            ("lm_concat", [()])]:
        for _ in range(40):
            program = compile_rules(random_class_rule(rng, kind))
            mentions = mentioned(program)
            for flags in flag_pairs:
                folds.clear()
                m = compiled(program, flags)
                want = over_whole_table(monkeypatch, program, flags)
                assert m.table is program.table
                assert m.same_structure(want), (kind, flags)
                assert m.is_recognizer == want.is_recognizer
                (tables,) = folds
                # a symbol that some piece mentions shares a representative
                dropped = (set(program.table.user_glyphs())
                           - set(tables[0].user_glyphs()))
                merged[kind] += not dropped.isdisjoint(mentions)
    assert min(merged.values()) >= 20, merged


@pytest.mark.parametrize("rule, cap", [
    ("replace([{a, c:b}, a, {a, b:a}*], [], [b, b])", 16),
    ("replace(a x b, c, {a, d})", 4),
])
def test_a_fold_past_the_reduction_cap_keeps_the_relation(monkeypatch, store,
                                                          folds, rule, cap):
    # past the cap reduce_pairs returns its input, so the fold expands a
    # nondeterministic machine whose arcs depend on how it was built; its
    # relation is still the one the whole-table build gives.  The store
    # starts empty and is put back after, as machines built under the
    # small cap may be unreduced.
    monkeypatch.setattr(fsrw.fsm, "REDUCE_STATE_CAP", cap)
    program = compile_rules("#alphabet a b c d x e f.\n%s.\n" % rule)
    m = program.machine
    (tables,) = folds
    assert tables[0] is not program.table
    assert not fsrw.fsm._is_own_subset_machine(m)
    want = over_whole_table(monkeypatch, program, ())
    assert enumerate_pairs(m, 4) == enumerate_pairs(want, 4)


@pytest.mark.parametrize("rule, apart", [
    ("replace({a:b, b:a}, {a, b}, {a, b})", "ab"),
    ("replace([{a, b}, ({a, b}) x ({a, b})], [], {a, b})", "ab"),
    ("lm_concat([[(? - x)*, []:x], ?*])", "x"),
    ("lm_concat([[{c, d}*, []:c], {c, d}*])", "cd"),
])
def test_symbols_on_other_arcs_stay_apart(monkeypatch, folds, rule, apart):
    # a swap, a cross product of a set with itself, and a symbol copied in
    # one piece but inserted in another: each keeps its symbols apart,
    # while the symbols the pieces copy alike still share one
    program = compile_rules("#alphabet a b c d x e f.\n%s.\n" % rule)
    folds.clear()
    m = compiled(program, ())
    assert m.same_structure(over_whole_table(monkeypatch, program, ()))
    (tables,) = folds
    assert set(apart) <= set(tables[0].user_glyphs())
    assert tables[0] is not program.table


@pytest.mark.parametrize("name, users", [("lm3", 3), ("lm5", 3), ("topological", 9)])
def test_the_corpus_captures_fold_over_their_symbol_classes(monkeypatch, folds,
                                                            name, users):
    # over a-z and '#', the consonants and the vowels each share one
    # representative, and '#', inserted, stays apart; topological's pieces
    # copy no two symbols from the same states, so none is reduced
    reduced = []
    reduce_pairs = fsrw.classes.reduce_pairs
    monkeypatch.setattr(fsrw.classes, "reduce_pairs",
                        lambda m: reduced.append(m) or reduce_pairs(m))
    path = ROOT / ("rules" if name == "topological" else "bench/rules") / (name + ".fsr")
    program = compile_rules(path.read_text())
    (tables,) = folds
    assert [len(t.user_ids()) for t in tables] == [users]
    if name == "topological":
        assert tables == [program.table] and reduced == []
    else:
        assert "#" in tables[0].user_glyphs() and len(reduced) == len(program.pieces)
