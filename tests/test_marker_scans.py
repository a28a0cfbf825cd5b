"""The marker factors built as one writing scan each, against the builds
they replace (`reference`).

`r_right` and `f_phi` insert their markers in one backward scan,
`longest_match` deletes the rb2 cells in one, `l1` and `l2` delete
their markers in one forward scan each, and `left_to_right` reads a
region's content in one forward scan that deletes its lb2 cells
(`MarkerKit._scan`).  Each must build the very machine of the
composition it stands for: a filter composed with `intro` or `strip` and
reduced, the filter compiled from the rule language's predefined macros,
the paper's formulas `l_iff_r`, `if_s_then_p` and `not($$(...))`, or
`ign` composed with `strip`.  The kit's `ign`, a forward scan that
writes nothing, must build the paper's `ign` wherever the pattern holds
no ignored cell.  Both sides are reduced forms, so equal pair languages
give equal structure."""

import importlib
import itertools
import random

import pytest

from fsrw import (
    EPS,
    FsmError,
    Fst,
    MarkerKit,
    SymbolTable,
    canonicalize,
    compile_rules,
    concat,
    difference,
    empty_lang,
    empty_string,
    literal,
    project,
    reduce_pairs,
    replace_factors,
    star,
    transduce,
    union,
    word,
)

from gen import (RULE_FILES, build_regex, random_cell_pattern, random_regex,
                 random_replace_rule, record_store)
from reference import (RULES, SCANNED, guarded, ign, longest_match, mark_iff,
                       not_, strip, strip_not_containing)

replace_module = importlib.import_module("fsrw.replace")


def test_scans_match_their_formulas_on_random_rules(store):
    # every scan factor of each rule under each flag pair it reads; an
    # unsafe stack only where dom(T) cannot match the empty string
    rng = random.Random(20261018)
    seen = {"phi_eps": 0, "input_eps": 0, "untrimmed": 0, "right_eps": 0,
            "optimized": 0, "unsafe": 0}
    checked = dict.fromkeys(SCANNED, 0)
    for k in range(150):
        table, t, left, right = random_replace_rule(rng)
        phi_eps = project(t, "domain").accepts_epsilon()
        seen["phi_eps"] += phi_eps
        seen["input_eps"] += any(i == EPS for _, i, _, _ in t.arcs)
        seen["untrimmed"] += not canonicalize(t).same_structure(t)
        seen["right_eps"] += right.accepts_epsilon()
        store.empty()
        kit = MarkerKit.of(table)
        phi, left_cells, right_cells = (kit.non_markers_of(e) for e in
                                        (project(t, "domain"), left, right))
        args = {"r_right": right_cells, "f_phi": phi, "left_to_right": phi,
                "longest_match": phi, "l1": left_cells, "l2": left_cells}
        done = set()
        for optimized in (False, True):
            for stack_safe in (True, False) if not phi_eps else (True,):
                flags = (optimized, stack_safe)
                factors = replace_factors(t, left, right, *flags)
                for name, (place, build, read) in SCANNED.items():
                    key = (name,) + tuple(flags[f] for f in read)
                    if key in done:
                        continue
                    done.add(key)
                    want = build(kit, args[name], *key[1:])
                    assert factors[place].same_structure(want), (k, key)
                    checked[name] += 1
                seen["optimized"] += optimized
                seen["unsafe"] += not stack_safe
    assert checked["r_right"] == checked["f_phi"] == checked["left_to_right"] == 150
    assert checked["longest_match"] > 2 * 150 and checked["l1"] > 150
    for what, count in seen.items():
        assert count >= 10, (what, seen)


def test_every_stored_factor_is_its_reference_build(store):
    # every scan factor that compiling the rule files stores, as one
    # machine and as a cascade, rebuilt from the machines and flags of its
    # key on a table of the key's shape
    seen, tables = record_store(store)
    for path in RULE_FILES:
        compiled = compile_rules(path.read_text())
        compiled.machine
        if compiled.kind == "replace":
            compiled.factors()
    store.undo()
    checked = dict.fromkeys(SCANNED, 0)
    for (shape, op, *args), parts in seen.items():
        name, *flags = op.split()
        if name in SCANNED:
            table = tables[shape]
            kit = MarkerKit(table)
            want = SCANNED[name][1](kit, *[Fst(table, *a) for a in args],
                                    *map(int, flags))
            assert Fst(table, *parts).same_structure(want), op
            checked[name] += 1
    assert min(checked.values()) >= 5, checked


@pytest.fixture
def kit():
    return MarkerKit(SymbolTable("ab"))


def test_not_contains_edge_cases(kit):
    # an empty K excludes nothing, a K holding [] excludes everything
    scan = replace_module._not_contains
    for k in (empty_lang(kit.table), empty_string(kit.table),
              star(kit.lb1), union(kit.rb2, empty_string(kit.table))):
        for cell in (kit.rb2, kit.lb):
            assert scan(kit, k, cell).same_structure(strip_not_containing(kit, k, cell))
    assert scan(kit, empty_lang(kit.table), kit.rb2).same_structure(
        reduce_pairs(strip(kit, kit.rb2)))
    assert scan(kit, empty_string(kit.table), kit.rb2).is_empty()


def test_longest_match_edge_domains(kit):
    # an empty domain, one of [] alone, one that holds [], one whose
    # strings are prefixes of each other, and one with a star before its
    # last symbol, under each flag pair (optimized, stack_safe)
    t = kit.table
    a, b = literal(t, "a"), literal(t, "b")
    domains = (empty_lang(t), empty_string(t), a, word(t, "ab"), star(a),
               union(a, word(t, "ab")), concat(star(word(t, "ab")), b))
    for domain, flags in itertools.product(domains, itertools.product((False, True),
                                                                      (True, False))):
        phi = kit.non_markers_of(domain)
        got = replace_module.longest_match(kit, phi, *flags)
        assert got.same_structure(longest_match(kit, phi, *flags)), flags


def test_mark_iff_and_guard_before_edge_cases(kit):
    # an empty P; a P that reads a cell it ignores, as `f_phi`'s rb2; a
    # written cell that is ignored too, as `r_right`'s rb2
    t = kit.table
    a = kit.non_markers_of(literal(t, "a"))
    for p in (empty_lang(t), empty_string(t), a, star(a), kit.xsig_star,
              concat(a, kit.rb2)):
        for cell in (kit.lb2, kit.rb2, kit.lb):
            for ignore in (None, kit.b2, kit.rb2):
                assert replace_module._mark_iff(kit, cell, p, ignore).same_structure(
                    mark_iff(kit, cell, p, ignore)), ignore
            for ignore, rule in itertools.product((None, kit.lb2, kit.rb), RULES):
                assert replace_module._guard_before(
                    kit, cell, p, ignore, rule=rule).same_structure(
                        guarded(kit, cell, p, ignore, rule))


def test_guard_before_matches_its_formula_on_random_patterns(kit):
    # both rules, every C and I among five marker sets, over random cell
    # patterns: where I holds C, a C cell is asked about and then erased
    rng = random.Random(20261020)
    sets = [getattr(kit, name) for name in ("lb1", "lb2", "lb", "rb2", "rb")]
    for k in range(24):
        p = random_cell_pattern(rng, kit)
        for cell, ignore, rule in itertools.product(sets, sets, RULES):
            assert replace_module._guard_before(
                kit, cell, p, ignore, rule=rule).same_structure(
                    guarded(kit, cell, p, ignore, rule)), (k, rule)


def test_mark_iff_matches_its_formula_on_random_patterns(kit):
    # every C among three cells and I among six marker sets, over random
    # cell patterns: where I holds C, a written cell may be skipped too
    rng = random.Random(20261021)
    cells = [getattr(kit, name) for name in ("lb1", "lb2", "rb2")]
    ignores = [getattr(kit, name)
               for name in ("lb1", "lb2", "rb2", "b2", "brack", "lb")]
    for k in range(150):
        p = random_cell_pattern(rng, kit)
        for cell, ignore in itertools.product(cells, ignores):
            assert replace_module._mark_iff(kit, cell, p, ignore).same_structure(
                mark_iff(kit, cell, p, ignore)), k


@pytest.mark.parametrize("glyphs", [("a", "b"), ("a", "<1"), ("<2", "2>", "0", "1")])
def test_ign_is_its_composition_on_patterns_without_its_cells(store, glyphs):
    # the kit's forward scan against the paper's `ign`, range(e o intro(s)),
    # for s among lb1, b2 and brack: on random encoded images, over user
    # glyphs that print as brackets too, and on random cell patterns with
    # every s cell taken out
    rng = random.Random(4800 + len(glyphs))
    kit = MarkerKit(SymbolTable(list(glyphs)))
    for k in range(40):
        image = kit.non_markers_of(build_regex(random_regex(rng, glyphs), kit.table))
        cells = random_cell_pattern(rng, kit)
        for s in (kit.lb1, kit.b2, kit.brack):
            for e in (image, difference(cells, kit.contains(s))):
                assert kit.ign(e, s).same_structure(ign(kit, e, s)), k


def test_mark_iff_reads_bracket_glyphs_as_text(kit):
    # "<2" with flag 0 is an ordinary cell, so it neither marks nor needs
    # to be marked; only "<2" with flag 1 is the marker, which is written
    # and never read
    a = kit.non_markers_of(literal(kit.table, "a"))
    m = replace_module._mark_iff(kit, kit.lb2, a)

    def outputs(*cells):
        return transduce(m, list(cells)).outputs
    assert outputs("a", "0") == [("<2", "1", "a", "0")]
    assert outputs("<2", "0", "a", "0") == [("<2", "0", "<2", "1", "a", "0")]
    assert outputs("<2", "0") == [("<2", "0")]
    assert outputs("<2", "1", "a", "0") == []


def test_the_scans_refuse_a_transduction(kit):
    # like `not`, which is a difference: a scan reads a language of cell
    # strings, not the input side of a transduction
    t = kit.cross(kit.sig, kit.lb1)
    mark_iff, guard_before = replace_module._mark_iff, replace_module._guard_before
    for scan in (lambda: guard_before(kit, kit.lb1, t),
                 lambda: guard_before(kit, t, kit.xsig_star),
                 lambda: guard_before(kit, kit.lb1, kit.xsig_star, t),
                 lambda: mark_iff(kit, kit.lb1, t),
                 lambda: mark_iff(kit, t, kit.sig),
                 lambda: replace_module._not_contains(kit, t, kit.rb2),
                 lambda: not_(kit, t),
                 lambda: kit.ign(t, kit.lb1),
                 lambda: kit.ign(kit.xsig_star, t)):
        with pytest.raises(FsmError, match="of a transduction is undefined"):
            scan()
