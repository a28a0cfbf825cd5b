"""Marker-cell building blocks.

A cell is a glyph followed by a flag symbol: "0" for ordinary text, "1" for
a marker.  Markerhood is carried by the flag, so a bracket glyph with flag
"0" is ordinary text.  Expected values below are spelled as flat glyph
sequences with the flags written out."""

import importlib
import inspect
import itertools
import random

import pytest

import fsrw.markers as markers
from fsrw import (
    FsmError,
    Fst,
    MarkerKit,
    SymbolTable,
    accepts,
    any_of,
    compose,
    compose_cascade,
    concat,
    compile_rules,
    cross_product,
    difference,
    empty_lang,
    empty_string,
    equivalent,
    invert,
    lang_enum,
    literal,
    lm_concat,
    minimize,
    project,
    reduce_pairs,
    replace,
    replace_factors,
    RuleError,
    sigma_star,
    star,
    symbol_pair,
    union,
    word,
)
from fsrw.capture import overrun
from fsrw.dump import dump_text
from gen import (RULE_FILES, build_regex, count_memo, formula, random_context,
                 random_regex, random_replace_rule, random_target, record_store)


@pytest.fixture
def kit():
    return MarkerKit(SymbolTable("ab"))


def cells(kit, text):
    """'a b <2' -> ['a', '0', 'b', '0', '<2', '1'] etc."""
    out = []
    for g in text.split():
        out.append(g)
        out.append("1" if g in ("<1", "<2", "1>", "2>") else "0")
    return out


def test_sig_is_one_ordinary_cell(kit):
    assert accepts(kit.sig, ["a", "0"])
    # a bracket glyph with flag 0 is ordinary text, not a marker
    assert accepts(kit.sig, ["<1", "0"])
    assert not accepts(kit.sig, ["<1", "1"])
    assert not accepts(kit.sig, ["a", "0", "b", "0"])


def test_xsig_allows_markers_too(kit):
    assert accepts(kit.xsig, ["b", "0"])
    assert accepts(kit.xsig, ["2>", "1"])
    assert not accepts(kit.xsig, ["0", "a"])


def test_non_markers_of_encodes_a_recognizer(kit):
    lang = kit.non_markers_of(word(kit.table, "ab"))
    assert lang_enum(lang, 4) == {"a0b0"}


def test_non_markers_of_encodes_the_range_of_a_transduction(kit):
    t = cross_product(literal(kit.table, "a"), literal(kit.table, "b"))
    assert lang_enum(kit.non_markers_of(t), 4) == {"b0"}


def placements(kit, maker, text, bound=8):
    src = kit.non_markers_of(word(kit.table, list(text)))
    return lang_enum(project(compose(src, maker), "range"), bound)


def test_intro_family_placement(kit):
    everywhere = placements(kit, kit.intro(kit.lb2), "a")
    assert "a0" in everywhere
    assert "<21a0" in everywhere
    assert "a0<21" in everywhere

    not_at_start = placements(kit, kit.xintro(kit.lb2), "a")
    assert "<21a0" not in not_at_start
    assert "a0<21" in not_at_start

    not_at_end = placements(kit, kit.introx(kit.lb2), "a")
    assert "<21a0" in not_at_end
    assert "a0<21" not in not_at_end

    neither = placements(kit, kit.xintrox(kit.lb2), "ab")
    assert "a0<21b0" in neither
    assert "<21a0b0" not in neither
    assert "a0b0<21" not in neither


def test_intro_family_on_the_empty_string(kit):
    # with no cell to anchor the insertion, only the identity survives
    assert placements(kit, kit.xintro(kit.lb2), "") == {""}
    assert placements(kit, kit.introx(kit.lb2), "") == {""}
    assert placements(kit, kit.xintrox(kit.lb2), "") == {""}


def test_ign_family_are_projections(kit):
    base = kit.non_markers_of(word(kit.table, "ab"))
    seen = lang_enum(kit.ign(base, kit.lb1), 8)
    assert "a0b0" in seen
    assert "<11a0b0" in seen
    assert "a0<11b0" in seen
    assert "a0b0<11" in seen

    xign = lang_enum(formula(kit.table, "xign(E, S)", E=base, S=kit.lb1), 8)
    assert "<11a0b0" not in xign
    assert "a0b0<11" in xign

    ignx = lang_enum(kit.ignx(base, kit.lb1), 8)
    assert "<11a0b0" in ignx
    assert "a0b0<11" not in ignx

    xignx = lang_enum(kit.xignx(base, kit.lb1), 8)
    assert "a0<11b0" in xignx
    assert "<11a0b0" not in xignx
    assert "a0b0<11" not in xignx


def test_ignx_1_requires_an_insertion():
    # a predefined macro: wedged between raw symbols, an lb1 cell may
    # also split a cell, and is never at the end
    seen = lang_enum(rule("ignx_1(non_markers([a, b]), lb1())"), 8)
    assert "a0b0" not in seen
    assert "<11a0b0" in seen
    assert "a0<11b0" in seen
    assert "a0b0<11" not in seen
    assert "a<110b0" in seen


def test_not_and_contains_cover_cells_of_both_kinds(kit):
    a = kit.non_markers_of(literal(kit.table, "a"))
    outside = kit.not_(a)
    assert accepts(outside, [])
    assert accepts(outside, ["<2", "1"])
    assert accepts(outside, ["a", "0", "a", "0"])
    assert not accepts(outside, ["a", "0"])

    inside = kit.contains(a)
    assert accepts(inside, ["<2", "1", "a", "0"])
    assert not accepts(inside, ["b", "0"])


def _quantify(kit, machine, pred, max_cells=3):
    """Check the machine's language against a predicate over all short
    cell strings, markers included."""
    glyphs = ["a", "b", "<1", "2>"]
    lang = lang_enum(machine, 2 * max_cells)
    for n in range(max_cells + 1):
        for combo in itertools.product(glyphs, repeat=n):
            s = cells(kit, " ".join(combo))
            assert ("".join(s) in lang) == pred(list(combo)), combo


def rule(text):
    """The machine of a rule expression over the symbols a and b."""
    return compile_rules("#alphabet a b. %s." % text).machine


A_THEN = "[xsig()*, non_markers(a)]"
THEN_B = "[non_markers(b), xsig()*]"


def test_if_p_then_s(kit):
    # every prefix ending in an 'a' cell must continue with a 'b' cell
    m = rule("if_p_then_s(%s, %s)" % (A_THEN, THEN_B))

    def ok(combo):
        return all(i + 1 < len(combo) and combo[i + 1] == "b"
                   for i in range(len(combo)) if combo[i] == "a")
    _quantify(kit, m, ok)


def test_if_s_then_p(kit):
    # every suffix starting with a 'b' cell must come right after 'a'
    m = rule("if_s_then_p(%s, %s)" % (A_THEN, THEN_B))

    def ok(combo):
        return all(i > 0 and combo[i - 1] == "a"
                   for i in range(len(combo)) if combo[i] == "b")
    _quantify(kit, m, ok)


def test_l_iff_r(kit):
    # an 'a' cell exactly where a 'b' cell follows
    m = rule("l_iff_r(non_markers(a), non_markers(b))")

    def ok(combo):
        for i in range(len(combo) + 1):
            left = i > 0 and combo[i - 1] == "a"
            right = i < len(combo) and combo[i] == "b"
            if left != right:
                return False
        return True
    _quantify(kit, m, ok)


def test_first_constant_freezes_the_table():
    table = SymbolTable("ab")
    kit = MarkerKit(table)
    literal(table, "c")  # interning is open until a constant is built
    kit.sig
    assert lang_enum(literal(table, "c"), 1) == {"c"}  # a known glyph
    with pytest.raises(FsmError, match="frozen"):
        literal(table, "d")
    with pytest.raises(FsmError, match="frozen"):
        table.add_user("c")  # known, but not yet a user glyph
    assert "d" not in table
    assert table.user_glyphs() == ("a", "b")
    assert table.add_user("a") == table.id_of("a")


def test_match_n():
    assert lang_enum(rule("match_n(3, a)"), 3) == {"aaa"}
    assert lang_enum(rule("match_n(2, {a, b})"), 3) == {"aa", "ab", "ba", "bb"}
    assert lang_enum(rule("match_n(0, a)"), 3) == {""}
    with pytest.raises(RuleError, match="negative number of times"):
        rule("match_n(-1, a)")


def test_coerce_to_boolean():
    # anything nonempty collapses to true, emptiness to false
    true = dump_text(rule("true()"))
    assert dump_text(rule("coerce_to_boolean(a)")) == true
    assert dump_text(rule("coerce_to_boolean((a x []) o ([] x b))")) == true
    assert lang_enum(rule("coerce_to_boolean(false())"), 2) == set()


def test_true_false(kit):
    assert accepts(kit.true, ["a", "0", "<1", "b"])
    assert accepts(kit.true, [])
    assert lang_enum(kit.false, 3) == set()


def test_if_then_else():
    assert lang_enum(rule("if(a, non_markers(a), non_markers(b))"), 4) == {"a0"}
    assert lang_enum(rule("if(false(), non_markers(a), non_markers(b))"),
                     4) == {"b0"}


BRACKET_SETS = ("lb1", "lb2", "rb1", "rb2", "lb", "rb", "b1", "b2", "brack")
# the named constants, keyed as `unreduced_formulas` keys them (and the
# store too), each with the kit attribute that makes it
NAMED = {name: name for name in BRACKET_SETS + (
    "sig", "xsig", "xsig_star", "non_markers", "decoder", "true", "false")}


def parts_of(m):
    return (m.n, m.initial, m.finals, tuple(m.arcs), m.is_recognizer)


def store_key(kit, name):
    """The store's key of the constant keyed `name` by `unreduced_formulas`:
    a named one, or (op, bracket set) for an operation on a bracket set."""
    if isinstance(name, str):
        return kit._shape_key(), name
    op, s = name
    return kit._shape_key(), op, parts_of(getattr(kit, NAMED[s]))


def build_every_constant(kit):
    """Every constant of the kit, keyed as `unreduced_formulas` keys it:
    the named ones, and the intro family on each bracket set."""
    got = {name: getattr(kit, attr) for name, attr in NAMED.items()}
    for name in BRACKET_SETS:
        for op in ("intro", "xintro", "introx", "xintrox"):
            got[op, name] = getattr(kit, op)(got[name])
    return got


def unreduced_formulas(table):
    """Each kit constant as the formula it stands for, built from the fsm
    constructors with nothing reduced, keyed as the kit caches it."""
    t = table
    eps = empty_string(t)
    f = {}
    for name, glyph in zip(BRACKET_SETS[:4], SymbolTable.RESERVED[2:]):
        f[name] = concat(literal(t, glyph), literal(t, "1"))
    for name, (x, y) in (("lb", ("lb1", "lb2")), ("rb", ("rb1", "rb2")),
                         ("b1", ("lb1", "rb1")), ("b2", ("lb2", "rb2"))):
        f[name] = union(f[x], f[y])
    f["brack"] = union(f["lb1"], f["lb2"], f["rb1"], f["rb2"])
    f["sig"] = concat(any_of(t, t.encoded_ids()), literal(t, "0"))
    f["xsig"] = union(f["sig"], f["brack"])
    f["xsig_star"] = star(f["xsig"])
    f["non_markers"] = star(union(*[
        concat(literal(t, g), symbol_pair(t, None, "0"))
        for g in t.user_glyphs()]))
    f["decoder"] = invert(f["non_markers"])
    f["true"] = sigma_star(t, t.all_ids())
    f["false"] = empty_lang(t)
    for name in BRACKET_SETS:
        s = f[name]
        keep = difference(f["xsig"], s)
        intro = star(union(keep, cross_product(eps, s)))
        f["intro", name] = intro
        f["xintro", name] = union(eps, concat(keep, intro))
        f["introx", name] = union(eps, concat(intro, keep))
        f["xintrox", name] = union(eps, keep, concat(keep, intro, keep))
    return f


def reduced(m):
    return minimize(m) if m.is_recognizer else reduce_pairs(m)


def kit_methods():
    """The kit's public methods, each with its number of arguments."""
    return sorted((name, len(inspect.signature(f).parameters) - 1)
                  for name, f in vars(MarkerKit).items()
                  if inspect.isfunction(f) and not name.startswith("_"))


def every_method_call(kit, rng, rounds):
    """`rounds` calls of each public kit method, on random cell languages:
    the nine bracket sets and the encodings of random regexes; each
    `non_markers_of` gets a random regex itself."""
    def regex():
        return build_regex(random_regex(rng, "ab"), kit.table)
    pool = [getattr(kit, s) for s in BRACKET_SETS]
    pool += [kit.non_markers_of(regex()) for _ in range(6)]
    calls = []
    for _ in range(rounds):
        for name, arity in kit_methods():
            args = ([regex()] if name == "non_markers_of"
                    else [rng.choice(pool) for _ in range(arity)])
            calls.append((name, args))
    return calls


def test_every_constant_is_built_reduced(store):
    # the constants and every public method's results, each a fixed point
    # of the reduction, whether built (cold) or taken from the store (warm)
    table = SymbolTable("ab")
    calls = every_method_call(MarkerKit(table), random.Random(27), 3)
    assert {name for name, _ in calls} >= {"cross", "intro", "ign", "contains"}
    store.empty()
    _, builds = count_memo(store)
    built = []
    for warmth in ("cold", "warm"):
        kit = MarkerKit(table)
        for name, m in build_every_constant(kit).items():
            assert m.same_structure(reduced(m)), (warmth, name)
        for k, (name, args) in enumerate(calls):
            m = getattr(kit, name)(*args)
            assert m.same_structure(reduced(m)), (warmth, k, name)
        built.append(builds.total())
    assert built[0] == built[1]  # the warm pass built nothing


def test_every_constant_keeps_its_formula(store):
    kit = MarkerKit(SymbolTable("ab"))
    cache = build_every_constant(kit)
    formulas = unreduced_formulas(kit.table)
    assert set(cache) == set(formulas)
    # the touch, on an empty store, stored those constants, then the
    # overruns of `lm_concat`'s greed filters on three images stored
    # themselves, nothing else: the `ignx` each is built from is unstored
    images = [empty_lang(kit.table)] + [
        project(compose(word(kit.table, w), formulas["non_markers"]), "range")
        for w in ("a", "ab")]
    overruns = [overrun(kit, image) for image in images]
    entries = {(kit._shape_key(), "overrun", parts_of(image)) for image in images}
    assert set(markers._shape_cache) == {store_key(kit, name)
                                         for name in cache} | entries
    for name, m in cache.items():
        assert equivalent(m, formulas[name]), name
    for image, m in zip(images, overruns):
        ignx = project(compose(image, formulas["introx", "lb1"]), "range")
        assert equivalent(m, difference(ignx, image))
    assert lang_enum(overruns[2], 8) == {"<11a0b0", "a0<11b0", "<11<11a0b0",
                                         "<11a0<11b0", "a0<11<11b0"}


@pytest.mark.parametrize("builtin", ["$$", "intro", "xintro", "introx", "xintrox"])
def test_a_builtin_on_a_set_of_its_own_is_built_reduced(store, builtin):
    # on a set that is no bracket constant these were once built afresh
    # and left unreduced; the store reduces them as it reduces the rest
    m = compile_rules("#alphabet a b.\n%s(non_markers(a))." % builtin).machine
    t = m.table
    f = unreduced_formulas(t)
    eps, s = empty_string(t), project(compose(literal(t, "a"), f["non_markers"]),
                                      "range")
    keep = difference(f["xsig"], s)
    intro = star(union(keep, cross_product(eps, s)))
    expected = {"$$": concat(f["xsig_star"], s, f["xsig_star"]),
                "intro": intro,
                "xintro": union(eps, concat(keep, intro)),
                "introx": union(eps, concat(intro, keep)),
                "xintrox": union(eps, keep, concat(keep, intro, keep))}[builtin]
    assert m.same_structure(reduced(expected))
    assert equivalent(m, expected)
    if builtin == "intro":  # 6 states and 22 arcs when left unreduced
        assert (m.n, len(m.arcs)) == (4, 10)


def test_constants_grow_linearly_with_the_alphabet():
    # arcs per constant on "ab" plus 0, 50 and 100 extra user symbols: the
    # second 50 symbols may add no more arcs than the first 50 did
    def arcs(extra):
        kit = MarkerKit(SymbolTable(["a", "b"] + ["x%d" % k for k in range(extra)]))
        return [len(m.arcs) for m in (kit.non_markers, kit.xsig_star,
                                      kit.intro(kit.lb2))]
    for k, (n0, n50, n100) in enumerate(zip(arcs(0), arcs(50), arcs(100))):
        assert n100 - n50 <= n50 - n0, k


# ---------------------------------------------------------------------------
# constants shared by table shape


def random_marker_machine(rng):
    """A builder for a random replace rule or lm_concat instance over a
    one- to three-symbol table, as the randomized suites draw them."""
    if rng.random() < 0.7:
        _, t, left, right = random_replace_rule(rng)
        return lambda: replace(t, left, right)
    table = SymbolTable("abc"[:rng.randint(1, 3)])
    pieces = [random_target(rng, table) for _ in range(rng.randint(1, 3))]
    return lambda: lm_concat(pieces)


def build_or_error(build):
    try:
        return build()
    except FsmError as e:  # an lm_concat piece with an empty domain
        return str(e)


def test_a_warm_shape_cache_builds_the_same_machines(store):
    lookups, builds = count_memo(store)
    warm_cache, warm_hits = {}, 0
    rng = random.Random(22)
    for k in range(100):
        build = random_marker_machine(rng)
        store.setattr(markers, "_shape_cache", warm_cache)
        before = lookups.total() - builds.total()
        warm = build_or_error(build)
        warm_hits += lookups.total() - builds.total() - before
        store.empty()
        cold = build_or_error(build)
        if isinstance(cold, str):
            assert warm == cold, k
        else:
            assert warm.same_structure(cold), k
    assert warm_hits > 0  # the warm machines took memoized operations


def test_tables_of_one_shape_share_constants_under_their_own_glyphs(store):
    abc, xyz = MarkerKit(SymbolTable("abc")), MarkerKit(SymbolTable("xyz"))
    for name in ("sig", "non_markers", "xsig_star", "true"):
        m, n = getattr(abc, name), getattr(xyz, name)
        assert m.arcs is n.arcs, name  # taken from the cache, not rebuilt
        assert (m.table, n.table) == (abc.table, xyz.table)
    for kit, glyph in ((abc, "a"), (xyz, "x")):
        text = dump_text(kit.non_markers)
        assert "sym 6 %s\n" % glyph in text and "t 0 1 %s %s\n" % (glyph, glyph) in text
    assert abc.intro(abc.lb2).arcs is xyz.intro(xyz.lb2).arcs
    assert accepts(xyz.sig, ["z", "0"]) and not accepts(xyz.sig, ["0", "0"])


@pytest.mark.parametrize("glyph", ["<1", "0"])
def test_a_reserved_user_glyph_makes_another_shape(store, glyph):
    plain, odd = SymbolTable("ab"), SymbolTable(["a", glyph])
    odd.intern("b")  # the same size, but b is no user glyph here
    assert len(plain) == len(odd)
    pk, ok = MarkerKit(plain), MarkerKit(odd)
    assert not pk.non_markers.same_structure(ok.non_markers)
    assert pk._shape != ok._shape
    assert accepts(project(ok.non_markers, "domain"), [glyph])
    assert not accepts(project(pk.non_markers, "domain"), [glyph])


def fresh_rule(rng, glyphs):
    table = SymbolTable(glyphs)
    return replace(random_target(rng, table), random_context(rng, table),
                   random_context(rng, table))


def test_each_constant_is_built_once_per_shape(store):
    _, builds = count_memo(store)
    rng = random.Random(5)
    for k in range(48):  # a fresh table each time, of three shapes
        fresh_rule(rng, rng.sample("defghij", 1 + k % 3))
    assert len({key[0] for key in builds}) == 3
    assert set(builds.values()) == {1}  # the constants, and the rest too


def entry_arcs(key, parts):
    """The arcs a shape-cache entry counts: its machine's, and those of the
    machine arguments in a memoized operation's key."""
    return len(parts[3]) + sum(len(arg[3]) for arg in key[2:])


# the ops of the seven replace factors the store keeps, at the default
# flags (optimized=False, stack_safe=True)
FACTOR_OPS = ("r_right", "f_phi", "left_to_right", "longest_match 0 1",
              "aux_replace", "l1 1", "l2 1")


def test_the_shape_cache_starts_afresh_past_its_cap(store):
    # four rules compiled twice over: the factors they store help fill the
    # store, and past the cap it starts afresh and they are built again
    store.setattr(markers, "SHAPE_CACHE_CAP", 800)
    lookups, builds = count_memo(store)
    rng = random.Random(5)
    rules = []
    for _ in range(4):
        table = SymbolTable("ab")
        rules.append((random_target(rng, table), random_context(rng, table),
                      random_context(rng, table)))
    stored = set()
    for rule in rules * 2:
        replace(*rule)
        cache = markers._shape_cache
        held = sum(entry_arcs(key, parts) for key, parts in cache.items())
        assert held == markers._shape_cache_arcs <= 800
        stored |= {key[1] for key in cache if key[1] in FACTOR_OPS}
    assert stored == set(FACTOR_OPS)  # each was held after some rule
    assert any(len(key) > 2 for key in cache)  # memo entries share the cache
    # renewed, so built again: the constants, (shape, name), the rest, and
    # each factor
    assert max(n for key, n in builds.items() if len(key) == 2) > 1
    assert max(n for key, n in builds.items() if len(key) > 2) > 1
    for op in FACTOR_OPS:
        assert lookups[op] == 8, op
        assert max(n for key, n in builds.items() if key[1] == op) > 1, op


def test_fresh_tables_of_one_shape_key_the_cache_with_one_tuple(store):
    # a shape holds every user id, so one copy per entry would outweigh
    # the arcs the cache counts
    glyphs = ["x%d" % k for k in range(50)]
    for k in range(3):
        kit = MarkerKit(SymbolTable(glyphs))
        kit.non_markers_of(literal(kit.table, glyphs[k]))
    assert len(markers._shape_cache) == 4  # non_markers and three images
    assert len({id(key[0]) for key in markers._shape_cache}) == 1


def test_an_oversize_result_is_returned_unstored(store):
    kit = MarkerKit(SymbolTable("ab"))
    e = kit.non_markers_of(word(kit.table, "ab" * 20))
    intro = kit.intro(kit.lb1)
    held = dict(markers._shape_cache), markers._shape_cache_arcs
    # room for a small entry, not for this one
    store.setattr(markers, "SHAPE_CACHE_CAP", held[1] + 50)
    _, builds = count_memo(store)
    for _ in range(2):
        got = kit.ign(e, kit.lb1)
        assert got.same_structure(project(compose(e, intro), "range"))
        assert (markers._shape_cache, markers._shape_cache_arcs) == held
    assert len(got.arcs) + len(e.arcs) + len(intro.arcs) > markers.SHAPE_CACHE_CAP
    assert sum(builds.values()) == 2  # built each time, never stored
    kit.ign(kit.non_markers_of(word(kit.table, "a")), kit.lb1)
    assert markers._shape_cache_arcs > held[1]  # a small one is stored


def test_a_cascade_builds_the_operations_on_a_shared_context_once(store):
    # each of the first three rules mentions three of the 27 symbols, so
    # each folds over a table of the same shape (its three symbols and one
    # representative of the rest), and all three have the left context [];
    # the last has `a`: l1 and l2 are built for two contexts only.  The
    # second and third rules find both factors stored.  l1 and l2 scan
    # [xsig*, Left] as given, its brackets erased by the scan, so they ask
    # for no `ign` and no `not`: every `ign` lookup is left_to_right's,
    # one per build.  longest_match reads its occurrence with the brackets
    # ignored, so it asks for no `contains` and no stacked tail
    lookups, builds = count_memo(store)
    compile_rules("#alphabet a b c d e f g h i j k l m n o p q r s t u v w x y z '#'.\n"
                  "replace(b:p, [], '#') o replace(d:t, [], '#')"
                  " o replace(n:m, [], p) o replace(s:z, a, e).")
    assert set(builds.values()) == {1}
    for factor in ("l1 1", "l2 1"):
        built = sum(key[1] == factor for key in builds)
        assert (lookups[factor], built) == (4, 2), factor
    retypings = sum(key[1] == "left_to_right" for key in builds)
    assert (lookups["ign"], lookups["not"]) == (retypings, 0)
    assert (lookups["contains"], lookups["stacked_rb"]) == (0, 0)


def test_a_context_on_another_table_is_refused_though_memoized(store):
    mine, other = SymbolTable("ab"), SymbolTable("ab")
    t = cross_product(literal(mine, "a"), literal(mine, "b"))
    replace(t, empty_string(mine), empty_string(mine))  # [] encoded, memoized
    with pytest.raises(FsmError, match="different symbol tables"):
        replace(t, empty_string(other), empty_string(mine))


def test_a_machine_on_another_table_is_refused_by_every_method(store):
    # each argument in turn from a table of the same shape: the store
    # refuses it before any lookup or build, so nothing is stored
    mine, other = MarkerKit(SymbolTable("ab")), MarkerKit(SymbolTable("ab"))
    for name, arity in kit_methods():
        def machine(kit):
            return literal(kit.table, "a") if name == "non_markers_of" else kit.lb1
        for k in range(arity):
            args = [machine(other if i == k else mine) for i in range(arity)]
            held = dict(markers._shape_cache)
            with pytest.raises(FsmError, match="different symbol tables"):
                getattr(mine, name)(*args)
            assert markers._shape_cache == held, (name, k)


@pytest.mark.parametrize("op", ["ign", "overrun"])
def test_a_stored_image_is_one_lookup(store, op):
    # keyed by the set itself, not by the inserter built from it; the
    # overrun of a greed filter, by the image alone
    def image_op(kit, e, s):
        return overrun(kit, e) if op == "overrun" else getattr(kit, op)(e, s)
    kit = MarkerKit(SymbolTable("ab"))
    e = kit.non_markers_of(word(kit.table, "ab"))
    first = image_op(kit, e, kit.lb1)
    kit = MarkerKit(SymbolTable("xy"))
    e, s = kit.non_markers_of(word(kit.table, "xy")), kit.lb1
    lookups, builds = count_memo(store)
    assert image_op(kit, e, s).arcs is first.arcs
    assert (dict(lookups), builds.total()) == ({op: 1}, 0)


FLAG_PAIRS = list(itertools.product((False, True), (True, False)))


def test_a_warm_store_gives_each_flag_pair_its_own_factors(store):
    # each rule's factors under the four (optimized, stack_safe) pairs, all
    # stored in one store and then taken from it, are the factors a cold
    # build of the same pair makes, though the pairs build different ones
    rng = random.Random(28)
    differ = set()
    for k in range(12):
        _, t, left, right = random_replace_rule(rng)
        store.empty()
        for flags in FLAG_PAIRS:
            replace_factors(t, left, right, *flags)
        warm = [replace_factors(t, left, right, *flags) for flags in FLAG_PAIRS]
        cold = []
        for flags in FLAG_PAIRS:
            store.empty()
            cold.append(replace_factors(t, left, right, *flags))
        for flags, ws, cs in zip(FLAG_PAIRS, warm, cold):
            for i, (w, c) in enumerate(zip(ws, cs)):
                assert w.same_structure(c), (k, flags, i)
        differ |= {i for i in range(9)
                   if any(not cold[0][i].same_structure(c[i]) for c in cold)}
    assert differ == {4, 6, 7}  # longest_match, l1 and l2 read the flags


def test_rules_that_share_a_domain_or_a_target_build_its_factors_once(store):
    lookups, builds = count_memo(store)

    def built(op):
        return sorted(n for key, n in builds.items() if key[1] == op)

    # a -> b and a -> [] share dom(T) only: each phi factor is built once
    ab = SymbolTable("ab")
    a, b = literal(ab, "a"), literal(ab, "b")
    replace_factors(cross_product(a, b), empty_string(ab), b)
    replace_factors(cross_product(a, empty_string(ab)), b, a)
    for op in ("f_phi", "left_to_right", "longest_match 0 1"):
        assert (lookups[op], built(op)) == (2, [1]), op
    for op in ("r_right", "aux_replace", "l1 1", "l2 1"):
        assert (lookups[op], built(op)) == (2, [1, 1]), op

    # x -> y over a table of the same shape is the first rule's T: its
    # aux_replace, built for a -> b, is found, though contexts differ
    xy = SymbolTable("xy")
    x, y = literal(xy, "x"), literal(xy, "y")
    replace_factors(cross_product(x, y), x, x)
    assert (lookups["aux_replace"], built("aux_replace")) == (3, [1, 1])
    assert (lookups["l1 1"], built("l1 1")) == (3, [1, 1, 1])


def test_the_builtins_repeat_exactly_from_the_memo(store):
    program = ("#alphabet a b.\n"
               "{ign(non_markers([a, b*]), lb1), ign(non_markers([a, b*]), lb1)}"
               " & not(non_markers(b)) & not(non_markers(b)).")
    with pytest.MonkeyPatch.context() as unmemoized:
        unmemoized.setattr(MarkerKit, "_keep",
                           lambda self, op, build, *args: build())
        expected = dump_text(compile_rules(program).machine)
    lookups, builds = count_memo(store)
    cold = dump_text(compile_rules(program).machine)
    assert lookups.total() > builds.total()  # the second calls hit
    warm = dump_text(compile_rules(program).machine)
    assert cold == warm == expected

    def machine(glyphs):
        return compile_rules("#alphabet %s %s c.\n ign(non_markers([%s, %s]), lb1)."
                             % (tuple(glyphs) * 2)).machine
    m, n = machine("ab"), machine("xy")
    assert m.arcs is n.arcs  # taken from the memo, not rebuilt
    assert "t 0 1 x x\n" in dump_text(n) and "x" not in dump_text(m)


FACTOR_NAMES = ("r_right", "f_phi", "left_to_right", "longest_match",
                "aux_replace", "l1", "l2")


def test_every_store_entry_is_what_its_construction_returns(store):
    # the constructions that can come out unreduced reduce themselves, the
    # store keeps what they return: every entry, kit operation, replace
    # factor or group of factors, is a fixed point of the reduction, each
    # factor entry is its build reduced, the same pair language as the
    # build left unreduced, and each group is the fold of the factors in
    # its key; the scans build their factors reduced, so only the builds
    # that end in a reduction can shrink
    seen, tables = record_store(store)

    for path in RULE_FILES:
        compile_rules(path.read_text()).machine
    rng = random.Random(33)
    for _ in range(40):
        _, t, left, right = random_replace_rule(rng)
        for stack_safe in (True, False):
            replace(t, left, right, stack_safe=stack_safe)
    for k in range(4):
        table = SymbolTable("abc"[:k % 3 + 1])
        build_or_error(lambda: lm_concat([random_target(rng, table)
                                          for _ in range(k % 3 + 1)]))

    # the package re-exports the function replace under the module's name
    replace_module = importlib.import_module("fsrw.replace")
    factors = groups = kits = reducing = shrunk = 0
    for (shape, op, *args), parts in seen.items():
        table = tables[shape]
        m = Fst(table, *parts)
        assert m.same_structure(reduce_pairs(m)), op
        name, *flags = op.split()
        if name == "composed":
            assert m.same_structure(compose_cascade([Fst(table, *a) for a in args]))
            groups += 1
        elif name in FACTOR_NAMES:
            kit = MarkerKit(table)
            machines = [Fst(table, *a) for a in args]
            unreduced = []  # what a build that ends in a reduction reduces
            with store.context() as mp:
                mp.setattr(replace_module, "reduce_pairs",
                           lambda f: unreduced.append(f) or f)
                built = getattr(replace_module, name).__wrapped__(
                    kit, *machines, *map(int, flags))
            if unreduced:
                reducing += 1
                shrunk += len(m.arcs) < len(built.arcs)
            assert m.same_structure(reduce_pairs(built)), op
            assert equivalent(m, built), op
            factors += 1
        else:
            kits += 1
    # every build that ends in a reduction shrinks by it
    assert factors > 100 and groups > 50 and kits > 100 and reducing > 50, \
        (factors, groups, kits, reducing)
    assert shrunk == reducing
