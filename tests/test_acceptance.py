"""The acceptance gate.

Eight criteria, one printed PASS/FAIL line each (run pytest with -s to see
them).  Each test prints its line before asserting, so a red run still
shows the full scoreboard up to the first failure."""

import os
import random
import subprocess
import sys
import time

import pytest

from fsrw import (
    FsmError,
    SymbolTable,
    complement,
    compose,
    concat,
    cross_product,
    empty_string,
    enumerate_pairs,
    equivalent,
    identity_lift,
    intersection,
    invert,
    lang_enum,
    literal,
    lm_concat,
    minimize,
    oracle_lm_split,
    oracle_replace,
    plus,
    project,
    replace,
    sigma_star,
    star,
    transduce,
    union,
    word,
)
from fsrw.cli import main
from fsrw.dsl import compile_rules
from fsrw.dump import dump_text, load_text

from gen import (
    ROOT,
    all_strings,
    build_regex,
    random_arc_machine,
    random_context,
    random_regex,
    random_replace_rule,
)


def _report(num, title, ok, detail=""):
    line = "%s criterion %d: %s" % ("PASS" if ok else "FAIL", num, title)
    if detail:
        line += " (%s)" % detail
    print(line)
    assert ok, line


def _relation(m, max_len):
    rel = {}
    for inp, outp in enumerate_pairs(m, max_len):
        rel.setdefault(inp, set()).add("".join(outp))
    return rel


# criteria 1 and 2 ----------------------------------------------------------


@pytest.fixture(scope="module")
def topo_machine():
    t0 = time.monotonic()
    cp = compile_rules((ROOT / "rules" / "topological.fsr").read_text())
    res = transduce(cp.machine, list("topological"))
    elapsed = time.monotonic() - t0
    return cp, set(res.strings()), elapsed


def test_criterion_1_worked_example(topo_machine):
    cp, outputs, elapsed = topo_machine
    ok = outputs == {"top#o#logical"} and elapsed < 10.0
    _report(1, "three-way split of 'topological'", ok,
            "%.2f s compile+apply, outputs %s" % (elapsed, sorted(outputs)))


def test_criterion_2_ordering_contrast(topo_machine):
    cp, _, _ = topo_machine
    res = transduce(cp.machine, list("polotopogical"))
    got = set(res.strings())
    _report(2, "no output on 'polotopogical'", got == set(),
            "outputs %s" % sorted(got))


# criterion 3 ----------------------------------------------------------------


def test_criterion_3_longest_match():
    tb = SymbolTable("abx")
    target = cross_product(concat(literal(tb, "a"), star(literal(tb, "b"))),
                           word(tb, "x"))
    m = replace(target, empty_string(tb), empty_string(tb))
    got = set(transduce(m, list("abb")).strings())
    ok = got == {"x"} and "xb" not in got and "xbb" not in got
    _report(3, "'abb' consumed whole by one rewrite", ok,
            "outputs %s" % sorted(got))


# criterion 4 ----------------------------------------------------------------


def test_criterion_4_marker_glyph_robustness():
    glyphs = ["<1", "1>", "<2", "2>", "0", "1"]
    tb = SymbolTable(glyphs)
    lit = lambda g: literal(tb, g)
    w = lambda gs: word(tb, gs)
    eps = empty_string(tb)
    rules = [
        (cross_product(lit("<1"), w(["1>"])), eps, eps),
        (cross_product(lit("0"), w(["1"])), lit("1"), eps),
        (cross_product(w(["<2", "2>"]), w(["0"])), eps, lit("1")),
        (cross_product(star(lit("<1")), w(["2>"])), eps, eps),
        (cross_product(lit("1"), w(["<1"])), eps, lit("0")),
        (cross_product(plus(union(lit("0"), lit("1"))), w(["<2"])),
         lit("2>"), eps),
    ]
    checked = 0
    bad = None
    for t, l, r in rules:
        m = replace(t, l, r)
        rel = _relation(m, 3)
        for s in all_strings(glyphs, 3):
            want = oracle_replace(t, l, r, list(s))
            got = rel.get(tuple(s), set())
            checked += 1
            if got != want:
                bad = (s, sorted(got), sorted(want))
                break
        if bad:
            break
    _report(4, "rules over inputs spelled with bracket glyphs", bad is None,
            "%d cases" % checked if bad is None else "first mismatch %r" % (bad,))


# criterion 5 ----------------------------------------------------------------


def test_criterion_5_match_n_equivalence(tmp_path):
    a = tmp_path / "a.fsm"
    b = tmp_path / "b.fsm"
    rc1 = main(["compile", "-r", str(ROOT / "rules" / "triple_a.fsr"), "-o", str(a)])
    rc2 = main(["compile", "-r", str(ROOT / "rules" / "triple_a_explicit.fsr"),
                "-o", str(b)])
    rc = main(["equiv", str(a), str(b)])
    ok = rc1 == 0 and rc2 == 0 and rc == 0
    _report(5, "match_n(3,a) equals [a,a,a] via equiv", ok, "exit code %d" % rc)


# criterion 6 (and the machines criterion 8 reuses) ---------------------------


def _t_rule(rng, low, high):
    """A random replace rule whose minimized T has low..high states."""
    while True:
        table, t, left, right = random_replace_rule(rng)
        t = minimize(t, pair_atomic=True)
        if low <= t.n <= high:
            return table, t, left, right


def _arc_rule(rng):
    """A random replace rule whose T is a random arc machine of up to five
    states, not minimized first."""
    table = SymbolTable("abc"[:rng.randint(1, 3)])
    t = random_arc_machine(rng, table, max_states=5)
    return table, t, random_context(rng, table), random_context(rng, table)


def _oracle_mismatch(k, table, t, left, right, m):
    """The first string up to length 8 on which machine m and the oracle
    disagree, as (rule, string, machine outputs, oracle outputs)."""
    rel = _relation(m, 8)
    for s in all_strings("".join(table.user_glyphs()), 8):
        want = oracle_replace(t, left, right, list(s))
        got = rel.get(tuple(s), set())
        if got != want:
            return (k, s, sorted(got), sorted(want))
    return None


@pytest.fixture(scope="module")
def replace_suite():
    rng = random.Random(20240817)
    entries = []
    t0 = time.monotonic()
    mismatch = None
    for k in range(200):
        table, t, left, right = _t_rule(rng, 0, 3)
        m = replace(t, left, right)
        mismatch = _oracle_mismatch(k, table, t, left, right, m)
        entries.append((table, t, left, right, m))
        if mismatch:
            break
    elapsed = time.monotonic() - t0
    return entries, elapsed, mismatch


def _random_lm_instance(rng):
    tb = SymbolTable(["a", "b", "#"])
    mark = cross_product(empty_string(tb), literal(tb, "#"))
    while True:
        k = rng.randint(1, 3)
        doms = [build_regex(random_regex(rng, "ab", 2), tb) for _ in range(k)]
        pieces = [concat(identity_lift(d), mark) for d in doms]
        try:
            return tb, doms, lm_concat(pieces)
        except FsmError:
            continue


def test_criterion_6_randomized_oracle_suite(replace_suite):
    entries, rep_elapsed, mismatch = replace_suite

    # rules whose T has 4 or 5 states, checked the same way
    t0 = time.monotonic()
    rng = random.Random(20240818)
    for k in range(100):
        if mismatch:
            break
        table, t, left, right = _t_rule(rng, 4, 5)
        mismatch = _oracle_mismatch("larger %d" % k, table, t, left, right,
                                    replace(t, left, right))
    # and rules whose T is a raw arc machine of up to five states
    rng = random.Random(20261019)
    for k in range(20):
        if mismatch:
            break
        table, t, left, right = _arc_rule(rng)
        mismatch = _oracle_mismatch("arc %d" % k, table, t, left, right,
                                    replace(t, left, right))
    larger_elapsed = time.monotonic() - t0

    t0 = time.monotonic()
    rng = random.Random(911)
    lm_mismatch = None
    for k in range(100):
        tb, doms, m = _random_lm_instance(rng)
        for s in all_strings("ab", 6):
            cuts = oracle_lm_split(list(s), doms)
            if cuts is None:
                want = set()
            else:
                spans, prev = [], 0
                for c in cuts:
                    spans.append("".join(s[prev:c]) + "#")
                    prev = c
                want = {"".join(spans)}
            got = set(transduce(m, list(s), limit=16).strings())
            if got != want:
                lm_mismatch = (k, s, sorted(got), sorted(want))
                break
        if lm_mismatch:
            break
    lm_elapsed = time.monotonic() - t0

    total = rep_elapsed + larger_elapsed + lm_elapsed
    ok = mismatch is None and lm_mismatch is None and total < 300.0
    detail = ("200 replace rules %.1f s, 100 with a 4-5 state T and 20 with "
              "an arc T of up to 5 states %.1f s, 100 splits %.1f s"
              % (rep_elapsed, larger_elapsed, lm_elapsed))
    if mismatch:
        detail = "replace mismatch %r" % (mismatch,)
    elif lm_mismatch:
        detail = "split mismatch %r" % (lm_mismatch,)
    _report(6, "randomized oracle suite under 5 min", ok, detail)


# criterion 7 ----------------------------------------------------------------


N_ALGEBRA = 1000


def test_criterion_7a_composition_law():
    rng = random.Random(7001)
    bad = 0
    for _ in range(N_ALGEBRA):
        tb = SymbolTable("ab")
        s = random_arc_machine(rng, tb, recognizer=False)
        t = random_arc_machine(rng, tb, recognizer=False)
        rs = list(enumerate_pairs(s, 3))
        rt = {}
        for i, o in enumerate_pairs(t, 3):
            rt.setdefault(i, set()).add(o)
        want = {(i, o2) for i, o1 in rs for o2 in rt.get(o1, ())}
        got = set(enumerate_pairs(compose(s, t), 3))
        if got != want:
            bad += 1
    _report(7, "composition is the relation join", bad == 0,
            "%d/%d instances" % (N_ALGEBRA - bad, N_ALGEBRA))


def test_criterion_7b_complement_exactness():
    rng = random.Random(7002)
    bad = 0
    for _ in range(N_ALGEBRA):
        tb = SymbolTable("ab")
        r = build_regex(random_regex(rng, "ab", 3), tb)
        c = complement(r)
        everything = sigma_star(tb, tb.all_ids())
        if not intersection(r, c).is_empty():
            bad += 1
            continue
        if not equivalent(union(r, c), everything):
            bad += 1
            continue
        glyphs = tuple(tb.glyph(i) for i in tb.all_ids())
        full = {"".join(s) for s in all_strings(glyphs, 2)}
        if lang_enum(c, 2) != full - lang_enum(r, 2):
            bad += 1
    _report(7, "complement partitions the full alphabet", bad == 0,
            "%d/%d instances" % (N_ALGEBRA - bad, N_ALGEBRA))


def test_criterion_7c_projection_law():
    rng = random.Random(7003)
    bad = 0
    for _ in range(N_ALGEBRA):
        tb = SymbolTable("ab")
        t = random_arc_machine(rng, tb, recognizer=False)
        dom = project(t, "domain")
        rng_side = project(t, "range")
        if not equivalent(dom, project(invert(t), "range")):
            bad += 1
            continue
        if not equivalent(rng_side, project(invert(t), "domain")):
            bad += 1
            continue
        pairs = list(enumerate_pairs(t, 3))
        if {i for i, _ in pairs} != {x for x in lang_enum_tuples(dom, 3)}:
            bad += 1
    _report(7, "projections are the relation's two sides", bad == 0,
            "%d/%d instances" % (N_ALGEBRA - bad, N_ALGEBRA))


def lang_enum_tuples(m, max_len):
    return {i for i, _ in enumerate_pairs(m, max_len)}


def test_criterion_7d_determinize_minimize_preserve():
    rng = random.Random(7004)
    bad = 0
    for _ in range(N_ALGEBRA):
        tb = SymbolTable("ab")
        m = build_regex(random_regex(rng, "ab", 3), tb)
        lang = lang_enum(m, 4)
        from fsrw import determinize
        if lang_enum(determinize(m), 4) != lang:
            bad += 1
            continue
        if lang_enum(minimize(m), 4) != lang:
            bad += 1
    _report(7, "determinize and minimize keep the language", bad == 0,
            "%d/%d instances" % (N_ALGEBRA - bad, N_ALGEBRA))


def test_criterion_7e_dump_round_trip():
    rng = random.Random(7005)
    bad = 0
    for k in range(N_ALGEBRA):
        tb = SymbolTable("ab")
        if k % 2:
            m = random_arc_machine(rng, tb, recognizer=False)
        else:
            m = build_regex(random_regex(rng, "ab", 3), tb)
        text = dump_text(m)
        m2 = load_text(text)
        if dump_text(m2) != text:
            bad += 1
            continue
        if set(enumerate_pairs(m2, 3)) != set(enumerate_pairs(m, 3)):
            bad += 1
    _report(7, "dump text round-trips losslessly", bad == 0,
            "%d/%d instances" % (N_ALGEBRA - bad, N_ALGEBRA))


def test_criterion_7f_canonical_build_determinism():
    rng = random.Random(7006)
    bad = 0
    for _ in range(N_ALGEBRA):
        node = random_regex(rng, "ab", 3)
        one = dump_text(build_regex(node, SymbolTable("ab")))
        two = dump_text(build_regex(node, SymbolTable("ab")))
        if one != two:
            bad += 1
    _report(7, "identical builds dump identical bytes", bad == 0,
            "%d/%d instances" % (N_ALGEBRA - bad, N_ALGEBRA))


def test_criterion_7g_determinism_across_hash_seeds():
    script = (
        "from fsrw import *\n"
        "from fsrw.dump import dump_text\n"
        "tb = SymbolTable('ab')\n"
        "t = cross_product(union(literal(tb, 'a'), star(literal(tb, 'b'))),"
        " word(tb, 'b'))\n"
        "m = replace(t, empty_string(tb), literal(tb, 'b'))\n"
        "import sys; sys.stdout.write(dump_text(m))\n"
    )
    # the child does not see pytest's `pythonpath` setting
    src_dir = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    outs = []
    for seed in ("0", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    _report(7, "dump bytes stable across hash seeds", outs[0] == outs[1],
            "%d bytes" % len(outs[0]))


# criterion 8 ----------------------------------------------------------------


def test_criterion_8_optimized_filter(replace_suite):
    entries, _, mismatch = replace_suite
    assert mismatch is None, "criterion 6 suite must be clean first"
    t0 = time.monotonic()
    bad = None
    for k, (table, t, left, right, plain) in enumerate(entries):
        fast = replace(t, left, right, optimized=True)
        if not equivalent(plain, fast):
            bad = (k, "pair-atomic inequivalence")
            break
        if k % 10 == 0:
            if _relation(fast, 6) != _relation(plain, 6):
                bad = (k, "relation mismatch")
                break
    elapsed = time.monotonic() - t0
    _report(8, "optimized match filter is equivalent", bad is None,
            "%d rules, %.1f s" % (len(entries), elapsed) if bad is None
            else "rule %d: %s" % bad)
