"""The fsrw command line, driven through main(argv).

stdin is monkeypatched per test; stdout and exit codes carry the
contract."""

import collections
import importlib
import io
import os
import random
import re
import subprocess
import sys
import time

import pytest

import fsrw.cli
import fsrw.dsl
import fsrw.dump
from fsrw import SymbolTable, transduce
from fsrw.cli import main
from gen import ROOT, arc_machine, count_memo, random_branching_machine


TOPO = """\
% three-way greedy split
macro(mark, []:'#').
lm_concat([
    [identity({[t,o], [t,o,p]}), mark],
    [identity({[o], [p,o,l,o]}), mark],
    identity({[g,i,c,a,l], [{[o],[]}, [l,o,g,i,c,a,l]]})
]).
"""


def run(monkeypatch, capsys, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    rc = main(argv)
    got = capsys.readouterr()
    return rc, got.out, got.err


def compiled(tmp_path, text, name="rules.fsr", extra=()):
    rules = tmp_path / name
    rules.write_text(text)
    out = tmp_path / (name + ".fsm")
    rc = main(["compile", "-r", str(rules), "-o", str(out), *extra])
    assert rc == 0
    return out


def test_compile_and_apply_worked_example(tmp_path, monkeypatch, capsys):
    machine = compiled(tmp_path, TOPO)
    rc, out, err = run(monkeypatch, capsys,
                       ["apply", "-m", str(machine)],
                       "topological\npolotopogical\n")
    assert rc == 0
    assert out == "top#o#logical\n\n"


def test_apply_on_empty_marker(tmp_path, monkeypatch, capsys):
    machine = compiled(tmp_path, TOPO)
    rc, out, err = run(monkeypatch, capsys,
                       ["apply", "-m", str(machine), "--on-empty", "<NONE>"],
                       "polotopogical\n")
    assert out == "<NONE>\n"


def test_apply_all_outputs_tab_joined(tmp_path, monkeypatch, capsys):
    machine = compiled(tmp_path, "replace(a x {b, c}, [], []).")
    rc, out, err = run(monkeypatch, capsys,
                       ["apply", "-m", str(machine), "--all"], "a\n")
    assert rc == 0
    assert out == "b\tc\n"


def test_a_later_call_takes_no_flag_from_an_earlier_one(tmp_path, monkeypatch,
                                                        capsys):
    # the parser is built once per process; each call parses afresh
    machine = compiled(tmp_path, "replace(a x {b, c}, [], []).")
    rc, out, err = run(monkeypatch, capsys,
                       ["apply", "-m", str(machine), "--all", "--limit", "1",
                        "--on-empty", "<NONE>"], "a\n")
    assert (rc, out) == (0, "b\tc\n")
    rc, out, err = run(monkeypatch, capsys, ["apply", "-m", str(machine)], "a\n")
    assert (rc, out) == (0, "b\n")
    parser = fsrw.cli._build_parser()
    assert parser is fsrw.cli._build_parser()
    args = parser.parse_args(["apply", "-m", str(machine)])
    assert (args.all, args.limit, args.on_empty) == (False, 64, "")


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_apply_rejects_a_limit_below_one(tmp_path, monkeypatch, capsys, limit):
    # `a` has infinitely many outputs (b, bb, ...); a limit that keeps none
    # of them would print the --on-empty text as if there were no output
    machine = compiled(tmp_path, "replace(a x b*, [], []).")
    with pytest.raises(SystemExit) as exc:
        run(monkeypatch, capsys,
            ["apply", "-m", str(machine), "--limit", limit, "--on-empty", "<NONE>"],
            "a\n")
    assert exc.value.code == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert "usage:" in got.err and "--limit" in got.err
    rc, out, err = run(monkeypatch, capsys,
                       ["apply", "-m", str(machine), "--limit", "1", "--all"],
                       "a\n")
    assert (rc, out) == (0, "\n")


def test_apply_limit_leaves_a_finite_output_set_whole(tmp_path, monkeypatch,
                                                      capsys):
    # two vowel pairs: 4 * 4 outputs, all printed although --limit is 1
    machine = compiled(tmp_path, (ROOT / "bench" / "rules" / "ambiguous.fsr").read_text())
    rc, out, err = run(monkeypatch, capsys,
                       ["apply", "-m", str(machine), "--all", "--limit", "1"],
                       "kaetio\n")
    assert rc == 0
    want = sorted("k%st%s" % (x, y) for x in "aeio" for y in "aeio")
    assert out == "\t".join(want) + "\n"


def test_apply_flags_unknown_symbols(tmp_path, monkeypatch, capsys):
    # the first unknown character is named, with one character per glyph
    # and with a `#tokens` machine
    single = compiled(tmp_path, "replace(a x b, [], []).")
    multi = compiled(tmp_path, "identity({ab, a, b}*).", name="multi.fsr")
    assert multi.read_text().startswith("#tokens")
    for machine, line, output in [(single, "a", "b"), (multi, "ab", "ab")]:
        rc, out, err = run(monkeypatch, capsys, ["apply", "-m", str(machine)],
                           "az\nazqa\nqz\n%s\n" % line)
        assert rc == 0
        assert out == ("*** unknown symbol 'z'\n" * 2
                       + "*** unknown symbol 'q'\n%s\n" % output)


def test_apply_tokenizes_multi_char_glyphs_greedily(tmp_path, monkeypatch,
                                                    capsys):
    machine = compiled(tmp_path, "identity({ab, a, b}*).")
    rc, out, err = run(monkeypatch, capsys,
                       ["apply", "-m", str(machine)], "abab\n")
    assert rc == 0
    # greedy split: ab ab, so abab parses and maps to itself
    assert out == "abab\n"


def _apply_prints_sorted(monkeypatch, capsys, machine, lines, limit=64):
    """`fsrw apply` on the machine file `machine`, with and without --all
    and with --on-empty, prints exactly the sorted strings of each line's
    `transduce` result, tab-joined, or the least of them.  Returns the
    results."""
    m = fsrw.cli._load_machine(str(machine))
    split = fsrw.cli._tokenizer(m.table)
    results = [transduce(m, split(line), limit=limit) for line in lines]
    stdin = "".join(line + "\n" for line in lines)
    for extra in ([], ["--on-empty", "<NONE>"]):
        for every in (True, False):
            rc, out, err = run(monkeypatch, capsys,
                               ["apply", "-m", str(machine), "--limit", str(limit), *extra,
                                *(["--all"] if every else [])], stdin)
            want = []
            for res in results:
                strings = sorted(res.strings())
                if not strings:
                    want.append(extra[1] if extra else "")
                else:
                    want.append("\t".join(strings) if every else strings[0])
            assert rc == 0
            assert out == "".join(w + "\n" for w in want), (extra, every)
    return results


def _machine_file(tmp_path, m, name="m.fsm"):
    path = tmp_path / name
    path.write_text(fsrw.dump.dump_text(m), encoding="utf-8")
    return path


# glyph sets whose strings run into one another: prefixes, a glyph that
# prints like two others, and a tab inside a glyph
APPLY_GLYPHS = [["a", "b", "ab", "ba", "c"], ["zz", "b", "ab", "a"],
                ["x", "y", "xy", "yx", "x\ty", "\t"]]


def test_apply_prints_the_sorted_outputs_of_random_machines(tmp_path, monkeypatch,
                                                           capsys):
    # apply writes a product in string order from its stretch lists, and
    # sorts anything else; either way it prints what sorting would
    rng = random.Random(47)
    routes = collections.Counter()
    for k in range(30):
        tb = SymbolTable(APPLY_GLYPHS[k % len(APPLY_GLYPHS)])
        m = random_branching_machine(rng, tb)
        glyphs = tb.user_glyphs()
        lines = ["".join(rng.choice(glyphs) for _ in range(rng.randint(0, 6)))
                 for _ in range(40)]
        machine = _machine_file(tmp_path, m)
        for res in _apply_prints_sorted(monkeypatch, capsys, machine, lines):
            if res._segs is not None and len(res) > 1:
                routes[all(seg.apart for seg in res._segs[:-1])] += 1
    assert routes[True] > 300 and routes[False] > 30


def test_apply_prints_the_sorted_outputs_of_fixed_lines(tmp_path, monkeypatch, capsys):
    def check(machine, lines, **kw):
        return _apply_prints_sorted(monkeypatch, capsys, machine, lines, **kw)

    # two outputs that print alike, the glyphs a b and the one glyph ab,
    # and a line of two such stretches
    machine = compiled(tmp_path, "[x,x] x {[a,b], ab}.")
    rc, out, err = run(monkeypatch, capsys, ["apply", "-m", str(machine), "--all"], "xx\n")
    assert out == "ab\tab\n"
    check(machine, ["xx", "", "x", "xxx"])
    machine = compiled(tmp_path, "replace({[x,x] x {[a,b], ab}, y x {a, c}}, [], []).",
                       name="twice.fsr")
    check(machine, ["xxy", "xxyxx", "yxxy", "xxxx"])
    # ids zz < b < ab < a, the reverse of string order
    tb = SymbolTable(["zz", "b", "ab", "a"])
    m = arc_machine(tb, 4, [2], [(0, "b", "zz", 1), (0, "b", "b", 1), (1, "b", "ab", 2),
                                 (1, "b", "a", 3), (3, None, "b", 2)])
    check(_machine_file(tmp_path, m), ["bb", "b", "bbb"])
    # `a` writes {x, xy} and `b` writes {y, z}, over the glyphs x and xy:
    # the list {x, xy} is prefix-free as glyph tuples, so the id-ordered
    # product xy xz xyy xyz is kept factored, but not as strings
    tb = SymbolTable(["a", "b", "x", "y", "z", "xy"])
    arcs = [(0, "a", "x", 1), (0, "a", "xy", 1), (1, "b", "y", 2), (1, "b", "z", 2),
            (2, "a", "x", 1), (2, "a", "xy", 1)]
    results = check(_machine_file(tmp_path, arc_machine(tb, 3, [2], arcs)),
                    ["ab", "abab", "a", "aba"])
    assert results[0].strings() == ["xy", "xz", "xyy", "xyz"]
    assert results[0]._segs is not None
    # the same over the glyphs x and y: not prefix-free as glyph tuples
    tb = SymbolTable("abxyz")
    arcs = [(0, "a", "x", 1), (0, "a", "x", 3), (3, None, "y", 1), (1, "b", "y", 2),
            (1, "b", "z", 2), (2, "a", "x", 1), (2, "a", "x", 4), (4, None, "y", 1)]
    check(_machine_file(tmp_path, arc_machine(tb, 5, [2], arcs)), ["ab", "abab", "a", "aba"])
    # a quoted glyph that holds a tab, in an ordered product
    machine = compiled(tmp_path, "replace(a x {'\t', 'c\td'}, [], []).", name="tab.fsr")
    results = check(machine, ["aa", "aaa", ""])
    assert len(results[0]) == 4 and results[0]._segs is not None
    # five vowel pairs, 4**5 outputs
    machine = compiled(tmp_path, (ROOT / "bench" / "rules" / "ambiguous.fsr").read_text(),
                       name="ambiguous.fsr")
    results = check(machine, ["aektaeiokoatie", "kaetio", "kt"])
    assert len(results[0]) == 1024
    # infinite output sets, cut to the shortest under --limit
    machine = compiled(tmp_path, "replace(a x b*, [], []).", name="loop.fsr")
    check(machine, ["a", "aa", ""], limit=3)
    tb = SymbolTable("abxyz")
    m = arc_machine(tb, 4, [3], [(0, "a", "x", 1), (0, "a", "y", 1), (1, None, "z", 1),
                                 (1, "b", "b", 2), (2, "a", "x", 3), (2, "a", "y", 3)])
    results = check(_machine_file(tmp_path, m), ["aba", "ab"], limit=5)
    assert results[0].truncated


def test_dump_normalizes(tmp_path, monkeypatch, capsys):
    machine = compiled(tmp_path, "replace(a x b, [], []).")
    rc, out, err = run(monkeypatch, capsys, ["dump", "-m", str(machine)])
    assert rc == 0
    assert out == machine.read_text()


def machine_file(tmp_path, name, n, arcs, finals, glyphs, initial=0):
    """A hand-written machine file: the six marker glyphs, then `glyphs`."""
    syms = ["0", "1", "<1", "<2", "1>", "2>", *glyphs]
    lines = ["fst %d %d" % (n, initial)]
    lines += ["sym %d %s" % (k, g) for k, g in enumerate(syms)]
    lines += ["t %d %d %s %s" % (s, d, g, g) for s, g, d in arcs]
    lines += ["f %d" % f for f in finals]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def test_dump_renumbers_a_hand_written_file(tmp_path, monkeypatch, capsys):
    machine = machine_file(tmp_path, "m.fst", 2, [(1, "a", 0)], [0], "a",
                           initial=1)
    rc, out, err = run(monkeypatch, capsys, ["dump", "-m", str(machine)])
    assert rc == 0
    assert "fst 2 0\n" in out
    assert out.endswith("t 0 1 a a\nf 1\n")


def test_dump_of_a_huge_declared_state_count_allocates_nothing(
        tmp_path, monkeypatch, capsys):
    huge, one = tmp_path / "huge.fst", tmp_path / "one.fst"
    huge.write_text("fst 100000000 0\n")
    one.write_text("fst 1 0\n")
    rc, out, err = run(monkeypatch, capsys, ["dump", "-m", str(huge)])
    assert rc == 0
    assert out == run(monkeypatch, capsys, ["dump", "-m", str(one)])[1]


@pytest.mark.parametrize("header", ["cascadeX 1", "#tokensX a"])
def test_dump_of_a_malformed_header_is_a_usage_error(tmp_path, monkeypatch,
                                                     capsys, header):
    machine = machine_file(tmp_path, "m.fst", 2, [(0, "a", 1)], [1], "a")
    machine.write_text(header + "\n" + machine.read_text())
    rc, out, err = run(monkeypatch, capsys, ["dump", "-m", str(machine)])
    assert rc == 2
    assert err.startswith("error: ") and out == ""


def test_equiv_ignores_dead_states_of_a_loaded_file(tmp_path, monkeypatch,
                                                    capsys):
    # both accept exactly {a, b}; state 3 of the first reaches no final
    # state, so minimizing the untrimmed file would keep it
    m1 = machine_file(tmp_path, "one.fst", 4,
                      [(0, "a", 1), (0, "b", 2), (1, "c", 3)], [1, 2], "abc")
    m2 = machine_file(tmp_path, "two.fst", 2,
                      [(0, "a", 1), (0, "b", 1)], [1], "ab")
    rc, out, err = run(monkeypatch, capsys, ["equiv", str(m1), str(m2)])
    assert rc == 0
    assert out.strip() == "equivalent"


def test_equiv_accepts_equal_rules(tmp_path, monkeypatch, capsys):
    m1 = compiled(tmp_path, "match_n(3, a).", "one.fsr")
    m2 = compiled(tmp_path, "[a, a, a].", "two.fsr")
    rc, out, err = run(monkeypatch, capsys, ["equiv", str(m1), str(m2)])
    assert rc == 0
    assert out.strip() == "equivalent"


def test_equiv_rejects_different_rules(tmp_path, monkeypatch, capsys):
    m1 = compiled(tmp_path, "match_n(3, a).", "one.fsr")
    m2 = compiled(tmp_path, "[a, a].", "two.fsr")
    rc, out, err = run(monkeypatch, capsys, ["equiv", str(m1), str(m2)])
    assert rc == 1
    assert out.strip() == "not equivalent"


def test_cascade_roundtrip(tmp_path, monkeypatch, capsys):
    rules = tmp_path / "r.fsr"
    rules.write_text("replace(a x b, [], []).")
    out_path = tmp_path / "r.fsm"
    rc = main(["compile", "-r", str(rules), "-o", str(out_path), "--cascade"])
    assert rc == 0
    text = out_path.read_text()
    assert text.startswith("cascade 9\n")
    rc, out, err = run(monkeypatch, capsys,
                       ["apply", "-m", str(out_path)], "aa\n")
    assert rc == 0
    assert out == "bb\n"


def test_cascade_builds_the_factors_once(tmp_path, monkeypatch):
    # the machine is composed from the very factors the cascade file holds
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return wrapper

    # the package re-exports the function replace under the module's name
    replace_module = importlib.import_module("fsrw.replace")
    for module, name in ((fsrw.dsl, "_replace_factors"),
                         (replace_module, "replace_factors")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    out_path = tmp_path / "abbrev.fsm"
    rc = main(["compile", "-r", str(ROOT / "rules" / "abbrev.fsr"),
               "-o", str(out_path), "--cascade"])
    assert rc == 0
    assert out_path.read_text().startswith("cascade 9\n")
    assert len(calls) == 1


def test_cascade_writes_the_factors_without_folding(tmp_path, monkeypatch):
    folds = []
    replace_module = importlib.import_module("fsrw.replace")
    for module in (fsrw.cli, replace_module):
        monkeypatch.setattr(module, "compose_cascade",
                            lambda ms: folds.append(ms))
    rc = main(["compile", "-r", str(ROOT / "rules" / "abbrev.fsr"),
               "-o", str(tmp_path / "abbrev.fsm"), "--cascade"])
    assert rc == 0
    assert folds == []


def test_a_compile_builds_each_marker_constant_once(tmp_path, store):
    # cascade27 joins four replace rules with 'o', each with a kit of its
    # own; against an empty shape cache the first builds every constant
    # and the others find it there, as they find every other kit machine
    _, builds = count_memo(store)
    rc = main(["compile", "-r", str(ROOT / "bench" / "rules" / "cascade27.fsr"),
               "-o", str(tmp_path / "cascade27.fsm")])
    assert rc == 0
    assert any(len(key) == 2 for key in builds)  # (shape, name): a constant
    assert set(builds.values()) == {1}


def test_cascade_of_an_lm_concat_rule_fails(tmp_path, monkeypatch, capsys):
    rules = tmp_path / "r.fsr"
    rules.write_text(TOPO)
    out_path = tmp_path / "r.fsm"
    rc, out, err = run(monkeypatch, capsys,
                       ["compile", "-r", str(rules), "-o", str(out_path),
                        "--cascade"])
    assert rc == 2
    assert err == "error: only a replace rule splits into cascade factors\n"
    assert not out_path.exists()


def test_check_replace_agrees(tmp_path, monkeypatch, capsys):
    rules = tmp_path / "r.fsr"
    rules.write_text("replace(a x b, [], b).")
    rc, out, err = run(monkeypatch, capsys,
                       ["check", "-r", str(rules), "--samples", "40"])
    assert rc == 0
    assert "all agree" in out


def test_check_lm_concat_agrees(tmp_path, monkeypatch, capsys):
    rules = tmp_path / "r.fsr"
    rules.write_text(TOPO)
    rc, out, err = run(monkeypatch, capsys,
                       ["check", "-r", str(rules), "--samples", "30",
                        "--max-len", "12"])
    assert rc == 0
    assert "all agree" in out


def test_check_lm_concat_agrees_on_a_five_piece_rule(monkeypatch, capsys):
    rc, out, err = run(monkeypatch, capsys,
                       ["check", "-r", str(ROOT / "bench" / "rules" / "lm5.fsr"),
                        "--samples", "500", "--max-len", "12"])
    assert rc == 0
    assert out == "checked 449 inputs: all agree; skipped 0 with an infinite output set\n"


def test_check_reports_skipped_infinite_output_sets(tmp_path, monkeypatch,
                                                   capsys):
    # every input with an `a` has infinitely many outputs (b, bb, ...);
    # only the a-free ones ("", "b", "bb", ...) can be compared
    rules = tmp_path / "r.fsr"
    rules.write_text("replace(a x b*, [], []).")
    rc, out, err = run(monkeypatch, capsys,
                       ["check", "-r", str(rules), "--samples", "40",
                        "--max-len", "4"])
    assert rc == 0
    checked, skipped = map(int, re.fullmatch(
        r"checked (\d+) inputs: all agree; "
        r"skipped (\d+) with an infinite output set\n", out).groups())
    assert checked == 3 and skipped == 16


def test_check_needs_a_rule(tmp_path, monkeypatch, capsys):
    rules = tmp_path / "r.fsr"
    rules.write_text("[a, b].")
    rc, out, err = run(monkeypatch, capsys, ["check", "-r", str(rules)])
    assert rc == 2
    assert "check needs a replace or lm_concat rule" in err


def test_check_long_inputs_end_with_a_result(monkeypatch, capsys):
    # the oracle scans with an explicit stack, so inputs thousands of
    # symbols long need no deeper recursion
    rc, out, err = run(monkeypatch, capsys,
                       ["check", "-r", str(ROOT / "rules" / "devoice_final.fsr"),
                        "--samples", "3", "--max-len", "3000", "--seed", "1"])
    assert rc == 0
    assert out == "checked 3 inputs: all agree; skipped 0 with an infinite output set\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("flag,value", [("--samples", "0"), ("--samples", "-5"),
                                        ("--samples", "x"), ("--max-len", "-2"),
                                        ("--max-len", "x")])
def test_check_rejects_bad_counts(monkeypatch, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        run(monkeypatch, capsys,
            ["check", "-r", str(ROOT / "rules" / "devoice_final.fsr"), flag, value])
    assert exc.value.code == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert "usage:" in got.err and flag in got.err


def test_check_max_len_zero_checks_the_empty_input(tmp_path, monkeypatch, capsys):
    # a rule with no user symbols has the empty string as its only input,
    # whatever --max-len says
    (tmp_path / "none.fsr").write_text("replace([]:[], [], []).")
    (tmp_path / "empty.fsr").write_text("replace({}, [], []).")
    for argv in (["-r", str(ROOT / "rules" / "devoice_final.fsr"),
                  "--samples", "5", "--max-len", "0"],
                 ["-r", str(tmp_path / "none.fsr")], ["-r", str(tmp_path / "empty.fsr")]):
        rc, out, err = run(monkeypatch, capsys, ["check", *argv])
        assert rc == 0
        assert out == "checked 1 inputs: all agree; skipped 0 with an infinite output set\n"


def test_missing_file_is_a_usage_error(monkeypatch, capsys):
    rc, out, err = run(monkeypatch, capsys,
                       ["compile", "-r", "/nonexistent.fsr", "-o", "/tmp/x"])
    assert rc == 2
    assert "error:" in err


def test_bad_rules_fail_with_rc_1(tmp_path, monkeypatch, capsys):
    rules = tmp_path / "r.fsr"
    rules.write_text("frobnicate(a).")
    rc, out, err = run(monkeypatch, capsys,
                       ["compile", "-r", str(rules), "-o", "/tmp/x.fsm"])
    assert rc == 1
    assert "unknown operator" in err


@pytest.mark.parametrize("body", ["fst 1 0\nsym x a\n", "fst 1 0\nf x\n"],
                         ids=["sym", "f"])
def test_malformed_machine_file_is_a_usage_error(tmp_path, monkeypatch,
                                                 capsys, body):
    machine = tmp_path / "m.fst"
    machine.write_text(body)
    rc, out, err = run(monkeypatch, capsys, ["apply", "-m", str(machine)],
                       "a\n")
    assert rc == 2
    assert "error: bad" in err


@pytest.mark.parametrize("text", [
    "(" * 3000 + "a" + ")" * 3000 + ".",
    "~" * 3000 + "a.",
    "macro(f(X), " + "~" * 150 + "X).\n" + "f(" * 10 + "a" + ")" * 10 + ".\n",
    "macro(m0, a).\n" + "".join("macro(m%d, m%d).\n" % (k, k - 1)
                                for k in range(1, 5001)) + "m5000.\n",
], ids=["parens", "prefix", "macro", "macro-chain"])
def test_deep_nesting_is_a_rule_error(tmp_path, text):
    rules = tmp_path / "deep.fsr"
    rules.write_text(text)
    # a fresh interpreter, so the stack is the command line's own
    src_dir = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fsrw.cli", "compile", "-r", str(rules),
         "-o", str(tmp_path / "deep.fst")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "nested too deeply" in proc.stderr


def test_undecodable_rule_file_is_a_usage_error(tmp_path, monkeypatch, capsys):
    rules = tmp_path / "r.fsr"
    rules.write_bytes(b"[a, \xff].")
    rc, out, err = run(monkeypatch, capsys,
                       ["compile", "-r", str(rules), "-o", str(tmp_path / "x")])
    assert rc == 2
    assert err.startswith("error: ") and "not UTF-8" in err


@pytest.mark.parametrize("cmd", ["dump", "apply"])
def test_undecodable_machine_file_is_a_usage_error(tmp_path, monkeypatch,
                                                   capsys, cmd):
    machine = tmp_path / "m.fst"
    machine.write_bytes(b"fst 1 0\nsym \xff a\n")
    rc, out, err = run(monkeypatch, capsys, [cmd, "-m", str(machine)], "a\n")
    assert rc == 2
    assert err.startswith("error: ") and "not UTF-8" in err


@pytest.mark.parametrize("text", ["[" + "1" * 5000 + "].",
                                  "match_n(-" + "9" * 5000 + ", a)."],
                         ids=["literal", "count"])
def test_huge_integer_literal_is_a_rule_error(tmp_path, monkeypatch, capsys,
                                              text):
    # past Python's integer string-conversion limit (4300 digits)
    rules = tmp_path / "r.fsr"
    rules.write_text(text)
    rc, out, err = run(monkeypatch, capsys,
                       ["compile", "-r", str(rules), "-o", str(tmp_path / "x")])
    assert rc == 1
    assert err.startswith("error: ") and "too long" in err
    assert "Traceback" not in err


def test_match_n_count_past_an_index_is_a_rule_error(tmp_path, monkeypatch,
                                                   capsys):
    rules = tmp_path / "r.fsr"
    rules.write_text("match_n(100000000000000000000, a).")
    rc, out, err = run(monkeypatch, capsys,
                       ["compile", "-r", str(rules), "-o", str(tmp_path / "x")])
    assert rc == 1
    assert err.startswith("error: ") and "too large" in err
    assert "line 1, column 9" in err
    assert "Traceback" not in err


def test_a_match_n_past_the_repeat_bound_fails_before_building(
        tmp_path, monkeypatch, capsys):
    # 400 000 copies of a 2-state item: the copies would be laid out before
    # any later check, so nothing may be concatenated
    def refuse(*machines):
        raise AssertionError("concat called on %d machines" % len(machines))
    monkeypatch.setattr(fsrw.dsl, "concat", refuse)
    rules = tmp_path / "r.fsr"
    rules.write_text("match_n(400000, a).")
    started = time.perf_counter()
    rc, out, err = run(monkeypatch, capsys,
                       ["compile", "-r", str(rules), "-o", str(tmp_path / "x")])
    assert time.perf_counter() - started < 1
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "400000 times" in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_the_repeat_bound_is_a_count_times_the_item_states():
    cap = fsrw.dsl.REPEAT_STATES_CAP
    fsrw.dsl.compile_rules("match_n(%d, a)." % (cap // 2))  # 2 states a copy
    with pytest.raises(fsrw.dsl.RuleError, match="3-state pattern"):
        fsrw.dsl.compile_rules("match_n(%d, [a, b])." % (cap // 3 + 1))


def test_match_n_count_through_a_macro_keeps_its_position():
    text = "macro(rep(N, X), match_n(N, X)).\n[b, rep(99999999999999999999, a)]."
    with pytest.raises(fsrw.dsl.RuleError, match="line 2, column 9"):
        fsrw.dsl.compile_rules(text)


def test_integer_glyph_past_the_conversion_limit_is_a_rule_error():
    with pytest.raises(fsrw.dsl.RuleError, match="too long"):
        fsrw.dsl.Compiler(SymbolTable()).compile(fsrw.dsl.IntLit(10 ** 5000))
