"""The rule language: lexing, parsing, macros, compilation, printing.

Program syntax in one breath: `#alphabet` pins extra symbols, `macro(name,
body)` or `macro(name(p1, p2), body)` defines macros, exactly one main
expression ends the program, every clause ends with '.'.  Expressions use
[] for sequence, {} for union, postfix * + ^, prefix ~ $ $$, infix : x o
- &, and ? for any user symbol."""

import importlib
import inspect
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hypothesis import given, settings
import hypothesis.strategies as st

import fsrw.dsl
from fsrw import (
    FsmError,
    MarkerKit,
    accepts,
    compose_cascade,
    lang_enum,
    transduce,
)
from fsrw.dsl import (
    _BUILTINS,
    _INFIX,
    _POSTFIX,
    _PREFIX,
    _WRAPPERS,
    AnySym,
    Call,
    Compiler,
    Complement,
    Compose,
    Contain,
    Cross,
    Diff,
    Domain,
    EmptyLang,
    EmptyString,
    Identity,
    Intersect,
    Inverse,
    IntLit,
    Literal,
    LmConcat,
    Option,
    Pair,
    Plus,
    Range,
    Replace,
    RuleError,
    Seq,
    Star,
    Union,
    _on_cycles,
    compile_rules,
    expand_macros,
    macro_env,
    parse_expr,
    parse_program,
    pretty_print,
    stdlib_macros,
    tokenize,
)
from fsrw.dump import dump_text
from fsrw.fsm import _reach

from gen import random_macro_program


def outputs(cp, syms):
    res = transduce(cp.machine, list(syms))
    assert not res.truncated
    return set(res.strings())


# lexing ------------------------------------------------------------------


def test_comments_and_whitespace_are_skipped():
    cp = compile_rules("% a comment\n  [a, b]. % trailing\n")
    assert lang_enum(cp.machine, 2) == {"ab"}


def test_quoted_symbols_with_doubled_quotes():
    cp = compile_rules("['it''s', ' '].")
    assert cp.table.user_glyphs() == ("it's", " ")
    assert accepts(cp.machine, ["it's", " "])


@pytest.mark.parametrize("src,msg", [
    ("a # b.", "unexpected '#'"),
    ("'abc.", "unterminated quoted symbol"),
    ("''.", "empty quoted symbol"),
    ("a | b.", "unexpected character '|'"),
    ("a.\n  | b.", "unexpected character '|' at line 2, column 3"),
    ("[a,\tb, |].", "unexpected character '|' at line 1, column 8"),
    ("% note\n  a # b.", "unexpected '#' (quote it to use it as a symbol)"
                         " at line 2, column 5"),
    ("#alphabet1 a. a.", "unexpected '#' (quote it to use it as a symbol)"
                         " at line 1, column 1"),
    ("['ab\ncd'].", "newline in quoted symbol at line 1, column 2"),
    ("'abc''", "unterminated quoted symbol at line 1, column 1"),
    # a trailing comment leaves the end of input where the comment starts
    ("a % c", "found 'eof' at line 1, column 3"),
])
def test_lexer_errors(src, msg):
    with pytest.raises(RuleError, match=re.escape(msg)):
        compile_rules(src)


def test_quoted_hash_is_an_ordinary_symbol():
    cp = compile_rules("['#', a].")
    assert accepts(cp.machine, ["#", "a"])


# parsing -----------------------------------------------------------------


def test_precedence_compose_loosest_postfix_tightest():
    ast = parse_expr("a x b o c")
    assert isinstance(ast, Compose)
    assert isinstance(ast.left, Cross)

    ast = parse_expr("~a - b")
    assert isinstance(ast, Diff)
    assert isinstance(ast.left, Complement)

    ast = parse_expr("a:b*")
    assert isinstance(ast, Pair)
    assert isinstance(ast.right, Star)


def test_wrapper_calls_become_nodes():
    assert isinstance(parse_expr("domain(a x b)"), Domain)
    assert isinstance(parse_expr("range(a x b)"), Range)
    assert isinstance(parse_expr("identity(a)"), Identity)
    assert isinstance(parse_expr("inverse(a x b)"), Inverse)


def test_empty_brackets_and_braces():
    assert parse_expr("[]") == EmptyString()
    assert parse_expr("{}") == EmptyLang()


def test_program_needs_exactly_one_main():
    with pytest.raises(RuleError, match="no main expression"):
        parse_program("macro(f, a).")
    with pytest.raises(RuleError, match="exactly one main expression"):
        parse_program("a. b.")


@pytest.mark.parametrize("parse,text", [
    (parse_program, "(" * 3000 + "a" + ")" * 3000 + "."),
    (parse_expr, "~" * 3000 + "a"),
    (compile_rules, "macro(f(X), " + "~" * 150 + "X).\n"
     + "f(" * 10 + "a" + ")" * 10 + ".\n"),
], ids=["parens", "prefix", "macro"])
def test_deep_nesting_is_a_rule_error(parse, text):
    with pytest.raises(RuleError, match="nested too deeply"):
        parse(text)


def test_nested_calls_expand_each_argument_once():
    # 600 complements: expansion never walks an argument again, so only
    # the compiler's own recursion bounds the depth
    cp = compile_rules("macro(f(X), " + "~" * 150 + "X).\nf(f(f(f(a)))).\n")
    assert lang_enum(cp.machine, 2) == {"a"}


def _macro_chain(depth):
    """m_depth expands through depth macros down to the literal a."""
    lines = ["macro(m0, a)."] + ["macro(m%d, m%d)." % (k, k - 1)
                                  for k in range(1, depth + 1)]
    return "\n".join(lines + ["m%d.\n" % depth])


def test_long_macro_chain_compiles():
    # no expansion budget: macro_env already rejects recursive macros
    m = compile_rules(_macro_chain(400)).machine
    assert lang_enum(m, 2) == {"a"}


def test_lm_concat_requires_a_bracketed_list():
    with pytest.raises(RuleError, match="bracketed list"):
        parse_expr("lm_concat(a)")


# macros ------------------------------------------------------------------


def test_macro_with_parameters():
    cp = compile_rules("""
        macro(twice(e), [e, e]).
        twice({a, b}).
    """)
    assert lang_enum(cp.machine, 2) == {"aa", "ab", "ba", "bb"}


def test_bare_zero_arg_macro_expands():
    cp = compile_rules("""
        macro(vowel, {a, e}).
        [vowel, vowel].
    """)
    assert lang_enum(cp.machine, 2) == {"aa", "ae", "ea", "ee"}
    # and the macro name never leaks into the alphabet
    assert "vowel" not in cp.table.user_glyphs()


def test_macros_can_call_macros():
    cp = compile_rules("""
        macro(one, a).
        macro(two(e), [e, one]).
        two(b).
    """)
    assert lang_enum(cp.machine, 2) == {"ba"}


def test_same_name_different_arity_coexist():
    cp = compile_rules("""
        macro(f, a).
        macro(f(e), [e, f]).
        f(b).
    """)
    assert lang_enum(cp.machine, 2) == {"ba"}


def test_duplicate_macro_is_rejected():
    with pytest.raises(RuleError, match="duplicate macro f/1"):
        compile_rules("macro(f(e), e). macro(f(g), g). a.")


def test_duplicate_parameter_is_rejected():
    with pytest.raises(RuleError, match="duplicate parameter 'e'"):
        compile_rules("macro(f(e, e), e). a.")


def test_recursive_macro_is_rejected():
    with pytest.raises(RuleError, match="recursive macro f/0"):
        compile_rules("macro(f, [f]). f.")
    with pytest.raises(RuleError, match="recursive macro"):
        compile_rules("macro(g(e), h(e)). macro(h(e), g(e)). g(a).")


def test_a_parameter_is_not_a_call():
    # w's parameter v names the macro v, which calls w: no cycle
    cp = compile_rules("macro(v, w(b)). macro(w(v), [v, v]). v.")
    assert lang_enum(cp.machine, 3) == {"bb"}


@pytest.mark.parametrize("name", ["v", "'v'"], ids=["bare", "quoted"])
def test_a_parameter_shadows_a_zero_arg_macro(name):
    cp = compile_rules("macro(v, b). macro(f(v), [%s, a]). f(c)." % name)
    assert lang_enum(cp.machine, 3) == {"ca"}


_CYCLES_AFTER_X = "macro(x, [a1, b1]). macro(a1, a1). macro(b1, b1). x."


def test_recursion_error_names_the_first_recursive_macro():
    with pytest.raises(RuleError, match="recursive macro a1/0"):
        compile_rules(_CYCLES_AFTER_X)
    # reached first from x, but defined after the cycle g -> h -> g
    with pytest.raises(RuleError, match="recursive macro g/0"):
        compile_rules("macro(x, h). macro(g, h). macro(h, [g, x2]). "
                      "macro(x2, x2). x.")


def test_recursion_error_is_the_same_on_every_hash_seed():
    # string hashing orders sets differently per seed; the error must not
    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    script = ("from fsrw.dsl import RuleError, compile_rules\n"
              "try:\n    compile_rules(%r)\n"
              "except RuleError as e:\n    print(e)\n" % _CYCLES_AFTER_X)
    for seed in range(8):
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(seed)),
            timeout=60)
        assert (seed, proc.stdout) == (seed, "recursive macro a1/0\n")


def test_a_long_chain_into_a_cycle_is_named_in_linear_time():
    # every macro of the chain reaches the cycle c -> c, none lies on it
    n = 20_000
    text = ("macro(m0, c).\n"
            + "".join("macro(m%d, m%d).\n" % (k, k - 1) for k in range(1, n + 1))
            + "macro(c, [c]).\nm%d.\n" % n)
    start = time.perf_counter()
    with pytest.raises(RuleError, match="recursive macro c/0"):
        compile_rules(text)
    assert time.perf_counter() - start < 5


def test_on_cycles_agrees_with_reachability():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 8)
        graph = {k: rng.sample(range(n), rng.randint(0, min(n, 3)))
                 for k in range(n)}
        assert _on_cycles(graph) == {k for k in graph
                                     if k in _reach(graph[k], graph)}, graph


def test_unknown_operator_is_rejected():
    with pytest.raises(RuleError, match="unknown operator frobnicate/1"):
        compile_rules("frobnicate(a).")


def test_zero_arg_builtins_need_parens():
    # a bare builtin name is an ordinary symbol, the call form is the
    # operator
    cp = compile_rules("#alphabet a. sig().")
    assert lang_enum(cp.machine, 2) == {"a0", "<10", "<20", "1>0", "2>0"}
    cp = compile_rules("[sig].")
    assert cp.table.user_glyphs() == ("sig",)


def test_match_n_normalization():
    cp = compile_rules("match_n(3, a).")
    assert lang_enum(cp.machine, 3) == {"aaa"}
    cp = compile_rules("match_n(0, a).")
    assert lang_enum(cp.machine, 3) == {""}
    with pytest.raises(RuleError, match="negative number of times"):
        compile_rules("match_n(-2, a).")
    with pytest.raises(RuleError, match="literal count"):
        compile_rules("match_n(a, a).")


def test_negative_int_is_only_a_count():
    for text in ("[-3].", "[-3:a].", "[a:-3]."):
        with pytest.raises(RuleError, match="only counts for match_n"):
            compile_rules(text)


def test_stdlib_priority_union():
    cp = compile_rules("""
        #alphabet a b c.
        priority_union(a x b, (a x c) o (c x c)).
    """)
    # the first relation wins where its domain applies
    assert outputs(cp, "a") == {"b"}


def test_stdlib_lenient_composition():
    cp = compile_rules("""
        #alphabet a b c.
        lenient_composition(a x b, b x c).
    """)
    # the constraint applies where composable, else the relation stands
    assert outputs(cp, "a") == {"c"}


# calls of the predefined macros on arguments that use no name below
_FORMULA_CALLS = [
    "%s([sig()*, non_markers(a)], [non_markers(b), sig()*])" % name
    for name in ("if_p_then_s", "if_s_then_p", "p_iff_s", "l_iff_r")] + [
    "coerce_to_boolean(a x b)", "if(a, non_markers(b), lb1())",
    "if({}, non_markers(b), lb1())", "lenient_composition(a x b, b x c)"]


@pytest.mark.parametrize("redefinition", [
    "macro(not(X), X).", "macro(not(X), if_p_then_s(X, X)).",
    "macro(xsig, a).", "macro(true, []).", "macro(true, b)."])
def test_predefined_macros_ignore_the_programs_macros(redefinition):
    # a predefined body calls builtins and predefined macros only, so a
    # program may take any name it calls
    for call in _FORMULA_CALLS:
        text = "#alphabet a b c.\n%s.\n" % call
        plain = dump_text(compile_rules(text).machine)
        redefined = compile_rules(redefinition + "\n" + text)
        assert dump_text(redefined.machine) == plain, call


def test_a_redefinition_may_call_the_predefined_macro_that_uses_its_name():
    # not/1 calls if_p_then_s, whose own not is the builtin: no recursion
    cp = compile_rules("macro(not(X), if_p_then_s(X, X)). not(sig()).")
    want = compile_rules("if_p_then_s(sig(), sig()).")
    assert dump_text(cp.machine) == dump_text(want.machine)


def test_lenient_composition_keeps_the_predefined_priority_union():
    # the program's priority_union answers its own calls, never the one
    # in lenient_composition's body
    text = """
        #alphabet a b c.
        macro(priority_union(Q,R), R).
        %s.
    """
    assert outputs(compile_rules(text % "lenient_composition(a x b, b x c)"),
                   "a") == {"c"}
    assert outputs(compile_rules(text % "lenient_composition(a x b, c x c)"),
                   "a") == {"b"}
    assert outputs(compile_rules(text % "priority_union(a x b, a x c)"),
                   "a") == {"c"}
    # so a priority_union calling lenient_composition is no cycle
    cp = compile_rules("macro(priority_union(Q,R), lenient_composition(Q, R)).\n"
                       "priority_union(a x b, c x c).")
    assert outputs(cp, "a") == {"b"}


# alphabet collection -------------------------------------------------------


def test_alphabet_directive_comes_first_in_order():
    cp = compile_rules("#alphabet c b. [a, b].")
    assert cp.table.user_glyphs() == ("c", "b", "a")


def test_literals_collected_in_first_occurrence_order():
    cp = compile_rules("{b, [a, c], b}.")
    assert cp.table.user_glyphs() == ("b", "a", "c")


def test_int_literals_become_digit_glyphs():
    cp = compile_rules("[1, 2].")
    assert cp.table.user_glyphs() == ("1", "2")
    assert lang_enum(cp.machine, 2) == {"12"}


def test_macro_bodies_do_not_pollute_the_alphabet():
    cp = compile_rules("macro(unused(e), [e, z]). a.")
    assert cp.table.user_glyphs() == ("a",)


# compilation ---------------------------------------------------------------


def test_pair_compiles_to_a_symbol_pair():
    cp = compile_rules("{a:b, c:[]}.")
    assert outputs(cp, "a") == {"b"}
    assert outputs(cp, "c") == {""}


def test_pair_sides_must_be_single_symbols():
    with pytest.raises(RuleError, match="pairs single symbols"):
        compile_rules("[a, b]:c.")


def test_anysym_is_the_user_alphabet():
    cp = compile_rules("#alphabet a b. ?.")
    assert lang_enum(cp.machine, 1) == {"a", "b"}


def test_complement_of_a_transduction_is_rejected():
    with pytest.raises(FsmError, match="project it first"):
        compile_rules("~(a x b).")


def test_containment_covers_the_full_alphabet():
    cp = compile_rules("#alphabet a. $a.")
    # reserved glyphs count as ordinary symbols at this level
    assert accepts(cp.machine, ["0", "a", "<1"])
    assert not accepts(cp.machine, ["0", "<1"])


def test_replace_program_end_to_end():
    cp = compile_rules("replace(a x b, [], b).")
    assert cp.kind == "replace"
    assert outputs(cp, "aab") == {"abb"}
    assert len(cp.factors()) == 9
    # the machine is the fold of the kept factors, which are not rebuilt
    assert cp.factors() is cp.factors()
    assert cp.machine.same_structure(compose_cascade(cp.factors()))


def test_replace_machine_folds_its_factors_on_first_use(monkeypatch):
    folds = []

    def counted(factors):
        folds.append(factors)
        return compose_cascade(factors)

    # the package re-exports the function replace under the module's name
    replace_module = importlib.import_module("fsrw.replace")
    monkeypatch.setattr(replace_module, "compose_cascade", counted)
    cp = compile_rules("replace(a x b, [], b).")
    assert folds == []
    machine = cp.machine
    assert cp.machine is machine
    assert len(folds) == 1
    # folded by piece, over five machines, to the nine factors' fold
    assert cp.machine.same_structure(compose_cascade(cp.factors()))


def _builtin_call(name, arity):
    args = ["2", "a"] if name == "match_n" else ["a"] * arity
    return "%s(%s)" % (name, ", ".join(args))


# every builtin operator, match_n and every predefined macro, once each,
# inside a piece whose domain is never empty
_CALLABLE = [*_BUILTINS, ("match_n", 2), *stdlib_macros()]
_CALL_PIECES = ["lm_concat([{%s, b x c}, c x b])." % _builtin_call(*key)
                for key in _CALLABLE]


@pytest.mark.parametrize("text", ["replace(a x b, c, d).",
                                  "lm_concat([identity(a*), b x c]).",
                                  *_CALL_PIECES],
                         ids=["replace", "lm_concat",
                              *("%s/%d" % key for key in _CALLABLE)])
def test_top_level_pieces_compile_once(monkeypatch, text):
    seen = []
    build = Compiler._c

    def counted(self, node):
        if id(node) not in self._built:  # a build, not a memo hit
            seen.append(node)
        return build(self, node)

    monkeypatch.setattr(Compiler, "_c", counted)
    cp = compile_rules(text)
    rule = cp.ast
    pieces = rule.items if isinstance(rule, LmConcat) else \
        (rule.target, rule.left, rule.right)
    assert len(pieces) == len(cp.pieces)
    for piece in pieces:
        assert seen.count(piece) == 1


def test_every_builtin_is_a_kit_operator_of_its_arity():
    for (name, arity), attr in _BUILTINS.items():
        member = inspect.getattr_static(MarkerKit, attr)
        if arity == 0:
            assert isinstance(member, property), name
        else:
            params = list(inspect.signature(member).parameters)[1:]
            assert len(params) == arity, name
    assert not set(_BUILTINS) & set(stdlib_macros())
    assert ("match_n", 2) not in set(_BUILTINS) | set(stdlib_macros())


def test_lm_concat_program_end_to_end():
    cp = compile_rules("lm_concat([[identity(a*), []:'#'], identity(a)]).")
    assert cp.kind == "lm_concat"
    assert outputs(cp, "aaa") == {"aa#a"}


def test_factors_only_for_replace():
    cp = compile_rules("[a, b].")
    assert cp.kind == "plain"
    with pytest.raises(RuleError, match="only a replace rule"):
        cp.factors()


# printing ------------------------------------------------------------------


_glyphs = st.sampled_from(["a", "b", "cd", "x", "o", "it's", " ", "#", "0"])
_lits = st.builds(Literal, _glyphs)
_pair_sides = st.one_of(_lits, st.builds(IntLit, st.integers(0, 9)),
                        st.just(EmptyString()))
_atoms = st.one_of(
    _lits,
    st.builds(IntLit, st.integers(0, 9)),
    st.just(EmptyString()),
    st.just(EmptyLang()),
    st.just(AnySym()),
)


def _compound(children):
    tup = st.lists(children, min_size=1, max_size=3).map(tuple)
    return st.one_of(
        st.builds(Seq, tup),
        st.builds(Union, tup),
        st.builds(Star, children),
        st.builds(Plus, children),
        st.builds(Option, children),
        st.builds(Complement, children),
        st.builds(Contain, children),
        st.builds(Diff, children, children),
        st.builds(Intersect, children, children),
        st.builds(Cross, children, children),
        st.builds(Compose, children, children),
        st.builds(Pair, _pair_sides, _pair_sides),
        st.builds(Domain, children),
        st.builds(Range, children),
        st.builds(Identity, children),
        st.builds(Inverse, children),
        st.builds(Replace, children, children, children),
        st.builds(LmConcat, tup),
        st.builds(lambda e: Call("$$", (e,)), children),
    )


_exprs = st.recursive(_atoms, _compound, max_leaves=12)


@given(_exprs)
@settings(max_examples=200, deadline=None)
def test_pretty_print_parses_back_to_the_same_tree(ast):
    assert parse_expr(pretty_print(ast)) == ast


def test_pretty_print_quotes_operator_glyphs():
    assert pretty_print(Literal("x")) == "'x'"
    assert pretty_print(Literal("o")) == "'o'"
    assert pretty_print(Literal("ab_1")) == "ab_1"
    assert pretty_print(Literal("it's")) == "'it''s'"


def test_expand_macros_handles_nested_calls():
    prog = parse_program("""
        macro(opt(e), {e, []}).
        macro(win(e), [opt(e), e]).
        win(a).
    """)
    ast = expand_macros(prog.main, macro_env(prog))
    assert ast == Seq((Union((Literal("a"), EmptyString())), Literal("a")))


def test_an_argument_used_twice_is_one_shared_node():
    prog = parse_program("macro(dup(X), [X,X]). dup(dup(a)).")
    ast = expand_macros(prog.main, macro_env(prog))
    assert ast == Seq((Seq((Literal("a"),) * 2),) * 2)
    assert ast.items[0] is ast.items[1]
    # a zero-argument macro is the same at every call, bare or with ()
    prog = parse_program("macro(aa, [a,a]). [aa, aa()].")
    ast = expand_macros(prog.main, macro_env(prog))
    assert ast == Seq((Seq((Literal("a"),) * 2),) * 2)
    assert ast.items[0] is ast.items[1]
    # and so is a call repeated on the same argument nodes: if's body
    # calls coerce_to_boolean(C) twice
    prog = parse_program("if(a, b, c).")
    ast = expand_macros(prog.main, macro_env(prog))
    then, other = ast.items
    assert then.left is other.left.item
    # but two calls on equal arguments written apart are two nodes
    prog = parse_program("macro(f(X), [X]). [f(a), f(a)].")
    ast = expand_macros(prog.main, macro_env(prog))
    assert ast.items[0] == ast.items[1] and ast.items[0] is not ast.items[1]


def test_a_shared_node_is_built_once(monkeypatch):
    calls = []
    for name in ("concat", "_replace"):
        def counted(*args, _build=getattr(fsrw.dsl, name), _name=name, **kw):
            calls.append(_name)
            return _build(*args, **kw)
        monkeypatch.setattr(fsrw.dsl, name, counted)
    # 12 distinct sequences, 4 095 as a tree
    compile_rules("macro(dup(X), [X,X]).\n" + "dup(" * 12 + "a" + ")" * 12
                  + ".\n")
    assert calls == ["concat"] * 12
    calls.clear()
    compile_rules("#alphabet a b c. macro(f(X), [X,X,X,X]).\n"
                  "f(replace(a x b, c, [])).")
    assert calls == ["_replace", "concat"]


def _outcome(text):
    try:
        return dump_text(compile_rules(text).machine)
    except FsmError as e:
        return type(e), str(e)


def test_a_shared_expansion_compiles_like_its_copy():
    # the printed expansion writes a shared node out at every use, so the
    # copy compiles as a tree: sharing must not move a byte or an error
    rng = random.Random(20261019)
    for _ in range(200):
        text = random_macro_program(rng)
        prog = parse_program(text)
        ast = expand_macros(prog.main, macro_env(prog))
        copy = "#alphabet %s.\n%s.\n" % (" ".join(prog.alphabet),
                                          pretty_print(ast))
        assert _outcome(copy) == _outcome(text), text


def test_a_callee_sees_only_its_own_parameters():
    # g's X is a free symbol, not f's parameter
    cp = compile_rules("macro(f(X), g(X)). macro(g(Y), [Y, X]). f(a).")
    assert lang_enum(cp.machine, 3) == {"aX"}


def test_readme_names_every_operator():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("Expression syntax")[1].split("\n\n")[1]
    # the operator texts used in the first column's code spans
    used = {tok.text for row in table.splitlines()[2:]
            for span in re.findall(r"`([^`]+)`", row.split("|")[1])
            for tok in tokenize(span) if tok.kind != "quoted"}
    for text in [*_POSTFIX, *_PREFIX, *_INFIX, *_WRAPPERS, "$$"]:
        assert text in used, text
