"""Random machines, rules, and model languages shared by the randomized
suites.  Everything takes an explicit random.Random so runs are repeatable.
Also two helpers for the marker suites: rule text compiled over given
machines, and a count of the marker machines a run looks up and builds."""

import collections
import random

import fsrw.markers as markers
from fsrw.dsl import (Compiler, Literal, _nodes, expand_macros, parse_expr,
                      stdlib_macros)
from fsrw import (
    EPS,
    Fst,
    SymbolTable,
    concat,
    cross_product,
    empty_lang,
    empty_string,
    literal,
    option,
    plus,
    star,
    union,
    word,
)


# ---------------------------------------------------------------------------
# random regexes with a set-of-strings model


def random_regex(rng: random.Random, glyphs, depth: int = 3):
    """A regex as a nested-tuple tree over the given glyphs."""
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return ("eps",)
        if roll < 0.15:
            return ("none",)
        return ("sym", rng.choice(glyphs))
    op = rng.choice(["union", "concat", "star", "option", "plus",
                     "union", "concat"])
    if op in ("star", "option", "plus"):
        return (op, random_regex(rng, glyphs, depth - 1))
    return (op, random_regex(rng, glyphs, depth - 1),
            random_regex(rng, glyphs, depth - 1))


def build_regex(node, table) -> Fst:
    op = node[0]
    if op == "eps":
        return empty_string(table)
    if op == "none":
        return empty_lang(table)
    if op == "sym":
        return literal(table, node[1])
    if op == "union":
        return union(build_regex(node[1], table), build_regex(node[2], table))
    if op == "concat":
        return concat(build_regex(node[1], table), build_regex(node[2], table))
    if op == "star":
        return star(build_regex(node[1], table))
    if op == "option":
        return option(build_regex(node[1], table))
    if op == "plus":
        return plus(build_regex(node[1], table))
    raise ValueError(op)


def model_lang(node, max_len: int) -> set:
    """The language of a regex tree, cut off at max_len, computed with
    plain set operations so it shares nothing with the library."""
    op = node[0]
    if op == "eps":
        return {""}
    if op == "none":
        return set()
    if op == "sym":
        return {node[1]} if len(node[1]) <= max_len else set()
    if op == "union":
        return model_lang(node[1], max_len) | model_lang(node[2], max_len)
    if op == "concat":
        a = model_lang(node[1], max_len)
        b = model_lang(node[2], max_len)
        return {x + y for x in a for y in b if len(x) + len(y) <= max_len}
    if op == "option":
        return {""} | model_lang(node[1], max_len)
    if op in ("star", "plus"):
        base = model_lang(node[1], max_len)
        out = {""}
        frontier = {""}
        while frontier:
            frontier = {x + y for x in frontier for y in base
                        if len(x) + len(y) <= max_len and x + y not in out}
            out |= frontier
        if op == "plus":
            return (out - {""}) | ({""} if "" in base else set())
        return out
    raise ValueError(op)


# ---------------------------------------------------------------------------
# random transductions


def random_arc_machine(rng: random.Random, table, max_states: int = 3,
                       recognizer: bool = False) -> Fst:
    """A random machine given directly by its arcs.  Input labels are never
    epsilon, so each input has finitely many outputs."""
    n = rng.randint(1, max_states)
    syms = list(table.user_ids())
    arcs = set()
    for _ in range(rng.randint(0, 2 * n + 2)):
        src = rng.randrange(n)
        dst = rng.randrange(n)
        inp = rng.choice(syms)
        if recognizer:
            out = inp
        else:
            out = rng.choice(syms + [EPS])
        arcs.add((src, inp, out, dst))
    finals = frozenset(q for q in range(n) if rng.random() < 0.5)
    if not finals:
        finals = frozenset([rng.randrange(n)])
    is_rec = all(a[1] == a[2] for a in arcs)
    return Fst(table, n, 0, finals, tuple(sorted(arcs)), is_rec)


def random_word(rng: random.Random, glyphs, max_len: int):
    return [rng.choice(glyphs) for _ in range(rng.randint(0, max_len))]


def random_target(rng: random.Random, table) -> Fst:
    """A transduction to feed the rewrite compiler: either a small random
    arc machine or a cross product, the latter so the empty string can have
    a nonempty image."""
    glyphs = table.user_glyphs()
    if rng.random() < 0.6:
        return random_arc_machine(rng, table, max_states=3)
    src = random_regex(rng, glyphs, depth=2)
    return cross_product(build_regex(src, table),
                         word(table, random_word(rng, glyphs, 2)))


def random_context(rng: random.Random, table) -> Fst:
    """A recognizer of up to two words, each of length at most two."""
    glyphs = table.user_glyphs()
    words = [word(table, random_word(rng, glyphs, 2))
             for _ in range(rng.randint(1, 2))]
    return union(*words)


def random_replace_rule(rng: random.Random):
    k = rng.randint(1, 3)
    table = SymbolTable("abc"[:k])
    return table, random_target(rng, table), random_context(rng, table), \
        random_context(rng, table)


# Pieces that copy sets of symbols alike: `?`, `? - x` and `{c, d}` copy
# several symbols on the same arcs, `e` and `f` are mentioned only through
# `?`, and the pairs, insertions and cross products put a symbol on an arc
# that is no copy.
CLASS_ALPHABET = "#alphabet a b c d x e f."
CLASS_SETS = ["?", "(? - x)", "{c, d}", "{a, b}", "a", "c", "x", "[]"]
CLASS_PAIRS = ["a:b", "{a:b, b:a}", "[]:x", "c:[]", "({a, b}) x ({a, b})",
               "(c) x ({c, d})", "(a*) x (c*)"]


def random_class_language(rng: random.Random, depth: int = 2) -> str:
    """A recognizer over CLASS_SETS: sequences, unions, stars and options."""
    if depth <= 0 or rng.random() < 0.35:
        return rng.choice(CLASS_SETS)
    op = rng.choice(["seq", "seq", "union", "*", "^"])
    if op in ("*", "^"):
        return "(%s)%s" % (random_class_language(rng, depth - 1), op)
    items = ", ".join(random_class_language(rng, depth - 1)
                      for _ in range(rng.randint(2, 3)))
    return ("[%s]" if op == "seq" else "{%s}") % items


def random_class_transduction(rng: random.Random) -> str:
    """A piece to rewrite with: a recognizer read as its identity, or one
    followed or preceded by a pair, an insertion or a cross product."""
    lang = random_class_language(rng)
    roll = rng.random()
    if roll < 0.4:
        return lang
    pair = rng.choice(CLASS_PAIRS)
    return "[%s, %s]" % ((lang, pair) if roll < 0.7 else (pair, lang))


def random_class_rule(rng: random.Random, kind: str) -> str:
    """A replace rule (`kind` "replace") or a capture of one to three
    pieces ("lm_concat") whose pieces copy symbol sets alike."""
    if kind == "replace":
        rule = "replace(%s, %s, %s)" % (
            random_class_transduction(rng), random_class_language(rng, 1),
            random_class_language(rng, 1))
    else:
        rule = "lm_concat([%s])" % ", ".join(
            random_class_transduction(rng) for _ in range(rng.randint(1, 3)))
    return "%s\n%s.\n" % (CLASS_ALPHABET, rule)


# ---------------------------------------------------------------------------
# random macro programs


# The predefined macros by name and parameters, and programs' definitions
# of names that their bodies call.
PREDEFINED = [(m.name, m.params) for m in stdlib_macros().values()]
REDEFINITIONS = [("not", "X", "X"), ("not", "X", "if_p_then_s(X, X)"),
                 ("xsig", "", "a"), ("true", "", "[]"),
                 ("priority_union", "XY", "Y")]


def random_macro_program(rng: random.Random) -> str:
    """A rule program over a, b and c with up to four macros of zero, one
    or two parameters, each parameter used zero to three times in its
    body, calls nested in bodies and arguments, calls of the predefined
    macros, and an occasional replace or lm_concat.  One program in three
    first redefines a name that a predefined macro calls, and may call its
    own definition too.  A macro calls only the macros defined before it,
    so no program is recursive; some fail to compile, for example when a
    pair side is bound to a larger expression."""
    macros = []  # (name, params), in definition order

    def expr(uses: list, depth: int) -> str:
        roll = rng.random()
        if depth <= 0 or roll < 0.25:
            if uses and rng.random() < 0.6:
                return uses.pop()
            return rng.choice(["a", "b", "c", "[]", "1"])
        if roll < 0.6:
            name, params = rng.choice(macros if roll < 0.5 and macros
                                      else PREDEFINED)
            if not params:
                return rng.choice([name, name + "()"])
            return "%s(%s)" % (name, ", ".join(expr(uses, depth - 1)
                                               for _ in params))
        op = rng.choice(["seq", "seq", "union", "union", "*", "^", "x",
                         ":", "-", "~", "o", "identity", "match_n",
                         "replace", "lm_concat"])
        if op in ("seq", "union", "lm_concat"):
            items = ", ".join(expr(uses, depth - 1)
                              for _ in range(rng.randint(1, 3)))
            return {"seq": "[%s]", "union": "{%s}",
                    "lm_concat": "lm_concat([%s])"}[op] % items
        if op in ("*", "^"):
            return "(%s)%s" % (expr(uses, depth - 1), op)
        if op == "~":
            return "~(%s)" % expr(uses, depth - 1)
        if op == ":":  # a side may be a parameter bound to anything
            return "%s:%s" % (expr(uses, 0), expr(uses, 0))
        if op in ("x", "-", "o"):
            return "(%s) %s (%s)" % (expr(uses, depth - 1), op,
                                     expr(uses, depth - 1))
        if op == "identity":
            return "identity(%s)" % expr(uses, depth - 1)
        if op == "match_n":
            return "match_n(%d, %s)" % (rng.randint(0, 2),
                                        expr(uses, depth - 1))
        return "replace(%s x %s, %s, %s)" % tuple(
            expr(uses, 1) for _ in range(4))

    def body(params) -> str:
        uses = [p for p in params for _ in range(rng.randint(0, 3))]
        rng.shuffle(uses)
        text = expr(uses, 2)
        if uses:  # the uses the random expression left out
            text = "[%s]" % ", ".join([text] + uses)
        return text

    lines = ["#alphabet a b c."]
    if rng.random() < 1 / 3:
        name, params, text = rng.choice(REDEFINITIONS)
        head = "%s(%s)" % (name, ", ".join(params)) if params else name
        lines.append("macro(%s, %s)." % (head, text))
        macros.append((name, params))
    for k in range(rng.randint(1, 4)):
        params = ("X", "Y")[:rng.randint(0, 2)]
        head = "m%d(%s)" % (k, ", ".join(params)) if params else "m%d" % k
        lines.append("macro(%s, %s)." % (head, body(params)))
        macros.append(("m%d" % k, params))
    name, params = macros[-1]  # the main expression calls the last macro
    args = ", ".join(expr([], 2) for _ in params)
    call = "%s(%s)" % (name, args) if params else name
    lines.append((call if rng.random() < 0.3
                  else "[%s, %s]" % (expr([], 2), call)) + ".")
    return "\n".join(lines) + "\n"


def all_strings(glyphs, max_len: int):
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [s + (g,) for s in frontier for g in glyphs]
        out.extend(frontier)
    return out


# ---------------------------------------------------------------------------
# marker helpers


def formula(table, text: str, **machines) -> Fst:
    """The rule expression `text`, the predefined macros and builtins in
    reach, compiled over `table`, where each symbol named in `machines`
    stands for that machine: `formula(t, "l_iff_r(C, P)", C=cell, P=p)`."""
    ast = expand_macros(parse_expr(text), stdlib_macros())
    comp = Compiler(table)
    for node in _nodes(ast):
        if isinstance(node, Literal) and node.glyph in machines:
            comp._built[id(node)] = (node, machines[node.glyph])
    return comp.compile(ast)


def count_memo(monkeypatch) -> tuple[collections.Counter, collections.Counter]:
    """Count what the marker kits and the replace factors ask their one
    store for: the lookups per operation name and the builds per key,
    (shape, op, *argument parts), which for a constant is (shape, name).
    A factor's op is its name and the flags it reads: "l1 1" is `l1` with
    stack_safe, "longest_match 0 1" `longest_match` unoptimized and
    stack_safe."""
    lookups, builds = collections.Counter(), collections.Counter()
    stored = markers._stored

    def counting(key, build, held):
        lookups[key[1]] += 1

        def counted():
            builds[key] += 1
            return build()
        return stored(key, counted, held)
    monkeypatch.setattr(markers, "_stored", counting)
    return lookups, builds
