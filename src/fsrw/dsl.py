"""The rule language: a small regular-expression calculus with macros.

Surface syntax, one clause per `.`:

    #alphabet a b c.                  directive (optional)
    macro(vowel, {a,e,i,o,u}).        definitions, optionally parameterized
    macro(double(X), [X,X]).
    replace(double(vowel) x y, [], []).   exactly one main expression

Expressions: `[...]` sequence, `{...}` union, `[]` empty string, `{}` empty
language, `?` any user symbol, postfix `*` `+` `^`(option), prefix `~`
(complement) and `$` (containment), infix `:` (symbol pair), `x` (cross
product), `-` (difference), `&` (intersection), `o` (composition);
precedence in that order, all binary operators left-associative.  Bare
alphanumeric tokens are symbols, `'...'` quotes arbitrary glyphs (doubled
`''` for a quote), integers are the corresponding digit-string symbols
except where an operator takes a count.  `%` starts a comment.

Macro parameters are referenced by name inside the body; anything else is a
symbol.  Macros cannot be recursive; `match_n(N, E)` covers the counted
repetition that recursion would otherwise provide.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .capture import lm_concat as _lm_concat
from .replace import compose_cascade
from .replace import replace as _replace
from .replace import replace_factors as _replace_factors
from .fsm import (
    Fst,
    FsmError,
    SymbolTable,
    any_of,
    complement,
    compose,
    concat,
    containment,
    cross_product,
    difference,
    empty_lang,
    empty_string,
    identity_lift,
    intersection,
    invert,
    literal,
    option,
    plus,
    project,
    star,
    symbol_pair,
    union,
)
from .markers import MarkerKit


class RuleError(FsmError):
    """Parse or compile error in a rule program."""


# ---------------------------------------------------------------------------
# tokens


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT = re.compile(r"[0-9]+")
_PUNCT = {
    "[": "lbracket", "]": "rbracket", "{": "lbrace", "}": "rbrace",
    "(": "lparen", ")": "rparen", ",": "comma", ".": "dot",
    "*": "star", "+": "plus", "^": "caret", "~": "tilde",
    ":": "colon", "&": "amp", "-": "minus", "?": "qmark",
}


def tokenize(text: str) -> list[Token]:
    toks = []
    i = 0
    line, col = 1, 1

    def err(msg):
        raise RuleError("%s at line %d, column %d" % (msg, line, col))

    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch == "#":
            m = _IDENT.match(text, i + 1)
            if m and m.group(0) == "alphabet":
                toks.append(Token("directive", "alphabet", start_line, start_col))
                col += m.end() - i
                i = m.end()
                continue
            err("unexpected '#' (quote it to use it as a symbol)")
        if ch == "$":
            if text.startswith("$$", i):
                toks.append(Token("dollar2", "$$", start_line, start_col))
                i += 2
                col += 2
            else:
                toks.append(Token("dollar", "$", start_line, start_col))
                i += 1
                col += 1
            continue
        if ch == "'":
            j = i + 1
            buf = []
            while True:
                if j >= n:
                    err("unterminated quoted symbol")
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":
                        buf.append("'")
                        j += 2
                        continue
                    j += 1
                    break
                if text[j] == "\n":
                    err("newline in quoted symbol")
                buf.append(text[j])
                j += 1
            if not buf:
                err("empty quoted symbol")
            toks.append(Token("quoted", "".join(buf), start_line, start_col))
            col += j - i
            i = j
            continue
        m = _INT.match(text, i)
        if m:
            toks.append(Token("int", m.group(0), start_line, start_col))
            col += len(m.group(0))
            i = m.end()
            continue
        m = _IDENT.match(text, i)
        if m:
            toks.append(Token("ident", m.group(0), start_line, start_col))
            col += len(m.group(0))
            i = m.end()
            continue
        if ch in _PUNCT:
            toks.append(Token(_PUNCT[ch], ch, start_line, start_col))
            i += 1
            col += 1
            continue
        err("unexpected character %r" % ch)
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# syntax trees


@dataclass(frozen=True)
class EmptyString:
    pass


@dataclass(frozen=True)
class EmptyLang:
    pass


@dataclass(frozen=True)
class Literal:
    glyph: str


@dataclass(frozen=True)
class AnySym:
    pass


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Seq:
    items: tuple


@dataclass(frozen=True)
class Union:
    items: tuple


@dataclass(frozen=True)
class Star:
    item: object


@dataclass(frozen=True)
class Plus:
    item: object


@dataclass(frozen=True)
class Option:
    item: object


@dataclass(frozen=True)
class Complement:
    item: object


@dataclass(frozen=True)
class Contain:
    item: object


@dataclass(frozen=True)
class Diff:
    left: object
    right: object


@dataclass(frozen=True)
class Intersect:
    left: object
    right: object


@dataclass(frozen=True)
class Pair:
    left: object
    right: object


@dataclass(frozen=True)
class Cross:
    left: object
    right: object


@dataclass(frozen=True)
class Compose:
    left: object
    right: object


@dataclass(frozen=True)
class Domain:
    item: object


@dataclass(frozen=True)
class Range:
    item: object


@dataclass(frozen=True)
class Identity:
    item: object


@dataclass(frozen=True)
class Inverse:
    item: object


@dataclass(frozen=True)
class RepeatN:
    item: object
    count: int


@dataclass(frozen=True)
class Replace:
    target: object
    left: object
    right: object


@dataclass(frozen=True)
class LmConcat:
    items: tuple


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


@dataclass(frozen=True)
class MacroDef:
    name: str
    params: tuple
    body: object


@dataclass(frozen=True)
class RuleProgram:
    alphabet: tuple
    macros: tuple
    main: object


_WRAPPERS = {"domain": Domain, "range": Range, "identity": Identity,
             "inverse": Inverse}

# binding powers; postfix binds tightest, composition loosest
_BP_COMPOSE = 20
_BP_DIFF = 30
_BP_CROSS = 40
_BP_PAIR = 50
_BP_PREFIX = 60
_BP_POSTFIX = 70

_INFIX = {"colon": (_BP_PAIR, Pair), "minus": (_BP_DIFF, Diff),
          "amp": (_BP_DIFF, Intersect)}
_INFIX_IDENT = {"x": (_BP_CROSS, Cross), "o": (_BP_COMPOSE, Compose)}


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def err(self, msg: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise RuleError("%s at line %d, column %d" % (msg, tok.line, tok.col))

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.err("expected %r, found %r" % (kind, tok.text or tok.kind))
        return self.next()

    # expressions ------------------------------------------------------

    def expr(self, min_bp: int = 0):
        node = self.nud()
        while True:
            tok = self.peek()
            if tok.kind in ("star", "plus", "caret"):
                if _BP_POSTFIX < min_bp:
                    break
                self.next()
                cls = {"star": Star, "plus": Plus, "caret": Option}[tok.kind]
                node = cls(node)
                continue
            if tok.kind in _INFIX:
                bp, cls = _INFIX[tok.kind]
                if bp < min_bp:
                    break
                self.next()
                node = cls(node, self.expr(bp + 1))
                continue
            if tok.kind == "ident" and tok.text in _INFIX_IDENT:
                bp, cls = _INFIX_IDENT[tok.text]
                if bp < min_bp:
                    break
                self.next()
                node = cls(node, self.expr(bp + 1))
                continue
            break
        return node

    def nud(self):
        tok = self.next()
        if tok.kind == "ident":
            if self.peek().kind == "lparen":
                return self.call(tok)
            return Literal(tok.text)
        if tok.kind == "quoted":
            return Literal(tok.text)
        if tok.kind == "int":
            return IntLit(int(tok.text))
        if tok.kind == "minus" and self.peek().kind == "int":
            return IntLit(-int(self.next().text))
        if tok.kind == "qmark":
            return AnySym()
        if tok.kind == "lbracket":
            items = self.items("rbracket")
            return EmptyString() if not items else Seq(tuple(items))
        if tok.kind == "lbrace":
            items = self.items("rbrace")
            return EmptyLang() if not items else Union(tuple(items))
        if tok.kind == "lparen":
            node = self.expr(0)
            self.expect("rparen")
            return node
        if tok.kind == "tilde":
            return Complement(self.expr(_BP_PREFIX))
        if tok.kind == "dollar":
            return Contain(self.expr(_BP_PREFIX))
        if tok.kind == "dollar2":
            self.expect("lparen")
            node = self.expr(0)
            self.expect("rparen")
            return Call("$$", (node,))
        self.err("expected an expression, found %r" % (tok.text or tok.kind), tok)

    def items(self, closing: str) -> list:
        items = []
        if self.peek().kind == closing:
            self.next()
            return items
        while True:
            items.append(self.expr(0))
            tok = self.next()
            if tok.kind == closing:
                return items
            if tok.kind != "comma":
                self.err("expected ',' or %r" % closing, tok)

    def call(self, name_tok: Token):
        self.expect("lparen")
        args = self.items("rparen")
        name = name_tok.text
        if name == "replace":
            if len(args) != 3:
                self.err("replace takes (target, left, right)", name_tok)
            return Replace(*args)
        if name == "lm_concat":
            if len(args) != 1 or not isinstance(args[0], (Seq, EmptyString)):
                self.err("lm_concat takes one bracketed list of pieces", name_tok)
            if isinstance(args[0], EmptyString):
                self.err("lm_concat needs at least one piece", name_tok)
            return LmConcat(args[0].items)
        if name in _WRAPPERS:
            if len(args) != 1:
                self.err("%s takes one argument" % name, name_tok)
            return _WRAPPERS[name](args[0])
        return Call(name, tuple(args))

    # clauses ----------------------------------------------------------

    def program(self) -> RuleProgram:
        alphabet: list[str] = []
        macros: list[MacroDef] = []
        main = None
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "directive":
                self.next()
                while self.peek().kind != "dot":
                    g = self.next()
                    if g.kind not in ("ident", "quoted", "int"):
                        self.err("alphabet entries are symbols", g)
                    alphabet.append(g.text)
                self.next()
                continue
            if tok.kind == "ident" and tok.text == "macro" \
                    and self.toks[self.pos + 1].kind == "lparen":
                macros.append(self.macro_clause())
                continue
            node = self.expr(0)
            self.expect("dot")
            if main is not None:
                self.err("a program has exactly one main expression", tok)
            main = node
        if main is None:
            raise RuleError("no main expression")
        return RuleProgram(tuple(alphabet), tuple(macros), main)

    def macro_clause(self) -> MacroDef:
        self.next()
        self.expect("lparen")
        head = self.expect("ident")
        params: list[str] = []
        if self.peek().kind == "lparen":
            self.next()
            while True:
                p = self.expect("ident")
                if p.text in params:
                    self.err("duplicate parameter %r" % p.text, p)
                params.append(p.text)
                tok = self.next()
                if tok.kind == "rparen":
                    break
                if tok.kind != "comma":
                    self.err("expected ',' or ')' in parameter list", tok)
        self.expect("comma")
        body = self.expr(0)
        self.expect("rparen")
        self.expect("dot")
        return MacroDef(head.text, tuple(params), self.bind_vars(body, set(params)))

    def bind_vars(self, node, params: set):
        rebuild = _children_rebuilder(node)
        if rebuild is None:
            if isinstance(node, Literal) and node.glyph in params:
                return Var(node.glyph)
            return node
        children, make = rebuild
        return make([self.bind_vars(c, params) for c in children])


def _children_rebuilder(node):
    """Return (children, rebuild) for composite nodes, None for leaves."""
    if isinstance(node, (Seq, Union, LmConcat)):
        cls = type(node)
        return list(node.items), lambda cs: cls(tuple(cs))
    if isinstance(node, (Star, Plus, Option, Complement, Contain,
                         Domain, Range, Identity, Inverse)):
        cls = type(node)
        return [node.item], lambda cs: cls(cs[0])
    if isinstance(node, RepeatN):
        return [node.item], lambda cs: RepeatN(cs[0], node.count)
    if isinstance(node, (Diff, Intersect, Pair, Cross, Compose)):
        cls = type(node)
        return [node.left, node.right], lambda cs: cls(cs[0], cs[1])
    if isinstance(node, Replace):
        return [node.target, node.left, node.right], lambda cs: Replace(*cs)
    if isinstance(node, Call):
        return list(node.args), lambda cs: Call(node.name, tuple(cs))
    return None


def parse_program(text: str) -> RuleProgram:
    return _Parser(tokenize(text)).program()


def parse_expr(text: str):
    p = _Parser(tokenize(text))
    node = p.expr(0)
    if p.peek().kind != "eof":
        p.err("trailing content after expression")
    return node


# ---------------------------------------------------------------------------
# macro expansion


_STDLIB_SRC = """
macro(priority_union(Q,R), {Q, ~domain(Q) o R}).
macro(lenient_composition(R,C), priority_union(R o C, R)).
"""

# Every builtin operator, keyed by (name, arity), with the MarkerKit
# attribute that builds it; a zero-argument builtin is a kit property.
# match_n/2 never reaches the compiler: expand_macros turns it into RepeatN.
_BUILTINS = {
    ("sig", 0): "sig", ("xsig", 0): "xsig", ("lb1", 0): "lb1",
    ("lb2", 0): "lb2", ("rb1", 0): "rb1", ("rb2", 0): "rb2", ("lb", 0): "lb",
    ("rb", 0): "rb", ("b1", 0): "b1", ("b2", 0): "b2", ("brack", 0): "brack",
    ("non_markers", 0): "non_markers", ("true", 0): "true",
    ("false", 0): "false",
    ("not", 1): "not_", ("$$", 1): "contains",
    ("non_markers", 1): "non_markers_of", ("intro", 1): "intro",
    ("xintro", 1): "xintro", ("introx", 1): "introx",
    ("xintrox", 1): "xintrox", ("coerce_to_boolean", 1): "coerce_to_boolean",
    ("ign", 2): "ign", ("xign", 2): "xign", ("ignx", 2): "ignx",
    ("xignx", 2): "xignx", ("ignx_1", 2): "ignx_1",
    ("if_p_then_s", 2): "if_p_then_s", ("if_s_then_p", 2): "if_s_then_p",
    ("p_iff_s", 2): "p_iff_s", ("l_iff_r", 2): "l_iff_r",
    ("match_n", 2): "match_n",
    ("if", 3): "if_then_else",
}

_EXPANSION_LIMIT = 200


def stdlib_macros() -> dict:
    env = {}
    p = _Parser(tokenize(_STDLIB_SRC + "[].\n"))
    prog = p.program()
    for m in prog.macros:
        env[(m.name, len(m.params))] = m
    return env


def macro_env(program: RuleProgram) -> dict:
    env = stdlib_macros()
    seen = set()
    for m in program.macros:
        key = (m.name, len(m.params))
        if key in seen:
            raise RuleError("duplicate macro %s/%d" % key)
        seen.add(key)
        env[key] = m

    # a macro may not reach itself through other macros
    def calls_of(node, acc):
        if isinstance(node, Call) and (node.name, len(node.args)) in env:
            acc.add((node.name, len(node.args)))
        elif isinstance(node, Literal) and (node.glyph, 0) in env:
            acc.add((node.glyph, 0))
        got = _children_rebuilder(node)
        if got is not None:
            for c in got[0]:
                calls_of(c, acc)
        return acc

    graph = {key: calls_of(m.body, set()) for key, m in env.items()}
    state: dict = {}

    def visit(key):
        if state.get(key) == 2:
            return
        if state.get(key) == 1:
            raise RuleError("recursive macro %s/%d" % key)
        state[key] = 1
        for nxt in graph.get(key, ()):
            visit(nxt)
        state[key] = 2

    for key in graph:
        visit(key)
    return env


def _substitute(node, binding: dict):
    if isinstance(node, Var):
        try:
            return binding[node.name]
        except KeyError:
            raise RuleError("unbound macro parameter %r" % node.name)
    got = _children_rebuilder(node)
    if got is None:
        return node
    children, make = got
    return make([_substitute(c, binding) for c in children])


def expand_macros(node, env: dict, depth: int = 0):
    if depth > _EXPANSION_LIMIT:
        raise RuleError("macro expansion too deep (runaway nesting?)")
    got = _children_rebuilder(node)
    if got is not None:
        children, make = got
        node = make([expand_macros(c, env, depth) for c in children])
    if isinstance(node, Literal) and (node.glyph, 0) in env:
        return expand_macros(env[(node.glyph, 0)].body, env, depth + 1)
    if isinstance(node, Call):
        key = (node.name, len(node.args))
        if key in env:
            macro = env[key]
            body = _substitute(macro.body, dict(zip(macro.params, node.args)))
            return expand_macros(body, env, depth + 1)
        if key not in _BUILTINS:
            raise RuleError("unknown operator %s/%d" % key)
        if node.name == "match_n":
            count = node.args[0]
            if not isinstance(count, IntLit):
                raise RuleError("match_n needs a literal count")
            if count.value < 0:
                raise RuleError("cannot repeat a pattern a negative number of times")
            return RepeatN(node.args[1], count.value)
    return node


# ---------------------------------------------------------------------------
# compilation


def collect_user_glyphs(node, acc: list):
    if isinstance(node, Literal):
        if node.glyph not in acc:
            acc.append(node.glyph)
    elif isinstance(node, IntLit):
        g = str(node.value)
        if g not in acc:
            acc.append(g)
    else:
        got = _children_rebuilder(node)
        if got is not None:
            for c in got[0]:
                collect_user_glyphs(c, acc)
    return acc


def _as_symbol(node) -> Optional[str]:
    """The glyph for one side of a ':' pair; None encodes the empty string."""
    if isinstance(node, Literal):
        return node.glyph
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, EmptyString):
        return None
    raise RuleError("':' pairs single symbols or [], not larger expressions"
                    " (use x for the cross product)")


class Compiler:
    def __init__(self, table: SymbolTable):
        self.table = table
        self.kit = MarkerKit(table)

    def compile(self, node) -> Fst:
        return self._c(node)

    def _c(self, node) -> Fst:
        t, kit = self.table, self.kit
        if isinstance(node, EmptyString):
            return empty_string(t)
        if isinstance(node, EmptyLang):
            return empty_lang(t)
        if isinstance(node, Literal):
            return literal(t, node.glyph)
        if isinstance(node, IntLit):
            if node.value < 0:
                raise RuleError("negative integers are only counts for match_n")
            return literal(t, str(node.value))
        if isinstance(node, AnySym):
            return any_of(t, t.user_ids())
        if isinstance(node, Seq):
            return concat(*[self._c(x) for x in node.items])
        if isinstance(node, Union):
            return union(*[self._c(x) for x in node.items])
        if isinstance(node, Star):
            return star(self._c(node.item))
        if isinstance(node, Plus):
            return plus(self._c(node.item))
        if isinstance(node, Option):
            return option(self._c(node.item))
        if isinstance(node, Complement):
            return complement(self._c(node.item))
        if isinstance(node, Contain):
            return containment(self._c(node.item))
        if isinstance(node, Diff):
            return difference(self._c(node.left), self._c(node.right))
        if isinstance(node, Intersect):
            return intersection(self._c(node.left), self._c(node.right))
        if isinstance(node, Pair):
            return symbol_pair(t, _as_symbol(node.left), _as_symbol(node.right))
        if isinstance(node, Cross):
            return cross_product(self._c(node.left), self._c(node.right))
        if isinstance(node, Compose):
            return compose(self._c(node.left), self._c(node.right))
        if isinstance(node, Domain):
            return project(self._c(node.item), "domain")
        if isinstance(node, Range):
            return project(self._c(node.item), "range")
        if isinstance(node, Identity):
            return identity_lift(self._c(node.item))
        if isinstance(node, Inverse):
            return invert(self._c(node.item))
        if isinstance(node, RepeatN):
            return kit.match_n(node.count, self._c(node.item))
        if isinstance(node, Replace):
            return _replace(self._c(node.target), self._c(node.left),
                                    self._c(node.right))
        if isinstance(node, LmConcat):
            return _lm_concat([self._c(x) for x in node.items])
        if isinstance(node, Call):
            return self._builtin(node)
        if isinstance(node, Var):
            raise RuleError("internal error: unexpanded parameter %r" % node.name)
        raise RuleError("cannot compile %r" % (node,))

    def _builtin(self, node: Call) -> Fst:
        got = getattr(self.kit, _BUILTINS[node.name, len(node.args)])
        if not node.args:
            return got
        return got(*[self._c(a) for a in node.args])


class CompiledProgram:
    """A compiled rule file: the machine plus enough structure for the
    oracle checks and for cascaded application."""

    def __init__(self, program, ast, table, machine, kind, pieces,
                 factors=None):
        self.program = program
        self.ast = ast
        self.table = table
        self.machine = machine
        self.kind = kind  # "replace" | "lm_concat" | "plain"
        self.pieces = pieces  # per kind: (t, left, right) or list of parts
        self._factors = factors  # replace only: the cascade machine folds

    def factors(self) -> list[Fst]:
        if self._factors is None:
            raise RuleError("only a replace rule splits into cascade factors")
        return self._factors


def compile_program(ast, table: SymbolTable) -> Fst:
    """Compile one fully expanded tree against a finished symbol table."""
    return Compiler(table).compile(ast)


def compile_rules(text: str) -> CompiledProgram:
    """Front door: parse, expand, build the alphabet, compile.  A top-level
    replace or lm_concat rule is built from its pieces, each compiled once."""
    program = parse_program(text)
    env = macro_env(program)
    ast = expand_macros(program.main, env)
    glyphs = collect_user_glyphs(ast, list(program.alphabet))
    table = SymbolTable(glyphs)
    comp = Compiler(table)
    factors = None
    if isinstance(ast, Replace):
        pieces = (comp.compile(ast.target), comp.compile(ast.left),
                  comp.compile(ast.right))
        factors = _replace_factors(*pieces)
        machine = compose_cascade(factors)
        kind = "replace"
    elif isinstance(ast, LmConcat):
        pieces = [comp.compile(x) for x in ast.items]
        machine = _lm_concat(pieces)
        kind = "lm_concat"
    else:
        pieces = None
        machine = comp.compile(ast)
        kind = "plain"
    return CompiledProgram(program, ast, table, machine, kind, pieces, factors)


# ---------------------------------------------------------------------------
# printing


_BARE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _glyph_src(g: str) -> str:
    if _BARE.match(g) and g not in ("x", "o"):
        return g
    return "'" + g.replace("'", "''") + "'"


def pretty_print(node, min_bp: int = 0) -> str:
    def wrap(s, bp):
        return s if bp >= min_bp else "(" + s + ")"

    if isinstance(node, EmptyString):
        return "[]"
    if isinstance(node, EmptyLang):
        return "{}"
    if isinstance(node, Literal):
        return _glyph_src(node.glyph)
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, AnySym):
        return "?"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Seq):
        return "[" + ",".join(pretty_print(x) for x in node.items) + "]"
    if isinstance(node, Union):
        return "{" + ",".join(pretty_print(x) for x in node.items) + "}"
    if isinstance(node, (Star, Plus, Option)):
        mark = {"Star": "*", "Plus": "+", "Option": "^"}[type(node).__name__]
        return wrap(pretty_print(node.item, _BP_POSTFIX + 1) + mark, _BP_POSTFIX)
    if isinstance(node, Complement):
        return wrap("~" + pretty_print(node.item, _BP_PREFIX), _BP_PREFIX)
    if isinstance(node, Contain):
        s = pretty_print(node.item, _BP_PREFIX)
        if s.startswith("$"):
            # keep '$' + '$...' from gluing into the '$$' token
            s = " " + s
        return wrap("$" + s, _BP_PREFIX)
    if isinstance(node, (Diff, Intersect, Pair, Cross, Compose)):
        bp, mark = {"Diff": (_BP_DIFF, " - "), "Intersect": (_BP_DIFF, " & "),
                    "Pair": (_BP_PAIR, ":"), "Cross": (_BP_CROSS, " x "),
                    "Compose": (_BP_COMPOSE, " o ")}[type(node).__name__]
        s = pretty_print(node.left, bp) + mark + pretty_print(node.right, bp + 1)
        return wrap(s, bp)
    if isinstance(node, (Domain, Range, Identity, Inverse)):
        return "%s(%s)" % (type(node).__name__.lower(), pretty_print(node.item))
    if isinstance(node, RepeatN):
        return "match_n(%d, %s)" % (node.count, pretty_print(node.item))
    if isinstance(node, Replace):
        return "replace(%s, %s, %s)" % tuple(
            pretty_print(x) for x in (node.target, node.left, node.right))
    if isinstance(node, LmConcat):
        return "lm_concat([" + ",".join(pretty_print(x) for x in node.items) + "])"
    if isinstance(node, Call):
        if node.name == "$$":
            return "$$(" + pretty_print(node.args[0]) + ")"
        if not node.args:
            return node.name + "()"
        return node.name + "(" + ", ".join(pretty_print(a) for a in node.args) + ")"
    raise RuleError("cannot print %r" % (node,))
