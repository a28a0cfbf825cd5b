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
precedence in that order, all binary operators left-associative; the
tables `_POSTFIX`, `_PREFIX`, `_INFIX` and `_WRAPPERS` define each operator
once for the parser, the compiler and the printer.  Builtin operators such
as `$$(e)` or `sig()` are calls, listed in `_BUILTINS`; the paper's
filters (`if_p_then_s`, `l_iff_r`, `if`, ...) are predefined macros over
them, in `_STDLIB_SRC`.  Bare alphanumeric tokens are symbols, `'...'`
quotes arbitrary glyphs (doubled `''` for a quote), integers are the
corresponding digit-string symbols except where an operator takes a
count.  `%` starts a comment.

In a macro body a parameter's name, bare or quoted, is the argument, even
where a zero-argument macro has that name.  Macros cannot be recursive;
`match_n(N, E)` covers the counted repetition recursion would provide.
"""

from __future__ import annotations

import functools
import re
import sys
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional

from .capture import lm_concat as _lm_concat
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
    kind: str  # "ident", "quoted", "int", "eof", or punctuation's own text
    text: str
    line: int
    col: int


# One alternative per token class, tried in order.  A quote ends at a lone
# "'" ("''" stands for a quote inside it); a character that no alternative
# takes reaches `bad`.
_TOKEN = re.compile(r"""
    (?P<space>[ \t\r]+) | (?P<newline>\n) | (?P<comment>%[^\n]*)
  | '(?P<quoted>(?:[^'\n]|'')*)'(?!')
  | (?P<int>[0-9]+) | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>\$\$|\#alphabet(?![A-Za-z0-9_])|[\[\]{}(),.*+^~:&?$-])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


def tokenize(text: str) -> list[Token]:
    toks = []
    line, line_start = 1, 0
    m = None
    for m in _TOKEN.finditer(text):
        kind, at = m.lastgroup, m.start()
        if kind == "newline":
            line, line_start = line + 1, m.end()
            continue
        if kind in ("space", "comment"):
            continue
        col = at - line_start + 1
        value = m.group(kind)
        if kind == "bad":
            if value == "'":
                msg = "newline in quoted symbol" if "\n" in text[at:] \
                    else "unterminated quoted symbol"
            elif value == "#":
                msg = "unexpected '#' (quote it to use it as a symbol)"
            else:
                msg = "unexpected character %r" % value
            raise RuleError("%s at line %d, column %d" % (msg, line, col))
        if kind == "quoted":
            if not value:
                raise RuleError("empty quoted symbol at line %d, column %d"
                                % (line, col))
            value = value.replace("''", "'")
        toks.append(Token(value if kind == "punct" else kind, value, line, col))
    # the end of input sits where a trailing comment starts
    end = m.start() if m and m.lastgroup == "comment" else len(text)
    toks.append(Token("eof", "", line, end - line_start + 1))
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
    # (line, column) of the literal, for errors found after parsing
    at: Optional[tuple] = field(default=None, compare=False, repr=False)


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


# Each operator of the calculus once: its text, its node class and the fsm
# builder that compiles it.  Postfix binds tightest, then prefix, then each
# infix operator by its own binding power; infix operators associate to the
# left.  ':' pairs two symbols, not two machines, so it has no builder: the
# compiler reads its sides itself.
_BP_POSTFIX, _BP_PREFIX = 70, 60
_POSTFIX = {"*": (Star, star), "+": (Plus, plus), "^": (Option, option)}
_PREFIX = {"~": (Complement, complement), "$": (Contain, containment)}
_INFIX = {":": (50, Pair, None), "x": (40, Cross, cross_product),
          "-": (30, Diff, difference), "&": (30, Intersect, intersection),
          "o": (20, Compose, compose)}
_WRAPPERS = {"domain": (Domain, lambda m: project(m, "domain")),
             "range": (Range, lambda m: project(m, "range")),
             "identity": (Identity, identity_lift), "inverse": (Inverse, invert)}


class _Op(NamedTuple):
    fixity: str  # "postfix", "prefix", "infix" or "wrapper"
    text: str
    bp: int
    build: Optional[Callable[..., Fst]]


# node class -> its operator, for the compiler, the printer and the tree walk
_OPS = {cls: _Op(fixity, text, bp, build)
        for fixity, bp, table in (("postfix", _BP_POSTFIX, _POSTFIX),
                                  ("prefix", _BP_PREFIX, _PREFIX),
                                  ("wrapper", 0, _WRAPPERS))
        for text, (cls, build) in table.items()}
_OPS.update({cls: _Op("infix", text, bp, build)
             for text, (bp, cls, build) in _INFIX.items()})


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

    def int_value(self, tok: Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # past Python's integer string-conversion limit
            self.err("integer literal of %d digits is too long" % len(tok.text),
                     tok)

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
            # 'x' and 'o' are identifiers, every other operator punctuation
            op = tok.text if tok.kind in ("ident", tok.text) else None
            if op in _POSTFIX:
                self.next()
                node = _POSTFIX[op][0](node)
            elif op in _INFIX and _INFIX[op][0] >= min_bp:
                bp, cls, _ = _INFIX[op]
                self.next()
                node = cls(node, self.expr(bp + 1))
            else:
                return node

    def nud(self):
        tok = self.next()
        kind = tok.kind
        if kind == "ident":
            if self.peek().kind == "(":
                return self.call(tok)
            return Literal(tok.text)
        if kind == "quoted":
            return Literal(tok.text)
        if kind == "int":
            return IntLit(self.int_value(tok), (tok.line, tok.col))
        if kind == "-" and self.peek().kind == "int":
            return IntLit(-self.int_value(self.next()), (tok.line, tok.col))
        if kind == "?":
            return AnySym()
        if kind == "[":
            items = self.items("]")
            return EmptyString() if not items else Seq(tuple(items))
        if kind == "{":
            items = self.items("}")
            return EmptyLang() if not items else Union(tuple(items))
        if kind == "(":
            node = self.expr(0)
            self.expect(")")
            return node
        if kind in _PREFIX:
            return _PREFIX[kind][0](self.expr(_BP_PREFIX))
        if kind == "$$":
            self.expect("(")
            node = self.expr(0)
            self.expect(")")
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
            if tok.kind != ",":
                self.err("expected ',' or %r" % closing, tok)

    def call(self, name_tok: Token):
        self.expect("(")
        args = self.items(")")
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
            return _WRAPPERS[name][0](args[0])
        return Call(name, tuple(args))

    # clauses ----------------------------------------------------------

    def program(self) -> RuleProgram:
        alphabet: list[str] = []
        macros: list[MacroDef] = []
        main = None
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "#alphabet":
                self.next()
                while self.peek().kind != ".":
                    g = self.next()
                    if g.kind not in ("ident", "quoted", "int"):
                        self.err("alphabet entries are symbols", g)
                    alphabet.append(g.text)
                self.next()
                continue
            if tok.kind == "ident" and tok.text == "macro" \
                    and self.toks[self.pos + 1].kind == "(":
                macros.append(self.macro_clause())
                continue
            node = self.expr(0)
            self.expect(".")
            if main is not None:
                self.err("a program has exactly one main expression", tok)
            main = node
        if main is None:
            raise RuleError("no main expression")
        return RuleProgram(tuple(alphabet), tuple(macros), main)

    def macro_clause(self) -> MacroDef:
        self.next()
        self.expect("(")
        head = self.expect("ident")
        params: list[str] = []
        if self.peek().kind == "(":
            self.next()
            while True:
                p = self.expect("ident")
                if p.text in params:
                    self.err("duplicate parameter %r" % p.text, p)
                params.append(p.text)
                tok = self.next()
                if tok.kind == ")":
                    break
                if tok.kind != ",":
                    self.err("expected ',' or ')' in parameter list", tok)
        self.expect(",")
        body = self.expr(0)
        self.expect(")")
        self.expect(".")
        return MacroDef(head.text, tuple(params), body)


def _children_rebuilder(node):
    """(children, rebuild); a leaf has no children and rebuilds to itself."""
    cls = type(node)
    if cls in (Seq, Union, LmConcat):
        return list(node.items), lambda cs: cls(tuple(cs))
    op = _OPS.get(cls)
    if op is not None:
        children = [node.left, node.right] if op.fixity == "infix" else [node.item]
        return children, lambda cs: cls(*cs)
    if cls is RepeatN:
        return [node.item], lambda cs: RepeatN(cs[0], node.count)
    if cls is Replace:
        return [node.target, node.left, node.right], lambda cs: Replace(*cs)
    if cls is Call:
        return list(node.args), lambda cs: Call(node.name, tuple(cs))
    return [], lambda cs: node


def _nodes(node):
    """Each distinct node under `node` once, where it first comes in
    pre-order with children left to right, so the leaves come in source
    order; iterative, so any depth is walked."""
    stack, seen = [node], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            yield node
            stack.extend(reversed(_children_rebuilder(node)[0]))


def _front_door(fn):
    """Report a rule too deeply nested for the interpreter's stack as a
    RuleError rather than a RecursionError."""
    @functools.wraps(fn)
    def door(text: str):
        try:
            return fn(text)
        except RecursionError:
            raise RuleError("rule nested too deeply") from None
    return door


@_front_door
def parse_program(text: str) -> RuleProgram:
    return _Parser(tokenize(text)).program()


@_front_door
def parse_expr(text: str):
    p = _Parser(tokenize(text))
    node = p.expr(0)
    if p.peek().kind != "eof":
        p.err("trailing content after expression")
    return node


# ---------------------------------------------------------------------------
# macro expansion


# The predefined macros: the paper's filters, its two operators on
# relations and Kaplan & Kay's `xign` and `ignx_1`, written in the
# calculus itself.  They are closed: a call in one of their bodies names
# a builtin or another predefined macro, never a macro of the program,
# so a program may redefine any name without changing what they mean.
_STDLIB_SRC = """
macro(priority_union(Q,R), {Q, ~domain(Q) o R}).
macro(lenient_composition(R,C), priority_union(R o C, R)).
% every prefix in L1 is followed by a suffix in L2
macro(if_p_then_s(L1,L2), not([L1, not(L2)])).
% every suffix in L2 is preceded by a prefix in L1
macro(if_s_then_p(L1,L2), not([not(L1), L2])).
macro(p_iff_s(L1,L2), if_p_then_s(L1,L2) & if_s_then_p(L1,L2)).
% the positions after an L are exactly the positions before an R
macro(l_iff_r(L,R), p_iff_s([xsig()*, L], [R, xsig()*])).
% true() when E denotes anything at all, else false()
macro(coerce_to_boolean(E), range(E o (true() x true()))).
macro(if(C,T,E), {coerce_to_boolean(C) o T, ~coerce_to_boolean(C) o E}).
% E with S cells inserted anywhere after its first cell
macro(xign(E,S), range(E o xintro(S))).
% E1 with at least one E2 string wedged in between raw symbols, none at
% the end; E2 need not be whole cells
macro(ignx_1(E1,E2), range(E1 o [[true(), [] x E2]+, true() - []])).
"""

# Every builtin operator, keyed by (name, arity), with the MarkerKit
# attribute that builds it; a zero-argument builtin is a kit property.
# match_n/2 is no builtin: expand_macros turns it into RepeatN.
_BUILTINS = {
    ("sig", 0): "sig", ("xsig", 0): "xsig", ("lb1", 0): "lb1",
    ("lb2", 0): "lb2", ("rb1", 0): "rb1", ("rb2", 0): "rb2", ("lb", 0): "lb",
    ("rb", 0): "rb", ("b1", 0): "b1", ("b2", 0): "b2", ("brack", 0): "brack",
    ("non_markers", 0): "non_markers", ("true", 0): "true",
    ("false", 0): "false",
    ("not", 1): "not_", ("$$", 1): "contains",
    ("non_markers", 1): "non_markers_of", ("intro", 1): "intro",
    ("xintro", 1): "xintro", ("introx", 1): "introx",
    ("xintrox", 1): "xintrox",
    ("ign", 2): "ign", ("ignx", 2): "ignx", ("xignx", 2): "xignx",
}


@functools.cache
def stdlib_macros() -> MappingProxyType:
    """The predefined macros by (name, arity), parsed once per process."""
    prog = _Parser(tokenize(_STDLIB_SRC + "[].\n")).program()
    return MappingProxyType({(m.name, len(m.params)): m for m in prog.macros})


def _on_cycles(graph: dict) -> set:
    """The keys of `graph` (key -> successor keys) that lie on a cycle: in
    a strongly connected component of two or more keys, or calling
    themselves.  Tarjan's algorithm on an explicit stack, so it is linear
    and walks any depth."""
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    cyclic: set = set()

    def enter(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        return v, iter(graph[v])

    for root in graph:
        if root in index:
            continue
        work = [enter(root)]
        while work:
            v, succ = work[-1]
            for w in succ:
                if w not in index:
                    work.append(enter(w))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    component = []
                    while not component or component[-1] != v:
                        component.append(stack.pop())
                    on_stack.difference_update(component)
                    if len(component) > 1 or v in graph[v]:
                        cyclic.update(component)
    return cyclic


def macro_env(program: RuleProgram) -> dict:
    """The macros a program may call by (name, arity), in definition order:
    the predefined ones it does not redefine, then its own.  None of its
    own may reach itself through the calls in its body (a symbol naming
    one of its parameters is not a call); the error names the first that
    does.  A predefined macro calls no macro of the program, so no cycle
    runs through one."""
    own = {}
    for m in program.macros:
        key = (m.name, len(m.params))
        if own.setdefault(key, m) is not m:
            raise RuleError("duplicate macro %s/%d" % key)
    env = {key: m for key, m in stdlib_macros().items() if key not in own}
    env.update(own)

    def calls(m):
        for n in _nodes(m.body):
            if isinstance(n, Call):
                yield n.name, len(n.args)
            elif isinstance(n, Literal) and n.glyph not in m.params:
                yield n.glyph, 0

    graph = {key: [k for k in calls(m) if k in own] for key, m in own.items()}
    cyclic = _on_cycles(graph)
    for key in graph:
        if key in cyclic:
            raise RuleError("recursive macro %s/%d" % key)
    return env


def expand_macros(node, env: dict):
    """`node` with each macro call replaced by its body and `match_n` by
    `RepeatN`, in one walk.  A call's arguments are expanded first; its
    body is then walked with its own parameters bound to them, and a
    symbol naming a parameter, bare or quoted, becomes the expanded
    argument itself, shared and not walked again.  A call resolves in
    `env`, except in the body of a predefined macro, where it resolves
    among the predefined macros and the builtins only.  A macro called
    with the same argument nodes gives the same expansion, so each such
    call, a zero-argument one included, is expanded once, into `shared`,
    and every call shares that node; `shared` keeps the arguments, so
    their ids stay theirs."""
    stdlib = stdlib_macros()
    shared = {}

    def walk(node, binding: dict, scope):
        if isinstance(node, Literal):
            if node.glyph in binding or (node.glyph, 0) not in scope:
                return binding.get(node.glyph, node)
            key, args = (node.glyph, 0), ()
        elif isinstance(node, Call):
            args = tuple(walk(a, binding, scope) for a in node.args)
            key = (node.name, len(args))
        else:
            children, make = _children_rebuilder(node)
            return make([walk(c, binding, scope) for c in children])
        macro = scope.get(key)
        if macro is not None:
            call = (id(macro),) + tuple(map(id, args))
            if call not in shared:
                inner = stdlib if stdlib.get(key) is macro else scope
                shared[call] = args, walk(macro.body,
                                          dict(zip(macro.params, args)), inner)
            return shared[call][1]
        if key not in _BUILTINS and key != ("match_n", 2):
            raise RuleError("unknown operator %s/%d" % key)
        if node.name != "match_n":
            return Call(node.name, args)
        count = args[0]
        if not isinstance(count, IntLit):
            raise RuleError("match_n needs a literal count")
        if count.value < 0:
            raise RuleError("cannot repeat a pattern a negative number of times")
        if count.value > sys.maxsize:  # no list can hold that many copies
            where = " at line %d, column %d" % count.at if count.at else ""
            raise RuleError("match_n count of %d digits is too large%s"
                            % (len(_int_glyph(count.value)), where))
        return RepeatN(args[1], count.value)

    return walk(node, {}, env)


# ---------------------------------------------------------------------------
# compilation


def _int_glyph(value: int) -> str:
    try:
        return str(value)
    except ValueError:  # past Python's integer string-conversion limit
        raise RuleError("integer literal too long") from None


def collect_user_glyphs(node, acc: list):
    """Append to `acc` each symbol of `node` not yet in it, in source order:
    the order fixes the symbol ids, and so every byte of a dump."""
    known = set(acc)
    for n in _nodes(node):
        if isinstance(n, (Literal, IntLit)):
            g = _as_symbol(n)
            if g not in known:
                known.add(g)
                acc.append(g)
    return acc


def _as_symbol(node) -> Optional[str]:
    """The glyph for one side of a ':' pair; None encodes the empty string."""
    if isinstance(node, Literal):
        return node.glyph
    if isinstance(node, IntLit):
        if node.value < 0:
            raise RuleError("negative integers are only counts for match_n")
        return _int_glyph(node.value)
    if isinstance(node, EmptyString):
        return None
    raise RuleError("':' pairs single symbols or [], not larger expressions"
                    " (use x for the cross product)")


# The most states `match_n` may lay out, its count times the item's
# states: the copies are built before any later check, so a huge count
# would end in a MemoryError or an out-of-memory kill.  The rule files and
# the tests need at most 13; match_n(32768, a), at the bound, takes 0.4 s
# and 62 MB (2-vCPU Xeon, Python 3.11).
REPEAT_STATES_CAP = 1 << 16


class Compiler:
    """Builds each distinct node of the expanded DAG once, for the life of
    the compiler; every use of a shared node gets the same machine.  The
    builtins call the table's `MarkerKit` (`MarkerKit.of`), made at the
    first builtin call, so a program that calls none makes no kit."""

    def __init__(self, table: SymbolTable):
        self.table = table
        self._built = {}  # id(node) -> (node, Fst); the node keeps its id

    def compile(self, node) -> Fst:
        return self._c(node)

    def _c(self, node) -> Fst:
        # memoized inline, not by a wrapper: one frame per nesting level
        if id(node) in self._built:
            return self._built[id(node)][1]
        t = self.table
        op = _OPS.get(type(node))
        if isinstance(node, EmptyString):
            fst = empty_string(t)
        elif isinstance(node, EmptyLang):
            fst = empty_lang(t)
        elif isinstance(node, (Literal, IntLit)):
            fst = literal(t, _as_symbol(node))
        elif isinstance(node, AnySym):
            fst = any_of(t, t.user_ids())
        elif isinstance(node, Seq):
            fst = concat(*[self._c(x) for x in node.items])
        elif isinstance(node, Union):
            fst = union(*[self._c(x) for x in node.items])
        elif isinstance(node, Pair):
            fst = symbol_pair(t, _as_symbol(node.left), _as_symbol(node.right))
        elif op is not None and op.fixity == "infix":
            fst = op.build(self._c(node.left), self._c(node.right))
        elif op is not None:
            fst = op.build(self._c(node.item))
        elif isinstance(node, RepeatN):
            item = self._c(node.item)
            if node.count * item.n > REPEAT_STATES_CAP:
                raise RuleError(
                    "match_n repeats a %d-state pattern %d times, past the"
                    " %d states a rule may repeat"
                    % (item.n, node.count, REPEAT_STATES_CAP))
            fst = concat(*[item] * node.count) if node.count else empty_string(t)
        elif isinstance(node, Replace):
            fst = _replace(self._c(node.target), self._c(node.left),
                           self._c(node.right))
        elif isinstance(node, LmConcat):
            fst = _lm_concat([self._c(x) for x in node.items])
        elif isinstance(node, Call):
            fst = getattr(MarkerKit.of(t), _BUILTINS[node.name, len(node.args)])
            if node.args:
                fst = fst(*[self._c(a) for a in node.args])
        else:
            raise RuleError("cannot compile %r" % (node,))
        self._built[id(node)] = (node, fst)
        return fst


class CompiledProgram:
    """A compiled rule file: the machine plus enough structure for the
    oracle checks and for cascaded application.

    `kind` is "replace", "lm_concat" or "plain", after the top node of the
    expanded tree `ast`; `pieces` are the compiled target, left and right
    of a replace rule, the compiled parts of an lm_concat rule, or None.
    One `Compiler` builds the pieces and, except for a replace rule, the
    machine, when the program is made.  A replace rule's machine is folded
    by `replace.replace` on first use, and its nine factors are built by
    `replace_factors` when `factors()` is first called; each is kept once
    built, so `fsrw compile --cascade` never folds.  A context that is not
    a recognizer raises its `FsmError` when the machine or the factors are
    first asked for, not when the program is made."""

    def __init__(self, ast, table: SymbolTable):
        self.ast = ast
        self.table = table
        comp = Compiler(table)
        self.kind = "replace" if isinstance(ast, Replace) else \
            "lm_concat" if isinstance(ast, LmConcat) else "plain"
        self.pieces = None if self.kind == "plain" else \
            [comp.compile(x) for x in _children_rebuilder(ast)[0]]
        self._machine = None if self.kind == "replace" else comp.compile(ast)
        self._factors = None

    @property
    def machine(self) -> Fst:
        """The program as one machine."""
        if self._machine is None:
            self._machine = _replace(*self.pieces)
        return self._machine

    def factors(self) -> list[Fst]:
        """A replace rule's nine cascade factors, in application order."""
        if self.kind != "replace":
            raise RuleError("only a replace rule splits into cascade factors")
        if self._factors is None:
            self._factors = _replace_factors(*self.pieces)
        return self._factors


def compile_program(ast, table: SymbolTable) -> Fst:
    """Compile one fully expanded tree against a finished symbol table."""
    return Compiler(table).compile(ast)


@_front_door
def compile_rules(text: str) -> CompiledProgram:
    """Front door: parse, expand, build the alphabet, compile."""
    program = parse_program(text)
    env = macro_env(program)
    ast = expand_macros(program.main, env)
    glyphs = collect_user_glyphs(ast, list(program.alphabet))
    table = SymbolTable(glyphs)
    return CompiledProgram(ast, table)


# ---------------------------------------------------------------------------
# printing


_BARE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _glyph_src(g: str) -> str:
    if _BARE.match(g) and g not in _INFIX:
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
        return _int_glyph(node.value)
    if isinstance(node, AnySym):
        return "?"
    if isinstance(node, Seq):
        return "[" + ",".join(pretty_print(x) for x in node.items) + "]"
    if isinstance(node, Union):
        return "{" + ",".join(pretty_print(x) for x in node.items) + "}"
    if isinstance(node, RepeatN):
        return "match_n(%d, %s)" % (node.count, pretty_print(node.item))
    if isinstance(node, Replace):
        return "replace(%s, %s, %s)" % tuple(
            pretty_print(x) for x in (node.target, node.left, node.right))
    if isinstance(node, LmConcat):
        return "lm_concat([" + ",".join(pretty_print(x) for x in node.items) + "])"
    if isinstance(node, Call):
        return node.name + "(" + ", ".join(pretty_print(a) for a in node.args) + ")"
    op = _OPS.get(type(node))
    if op is None:
        raise RuleError("cannot print %r" % (node,))
    if op.fixity == "wrapper":
        return "%s(%s)" % (op.text, pretty_print(node.item))
    if op.fixity == "postfix":
        return wrap(pretty_print(node.item, op.bp + 1) + op.text, op.bp)
    if op.fixity == "prefix":
        s = pretty_print(node.item, op.bp)
        if op.text + s[:1] == "$$":
            # keep '$' + '$...' from gluing into the '$$' token
            s = " " + s
        return wrap(op.text + s, op.bp)
    mark = op.text if op.text == ":" else " %s " % op.text
    return wrap(pretty_print(node.left, op.bp) + mark
                + pretty_print(node.right, op.bp + 1), op.bp)
