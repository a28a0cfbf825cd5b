"""Marker cells and the operators that manipulate them.

Auxiliary markers cannot be spare symbols when the input alphabet is open,
so marked strings are encoded cell by cell: each cell is a glyph symbol
followed by a flag symbol, flag "1" making the four bracket glyphs "<1",
"<2", "1>", "2>" act as markers and flag "0" making any glyph (brackets
included) ordinary text.  Markerhood is positional, so user strings may
contain the bracket glyphs, "0" and "1" as plain symbols.

All operators here stay inside the encoded universe (sequences of cells);
`not_` and `contains` are relative to it.  `true` and `false` work over
the whole symbol table since they only carry emptiness.

Every machine the kit makes depends only on the table's shape, its size
and its user ids, and on the machines it is given, so each is built once
per alphabet shape per process and stored, reduced, in one cache bounded
by SHAPE_CACHE_CAP arcs, keyed by the shape, the operation and the parts
of each machine argument; every kit over a table of that shape wraps the
same arcs on its own table.  That covers the constants, the operations on
bracket sets (the intro family, `cross`, the `ignx_1` wedge) and those
the filters are made of (`non_markers_of`, `not_`, the `ign` family,
`ignx_1`, the scans): each filter reads only one of dom(T), Left or
Right, so the rules that share a context or a domain over one alphabet
shape share its filters.  The same cache keeps seven of the nine replace
factors (`fsrw.replace.replace_factors`), each keyed by the one machine
it reads and kept as built, not reduced, so that a rule that repeats an
encoded domain, context or target over one shape, in one process, takes
the factors built for it.

The replace factors filter markings with `mark_iff`, `guard_before` and
`not_contains`.  Each is one scan over the cells, forwards or on the
reversed tape as Mohri & Sproat mark right contexts (*An efficient
compiler for weighted rewrite rules*, ACL 1996), and builds the same
minimal machine as the nested complements it stands for: the paper's
`l_iff_r`, `if_s_then_p` and `not(contains(...))`.  Those formulas, with
`if_p_then_s`, `p_iff_s`, `coerce_to_boolean` and `if`, are predefined
macros of the rule language (`fsrw.dsl`), written over this kit's
builtins.
"""

from __future__ import annotations

from typing import Optional

from .fsm import (
    Fst,
    SymbolTable,
    _explore,
    _finish,
    any_of,
    compose,
    concat,
    cross_product,
    difference,
    empty_lang,
    empty_string,
    invert,
    literal,
    minimize,
    plus,
    project,
    reduce_pairs,
    reverse,
    sigma_star,
    star,
    symbol_pair,
    union,
)


# Marker machines and replace factors by table shape, as the parts of an
# Fst: (n, initial, finals, arcs, is_recognizer), under the key (shape, op,
# the parts of each machine argument); a constant has no argument.  An
# entry counts the arcs of its machine and of the arguments its key holds;
# the factors, kept unreduced, are the largest.  The cache never holds
# more than SHAPE_CACHE_CAP arcs: an entry that would pass the cap starts it
# afresh, and one that passes the cap on its own is not stored, so
# compiling against endless new alphabets or arguments runs in bounded
# memory.  Each shape in the keys is one tuple, `_shapes` holding it, since
# a shape holds every user id of its table.
SHAPE_CACHE_CAP = 1 << 16
_shape_cache: dict = {}
_shape_cache_arcs = 0
_shapes: dict = {}


def _reduced(m: Fst) -> Fst:
    return minimize(m) if m.is_recognizer else reduce_pairs(m)


def _stored(key, build, held: int) -> tuple:
    """The parts of the machine stored under `key`; on a miss `build()`
    makes it, and it is stored as built, counted with the `held` arcs of
    its key."""
    global _shape_cache_arcs
    parts = _shape_cache.get(key)
    if parts is None:
        m = build()
        parts = (m.n, m.initial, m.finals, m.arcs, m.is_recognizer)
        size = len(m.arcs) + held
        if size <= SHAPE_CACHE_CAP:
            if _shape_cache_arcs + size > SHAPE_CACHE_CAP:
                _shape_cache.clear()
                _shapes.clear()
                _shape_cache_arcs = 0
            _shape_cache[key] = parts
            _shape_cache_arcs += size
    return parts


class MarkerKit:
    """Toolkit of encoded-string operators over one symbol table: what the
    replace factors, `lm_concat` and the rule language's builtins call.

    Every machine the kit makes, constant or not, goes through `_memo`:
    it is built once per table *shape* per process, reduced (a recognizer
    to its minimal machine, a transduction by `reduce_pairs`) and stored
    in the process-wide cache, up to SHAPE_CACHE_CAP arcs, under the shape,
    the operation and each machine argument's (n, initial, finals, arcs,
    is_recognizer).  A machine depends only on those and on the table's
    size and user ids, so a table of the same shape, whatever its glyphs,
    takes the cached arcs on its own table.  `replace_factors` stores seven
    of its factors through the same path (`_kept`), as built, so a rule
    that repeats an encoded domain, context or target over one shape
    takes them from the cache too.  The kit itself keeps the
    constants, the operations with no argument, once wrapped.  Each
    `replace`, `replace_factors` and `lm_concat` call makes its own kit,
    which finds the machines of every earlier table of its shape.
    The table's user alphabet must be complete before the first machine
    is built, which freezes the table: a glyph added later could not
    appear in the machines already built, so interning one raises
    FsmError.
    """

    def __init__(self, table: SymbolTable):
        self.table = table
        self._cache: dict = {}
        self._shape = None

    # cells ------------------------------------------------------------

    def _cell(self, glyph_id: int, flag_id: int) -> Fst:
        t = self.table
        g, f = t.glyph(glyph_id), t.glyph(flag_id)
        return concat(literal(t, g), literal(t, f))

    def _shape_key(self):
        """The table's shape, its size and user ids; the table is frozen
        from here on."""
        if self._shape is None:
            t = self.table
            t.freeze()
            shape = (len(t), t.user_ids())
            self._shape = _shapes.setdefault(shape, shape)
        return self._shape

    def _memo(self, op: str, build, *args: Fst) -> Fst:
        """`build()`, the operation `op` on the machines `args`, built and
        reduced once per table shape and argument parts, in the one store
        that also keeps seven replace factors, as built (`_kept`); a
        constant (no `args`) is kept by the kit too.  The closures that
        build constants (`star` of a `union`, say) copy arcs onto every
        final state, so unreduced they grow with the square of the
        alphabet, and every factor and composition of a compile would pay
        for it."""
        if args:
            return self._kept(op, lambda: _reduced(build()), *args)
        got = self._cache.get(op)
        if got is None:
            got = Fst(self.table, *_stored((self._shape_key(), op),
                                           lambda: _reduced(build()), 0))
            self._cache[op] = got
        return got

    def _kept(self, op: str, build, *args: Fst) -> Fst:
        """`build()`, the operation `op` on the machines `args`, built once
        per table shape and argument parts and stored as it is built, then
        wrapped on this kit's table: the kit's operations come here through
        `_memo`, reduced, and the replace factors directly.  A machine on
        another table is left to `build`, which refuses it or reads it as
        it always has."""
        t = self.table
        if any(a.table is not t for a in args):
            return build()
        parts = tuple((a.n, a.initial, a.finals, tuple(a.arcs), a.is_recognizer)
                      for a in args)
        held = sum(len(p[3]) for p in parts)
        return Fst(t, *_stored((self._shape_key(), op) + parts, build, held))

    @property
    def lb1(self) -> Fst:
        return self._memo("lb1", lambda: self._cell(self.table.bracket_ids()[0], 1))

    @property
    def lb2(self) -> Fst:
        return self._memo("lb2", lambda: self._cell(self.table.bracket_ids()[1], 1))

    @property
    def rb1(self) -> Fst:
        return self._memo("rb1", lambda: self._cell(self.table.bracket_ids()[2], 1))

    @property
    def rb2(self) -> Fst:
        return self._memo("rb2", lambda: self._cell(self.table.bracket_ids()[3], 1))

    @property
    def lb(self) -> Fst:
        return self._memo("lb", lambda: union(self.lb1, self.lb2))

    @property
    def rb(self) -> Fst:
        return self._memo("rb", lambda: union(self.rb1, self.rb2))

    @property
    def b1(self) -> Fst:
        return self._memo("b1", lambda: union(self.lb1, self.rb1))

    @property
    def b2(self) -> Fst:
        return self._memo("b2", lambda: union(self.lb2, self.rb2))

    @property
    def brack(self) -> Fst:
        return self._memo("brack", lambda: union(self.lb1, self.lb2, self.rb1, self.rb2))

    @property
    def sig(self) -> Fst:
        """One ordinary cell: any encodable glyph with flag 0."""
        def build():
            t = self.table
            flag = literal(t, t.glyph(0))
            return concat(any_of(t, t.encoded_ids()), flag)
        return self._memo("sig", build)

    @property
    def xsig(self) -> Fst:
        """One cell of either kind."""
        return self._memo("xsig", lambda: union(self.sig, self.brack))

    @property
    def xsig_star(self) -> Fst:
        return self._memo("xsig_star", lambda: star(self.xsig))

    # relative boolean pieces -------------------------------------------

    def not_(self, e: Fst) -> Fst:
        """Cell strings outside L(e)."""
        return self._memo("not", lambda: difference(self.xsig_star, e), e)

    def contains(self, e: Fst) -> Fst:
        """Cell strings with a factor in L(e)."""
        return self._memo(
            "contains", lambda: concat(self.xsig_star, e, self.xsig_star), e)

    # encoding ----------------------------------------------------------

    @property
    def non_markers(self) -> Fst:
        """The encoder: each plain user symbol becomes its ordinary cell.
        Its domain is exactly the user-alphabet strings."""
        def build():
            t = self.table
            flag = t.glyph(0)
            cells = [concat(literal(t, t.glyph(c)), symbol_pair(t, None, flag))
                     for c in t.user_ids()]
            if not cells:
                return empty_string(t)
            return star(union(*cells))
        return self._memo("non_markers", build)

    @property
    def decoder(self) -> Fst:
        """The encoder inverted: each ordinary cell of a user symbol
        becomes that symbol."""
        return self._memo("decoder", lambda: invert(self.non_markers))

    def non_markers_of(self, e: Fst) -> Fst:
        """Image of a plain-alphabet language under the encoding."""
        return self._memo(
            "non_markers_of",
            lambda: project(compose(e, self.non_markers), "range"), e)

    # marker introduction and ignoring -----------------------------------

    def cross(self, a: Optional[Fst], b: Optional[Fst]) -> Fst:
        """`cross_product(a, b)`, None standing for the empty string: with
        a None side it inserts or deletes the strings of the other."""
        eps = empty_string(self.table)
        a, b = eps if a is None else a, eps if b is None else b
        return self._memo("cross", lambda: cross_product(a, b), a, b)

    def intro(self, s: Fst) -> Fst:
        """Insert cells from `s` anywhere, pass other cells through."""
        def build():
            keep = difference(self.xsig, s)
            ins = cross_product(empty_string(self.table), s)
            return star(union(keep, ins))
        return self._memo("intro", build, s)

    def strip(self, s: Fst) -> Fst:
        """Delete cells from `s` anywhere, pass other cells through: intro
        inverted."""
        return self._memo("strip", lambda: invert(self.intro(s)), s)

    def xintro(self, s: Fst) -> Fst:
        """Like intro, but never inserting at the start."""
        def build():
            keep = difference(self.xsig, s)
            return union(empty_string(self.table), concat(keep, self.intro(s)))
        return self._memo("xintro", build, s)

    def introx(self, s: Fst) -> Fst:
        """Like intro, but never inserting at the end."""
        def build():
            keep = difference(self.xsig, s)
            return union(empty_string(self.table), concat(self.intro(s), keep))
        return self._memo("introx", build, s)

    def xintrox(self, s: Fst) -> Fst:
        """Like intro, but inserting neither at the start nor at the end."""
        def build():
            keep = difference(self.xsig, s)
            return union(empty_string(self.table), keep,
                         concat(keep, self.intro(s), keep))
        return self._memo("xintrox", build, s)

    def _image(self, op: str, e: Fst, inserter: Fst) -> Fst:
        """The strings `inserter` makes of L(e), memoized on `e` and the
        inserter, which the caller looks up first."""
        return self._memo(
            op, lambda: project(compose(e, inserter), "range"), e, inserter)

    def ign(self, e: Fst, s: Fst) -> Fst:
        return self._image("ign", e, self.intro(s))

    def xign(self, e: Fst, s: Fst) -> Fst:
        return self._image("xign", e, self.xintro(s))

    def ignx(self, e: Fst, s: Fst) -> Fst:
        return self._image("ignx", e, self.introx(s))

    def xignx(self, e: Fst, s: Fst) -> Fst:
        return self._image("xignx", e, self.xintrox(s))

    def ignx_1(self, e1: Fst, e2: Fst) -> Fst:
        """Strings of e1 with at least one e2 string wedged in, none of
        them at the very end.  Unlike the intro family this works at the
        raw symbol level, so e2 need not be whole cells."""
        def build():
            t = self.table
            anysym = any_of(t, t.all_ids())
            return concat(plus(concat(star(anysym),
                                      cross_product(empty_string(t), e2))),
                          plus(anysym))
        return self._image("ignx_1", e1, self._memo("wedge", build, e2))

    # marker filters as one-direction scans --------------------------------

    def _scan(self, pattern: Fst, cell: Optional[Fst], backward: bool,
              allow) -> Fst:
        """A machine of the cell strings that one scan accepts.

        The scan reads the tape cell by cell, forwards or (`backward`)
        from its end, and runs the subset machine of `pattern` over the
        symbols it reads.  At each cell boundary it asks `allow(final,
        hit)` whether the next cell may come: `final` tells whether the
        subset there holds a final state of `pattern`, and `hit` whether
        the cell is in `cell`, a language of single cells (None: no cell
        is).  The end of the tape counts as a cell that is not in `cell`.
        A scan state is a subset at a boundary, or, halfway through a
        cell, the subset and the symbols that may still complete the cell.
        A backward scan accepts the reversed tapes, so it is reversed back;
        `_memo` minimizes it, which gives equal languages equal machines."""
        t = self.table
        adj: list[dict[int, list[int]]] = [{} for _ in range(pattern.n)]
        for s, i, _, d in pattern.arcs:
            adj[s].setdefault(i, []).append(d)
        marked = set()
        if cell is not None:
            cadj = cell.adjacency()
            marked = {(g, f) for g, _, mid in cadj[cell.initial]
                      for f, _, d in cadj[mid] if d in cell.finals}
        # every cell, in the order the scan reads its two symbols
        pairs = ([(g, 0) for g in t.encoded_ids()]
                 + [(b, 1) for b in t.bracket_ids()])
        halves: dict[int, list[tuple[int, bool]]] = {}
        for g, f in pairs:
            x, y = (f, g) if backward else (g, f)
            halves.setdefault(x, []).append((y, (g, f) in marked))
        firsts = sorted(halves.items())

        def step(subset, sym):
            return frozenset([d for q in subset for d in adj[q].get(sym, ())])

        def moves(key):
            subset, seconds = key
            if seconds is not None:
                for y in seconds:
                    yield y, y, (step(subset, y), None)
                return
            final = not pattern.finals.isdisjoint(subset)
            for x, rest in firsts:
                ok = tuple([y for y, hit in rest if allow(final, hit)])
                if ok:
                    yield x, x, (step(subset, x), ok)

        keys, arcs = _explore((frozenset([pattern.initial]), None), moves)
        finals = [k for k, (subset, seconds) in enumerate(keys)
                  if seconds is None
                  and allow(not pattern.finals.isdisjoint(subset), False)]
        scan = _finish(t, len(keys), 0, finals, arcs)
        return reverse(scan) if backward else scan

    @property
    def stacked_rb(self) -> Fst:
        """Left brackets stacked at one position, then a right bracket:
        what follows the end of an occurrence at a marked position."""
        return self._memo("stacked_rb", lambda: concat(star(self.lb), self.rb))

    @property
    def _rev_xsig_star(self) -> Fst:
        return self._memo("rev_xsig_star", lambda: star(reverse(self.xsig)))

    def mark_iff(self, cell: Fst, p: Fst) -> Fst:
        """`l_iff_r(cell, p)`: the positions after a `cell` are exactly the
        positions before a string of `p`.

        The scan runs backwards, so that whether a `p` string starts at a
        position is already known when the cell before it is read: the
        subset machine of `rev(xsig)* rev(p)` is final exactly there.  The
        next cell read must then be a `cell`, and only then; at the start
        of the tape, where no cell comes before, it must not be final.
        Read forwards, the same test would need a subset tracking every
        open `p` match that some `cell` has promised."""
        return self._memo(
            "mark_iff",
            lambda: self._scan(concat(self._rev_xsig_star, reverse(p)), cell,
                               True, lambda final, hit: hit == final),
            cell, p)

    def guard_before(self, cell: Fst, a: Fst) -> Fst:
        """`if_s_then_p(a, cell xsig*)`: every `cell` follows a prefix in
        `a`.

        The scan runs forwards, since the test is on prefixes: the subset
        machine of `a` must be final wherever the next cell is a `cell`."""
        return self._memo(
            "guard_before",
            lambda: self._scan(a, cell, False,
                               lambda final, hit: final or not hit),
            cell, a)

    def not_contains(self, k: Fst) -> Fst:
        """`not_(contains(k))`: the cell strings with no factor in `k`.

        The scan runs backwards over the subset machine of
        `rev(xsig)* rev(k)` and drops every subset that holds a final
        state, where a `k` string starts.  It runs backwards because that
        subset machine can be far smaller than the forward one of
        `xsig* k`, which tracks every `k` match still open: for the `k`
        that `longest_match` builds on one 5-state T over three symbols,
        the backward one has 655 subsets and the forward one over 200 000."""
        return self._memo(
            "not_contains",
            lambda: self._scan(concat(self._rev_xsig_star, reverse(k)), None,
                               True, lambda final, hit: not final),
            k)

    # the whole symbol table ----------------------------------------------

    @property
    def true(self) -> Fst:
        return self._memo("true", lambda: sigma_star(self.table, self.table.all_ids()))

    @property
    def false(self) -> Fst:
        return self._memo("false", lambda: empty_lang(self.table))
