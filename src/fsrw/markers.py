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
and its user ids, and on the machines it is called with, so each is built
once per alphabet shape per process and kept in one store, `_shape_cache`.
There is one way in, the decorator `_op`, which names each entry by the
function it decorates and its arguments that are no machines, and calls
`MarkerKit._keep`.  The key is (shape, op, the parts (n, initial, finals,
arcs, is_recognizer) of each machine argument); a constant has no
argument, and the kit that asked for it keeps it too.  Every kit over a
table of that shape wraps the same arcs on its own table; a machine
argument on another table is refused with FsmError.  The store keeps what
a construction returns, so the constructions that can come out unreduced
reduce themselves: the constants, `contains`, `_cross`, the intro family,
`_wedge` and the scans, a recognizer to its minimal machine and a
transduction by `reduce_pairs`.  Unreduced, the closures they are built
with (`star` of a `union`, say) copy arcs onto every final state and grow
with the square of the alphabet, and every factor and composition of a
compile would pay for it.  The rest come out minimal from `difference` or
`project`, or, as `strip`, invert a reduced machine.  The filters
(`non_markers_of`, `not_`, the `ign` family, `ignx_1`, the scans) each
read only one of dom(T), Left or Right, so the rules that share a context
or a domain over one alphabet shape share its filters.  Seven of the nine
replace factors (`fsrw.replace.replace_factors`) are `_op`s too, each
keyed by its name, the flags it reads and the one machine it reads, and
reducing itself as the constructions above do, so that a rule that
repeats an encoded domain, context or target over one shape, in one
process, takes the factors built for it.  `replace` folds the factors
that read one piece in groups, each group an `_op` named "composed" and
keyed by the factor machines it composes (`fsrw.replace._composed`), so
a rule whose pieces repeat takes its groups composed.  So every entry is
a fixed point of the reduction (`_reduced`) while it stays under
`fsrw.fsm.REDUCE_STATE_CAP`.

The store never holds more than SHAPE_CACHE_CAP arcs, counting each
entry's machine and the machine arguments in its key; the factors and
their groups are the largest entries.  An entry that would pass the cap
starts the store afresh, and one that passes it on its own is returned
unstored, so compiling against endless new alphabets or arguments runs
in bounded memory.  Each shape in the keys is one tuple, `_shapes`
holding it, since a shape holds every user id of its table.

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

import functools
from typing import Optional

from .fsm import (
    FsmError,
    Fst,
    SymbolTable,
    _explore,
    _finish,
    _require_recognizer,
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


# The store: entry parts by key, the arcs it holds, and one tuple per shape.
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


def _op(method):
    """An operation kept in the store: a kit method, or a replace factor
    or group of factors called with the kit first.  Its entry is named by
    the function's own name (`not_` is "not", `_wedge` "wedge") and each
    argument that is no machine, as "%d" (`longest_match(kit, phi, 0, 1)`
    is "longest_match 0 1"), keyed on the machine arguments, and holds
    what the function returns."""
    name = method.__name__.strip("_")

    @functools.wraps(method)
    def kept(kit, *args):
        op = " ".join([name] + ["%d" % a for a in args if not isinstance(a, Fst)])
        return kit._keep(op, lambda: method(kit, *args),
                         *[a for a in args if isinstance(a, Fst)])
    return kept


def _constant(method):
    """A kit operation with no argument, read as a property.  The closures
    a constant is built with come out unreduced, so it is reduced."""
    return property(_op(functools.wraps(method)(lambda kit: _reduced(method(kit)))))


class MarkerKit:
    """Toolkit of encoded-string operators over one symbol table: what the
    replace factors, `lm_concat` and the rule language's builtins call.

    Every machine it makes comes from the store the module docstring
    describes, through `_op`.  `replace` and `replace_factors` take the
    kit kept on their table (`of`), each `lm_concat` call makes its own,
    and every kit finds the machines of every earlier table of its shape.
    The table's user alphabet must be complete before the first machine
    is built, which freezes the table: a glyph added later could not
    appear in the machines already built, so interning one raises
    FsmError.
    """

    def __init__(self, table: SymbolTable):
        self.table = table
        self._cache: dict = {}
        self._shape = None

    @classmethod
    def of(cls, table: SymbolTable) -> "MarkerKit":
        """The kit kept on `table`, made at the first call: a replace
        rule's factors and the fold of them share it."""
        if table.kit is None:
            table.kit = cls(table)
        return table.kit

    def _shape_key(self):
        """The table's shape, its size and user ids; the table is frozen
        from here on."""
        if self._shape is None:
            t = self.table
            t.freeze()
            shape = (len(t), t.user_ids())
            self._shape = _shapes.setdefault(shape, shape)
        return self._shape

    def _keep(self, op: str, build, *args: Fst) -> Fst:
        """The machine `build()` makes, the operation `op` on the machines
        `args`, taken from the store or built and stored as `build`
        returns it, then wrapped on this kit's table.  A constant (no
        `args`) is kept by the kit as well, under its op.  `_op` is its
        one caller."""
        got = self._cache.get(op)
        if got is None:
            t = self.table
            if any(a.table is not t for a in args):
                raise FsmError("machines built against different symbol tables")
            parts = tuple((a.n, a.initial, a.finals, tuple(a.arcs), a.is_recognizer)
                          for a in args)
            got = Fst(t, *_stored((self._shape_key(), op) + parts, build,
                                  sum(len(p[3]) for p in parts)))
            if not args:
                self._cache[op] = got
        return got

    # cells ------------------------------------------------------------

    def _cell(self, glyph_id: int, flag_id: int) -> Fst:
        t = self.table
        g, f = t.glyph(glyph_id), t.glyph(flag_id)
        return concat(literal(t, g), literal(t, f))

    @_constant
    def lb1(self) -> Fst:
        return self._cell(self.table.bracket_ids()[0], 1)

    @_constant
    def lb2(self) -> Fst:
        return self._cell(self.table.bracket_ids()[1], 1)

    @_constant
    def rb1(self) -> Fst:
        return self._cell(self.table.bracket_ids()[2], 1)

    @_constant
    def rb2(self) -> Fst:
        return self._cell(self.table.bracket_ids()[3], 1)

    @_constant
    def lb(self) -> Fst:
        return union(self.lb1, self.lb2)

    @_constant
    def rb(self) -> Fst:
        return union(self.rb1, self.rb2)

    @_constant
    def b1(self) -> Fst:
        return union(self.lb1, self.rb1)

    @_constant
    def b2(self) -> Fst:
        return union(self.lb2, self.rb2)

    @_constant
    def brack(self) -> Fst:
        return union(self.lb1, self.lb2, self.rb1, self.rb2)

    @_constant
    def sig(self) -> Fst:
        """One ordinary cell: any encodable glyph with flag 0."""
        t = self.table
        return concat(any_of(t, t.encoded_ids()), literal(t, t.glyph(0)))

    @_constant
    def xsig(self) -> Fst:
        """One cell of either kind."""
        return union(self.sig, self.brack)

    @_constant
    def xsig_star(self) -> Fst:
        return star(self.xsig)

    # relative boolean pieces -------------------------------------------

    @_op
    def not_(self, e: Fst) -> Fst:
        """Cell strings outside L(e)."""
        return difference(self.xsig_star, e)

    @_op
    def contains(self, e: Fst) -> Fst:
        """Cell strings with a factor in L(e)."""
        return _reduced(concat(self.xsig_star, e, self.xsig_star))

    # encoding ----------------------------------------------------------

    @_constant
    def non_markers(self) -> Fst:
        """The encoder: each plain user symbol becomes its ordinary cell.
        Its domain is exactly the user-alphabet strings."""
        t = self.table
        flag = t.glyph(0)
        cells = [concat(literal(t, t.glyph(c)), symbol_pair(t, None, flag))
                 for c in t.user_ids()]
        return star(union(*cells)) if cells else empty_string(t)

    @_constant
    def decoder(self) -> Fst:
        """The encoder inverted: each ordinary cell of a user symbol
        becomes that symbol."""
        return invert(self.non_markers)

    @_op
    def non_markers_of(self, e: Fst) -> Fst:
        """Image of a plain-alphabet language under the encoding."""
        return project(compose(e, self.non_markers), "range")

    # marker introduction and ignoring -----------------------------------

    def cross(self, a: Optional[Fst], b: Optional[Fst]) -> Fst:
        """`cross_product(a, b)`, None standing for the empty string: with
        a None side it inserts or deletes the strings of the other."""
        eps = empty_string(self.table)
        return self._cross(eps if a is None else a, eps if b is None else b)

    @_op
    def _cross(self, a: Fst, b: Fst) -> Fst:
        return _reduced(cross_product(a, b))

    @_op
    def intro(self, s: Fst) -> Fst:
        """Insert cells from `s` anywhere, pass other cells through."""
        keep = difference(self.xsig, s)
        return _reduced(star(union(keep, cross_product(empty_string(self.table), s))))

    @_op
    def strip(self, s: Fst) -> Fst:
        """Delete cells from `s` anywhere, pass other cells through: intro
        inverted."""
        return invert(self.intro(s))

    @_op
    def xintro(self, s: Fst) -> Fst:
        """Like intro, but never inserting at the start."""
        keep = difference(self.xsig, s)
        return _reduced(union(empty_string(self.table), concat(keep, self.intro(s))))

    @_op
    def introx(self, s: Fst) -> Fst:
        """Like intro, but never inserting at the end."""
        keep = difference(self.xsig, s)
        return _reduced(union(empty_string(self.table), concat(self.intro(s), keep)))

    @_op
    def xintrox(self, s: Fst) -> Fst:
        """Like intro, but inserting neither at the start nor at the end."""
        keep = difference(self.xsig, s)
        return _reduced(union(empty_string(self.table), keep,
                              concat(keep, self.intro(s), keep)))

    @_op
    def ign(self, e: Fst, s: Fst) -> Fst:
        return project(compose(e, self.intro(s)), "range")

    @_op
    def xign(self, e: Fst, s: Fst) -> Fst:
        return project(compose(e, self.xintro(s)), "range")

    @_op
    def ignx(self, e: Fst, s: Fst) -> Fst:
        return project(compose(e, self.introx(s)), "range")

    @_op
    def xignx(self, e: Fst, s: Fst) -> Fst:
        return project(compose(e, self.xintrox(s)), "range")

    @_op
    def ignx_1(self, e1: Fst, e2: Fst) -> Fst:
        """Strings of e1 with at least one e2 string wedged in, none of
        them at the very end.  Unlike the intro family this works at the
        raw symbol level, so e2 need not be whole cells."""
        return project(compose(e1, self._wedge(e2)), "range")

    @_op
    def _wedge(self, s: Fst) -> Fst:
        t = self.table
        anysym = any_of(t, t.all_ids())
        wedged = plus(concat(star(anysym), cross_product(empty_string(t), s)))
        return _reduced(concat(wedged, plus(anysym)))

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
        then it is minimized, once, which gives equal languages equal
        machines.  `pattern` and `cell` must be recognizers."""
        _require_recognizer(pattern, "a scan")
        if cell is not None:
            _require_recognizer(cell, "a scan")
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
        return _reduced(reverse(scan) if backward else scan)

    @_constant
    def stacked_rb(self) -> Fst:
        """Left brackets stacked at one position, then a right bracket:
        what follows the end of an occurrence at a marked position."""
        return concat(star(self.lb), self.rb)

    @_constant
    def _rev_xsig_star(self) -> Fst:
        return star(reverse(self.xsig))

    @_op
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
        return self._scan(concat(self._rev_xsig_star, reverse(p)), cell, True,
                          lambda final, hit: hit == final)

    @_op
    def guard_before(self, cell: Fst, a: Fst) -> Fst:
        """`if_s_then_p(a, cell xsig*)`: every `cell` follows a prefix in
        `a`.

        The scan runs forwards, since the test is on prefixes: the subset
        machine of `a` must be final wherever the next cell is a `cell`."""
        return self._scan(a, cell, False, lambda final, hit: final or not hit)

    @_op
    def not_contains(self, k: Fst) -> Fst:
        """`not_(contains(k))`: the cell strings with no factor in `k`.

        The scan runs backwards over the subset machine of
        `rev(xsig)* rev(k)` and drops every subset that holds a final
        state, where a `k` string starts.  It runs backwards because that
        subset machine can be far smaller than the forward one of
        `xsig* k`, which tracks every `k` match still open: for the `k`
        that `longest_match` builds on one 5-state T over three symbols,
        the backward one has 655 subsets and the forward one over 200 000."""
        return self._scan(concat(self._rev_xsig_star, reverse(k)), None, True,
                          lambda final, hit: not final)

    # the whole symbol table ----------------------------------------------

    @_constant
    def true(self) -> Fst:
        return sigma_star(self.table, self.table.all_ids())

    @_constant
    def false(self) -> Fst:
        return empty_lang(self.table)
