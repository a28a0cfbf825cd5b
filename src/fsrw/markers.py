"""Marker cells and the operators that manipulate them.

Auxiliary markers cannot be spare symbols when the input alphabet is open,
so marked strings are encoded cell by cell: each cell is a glyph symbol
followed by a flag symbol, flag "1" making the four bracket glyphs "<1",
"<2", "1>", "2>" act as markers and flag "0" making any glyph (brackets
included) ordinary text.  Markerhood is positional, so user strings may
contain the bracket glyphs, "0" and "1" as plain symbols.

All operators here stay inside the encoded universe (sequences of cells);
`contains` is relative to it.  `true` and `false` work over the whole
symbol table since they only carry emptiness.

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
reduce themselves, each by `fsrw.fsm.reduce_pairs`: the constants,
`contains`, `_cross` and the intro family.  A recognizer's reduced form
is its canonical minimal machine; past `fsrw.fsm.REDUCE_STATE_CAP` the
reduction returns its input, so such an entry is stored as it was
built, like every other entry.  Unreduced, the closures they are built
with (`star` of a `union`, say) copy arcs onto every final state and
grow with the square of the alphabet, and every factor and composition
of a compile would pay for it.  The rest come out minimal from a scan
(`ign`), `difference` or `project`.  The filters (`non_markers_of` and
`ign`) each read only one of dom(T), Left or Right, so the rules that
share a context or a domain over one alphabet shape share its filters;
so do the captures that share a piece's domain, whose greed filters
keep their overrun (`fsrw.capture`) in the store too.  `ignx` and
`xignx` are asked for only inside stored builds, so they have no entry
of their own.  Seven of the nine replace
factors (`fsrw.replace.replace_factors`) are `_op`s too, each keyed by
its name, the flags it reads and the one machine it reads, and each
built reduced, by a scan (below) or as the constructions above are, so
that a rule that repeats an encoded domain, context or target over one
shape, in one process, takes the factors built for it.  `replace` folds
the factors that read one piece in groups, each group an `_op` named
"composed", keyed by the factor machines it composes and reduced once,
after the last composition (`fsrw.replace._composed`), so a rule whose
pieces repeat takes its groups composed.  So every entry is a fixed
point of `reduce_pairs` while it stays under the cap.

The store never holds more than SHAPE_CACHE_CAP arcs, counting each
entry's machine and the machine arguments in its key; the factors and
their groups are the largest entries.  An entry that would pass the cap
starts the store afresh, and one that passes it on its own is returned
unstored, so compiling against endless new alphabets or arguments runs
in bounded memory.  Each shape in the keys is one tuple, `_shapes`
holding it, since a shape holds every user id of its table.

Five replace factors filter markings, and each is one scan over the
cells that writes the markers it filters (`MarkerKit._scan`), as Mohri &
Sproat's Marker pass over a deterministic automaton inserts or checks
them (*An efficient compiler for weighted rewrite rules*, ACL 1996).
`r_right` and `f_phi` insert theirs and `longest_match` deletes its rb2
cells in a scan on the reversed tape, as the paper marks right contexts;
`l1` and `l2` delete theirs in a forward scan, and `left_to_right`
reads a region's content in one that deletes its lb2 cells.  A scan may
ignore some bracket cells, which are asked about like any other.
Forwards an ignored cell leaves the pattern's subset as it was, so `l1`
and `l2` read [xsig*, Left] as given, and `left_to_right` dom(T).
Backwards the pattern may read it or skip it, but no string starts with
a skipped cell, so `r_right` reads Right and `f_phi` [dom(T), rb2] as
given, for a domain without [], and `longest_match` reads its
occurrence, dom(T) with rb1 cells inserted, as given, every other
bracket cell ignored.  No `ign`, `xign`, `xignx`, `not`, `strip` or
`contains` of those patterns is built by default.
Each builds the reduced form of the composition it stands for: the
paper's `l_iff_r`, `not(contains(...))`, `if_s_then_p`,
`not([ign(...), ...])` or `ign(...)` composed with `intro` or `strip`.
The end of the tape is asked about like a cell, so a scan may let every
cell through and still ask for its pattern at the end: the kit's `ign`
is that forward scan, writing nothing, the paper's `ign` for a pattern
that holds none of the ignored cells.
The scan is deterministic, so a forward one needs only Moore refinement,
and a backward one determinizes its own reversal, which is minimal
(Brzozowski, *Canonical regular expressions and minimal state graphs for
definite events*, 1962).  The formulas, with `if_p_then_s`, `p_iff_s`,
`coerce_to_boolean` and `if`, are predefined macros of the rule language
(`fsrw.dsl`), written over this kit's builtins, and so are `not`, the
rule language's `ign`, `xign` and `ignx_1`, which wedges strings between
raw symbols, below the cells this kit reads; none has a store entry.
"""

from __future__ import annotations

import functools
from typing import Optional

from .fsm import (
    EPS,
    FsmError,
    Fst,
    SymbolTable,
    _determinize_reversal,
    _explore,
    _moore_minimize_dfa,
    _check_tables,
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
    project,
    reduce_pairs,
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
    the function's own name (`_cross` is "cross") and each
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


def _whole(final: bool, hit: Optional[bool]) -> bool:
    """The `allow` of a scan that lets every cell through and asks for its
    pattern at the end of the tape: the whole tape must read as a pattern
    string."""
    return hit is not None or final


def _constant(method):
    """A kit operation with no argument, read as a property.  The closures
    a constant is built with come out unreduced, so it is reduced."""
    return property(_op(functools.wraps(method)(lambda kit: reduce_pairs(method(kit)))))


class MarkerKit:
    """Toolkit of encoded-string operators over one symbol table: what the
    replace factors, `lm_concat` and the rule language's builtins call.

    Every machine it makes comes from the store the module docstring
    describes, through `_op`.  Every caller takes the kit kept on its
    table (`of`), so a table has one kit, and every kit finds the
    machines of every earlier table of its shape.
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
        rule's factors and the fold of them share it, and so do a
        program's builtins and a capture's filters on that table."""
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

    # containment -------------------------------------------------------

    @_op
    def contains(self, e: Fst) -> Fst:
        """Cell strings with a factor in L(e)."""
        return reduce_pairs(concat(self.xsig_star, e, self.xsig_star))

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
        return reduce_pairs(cross_product(a, b))

    @_op
    def intro(self, s: Fst) -> Fst:
        """Insert cells from `s` anywhere, pass other cells through."""
        keep = difference(self.xsig, s)
        return reduce_pairs(star(union(keep, cross_product(empty_string(self.table), s))))

    @_op
    def xintro(self, s: Fst) -> Fst:
        """Like intro, but never inserting at the start."""
        keep = difference(self.xsig, s)
        return reduce_pairs(union(empty_string(self.table), concat(keep, self.intro(s))))

    @_op
    def introx(self, s: Fst) -> Fst:
        """Like intro, but never inserting at the end."""
        keep = difference(self.xsig, s)
        return reduce_pairs(union(empty_string(self.table), concat(self.intro(s), keep)))

    @_op
    def xintrox(self, s: Fst) -> Fst:
        """Like intro, but inserting neither at the start nor at the end."""
        keep = difference(self.xsig, s)
        return reduce_pairs(union(empty_string(self.table), keep,
                              concat(keep, self.intro(s), keep)))

    @_op
    def ign(self, e: Fst, s: Fst) -> Fst:
        """The cell strings that are strings of `e` once their cells of
        `s`, a set of single cells, are erased: one forward scan over `e`
        that ignores `s` and writes nothing (`_scan`).  That is the
        paper's `ign(e, s)`, `range(e o intro(s))`, whenever no string of
        `e` holds an `s` cell, as for an encoded image and a set of
        bracket cells; the rule language's `ign` is that formula."""
        return self._scan(e, None, False, _whole, "delete", s)

    # asked for only inside stored builds, so kept out of the store; the
    # tables are checked before `introx` or `xintrox` is stored

    def ignx(self, e: Fst, s: Fst) -> Fst:
        _check_tables(e, s)
        return project(compose(e, self.introx(s)), "range")

    def xignx(self, e: Fst, s: Fst) -> Fst:
        _check_tables(e, s)
        return project(compose(e, self.xintrox(s)), "range")

    # marker filters as one-direction scans --------------------------------

    def _scan(self, pattern: Fst, cell: Optional[Fst], backward: bool, allow,
              write: str, ignore: Optional[Fst] = None) -> Fst:
        """The reduced transduction that one scan over the cells writes.

        The scan reads the marked tape cell by cell, forwards or
        (`backward`) from its end.  The cells of `cell`, a language of
        single cells or None for none, are written, never copied: `write`
        "insert" emits each as (ε, glyph)(ε, flag), and "delete" reads
        each as (glyph, ε)(flag, ε).  Every other cell is copied.  Over
        the marked tape runs the subset machine of `pattern`: forwards it
        is final where the prefix read is in `pattern`, backwards, where
        a `pattern` string starts (it runs over rev(xsig)* rev(pattern)).
        At each cell boundary the scan asks `allow(final, hit)` whether
        the next cell may come: `final` tells whether the pattern holds
        there, and `hit` whether the cell is in `cell`.  At the end of the
        tape it asks `allow(final, None)` whether the tape may end there,
        so a scan can let every cell through and still ask for its
        pattern at the end (`_whole`).  A cell of `ignore` is asked about
        like any other, whether or not it is in `cell`, and the direction
        sets what the pattern makes of it:
        - forwards it leaves the subset as it was, so the subset machine
          runs over the tape with those cells erased: `pattern` reads as
          the paper's `ign(pattern, ignore)` when none of its strings
          holds an ignored cell, and a prefix ending in ignored cells
          ends where the last cell before them does;
        - backwards the pattern may read it or skip it, but no `pattern`
          string starts with a skipped cell: the boundary before it on
          the tape, which the scan reaches after it, takes its finality
          from the read branch alone, and `pattern` reads as
          `range(pattern o {[], [xsig(), {xsig(), [] x ignore}*]})`, each
          string with ignored cells inserted anywhere after its first
          cell.  Under `ign` the cell a backward scan writes before a
          string would start one more string, which needs one more cell.

        A scan state is a subset at a boundary, with its finality, or,
        halfway through a cell, the subset and the labels that may still
        complete the cell, with the subset at the boundary as well when an
        ignored cell may complete it: a forward scan reads the glyph
        first, and "<2" may begin an ignored cell or an ordinary one.  The
        scan is
        deterministic over its labels and reaches every state, so a
        forward scan goes straight to Moore refinement, and a backward
        scan, which writes the reversed pairs, determinizes its own
        reversal, which is minimal (`fsrw.fsm._determinize_reversal`).
        Either way it is the reduced form of its pair language.
        `pattern`, `cell` and `ignore` must be recognizers."""
        for m in (pattern, cell, ignore):
            if m is not None:
                _require_recognizer(m, "a scan")
        t = self.table
        # the subset machine of `pattern`, or backwards of rev(xsig)*
        # rev(pattern): the arcs reversed, and the finals, where a reversed
        # `pattern` string starts, joining the subset at every boundary
        adj: list[dict[int, list[int]]] = [{} for _ in range(pattern.n)]
        if backward:
            start = again = pattern.finals
            goal = frozenset([pattern.initial])
            for s, i, _, d in pattern.arcs:
                adj[d].setdefault(i, []).append(s)
        else:
            start, again, goal = frozenset([pattern.initial]), frozenset(), pattern.finals
            for s, i, _, d in pattern.arcs:
                adj[s].setdefault(i, []).append(d)

        def cells(m):
            if m is None:
                return set()
            cadj = m.adjacency()
            return {(g, f) for g, _, mid in cadj[m.initial]
                    for f, _, d in cadj[mid] if d in m.finals}
        marked, ignored = cells(cell), cells(ignore)
        # every cell by its first label, in the order the scan reads them
        halves: dict[tuple[int, int], list] = {}
        for g, f in ([(g, 0) for g in t.encoded_ids()]
                     + [(b, 1) for b in t.bracket_ids()]):
            hit = (g, f) in marked
            x, y = (f, g) if backward else (g, f)
            if not hit:
                lx, ly = (x, x), (y, y)
            elif write == "insert":
                lx, ly = (EPS, x), (EPS, y)
            else:
                lx, ly = (x, EPS), (y, EPS)
            halves.setdefault(lx, (x, []))[1].append((ly, y, hit, (g, f) in ignored))
        for _, rest in halves.values():
            rest.sort()
        firsts = sorted(halves.items())

        def step(subset, sym):
            return frozenset([d for q in subset for d in adj[q].get(sym, ())])

        # a boundary is (subset, None, final), a half cell (subset,
        # seconds, kept), kept the subset at the boundary before it or None
        def boundary(subset, read):
            return subset, None, not goal.isdisjoint(read)

        def moves(key):
            if key[1] is not None:
                subset, seconds, kept = key
                for ly, y, ignores in seconds:
                    # an ignored cell is skipped forwards, and read or
                    # skipped backwards, the boundary final if it is read
                    read = kept if ignores and not backward else step(subset, y) | again
                    yield ly[0], ly[1], boundary(read | kept if ignores else read, read)
                return
            subset, _, final = key
            for lx, (x, rest) in firsts:
                ok = tuple([(ly, y, ignores) for ly, y, hit, ignores in rest
                            if allow(final, hit)])
                if ok:
                    kept = subset if any(ignores for _, _, ignores in ok) else None
                    yield lx[0], lx[1], (step(subset, x), ok, kept)

        keys, arcs = _explore(boundary(start, start), moves)
        finals = {k for k, (_, seconds, final) in enumerate(keys)
                  if seconds is None and allow(final, None)}
        if backward:
            return _determinize_reversal(t, len(keys), 0, finals, arcs)
        return _moore_minimize_dfa(len(keys), 0, finals, arcs, t)

    # the whole symbol table ----------------------------------------------

    @_constant
    def true(self) -> Fst:
        return sigma_star(self.table, self.table.all_ids())

    @_constant
    def false(self) -> Fst:
        return empty_lang(self.table)
