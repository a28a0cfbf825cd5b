"""Unweighted finite-state machines over interned symbols.

A machine is either a recognizer (every label is an identity pair, so it
denotes a language) or a transduction (it denotes a relation on strings).
Both live in the same representation; `is_recognizer` records which reading
applies.  All machines produced by the public constructors are epsilon-pair
free, trimmed and canonically numbered, so structurally equal results are
bit-for-bit equal.
"""

from __future__ import annotations

import heapq
from itertools import chain, product
from math import prod
from typing import Iterable, Optional, Sequence

EPS = -1  # epsilon on one side of a label; never a symbol table id


class FsmError(Exception):
    """Structural or coercion error in the machine algebra."""


# ---------------------------------------------------------------------------
# symbols


class SymbolTable:
    """Interned glyphs with stable integer ids.

    The six glyphs used by the marker encoding ("0", "1", "<1", "<2", "1>",
    "2>") are always present at ids 0..5.  They are ordinary symbols: the
    encoding never needs them excluded from user text.  `user` marks the
    subset that `?` denotes at the expression level.

    Interning is single-writer: build the table (and the alphabet) before
    compiling anything against it.  `freeze()` closes the table once a
    machine has captured its whole alphabet (`complement`, `containment`
    and the first `MarkerKit` constant do): from then on a new glyph, or a
    new user glyph, raises FsmError, while known glyphs still intern.
    `kit` is the table's `fsrw.markers.MarkerKit` once `MarkerKit.of` has
    made it.
    """

    RESERVED = ("0", "1", "<1", "<2", "1>", "2>")

    def __init__(self, user_alphabet: Iterable[str] = ()):
        self._texts: list[str] = []
        self._ids: dict[str, int] = {}
        self._user: set[int] = set()
        self._frozen = False
        self.kit = None
        for g in self.RESERVED:
            self.intern(g)
        for g in user_alphabet:
            self.add_user(g)

    def intern(self, text: str) -> int:
        if not isinstance(text, str) or text == "":
            raise FsmError("symbol glyph must be a nonempty string")
        sid = self._ids.get(text)
        if sid is None:
            if self._frozen:
                raise FsmError("cannot add symbol %r: the symbol table is frozen"
                               % text)
            sid = len(self._texts)
            self._texts.append(text)
            self._ids[text] = sid
        return sid

    def add_user(self, text: str) -> int:
        sid = self.intern(text)
        if sid not in self._user:
            if self._frozen:
                raise FsmError("cannot add user symbol %r: the symbol table is"
                               " frozen" % text)
            self._user.add(sid)
        return sid

    def freeze(self):
        self._frozen = True

    def id_of(self, text: str) -> int:
        sid = self._ids.get(text)
        if sid is None:
            raise FsmError("unknown symbol %r" % text)
        return sid

    def glyph(self, sid: int) -> str:
        return self._texts[sid]

    def __contains__(self, text: str) -> bool:
        return text in self._ids

    def __len__(self) -> int:
        return len(self._texts)

    def all_ids(self) -> tuple[int, ...]:
        return tuple(range(len(self._texts)))

    def user_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._user))

    def user_glyphs(self) -> tuple[str, ...]:
        return tuple(self._texts[i] for i in self.user_ids())

    def bracket_ids(self) -> tuple[int, int, int, int]:
        """Ids of the four marker glyphs "<1", "<2", "1>", "2>"."""
        return (2, 3, 4, 5)

    def encoded_ids(self) -> tuple[int, ...]:
        """What `?` ranges over inside the marker encoding: user glyphs
        plus the four bracket glyphs (they may coincide)."""
        return tuple(sorted(self._user | {2, 3, 4, 5}))


# ---------------------------------------------------------------------------
# machines


class Fst:
    """Immutable machine: states 0..n-1, one initial, arcs (src, in, out, dst).

    `in`/`out` are symbol ids or EPS.  Arcs are sorted; finals is a frozenset.
    Use the module-level constructors and operations to build instances.
    """

    __slots__ = ("table", "n", "initial", "finals", "arcs", "is_recognizer",
                 "_adj", "_tables")

    def __init__(self, table, n, initial, finals, arcs, is_recognizer):
        self.table = table
        self.n = n
        self.initial = initial
        self.finals = finals
        self.arcs = arcs
        self.is_recognizer = is_recognizer
        self._adj = None
        self._tables = None

    def adjacency(self) -> list[list[tuple[int, int, int]]]:
        """Per-state arc lists [(in, out, dst), ...], computed once; each
        list is sorted, since the arcs are."""
        if self._adj is None:
            adj = [[] for _ in range(self.n)]
            for s, i, o, d in self.arcs:
                adj[s].append((i, o, d))
            self._adj = adj
        return self._adj

    def input_tables(self) -> "InputTables":
        """The machine's left and right input subset tables, filled as
        inputs are read and shared by every input until they hold more
        than INPUT_TABLE_CAP entries; the next input then starts them
        afresh (an input that is being read keeps its tables)."""
        if self._tables is None or self._tables.full:
            self._tables = InputTables(self)
        return self._tables

    def is_empty(self) -> bool:
        """True when the machine accepts nothing (trimmed form has no finals)."""
        return not self.finals

    def accepts_epsilon(self) -> bool:
        return self.initial in self.finals

    def same_structure(self, other: "Fst") -> bool:
        return (
            self.n == other.n
            and self.initial == other.initial
            and self.finals == other.finals
            and self.arcs == other.arcs
        )

    def __repr__(self):
        kind = "recognizer" if self.is_recognizer else "transduction"
        return "<Fst %s: %d states, %d arcs, %d finals>" % (
            kind, self.n, len(self.arcs), len(self.finals))


def _is_recognizer(arcs) -> bool:
    return all(i == o and i != EPS for _, i, o, _ in arcs)


def _explore(start, moves, cap=None):
    """Breadth-first search from `start`, numbering states in the order it
    discovers them.  `moves(key)` yields (in, out, next_key) in a fixed
    order.  Returns (keys, arcs): keys[k] is the key of state k and arcs
    are (src, in, out, dst) over those numbers.  Returns None as soon as
    more than `cap` states are discovered."""
    index = {start: 0}
    keys = [start]
    arcs = []
    for src, key in enumerate(keys):  # keys grows while it is walked
        for i, o, nxt in moves(key):
            to = index.get(nxt)
            if to is None:
                to = len(keys)
                if cap is not None and to >= cap:
                    return None
                index[nxt] = to
                keys.append(nxt)
            arcs.append((src, i, o, to))
    return keys, arcs


def _reach(starts, succ) -> set:
    """States reachable from `starts` along the lists succ[state]."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


# `_finish`, `_subset_construct` and `_moore_minimize_dfa` keep their names:
# bench/spans.py (PROFILED) reports them by matching cProfile entries by name.


def _finish(table, n, initial, finals, arcs) -> Fst:
    """Normalize raw construction output: drop epsilon-pair arcs by
    closure, trim to useful states, renumber by BFS, sort arcs.

    One pass splits the epsilon-pair arcs from the others.  Only the
    states with an epsilon-pair arc are closed (a state takes the arcs and
    the finality of every state in its closure).  One backward reach over
    the raw arcs finds the states that reach a final one: a raw path and a
    closed path connect the same states.  The canonical BFS from the
    initial state then keeps the forward-reachable ones, since a state on
    a path to a co-reachable state is co-reachable itself.  It reads a
    state's arcs without duplicates in (in, out, old dst) order, so ties on
    identical labels break on the old dst id; with the epsilon pairs gone,
    an arc is an identity pair exactly when its two labels are equal."""
    out: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    into: list[list[int]] = [[] for _ in range(n)]
    eps: dict[int, list[int]] = {}
    for s, i, o, d in arcs:
        if i == EPS and o == EPS:
            eps.setdefault(s, []).append(d)
        else:
            out[s].append((i, o, d))
        into[d].append(s)
    finals = set(finals)
    live = _reach(finals, into)
    if initial not in live:
        return Fst(table, 1, 0, frozenset(), (), True)

    if eps:  # eps:eps arcs are construction glue only
        raw, succ = out[:], [eps.get(q, ()) for q in range(n)]
        for q in eps:
            cl = _reach([q], succ)
            out[q] = [arc for c in cl for arc in raw[c]]
            if not finals.isdisjoint(cl):  # as does any closure holding q
                finals.add(q)
    index, order = {initial: 0}, [initial]
    new_arcs, recognizer = [], True
    for src, q in enumerate(order):  # order grows while it is walked
        for i, o, d in sorted(set(out[q])) if len(out[q]) > 1 else out[q]:
            if d in live:
                to = index.get(d)
                if to is None:
                    to = index[d] = len(order)
                    order.append(d)
                new_arcs.append((src, i, o, to))
                recognizer = recognizer and i == o
    new_arcs.sort()
    new_finals = frozenset(k for k, q in enumerate(order) if q in finals)
    return Fst(table, len(order), 0, new_finals, tuple(new_arcs), recognizer)


def _check_tables(*ms: Fst):
    t = ms[0].table
    for m in ms[1:]:
        if m.table is not t:
            raise FsmError("machines built against different symbol tables")
    return t


def _require_recognizer(m: Fst, op: str):
    if not m.is_recognizer:
        raise FsmError("%s of a transduction is undefined; project it first" % op)


# -- constructors -----------------------------------------------------------


def empty_lang(table) -> Fst:
    return Fst(table, 1, 0, frozenset(), (), True)


def empty_string(table) -> Fst:
    return Fst(table, 1, 0, frozenset([0]), (), True)


def literal(table, glyph: str) -> Fst:
    sid = table.intern(glyph)
    return Fst(table, 2, 0, frozenset([1]), ((0, sid, sid, 1),), True)


def symbol_pair(table, in_glyph: Optional[str], out_glyph: Optional[str]) -> Fst:
    """One aligned label; None on a side means epsilon.  eps:eps is the
    empty-string machine."""
    i = EPS if in_glyph is None else table.intern(in_glyph)
    o = EPS if out_glyph is None else table.intern(out_glyph)
    if i == EPS and o == EPS:
        return empty_string(table)
    return Fst(table, 2, 0, frozenset([1]), ((0, i, o, 1),), i == o)


def any_of(table, ids: Sequence[int]) -> Fst:
    """Identity over a set of single symbols."""
    arcs = tuple((0, sid, sid, 1) for sid in sorted(set(ids)))
    if not arcs:
        return empty_lang(table)
    return Fst(table, 2, 0, frozenset([1]), arcs, True)


def word(table, glyphs: Sequence[str]) -> Fst:
    """Straight-line recognizer for one string."""
    ids = [table.intern(g) for g in glyphs]
    arcs = tuple((k, sid, sid, k + 1) for k, sid in enumerate(ids))
    return Fst(table, len(ids) + 1, 0, frozenset([len(ids)]), arcs, True)


def sigma_star(table, ids: Sequence[int]) -> Fst:
    arcs = tuple((0, sid, sid, 0) for sid in sorted(set(ids)))
    return Fst(table, 1, 0, frozenset([0]), arcs, True)


# -- rational operations ----------------------------------------------------


def union(*ms: Fst) -> Fst:
    if not ms:
        raise FsmError("union needs at least one operand table; use empty_lang")
    table = _check_tables(*ms)
    arcs = []
    finals = []
    base = 1
    for m in ms:
        arcs.append((0, EPS, EPS, base + m.initial))
        for s, i, o, d in m.arcs:
            arcs.append((base + s, i, o, base + d))
        finals.extend(base + f for f in m.finals)
        base += m.n
    return _finish(table, base, 0, finals, arcs)


def concat(*ms: Fst) -> Fst:
    if not ms:
        raise FsmError("concat needs at least one operand table; use empty_string")
    table = _check_tables(*ms)
    arcs = []
    base = 0
    initial = None
    prev_finals: list[int] = []
    for m in ms:
        if initial is None:
            initial = m.initial
        else:
            arcs.extend((f, EPS, EPS, base + m.initial) for f in prev_finals)
        for s, i, o, d in m.arcs:
            arcs.append((base + s, i, o, base + d))
        prev_finals = [base + f for f in m.finals]
        base += m.n
    return _finish(table, base, initial, prev_finals, arcs)


def star(m: Fst) -> Fst:
    arcs = [(0, EPS, EPS, 1 + m.initial)]
    for s, i, o, d in m.arcs:
        arcs.append((1 + s, i, o, 1 + d))
    for f in m.finals:
        arcs.append((1 + f, EPS, EPS, 0))
    return _finish(m.table, m.n + 1, 0, [0], arcs)


def plus(m: Fst) -> Fst:
    return concat(m, star(m))


def option(m: Fst) -> Fst:
    return union(m, empty_string(m.table))


# -- determinization / minimization -----------------------------------------


def _is_own_subset_machine(m: Fst) -> bool:
    """Whether the subset machine of `m` is `m` itself: `m` is deterministic
    over its (in, out) labels, and its states are numbered as `_explore`
    numbers the subset machine, initial state 0 and then in the order a
    breadth-first search meets them, reading each state's arcs in label
    order, with every state met.

    Arcs sorted by (src, in, out) with no label twice on one state are
    that search's reading order, so one pass over them checks it all: each
    (src, in, out) must exceed the one before, a state must be met before
    its own arcs are read, and each destination must be a state met
    already or the next one.  `_finish` and `_moore_minimize_dfa` number
    their results this way, so a deterministic result of either passes."""
    if m.initial != 0:
        return False
    met = 1
    prev = (-1,)
    for s, i, o, d in m.arcs:
        label = (s, i, o)
        if label <= prev or s >= met or d > met:
            return False
        if d == met:
            met += 1
        prev = label
    return met == m.n


def _subset_moves(adj):
    """The `_explore` moves of the subset machine over the arc lists
    adj[state] of (in, out, dst): one move per label, in label order."""
    def moves(subset):
        by_label: dict[tuple[int, int], set[int]] = {}
        for q in subset:
            for i, o, d in adj[q]:
                by_label.setdefault((i, o), set()).add(d)
        for i, o in sorted(by_label):
            yield i, o, frozenset(by_label[i, o])
    return moves


def _subset_construct(m: Fst, state_cap: Optional[int] = None):
    """Subset construction over atomic labels (in, out).  For recognizers
    the atoms are identity pairs, so this is ordinary determinization.
    One-sided epsilon labels are atoms too: there is no closure here.
    Returns (n, initial, finals, arcs) of the subset machine: n states
    numbered by `_explore` with initial state 0, the set of states whose
    subset holds a final state, and the (src, in, out, dst) arcs, each
    state's in label order.  Returns None when state_cap is exceeded.

    Most machines built here are already their own subset machine, so
    that case returns `m`'s own parts without building anything: see
    `_is_own_subset_machine`."""
    if _is_own_subset_machine(m):
        # `_explore` counts the states found after the initial one
        if state_cap is not None and m.n > max(state_cap, 1):
            return None
        return m.n, 0, m.finals, m.arcs
    built = _explore(frozenset([m.initial]), _subset_moves(m.adjacency()), state_cap)
    if built is None:
        return None
    keys, arcs = built
    finals = {k for k, subset in enumerate(keys) if subset & m.finals}
    return len(keys), 0, finals, arcs


def determinize(m: Fst, pair_atomic: bool = False) -> Fst:
    """Subset construction.  Transductions require pair_atomic=True, which
    treats each label as an atomic pair (sufficient for size reduction and
    equality of pair languages, not for relation-level equality)."""
    if not m.is_recognizer and not pair_atomic:
        raise FsmError("determinize of a transduction needs pair_atomic mode")
    n, initial, finals, arcs = _subset_construct(m)
    return _finish(m.table, n, initial, finals, arcs)


def _moore_minimize_dfa(n, initial, finals, arcs, table) -> Fst:
    """The minimal machine of a (possibly partial) deterministic machine
    whose labels are treated atomically, numbered canonically.  `arcs`
    must list each state's arcs in label order, as `_explore` gives them
    for the subset and product machines.

    It first drops the arcs into the states that cannot reach a final one,
    found by one backward reach, so the quotient is minimal whether or not
    the input was trimmed: a dead state is left with no arcs and no
    finality, a class of its own that the quotient never enters.

    A state's signature is built only from the arcs it has: the labels it
    can read, in label order, and the classes they lead to.  A missing arc
    is told apart from an arc into any class, as a dense signature over
    every label with -1 for a missing arc would, so the partition is the
    same, at a cost of O(n + arcs) per round rather than O(n * labels).
    Finality and the label set never change, so they form the first
    partition, and each round only compares target classes, up to a
    fixpoint or until every class is a single state.

    The quotient numbers itself: a BFS from the initial state's class
    reads each class's arcs off one member, in label order.  It is
    deterministic, so its arcs come out sorted, numbered as `_finish`
    would number them, with no further normalization."""
    into: list[list[int]] = [[] for _ in range(n)]
    for s, _, _, d in arcs:
        into[d].append(s)
    live = _reach(finals, into)
    if initial not in live:
        return empty_lang(table)
    if len(live) < n:
        arcs = [arc for arc in arcs if arc[3] in live]
    labs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    dsts: list[list[int]] = [[] for _ in range(n)]
    for s, i, o, d in arcs:
        labs[s].append((i, o))
        dsts[s].append(d)
    first: dict[tuple, int] = {}
    cls = [first.setdefault((q in finals, tuple(labs[q])), len(first))
           for q in range(n)]
    k = len(first)
    while k < n:
        sig_index: dict[tuple, int] = {}
        cls = [sig_index.setdefault((cls[q], tuple([cls[d] for d in dsts[q]])),
                                    len(sig_index))
               for q in range(n)]
        # a round only splits classes, so an unchanged count is a fixpoint
        if len(sig_index) == k:
            break
        k = len(sig_index)
    number = [-1] * k  # a class's state in the quotient
    number[cls[initial]] = 0
    order = [initial]  # one member of each class met, in BFS order
    new_arcs, recognizer = [], True
    for src, q in enumerate(order):  # order grows while it is walked
        for (i, o), d in zip(labs[q], dsts[q]):
            to = number[cls[d]]
            if to < 0:
                to = number[cls[d]] = len(order)
                order.append(d)
            new_arcs.append((src, i, o, to))
            recognizer = recognizer and i == o != EPS
    new_finals = frozenset(k for k, q in enumerate(order) if q in finals)
    return Fst(table, len(order), 0, new_finals, tuple(new_arcs), recognizer)


def minimize(m: Fst, pair_atomic: bool = False) -> Fst:
    """Determinize then merge equivalent states.  Canonical minimal result."""
    if not m.is_recognizer and not pair_atomic:
        raise FsmError("minimize of a transduction needs pair_atomic mode")
    n, initial, finals, arcs = _subset_construct(m)
    return _moore_minimize_dfa(n, initial, finals, arcs, m.table)


# reduce_pairs returns its input unchanged once the subset machine it
# builds would have more than this many states.
REDUCE_STATE_CAP = 40000


def reduce_pairs(m: Fst) -> Fst:
    """The minimal deterministic machine over atomic (in, out) labels of
    `m`'s pair-sequence language (hence of its relation), numbered
    canonically, so two machines of one pair language reduce to the same
    machine; it may have more states than a nondeterministic `m`.  Past
    REDUCE_STATE_CAP subset states `m` is returned as it is."""
    if m.is_empty():
        return empty_lang(m.table)
    built = _subset_construct(m, REDUCE_STATE_CAP)
    if built is None:
        return m
    return _moore_minimize_dfa(*built, m.table)


def _is_canonical(m: Fst) -> bool:
    """Whether `_finish` would return `m` as it is.

    Arcs sorted strictly, with no epsilon pair, are `_finish`'s BFS reading
    order when the initial state is 0, each arc's source is met before its
    own arcs are read and each target is a state met already or the next
    one, and every state is met.  Then one backward reach must find every
    state co-reachable, and `is_recognizer` must be what the arcs say.  A
    machine with no final state is canonical only as the empty language."""
    if not m.finals:
        return m.n == 1 and m.initial == 0 and not m.arcs and m.is_recognizer
    if m.initial != 0:
        return False
    into: list[list[int]] = [[] for _ in range(m.n)]
    met = 1
    prev = (-1,)
    for arc in m.arcs:
        s, i, o, d = arc
        if (arc <= prev or s >= met or d > met or d >= m.n
                or (i == EPS and o == EPS)):
            return False
        if d == met:
            met += 1
        into[d].append(s)
        prev = arc
    return (met == m.n and len(_reach(m.finals, into)) == m.n
            and m.is_recognizer == _is_recognizer(m.arcs))


def canonicalize(m: Fst) -> Fst:
    """Renumber states by breadth-first order with sorted arc exploration.
    A machine already in that form, as every machine the algebra builds
    is, is returned as it is."""
    if _is_canonical(m):
        return m
    return _finish(m.table, m.n, m.initial, m.finals, m.arcs)


# -- boolean operations (recognizers only) -----------------------------------


def complement(m: Fst) -> Fst:
    """Full-alphabet complement: SIGMA* minus L(m), SIGMA the whole table.
    No sink state is added: `difference` reads a missing move of m's
    subset machine as a move into a dead non-final state.  It captures the
    whole alphabet, so it freezes the table (see `SymbolTable.freeze`)."""
    _require_recognizer(m, "complement")
    m.table.freeze()
    return difference(sigma_star(m.table, m.table.all_ids()), m)


def _boolean_product(a: Fst, b: Fst, b_final: bool) -> Fst:
    """The minimal machine of L(a) and L(b) (`b_final`) or of L(a) minus
    L(b) (not `b_final`), as one product of the subset machines of `a`
    and `b`, built without completing or complementing `b`.

    A product state is final when `a`'s subset is final and the finality
    of `b`'s subset is `b_final`.  For a difference, a move that `b`'s
    subset machine lacks goes to the dead state -1, which never leaves and
    is never final; for an intersection such a move is not taken.  The
    product is deterministic, so it goes straight to Moore refinement,
    which drops its dead states, and the result is the canonical minimal
    machine."""
    table = _check_tables(a, b)
    na, _, finals_a, arcs_a = _subset_construct(a)
    nb, _, finals_b, arcs_b = _subset_construct(b)
    step_a: list[list[tuple[int, int]]] = [[] for _ in range(na)]
    for s, i, _, d in arcs_a:
        step_a[s].append((i, d))
    step_b: list[dict[int, int]] = [{} for _ in range(nb)]
    for s, i, _, d in arcs_b:
        step_b[s][i] = d

    def moves(key):
        pa, pb = key
        step = step_b[pb] if pb >= 0 else {}
        for i, da in step_a[pa]:
            db = step.get(i, -1)
            if db >= 0 or not b_final:
                yield i, i, (da, db)

    keys, arcs = _explore((0, 0), moves)
    finals = {k for k, (pa, pb) in enumerate(keys)
              if pa in finals_a and (pb in finals_b) == b_final}
    return _moore_minimize_dfa(len(keys), 0, finals, arcs, table)


def intersection(a: Fst, b: Fst) -> Fst:
    """L(a) and L(b); see `_boolean_product`."""
    _require_recognizer(a, "intersection")
    _require_recognizer(b, "intersection")
    return _boolean_product(a, b, True)


def difference(a: Fst, b: Fst) -> Fst:
    """L(a) minus L(b); see `_boolean_product`."""
    _require_recognizer(a, "difference")
    _require_recognizer(b, "difference")
    return _boolean_product(a, b, False)


def containment(m: Fst) -> Fst:
    """Strings with a substring in L(m), over the full table alphabet,
    which freezes the table as `complement` does."""
    _require_recognizer(m, "containment")
    m.table.freeze()
    sig = sigma_star(m.table, m.table.all_ids())
    got = concat(sig, m, sig)
    return minimize(got)


# -- relation operations -----------------------------------------------------


def cross_product(a: Fst, b: Fst) -> Fst:
    """The relation L(a) x L(b).  Pairs of unequal length are aligned with
    all epsilons trailing."""
    if not a.is_recognizer or not b.is_recognizer:
        raise FsmError("cross product needs recognizers on both sides")
    _check_tables(a, b)
    adj_a = a.adjacency()
    adj_b = b.adjacency()
    SYNC, APAD, BPAD = 0, 1, 2

    def moves(key):
        pa, pb, mode = key
        if mode == SYNC:
            for i, _, da in adj_a[pa]:
                for j, _, db in adj_b[pb]:
                    yield i, j, (da, db, SYNC)
        if mode in (SYNC, APAD) and pb in b.finals:
            for i, _, da in adj_a[pa]:
                yield i, EPS, (da, pb, APAD)
        if mode in (SYNC, BPAD) and pa in a.finals:
            for j, _, db in adj_b[pb]:
                yield EPS, j, (pa, db, BPAD)

    keys, arcs = _explore((a.initial, b.initial, SYNC), moves)
    finals = [k for k, (pa, pb, _) in enumerate(keys)
              if pa in a.finals and pb in b.finals]
    return _finish(a.table, len(keys), 0, finals, arcs)


def compose(a: Fst, b: Fst) -> Fst:
    """Relation composition.  The three-way filter serializes epsilon moves
    (output-side epsilons of `a` before input-side epsilons of `b`) so no
    pair of paths is duplicated."""
    _check_tables(a, b)
    adj_a = a.adjacency()
    by_mid: list[dict] = [{} for _ in range(b.n)]  # b's (out, dst) by state, input
    for sb, j, o2, db in b.arcs:
        by_mid[sb].setdefault(j, []).append((o2, db))

    def moves(key):
        pa, pb, flt = key
        for i, o1, da in adj_a[pa]:
            if o1 == EPS:
                if flt != 2:  # a-alone moves precede b-alone moves
                    yield i, EPS, (da, pb, 1)
            else:
                for o2, db in by_mid[pb].get(o1, ()):
                    yield i, o2, (da, db, 0)
        for o2, db in by_mid[pb].get(EPS, ()):
            yield EPS, o2, (pa, db, 2)

    keys, arcs = _explore((a.initial, b.initial, 0), moves)
    finals = [k for k, (pa, pb, _) in enumerate(keys)
              if pa in a.finals and pb in b.finals]
    return _finish(a.table, len(keys), 0, finals, arcs)


def project(m: Fst, side: str) -> Fst:
    """Input or output language of a relation, as a minimal recognizer."""
    if side not in ("domain", "range"):
        raise FsmError("project side must be 'domain' or 'range'")
    keep = 1 if side == "domain" else 2
    arcs = []
    for s, i, o, d in m.arcs:
        sym = i if keep == 1 else o
        arcs.append((s, sym, sym, d))
    got = _finish(m.table, m.n, m.initial, m.finals, arcs)
    return minimize(got)


def identity_lift(m: Fst) -> Fst:
    """Read a recognizer as the identity relation on its language.  The
    representation is already identity-labeled, so this only checks."""
    if not m.is_recognizer:
        raise FsmError("identity_lift needs a recognizer")
    return m


def invert(m: Fst) -> Fst:
    arcs = [(s, o, i, d) for s, i, o, d in m.arcs]
    return _finish(m.table, m.n, m.initial, m.finals, arcs)


def reverse(m: Fst) -> Fst:
    """Every string (both sides of every pair) read backwards: the arcs
    flipped, and a new initial state with epsilon-pair arcs to the old
    finals."""
    arcs = [(1 + d, i, o, 1 + s) for s, i, o, d in m.arcs]
    arcs.extend((0, EPS, EPS, 1 + f) for f in m.finals)
    return _finish(m.table, m.n + 1, 0, [1 + m.initial], arcs)


def _determinize_reversal(table, n, initial, finals, arcs) -> Fst:
    """`reduce_pairs(reverse(m))` for the machine `m` with these parts,
    which must be deterministic over its (in, out) labels, with every
    state reachable from `initial`, and have no epsilon-pair arc; it has
    no state cap.

    The subset construction of a reversed accessible deterministic
    machine is its minimal machine (Brzozowski, *Canonical regular
    expressions and minimal state graphs for definite events*, 1962): a
    subset holds the states from which the string read so far, turned
    back round, leads to a final state, and two distinct subsets differ
    on some state, so the string that reaches it from `initial` tells
    them apart.  No move goes to the empty subset, so it is trim too.
    `_explore` numbers it as `_moore_minimize_dfa` numbers a quotient, so
    the result is the canonical one, with no `_finish`, `reverse` or
    Moore pass."""
    if not finals:
        return empty_lang(table)
    back: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for s, i, o, d in arcs:
        back[d].append((i, o, s))
    keys, new_arcs = _explore(frozenset(finals), _subset_moves(back))
    new_finals = frozenset(k for k, subset in enumerate(keys) if initial in subset)
    return Fst(table, len(keys), 0, new_finals, tuple(new_arcs),
               _is_recognizer(new_arcs))


# -- queries ------------------------------------------------------------------

# Once a machine's input tables hold more than this many entries (subsets
# on either side, cached steps and kept outputs), the next input starts
# them afresh, so applying one machine to endless input runs in bounded
# memory.
INPUT_TABLE_CAP = 1 << 13

# enumerate_pairs gives up with FsmError after walking this many arcs, so a
# relation with very many short paths ends in an error, not a long hang.
ENUMERATE_PATH_CAP = 2_000_000


class _SubsetTable:
    """Subsets of a machine's states met while reading inputs in one
    direction, numbered in the order they are met.  `succ[q]` maps a
    symbol to the states one arc reading it leads to from q, and `eps[q]`
    lists those one input-epsilon arc leads to; every subset is closed
    under `eps`.  Subset 0 is the closure of `seeds`.  `moves[k]` caches
    what reading a symbol from subset k leads to: in the left table a
    `_Transition`, keyed by the symbol's glyph, in the right one a subset
    number (-1 for none), keyed by its id."""

    __slots__ = ("succ", "eps", "sets", "ids", "moves")

    def __init__(self, succ, eps, seeds):
        self.succ = succ
        self.eps = eps
        self.sets: list[frozenset] = []
        self.ids: dict[frozenset, int] = {}
        self.moves: list[dict] = []
        self._intern(seeds)

    def _intern(self, states) -> int:
        subset = frozenset(_reach(states, self.eps))
        k = self.ids.get(subset)
        if k is None:
            k = self.ids[subset] = len(self.sets)
            self.sets.append(subset)
            self.moves.append({})
        return k

    def after(self, k: int, sym: int) -> int:
        """The subset that reading `sym` leads to from subset k, or -1
        when it leads to no state."""
        reached = set()
        for q in self.sets[k]:
            reached.update(self.succ[q].get(sym, ()))
        return self._intern(reached) if reached else -1


class _Step:
    """The trimmed lattice at one input position p, for a left subset
    L[p], the symbol read there and a right subset R[p + 1].

    `live` lists, sorted, the states of L[p] & R[p]: exactly those that lie
    on an accepting path through position p.  `arcs` are the arcs between
    live states, as (src, out, dst, same) over indices into `live`: an
    input-epsilon arc stays at p (same is True), an arc reading the symbol
    goes to position p + 1 (dst indexes that position's `live`).  `rid` is
    R[p].  `out` is the output glyphs along the one path through p when
    there is only one (each live state has one live arc and they chain),
    else None, and `text` is their join, made once when the step is
    cached, so a single-path line is one join of its steps' texts.
    `exit` is the state at position p + 1 that every arc leaving p
    enters, when they all enter one, else -1: then every accepting path
    crosses that state, and the line can be cut there.
    `endless` is set when some cycle of input-epsilon arcs writes a
    symbol: its states lie on accepting paths, so the line then has
    infinitely many outputs, and a cycle never spans positions, so a
    line with no endless step has finitely many."""

    __slots__ = ("rid", "live", "arcs", "out", "text", "exit", "endless")

    def __init__(self, rid, live, arcs, out):
        self.rid = rid
        self.live = live
        self.arcs = arcs
        self.out = out
        self.text = None if out is None else "".join(out)
        ends = {d for _, _, d, same in arcs if not same}
        self.exit = ends.pop() if len(ends) == 1 else -1
        succ: list[list[int]] = [[] for _ in live]
        writing = []
        for s, o, d, same in arcs:
            if same:
                succ[s].append(d)
                if o != EPS:
                    writing.append((s, d))
        self.endless = any(s in _reach([d], succ) for s, d in writing)


def _chain_output(k: int, arcs, glyph) -> Optional[tuple[str, ...]]:
    """The output of a step whose k live states form one path, else None.

    Every live state has a live arc, so they form one path when there are
    k arcs from k distinct states, k - 1 of which stay at the position and
    enter k - 1 distinct states.  The one state none of them enters is
    where the path comes in, and the one arc that leaves the position ends
    it."""
    nxt = {}
    entered = []
    for s, o, d, same in arcs:
        nxt[s] = (o, d if same else None)
        if same:
            entered.append(d)
    if not len(arcs) == len(nxt) == k or not len(entered) == len(set(entered)) == k - 1:
        return None
    (v,) = set(range(k)).difference(entered)
    out = []
    while v is not None:
        o, v = nxt[v]
        if o != EPS:
            out.append(glyph(o))
    return tuple(out)


class _Transition:
    """A move of the left table, cached under the glyph it reads: reading
    the symbol `sym` (its id) from left subset `src` leads to subset `to`
    (-1 when it leads to no state).  `steps` caches the step (`_Step`) of
    a position p that reads `sym` from L[p] = `src`, keyed by the right
    subset R[p + 1]."""

    __slots__ = ("src", "sym", "to", "steps")

    def __init__(self, src: int, sym: int, to: int):
        self.src = src
        self.sym = sym
        self.to = to
        self.steps: dict[int, _Step] = {}


class InputTables:
    """The two halves of a machine's bimachine (Schützenberger 1961; see
    Roche & Schabes, *Finite-State Language Processing*, 1997), over its
    input side, filled on demand.

    The left table steps the states the machine can be in after a prefix
    (subset 0: the initial state); the right table, over the reversed
    arcs, steps backwards the states from which the rest of the input can
    reach a final state (subset 0: the states that reach one over
    input-epsilon arcs).  Both are closed under input-epsilon arcs.  Each
    move of the left table is a `_Transition` that caches the trimmed
    lattice of the positions it reads, by the right subset after them;
    the end of the input is a step cached in `ends` by L[n] alone, whose
    live final states have an arc to a single exit state at position
    n + 1.  `stepped` counts the cached steps.  `segments` caches the
    outputs of a stretch of steps between two cuts (see `segment`);
    `held` counts the outputs it holds.  `full` is set once the tables
    hold more than INPUT_TABLE_CAP entries, checked only when they grow."""

    __slots__ = ("finals", "adj", "id_of", "glyph", "left", "right", "ends", "stepped",
                 "segments", "held", "full")

    def __init__(self, m: Fst):
        self.finals = m.finals
        self.adj = m.adjacency()
        self.id_of = m.table.id_of
        self.glyph = m.table.glyph
        fsucc = [{} for _ in range(m.n)]
        bsucc = [{} for _ in range(m.n)]
        feps = [[] for _ in range(m.n)]
        beps = [[] for _ in range(m.n)]
        for s, i, _, d in m.arcs:
            if i == EPS:
                feps[s].append(d)
                beps[d].append(s)
            else:
                fsucc[s].setdefault(i, []).append(d)
                bsucc[d].setdefault(i, []).append(s)
        self.left = _SubsetTable(fsucc, feps, [m.initial])
        self.right = _SubsetTable(bsucc, beps, m.finals)
        self.ends: dict[int, _Step] = {}
        self.stepped = 0
        self.segments: dict[tuple, _Segment] = {}
        self.held = 0
        self.full = False

    def size(self) -> int:
        return len(self.left.sets) + len(self.right.sets) + self.stepped + self.held

    def _grew(self):
        self.full = self.size() > INPUT_TABLE_CAP

    def _transition(self, k: int, g) -> _Transition:
        sym = self.id_of(g)
        t = self.left.moves[k][g] = _Transition(k, sym, self.left.after(k, sym))
        self._grew()
        return t

    def _step(self, t: _Transition, rnext: int, ahead) -> _Step:
        """The step of `t` before R[p + 1] = `rnext`; `ahead` is the live
        list of the step after it, L[p + 1] & R[p + 1] sorted."""
        right = self.right
        moves = right.moves[rnext]
        rid = moves.get(t.sym)
        if rid is None:
            rid = moves[t.sym] = right.after(rnext, t.sym)
        st = t.steps[rnext] = self._new_step(t.src, t.sym, rid, ahead)
        return st

    def _end(self, lid: int) -> _Step:
        st = self.ends[lid] = self._new_step(lid, EPS, 0, [])
        return st

    def _new_step(self, lid: int, sym: int, rid: int, ahead: list[int]) -> _Step:
        """The step that reads `sym` (EPS: the end of the input) from L[p]
        = `lid` into R[p] = `rid`, whose next position's live states are
        `ahead`."""
        live = sorted(self.left.sets[lid] & self.right.sets[rid]) if rid >= 0 else []
        here = {q: k for k, q in enumerate(live)}
        there = {q: k for k, q in enumerate(ahead)}
        arcs = []
        for k, q in enumerate(live):
            for i, o, d in self.adj[q]:
                if i == EPS:
                    if d in here:
                        arcs.append((k, o, here[d], True))
                elif i == sym and d in there:
                    arcs.append((k, o, there[d], False))
            if sym == EPS and q in self.finals:
                arcs.append((k, EPS, 0, False))
        self.stepped += 1
        self._grew()
        return _Step(rid, tuple(live), tuple(arcs), _chain_output(len(live), arcs, self.glyph))

    def walk(self, line) -> Optional[list[_Transition]]:
        """The left table's transitions along `line`, a str (one symbol per
        character) or a sequence of glyphs, or None once a prefix leads to
        no state.  A glyph the table does not know raises FsmError, also
        after such a prefix."""
        moves = self.left.moves
        trans = []
        k = 0
        for g in line:
            t = moves[k].get(g) or self._transition(k, g)
            k = t.to
            if k < 0:
                for g in line[len(trans) + 1:]:
                    self.id_of(g)  # raises on a glyph the table lacks
                return None
            trans.append(t)
        return trans

    def read(self, line):
        """The steps of the input's trimmed lattice, positions 0..n, and
        the join of their texts when every step is one path (else None);
        None when no path accepts the input.  One walk forward over the
        transitions, then one back that takes each position's step from
        its transition by the right subset after it, collecting the steps
        and their texts as it goes."""
        trans = self.walk(line)
        if trans is None:
            return None
        lid = trans[-1].to if trans else 0
        st = self.ends.get(lid) or self._end(lid)
        if not st.live:  # then no position has a live state
            return None
        trail = [st]
        texts = [st.text]
        for t in reversed(trans):
            st = t.steps.get(st.rid) or self._step(t, st.rid, st.live)
            trail.append(st)
            texts.append(st.text)
        trail.reverse()
        if None in texts:
            return trail, None
        texts.reverse()
        return trail, "".join(texts)

    def segment(self, trail, lo: int, hi: int, entry: int) -> Optional[_Segment]:
        """The outputs of steps lo..hi - 1 of `trail`, from live state
        `entry` of position lo to the exit of step hi - 1, or None when one
        of the steps is endless.  Cached by the entry and the steps (each
        step stands for its transition and R[p + 1]), unless the stretch
        reads every symbol of the line (the last step, at the end of the
        input, reads none): only the same line again would find it.  So a
        cached stretch is known to be finite."""
        key = (entry, *trail[lo:hi])
        seg = self.segments.get(key)
        if seg is None:
            if any(st.endless for st in key[1:]):
                return None
            seg = _Segment(_acyclic_outputs(*_output_dfa(trail, lo, hi, entry), self.glyph))
            if lo > 0 or hi < len(trail) - 1:
                self.segments[key] = seg
                self.held += len(seg.tuples)
                self._grew()
        return seg


def accepts(m: Fst, s) -> bool:
    """Membership for recognizers.  `s` is a str (one symbol per character)
    or a sequence of glyphs."""
    _require_recognizer(m, "accepts")
    tables = m.input_tables()
    trans = tables.walk(s)
    if trans is None:
        return False
    return not m.finals.isdisjoint(tables.left.sets[trans[-1].to if trans else 0])


class _Segment(list):
    """The finite output set of a stretch of a line's lattice with several
    paths, built once with everything below and kept with the tables for
    later lines that contain it (`InputTables.segment`).

    The list holds the outputs' strings in string order, as `fsrw apply`
    prints them.  `tuples` holds the glyph tuples sorted by symbol id, and
    `strings` their joins in the same order.  `apart` says that no string
    equals another or is a prefix of another: in string order a prefix
    sorts right before the strings it starts, so neighbours tell.  Then
    no glyph tuple is a prefix of another either, since its join would
    be."""

    __slots__ = ("tuples", "strings", "apart")

    def __init__(self, tuples: list[tuple[str, ...]]):
        self.tuples = tuples
        self.strings = strings = ["".join(t) for t in tuples]
        super().__init__(sorted(strings))
        self.apart = not any(b.startswith(a) for a, b in zip(self, self[1:]))


class TransduceResult:
    """Outputs of applying a machine to one input string.

    `outputs` holds glyph tuples sorted lexicographically by symbol id; it
    is built on first access, once, and later accesses return the same
    list.  `strings()` gives their joins for display, in the same order,
    as a new list on every call, so a caller that sorts or edits it leaves
    the result as it was.  `truncated` is set when the output set is
    infinite and only the first `limit` (shortest first) are kept.

    A line with several paths may keep its outputs factored: `segs`
    holds one list of strings in string order per stretch of the line,
    either a run's text alone or a `_Segment`, and the outputs are their
    product.  Then the joins are built on the first call to `strings()`
    (or iteration) and the glyph tuples on the first read of `outputs`,
    each run's from its steps; `len()` is the product of the list sizes,
    one multiplication per list, and builds neither.  `joined` and
    `least` give what `fsrw apply` prints, read from the lists.
    """

    __slots__ = ("_strings", "_outputs", "_steps", "_segs", "truncated")

    def __init__(self, strings: Optional[list[str]], truncated: bool, outputs,
                 steps=None, segs=None):
        # `outputs` is the list of glyph tuples, or None to build it from
        # `steps`: the steps of a single-path line, or the steps of each
        # run in `segs`; `strings` is None when `segs` gives them
        self._strings = strings
        self._outputs = outputs
        self._steps = steps
        self._segs = segs
        self.truncated = truncated

    @property
    def outputs(self) -> list[tuple[str, ...]]:
        if self._outputs is None:
            if self._segs is None:
                self._outputs = [_glyphs_of(self._steps)]
            else:
                self._outputs = _product_tuples(self._segs, self._steps)
            self._steps = None
        return self._outputs

    def _flat(self) -> list[str]:
        if self._strings is None:
            self._strings = list(map("".join, product(*[
                seg if type(seg) is list else seg.strings for seg in self._segs])))
        return self._strings

    def strings(self) -> list[str]:
        return list(self._flat())

    def __iter__(self):
        return iter(self._flat())

    def __len__(self):
        if self._strings is None:
            return prod(map(len, self._segs))
        return len(self._strings)

    def joined(self, sep: str) -> Optional[str]:
        """The outputs' strings in string order, repeats kept, joined by
        `sep`: `sep.join(sorted(self.strings()))`, or None when there is
        no output.  A factored product, whose lists but the last are all
        `apart`, is already in string order: two of its outputs first
        differ inside one list's entries, which nothing after them can
        overturn.  It is written straight from the lists
        (`_product_text`); any other result is sorted."""
        strings = self._strings
        if strings is None:
            return _product_text(self._segs, sep)
        if len(strings) == 1:
            return strings[0]
        return sep.join(sorted(strings)) if strings else None

    def least(self) -> Optional[str]:
        """The least of the outputs' strings, or None when there is none:
        for a factored product, in string order (see `joined`), each
        list's first string, concatenated."""
        strings = self._strings
        if strings is None:
            return "".join([seg[0] for seg in self._segs])
        if len(strings) == 1:
            return strings[0]
        return min(strings) if strings else None


def transduce(m: Fst, s, limit: int = 64) -> TransduceResult:
    """All outputs for input `s`.  Infinite output sets (possible when the
    machine can loop emitting symbols while consuming nothing) are cut off
    after `limit` outputs in shortest-first order.

    The machine's input tables (`InputTables.read`) give the input's
    trimmed lattice, position by position, from steps cached on the left
    table's transitions.  When each step is one path, the output is one
    join of the steps' cached texts (`_Step.text`), and its glyph tuple is
    built only if `outputs` is read.  Otherwise the line is cut after each
    step whose arcs all enter one state, which every accepting path
    crosses, and the output set is one product of per-stretch output lists
    (`_segmented_outputs`): a run of single-path steps gives its text, and
    any other stretch a `_Segment` cached on the tables, built once from
    its output DFA (`_output_dfa`).  When some step is endless
    (`_Step.endless`), which no single-path step is, the output set is
    infinite and the shortest are enumerated from the output DFA of the
    whole line."""
    tables = m.input_tables()
    read = tables.read(s)
    if read is None:
        return TransduceResult([], False, [])
    trail, text = read
    if text is not None:
        return TransduceResult([text], False, None, trail)
    start = trail[0].live.index(m.initial)
    res = _segmented_outputs(tables, trail, start, m.table)
    if res is None:  # some step is endless
        return _shortest_outputs(trail, start, limit, m.table.glyph)
    return res


def _segmented_outputs(tables: InputTables, trail, start: int,
                       table: SymbolTable) -> Optional[TransduceResult]:
    """The finitely many outputs of a line with several accepting paths,
    whose trimmed lattice is `trail` and starts in its live state `start`:
    the product of one output list per stretch between cuts; None when
    some step is endless, so the outputs are infinitely many.

    A single-path step that starts a stretch is a stretch of its own (its
    one arc leaving means a cut after it), and a run of such steps makes
    one list: the join of their texts, alone.  Its glyph tuple is built
    from its steps only if `outputs` is read.  Any other stretch starts
    with a step of several paths and ends at the next cut; its list is its
    cached `_Segment`.  A list whose one output is empty is left out.
    When every list but the last is `apart`, so prefix-free as glyph
    tuples too, two outputs first differ inside one list's entries, so
    the product is in symbol-id order, and in string order by the lists'
    own order, without repeats, and the result keeps the lists, building
    neither strings nor tuples; otherwise it is deduplicated and sorted by
    ids."""
    lists = []
    runs = []  # the steps of each run in `lists`, in order
    run = ""  # the text of the open run
    # the open run or stretch starts at step lo, and `entry` is the live
    # state that the open stretch, or the next one, enters at
    lo, entry = 0, start
    several = False  # the open stretch has several paths
    knot = -1  # the first list that is not `apart`
    for p, st in enumerate(trail):
        if not several:
            text = st.text
            if text is not None:
                run += text
                entry = st.exit
                continue
            if run:
                lists.append([run])
                runs.append(trail[lo:p])
                run = ""
            lo, several = p, True
        if st.exit >= 0:  # a cut after this step
            seg = tables.segment(trail, lo, p + 1, entry)
            if seg is None:
                return None
            if len(seg) > 1 or seg[0]:
                if knot < 0 and not seg.apart:
                    knot = len(lists)
                lists.append(seg)
            lo, entry, several = p + 1, st.exit, False
    if run:
        lists.append([run])
        runs.append(trail[lo:])
    if knot < 0 or knot == len(lists) - 1:
        return TransduceResult(None, False, None, runs, lists)
    id_of = table.id_of
    outputs = sorted(set(_product_tuples(lists, runs)), key=lambda o: [id_of(g) for g in o])
    return TransduceResult(["".join(o) for o in outputs], False, outputs)


def _product_tuples(lists, runs) -> list[tuple[str, ...]]:
    """The glyph tuples of the product of `_segmented_outputs`' lists, in
    the lists' symbol-id order: a `_Segment` gives its tuples, and each
    run in turn the glyphs along its steps in `runs`."""
    runs = iter(runs)
    return [tuple(chain.from_iterable(t)) for t in product(*[
        [_glyphs_of(next(runs))] if type(seg) is list else seg.tuples for seg in lists])]


# What one head of `_product_text` costs, in tails.  A least-squares fit
# of its time at every split of four list sets (ambiguous.fsr lines of
# 256, 1 024 and 4 096 outputs, and eight lists of 2 and 3 strings) gave
# 0.15 us a head and 0.08 us a tail, CPython 3.11 on a 2-vCPU Xeon.  Over
# those sets and 30 random ones, 2, 3 and 4 picked splits of the same
# total time, and 1 was 6 % slower.
HEAD_COST = 2


def _product_text(lists: list[list[str]], sep: str) -> str:
    """`sep.join(map("".join, product(*lists)))` in O(sqrt(N)) Python steps
    for N outputs.  The first lists give the heads, the rest the tails;
    each part's strings are built once, and each head writes its run of
    the line in one join over the tails.  H heads cost about
    HEAD_COST * H + N / H tails, least at H = sqrt(N / HEAD_COST) and
    convex in H, so a list joins the heads, making H' of them, while that
    does not raise the cost: while HEAD_COST * H * H' <= N."""
    n = prod(map(len, lists))
    k, heads = 0, 1
    while k < len(lists) and HEAD_COST * heads * heads * len(lists[k]) <= n:
        heads *= len(lists[k])
        k += 1
    tails = list(map("".join, product(*lists[k:])))
    return sep.join([h + (sep + h).join(tails) for h in map("".join, product(*lists[:k]))])


def _glyphs_of(steps) -> tuple[str, ...]:
    """The output glyphs along single-path steps, in order."""
    return tuple(chain.from_iterable(st.out for st in steps))


def _output_dfa(trail, lo: int, hi: int, entry: int):
    """The output DFA of steps lo..hi - 1 of a trimmed lattice, from live
    state `entry` of position lo to the state every arc leaving step
    hi - 1 enters.  Returns (dadj, dfinals): dadj[q] lists (symbol, next
    state) in ascending symbol order, state 0 is the start, and `dfinals`
    holds the final states.  The DFA has a cycle iff some step of the
    range is endless.

    The lattice states of position p are base[p] + k, and the range's
    exit is the last state.  Every lattice state lies on an accepting
    path, so every DFA state reaches a final one and nothing needs
    trimming."""
    base = [0]
    for st in trail[lo:hi]:
        base.append(base[-1] + len(st.live))
    last = base[-1]
    # the arcs, split into silent successors (output EPS) and writing
    # arcs (o, d)
    silent: list[list[int]] = [[] for _ in range(last + 1)]
    writes: list[list[tuple[int, int]]] = [[] for _ in range(last + 1)]
    for p in range(lo, hi):
        st = trail[p]
        here = base[p - lo]
        # every arc leaving the range enters its exit, numbered `last`
        ahead = base[p - lo + 1] if p + 1 < hi else last - st.exit
        for k, o, d, same in st.arcs:
            d += here if same else ahead
            if o == EPS:
                silent[here + k].append(d)
            else:
                writes[here + k].append((o, d))

    # determinize the output automaton so each path is a distinct string
    def moves(subset):
        by_sym: dict[int, set[int]] = {}
        for v in subset:
            for o, d in writes[v]:
                by_sym.setdefault(o, set()).add(d)
        for o in sorted(by_sym):
            yield o, o, frozenset(_reach(by_sym[o], silent))

    keys, arcs = _explore(frozenset(_reach([entry], silent)), moves)
    dadj: list[list[tuple[int, int]]] = [[] for _ in keys]
    for src, o, _, d in arcs:
        dadj[src].append((o, d))
    dfinals = {q for q, subset in enumerate(keys) if last in subset}
    return dadj, dfinals


def _shortest_outputs(trail, start: int, limit: int, glyph) -> TransduceResult:
    """The `limit` shortest outputs of a whole line whose output set is
    infinite, found in its output DFA shortest first (ties in symbol-id
    order) and returned sorted by symbol id.  The DFA is deterministic, so
    each path spells a distinct output."""
    dadj, dfinals = _output_dfa(trail, 0, len(trail), start)
    heap = [(0, (), 0)]
    results = []
    while heap and len(results) < limit:
        length, prefix, v = heapq.heappop(heap)
        if v in dfinals:
            results.append(prefix)
        for o, d in dadj[v]:
            heapq.heappush(heap, (length + 1, prefix + (o,), d))
    outputs = [tuple(glyph(o) for o in out) for out in sorted(results)]
    return TransduceResult(["".join(o) for o in outputs], True, outputs)


def _acyclic_outputs(dadj, dfinals, glyph) -> list[tuple[str, ...]]:
    """Every output of an acyclic output DFA rooted at state 0, as glyph
    tuples sorted by symbol id: one depth-first walk with one shared path,
    without recursion.  Arcs are in ascending label order and the DFA is
    deterministic, so the walk visits the trie of the outputs once, in
    order and without repeats.  The DFA is built from a trimmed lattice,
    so every state reaches a final one and each trie node is a prefix of
    some output.

    A chain, the single arcs from a state up to the first state that is
    final or has other than one arc, is copied onto the path in one
    step: `chains[v]` is (glyphs, k, end) when the chain from v spells
    glyphs[k:] and stops at `end`.  Each state's chain is followed once,
    and a chain that runs into a known one copies that one's rest, so the
    walk costs about the outputs' total length, copied at C speed."""
    chains: dict[int, tuple[list[str], int, int]] = {}
    outputs = []
    path: list[str] = []
    todo = [(0, 0, None)]
    while todo:
        v, depth, g = todo.pop()
        del path[depth:]
        if g is not None:
            path.append(g)
        chain = chains.get(v)
        if chain is None:
            run, glyphs = [], []
            u = v
            while u not in chains and u not in dfinals and len(dadj[u]) == 1:
                ((o, d),) = dadj[u]
                run.append(u)
                glyphs.append(glyph(o))
                u = d
            if u in chains:
                rest, k, u = chains[u]
                glyphs += rest[k:]
            for k, w in enumerate(run):
                chains[w] = (glyphs, k, u)
            chain = chains[v] = (glyphs, 0, u)
        glyphs, k, v = chain
        path += glyphs[k:] if k else glyphs
        if v in dfinals:
            outputs.append(tuple(path))
        depth = len(path)
        for o, d in reversed(dadj[v]):
            todo.append((d, depth, glyph(o)))
    return outputs


def lang_enum(m: Fst, max_len: int) -> set[str]:
    """Accepted strings of a recognizer up to max_len symbols (joined glyph
    form): the inputs of `enumerate_pairs`, so the walk shares its
    ENUMERATE_PATH_CAP and raises FsmError past it.  A recognizer has no
    input-epsilon arcs, so no epsilon-cycle error can arise."""
    _require_recognizer(m, "lang_enum")
    return {"".join(ins) for ins, _ in enumerate_pairs(m, max_len)}


def enumerate_pairs(m: Fst, max_input_len: int):
    """All (input, output) glyph-tuple pairs with input length bounded.
    Requires the relation to be finite per input on that bound (no
    input-epsilon cycles); raises FsmError otherwise, and also once the walk
    takes more than ENUMERATE_PATH_CAP arcs."""
    glyph = m.table.glyph
    adj = m.adjacency()
    pairs: set[tuple[tuple[str, ...], tuple[str, ...]]] = set()
    steps = 0
    on_stack: set[tuple[int, int]] = set()

    stack = [(m.initial, 0, (), (), iter(adj[m.initial]))]
    on_stack.add((m.initial, 0))
    if m.initial in m.finals:
        pairs.add(((), ()))
    while stack:
        q, ilen, ins, outs, it = stack[-1]
        moved = False
        for i, o, d in it:
            nilen = ilen + (0 if i == EPS else 1)
            if nilen > max_input_len:
                continue
            key = (d, nilen)
            if i == EPS and key in on_stack:
                raise FsmError("input-epsilon cycle: relation not finite per input")
            steps += 1
            if steps > ENUMERATE_PATH_CAP:
                raise FsmError("path cap exceeded while enumerating pairs")
            nins = ins if i == EPS else ins + (glyph(i),)
            nouts = outs if o == EPS else outs + (glyph(o),)
            if d in m.finals:
                pairs.add((nins, nouts))
            stack.append((d, nilen, nins, nouts, iter(adj[d])))
            on_stack.add(key)
            moved = True
            break
        if not moved:
            stack.pop()
            on_stack.discard((q, ilen))
    return pairs


def equivalent(a: Fst, b: Fst) -> bool:
    """Language equality for recognizers.  For transductions this compares
    pair-sequence languages (pair-atomic), which is sufficient but not
    necessary for relation equality."""
    _check_tables(a, b)
    pair_mode = not (a.is_recognizer and b.is_recognizer)
    ca = minimize(a, pair_atomic=pair_mode)
    cb = minimize(b, pair_atomic=pair_mode)
    return ca.same_structure(cb)
