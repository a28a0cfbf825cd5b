"""Brute-force reference semantics for testing.

Everything here recomputes behavior directly from definitions: string
enumeration plus NFA walks over machine graphs.  Compiled machines are read
only through their arcs: membership is a subset walk over one side of them,
and a transduction's outputs come from this module's own path walk
(`_Walker.outputs`).  Nothing else from the library is reused, neither the
composition algebra nor `transduce` nor the marker code, so the referee
never runs the code it judges.

The replace oracle is an object, `Oracle`, built once per rule: its three
walkers, over dom(T) and the two contexts, intern the subsets they meet and
memoize the moves between them, and its scan results are kept across
strings, keyed by the suffix still to read.
`oracle_replace` answers through the `Oracle` of its previous call when it
gets the same rule again.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .fsm import EPS, Fst, FsmError

# Once an Oracle's input-keyed memo (suffixes, outputs and scan results)
# holds more than this many entries, it is started afresh after the current
# string, so checking endless input runs in bounded memory.
ORACLE_MEMO_CAP = 1 << 16

def _ids_of(table, s) -> list[int]:
    return [table.id_of(g) for g in s]


def _close(states, succ, within=None) -> set[int]:
    """`states` and every state reachable from them through the successor
    lists `succ`, keeping to the set `within` when one is given."""
    seen = set(states)
    stack = list(seen)
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen and (within is None or w in within):
                seen.add(w)
                stack.append(w)
    return seen


class _Walker:
    """NFA walk over the input side of a machine's arcs.

    The subsets of states it meets are closed under input-epsilon arcs and
    numbered in the order they are met, subset 0 being the start; the moves
    between them are memoized, and a move to the empty subset is -1.

    With `anywhere`, every subset also holds the start, so a match may begin
    at any position: the walk is the subset machine of `?* m`, and a subset
    is final when some suffix of what was read is accepted.  Its moves are
    never -1."""

    def __init__(self, m: Fst, anywhere: bool = False):
        self.m = m
        self.restart = (m.initial,) if anywhere else ()
        self.adj: list[list[tuple[int, int, int]]] = [[] for _ in range(m.n)]
        self.succ: list[dict[int, list[int]]] = [{} for _ in range(m.n)]
        self.eps: list[list[int]] = [[] for _ in range(m.n)]
        self.eps_back: list[list[int]] = [[] for _ in range(m.n)]
        for s, i, o, d in m.arcs:
            self.adj[s].append((i, o, d))
            if i == EPS:
                self.eps[s].append(d)
                self.eps_back[d].append(s)
            else:
                self.succ[s].setdefault(i, []).append(d)
        self.sets: list[frozenset] = []
        self.final: list[bool] = []
        self.moves: list[dict[int, int]] = []
        self.ids: dict[frozenset, int] = {}
        self._intern([m.initial])

    def _intern(self, states) -> int:
        subset = frozenset(_close(states, self.eps))
        k = self.ids.get(subset)
        if k is None:
            k = self.ids[subset] = len(self.sets)
            self.sets.append(subset)
            self.final.append(not self.m.finals.isdisjoint(subset))
            self.moves.append({})
        return k

    def move(self, k: int, sym: int) -> int:
        """The subset that reading `sym` leads to from subset k."""
        to = self.moves[k].get(sym)
        if to is None:
            reached = set(self.restart)
            for q in self.sets[k]:
                reached.update(self.succ[q].get(sym, ()))
            to = self._intern(reached) if reached else -1
            self.moves[k][sym] = to
        return to

    def walk(self, syms, k: int = 0):
        """The subset after each prefix of `syms` read from subset k, the
        empty prefix first, up to the last prefix that reaches a state."""
        yield k
        for sym in syms:
            k = self.move(k, sym)
            if k < 0:
                return
            yield k

    def accepts(self, ids: Sequence[int]) -> bool:
        walk = list(self.walk(ids))
        return len(walk) > len(ids) and self.final[walk[-1]]

    def match_ends(self, ids: Sequence[int], start: int) -> list[int]:
        """All q >= start with ids[start:q] accepted."""
        return [start + p for p, k in enumerate(self.walk(ids[start:]))
                if self.final[k]]

    def outputs(self, ids: Sequence[int]) -> list[tuple[int, ...]]:
        """Every output of an accepting path that reads `ids` on the input
        side, as id tuples.  Raises FsmError when there are infinitely many.

        The walk keeps (state, output so far) pairs over the lattice's live
        states, those on an accepting path.  Each arc writes at most one
        symbol, so an output longer than the lattice has live states passed
        some live state twice while writing: a cycle that writes something,
        which makes the set infinite."""
        walk = list(self.walk(ids))
        n = len(ids)
        if len(walk) <= n:
            return []
        live: list[set[int]] = []  # filled from position n down, then reversed
        for p in range(n, -1, -1):
            here = self.sets[walk[p]]
            if p == n:
                seen = here & self.m.finals
            else:
                ahead = live[-1]
                seen = {q for q in here
                        if not ahead.isdisjoint(self.succ[q].get(ids[p], ()))}
            live.append(_close(seen, self.eps_back, here))
        live.reverse()
        if self.m.initial not in live[0]:
            return []
        bound = sum(map(len, live))
        confs = {(self.m.initial, ())}
        for p in range(n + 1):
            stack = list(confs)
            while stack:
                q, out = stack.pop()
                for i, o, d in self.adj[q]:
                    if i == EPS and d in live[p]:
                        c = (d, out if o == EPS else out + (o,))
                        if c not in confs:
                            if len(c[1]) > bound:
                                raise FsmError("oracle needs a transduction "
                                               "with finite output sets")
                            confs.add(c)
                            stack.append(c)
            if p == n:
                break
            sym, ahead = ids[p], live[p + 1]
            confs = {(d, out if o == EPS else out + (o,))
                     for q, out in confs for i, o, d in self.adj[q]
                     if i == sym and d in ahead}
        return sorted({out for q, out in confs if q in self.m.finals})


class Oracle:
    """Reference semantics of obligatory leftmost-longest context rewriting
    `replace(t, left, right)`, built once and queried with `replace(s)`.

    The scan goes left to right.  At each position, if some nonempty prefix
    of the rest lies in dom(t) with the right context holding after it, the
    longest such prefix must be rewritten provided the left context holds on
    the rewritten prefix produced so far; otherwise one symbol is copied.  An
    empty-string match fires only where no nonempty match starts, never
    immediately after a replaced region, and both contexts must hold.  The
    left context reads the output tape (it may match across earlier
    rewrites); the right context reads the untouched input tape.

    The left context is a walker whose every subset also holds its start,
    so after the output written so far it is final when some suffix of that
    output lies in L(left).  What the scan does from position i depends only
    on the suffix still to read, that walker's subset and whether the last
    step replaced, so its results are memoized under that key for every
    string the oracle is given.  Suffixes are interned right to left
    (suffix 0 is the empty one, suffix k is the symbol head[k] followed by
    suffix tail[k], keyed by its glyph and tail) and outputs the same way,
    so memory stays linear in the input read.  Past ORACLE_MEMO_CAP entries
    the memo starts afresh after the current string, whether its scan ended
    or raised.

    T's outputs on a span are an exact set; an infinite one raises
    FsmError."""

    def __init__(self, t: Fst, left: Fst, right: Fst):
        table = t.table
        if left.table is not table or right.table is not table:
            raise FsmError("oracle operands built against different symbol tables")
        self.t, self.left_m, self.right_m = t, left, right
        self.table = table
        self.dom = _Walker(t)
        self.right = _Walker(right)
        self.left = _Walker(left, anywhere=True)
        self._eps_outputs: Optional[list[tuple[int, ...]]] = None
        self._reset()

    def _reset(self):
        self.suffix_ids: dict[tuple[str, int], int] = {}
        self.head: list[int] = [EPS]
        self.tail: list[int] = [0]
        self.right_ok: dict[int, bool] = {}
        self.matches: dict[int, tuple[int, int]] = {}
        self.spans: dict[int, list[tuple[int, ...]]] = {}
        self.out_ids: dict[tuple[int, int], int] = {}
        self.out_head: list[int] = [EPS]
        self.out_tail: list[int] = [0]
        self.memo: dict[tuple[int, int, bool], tuple[int, ...]] = {}

    def size(self) -> int:
        """Entries held for the inputs read so far."""
        return len(self.head) + len(self.out_head) + len(self.memo)

    def replace(self, s) -> set[str]:
        """The outputs for input `s`, a str (one symbol per character) or a
        sequence of glyphs."""
        try:
            sid = 0
            suffix_ids = self.suffix_ids
            for g in reversed(s):
                nxt = suffix_ids.get((g, sid))
                if nxt is None:
                    sym = self.table.id_of(g)
                    nxt = suffix_ids[g, sid] = len(self.head)
                    self.head.append(sym)
                    self.tail.append(sid)
                sid = nxt
            top = (sid, 0, False)
            outs = self.memo.get(top)
            if outs is None:
                outs = self._scan(top)
            return {self._string(o) for o in outs}
        finally:
            if self.size() > ORACLE_MEMO_CAP:
                self._reset()

    # -- the scan ---------------------------------------------------------

    def _scan(self, top) -> tuple[int, ...]:
        """The outputs from scan state `top`, children first on an explicit
        stack.  A child always has a shorter suffix, so there are no cycles."""
        memo = self.memo
        stack = [(top, None)]
        while stack:
            key, branches = stack.pop()
            if key in memo:
                continue
            if branches is None:
                branches = self._branches(key)
                todo = [(nxt, None) for _, nxt in branches
                        if nxt is not None and nxt not in memo]
                if todo:
                    stack.append((key, branches))
                    stack.extend(todo)
                    continue
            got = set()
            for written, nxt in branches:
                for o in ((0,) if nxt is None else memo[nxt]):
                    for sym in reversed(written):
                        o = self._cons(sym, o)
                    got.add(o)
            memo[key] = tuple(got)
        return memo[top]

    def _branches(self, key):
        """The ways the scan goes on from `key`, as (written, next key)
        pairs; a next key of None ends the string."""
        sid, lk, just_replaced = key
        if sid:
            length, after = self._match(sid)
            sym = self.head[sid]
            if length:
                if self.left.final[lk]:
                    return [(y, (after, self._write(lk, y), True))
                            for y in self._span(sid, length)]
            elif self._eps_may_fire(sid, lk, just_replaced):
                return [(w, (self.tail[sid], self._write(lk, w), False))
                        for w in (y + (sym,) for y in self._eps())]
            return [((sym,), (self.tail[sid], self.left.move(lk, sym), False))]
        if self._eps_may_fire(sid, lk, just_replaced):
            return [(y, None) for y in self._eps()]
        return [((), None)]

    def _write(self, lk: int, written) -> int:
        """The left context's subset after `written` follows subset lk."""
        *_, lk = self.left.walk(written, lk)
        return lk

    def _eps_may_fire(self, sid: int, lk: int, just_replaced: bool) -> bool:
        """Whether the empty string may be rewritten in front of suffix sid."""
        return (not just_replaced and self.dom.final[0] and self._right_ok(sid)
                and self.left.final[lk])

    # -- per-suffix facts -------------------------------------------------

    def _symbols(self, sid: int):
        """The symbols of suffix sid, in order."""
        head, tail = self.head, self.tail
        while sid:
            yield head[sid]
            sid = tail[sid]

    def _right_ok(self, sid: int) -> bool:
        """Whether the right context accepts some prefix of suffix sid."""
        got = self.right_ok.get(sid)
        if got is None:
            final = self.right.final
            got = self.right_ok[sid] = any(
                map(final.__getitem__, self.right.walk(self._symbols(sid))))
        return got

    def _match(self, sid: int) -> tuple[int, int]:
        """(length, after) of the longest nonempty prefix of suffix sid in
        dom(t) with the right context holding on the suffix `after` that
        follows it; (0, 0) when there is none."""
        got = self.matches.get(sid)
        if got is None:
            got = (0, 0)
            final, tail, after = self.dom.final, self.tail, sid
            walk = self.dom.walk(self._symbols(sid))
            next(walk)  # the empty prefix
            for length, k in enumerate(walk, 1):
                after = tail[after]
                if final[k] and self._right_ok(after):
                    got = (length, after)
            self.matches[sid] = got
        return got

    def _span(self, sid: int, length: int) -> list[tuple[int, ...]]:
        """T's outputs on the first `length` symbols of suffix sid."""
        got = self.spans.get(sid)
        if got is None:
            span = list(itertools.islice(self._symbols(sid), length))
            got = self.spans[sid] = self.dom.outputs(span)
        return got

    def _eps(self) -> list[tuple[int, ...]]:
        """T's outputs on the empty string."""
        if self._eps_outputs is None:
            self._eps_outputs = self.dom.outputs(())
        return self._eps_outputs

    # -- outputs ----------------------------------------------------------

    def _cons(self, sym: int, rest: int) -> int:
        key = (sym, rest)
        got = self.out_ids.get(key)
        if got is None:
            got = self.out_ids[key] = len(self.out_head)
            self.out_head.append(sym)
            self.out_tail.append(rest)
        return got

    def _string(self, o: int) -> str:
        glyph = self.table.glyph
        parts = []
        while o:
            parts.append(glyph(self.out_head[o]))
            o = self.out_tail[o]
        return "".join(parts)


_last_oracle: Optional[Oracle] = None


def oracle_replace(t: Fst, left: Fst, right: Fst, s) -> set[str]:
    """`Oracle(t, left, right).replace(s)`, reusing the previous call's
    Oracle when it was built from the same three machine objects, so a
    caller checking one rule on many strings builds it once.  Span
    outputs are exact, and an infinite set raises FsmError."""
    global _last_oracle
    o = _last_oracle
    if o is None or o.t is not t or o.left_m is not left or o.right_m is not right:
        o = _last_oracle = Oracle(t, left, right)
    return o.replace(s)


def oracle_language(m: Fst, max_len: int, alphabet: Optional[Sequence[str]] = None) -> set[str]:
    """Accepted strings up to max_len symbols, by trying every string over
    `alphabet` (default: the whole symbol table)."""
    table = m.table
    if alphabet is None:
        glyphs = [table.glyph(i) for i in table.all_ids()]
    else:
        glyphs = list(alphabet)
    walker = _Walker(m)
    out: set[str] = set()
    for length in range(max_len + 1):
        for combo in itertools.product(glyphs, repeat=length):
            if walker.accepts(_ids_of(table, combo)):
                out.add("".join(combo))
    return out


def oracle_lm_split(s, parts: Sequence[Fst]) -> Optional[list[int]]:
    """Greedy split of `s` into len(parts) pieces, piece k drawn from the
    input language of parts[k].  Earlier pieces take the longest length that
    still lets the rest parse.  Returns the cut positions (one per piece,
    the last equal to len(s)), or None when no split exists.
    """
    if not parts:
        raise FsmError("need at least one piece")
    table = parts[0].table
    for p in parts[1:]:
        if p.table is not table:
            raise FsmError("pieces built against different symbol tables")
    ids = _ids_of(table, s)
    n = len(ids)
    walkers = [_Walker(p) for p in parts]
    ends = [[w.match_ends(ids, i) for i in range(n + 1)] for w in walkers]
    dead: set[tuple[int, int]] = set()

    def go(i: int, k: int) -> Optional[list[int]]:
        if k == len(parts):
            return [] if i == n else None
        if (i, k) in dead:
            return None
        for q in reversed(ends[k][i]):
            rest = go(q, k + 1)
            if rest is not None:
                return [q] + rest
        dead.add((i, k))
        return None

    return go(0, 0)


def oracle_lm_concat(ts: Sequence[Fst], s) -> set[str]:
    """Outputs of greedy multi-piece transduction: split `s` per
    oracle_lm_split over the pieces' input languages, then run each piece's
    transduction on its slice and concatenate all combinations.  An
    infinite output set on a slice raises FsmError."""
    cuts = oracle_lm_split(s, ts)
    if cuts is None:
        return set()
    table = ts[0].table
    ids = _ids_of(table, s)
    glyph = table.glyph
    per_piece = []
    for t, a, b in zip(ts, [0] + cuts, cuts):
        per_piece.append(["".join(glyph(c) for c in o)
                          for o in _Walker(t).outputs(ids[a:b])])
    return {"".join(combo) for combo in itertools.product(*per_piece)}
