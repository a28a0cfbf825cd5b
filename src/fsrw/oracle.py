"""Brute-force reference semantics for testing.

Everything here recomputes behavior directly from definitions: string
enumeration plus NFA walks over machine graphs.  Compiled machines are read
only through their arcs: membership is a subset walk over one side of them,
and a transduction's outputs come from this module's own path walk
(`_Walker.outputs`).  Nothing else from the library is reused, neither the
composition algebra nor `transduce` nor the marker code, so the referee
never runs the code it judges.

The two referees are objects built once per rule, and both keep their
answers across strings, keyed by the suffix still to read (`_SuffixMemo`).
`Oracle`, for replace, has three walkers, over dom(T) and the two
contexts, which intern the subsets they meet and memoize the moves between
them; it memoizes its scan results by suffix and T's outputs by span.
`SplitOracle`, for the greedy split of lm_concat, has one walker per
piece; it memoizes each piece's matches and the split by (piece, suffix),
and each piece's outputs by span.  `oracle_replace`, `oracle_lm_split` and
`oracle_lm_concat` answer through the object of their previous call when
they get the same machines again.
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


class _SuffixMemo:
    """Answers kept across strings, keyed by the suffix still to read.

    Suffixes are interned right to left: suffix 0 is the empty one, and
    suffix k is the symbol head[k] followed by suffix tail[k], keyed by its
    glyph and tail, so memory stays linear in the input read.  Past
    ORACLE_MEMO_CAP entries, as `size` counts them, the memo starts afresh
    after the current string, whether its answer was found or raised."""

    def _reset(self):
        self.suffix_ids: dict[tuple[str, int], int] = {}
        self.head: list[int] = [EPS]
        self.tail: list[int] = [0]

    def _answer(self, s, answer):
        """`answer(sid)` for the suffix sid that is all of `s`, a str (one
        symbol per character) or a sequence of glyphs."""
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
            return answer(sid)
        finally:
            if self.size() > ORACLE_MEMO_CAP:
                self._reset()

    def _symbols(self, sid: int):
        """The symbols of suffix sid, in order."""
        head, tail = self.head, self.tail
        while sid:
            yield head[sid]
            sid = tail[sid]


class Oracle(_SuffixMemo):
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
    string the oracle is given.  Outputs are interned right to left like
    suffixes, and the text of each output returned is kept with its id.
    T's outputs are memoized by the span they are read from, so each
    distinct span is walked once.

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
        self._reset()

    def _reset(self):
        super()._reset()
        self.right_ok: dict[int, bool] = {}
        self.matches: dict[int, tuple[int, int]] = {}
        self.spans: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        self.out_ids: dict[tuple[int, int], int] = {}
        self.out_head: list[int] = [EPS]
        self.out_tail: list[int] = [0]
        self.texts: dict[int, str] = {0: ""}
        self.memo: dict[tuple[int, int, bool], tuple[int, ...]] = {}

    def size(self) -> int:
        """Entries held for the inputs read so far."""
        return len(self.head) + len(self.out_head) + len(self.memo)

    def replace(self, s) -> set[str]:
        """The outputs for input `s`, a str (one symbol per character) or a
        sequence of glyphs."""
        return self._answer(s, self._replace)

    def _replace(self, sid: int) -> set[str]:
        return {self._text(o) for o in self._scan((sid, 0, False))}

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
                        for w in (y + (sym,) for y in self._span(0, 0))]
            return [((sym,), (self.tail[sid], self.left.move(lk, sym), False))]
        if self._eps_may_fire(sid, lk, just_replaced):
            return [(y, None) for y in self._span(0, 0)]
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
        span = tuple(itertools.islice(self._symbols(sid), length))
        got = self.spans.get(span)
        if got is None:
            got = self.spans[span] = self.dom.outputs(span)
        return got

    # -- outputs ----------------------------------------------------------

    def _cons(self, sym: int, rest: int) -> int:
        key = (sym, rest)
        got = self.out_ids.get(key)
        if got is None:
            got = self.out_ids[key] = len(self.out_head)
            self.out_head.append(sym)
            self.out_tail.append(rest)
        return got

    def _text(self, o: int) -> str:
        """The glyphs of output o.  A new output's glyphs are joined only
        up to the first output whose text is kept; keeping just the texts
        returned keeps memory linear in a long line's outputs."""
        texts = self.texts
        got = texts.get(o)
        if got is None:
            glyph, parts, p = self.table.glyph, [], o
            while p not in texts:
                parts.append(glyph(self.out_head[p]))
                p = self.out_tail[p]
            got = texts[o] = "".join(parts) + texts[p]
        return got


class SplitOracle(_SuffixMemo):
    """Reference semantics of the greedy split of `lm_concat(pieces)`,
    built once and queried with `split(s)` and `concat(s)`.

    The split cuts the input into len(pieces) spans, span k drawn from the
    input language of pieces[k]; earlier pieces take the longest length
    that still lets the rest parse.  Piece k's matches on a suffix, its
    prefixes in that language, are memoized by (k, suffix), and so is the
    greedy split of a suffix over pieces k, k+1, ..., for every string the
    oracle is given: a new string costs only its new suffixes.  `concat`
    runs each piece's transduction on its span, memoized by (k, span), and
    concatenates all combinations; an infinite output set on a span raises
    FsmError."""

    def __init__(self, pieces: Sequence[Fst]):
        pieces = tuple(pieces)
        if not pieces:
            raise FsmError("need at least one piece")
        table = pieces[0].table
        if any(p.table is not table for p in pieces):
            raise FsmError("pieces built against different symbol tables")
        self.pieces, self.table = pieces, table
        self.walkers = [_Walker(p) for p in pieces]
        self._reset()

    def _reset(self):
        super()._reset()
        self.ends: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self.splits: dict[tuple[int, int], Optional[tuple[int, ...]]] = {}
        self.outputs: dict[tuple[int, tuple[int, ...]], list[str]] = {}

    def size(self) -> int:
        """Entries held for the inputs read so far."""
        return len(self.head) + len(self.ends) + len(self.splits) + len(self.outputs)

    def split(self, s) -> Optional[list[int]]:
        """The cut positions of the greedy split of `s` (one per piece, the
        last equal to len(s)), or None when no split exists."""
        return self._answer(s, self._cuts)

    def concat(self, s) -> set[str]:
        """The outputs for input `s`; none when no split exists."""
        return self._answer(s, self._concat)

    def _cuts(self, sid: int) -> Optional[list[int]]:
        lengths = self._split(0, sid)
        return None if lengths is None else list(itertools.accumulate(lengths))

    def _concat(self, sid: int) -> set[str]:
        cuts = self._cuts(sid)
        if cuts is None:
            return set()
        ids = tuple(self._symbols(sid))
        per_piece = [self._outputs(k, ids[a:b])
                     for k, (a, b) in enumerate(zip([0] + cuts, cuts))]
        return {"".join(combo) for combo in itertools.product(*per_piece)}

    def _split(self, k: int, sid: int) -> Optional[tuple[int, ...]]:
        """The lengths of the spans of pieces k, k+1, ... in the greedy
        split of suffix sid, or None when it has none."""
        if k == len(self.walkers):
            return () if sid == 0 else None
        key = (k, sid)
        if key not in self.splits:
            got = None
            for length, after in reversed(self._ends(k, sid)):
                rest = self._split(k + 1, after)
                if rest is not None:
                    got = (length,) + rest
                    break
            self.splits[key] = got
        return self.splits[key]

    def _ends(self, k: int, sid: int) -> list[tuple[int, int]]:
        """(length, suffix after it) for each prefix of suffix sid in the
        input language of piece k, shortest first."""
        got = self.ends.get((k, sid))
        if got is None:
            walker, tail, after = self.walkers[k], self.tail, sid
            got = []
            for length, q in enumerate(walker.walk(self._symbols(sid))):
                if walker.final[q]:
                    got.append((length, after))
                after = tail[after]
            self.ends[k, sid] = got
        return got

    def _outputs(self, k: int, span: tuple[int, ...]) -> list[str]:
        """Piece k's outputs on `span`, as strings."""
        got = self.outputs.get((k, span))
        if got is None:
            glyph = self.table.glyph
            got = self.outputs[k, span] = ["".join(map(glyph, o))
                                           for o in self.walkers[k].outputs(span)]
        return got


_last_oracle: Optional[Oracle] = None
_last_split: Optional[SplitOracle] = None


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


def _split_oracle(pieces: Sequence[Fst]) -> SplitOracle:
    """The previous call's SplitOracle when it was built from the same
    piece objects, else a new one."""
    global _last_split
    o = _last_split
    if (o is None or len(o.pieces) != len(pieces)
            or any(a is not b for a, b in zip(o.pieces, pieces))):
        o = _last_split = SplitOracle(pieces)
    return o


def oracle_language(m: Fst, max_len: int) -> set[str]:
    """Accepted strings up to max_len symbols, by trying every string over
    the whole symbol table."""
    table = m.table
    glyphs = [table.glyph(i) for i in table.all_ids()]
    walker = _Walker(m)
    out: set[str] = set()
    for length in range(max_len + 1):
        for combo in itertools.product(glyphs, repeat=length):
            if walker.accepts(_ids_of(table, combo)):
                out.add("".join(combo))
    return out


def oracle_lm_split(s, parts: Sequence[Fst]) -> Optional[list[int]]:
    """`SplitOracle(parts).split(s)`: the greedy split of `s` into
    len(parts) pieces, piece k drawn from the input language of parts[k],
    as cut positions (the last equal to len(s)), or None when no split
    exists.  Reuses the previous call's SplitOracle, as oracle_replace
    does."""
    return _split_oracle(parts).split(s)


def oracle_lm_concat(ts: Sequence[Fst], s) -> set[str]:
    """`SplitOracle(ts).concat(s)`: split `s` per oracle_lm_split over the
    pieces' input languages, then run each piece's transduction on its
    span and concatenate all combinations.  An infinite output set on a
    span raises FsmError.  Reuses the previous call's SplitOracle, as
    oracle_replace does."""
    return _split_oracle(ts).concat(s)
