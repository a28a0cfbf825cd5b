"""Constructions folded over symbol classes.

Every arc that copies a symbol is repeated once per user symbol, in every
marker factor and greed filter, so `replace` and `lm_concat` run their
construction over a smaller table, one representative standing for each
class of user symbols that the construction cannot tell apart (after van
Noord & Gerdemann, *Finite State Transducers with Predicates and
Identities*, 2001).

A class is a set of user symbols (ids past the six marker glyphs) that
each piece only copies, on the same arcs of its reduced form: an arc
(s, c, c, d) of one member has its twin (s, c', c', d) for every other
member, and no member lies on an arc that is no copy.  The symbols that
no piece mentions are the class with no arcs.  A symbol on any other arc
stays on its own.  Swapping two members then maps every piece onto
itself, and no marker factor, greed filter or fold step tells user
symbols apart or maps one onto another, so each machine of the
construction over the small table, with each representative's arc read
as one arc per member, is that machine over the whole table.  The
construction's result is expanded that way and numbered canonically on
the pieces' table.

The construction ends in `reduce_pairs`, whose minimal deterministic
machine is numbered by its pair language alone, so the result is
byte-identical to the construction over the whole table.  Past
`REDUCE_STATE_CAP` the reduction returns its input, which is expanded
all the same: it has the relation of the construction over the whole
table, but its arcs depend on how it was built.

Finding the classes must stay cheaper than the fold saves.  One pass over
the pieces' arcs notes, for each user symbol, the states it is copied
from; only when two symbols that some piece copies are copied from the
same states are the pieces reduced (`reduce_pairs`) and the classes read
off the arcs.  Otherwise the only class is that of the unmentioned
symbols, and nothing is reduced.
"""

from __future__ import annotations

from itertools import product
from operator import itemgetter
from typing import Callable, Sequence

from .fsm import EPS, Fst, SymbolTable, _finish, reduce_pairs


def _copy_groups(pieces: Sequence[Fst], candidates, key) -> dict[frozenset, list[int]]:
    """The symbols of `candidates` that lie on no arc but a copy, in id order,
    grouped by the (piece, `key(arc)`) pairs of their copy arcs: the key
    of the unmentioned ones is empty."""
    found: dict[int, list] = {c: [] for c in candidates}
    other = set()
    for k, p in enumerate(pieces):
        for arc in p.arcs:
            i, o = arc[1], arc[2]
            if i != o:
                other.add(i)
                other.add(o)
            elif i in found:
                found[i].append((k, key(arc)))
    groups: dict[frozenset, list[int]] = {}
    for c, keys in found.items():
        if c not in other:
            groups.setdefault(frozenset(keys), []).append(c)
    return groups


def fold_over_classes(pieces: Sequence[Fst], build: Callable[..., Fst]) -> Fst:
    """`build(*pieces)`, built over one representative of each symbol
    class of the pieces and expanded onto their table (see the module
    docstring).  Reading the whole user alphabet freezes the table, as a
    marker kit on it would."""
    table = pieces[0].table
    table.freeze()
    candidates = [c for c in table.user_ids() if c >= len(SymbolTable.RESERVED)]
    folded = pieces
    groups = _copy_groups(pieces, candidates, itemgetter(0))
    if any(key and len(g) > 1 for key, g in groups.items()):
        folded = [reduce_pairs(p) for p in pieces]
        groups = _copy_groups(folded, candidates, itemgetter(0, 3))
    classes = [g for g in groups.values() if len(g) > 1]
    if not classes:
        return build(*pieces)
    # the table without the members past each class's first, which
    # stands for them all; ids keep their order
    rep = {c: g[0] for g in classes for c in g}
    kept = [sid for sid in table.all_ids() if rep.get(sid, sid) == sid]
    small, users = SymbolTable(), set(table.user_ids())
    for sid in kept:
        (small.add_user if sid in users else small.intern)(table.glyph(sid))
    ids = {sid: k for k, sid in enumerate(kept)}
    down = {sid: ids[rep.get(sid, sid)] for sid in table.all_ids()}
    down[EPS] = EPS
    m = build(*(Fst(small, p.n, p.initial, p.finals,
                    tuple(sorted({(s, down[i], down[o], d) for s, i, o, d in p.arcs})),
                    p.is_recognizer) for p in folded))
    up = {ids[sid]: [sid] for sid in kept}
    up.update((ids[g[0]], g) for g in classes)
    up[EPS] = [EPS]
    arcs = [(s, x, y, d) for s, i, o, d in m.arcs
            for x, y in (zip(up[i], up[o]) if i == o else product(up[i], up[o]))]
    return _finish(table, m.n, m.initial, m.finals, arcs)
