"""Greedy multi-piece transduction (POSIX-style longest capture).

A sequence of transductions T1..Tn applied to one string: the string is
split into n pieces, piece i drawn from dom(Ti), with earlier pieces taking
the longest span that still lets the rest parse; each piece is then
rewritten by its own transduction.  The split is marked with lb1 cells,
wrong splits are filtered out, and the pieces are transduced while the
markers are consumed.

The filter set is generated per n (one filter for each piece but the last),
since no single calculus expression covers all lengths.
"""

from __future__ import annotations

from .fsm import (
    Fst,
    FsmError,
    complement,
    compose,
    concat,
    project,
    reduce_pairs,
)
from .markers import MarkerKit
from .replace import compose_cascade


def boundaries(kit: MarkerKit, domains: list[Fst]) -> Fst:
    """Encode a string in D1...Dn, inserting an lb1 cell after every piece
    (the last one included).  Nondeterministic over all valid splits."""
    ins = kit.cross(None, kit.lb1)
    parts = []
    for d in domains:
        parts.append(compose(d, kit.non_markers))
        parts.append(ins)
    return concat(*parts)


def greed_filters(kit: MarkerKit, domains: list[Fst]) -> list[Fst]:
    """One filter per piece except the last.  Filter i kills any marking
    where, keeping pieces 1..i-1 exactly as marked, piece i could extend
    further (its boundary falls strictly inside a longer dom-instance) and
    the remaining pieces still parse with markers ignored.  A single piece
    needs no filter."""
    images = [kit.non_markers_of(d) for d in domains]
    # the marker-ignoring closures of pieces 2..n, the only ones a filter reads
    ign_tail = [kit.ign(img, kit.lb1) for img in images[1:]]
    filters = []
    front: list[Fst] = []
    for i in range(len(domains) - 1):
        killer = concat(*front, kit.ignx_1(images[i], kit.lb1), *ign_tail[i:])
        filters.append(complement(killer))
        front.extend([images[i], kit.lb1])
    return filters


def mark_boundaries(kit: MarkerKit, domains: list[Fst]) -> Fst:
    return compose_cascade([boundaries(kit, domains),
                            *greed_filters(kit, domains)])


def lm_concat(ts: list[Fst]) -> Fst:
    """Compile the piece transductions into one machine from plain strings
    to plain strings, with a marker kit of its own, which draws the
    constants from the cache of the table's shape."""
    if not ts:
        raise FsmError("need at least one piece")
    table = ts[0].table
    for t in ts[1:]:
        if t.table is not table:
            raise FsmError("pieces built against different symbol tables")
    kit = MarkerKit(table)
    domains = [project(t, "domain") for t in ts]
    for k, d in enumerate(domains):
        if d.is_empty():
            raise FsmError("piece %d has an empty domain" % (k + 1))
    eat = kit.cross(kit.lb1, None)
    parts = []
    for t in ts:
        parts.append(compose(kit.decoder, t))
        parts.append(eat)
    return reduce_pairs(compose(mark_boundaries(kit, domains), concat(*parts)))
