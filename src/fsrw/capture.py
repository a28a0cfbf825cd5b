"""Greedy multi-piece transduction (POSIX-style longest capture).

A sequence of transductions T1..Tn applied to one string: the string is
split into n pieces, piece i drawn from dom(Ti), with earlier pieces taking
the longest span that still lets the rest parse; each piece is then
rewritten by its own transduction.  The split is marked with lb1 cells,
wrong splits are removed from the marked language by difference, and the
pieces are transduced while the markers are consumed.

The killers that name the wrong splits are generated per n (one for each
piece but the last), since no single calculus expression covers all
lengths.  They read the marked tape a whole cell at a time, like the
replace factors: killer i's middle part is piece i's encoded domain
with lb1 cells inserted at its cell boundaries (`overrun`), where
Kaplan & Kay wedge the marker between raw symbols (the rule language's
predefined macro `ignx_1`).  The two differ only on strings that split
a cell, which no marking writes.

Where Kaplan & Kay compose the marking transducer B with the
complement of each killer K, this takes range(B) minus every K and
composes B with that once: restricting B's output to Sigma* - K is the
same as restricting it to range(B) - K, and composing with an identity
recognizer keeps B's alignment, so the pair language is the same, and no
killer is complemented over the full table.

Like `replace`, `lm_concat` folds over the symbol classes of its pieces
(`fsrw.classes`): the user symbols every piece only copies, on the same
arcs, share one representative while the boundaries, the killers and the
final composition are built, so lm3's and lm5's pieces over a-z and '#'
build their kit over three user symbols, consonants, vowels and '#'.  The
pieces are checked first, on their own table.
"""

from __future__ import annotations

from .classes import fold_over_classes
from .fsm import complement  # noqa: F401  patched by bench/spans.py
from .fsm import (
    Fst,
    FsmError,
    canonicalize,
    compose,
    concat,
    difference,
    project,
    reduce_pairs,
)
from .markers import MarkerKit, _op


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
    """One killer per piece except the last: killer i holds every marking
    where, keeping pieces 1..i-1 exactly as marked, piece i could extend
    further (its boundary falls strictly inside a longer dom-instance) and
    the remaining pieces still parse with markers ignored.  A single piece
    needs none.  The killers are recognizers over the marked alphabet; the
    filters of Kaplan & Kay are their complements."""
    images = [kit.non_markers_of(d) for d in domains]
    # the marker-ignoring closures of pieces 2..n, the only ones a filter reads
    ign_tail = [kit.ign(img, kit.lb1) for img in images[1:]]
    killers = []
    front: list[Fst] = []
    for i in range(len(domains) - 1):
        killers.append(concat(*front, overrun(kit, images[i]), *ign_tail[i:]))
        front.extend([images[i], kit.lb1])
    return killers


@_op
def overrun(kit: MarkerKit, image: Fst) -> Fst:
    """The strings of `image`, an encoded domain, with at least one lb1
    cell inserted and none at the end: a boundary that falls strictly
    inside a longer instance.  `image` holds no lb1 cell, so these are
    its `ignx` on lb1 minus `image` itself.  Kept in the store, keyed by
    the image, so a warm filter is one lookup."""
    return difference(kit.ignx(image, kit.lb1), image)


def mark_boundaries(kit: MarkerKit, domains: list[Fst]) -> Fst:
    """The marking transducer B of `boundaries` with its output restricted
    to the greedy splits: range(B) minus every killer, each removed by one
    `difference` with the killer's subset machine, then composed into B
    once.  B maps only into range(B), so range(B) - K restricts it as
    Sigma* - K does, and the reduced machine is that of B composed with
    the complement of each killer in turn."""
    marks = boundaries(kit, domains)
    killers = greed_filters(kit, domains)
    if not killers:
        return marks
    greedy = project(marks, "range")
    for killer in killers:
        greedy = difference(greedy, killer)
    return reduce_pairs(compose(marks, greedy))


def lm_concat(ts: list[Fst]) -> Fst:
    """Compile the piece transductions into one machine from plain strings
    to plain strings, folded over the symbol classes of the pieces
    (`fsrw.classes`), with the marker kit of the folded table
    (`MarkerKit.of`), which draws the constants from the store of the
    table's shape.  It freezes the pieces' table."""
    if not ts:
        raise FsmError("need at least one piece")
    table = ts[0].table
    for t in ts[1:]:
        if t.table is not table:
            raise FsmError("pieces built against different symbol tables")
    for k, t in enumerate(ts):
        if canonicalize(t).is_empty():
            raise FsmError("piece %d has an empty domain" % (k + 1))
    return fold_over_classes(ts, _split_and_rewrite)


def _split_and_rewrite(*ts: Fst) -> Fst:
    kit = MarkerKit.of(ts[0].table)
    domains = [project(t, "domain") for t in ts]
    eat = kit.cross(kit.lb1, None)
    parts = []
    for t in ts:
        parts.append(compose(kit.decoder, t))
        parts.append(eat)
    return reduce_pairs(compose(mark_boundaries(kit, domains), concat(*parts)))
