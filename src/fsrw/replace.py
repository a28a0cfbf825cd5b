"""Context rewrite rules compiled to transducers.

A rule rewrites each string x in dom(T) to T(x) when x is preceded by Left
and followed by Right, scanning left to right, longest match first,
obligatorily.  The compilation marks candidate regions with bracket cells,
filters the markings, applies T inside the surviving regions and strips the
encoding: nine transductions composed into one machine.

Step order fixes two semantic choices callers should know about: Right is
tested on the input tape (marking happens before any rewriting), while Left
is tested on the output tape, so a left context may match material produced
by an earlier replacement in the same pass.

Every arc that copies a symbol is repeated once per user symbol, so
`replace` folds a rule over the symbol classes of its pieces
(`fsrw.classes`): the user symbols that T, Left and Right each only copy,
on the same arcs, share one representative on a smaller table while the
nine factors are built and composed, and each arc of the result that
reads or writes a representative becomes one arc per member, on the
rule's table.  The symbols no piece mentions are one class.
`replace_factors` always builds the factors over the rule's table, the
ones `fsrw compile --cascade` writes.  Each factor is built reduced,
five of them as one scan that writes its markers (`_mark_iff`,
`_not_contains`, `_guard_before`) and the others by reducing what they
build, `left_to_right` around a scan of its own, as the kit's own
constructions do, so a rule's factors and its machine are each the
reduced form of their pair language.

`replace` folds the nine factors over five machines, one group per piece
(Mohri & Sproat, *An efficient compiler for weighted rewrite rules*, ACL
1996): the encoder with r_right, f_phi with left_to_right, longest_match,
aux_replace, and l1 with l2 and the decoder.  Each group of two or three
is composed, then reduced once, and kept in the marker store, keyed by
the factors it composes, so a rule whose pieces all repeat composes five
machines, not nine, and reduces once.  longest_match stays apart:
composed with the other two dom(T) factors it is larger than the three
of them and costs more to build than the fold saves.
"""

from __future__ import annotations

from typing import Optional

from .classes import fold_over_classes
from .fsm import (
    Fst,
    FsmError,
    _check_tables,
    compose,
    concat,
    difference,
    empty_string,
    intersection,
    invert,
    option,
    project,
    reduce_pairs,
    star,
    union,
)
from .markers import MarkerKit, _op, _whole


@_op
def r_right(kit: MarkerKit, right: Fst) -> Fst:
    """Insert an rb2 cell exactly before every position followed by a
    Right string; `right` is Right encoded into cells (`non_markers_of`).
    The scan reads Right as given, rb2 cells ignored after a string's
    first cell, as in the paper's `xign(Right, rb2)`: the rb2 written
    before a Right string does not start one itself.

    When the empty string is in Right every position qualifies, and each
    one is marked directly.  That branch is required: under the general
    scan `_mark_iff` the start of the tape is followed by a Right string
    too, and as no rb2 cell can stand before it, the scan would accept
    nothing."""
    if right.accepts_epsilon():
        ins = kit.cross(None, kit.rb2)
        return reduce_pairs(concat(star(concat(ins, kit.sig)), ins))
    return _mark_iff(kit, kit.rb2, right, kit.rb2)


@_op
def f_phi(kit: MarkerKit, phi: Fst) -> Fst:
    """Insert an lb2 cell exactly before every occurrence of phi, dom(T)
    encoded into cells, that ends at an rb2.  Inside the occurrence both
    marker kinds are ignored: the scan reads [phi, rb2] as given, lb2 and
    rb2 cells ignored after a string's first cell, where the paper builds
    `[xignx(phi, b2), lb2^, rb2]`; under the iff the two mark alike.

    When phi matches the empty string, every marked position demands an
    opener of its own, and the iff settles on exactly two stacked lb2
    cells per rb2: one more would need yet another in front of it, one
    fewer leaves the point before the pair unmatched.  The empty and the
    nonempty occurrence patterns must then be kept apart: the empty one
    absorbs at most one lb2 so the stack cannot grow, while the nonempty
    one must absorb whole stacks sitting between its last cell and its
    closing rb2, or no occurrence could end at a stacked position."""
    if not phi.accepts_epsilon():
        return _mark_iff(kit, kit.lb2, concat(phi, kit.rb2), kit.b2)
    nonempty = difference(phi, empty_string(kit.table))
    pattern = union(
        concat(option(kit.lb2), kit.rb2),
        concat(kit.xignx(nonempty, kit.b2), star(kit.lb2), kit.rb2))
    return _mark_iff(kit, kit.lb2, pattern)


@_op
def left_to_right(kit: MarkerKit, phi: Fst) -> Fst:
    """Nondeterministically retype some lb2 ... rb2 candidate regions to
    lb1 ... rb1, deleting lb2 cells inside a chosen region (they have done
    their job); everything between regions passes through unchanged.  A
    region's content is phi, dom(T) encoded into cells, with b2 cells
    anywhere: one forward scan over phi that ignores the b2 cells, deletes
    the lb2 ones and asks for phi at the end of the region (`_whole`),
    the paper's `ign(phi, b2)` composed with `strip(lb2)`."""
    content = kit._scan(phi, kit.lb2, False, _whole, "delete", kit.b2)
    region = concat(kit.cross(kit.lb2, kit.lb1), content,
                    kit.cross(kit.rb2, kit.rb1))
    return reduce_pairs(concat(star(concat(kit.xsig_star, region)), kit.xsig_star))


@_op
def longest_match(kit: MarkerKit, phi: Fst, optimized: bool,
                  stack_safe: bool) -> Fst:
    """Reject any selection whose region could have extended further: an
    lb1 followed by an occurrence of phi (dom(T) encoded into cells) that
    runs past the region's rb1 (so the occurrence contains an rb1) and
    still ends at a marked position, where a right bracket comes next.
    Then delete the rb2 cells, which are no longer needed.

    The overrun is phi with at least one rb1 cell inserted and none at
    the end, and the scan reads [lb1, overrun, rb] with every bracket cell
    ignored (`_not_contains`): the pattern reads the rb1 it holds and may
    skip any other bracket after the lb1, so the left brackets stacked at
    the occurrence's end (the markers of an empty occurrence) may stand
    before the closing right bracket.  The scan asks only where a pattern
    string starts, and every tape string it matches begins with a string
    of the paper's pattern, lb1, `ignx(phi, brack)` holding an rb1, left
    brackets, a right bracket: after the overrun, the first right bracket
    has only left brackets before it.  stack_safe=False keeps that pattern
    without the left brackets, and no ignoring, which could not forbid
    them in the tail alone; it is kept only for the equivalence tests on
    rules whose domain cannot match the empty string.

    With optimized=True the overrun also anchors the inner rb1 to a phi
    prefix, which can shrink the filter.
    """
    if stack_safe:
        overrun, ignore = difference(kit.ignx(phi, kit.rb1), phi), kit.brack
    else:
        overrun, ignore = intersection(kit.ignx(phi, kit.brack), kit.contains(kit.rb1)), None
    if optimized:
        overrun = intersection(overrun, concat(kit.ign(phi, kit.brack), kit.rb1, kit.xsig_star))
    return _not_contains(kit, concat(kit.lb1, overrun, kit.rb), kit.rb2, ignore)


@_op
def aux_replace(kit: MarkerKit, t: Fst) -> Fst:
    """Apply T inside each selected region: strip the flags, transduce,
    re-flag, and drop the closing rb1.  Ordinary cells and leftover lb2
    cells outside regions pass through."""
    inner = compose(compose(kit.decoder, t), kit.non_markers)
    region = concat(kit.lb1, inner, kit.cross(kit.rb1, None))
    return reduce_pairs(star(union(kit.sig, kit.lb2, region)))


@_op
def l1(kit: MarkerKit, left: Fst, stack_safe: bool) -> Fst:
    """Keep only strings where every lb1 is preceded by a Left string,
    lb1 and lb2 cells ignored, then delete the lb1 cells.  `left` is Left
    encoded into cells.

    A match whose image is empty leaves nothing on the tape but its lb1,
    so the prefix before the next lb1 can end in an lb1 cell.  Markers
    carry no position of their own, so a trailing lb1 must be as ignorable
    as an inner one, and the scan reads [xsig*, Left] with every lb1 and
    lb2 cell erased.  stack_safe=False keeps the paper's `ignx`, which
    refuses such prefixes and wrongly rejects adjacent deletions."""
    prefix = concat(kit.xsig_star, left)
    if stack_safe:
        return _guard_before(kit, kit.lb1, prefix, kit.lb)
    return _guard_before(kit, kit.lb1, kit.ignx(prefix, kit.lb1), kit.lb2)


@_op
def l2(kit: MarkerKit, left: Fst, stack_safe: bool) -> Fst:
    """Keep only strings where no leftover lb2 is preceded by a Left
    string, lb2 cells ignored: a candidate whose left context held must
    have been selected.  Then delete the lb2 cells.  `left` is Left
    encoded into cells.

    The prefix before an lb2 may itself end in an lb2 cell, but only when
    two candidates stack at one position, which needs an empty-string
    match.  Markers carry no position of their own, so a trailing lb2 must
    be as ignorable as an inner one, and the scan reads [xsig*, Left] with
    every lb2 cell erased.  stack_safe=False keeps the paper's
    `ignx(not(...))`, which refuses such prefixes and is only correct when
    the domain cannot match the empty string."""
    prefix = concat(kit.xsig_star, left)
    if stack_safe:
        return _guard_before(kit, kit.lb2, prefix, kit.lb2, rule="must not")
    return _guard_before(kit, kit.lb2, kit.ignx(difference(kit.xsig_star, prefix), kit.lb2))


# The marker filters, each one scan (`MarkerKit._scan`) that writes the
# markers it filters: the paper's formulas composed with `intro` or
# `strip`, built reduced.  `left_to_right` scans its region content with
# the kit's `_whole`, which lets every cell through and asks for the
# pattern at the end of the tape, as the kit's `ign` does.


def _mark_iff(kit: MarkerKit, cell: Fst, p: Fst, ignore: Optional[Fst] = None) -> Fst:
    """Insert a `cell` exactly before every `p` string: `intro(cell)`
    composed with `l_iff_r(cell, p)`, where `p` holds the cells of
    `ignore` inserted anywhere after the first cell of each string
    (`MarkerKit._scan`), so no `p` string starts with an ignored cell.

    The scan runs backwards, so that whether a `p` string starts at a
    position is already known when the cell before it is written: the
    next cell must then be a `cell`, and only then; at the start of the
    tape, where no cell comes before, no `p` string may start.  Read
    forwards, the same test would need a subset tracking every open `p`
    match that some `cell` has promised."""
    return kit._scan(p, cell, True, lambda final, hit: bool(hit) == final, "insert",
                     ignore)


def _not_contains(kit: MarkerKit, k: Fst, cell: Fst, ignore: Optional[Fst] = None) -> Fst:
    """Delete every `cell` from a tape with no factor in `k`:
    `not(contains(k))` composed with `strip(cell)`, where `k` holds the
    cells of `ignore` inserted anywhere after the first cell of each
    string (`MarkerKit._scan`), as `_mark_iff` reads its `p`.

    The scan runs backwards and drops every subset where a `k` string
    starts.  It runs backwards because that subset machine can be far
    smaller than the forward one of `xsig* k`, which tracks every `k`
    match still open: for the paper's `longest_match` pattern on one
    5-state T over three symbols, the backward one has 655 subsets and
    the forward one over 200 000."""
    return kit._scan(k, cell, True, lambda final, hit: not final, "delete", ignore)


def _guard_before(kit: MarkerKit, cell: Fst, a: Fst,
                  ignore: Optional[Fst] = None, *, rule: str = "must") -> Fst:
    """Delete every `cell`, each of which must follow a prefix in `a`
    (`rule` "must") or must not ("must not"), the cells of `ignore` erased
    from the prefix: `if_s_then_p(ign(a, ignore), [cell, xsig*])` or
    `not([ign(a, ignore), cell, xsig*])`, composed with `strip(cell)`.

    The scan runs forwards, since the test is on prefixes: wherever the
    next cell is a `cell`, the subset machine of `a` must be final, or
    must not be."""
    must = {"must": True, "must not": False}[rule]
    return kit._scan(a, cell, False, lambda final, hit: final == must or not hit,
                     "delete", ignore)


def replace_factors(t: Fst, left: Fst, right: Fst, optimized: bool = False,
                    stack_safe: bool = True) -> list[Fst]:
    """The nine factor transductions of the rule, in application order,
    built with the marker kit of its table (`MarkerKit.of`).  dom(T), Left
    and Right are each encoded into cells once, for all the factors that
    read them; the encoding maps each string to one string, so an encoded
    language holds the empty string exactly when the plain one does.

    Factors 2 to 8 each read one machine: the encoded Right, phi (dom(T)
    encoded), the encoded Left, or T.  Each is a store operation
    (`fsrw.markers._op`), called here by its own name and keyed by that
    name, the flags it reads and that machine; each is built reduced, so
    the store holds its reduced form.  A rule takes them from the store
    when it repeats an encoded domain, context or target of an earlier
    rule over a table of the same shape in the same process.  `replace`
    calls it over the table of the rule's symbol classes (see the module
    docstring), so two rules over one table whose folds keep equally many
    symbols share a shape.  Of the 240 rules in the verify benchmark's
    first five batches at seed 1, 72 % repeat a domain, 74 % a right
    context, 74 % a left one and 47 % a target; a compile benchmark pass
    after the first finds every factor; an apply pass builds no kit.
    Factors 1 and 9, the encoder and its inverse, are built from the
    kit's constants.  `replace` folds the factors by piece
    (`_fold_by_piece`), and its stored groups repeat more often than the
    factors: 84 % of those rules find [encoder, r_right], 72 %
    [f_phi, left_to_right] and 84 % [l1, l2, decoder], since distinct
    contexts can give the same factor."""
    _check_pieces(t, left, right)
    kit = MarkerKit.of(t.table)
    phi, left, right = (kit.non_markers_of(e)
                        for e in (project(t, "domain"), left, right))
    return [kit.non_markers, r_right(kit, right), f_phi(kit, phi),
            left_to_right(kit, phi), longest_match(kit, phi, optimized, stack_safe),
            aux_replace(kit, t), l1(kit, left, stack_safe), l2(kit, left, stack_safe),
            invert(kit.non_markers)]


def _check_pieces(t: Fst, left: Fst, right: Fst):
    for name, ctx in (("left", left), ("right", right)):
        if not ctx.is_recognizer:
            raise FsmError("%s context must be a recognizer" % name)
    _check_tables(t, left, right)


def compose_cascade(machines: list[Fst]) -> Fst:
    """Fold a cascade into one transducer: compose in order, then reduce
    once (`reduce_pairs`).  A composition's pair language depends only on
    its operands', and the reduction is canonical, so under
    `REDUCE_STATE_CAP` this is the machine that reducing after every
    composition gives.  A lone machine comes back as it is."""
    m = machines[0]
    for f in machines[1:]:
        m = compose(m, f)
    return m if len(machines) == 1 else reduce_pairs(m)


@_op
def _composed(kit: MarkerKit, *factors: Fst) -> Fst:
    """`compose_cascade` of the factors, stored by the factors it composes."""
    return compose_cascade(list(factors))


def _fold_by_piece(factors: list[Fst]) -> Fst:
    """`compose_cascade(factors)` over five machines, three of them
    stored groups (see the module docstring).  Composition is associative
    and the reduction canonical, so under `REDUCE_STATE_CAP` the result is
    the nine-factor fold's, byte for byte."""
    right, dom, lm, aux, left = (factors[:2], factors[2:4], factors[4],
                                 factors[5], factors[6:])
    kit = MarkerKit.of(lm.table)
    return compose_cascade([_composed(kit, *right), _composed(kit, *dom), lm, aux,
                            _composed(kit, *left)])


def replace(t: Fst, left: Fst, right: Fst, optimized: bool = False,
            stack_safe: bool = True) -> Fst:
    """Compile the rule into a single transducer, folded over the symbol
    classes of its pieces and by piece (see the module docstring).  It
    freezes the rule's table."""
    _check_pieces(t, left, right)
    return fold_over_classes((t, left, right), lambda *pieces: _fold_by_piece(
        replace_factors(*pieces, optimized, stack_safe)))
