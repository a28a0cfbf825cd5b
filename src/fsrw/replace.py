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
ones `fsrw compile --cascade` writes.  Each factor reduces what it builds,
as the kit's own constructions do, so a rule's factors and its machine
are each the reduced form of their pair language.

`replace` folds the nine factors over five machines, one group per piece
(Mohri & Sproat, *An efficient compiler for weighted rewrite rules*, ACL
1996): the encoder with r_right, f_phi with left_to_right, longest_match,
aux_replace, and l1 with l2 and the decoder.  Each group of two or three
is composed and reduced once and kept in the marker store, keyed by the
factors it composes, so a rule whose pieces all repeat composes five
machines, not nine.  longest_match stays apart: composed with the other
two dom(T) factors it is larger than the three of them and costs more to
build than the fold saves.
"""

from __future__ import annotations

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
from .markers import MarkerKit, _op, _reduced


@_op
def r_right(kit: MarkerKit, right: Fst) -> Fst:
    """Insert an rb2 cell exactly before every position followed by a
    Right string; `right` is Right encoded into cells (`non_markers_of`).
    When the empty string is in Right every position qualifies, and each
    one is marked directly.  That branch is required: under the general
    filter `mark_iff` the start of the tape is followed by a Right string
    too, and as no rb2 cell can stand before it, the filter would accept
    nothing."""
    ins = kit.cross(None, kit.rb2)
    if right.accepts_epsilon():
        return _reduced(concat(star(concat(ins, kit.sig)), ins))
    pattern = kit.xign(right, kit.rb2)
    return _reduced(compose(kit.intro(kit.rb2), kit.mark_iff(kit.rb2, pattern)))


@_op
def f_phi(kit: MarkerKit, phi: Fst) -> Fst:
    """Insert an lb2 cell exactly before every occurrence of phi, dom(T)
    encoded into cells, that ends at an rb2.  Inside the occurrence both
    marker kinds are ignored.

    When phi matches the empty string, every marked position demands an
    opener of its own, and the iff settles on exactly two stacked lb2
    cells per rb2: one more would need yet another in front of it, one
    fewer leaves the point before the pair unmatched.  The empty and the
    nonempty occurrence patterns must then be kept apart: the empty one
    absorbs at most one lb2 so the stack cannot grow, while the nonempty
    one must absorb whole stacks sitting between its last cell and its
    closing rb2, or no occurrence could end at a stacked position."""
    if phi.accepts_epsilon():
        nonempty = difference(phi, empty_string(kit.table))
        pattern = union(
            concat(option(kit.lb2), kit.rb2),
            concat(kit.xignx(nonempty, kit.b2), star(kit.lb2), kit.rb2))
    else:
        pattern = concat(kit.xignx(phi, kit.b2), option(kit.lb2), kit.rb2)
    return _reduced(compose(kit.intro(kit.lb2), kit.mark_iff(kit.lb2, pattern)))


@_op
def left_to_right(kit: MarkerKit, phi: Fst) -> Fst:
    """Nondeterministically retype some lb2 ... rb2 candidate regions to
    lb1 ... rb1, deleting lb2 cells inside a chosen region (they have done
    their job); everything between regions passes through unchanged.  A
    region's content is phi, dom(T) encoded into cells."""
    content = compose(kit.ign(phi, kit.b2), kit.strip(kit.lb2))
    region = concat(kit.cross(kit.lb2, kit.lb1), content,
                    kit.cross(kit.rb2, kit.rb1))
    return _reduced(concat(star(concat(kit.xsig_star, region)), kit.xsig_star))


@_op
def longest_match(kit: MarkerKit, phi: Fst, optimized: bool,
                  stack_safe: bool) -> Fst:
    """Reject any selection whose region could have extended further: an
    lb1 followed by an occurrence of phi (dom(T) encoded into cells) that
    runs past the region's rb1 (so the occurrence contains an rb1) and
    still ends at a marked position.  Then delete the rb2 cells, which are
    no longer needed.

    The occurrence ends at a marked position when the next cell is a right
    bracket, except that left brackets belonging to that position may stand
    in between (stacked markers of an empty occurrence); stack_safe=False
    drops that allowance and is kept only for the equivalence tests on
    rules whose domain cannot match the empty string.

    With optimized=True the occurrence pattern anchors the inner rb1 to a
    phi prefix instead of using plain containment, which can shrink the
    filter.
    """
    if optimized:
        inner = concat(kit.ign(phi, kit.brack), kit.rb1, kit.xsig_star)
    else:
        inner = kit.contains(kit.rb1)
    overrun = intersection(kit.ignx(phi, kit.brack), inner)
    tail = kit.stacked_rb if stack_safe else kit.rb
    kill = kit.not_contains(concat(kit.lb1, overrun, tail))
    return _reduced(compose(kill, kit.strip(kit.rb2)))


@_op
def aux_replace(kit: MarkerKit, t: Fst) -> Fst:
    """Apply T inside each selected region: strip the flags, transduce,
    re-flag, and drop the closing rb1.  Ordinary cells and leftover lb2
    cells outside regions pass through."""
    inner = compose(compose(kit.decoder, t), kit.non_markers)
    region = concat(kit.lb1, inner, kit.cross(kit.rb1, None))
    return _reduced(star(union(kit.sig, kit.lb2, region)))


@_op
def l1(kit: MarkerKit, left: Fst, stack_safe: bool) -> Fst:
    """Keep only strings where every lb1 is preceded by a Left string
    (leftover lb1 cells ignorable inside it, lb2 cells ignorable anywhere),
    then delete the lb1 cells.  `left` is Left encoded into cells.

    A match whose image is empty leaves nothing on the tape but its lb1,
    so the prefix before the next lb1 can end in an lb1 cell.  Markers
    carry no position of their own, so a trailing lb1 must be as ignorable
    as an inner one; stack_safe=False instead refuses such prefixes and
    wrongly rejects adjacent deletions."""
    ignore = kit.ign if stack_safe else kit.ignx
    guard = kit.guard_before(kit.lb1, ignore(concat(kit.xsig_star, left), kit.lb1))
    return _reduced(compose(kit.ign(guard, kit.lb2), kit.strip(kit.lb1)))


@_op
def l2(kit: MarkerKit, left: Fst, stack_safe: bool) -> Fst:
    """Keep only strings where no leftover lb2 is preceded by a Left
    string: a candidate whose left context held must have been selected.
    Then delete the lb2 cells.  `left` is Left encoded into cells.

    The prefix before an lb2 may itself end in an lb2 cell, but only when
    two candidates stack at one position, which needs an empty-string
    match.  Markers carry no position of their own, so a trailing lb2 must
    be as ignorable as an inner one; stack_safe=False instead refuses such
    prefixes and is only correct when the domain cannot match the empty
    string."""
    ignore = kit.ign if stack_safe else kit.ignx
    guard = kit.guard_before(kit.lb2,
                             ignore(kit.not_(concat(kit.xsig_star, left)), kit.lb2))
    return _reduced(compose(guard, kit.strip(kit.lb2)))


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
    name, the flags it reads and that machine; each reduces itself, so
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
    """Fold a cascade into one transducer, reducing after each composition."""
    m = machines[0]
    for f in machines[1:]:
        m = reduce_pairs(compose(m, f))
    return m


@_op
def _composed(kit: MarkerKit, *factors: Fst) -> Fst:
    """The factors folded as `compose_cascade` folds them, kept in the
    store by the factors it composes."""
    m = factors[0]
    for f in factors[1:]:
        m = reduce_pairs(compose(m, f))
    return m


def _fold_by_piece(factors: list[Fst]) -> Fst:
    """`compose_cascade(factors)` over five machines, three of them
    stored groups (see the module docstring).  Composition is associative
    and each step's reduction canonical, so under `REDUCE_STATE_CAP` the
    result is the nine-factor fold's, byte for byte."""
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
