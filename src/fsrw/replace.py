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
"""

from __future__ import annotations

from typing import Optional

from .fsm import (
    Fst,
    FsmError,
    compose,
    concat,
    cross_product,
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
from .markers import MarkerKit


def r_right(kit: MarkerKit, right: Fst) -> Fst:
    """Insert an rb2 cell exactly before every position followed by a
    Right string.  When the empty string is in Right every position
    qualifies, and each one is marked directly.  That branch is required:
    under the general filter `mark_iff` the start of the tape is followed
    by a Right string too, and as no rb2 cell can stand before it, the
    filter would accept nothing."""
    ins = cross_product(empty_string(kit.table), kit.rb2)
    if right.accepts_epsilon():
        return concat(star(concat(ins, kit.sig)), ins)
    pattern = kit.xign(kit.non_markers_of(right), kit.rb2)
    return compose(kit.intro(kit.rb2), kit.mark_iff(kit.rb2, pattern))


def f_phi(kit: MarkerKit, phi: Fst) -> Fst:
    """Insert an lb2 cell exactly before every occurrence of phi that ends
    at an rb2.  Inside the occurrence both marker kinds are ignored.

    When phi matches the empty string, every marked position demands an
    opener of its own, and the iff settles on exactly two stacked lb2
    cells per rb2: one more would need yet another in front of it, one
    fewer leaves the point before the pair unmatched.  The empty and the
    nonempty occurrence patterns must then be kept apart: the empty one
    absorbs at most one lb2 so the stack cannot grow, while the nonempty
    one must absorb whole stacks sitting between its last cell and its
    closing rb2, or no occurrence could end at a stacked position."""
    nm = kit.non_markers_of(phi)
    if phi.accepts_epsilon():
        nonempty = difference(nm, empty_string(kit.table))
        pattern = union(
            concat(option(kit.lb2), kit.rb2),
            concat(kit.xignx(nonempty, kit.b2), star(kit.lb2), kit.rb2))
    else:
        pattern = concat(kit.xignx(nm, kit.b2), option(kit.lb2), kit.rb2)
    return compose(kit.intro(kit.lb2), kit.mark_iff(kit.lb2, pattern))


def left_to_right(kit: MarkerKit, phi: Fst) -> Fst:
    """Nondeterministically retype some lb2 ... rb2 candidate regions to
    lb1 ... rb1, deleting lb2 cells inside a chosen region (they have done
    their job); everything between regions passes through unchanged."""
    content = compose(kit.ign(kit.non_markers_of(phi), kit.b2),
                      invert(kit.intro(kit.lb2)))
    region = concat(cross_product(kit.lb2, kit.lb1), content,
                    cross_product(kit.rb2, kit.rb1))
    return concat(star(concat(kit.xsig_star, region)), kit.xsig_star)


def longest_match(kit: MarkerKit, phi: Fst, optimized: bool = False,
                  stack_safe: bool = True) -> Fst:
    """Reject any selection whose region could have extended further: an
    lb1 followed by a phi occurrence that runs past the region's rb1 (so
    the occurrence contains an rb1) and still ends at a marked position.
    Then delete the rb2 cells, which are no longer needed.

    The occurrence ends at a marked position when the next cell is a right
    bracket, except that left brackets belonging to that position may stand
    in between (stacked markers of an empty occurrence); stack_safe=False
    drops that allowance and is kept only for the equivalence tests on
    rules whose domain cannot match the empty string.

    With optimized=True the occurrence pattern anchors the inner rb1 to a
    phi prefix instead of using plain containment, which can shrink the
    filter.
    """
    marked = kit.non_markers_of(phi)
    if optimized:
        inner = concat(kit.ign(marked, kit.brack), kit.rb1, kit.xsig_star)
    else:
        inner = kit.contains(kit.rb1)
    overrun = intersection(kit.ignx(marked, kit.brack), inner)
    tail = concat(star(kit.lb), kit.rb) if stack_safe else kit.rb
    kill = kit.not_contains(concat(kit.lb1, overrun, tail))
    return compose(kill, invert(kit.intro(kit.rb2)))


def aux_replace(kit: MarkerKit, t: Fst) -> Fst:
    """Apply T inside each selected region: strip the flags, transduce,
    re-flag, and drop the closing rb1.  Ordinary cells and leftover lb2
    cells outside regions pass through."""
    inner = compose(compose(invert(kit.non_markers), t), kit.non_markers)
    region = concat(kit.lb1, inner,
                    cross_product(kit.rb1, empty_string(kit.table)))
    return star(union(kit.sig, kit.lb2, region))


def l1(kit: MarkerKit, left: Fst, stack_safe: bool = True) -> Fst:
    """Keep only strings where every lb1 is preceded by a Left string
    (leftover lb1 cells ignorable inside it, lb2 cells ignorable anywhere),
    then delete the lb1 cells.

    A match whose image is empty leaves nothing on the tape but its lb1,
    so the prefix before the next lb1 can end in an lb1 cell.  Markers
    carry no position of their own, so a trailing lb1 must be as ignorable
    as an inner one; stack_safe=False instead refuses such prefixes and
    wrongly rejects adjacent deletions."""
    lnm = kit.non_markers_of(left)
    ignore = kit.ign if stack_safe else kit.ignx
    guard = kit.guard_before(kit.lb1, ignore(concat(kit.xsig_star, lnm), kit.lb1))
    return compose(kit.ign(guard, kit.lb2), invert(kit.intro(kit.lb1)))


def l2(kit: MarkerKit, left: Fst, stack_safe: bool = True) -> Fst:
    """Keep only strings where no leftover lb2 is preceded by a Left
    string: a candidate whose left context held must have been selected.
    Then delete the lb2 cells.

    The prefix before an lb2 may itself end in an lb2 cell, but only when
    two candidates stack at one position, which needs an empty-string
    match.  Markers carry no position of their own, so a trailing lb2 must
    be as ignorable as an inner one; stack_safe=False instead refuses such
    prefixes and is only correct when the domain cannot match the empty
    string."""
    lnm = kit.non_markers_of(left)
    ignore = kit.ign if stack_safe else kit.ignx
    guard = kit.guard_before(kit.lb2,
                             ignore(kit.not_(concat(kit.xsig_star, lnm)), kit.lb2))
    return compose(guard, invert(kit.intro(kit.lb2)))


def replace_factors(t: Fst, left: Fst, right: Fst, optimized: bool = False,
                    stack_safe: bool = True,
                    kit: Optional[MarkerKit] = None) -> list[Fst]:
    """The nine factor transductions of the rule, in application order.
    `kit` is the marker kit of the rule's table; a compile passes its own,
    so the rules of one program share their marker constants, and by
    default the rule gets a fresh one."""
    for name, ctx in (("left", left), ("right", right)):
        if not ctx.is_recognizer:
            raise FsmError("%s context must be a recognizer" % name)
    if kit is None:
        kit = MarkerKit(t.table)
    phi = project(t, "domain")
    return [
        kit.non_markers,
        r_right(kit, right),
        f_phi(kit, phi),
        left_to_right(kit, phi),
        longest_match(kit, phi, optimized, stack_safe),
        aux_replace(kit, t),
        l1(kit, left, stack_safe),
        l2(kit, left, stack_safe),
        invert(kit.non_markers),
    ]


def compose_cascade(machines: list[Fst]) -> Fst:
    """Fold a cascade into one transducer, reducing after each composition."""
    m = machines[0]
    for f in machines[1:]:
        m = reduce_pairs(compose(m, f))
    return m


def replace(t: Fst, left: Fst, right: Fst, optimized: bool = False,
            stack_safe: bool = True, kit: Optional[MarkerKit] = None) -> Fst:
    """Compile the rule into a single transducer."""
    return compose_cascade(replace_factors(t, left, right, optimized,
                                           stack_safe, kit))
