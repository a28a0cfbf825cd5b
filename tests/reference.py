"""Reference builds of the marker machines, for the marker suites.

The kit reads its patterns in scans (`MarkerKit._scan`); these build the
same machines the way the paper writes them, from its formulas and the
kit's inserters, so a scan can be checked against the composition it
stands for.  `strip`, `ign` and `not_` are the compositions the kit no
longer builds: the kit's own `ign` is a scan that agrees with `ign` here
only where the pattern holds no ignored cell, so a reference whose
pattern may hold one (`[xsig*, Left]` ignoring lb1, say) takes `ign`
from here.  Their inserter, `intro`, is built here from `fsrw.fsm`
primitives, so no reference answer comes through the kit's store.  The
factor references take the factor's machine argument and the flags it
reads, as the factors do, and `SCANNED` lists them."""

from fsrw import (
    any_of,
    compose,
    concat,
    cross_product,
    difference,
    empty_lang,
    empty_string,
    intersection,
    invert,
    literal,
    option,
    project,
    reduce_pairs,
    star,
    union,
)

from gen import formula


def intro(s):
    """Insert cells from `s`, a set of single cells, anywhere, and pass
    every other cell through: [xsig - s | [] x s]*, where a cell is an
    encodable glyph with flag "0" or a bracket glyph with flag "1"."""
    t = s.table
    cell = union(concat(any_of(t, t.encoded_ids()), literal(t, t.glyph(0))),
                 concat(any_of(t, t.bracket_ids()), literal(t, t.glyph(1))))
    return reduce_pairs(star(union(difference(cell, s), cross_product(empty_string(t), s))))


def strip(kit, s):
    """Delete cells from `s` anywhere, pass other cells through: `intro`
    inverted."""
    return invert(intro(s))


def ign(kit, e, s):
    """The paper's `ign(e, s)`: `e` with `s` strings inserted anywhere."""
    return project(compose(e, intro(s)), "range")


def not_(kit, e):
    """The cell strings outside `e`."""
    return difference(kit.xsig_star, e)


def l_iff_r(cell, p):
    return formula(cell.table, "l_iff_r(C, P)", C=cell, P=p)


def if_s_then_p(a, cell):
    return formula(a.table, "if_s_then_p(A, [C, xsig()*])", A=a, C=cell)


def not_contains(k):
    return formula(k.table, "not($$(K))", K=k)


# The builds the scans replace, each filter given by its formula.

# `_mark_iff`'s pattern with the ignored cells I inserted anywhere after
# its first cell: no P string starts with an ignored cell
SPREAD = "range(P o {[], [xsig(), {xsig(), [] x I}*]})"


def mark_iff(kit, cell, p, ignore=None):
    if ignore is not None:
        p = formula(kit.table, SPREAD, P=p, I=ignore)
    return reduce_pairs(compose(intro(cell), l_iff_r(cell, p)))


def strip_not_containing(kit, k, cell):
    return reduce_pairs(compose(not_contains(k), strip(kit, cell)))


# `_guard_before`'s two rules, each a filter over the pattern with the
# ignored cells inserted anywhere
RULES = {"must": "if_s_then_p(ign(A, I), [C, xsig()*])",
         "must not": "not([ign(A, I), C, xsig()*])"}


def guarded(kit, cell, a, ignore, rule):
    ignore = empty_lang(kit.table) if ignore is None else ignore
    guard = formula(kit.table, RULES[rule], A=a, C=cell, I=ignore)
    return reduce_pairs(compose(guard, strip(kit, cell)))


def guard_before(kit, cell, a, skip=None):
    guard = if_s_then_p(a, cell)
    if skip is not None:
        guard = ign(kit, guard, skip)
    return reduce_pairs(compose(guard, strip(kit, cell)))


def r_right(kit, right):
    if right.accepts_epsilon():
        ins = kit.cross(None, kit.rb2)
        return reduce_pairs(concat(star(concat(ins, kit.sig)), ins))
    return mark_iff(kit, kit.rb2, formula(kit.table, "xign(E, S)", E=right, S=kit.rb2))


def f_phi(kit, phi):
    if phi.accepts_epsilon():
        nonempty = difference(phi, empty_string(kit.table))
        pattern = union(
            concat(option(kit.lb2), kit.rb2),
            concat(kit.xignx(nonempty, kit.b2), star(kit.lb2), kit.rb2))
    else:
        pattern = concat(kit.xignx(phi, kit.b2), option(kit.lb2), kit.rb2)
    return mark_iff(kit, kit.lb2, pattern)


def left_to_right(kit, phi):
    content = compose(ign(kit, phi, kit.b2), strip(kit, kit.lb2))
    region = concat(kit.cross(kit.lb2, kit.lb1), content, kit.cross(kit.rb2, kit.rb1))
    return reduce_pairs(concat(star(concat(kit.xsig_star, region)), kit.xsig_star))


def longest_match(kit, phi, optimized, stack_safe):
    if optimized:
        inner = concat(ign(kit, phi, kit.brack), kit.rb1, kit.xsig_star)
    else:
        inner = kit.contains(kit.rb1)
    overrun = intersection(kit.ignx(phi, kit.brack), inner)
    tail = concat(star(kit.lb), kit.rb) if stack_safe else kit.rb
    return strip_not_containing(kit, concat(kit.lb1, overrun, tail), kit.rb2)


def l1(kit, left, stack_safe):
    ignore = ign if stack_safe else (lambda kit, e, s: kit.ignx(e, s))
    return guard_before(kit, kit.lb1, ignore(kit, concat(kit.xsig_star, left), kit.lb1),
                        kit.lb2)


def l2(kit, left, stack_safe):
    ignore = ign if stack_safe else (lambda kit, e, s: kit.ignx(e, s))
    return guard_before(kit, kit.lb2,
                        ignore(kit, not_(kit, concat(kit.xsig_star, left)), kit.lb2))


# each scan factor: its place in `replace_factors`, its reference, and
# which of the flags (optimized, stack_safe) it reads
SCANNED = {"r_right": (1, r_right, ()), "f_phi": (2, f_phi, ()),
           "left_to_right": (3, left_to_right, ()),
           "longest_match": (4, longest_match, (0, 1)),
           "l1": (6, l1, (1,)), "l2": (7, l2, (1,))}
