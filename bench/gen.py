"""Seeded inputs for the benchmark workloads.

Everything here takes an explicit ``random.Random``, so one seed gives the
same rules and lines on every run.  The rule generator follows the shape
of the randomized acceptance suite (small replace rules over one to three
symbols, greedy splits over {a, b}) but is owned by the benchmark, so the
suite and the benchmark can change independently.
"""

from __future__ import annotations

import random

from fsrw import (
    EPS,
    Fst,
    SymbolTable,
    concat,
    cross_product,
    empty_lang,
    empty_string,
    identity_lift,
    literal,
    minimize,
    option,
    plus,
    star,
    union,
    word,
)

# ---------------------------------------------------------------------------
# verify: random small rules


def _regex(rng: random.Random, table: SymbolTable, glyphs, depth: int) -> Fst:
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return empty_string(table)
        if roll < 0.15:
            return empty_lang(table)
        return literal(table, rng.choice(glyphs))
    op = rng.choice(("union", "concat", "star", "option", "plus",
                     "union", "concat"))
    if op == "star":
        return star(_regex(rng, table, glyphs, depth - 1))
    if op == "option":
        return option(_regex(rng, table, glyphs, depth - 1))
    if op == "plus":
        return plus(_regex(rng, table, glyphs, depth - 1))
    a = _regex(rng, table, glyphs, depth - 1)
    b = _regex(rng, table, glyphs, depth - 1)
    return union(a, b) if op == "union" else concat(a, b)


def _arc_machine(rng: random.Random, table: SymbolTable, max_states: int) -> Fst:
    """A transduction given directly by its arcs.  Input labels are never
    epsilon, so every input has finitely many outputs."""
    n = rng.randint(1, max_states)
    syms = list(table.user_ids())
    arcs = set()
    for _ in range(rng.randint(0, 2 * n + 2)):
        arcs.add((rng.randrange(n), rng.choice(syms),
                  rng.choice(syms + [EPS]), rng.randrange(n)))
    finals = frozenset(q for q in range(n) if rng.random() < 0.5) \
        or frozenset([rng.randrange(n)])
    is_rec = all(i == o for _, i, o, _ in arcs)
    return Fst(table, n, 0, finals, tuple(sorted(arcs)), is_rec)


def _word(rng: random.Random, glyphs, max_len: int) -> list:
    return [rng.choice(glyphs) for _ in range(rng.randint(0, max_len))]


def _target(rng: random.Random, table: SymbolTable, arcs: bool) -> Fst:
    """Either a random arc machine or a cross product, the latter so the
    empty string can have a nonempty image."""
    glyphs = table.user_glyphs()
    if arcs:
        return _arc_machine(rng, table, 3)
    return cross_product(_regex(rng, table, glyphs, 2),
                         word(table, _word(rng, glyphs, 2)))


def _context(rng: random.Random, table: SymbolTable) -> Fst:
    """A recognizer of one or two words, each of at most two symbols."""
    glyphs = table.user_glyphs()
    return union(*[word(table, _word(rng, glyphs, 2))
                   for _ in range(rng.randint(1, 2))])


def replace_rule(rng: random.Random, slot: int):
    """(table, t, left, right) with t minimized to at most 3 states.

    The slot number, not the seed, fixes the rule's shape: the alphabet
    size (one to three symbols) and whether t is an arc machine (three
    slots in five) or a cross product.  A batch of slots 0..n-1 then has
    the same mix of shapes under every seed, so its cost does not swing
    with how many large alphabets one seed happens to draw."""
    table = SymbolTable("abc"[:slot % 3 + 1])
    arcs = slot % 5 < 3
    while True:
        t = minimize(_target(rng, table, arcs), pair_atomic=True)
        if t.n <= 3:
            return table, t, _context(rng, table), _context(rng, table)


def lm_instance(rng: random.Random):
    """(table, domains, pieces): 1-3 greedy pieces over {a, b}, each
    piece copying its match and writing '#' after it.  Domains are never
    empty, which lm_concat would reject."""
    table = SymbolTable(["a", "b", "#"])
    mark = cross_product(empty_string(table), literal(table, "#"))
    while True:
        doms = [_regex(rng, table, "ab", 2) for _ in range(rng.randint(1, 3))]
        if not any(d.is_empty() for d in doms):
            return table, doms, [concat(identity_lift(d), mark) for d in doms]


def all_strings(glyphs, max_len: int) -> list:
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [s + (g,) for s in frontier for g in glyphs]
        out.extend(frontier)
    return out


# ---------------------------------------------------------------------------
# apply: input lines

VOWELS = "aeiou"
LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _letters_line(rng: random.Random, n: int) -> str:
    """A line over a-z and '#' shaped like words: mostly letters with a
    '#' word end, so the cascade's rules (devoicing before '#', n before
    a labial, ee, s between vowels) all fire regularly."""
    favoured = "bdgvzneps" + VOWELS
    out = []
    for k in range(n):
        if k > 0 and rng.random() < 0.18:
            out.append("#")
        elif rng.random() < 0.5:
            out.append(rng.choice(favoured))
        else:
            out.append(rng.choice(LETTERS))
    return "".join(out)


_TOPO_PIECES = (("to", "top"), ("o", "polo"), ("gical", "logical", "ological"))


def _topo_line(rng: random.Random, lo: int, hi: int) -> str:
    """Half the lines are a valid three-piece split, the rest a random
    string over the same letters (mostly rejected)."""
    if rng.random() < 0.5:
        while True:
            s = "".join(rng.choice(p) for p in _TOPO_PIECES)
            if lo <= len(s) <= hi:
                return s
    return "".join(rng.choice("topligca") for _ in range(rng.randint(lo, hi)))


AMBIGUOUS_PAIRS = (0, 1, 2, 3, 4, 5)


def _ambiguous_line(rng: random.Random, pairs: int, lo: int, hi: int) -> str:
    """A line over {a, e, i, o, k, t} with exactly `pairs` vowel pairs.

    Vowels come in runs of even length (a run of 2m vowels is m pairs for
    the leftmost-longest scan) separated by consonants, so the ambiguous
    rule gives exactly 4**pairs outputs."""
    tokens = []
    if pairs:
        # split the pairs into runs, leaving room for the separators
        nruns = rng.randint(1, max(1, min(pairs, hi - 2 * pairs + 1)))
        cuts = [0] + sorted(rng.sample(range(1, pairs), nruns - 1)) + [pairs]
        for a, b in zip(cuts, cuts[1:]):
            if tokens:
                tokens.append(rng.choice("kt"))
            tokens.append("".join(rng.choice("aeio") for _ in range(2 * (b - a))))
    size = sum(len(t) for t in tokens)
    for _ in range(rng.randint(max(lo, size), max(hi, size)) - size):
        # consonants go between tokens, never inside a vowel run
        tokens.insert(rng.randint(0, len(tokens)), rng.choice("kt"))
    return "".join(tokens)


def short_line(rng: random.Random, machine: str, lo: int = 4, hi: int = 13,
               index: int = 0) -> str:
    """A short input line for one apply machine.  For the ambiguous
    machine, `index` fixes the line's number of vowel pairs (cycling
    through AMBIGUOUS_PAIRS), so every seed has the same mix of 1, 4, 16,
    64, 256 and 1024 outputs per line."""
    n = rng.randint(lo, hi)
    if machine == "devoice_final":
        return "".join(rng.choice("abdpt#") for _ in range(n))
    if machine == "topological":
        return _topo_line(rng, lo, hi)
    if machine == "cascade27":
        return _letters_line(rng, n)
    if machine == "ambiguous":
        pairs = AMBIGUOUS_PAIRS[index % len(AMBIGUOUS_PAIRS)]
        return _ambiguous_line(rng, pairs, lo, hi)
    raise ValueError(machine)


def long_line(rng: random.Random, machine: str, n: int) -> str:
    if machine == "devoice_final":
        return "".join(rng.choice("abdpt#") for _ in range(n))
    if machine == "cascade27":
        return _letters_line(rng, n)
    raise ValueError(machine)
