"""The brute-force reference semantics.

Every expected value here was worked out by hand from the scanning rules:
proceed left to right, at each point fire the longest domain match whose
left context holds on the output written so far and whose right context
holds on the input ahead, copy one symbol when nothing fires, and allow an
empty-string match only where no nonempty one starts and the previous step
was not itself a replacement."""

import ast
import collections
import itertools
import random
import re
import sys
import time
from pathlib import Path

import pytest

import fsrw.oracle
from fsrw import (
    EPS,
    Fst,
    FsmError,
    SymbolTable,
    concat,
    cross_product,
    empty_string,
    identity_lift,
    lang_enum,
    literal,
    oracle_language,
    oracle_lm_concat,
    oracle_lm_split,
    oracle_replace,
    option,
    sigma_star,
    star,
    transduce,
    union,
    word,
)
from fsrw.dsl import compile_rules
from fsrw.oracle import ORACLE_MEMO_CAP, Oracle, SplitOracle, _Walker

from gen import (
    ROOT,
    all_strings,
    build_regex,
    random_arc_machine,
    random_context,
    random_regex,
    random_replace_rule,
    random_target,
)


@pytest.fixture
def tb():
    return SymbolTable("abcx")


def rule(tb, src, dst):
    return cross_product(src, word(tb, dst))


def test_oracle_language_matches_lang_enum():
    rng = random.Random(17)
    tb = SymbolTable("ab")
    for _ in range(60):
        m = build_regex(random_regex(rng, "ab", 3), tb)
        assert oracle_language(m, 4) == lang_enum(m, 4)


def test_plain_rewrite(tb):
    t = rule(tb, literal(tb, "a"), "b")
    eps = empty_string(tb)
    assert oracle_replace(t, eps, eps, "aca") == {"bcb"}
    assert oracle_replace(t, eps, eps, "") == {""}


def test_longest_match_wins(tb):
    t = rule(tb, concat(literal(tb, "a"), star(literal(tb, "b"))), "x")
    eps = empty_string(tb)
    # "abb" is one match, not a then bb
    assert oracle_replace(t, eps, eps, "abb") == {"x"}
    assert oracle_replace(t, eps, eps, "abab") == {"xx"}


def test_left_context_reads_the_output_tape(tb):
    # a -> x after x: each rewrite feeds the next
    t = rule(tb, literal(tb, "a"), "x")
    eps = empty_string(tb)
    assert oracle_replace(t, literal(tb, "x"), eps, "xaa") == {"xxx"}
    assert oracle_replace(t, literal(tb, "x"), eps, "aa") == {"aa"}


def test_right_context_reads_the_input_tape(tb):
    # a -> b before b: the b consumed as context is itself rewritten next
    # only if its own context holds, so "abb" -> "bbb" but "ab" stays "ab"
    # at the last position
    t = rule(tb, literal(tb, "a"), "b")
    eps = empty_string(tb)
    assert oracle_replace(t, eps, literal(tb, "b"), "aabab") == {"abbbb"}
    assert oracle_replace(t, eps, literal(tb, "b"), "aa") == {"aa"}


def test_empty_string_in_domain_fires_between_matches(tb):
    t = rule(tb, star(literal(tb, "a")), "x")
    eps = empty_string(tb)
    assert oracle_replace(t, eps, eps, "") == {"x"}
    assert oracle_replace(t, eps, eps, "a") == {"x"}
    assert oracle_replace(t, eps, eps, "b") == {"xbx"}
    assert oracle_replace(t, eps, eps, "ab") == {"xbx"}
    assert oracle_replace(t, eps, eps, "ba") == {"xbx"}
    assert oracle_replace(t, eps, eps, "bb") == {"xbxbx"}


def test_multivalued_target(tb):
    t = cross_product(literal(tb, "a"),
                      union(literal(tb, "b"), literal(tb, "c")))
    eps = empty_string(tb)
    assert oracle_replace(t, eps, eps, "aa") == {"bb", "bc", "cb", "cc"}


def test_infinite_target_image_rejected(tb):
    t = cross_product(literal(tb, "a"), star(literal(tb, "b")))
    eps = empty_string(tb)
    with pytest.raises(FsmError):
        oracle_replace(t, eps, eps, "a")


def test_lm_split_conventions():
    tb = SymbolTable("topogical")
    w = lambda s: word(tb, list(s))
    parts = [union(w("to"), w("top")), union(w("o"), w("polo")),
             union(w("gical"), concat(option(w("o")), w("logical")))]
    assert oracle_lm_split(list("topological"), parts) == [3, 4, 11]
    assert oracle_lm_split(list("polotopogical"), parts) is None

    tb2 = SymbolTable("a")
    greedy = [star(literal(tb2, "a")), literal(tb2, "a")]
    # the first part backs off just enough for the second to fit
    assert oracle_lm_split(list("aaa"), greedy) == [2, 3]
    assert oracle_lm_split([], greedy) is None

    one = [sigma_star(tb2, tb2.user_ids())]
    assert oracle_lm_split(list("aa"), one) == [2]


def test_lm_concat_applies_pieces_to_their_spans():
    tb = SymbolTable("ab#")
    mark = cross_product(empty_string(tb), literal(tb, "#"))
    p1 = concat(cross_product(star(literal(tb, "a")), word(tb, "b")), mark)
    p2 = cross_product(star(literal(tb, "a")), word(tb, "b"))
    assert oracle_lm_concat([p1, p2], list("aaa")) == {"b#b"}
    assert oracle_lm_concat([p1, p2], list("b")) == set()


# ---------------------------------------------------------------------------
# the subset walker


def _reads(m, w):
    """Whether some path of m reads the ids w, by a search over (state,
    position) pairs."""
    seen, stack = set(), [(m.initial, 0)]
    while stack:
        q, p = stack.pop()
        if (q, p) in seen:
            continue
        seen.add((q, p))
        if p == len(w) and q in m.finals:
            return True
        for s, i, _, d in m.arcs:
            if s == q and i == EPS:
                stack.append((d, p))
            elif s == q and p < len(w) and i == w[p]:
                stack.append((d, p + 1))
    return False


def test_walker_from_anywhere_is_final_after_a_suffix_in_the_language():
    rng = random.Random(47)
    tb = SymbolTable("ab")
    words = [tuple(map(tb.id_of, s)) for s in all_strings("ab", 5)]
    for _ in range(240):
        m = random_arc_machine(rng, tb, max_states=4, recognizer=True)
        eps = {(rng.randrange(m.n), EPS, EPS, rng.randrange(m.n))
               for _ in range(rng.randint(0, 2))}
        m = Fst(tb, m.n, 0, m.finals, tuple(sorted(set(m.arcs) | eps)), True)
        lang = {w for w in words if _reads(m, w)}
        walker = _Walker(m, anywhere=True)
        for w in words:
            walk = list(walker.walk(w))
            assert len(walk) == len(w) + 1, (m.arcs, w)
            want = any(w[j:] in lang for j in range(len(w) + 1))
            assert walker.final[walk[-1]] == want, (m.arcs, w)


# ---------------------------------------------------------------------------
# independence and reuse


def test_oracle_imports_nothing_it_judges():
    # the referee reads machines through their arcs only: from the library
    # it takes the arc label for epsilon, the machine class and the error
    tree = ast.parse(Path(fsrw.oracle.__file__).read_text(encoding="utf-8"))
    from_fsm = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                assert node.module == "fsm", ast.dump(node)
                from_fsm.update(a.name for a in node.names)
            else:
                assert not node.module.startswith("fsrw"), ast.dump(node)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("fsrw") for a in node.names)
    assert from_fsm == {"EPS", "Fst", "FsmError"}


def _answer(query, s):
    try:
        return query(s)
    except FsmError:
        return "infinite"


def _rules(seed, count):
    rng = random.Random(seed)
    return [random_replace_rule(rng) for _ in range(count)]


def test_one_oracle_answers_like_a_fresh_one_per_string():
    rng = random.Random(41)
    for table, t, left, right in _rules(40, 60):
        strings = [list(s) for s in all_strings(table.user_glyphs(), 5)]
        rng.shuffle(strings)
        shared = Oracle(t, left, right)
        for s in strings:
            assert _answer(shared.replace, s) == \
                _answer(Oracle(t, left, right).replace, s), s


def test_oracle_replace_never_reuses_another_rules_oracle():
    rng = random.Random(42)
    differed = 0
    for table, t, left, right in _rules(43, 60):
        other_left = random_context(rng, table)
        for s in all_strings(table.user_glyphs(), 4):
            first = _answer(lambda x: oracle_replace(t, left, right, x), s)
            second = _answer(lambda x: oracle_replace(t, other_left, right, x), s)
            assert second == _answer(Oracle(t, other_left, right).replace, s), s
            differed += first != second
    assert differed  # the two contexts do tell rules apart


def _devoice():
    comp = compile_rules((ROOT / "rules" / "devoice_final.fsr").read_text(encoding="utf-8"))
    return comp.pieces


def _devoice_ref(line):
    return {re.sub(r"[bd](?=#)", lambda m: {"b": "p", "d": "t"}[m.group()], line)}


def test_oracle_memo_stays_under_its_cap():
    oracle = Oracle(*_devoice())
    rng = random.Random(44)
    lines = set()
    while len(lines) < 5000:
        lines.add("".join(rng.choice("abdpt#") for _ in range(rng.randint(10, 30))))
    renewed = 0
    for line in sorted(lines):
        before = oracle.size()
        assert oracle.replace(line) == _devoice_ref(line), line
        assert oracle.size() <= ORACLE_MEMO_CAP
        renewed += oracle.size() < before
    assert renewed >= 1  # the cap was reached and the memo started afresh


def test_oracle_memo_stays_under_its_cap_on_raising_inputs(tb):
    # Each input interns its suffix before it raises: through an unknown
    # glyph read last, or through an infinite output set on a span.
    rng = random.Random(46)
    unknown = Oracle(*_devoice())
    infinite = Oracle(cross_product(literal(tb, "a"), star(literal(tb, "b"))),
                      empty_string(tb), empty_string(tb))
    cases = [(unknown, "z", "abdpt#"), (infinite, "a", "bcx")]
    for oracle, first, rest in cases:
        lines = set()
        while len(lines) < 5000:
            lines.add(first + "".join(rng.choice(rest) for _ in range(rng.randint(20, 40))))
        renewed = 0
        for line in sorted(lines):
            before = oracle.size()
            with pytest.raises(FsmError):
                oracle.replace(line)
            assert oracle.size() <= ORACLE_MEMO_CAP
            renewed += oracle.size() < before
        assert renewed >= 1  # the cap was reached and the memo started afresh
    assert unknown.replace("bad#") == {"bat#"}
    assert infinite.replace("cb") == {"cb"}


def test_oracle_scans_a_long_line_without_recursion():
    limit = sys.getrecursionlimit()
    rng = random.Random(45)
    line = "".join(rng.choice("abdpt#") for _ in range(5000))
    assert oracle_replace(*_devoice(), line) == _devoice_ref(line)
    assert sys.getrecursionlimit() == limit


def test_oracle_scans_a_long_line_in_linear_time():
    # on a line of a's every position starts a dom(T) walk that stays
    # alive to the end; the facts of a suffix come from its tail's, so the
    # 20 000-symbol lines take one walk each, not one per position
    comp = compile_rules("#alphabet a b.\nreplace([a+, b] x b, [], []).")
    oracle = Oracle(*comp.pieces)
    start = time.process_time()
    for line in ("a" * 20_000, "a" * 12_000 + "b" + "a" * 8_000 + "bb"):
        assert oracle.replace(line) == set(transduce(comp.machine, line).strings())
    assert time.process_time() - start < 5


def test_unknown_symbol_leaves_the_oracle_usable(tb):
    t = rule(tb, literal(tb, "a"), "b")
    eps = empty_string(tb)
    oracle = Oracle(t, eps, eps)
    for _ in range(2):
        with pytest.raises(FsmError):
            oracle.replace("za")
        assert oracle.replace("ca") == {"cb"}


def test_each_span_is_walked_once(monkeypatch):
    # T's outputs are kept by the span they are read from, so a span met
    # in many strings and at many positions is walked once
    tb = SymbolTable("abc")
    a, b, c = (literal(tb, g) for g in "abc")
    t = union(cross_product(concat(a, star(b)), union(c, word(tb, "cc"))),
              cross_product(empty_string(tb), c))
    walked = collections.Counter()
    outputs = _Walker.outputs

    def counted(self, ids):
        walked[tuple(ids)] += 1
        return outputs(self, ids)

    monkeypatch.setattr(_Walker, "outputs", counted)
    oracle = Oracle(t, empty_string(tb), union(c, empty_string(tb)))
    for s in all_strings("abc", 6):
        oracle.replace(s)
    assert oracle.size() < ORACLE_MEMO_CAP  # nothing was started afresh
    assert walked[()] == 1 and walked[tuple(map(tb.id_of, "abbbbb"))] == 1
    assert set(walked.values()) == {1}, walked


# ---------------------------------------------------------------------------
# the split oracle against a split computed afresh for each string


def _match_ends(walker, ids, start):
    """All q >= start with ids[start:q] accepted by the walker's machine,
    read off `_Walker.walk` from `start`."""
    return [start + p for p, k in enumerate(walker.walk(ids[start:]))
            if walker.final[k]]


def test_match_ends_on_an_empty_and_a_dead_prefix():
    tb = SymbolTable("ab")
    ab = [tb.id_of(g) for g in "ab"]
    maybe = _Walker(option(word(tb, "ab")))
    assert _match_ends(maybe, ab, 0) == [0, 2]
    assert _match_ends(maybe, ab, 2) == [2]  # nothing left to read
    assert _match_ends(maybe, ab, 1) == [1]  # b reaches no state
    once = _Walker(word(tb, "ab"))
    assert _match_ends(once, ab, 2) == []
    assert _match_ends(once, ab, 1) == []


def _split_per_string(s, parts):
    """The greedy split of one string on its own: a walker per piece built
    for the call, the match ends from every start position, and the
    (position, piece) pairs that lead to no split kept in a dead set."""
    table = parts[0].table
    ids = [table.id_of(g) for g in s]
    n = len(ids)
    walkers = [_Walker(p) for p in parts]
    ends = [[_match_ends(w, ids, i) for i in range(n + 1)] for w in walkers]
    dead = set()

    def go(i, k):
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


def _concat_per_string(ts, s):
    cuts = _split_per_string(s, ts)
    if cuts is None:
        return set()
    table = ts[0].table
    ids = [table.id_of(g) for g in s]
    per_piece = [["".join(map(table.glyph, o)) for o in _Walker(t).outputs(ids[a:b])]
                 for t, a, b in zip(ts, [0] + cuts, cuts)]
    return {"".join(combo) for combo in itertools.product(*per_piece)}


def _split_rules(seed, count):
    """1-3 pieces over {a, b, #}, each a small regex copied with '#'
    written after it, or a random target."""
    rng = random.Random(seed)
    tb = SymbolTable(["a", "b", "#"])
    mark = cross_product(empty_string(tb), literal(tb, "#"))
    rules = []
    for _ in range(count):
        pieces = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                dom = build_regex(random_regex(rng, "ab", 2), tb)
                pieces.append(concat(identity_lift(dom), mark))
            else:
                pieces.append(random_target(rng, tb))
        rules.append(pieces)
    return rules


def _topological_strings(seed, count):
    """Strings of topological's table made of one word from each piece's
    domain, some of them then damaged: a word swapped for another word or
    a single letter, or one more put in."""
    rng = random.Random(seed)
    domains = [["to", "top"], ["o", "polo"], ["gical", "logical", "ological"]]
    words = sum(domains, ["p", "l", "t", "#"])
    got = {"", "polotopogical"}
    while len(got) < count:
        parts = [rng.choice(d) for d in domains]
        for _ in range(rng.randint(0, 2)):
            k = rng.randrange(len(parts) + 1)
            if k < len(parts) and rng.random() < 0.6:
                parts[k] = rng.choice(words)
            else:
                parts.insert(k, rng.choice(words))
        got.add("".join(parts))
    return [list(s) for s in sorted(got)]


def _ab_strings(seed):
    strings = [list(s) for s in all_strings("ab", 7)]
    random.Random(seed).shuffle(strings)
    return strings


def _split_cases():
    topo = compile_rules((ROOT / "rules" / "topological.fsr").read_text(encoding="utf-8"))
    return ([(pieces, _ab_strings(k)) for k, pieces in enumerate(_split_rules(50, 40))]
            + [(topo.pieces, _topological_strings(51, 400))])


def _agrees(oracle, parts, s):
    assert oracle.split(s) == _split_per_string(s, parts), s
    assert _answer(oracle.concat, s) == _answer(lambda x: _concat_per_string(parts, x), s), s


def test_split_oracle_answers_like_the_split_of_each_string():
    splits = 0
    for parts, strings in _split_cases():
        oracle = SplitOracle(parts)
        for s in strings:
            _agrees(oracle, parts, s)
            splits += oracle.split(s) is not None
    assert splits > 500  # the rules do split strings


def test_lm_oracles_never_reuse_another_rules_split():
    rules = _split_rules(52, 20)
    differed = 0
    for first, second in zip(rules[::2], rules[1::2]):
        for s in _ab_strings(53)[:128]:
            for parts in (first, second):
                assert oracle_lm_split(s, parts) == _split_per_string(s, parts), s
                assert _answer(lambda x: oracle_lm_concat(parts, x), s) == \
                    _answer(lambda x: _concat_per_string(parts, x), s), s
            differed += oracle_lm_split(s, first) != oracle_lm_split(s, second)
    assert differed  # the rules do tell strings apart


def test_split_oracle_memo_stays_under_its_cap(monkeypatch):
    monkeypatch.setattr(fsrw.oracle, "ORACLE_MEMO_CAP", 60)
    renewed = 0
    for parts, strings in _split_cases()[::8]:
        oracle = SplitOracle(parts)
        for s in strings:
            before = oracle.size()
            _agrees(oracle, parts, s)
            assert oracle.size() <= 60
            renewed += oracle.size() < before
    assert renewed >= 1  # the cap was reached and the memo started afresh


def test_each_piece_span_is_walked_once(monkeypatch):
    walked = collections.Counter()
    outputs = _Walker.outputs

    def counted(self, ids):
        walked[id(self), tuple(ids)] += 1
        return outputs(self, ids)

    monkeypatch.setattr(_Walker, "outputs", counted)
    topo = compile_rules((ROOT / "rules" / "topological.fsr").read_text(encoding="utf-8"))
    oracle = SplitOracle(topo.pieces)
    strings = _topological_strings(54, 300)
    for s in strings + strings[::-1]:
        oracle.concat(s)
    assert oracle.size() < ORACLE_MEMO_CAP
    assert len(walked) >= 5 and set(walked.values()) == {1}, walked
