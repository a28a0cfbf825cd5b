"""The marker filters built as one-direction scans against the formulas
they replace.

`mark_iff`, `guard_before` and `not_contains` must build the very machine
that the paper's formulas `l_iff_r`, `if_s_then_p` and `not($$(...))`
build, compiled from the rule language's predefined macros: both sides
are canonical minimal machines, so equal languages give equal structure.
The inputs are the ones the replace factors pass, recorded while compiling
seeded random rules."""

import importlib
import random

import pytest

import fsrw.markers as markers
from fsrw import (
    EPS,
    FsmError,
    MarkerKit,
    SymbolTable,
    accepts,
    empty_lang,
    empty_string,
    literal,
    minimize,
    project,
    replace_factors,
    star,
    union,
)

from gen import formula, random_replace_rule

replace_module = importlib.import_module("fsrw.replace")


def l_iff_r(cell, p):
    return formula(cell.table, "l_iff_r(C, P)", C=cell, P=p)


def if_s_then_p(a, cell):
    """`if_s_then_p(a, [cell, xsig()*])`: the formula `guard_before` stands
    for."""
    return formula(a.table, "if_s_then_p(A, [C, xsig()*])", A=a, C=cell)


def not_contains(k):
    return formula(k.table, "not($$(K))", K=k)


class RecordingKit(MarkerKit):
    """A kit that checks every scan it builds against its reference."""

    calls: list = []

    def mark_iff(self, cell, p):
        got = super().mark_iff(cell, p)
        self.calls.append(("mark_iff", got, l_iff_r(cell, p), p))
        return got

    def guard_before(self, cell, a):
        got = super().guard_before(cell, a)
        self.calls.append(("guard_before", got, if_s_then_p(a, cell), a))
        return got

    def not_contains(self, k):
        got = super().not_contains(k)
        self.calls.append(("not_contains", got, not_contains(k), k))
        return got


def test_scans_match_their_formulas_on_random_rules(monkeypatch):
    monkeypatch.setattr(replace_module, "MarkerKit", RecordingKit)
    rng = random.Random(20261018)
    seen = {"phi_eps": 0, "input_eps": 0, "optimized": 0, "unsafe": 0,
            "k_empty": 0}
    checked = {"mark_iff": 0, "guard_before": 0, "not_contains": 0}
    for k in range(320):
        table, t, left, right = random_replace_rule(rng)
        optimized = rng.random() < 0.5
        stack_safe = rng.random() < 0.7
        seen["phi_eps"] += project(t, "domain").accepts_epsilon()
        seen["input_eps"] += any(i == EPS for _, i, _, _ in t.arcs)
        seen["optimized"] += optimized
        seen["unsafe"] += not stack_safe
        RecordingKit.calls = []
        # an empty store, so that no stored factor skips a scan
        monkeypatch.setattr(markers, "_shape_cache", {})
        monkeypatch.setattr(markers, "_shape_cache_arcs", 0)
        replace_factors(t, left, right, optimized, stack_safe)
        for name, got, want, arg in RecordingKit.calls:
            assert got.same_structure(want), (k, name)
            checked[name] += 1
            if name == "not_contains":
                seen["k_empty"] += arg.is_empty()
    # every rule marks left brackets and guards both of them; right
    # brackets are marked through mark_iff unless Right accepts []
    assert checked["guard_before"] == 2 * 320
    assert checked["not_contains"] == 320
    assert checked["mark_iff"] > 320
    for what, count in seen.items():
        assert count >= 10, (what, seen)


@pytest.fixture
def kit():
    return MarkerKit(SymbolTable("ab"))


def test_not_contains_edge_cases(kit):
    # an empty K excludes nothing, a K holding [] excludes everything
    for k in (empty_lang(kit.table), empty_string(kit.table),
              star(kit.lb1), union(kit.rb2, empty_string(kit.table))):
        assert kit.not_contains(k).same_structure(not_contains(k))
    assert kit.not_contains(empty_lang(kit.table)).same_structure(
        minimize(kit.xsig_star))
    assert kit.not_contains(empty_string(kit.table)).is_empty()


def test_mark_iff_and_guard_before_edge_cases(kit):
    t = kit.table
    a = kit.non_markers_of(literal(t, "a"))
    for p in (empty_lang(t), empty_string(t), a, star(a), kit.xsig_star):
        for cell in (kit.lb2, kit.rb2, kit.lb):
            assert kit.mark_iff(cell, p).same_structure(l_iff_r(cell, p))
            assert kit.guard_before(cell, p).same_structure(if_s_then_p(p, cell))


def test_mark_iff_reads_bracket_glyphs_as_text(kit):
    # "<2" with flag 0 is an ordinary cell, so it neither marks nor needs
    # to be marked; only "<2" with flag 1 is the marker
    a = kit.non_markers_of(literal(kit.table, "a"))
    m = kit.mark_iff(kit.lb2, a)
    assert accepts(m, ["<2", "1", "a", "0"])
    assert accepts(m, ["<2", "0", "<2", "1", "a", "0"])
    assert not accepts(m, ["<2", "0", "a", "0"])
    assert not accepts(m, ["<2", "1", "b", "0"])


def test_the_scans_refuse_a_transduction(kit):
    # like `not_`, which is a difference: a scan reads a language of cell
    # strings, not the input side of a transduction
    t = kit.cross(kit.sig, kit.lb1)
    for scan in (lambda: kit.guard_before(kit.lb1, t),
                 lambda: kit.guard_before(t, kit.xsig_star),
                 lambda: kit.mark_iff(kit.lb1, t),
                 lambda: kit.mark_iff(t, kit.sig),
                 lambda: kit.not_contains(t),
                 lambda: kit.not_(t)):
        with pytest.raises(FsmError, match="of a transduction is undefined"):
            scan()
