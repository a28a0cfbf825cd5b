"""Correctness references that do not use the rule compiler.

A compiled machine is checked against one of two references:

- the scanning oracle (``fsrw.oracle``), which recomputes replace and
  lm_concat semantics by brute force from a rule's pieces (the target and
  contexts, or the split pieces), never from the nine-factor or
  greed-filter construction.  It recurses once per input symbol, so it is
  used on short inputs only;
- hand-written Python ``re`` equivalents of the functional machines whose
  long lines the apply workload runs, and of the two plain recognizers in
  the corpus, which the oracle does not cover.
"""

from __future__ import annotations

import re

from fsrw import compile_program, dsl, oracle

# ---------------------------------------------------------------------------
# hand-written references, by machine name

_DEVOICE = {"b": "p", "d": "t", "g": "k", "v": "f", "z": "s"}


def _devoice_final(line: str) -> set:
    return {re.sub(r"[bd](?=#)", lambda m: _DEVOICE[m.group()], line)}


def _cascade27(line: str) -> set:
    s = re.sub(r"[bdgvz](?=#)", lambda m: _DEVOICE[m.group()], line)
    s = re.sub(r"n(?=[pb])", "m", s)
    s = re.sub(r"ee", "i", s)
    # the left context of the last rule reads the output tape, but the
    # rule only turns s into z, so a vowel before an s is never rewritten
    s = re.sub(r"(?<=[aeiou])s(?=[aeiou])", "z", s)
    return {s}


def _triple_a(line: str) -> set:
    return {line} if line == "aaa" else set()


HANDWRITTEN = {
    "devoice_final": _devoice_final,
    "cascade27": _cascade27,
    "triple_a": _triple_a,
    "triple_a_explicit": _triple_a,
}

# ---------------------------------------------------------------------------
# oracle references, built from a rule file's pieces


def _stages(node) -> list:
    """The replace rules of a composition chain, in application order."""
    if isinstance(node, dsl.Compose):
        return _stages(node.left) + _stages(node.right)
    if isinstance(node, dsl.Replace):
        return [node]
    raise ValueError("not a composition of replace rules")


class OracleReference:
    """Outputs of a rule file recomputed by the scanning oracle.

    Covers replace rules, lm_concat rules and compositions of replace
    rules (applied stage by stage; their glyphs must be single
    characters).  Inputs are glyph sequences; outputs are joined strings.
    """

    def __init__(self, text: str):
        comp = dsl.compile_rules(text)
        self.glyphs = comp.table.user_glyphs()
        self.kind = comp.kind
        if comp.kind == "replace":
            self.stages = [comp.pieces]
        elif comp.kind == "lm_concat":
            self.parts = comp.pieces
        else:
            self.stages = [tuple(compile_program(x, comp.table)
                                 for x in (n.target, n.left, n.right))
                           for n in _stages(comp.ast)]

    def __call__(self, toks) -> set:
        if self.kind == "lm_concat":
            return oracle.oracle_lm_concat(self.parts, list(toks))
        outs = {tuple(toks)}
        for t, left, right in self.stages:
            outs = {tuple(o) for s in outs
                    for o in oracle.oracle_replace(t, left, right, list(s))}
        return {"".join(o) for o in outs}


def reference_for(name: str, text: str):
    """The reference for a corpus or apply machine: the hand-written one
    for plain recognizers, else the oracle."""
    if name in ("triple_a", "triple_a_explicit"):
        fn = HANDWRITTEN[name]
        return lambda toks: fn("".join(toks))
    return OracleReference(text)


def cli_line(outputs: set, all_outputs: bool) -> str:
    """What ``fsrw apply`` prints for an input with these outputs."""
    if not outputs:
        return ""
    ordered = sorted(outputs)
    return "\t".join(ordered) if all_outputs else ordered[0]
