"""Command line front end.

    fsrw compile -r rules.fsr -o out.fst [--cascade]
    fsrw apply -m out.fst [--all] [--limit N] [--on-empty S] < lines
    fsrw dump -m out.fst
    fsrw equiv a.fst b.fst
    fsrw check -r rules.fsr [--samples N] [--max-len N] [--seed N]

Exit codes: 0 success, 1 compile or check failure, 2 unusable input
(missing file, malformed machine file, unsupported rule shape: `check`
on a rule that is neither a replace nor an lm_concat rule, `compile
--cascade` on one that is not a replace rule).
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from typing import Optional, Sequence

from . import dsl, dump, oracle
from .fsm import Fst, FsmError, equivalent, transduce
from .fsm import compose, reduce_pairs  # noqa: F401  patched by bench/spans.py
from .replace import compose_cascade


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(str(exc))
    except UnicodeDecodeError as exc:
        raise _UsageError("%s is not UTF-8 text: %s" % (path, exc))


class _UsageError(Exception):
    pass


def _load_machine(path: str) -> Fst:
    """A machine file holds either one machine or a cascade; a cascade is
    folded back into a single transduction by composition."""
    loaded = dump.load_text(_read(path))
    return loaded if isinstance(loaded, Fst) else compose_cascade(loaded)


# ---------------------------------------------------------------------------
# compile


def cmd_compile(args) -> int:
    comp = dsl.compile_rules(_read(args.rules))
    if args.cascade and comp.kind != "replace":
        raise _UsageError("only a replace rule splits into cascade factors")
    text = dump.dump_text(comp.factors() if args.cascade else comp.machine)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(str(exc))
    return 0


# ---------------------------------------------------------------------------
# apply


def _tokenizer(table):
    glyphs = sorted(table.user_glyphs(), key=len, reverse=True)
    single = all(len(g) == 1 for g in glyphs)
    known = set(glyphs)

    def split(line: str):
        if single:  # the line itself is its glyph sequence
            if known.issuperset(line):
                return line
            raise FsmError("unknown symbol %r"
                           % next(ch for ch in line if ch not in known))
        toks = []
        i = 0
        while i < len(line):
            for g in glyphs:
                if line.startswith(g, i):
                    toks.append(g)
                    i += len(g)
                    break
            else:
                raise FsmError("unknown symbol %r" % line[i])
        return toks

    return split


def cmd_apply(args) -> int:
    m = _load_machine(args.machine)
    split = _tokenizer(m.table)
    out = sys.stdout
    for raw in sys.stdin:
        line = raw.rstrip("\n")
        try:
            toks = split(line)
        except FsmError as exc:
            out.write("*** %s\n" % exc)
            continue
        res = transduce(m, toks, limit=args.limit)
        text = res.joined("\t") if args.all else res.least()
        out.write((args.on_empty if text is None else text) + "\n")
    return 0


# ---------------------------------------------------------------------------
# dump / equiv


def cmd_dump(args) -> int:
    loaded = dump.load_text(_read(args.machine))
    sys.stdout.write(dump.dump_text(loaded))
    return 0


def cmd_equiv(args) -> int:
    a = _load_machine(args.a)
    b = _load_machine(args.b)
    try:
        b = dump.remap(b, a.table)
    except FsmError as exc:
        print("not equivalent: %s" % exc)
        return 1
    if not (a.is_recognizer and b.is_recognizer):
        print("note: comparing transductions arc by arc, not by relation",
              file=sys.stderr)
    if equivalent(a, b):
        print("equivalent")
        return 0
    print("not equivalent")
    return 1


# ---------------------------------------------------------------------------
# check


def _random_inputs(glyphs, samples: int, max_len: int, seed: int):
    if not glyphs:  # the empty string is the only input
        return [()]
    rng = random.Random(seed)
    seen = []
    got = set()
    for _ in range(samples):
        n = rng.randint(0, max_len)
        s = tuple(rng.choice(glyphs) for _ in range(n))
        if s not in got:
            got.add(s)
            seen.append(s)
    return seen


def cmd_check(args) -> int:
    comp = dsl.compile_rules(_read(args.rules))
    if comp.kind == "replace":
        expected = oracle.Oracle(*comp.pieces).replace
    elif comp.kind == "lm_concat":
        expected = oracle.SplitOracle(comp.pieces).concat
    else:
        raise _UsageError("check needs a replace or lm_concat rule")
    inputs = _random_inputs(comp.table.user_glyphs(), args.samples, args.max_len, args.seed)
    checked = skipped = 0
    for toks in inputs:
        res = transduce(comp.machine, toks, limit=256)
        if res.truncated:
            skipped += 1
            continue
        got = set(res.strings())
        want = set(expected(toks))
        if got != want:
            print("mismatch on %r" % "".join(toks))
            print("  machine: %s" % sorted(got))
            print("  expected: %s" % sorted(want))
            return 1
        checked += 1
    print("checked %d inputs: all agree; skipped %d with an infinite output set"
          % (checked, skipped))
    return 0


# ---------------------------------------------------------------------------


def _int_at_least(low: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError("must be a %s integer: %r" % (what, text))
        return value
    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each `parse_args` call returns
    a fresh namespace, so one call's flags never reach the next."""
    ap = argparse.ArgumentParser(prog="fsrw",
                                 description="finite-state rewriting toolkit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("compile", help="compile a rule file to a machine file")
    p.add_argument("-r", "--rules", required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--cascade", action="store_true",
                   help="write the factored pipeline instead of one machine")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("apply", help="run a machine over stdin lines")
    p.add_argument("-m", "--machine", required=True)
    p.add_argument("--all", action="store_true",
                   help="print every output, tab separated")
    p.add_argument("--limit", type=_positive_int, default=64,
                   help="keep the N shortest outputs of an infinite output "
                        "set (default 64); a finite set is printed in full")
    p.add_argument("--on-empty", default="",
                   help="text to print when an input has no output")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("dump", help="normalize a machine file to stdout")
    p.add_argument("-m", "--machine", required=True)
    p.set_defaults(func=cmd_dump)

    p = sub.add_parser("equiv", help="compare two machine files")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("check", help="compare a compiled rule with the oracle")
    p.add_argument("-r", "--rules", required=True)
    p.add_argument("--samples", type=_positive_int, default=200)
    p.add_argument("--max-len", type=_non_negative_int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, dump.DumpFormatError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except FsmError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
