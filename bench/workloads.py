"""The three benchmark workloads.

Each workload is a closed loop with one caller: the next item starts only
when the previous one has returned.  A workload object has

- ``setup()``: build its inputs (repeatable; the runner times it),
- ``run_pass()``: one pass over its fixed items, returning the (start,
  end) of each item, with the outputs kept for checking; it marks the
  clock (bench/clock.py) before each item, or every LINES_PER_PROBE lines,
  so every item lies between two probes,
- ``check()``: compare the kept outputs with their references, returning
  (attempted, failed) over every pass run so far,
- ``report()``: workload-specific figures for the human-readable output,
- ``pass_count(seconds)``: how many passes a run of ``seconds`` makes.

Program code is reached only through module attributes looked up at call
time (``cli.main``, ``fsrw.replace.replace``, ``fsrw.oracle.oracle_replace``
and so on), so the tracer can swap them for timing wrappers.
"""

from __future__ import annotations

import importlib
import io
import math
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import fsrw.capture
import fsrw.cli
import fsrw.dump
import fsrw.fsm
import fsrw.oracle
import fsrw.replace

# the package re-exports the function replace under the submodule's name
replace_module = importlib.import_module("fsrw.replace")

import gen
import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

perf = time.perf_counter


def _machine_size(text: str) -> tuple:
    """(states, arcs) summed over the sections of a machine file, read
    straight from its text."""
    states = arcs = 0
    for line in text.splitlines():
        if line.startswith("fst "):
            states += int(line.split()[1])
        elif line.startswith("t "):
            arcs += 1
    return states, arcs


def _fold(loaded):
    """One machine from a loaded machine file (a cascade is composed)."""
    if isinstance(loaded, fsrw.fsm.Fst):
        return loaded
    m = loaded[0]
    for part in loaded[1:]:
        m = fsrw.fsm.reduce_pairs(fsrw.fsm.compose(m, part))
    return m


class Workload:
    name = ""
    setup_repeats = 1
    # wall seconds of one pass on the machine the benchmark was built on;
    # a run makes seconds / PASS_WALL_S passes, however fast the program is
    PASS_WALL_S = 1.0
    pass_alias = None  # a second name under which pass_s is printed
    tracer = None  # set while the traced pass runs

    def __init__(self, seed: int, clock):
        self.seed = seed
        self.clock = clock
        self.tmp = None
        self.passes = 0
        self.failed_items: dict = {}  # item -> operations it stands for
        self.errors: list = []

    def close(self):
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    def _fresh_tmp(self):
        self.close()
        self.tmp = Path(tempfile.mkdtemp(prefix="fsrw-bench-",
                                         dir=str(ROOT / ".bench_tmp")))

    def _item(self, label):
        if self.tracer is not None:
            self.tracer.item = label

    def pass_count(self, seconds: float) -> int:
        return max(1, math.ceil(seconds / self.PASS_WALL_S))

    def traced_lines(self) -> dict:
        return {}

    def item_medians(self, by_pass) -> dict:
        return {}

    def tail_ms(self, by_pass) -> float:
        """The 99th percentile latency of an item over the whole run."""
        return _pct(sorted(x for lat in by_pass for x in lat), 99) * 1e3

    def _failed(self) -> int:
        return sum(self.failed_items.values())

    def _fail(self, key, why: str, operations: int = 1):
        self.failed_items[key] = operations
        if len(self.errors) < 10:
            self.errors.append("%s: %s" % (key, why))


# ---------------------------------------------------------------------------
# compile


# (name, rule file, also compiled with --cascade)
CORPUS = [
    ("ab_star", ROOT / "rules" / "ab_star.fsr", True),
    ("abbrev", ROOT / "rules" / "abbrev.fsr", True),
    ("devoice_final", ROOT / "rules" / "devoice_final.fsr", True),
    ("topological", ROOT / "rules" / "topological.fsr", False),
    ("triple_a", ROOT / "rules" / "triple_a.fsr", False),
    ("triple_a_explicit", ROOT / "rules" / "triple_a_explicit.fsr", False),
    ("devoice27", BENCH / "rules" / "devoice27.fsr", True),
    ("cascade27", BENCH / "rules" / "cascade27.fsr", False),
    ("lm3", BENCH / "rules" / "lm3.fsr", False),
    ("lm5", BENCH / "rules" / "lm5.fsr", False),
]

# extra check inputs for rules whose random inputs rarely match
_CHECK_EXTRAS = {
    "abbrev": [("<abbr>", "non-deterministic", " ", "finite", " ",
                "automaton", "</abbr>"),
               ("non-deterministic", " ", "finite", " ", "automaton")],
    "ab_star": [tuple("abbbab"), tuple("bab")],
    "triple_a": [tuple("aaa")],
    "triple_a_explicit": [tuple("aaa")],
}


class CompileWorkload(Workload):
    """Every corpus rule through ``fsrw compile``, and each replace rule
    also through ``fsrw compile --cascade``, in-process via cli.main."""

    name = "compile"
    setup_repeats = 51
    PASS_WALL_S = 2.75
    pass_alias = "compile_s"

    def setup(self):
        self._fresh_tmp()
        self.items = []
        for name, path, cascade in CORPUS:
            local = self.tmp / path.name
            shutil.copyfile(path, local)
            self.items.append((name, local, False))
            if cascade:
                self.items.append((name + ".cascade", local, True))
        self.texts = {name: (self.tmp / path.name).read_text(encoding="utf-8")
                      for name, path, _ in CORPUS}
        self.first = None

    def item_medians(self, by_pass) -> dict:
        return {label: statistics.median(lat[k] for lat in by_pass)
                for k, (label, _, _) in enumerate(self.items)}

    def tail_ms(self, by_pass) -> float:
        """The slowest compile call of a pass, median over the passes: a
        run has too few calls for a percentile, and the slowest call is
        always the same rule."""
        return statistics.median(max(lat) for lat in by_pass) * 1e3

    def run_pass(self):
        lat = []
        dumps = []
        for label, path, cascade in self.items:
            out = self.tmp / (label + ".fst")
            argv = ["compile", "-r", str(path), "-o", str(out)]
            if cascade:
                argv.append("--cascade")
            self._item(label)
            self.clock.mark()
            t0 = perf()
            try:
                rc = fsrw.cli.main(argv)
            except Exception as exc:  # counted as a failed item
                rc = repr(exc)
            lat.append((t0, perf()))
            if rc != 0:
                self._fail(label, "exit %r" % (rc,))
                dumps.append(None)
            else:
                dumps.append(out.read_text(encoding="utf-8"))
        if self.first is None:
            self.first = dumps
        else:
            for (label, _, _), a, b in zip(self.items, self.first, dumps):
                if a != b:
                    self._fail(label, "dump differs between two compiles")
        self.passes += 1
        return lat

    def check(self):
        rng = random.Random(self.seed)
        refs = {}
        for (label, _, _), text in zip(self.items, self.first):
            if text is None:
                continue
            name = label.split(".")[0]
            ref = refs.get(name)
            if ref is None:
                ref = refs[name] = reference.reference_for(name, self.texts[name])
            m = _fold(fsrw.dump.load_text(text))
            glyphs = m.table.user_glyphs()
            inputs = [tuple(rng.choice(glyphs) for _ in range(rng.randint(0, 8)))
                      for _ in range(30)]
            if name in ("cascade27", "devoice27", "lm3", "lm5"):
                inputs += [tuple(gen.short_line(rng, "cascade27", 0, 10))
                           for _ in range(30)]
            if name == "topological":
                inputs += [tuple(gen.short_line(rng, "topological"))
                           for _ in range(30)]
            inputs += _CHECK_EXTRAS.get(name, [])
            for toks in inputs:
                got = set(fsrw.fsm.transduce(m, toks).strings())
                want = ref(toks)
                if got != want:
                    self._fail(label, "%r: machine %s, reference %s"
                               % ("".join(toks), sorted(got), sorted(want)))
                    break
        # outputs repeat exactly between passes (checked above), so an
        # item that failed once failed in every pass
        return len(self.items) * self.passes, self._failed() * self.passes

    def sizes(self):
        states = arcs = 0
        for text in self.first:
            if text is not None:
                s, a = _machine_size(text)
                states += s
                arcs += a
        return states, arcs

    def report(self, by_pass):
        states, arcs = self.sizes()
        return {"machine_states": (states, "count"),
                "machine_arcs": (arcs, "count")}


# ---------------------------------------------------------------------------
# apply


# (name, rule file, compiled with --cascade, applied with --all)
MACHINES = [
    ("devoice_final", ROOT / "rules" / "devoice_final.fsr", True, False),
    ("topological", ROOT / "rules" / "topological.fsr", False, False),
    ("cascade27", BENCH / "rules" / "cascade27.fsr", False, False),
    ("ambiguous", BENCH / "rules" / "ambiguous.fsr", False, True),
]
SHORT_LINES = {"devoice_final": 6000, "topological": 6000,
               "cascade27": 6000, "ambiguous": 2000}
LADDER = (1000, 3000, 10000)
LADDER_MACHINES = ("devoice_final", "cascade27")


LINES_PER_PROBE = 250


class _Feeder:
    """Stands in for sys.stdin: hands out lines and stamps each one,
    probing the clock every LINES_PER_PROBE lines (before the stamp, so
    the probe is in no line's latency)."""

    def __init__(self, lines, stamps, clock, tracer=None, labels=None):
        self.lines = lines
        self.stamps = stamps
        self.clock = clock
        self.tracer = tracer
        self.labels = labels

    def __iter__(self):
        for k, line in enumerate(self.lines):
            if self.tracer is not None:
                self.tracer.item = self.labels[k]
            if k and k % LINES_PER_PROBE == 0:
                self.clock.mark()
            self.stamps.append(perf())
            yield line + "\n"


class _Sink(io.TextIOBase):
    """Stands in for sys.stdout: keeps each written line and stamps it."""

    def __init__(self, stamps):
        self.stamps = stamps
        self.out = []

    def write(self, s):
        self.stamps.append(perf())
        self.out.append(s)
        return len(s)


class ApplyWorkload(Workload):
    """``fsrw apply`` in-process over seeded short lines on four machines,
    then a ladder of long lines through the two functional replace
    machines."""

    name = "apply"
    setup_repeats = 5
    PASS_WALL_S = 6.0

    def setup(self):
        self._fresh_tmp()
        self.paths = {}
        for name, path, cascade, _ in MACHINES:
            out = self.tmp / (name + ".fst")
            argv = ["compile", "-r", str(path), "-o", str(out)]
            if cascade:
                argv.append("--cascade")
            rc = fsrw.cli.main(argv)
            if rc != 0:
                raise RuntimeError("compiling %s failed with exit %d" % (name, rc))
            fsrw.dump.load_text(out.read_text(encoding="utf-8"))
            self.paths[name] = out
        rng = random.Random(self.seed)
        self.runs = []  # (machine, kind, lines, --all)
        for name, _, _, all_outputs in MACHINES:
            lines = [gen.short_line(rng, name, index=k)
                     for k in range(SHORT_LINES[name])]
            self.runs.append((name, "short", lines, all_outputs))
        for name in LADDER_MACHINES:
            lines = [gen.long_line(rng, name, n) for n in LADDER]
            self.runs.append((name, "long", lines, False))
        self.first = None
        self.item_kinds = [kind for _, kind, lines, _ in self.runs for _ in lines]

    def run_pass(self):
        lat = []
        outs = []
        self.last_short = []
        for name, kind, lines, all_outputs in self.runs:
            argv = ["apply", "-m", str(self.paths[name])]
            if all_outputs:
                argv.append("--all")
            t_in, t_out = [], []
            labels = ["%s:%s:%d" % (kind, name, k) for k in range(len(lines))]
            sink = _Sink(t_out)
            saved = sys.stdin, sys.stdout
            sys.stdin = _Feeder(lines, t_in, self.clock, self.tracer, labels)
            sys.stdout = sink
            self.clock.mark()
            try:
                rc = fsrw.cli.main(argv)
            except Exception as exc:  # counted as failed lines
                rc = repr(exc)
            finally:
                sys.stdin, sys.stdout = saved
            if rc != 0 or len(t_out) != len(lines):
                self._fail(name, "apply exit %r, %d of %d lines written"
                           % (rc, len(t_out), len(lines)), len(lines))
                outs.append([None] * len(lines))
                continue
            lat.extend(zip(t_in, t_out))
            if kind == "short":
                self.last_short.extend((label, b - a) for label, a, b
                                       in zip(labels, t_in, t_out))
            outs.append([s.rstrip("\n") for s in sink.out])
        if self.first is None:
            self.first = outs
        elif outs != self.first:
            self._fail("outputs", "a pass printed other lines than the first")
        self.passes += 1
        return lat

    def check(self):
        rule_files = {name: path for name, path, _, _ in MACHINES}
        for (name, kind, lines, all_outputs), printed in zip(self.runs, self.first):
            if kind == "short":  # the oracle
                want_of = reference.OracleReference(
                    rule_files[name].read_text(encoding="utf-8"))
            else:  # too long for the oracle's recursion
                want_of = reference.HANDWRITTEN[name]
            wanted = {}
            for k, (line, got) in enumerate(zip(lines, printed)):
                want = wanted.get(line)
                if want is None:
                    want = wanted[line] = reference.cli_line(want_of(line),
                                                             all_outputs)
                if got != want:
                    self._fail("%s:%s:%d" % (kind, name, k),
                               "%r printed %r, reference %r"
                               % (line[:40], (got or "")[:60], want[:60]))
        total = sum(len(lines) for _, _, lines, _ in self.runs)
        return total * self.passes, self._failed() * self.passes

    def traced_lines(self) -> dict:
        return dict(self.last_short)

    def sizes(self):
        states = arcs = 0
        for path in self.paths.values():
            s, a = _machine_size(path.read_text(encoding="utf-8"))
            states += s
            arcs += a
        return states, arcs

    def report(self, by_pass):
        """Rates are per second of line latency (machine loading left
        out)."""
        short, long_time = [], 0.0
        for lat in by_pass:
            for kind, x in zip(self.item_kinds, lat):
                if kind == "short":
                    short.append(x)
                else:
                    long_time += x
        short.sort()
        long_syms = sum(len(l) for _, kind, lines, _ in self.runs
                        if kind == "long" for l in lines) * len(by_pass)
        return {
            "lines_per_s": (len(short) / sum(short), "1/s"),
            "line_ms_p50": (_pct(short, 50) * 1e3, "ms"),
            "line_ms_p99": (_pct(short, 99) * 1e3, "ms"),
            "short_line_samples": (len(short), "count"),
            "long_symbols_per_s": (long_syms / long_time, "1/s"),
        }


# ---------------------------------------------------------------------------
# verify

# One batch is one pass: REPLACE_SLOTS replace rules (a third each over
# one, two and three symbols) and LM_RULES greedy splits, checked on every
# input of at most MAX_LEN symbols.  Each pass takes the next batch, so a
# run checks many distinct rules and its figures do not hang on a few
# expensive ones; after BATCHES passes the batches repeat.  The pass count
# is fixed (pass_count), so a run of given seconds always checks the same
# batches.
REPLACE_SLOTS = 48
LM_RULES = 16
MAX_LEN = 5
BATCHES = 12


class VerifyWorkload(Workload):
    """Seeded small rules compiled through the library and compared with
    the scanning oracle on every input up to MAX_LEN symbols."""

    name = "verify"
    setup_repeats = 9
    PASS_WALL_S = 4.4
    pass_alias = "verify_s"

    def setup(self):
        rng = random.Random(self.seed)
        self.batches = []
        for _ in range(BATCHES):
            batch = []
            for slot in range(REPLACE_SLOTS):
                table, t, left, right = gen.replace_rule(rng, slot)
                inputs = gen.all_strings(table.user_glyphs(), MAX_LEN)
                batch.append(("replace", (t, left, right), inputs))
            for _ in range(LM_RULES):
                table, doms, pieces = gen.lm_instance(rng)
                inputs = gen.all_strings(("a", "b"), MAX_LEN)
                batch.append(("lm_concat", (doms, pieces), inputs))
            self.batches.append(batch)
        self.next_batch = 0
        self.first = None

    def _check_rule(self, kind, args, inputs):
        """Compile one rule and compare it with the oracle; returns the
        machine and the first disagreement, if any."""
        if kind == "replace":
            t, left, right = args
            m = replace_module.replace(t, left, right)
        else:
            doms, pieces = args
            m = fsrw.capture.lm_concat(pieces)
        rel = {}
        for inp, out in fsrw.fsm.enumerate_pairs(m, MAX_LEN):
            rel.setdefault(inp, set()).add("".join(out))
        for s in inputs:
            if kind == "replace":
                want = fsrw.oracle.oracle_replace(t, left, right, list(s))
            else:
                cuts = fsrw.oracle.oracle_lm_split(list(s), doms)
                want = set()
                if cuts is not None:
                    want = {"".join("".join(s[a:b]) + "#"
                                    for a, b in zip([0] + cuts, cuts))}
            got = rel.get(tuple(s), set())
            if got != want:
                return m, "%r: machine %s, oracle %s" % ("".join(s), sorted(got),
                                                         sorted(want))
        return m, None

    def run_pass(self):
        b = self.next_batch
        self.next_batch = (b + 1) % BATCHES
        lat = []
        sizes = []
        for k, (kind, args, inputs) in enumerate(self.batches[b]):
            label = "batch %d rule %d (%s)" % (b, k, kind)
            self._item(label)
            self.clock.mark()
            t0 = perf()
            try:
                m, bad = self._check_rule(kind, args, inputs)
            except Exception as exc:  # counted as a failed rule
                m, bad = None, repr(exc)
            lat.append((t0, perf()))
            if bad is not None:
                self._fail(label, bad)
            sizes.append((0, 0) if m is None else (m.n, len(m.arcs)))
        if self.first is None:
            self.first = sizes
        self.passes += 1
        return lat

    def check(self):
        return self.passes * (REPLACE_SLOTS + LM_RULES), self._failed()

    def tail_ms(self, by_pass) -> float:
        """The 90th percentile rule check.  A run has a few hundred checks,
        so the 99th percentile would rest on three of them."""
        return _pct(sorted(x for lat in by_pass for x in lat), 90) * 1e3

    def sizes(self):
        """States and arcs summed over the first batch's machines."""
        return sum(s for s, _ in self.first), sum(a for _, a in self.first)

    def report(self, by_pass):
        states, arcs = self.sizes()
        return {"rules_checked": (self.passes * (REPLACE_SLOTS + LM_RULES), "count"),
                "machine_states": (states, "count"),
                "machine_arcs": (arcs, "count")}


def _pct(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return float("nan")
    k = max(0, min(len(sorted_values) - 1,
                   int(round(p / 100.0 * len(sorted_values) + 0.5)) - 1))
    return sorted_values[k]


WORKLOADS = {
    "compile": CompileWorkload,
    "apply": ApplyWorkload,
    "verify": VerifyWorkload,
}
