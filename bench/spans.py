"""Per-layer tracing from outside the program.

``Tracer.install()`` swaps public names for timing wrappers in the
namespace where each caller looks them up (``fsrw.replace.compose``,
``fsrw.replace.f_phi``, ``fsrw.dsl._replace``, ``fsrw.cli.transduce``, the
methods of ``MarkerKit`` and so on).  Each call records a span: name,
start, end, parent span, the workload item being processed, and the state
and arc counts of the machine it returns.  Spans stay in memory until the
run ends.  ``uninstall()`` puts the originals back.

``layer_metrics`` turns the spans into the per-layer figures; a span's self
time is its duration minus the time its child spans cover.  The ``fsm.*``
call counts come from a separate cProfile pass (``profile_counts``),
because the primitives are called from everywhere and wrapping them would
cost more than the work they do on small machines.
"""

from __future__ import annotations

import cProfile
import importlib
import json
import os
import pstats
import time

import fsrw.capture
import fsrw.cli
import fsrw.dsl
import fsrw.dump
import fsrw.fsm
import fsrw.markers
import fsrw.oracle
import fsrw.replace

# the package re-exports the function replace under the submodule's name
replace_module = importlib.import_module("fsrw.replace")

perf = time.perf_counter

FACTORS = ("non_markers", "r_right", "f_phi", "left_to_right",
           "longest_match", "aux_replace", "l1", "l2", "inverse")
STEPS = 8
FILTERS = 4
PROFILED = ("_finish", "_subset_construct", "_moore_minimize_dfa", "compose",
            "intersection", "complement", "reduce_pairs")


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "child",
                 "states", "arcs", "extra")

    def __init__(self, name, parent, item):
        self.name = name
        self.parent = parent
        self.item = item
        self.child = 0.0
        self.states = self.arcs = None
        self.extra = None

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.dur - self.child


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.item = None
        self._saved = []

    # wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, extra=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            sp = Span(name, stack[-1] if stack else None, tracer.item)
            tracer.spans.append(sp)
            stack.append(sp)
            sp.start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = perf()
                stack.pop()
                if sp.parent is not None:
                    sp.parent.child += sp.end - sp.start
            if isinstance(result, fsrw.fsm.Fst):
                sp.states, sp.arcs = result.n, len(result.arcs)
            if extra is not None:
                sp.extra = extra(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr, name, extra=None):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(orig, property):
            new = property(self._wrap(orig.fget, name, extra))
        else:
            new = self._wrap(orig, name, extra)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, new)

    def install(self):
        dsl, rep, cap = fsrw.dsl, replace_module, fsrw.capture
        self.patch(dsl, "parse_program", "dsl.parse")
        self.patch(dsl, "macro_env", "dsl.expand")
        self.patch(dsl, "expand_macros", "dsl.expand")
        self.patch(dsl.Compiler, "compile", "dsl.build")
        self.patch(dsl, "_replace", "replace.replace")
        self.patch(dsl, "_replace_factors", "replace.factors")
        self.patch(dsl, "_lm_concat", "capture.lm_concat")

        kit = fsrw.markers.MarkerKit
        self.patch(kit, "__init__", "markers.kit")
        for attr, value in list(vars(kit).items()):
            if not attr.startswith("_") and (callable(value) or isinstance(value, property)):
                self.patch(kit, attr, "markers." + attr)

        self.patch(rep, "replace", "replace.replace")
        self.patch(rep, "replace_factors", "replace.factors")
        for f in FACTORS[1:-1]:
            self.patch(rep, f, "replace.factor." + f)
        self.patch(rep, "invert", "replace.invert")
        self.patch(rep, "compose", "replace.compose")
        self.patch(rep, "reduce_pairs", "replace.reduce_pairs")

        self.patch(cap, "lm_concat", "capture.lm_concat")
        self.patch(cap, "boundaries", "capture.boundaries")
        self.patch(cap, "greed_filters", "capture.greed_filters")
        self.patch(cap, "complement", "capture.complement")
        self.patch(cap, "compose", "capture.compose")
        self.patch(cap, "reduce_pairs", "capture.compose")

        self.patch(fsrw.dump, "dump_text", "dump.dump", extra=lambda s: len(s.encode("utf-8")))
        self.patch(fsrw.dump, "load_text", "dump.load")
        self.patch(fsrw.cli, "compose", "cli.fold")
        self.patch(fsrw.cli, "reduce_pairs", "cli.fold")
        self.patch(fsrw.cli, "transduce", "fsm.transduce", extra=len)

        self.patch(fsrw.oracle, "oracle_replace", "oracle.replace")
        self.patch(fsrw.oracle, "oracle_lm_split", "oracle.lm_split")
        self.patch(fsrw.fsm, "enumerate_pairs", "fsm.enumerate_pairs")

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def write(self, path):
        """Write every span as one JSON line."""
        index = {id(sp): k for k, sp in enumerate(self.spans)}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for k, sp in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": k, "name": sp.name, "start": sp.start, "end": sp.end,
                    "parent": None if sp.parent is None else index[id(sp.parent)],
                    "item": sp.item, "states": sp.states, "arcs": sp.arcs,
                    "extra": sp.extra}) + "\n")


# ---------------------------------------------------------------------------
# metrics


def layer_names():
    """Every per-layer metric the traced run reports, with its unit."""
    names = [("dsl.parse_s", "s"), ("dsl.expand_s", "s"), ("dsl.build_s", "s"),
             ("markers.kits", "count"), ("markers.self_s", "s")]
    for f in FACTORS:
        names += [("replace.factor.%s_s" % f, "s"), ("replace.factor.%s.arcs" % f, "count")]
    for k in range(1, STEPS + 1):
        names += [("replace.step.%d.compose_s" % k, "s"),
                  ("replace.step.%d.reduce_s" % k, "s"),
                  ("replace.step.%d.arcs_composed" % k, "count"),
                  ("replace.step.%d.arcs_reduced" % k, "count")]
    names.append(("capture.boundaries_s", "s"))
    for i in range(1, FILTERS + 1):
        names += [("capture.filter.%d_s" % i, "s"), ("capture.filter.%d.arcs" % i, "count")]
    names.append(("capture.compose_s", "s"))
    for p in PROFILED:
        names += [("fsm.%s.calls" % p, "count"), ("fsm.%s.self_s" % p, "s")]
    names += [("fsm.transduce.short_s", "s"), ("fsm.transduce.long_s", "s"),
              ("fsm.transduce.outputs", "count"),
              ("dump.dump_s", "s"), ("dump.load_s", "s"), ("dump.bytes", "count"),
              ("cli.cascade_fold_s", "s"), ("cli.line_overhead_s", "s"),
              ("oracle.replace_s", "s"), ("oracle.lm_split_s", "s"),
              ("fsm.enumerate_pairs_s", "s")]
    return names


def layer_metrics(spans, line_latency):
    """Per-layer figures from the spans of one traced set-up and pass.

    ``line_latency`` maps an apply line's item label to its latency, for
    the per-line overhead outside transduce."""
    out = {name: 0 for name, _ in layer_names()}

    def add(key, value):
        if value is not None:  # None: the call raised before returning
            out[key] += value

    def outermost(sp):
        return sp.parent is None or sp.parent.name != sp.name

    encoder_seen: set = set()
    step_of: dict = {}
    filter_start: dict = {}
    filters_seen: dict = {}
    transduce_by_item: dict = {}
    for sp in spans:
        name, parent = sp.name, sp.parent
        pname = parent.name if parent is not None else None
        if name == "dsl.parse":
            add("dsl.parse_s", sp.dur)
        elif name == "dsl.expand":
            if outermost(sp):
                add("dsl.expand_s", sp.dur)
        elif name == "dsl.build":
            add("dsl.build_s", sp.self_time)
        elif name.startswith("markers."):
            if name == "markers.kit":
                add("markers.kits", 1)
            add("markers.self_s", sp.self_time)
            if name == "markers.non_markers" and pname == "replace.factors" \
                    and id(parent) not in encoder_seen:
                # the first factor; the ninth reads the cached encoder again
                encoder_seen.add(id(parent))
                add("replace.factor.non_markers_s", sp.dur)
                add("replace.factor.non_markers.arcs", sp.arcs)
            elif name == "markers.ignx_1" and pname == "capture.greed_filters":
                filter_start.setdefault(id(parent), []).append(sp.start)
        elif name.startswith("replace.factor."):
            add(name + "_s", sp.dur)
            add(name + ".arcs", sp.arcs)
        elif name == "replace.invert" and pname == "replace.factors":
            add("replace.factor.inverse_s", sp.dur)
            add("replace.factor.inverse.arcs", sp.arcs)
        elif name in ("replace.compose", "replace.reduce_pairs") and pname == "replace.replace":
            if name == "replace.compose":
                k = step_of[id(parent)] = step_of.get(id(parent), 0) + 1
                if k <= STEPS:
                    add("replace.step.%d.compose_s" % k, sp.dur)
                    add("replace.step.%d.arcs_composed" % k, sp.arcs)
            else:
                k = step_of.get(id(parent), 0)
                if 1 <= k <= STEPS:
                    add("replace.step.%d.reduce_s" % k, sp.dur)
                    add("replace.step.%d.arcs_reduced" % k, sp.arcs)
        elif name == "capture.boundaries":
            add("capture.boundaries_s", sp.dur)
        elif name == "capture.complement" and pname == "capture.greed_filters":
            i = filters_seen[id(parent)] = filters_seen.get(id(parent), 0) + 1
            starts = filter_start.get(id(parent), [])
            start = starts[i - 1] if i <= len(starts) else sp.start
            if i <= FILTERS:
                add("capture.filter.%d_s" % i, sp.end - start)
                add("capture.filter.%d.arcs" % i, sp.arcs)
        elif name == "capture.compose":
            add("capture.compose_s", sp.dur)
        elif name == "fsm.transduce":
            kind = (sp.item or "").split(":")[0]
            if kind == "short":
                add("fsm.transduce.short_s", sp.dur)
                add("fsm.transduce.outputs", sp.extra)
            elif kind == "long":
                add("fsm.transduce.long_s", sp.dur)
            transduce_by_item[sp.item] = transduce_by_item.get(sp.item, 0.0) + sp.dur
        elif name == "dump.dump":
            add("dump.dump_s", sp.dur)
            add("dump.bytes", sp.extra)
        elif name == "dump.load":
            add("dump.load_s", sp.dur)
        elif name == "cli.fold":
            add("cli.cascade_fold_s", sp.dur)
        elif name == "oracle.replace":
            add("oracle.replace_s", sp.dur)
        elif name == "oracle.lm_split":
            add("oracle.lm_split_s", sp.dur)
        elif name == "fsm.enumerate_pairs":
            add("fsm.enumerate_pairs_s", sp.dur)
    for item, lat in line_latency.items():
        add("cli.line_overhead_s", lat - transduce_by_item.get(item, 0.0))
    return out


def profile_counts(fn):
    """Run fn under cProfile; calls and self time of the fsm primitives."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    stats = pstats.Stats(prof).stats
    suffix = os.path.join("fsrw", "fsm.py")
    out = {}
    for p in PROFILED:
        out["fsm.%s.calls" % p] = 0
        out["fsm.%s.self_s" % p] = 0.0
    for (path, _, func), (_, ncalls, tottime, _, _) in stats.items():
        if path.endswith(suffix) and func in PROFILED:
            out["fsm.%s.calls" % func] += ncalls
            out["fsm.%s.self_s" % func] += tottime
    return out
