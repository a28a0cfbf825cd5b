"""The fsrw benchmark.

    python3 bench/run.py --workload compile --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                  # every workload, one fresh process each

A run sets its workload up several times (the median is ``setup_s``), then
runs a fixed number of passes over the workload's items (as many as fit
``--seconds`` at the pass time the workload was built with, so that every
version of the program is measured on the same items), then checks every
output against its reference.  Times
are scaled by a reference probe to cancel the machine's drifting speed
(bench/clock.py); bench/README.md defines every metric.  With
``--trace 1`` it then also sets up and runs one pass with the tracing
wrappers installed, and one pass under cProfile, and reports per-layer
figures instead of end-to-end ones.  Spans are written to
``.bench_traces/`` in the checkout.

Every metric is printed on its own line as ``metric <name> <value>
<unit>``; the last line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any output disagreed
with its reference or an operation failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import spec

perf = time.perf_counter


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all"] + [n for n, _ in spec.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import fsrw.cli; "
                "print(time.perf_counter() - t)")
IMPORT_REPEATS = 5


def _import_seconds(clock) -> tuple:
    """Median (scaled, wall) time a fresh interpreter takes to import the
    program (fsrw.cli pulls in every module).  Printed as import_s, so that
    work moved to import time is on record; it is not part of setup_s."""
    scaled, wall = [], []
    for _ in range(IMPORT_REPEATS):
        clock.mark()
        t0 = perf()
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE,
                              str(spec.ROOT / "src")],
                             stdout=subprocess.PIPE, text=True, check=True)
        clock.mark()
        took = float(out.stdout)
        wall.append(took)
        scaled.append(clock.scaled(t0, t0 + took))
    return statistics.median(scaled), statistics.median(wall)


def _metric_line(name, value, unit):
    print("metric %s %s %s" % (name, value, unit))


def _timed_pass(wl, clock):
    """One pass; returns its scaled and wall time and the scaled latency
    of each item.  Probe time is in none of them."""
    gc.collect()  # the previous pass's garbage is not this pass's cost
    first = len(clock.starts)
    intervals = wl.run_pass()
    clock.mark()
    last = len(clock.starts) - 1
    wall = sum(clock.starts[k + 1] - clock.ends[k] for k in range(first, last))
    return (clock.scaled_span(first, last), wall,
            [clock.scaled(a, b) for a, b in intervals])


def run_workload(args) -> int:
    spec.use_checkout_sources()
    import clock as clock_module
    import spans
    import workloads

    (spec.ROOT / ".bench_tmp").mkdir(exist_ok=True)
    clock = clock_module.Clock()
    wl = workloads.WORKLOADS[args.workload](args.seed, clock)
    try:
        import_s, import_wall = _import_seconds(clock)
        setups, setup_walls = [], []
        for _ in range(wl.setup_repeats):
            clock.mark()
            t0 = perf()
            wl.setup()
            t1 = perf()
            clock.mark()
            setups.append(clock.scaled(t0, t1))
            setup_walls.append(t1 - t0)
        first_probe = len(clock.starts)
        passes, walls, by_pass, peaks = [], [], [], []
        with clock_module.RssSampler() as sampler:
            sampler.release()
            base_rss = sampler.rss()
            for _ in range(wl.pass_count(args.seconds)):
                sampler.release()
                start_rss = sampler.rss()
                sampler.take_peak()
                scaled, wall, lat = _timed_pass(wl, clock)
                passes.append(scaled)
                walls.append(wall)
                by_pass.append(lat)
                peaks.append(sampler.take_peak() - start_rss)
        maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        items = sorted(x for lat in by_pass for x in lat)
        end_to_end = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(passes),
            "item_ms_p50": workloads._pct(items, 50) * 1e3,
            "item_ms_tail": wl.tail_ms(by_pass),
            "peak_rss_mb": (base_rss + statistics.median(peaks)) / 2.0 ** 20,
        }
        probes = clock.probe_times(first_probe)
        extra = {"import_s": (import_s, "s"),
                 "import_wall_s": (import_wall, "s"),
                 "setup_wall_s": (statistics.median(setup_walls), "s"),
                 "pass_wall_s": (statistics.median(walls), "s"),
                 "probe_ms_p50": (statistics.median(probes) * 1e3, "ms"),
                 "probe_ms_spread": (_spread(probes), "ratio"),
                 "maxrss_mb": (maxrss_mb, "MB")}
        if wl.pass_alias:
            extra[wl.pass_alias] = (end_to_end["pass_s"], "s")
        extra.update(wl.report(by_pass))
        print("workload %s seed %d: %d set-ups, %d passes, %d items timed, "
              "%d probes" % (wl.name, args.seed, len(setups), len(passes),
                             len(items), len(clock.starts)))
        for name, unit, _, _ in spec.END_TO_END:
            _metric_line(name, end_to_end[name], unit)
        for name, (value, unit) in extra.items():
            _metric_line(name, value, unit)

        layers = None
        if args.trace:
            layers = _traced(args, wl, clock, statistics.median(passes),
                             by_pass, spans)
        attempted, failed = wl.check()
    finally:
        wl.close()
        try:
            (spec.ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass

    _metric_line("error_rate", failed / attempted, "ratio")
    for line in wl.errors:
        print("error " + line)
    if layers is None:
        units = {n: u for n, u, _, _ in spec.END_TO_END}
        metrics = {n: {"value": end_to_end[n], "unit": units[n]} for n in units}
    else:
        metrics = {n: {"value": layers[n], "unit": u} for n, u in spec.per_layer()}
    ok = failed == 0
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def _spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def _traced(args, wl, clock, base, by_pass, spans):
    """One traced set-up and pass, then one pass under cProfile.  Span
    times are wall times; the overhead ratio compares scaled pass times."""
    tracer = spans.Tracer()
    wl.tracer = tracer
    gc.collect()
    tracer.install()
    try:
        wl.setup()
        traced = _timed_pass(wl, clock)[0]
    finally:
        tracer.uninstall()
        wl.tracer = None
    layers = spans.layer_metrics(tracer.spans, wl.traced_lines())
    gc.collect()
    layers.update(spans.profile_counts(wl.run_pass))
    for name, t in wl.item_medians(by_pass).items():
        layers["compile.rule.%s_s" % name] = t
    for name, _ in spec.per_layer():
        layers.setdefault(name, 0)
    layers["machine.states"], layers["machine.arcs"] = wl.sizes()
    layers["trace.spans"] = len(tracer.spans)
    layers["trace.overhead_ratio"] = traced / base
    path = spec.ROOT / ".bench_traces" / ("%s-seed%d.jsonl" % (wl.name, args.seed))
    tracer.write(str(path))
    print("traced pass: %d spans, %.3f s scaled against %.3f s untraced"
          " (overhead x%.2f); spans written to %s"
          % (len(tracer.spans), traced, base, traced / base,
             path.relative_to(spec.ROOT)))
    for name, unit in spec.per_layer():
        _metric_line(name, layers[name], unit)
    return layers


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after the other."""
    worst = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, _ in spec.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print("[%s] %s" % (name, line))
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print("[%s] no result (exit %d)" % (name, proc.returncode))
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            summary["metrics"]["%s.%s" % (name, metric)] = v
    print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    args = _args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
