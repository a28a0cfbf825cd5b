"""What the benchmark measures: workloads, metrics and their bounds.

``python3 bench/spec.py`` writes ``BENCHMARK.json`` at the repository
root from these tables, so the file and the runner cannot drift apart.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

RUN_SECONDS = 20

WORKLOADS = [
    ("compile",
     "rule files through fsrw compile and --cascade: times markers, replace, "
     "capture and the fsm construction primitives, with no transduce or oracle"),
    ("apply",
     "fsrw apply on 20k short lines over four machines and a 10^3-10^4 symbol "
     "ladder: nearly all fsm.transduce, functional and multi-output paths"),
    ("verify",
     "hundreds of tiny random rules per run, compiled and checked against the oracle: "
     "per-call construction cost, enumerate_pairs and the oracle"),
]

# (name, unit, better, bound).  Every workload reports every metric; what
# an item and a pass are depends on the workload (see bench/README.md).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("pass_s", "s", "lower", 0.25),
    ("item_ms_p50", "ms", "lower", 0.25),
    ("item_ms_tail", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]


def use_checkout_sources():
    """Import fsrw from this checkout's src/ and the benchmark's modules
    from bench/.  Exits with an error when the sources are missing."""
    src = ROOT / "src"
    if not (src / "fsrw" / "__init__.py").is_file():
        sys.exit("error: no fsrw sources under %s" % src)
    sys.path[:0] = [str(src), str(BENCH)]


def per_layer():
    """(name, unit) of every per-layer metric, in report order."""
    import spans
    import workloads

    names = list(spans.layer_names())
    for name, _, cascade in workloads.CORPUS:
        names.append(("compile.rule.%s_s" % name, "s"))
        if cascade:
            names.append(("compile.rule.%s.cascade_s" % name, "s"))
    names += [("machine.states", "count"), ("machine.arcs", "count"),
              ("trace.spans", "count"), ("trace.overhead_ratio", "ratio")]
    return names


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u in per_layer()],
    }


if __name__ == "__main__":
    use_checkout_sources()
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
    print("wrote BENCHMARK.json")
