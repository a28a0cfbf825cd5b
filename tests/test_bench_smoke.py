"""Each benchmark workload, run for a moment: `bench/run.py` must finish
with exit 0, every output checked correct and no operation failed, so a
change to the library that would break a benchmark run shows up here."""

import json
import subprocess
import sys

import pytest

from gen import ROOT


@pytest.mark.parametrize("workload", ["compile", "apply", "verify"])
def test_a_short_benchmark_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seconds", "0.1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), result


def test_a_short_traced_run_is_correct():
    # the tracer patches names in src/; a rename there breaks this run
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "compile",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), result
