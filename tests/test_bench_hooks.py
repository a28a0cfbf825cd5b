"""The benchmark's per-layer tracer still finds every name it patches.

`bench/spans.py` swaps timing wrappers into the namespaces where the
program looks its functions up (`fsrw.dsl._replace_factors`,
`fsrw.cli.compose`, the `MarkerKit` methods, ...).  A refactor of `src/`
that drops or renames one of those names would break
`python3 bench/run.py --trace 1` without failing any other test."""

import io

import pytest

import fsrw.cli
import fsrw.dsl
from fsrw import MarkerKit
from fsrw.cli import main

from gen import ROOT


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import spans
    return spans


def test_tracer_installs_and_uninstalls(spans):
    originals = (fsrw.cli.compose, fsrw.cli.reduce_pairs,
                 fsrw.dsl._replace_factors, fsrw.dsl.Compiler.compile)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert fsrw.dsl._replace_factors is not originals[2]
    finally:
        tracer.uninstall()
    assert (fsrw.cli.compose, fsrw.cli.reduce_pairs,
            fsrw.dsl._replace_factors, fsrw.dsl.Compiler.compile) == originals


def test_tracer_records_a_cascade_compile(spans, tmp_path, store):
    # from an empty store: a factor stored by an earlier compile is not
    # built again, so it records no span
    tracer = spans.Tracer()
    tracer.install()
    try:
        rc = main(["compile", "-r", str(ROOT / "rules" / "abbrev.fsr"),
                   "-o", str(tmp_path / "abbrev.fsm"), "--cascade"])
    finally:
        tracer.uninstall()
    assert rc == 0
    metrics = spans.layer_metrics(tracer.spans, {})
    for f in spans.FACTORS:
        assert metrics["replace.factor.%s.arcs" % f] > 0


def test_tracer_records_the_factors_a_warm_store_holds(spans, tmp_path, store):
    # each factor is called by its name on every use, so a factor taken
    # from the store records its span and its size too
    rules, out = str(ROOT / "rules" / "abbrev.fsr"), str(tmp_path / "abbrev.fsm")
    assert main(["compile", "-r", rules, "-o", out]) == 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        rc = main(["compile", "-r", rules, "-o", out])
    finally:
        tracer.uninstall()
    assert rc == 0
    metrics = spans.layer_metrics(tracer.spans, {})
    for f in spans.FACTORS:
        assert metrics["replace.factor.%s.arcs" % f] > 0, f


def test_tracer_records_a_top_level_fold(spans, tmp_path, store):
    # a top-level replace rule folds through replace.replace, as a nested
    # one does, so each step of its cascade is counted; from an empty
    # store, since a rule whose groups of factors are stored folds in
    # fewer steps
    tracer = spans.Tracer()
    tracer.install()
    try:
        rc = main(["compile", "-r", str(ROOT / "rules" / "abbrev.fsr"),
                   "-o", str(tmp_path / "abbrev.fsm")])
    finally:
        tracer.uninstall()
    assert rc == 0
    metrics = spans.layer_metrics(tracer.spans, {})
    for k in range(1, 9):
        assert metrics["replace.step.%d.arcs_composed" % k] > 0


def test_tracer_records_an_lm_concat_compile(spans, tmp_path):
    # the capture layer keeps the names the tracer times it by
    tracer = spans.Tracer()
    tracer.install()
    try:
        rc = main(["compile", "-r", str(ROOT / "bench" / "rules" / "lm3.fsr"),
                   "-o", str(tmp_path / "lm3.fsm")])
    finally:
        tracer.uninstall()
    assert rc == 0
    names = {sp.name for sp in tracer.spans}
    assert {"capture.lm_concat", "capture.boundaries", "capture.compose"} <= names


def test_tracer_counts_every_kit(spans, tmp_path, monkeypatch):
    # counted under the tracer's own wrapper: cascade27 makes a kit per
    # replace rule, and calls no builtin, so the compiler makes none
    kits = []
    init = MarkerKit.__init__

    def counted(self, table):
        kits.append(table)
        init(self, table)

    monkeypatch.setattr(MarkerKit, "__init__", counted)
    tracer = spans.Tracer()
    tracer.install()
    try:
        rc = main(["compile", "-r", str(ROOT / "bench" / "rules" / "cascade27.fsr"),
                   "-o", str(tmp_path / "cascade27.fsm")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert spans.layer_metrics(tracer.spans, {})["markers.kits"] == len(kits) == 4


def test_tracer_records_apply_outputs(spans, tmp_path, monkeypatch, capsys):
    machine = tmp_path / "devoice.fsm"
    assert main(["compile", "-r", str(ROOT / "rules" / "devoice_final.fsr"),
                 "-o", str(machine)]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO("bad#\nab#d\n#\n"))
    tracer = spans.Tracer()
    tracer.install()
    tracer.item = "short:devoice_final:0"  # what the apply workload labels
    try:
        rc = main(["apply", "-m", str(machine)])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert capsys.readouterr().out == "bat#\nap#d\n#\n"
    applied = [sp for sp in tracer.spans if sp.name == "fsm.transduce"]
    assert [sp.extra for sp in applied] == [1, 1, 1]
    assert spans.layer_metrics(tracer.spans, {})["fsm.transduce.outputs"] == 3
    # a five-pair ambiguous line under --all: the tracer counts its 4**5
    # outputs with len(), which the factored result answers unbuilt
    machine = tmp_path / "ambiguous.fsm"
    assert main(["compile", "-r", str(ROOT / "bench" / "rules" / "ambiguous.fsr"),
                 "-o", str(machine)]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO("aektaeiokoatie\n"))
    tracer = spans.Tracer()
    tracer.install()
    tracer.item = "short:ambiguous:0"
    try:
        rc = main(["apply", "-m", str(machine), "--all"])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert capsys.readouterr().out.count("\t") == 1023
    applied = [sp for sp in tracer.spans if sp.name == "fsm.transduce"]
    assert [sp.extra for sp in applied] == [1024]
    assert spans.layer_metrics(tracer.spans, {})["fsm.transduce.outputs"] == 1024
