"""Byte-exact `fsrw compile` output for the shipped rule files.

Dumps are canonical, so any change to the construction algorithms that
keeps the machines the same keeps these SHA-256 digests the same.  A
digest that moves means a different machine (or a different numbering of
the same one) and needs an explanation, not a new digest."""

import hashlib
import random

import pytest

from fsrw.cli import main
from fsrw.dump import dump_text, load_text
from fsrw.replace import compose_cascade, replace

from gen import ROOT, random_replace_rule


GOLDEN = {
    ("ab_star", False): "8a0b52fa497fcc5fdb637578287de27c1176ad48df2385bc62d38d26fa01b0a7",
    ("abbrev", False): "a5dec4c9f05f8a792a8712bf188a2e7213db83a03ab8f8c2a8f6adba608aef20",
    ("devoice_final", False): "00a0aa08eae28221c9d05f0af110902d8fee30fb7b8a4057d783b1495c1db7af",
    ("topological", False): "a473362027844cc28e1d205eab8e467dc3778e9909b1baf20098c5307fc5c715",
    ("triple_a", False): "e335f7d1d9c5a4d3687079b27e5d5d46ee55fe855cd710874fad6262f0a46900",
    ("triple_a_explicit", False): "e335f7d1d9c5a4d3687079b27e5d5d46ee55fe855cd710874fad6262f0a46900",
    ("ab_star", True): "a99ea24dc9d6c0d4d646f29bd9d66b8392086087f627f554a4f14815074d7d11",
    ("abbrev", True): "eef7d5cfb65cc467e3755743a9065c3698c098ea5bde37cd4cd3ff62ddf0220e",
    ("devoice_final", True): "342fdb80959febad67cb77fb98f7e323864999895754df826f3748f38661f8ea",
}

# the benchmark's own rule files, read in place; --cascade only for the
# plain replace rules (the others have no cascade factors)
BENCH_GOLDEN = {
    ("devoice27", False): "d49cabe4cb886988da45f425b3a94183af5c18f9cc972f1f7640e020baee0216",
    ("cascade27", False): "3ea8ec243b39b7f10a4b309e79bf39790bedd70f0faafe640fd5693288641111",
    ("lm3", False): "0b2512b1502e5dc059d2e70e6f0976e37b2bea99fb42ddc7ad7e51ee2d57c236",
    ("lm5", False): "c5c7d47f07ab373144df1bf6866aa2696cf5b19d72ff54e16afbce62366fc3c1",
    ("ambiguous", False): "bb14e068a18c1749074b6d02da9ea9c1c391d3b63ca071f6d2239862125c03c2",
    ("devoice27", True): "6ad8db063fca12a1f66b6a779de7d8867f416ad2941ccecbd1572622bb8452b5",
    ("ambiguous", True): "981d4d0cef1a578d79a9407c2a06c6b6c0555da835cfa836a089c9c92bba2105",
}

# the concatenated dumps of 40 random replace rules (tests/gen.py, seed
# 20261018), whose targets are partly untrimmed machines given by arcs
GEN_RULES_SEED, GEN_RULES_COUNT = 20261018, 40
GEN_RULES_GOLDEN = "5008f015cced0bb39fcdaf04c26effdfc5d644ac6a0688c3c12c418bf2c0640b"


def _compile_bytes(tmp_path, path, cascade):
    out = tmp_path / (path.stem + (".cascade" if cascade else "") + ".fsm")
    argv = ["compile", "-r", str(path), "-o", str(out)]
    if cascade:
        argv.append("--cascade")
    assert main(argv) == 0
    return out.read_bytes()


def _compile_digest(tmp_path, path, cascade):
    return hashlib.sha256(_compile_bytes(tmp_path, path, cascade)).hexdigest()


def test_every_shipped_rule_file_is_pinned():
    assert {p.stem for p in (ROOT / "rules").glob("*.fsr")} == {
        name for name, _ in GOLDEN}


@pytest.mark.parametrize("name,cascade", sorted(GOLDEN),
                         ids=lambda v: v if isinstance(v, str) else
                         ("cascade" if v else "machine"))
def test_compile_dump_is_byte_identical(tmp_path, name, cascade):
    got = _compile_digest(tmp_path, ROOT / "rules" / (name + ".fsr"), cascade)
    assert got == GOLDEN[(name, cascade)]


@pytest.mark.parametrize("name,cascade", sorted(BENCH_GOLDEN),
                         ids=lambda v: v if isinstance(v, str) else
                         ("cascade" if v else "machine"))
def test_bench_rule_dump_is_byte_identical(tmp_path, name, cascade):
    got = _compile_digest(tmp_path, ROOT / "bench" / "rules" / (name + ".fsr"), cascade)
    assert got == BENCH_GOLDEN[(name, cascade)]


CASCADE_RULE_FILES = sorted(
    [ROOT / "rules" / (name + ".fsr") for name, cascade in GOLDEN if cascade]
    + [ROOT / "bench" / "rules" / (name + ".fsr") for name, cascade in BENCH_GOLDEN
       if cascade])


@pytest.mark.parametrize("path", CASCADE_RULE_FILES, ids=lambda p: p.stem)
def test_cascade_file_folds_to_the_plain_machine(tmp_path, path):
    """A pinned `--cascade` digest pins the factors as written; the machine
    they stand for is pinned by folding them back: the loaded factors,
    composed by `compose_cascade`, dump to the plain compile's bytes."""
    factors = load_text(_compile_bytes(tmp_path, path, True).decode("utf-8"))
    folded = dump_text(compose_cascade(factors)).encode("utf-8")
    assert folded == _compile_bytes(tmp_path, path, False)


def test_every_rule_file_dumps_the_same_bytes_cold_and_warm(tmp_path, store):
    """The shape cache holds the marker constants and the memoized kit
    operations; a compile that finds them all (warm) writes the bytes of
    one that starts from an empty cache (cold)."""
    runs = ([(ROOT / "rules", name, cascade) for name, cascade in sorted(GOLDEN)]
            + [(ROOT / "bench" / "rules", name, cascade)
               for name, cascade in sorted(BENCH_GOLDEN)])
    cold = {}
    for folder, name, cascade in runs:
        store.empty()
        cold[folder, name, cascade] = _compile_bytes(
            tmp_path, folder / (name + ".fsr"), cascade)
    # one cache for the rest: each file after the others before it, then
    # again after itself
    for folder, name, cascade in runs + runs:
        warm = _compile_bytes(tmp_path, folder / (name + ".fsr"), cascade)
        assert warm == cold[folder, name, cascade], (name, cascade)


def test_random_replace_rule_dumps_are_byte_identical():
    rng = random.Random(GEN_RULES_SEED)
    digest = hashlib.sha256()
    for _ in range(GEN_RULES_COUNT):
        _, t, left, right = random_replace_rule(rng)
        digest.update(dump_text(replace(t, left, right)).encode())
    assert digest.hexdigest() == GEN_RULES_GOLDEN
