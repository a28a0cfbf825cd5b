"""Byte-exact `fsrw compile` output for the shipped rule files.

Dumps are canonical, so any change to the construction algorithms that
keeps the machines the same keeps these SHA-256 digests the same.  A
digest that moves means a different machine (or a different numbering of
the same one) and needs an explanation, not a new digest."""

import hashlib
import random
from pathlib import Path

import pytest

from fsrw.cli import main
from fsrw.dump import dump_text
from fsrw.replace import replace

from gen import random_replace_rule

ROOT = Path(__file__).resolve().parent.parent
RULES_DIR = ROOT / "rules"
BENCH_RULES_DIR = ROOT / "bench" / "rules"

GOLDEN = {
    ("ab_star", False): "8a0b52fa497fcc5fdb637578287de27c1176ad48df2385bc62d38d26fa01b0a7",
    ("abbrev", False): "a5dec4c9f05f8a792a8712bf188a2e7213db83a03ab8f8c2a8f6adba608aef20",
    ("devoice_final", False): "00a0aa08eae28221c9d05f0af110902d8fee30fb7b8a4057d783b1495c1db7af",
    ("topological", False): "a473362027844cc28e1d205eab8e467dc3778e9909b1baf20098c5307fc5c715",
    ("triple_a", False): "e335f7d1d9c5a4d3687079b27e5d5d46ee55fe855cd710874fad6262f0a46900",
    ("triple_a_explicit", False): "e335f7d1d9c5a4d3687079b27e5d5d46ee55fe855cd710874fad6262f0a46900",
    ("ab_star", True): "747f96cd0fc6a8c239ca89650a96c238905d4b9c571a75f8c88beb788bf5bc31",
    ("abbrev", True): "558943e77b9ed869d72f905c31c84dc7eafa8269c2092dacb67d95429c16f1f4",
    ("devoice_final", True): "93b6283e7fbbf298679d01acda47c1120a3275bf356fea1efb500e42312d53aa",
}

# the benchmark's own rule files, read in place; --cascade only for the
# plain replace rules (the others have no cascade factors)
BENCH_GOLDEN = {
    ("devoice27", False): "d49cabe4cb886988da45f425b3a94183af5c18f9cc972f1f7640e020baee0216",
    ("cascade27", False): "3ea8ec243b39b7f10a4b309e79bf39790bedd70f0faafe640fd5693288641111",
    ("lm3", False): "0b2512b1502e5dc059d2e70e6f0976e37b2bea99fb42ddc7ad7e51ee2d57c236",
    ("lm5", False): "c5c7d47f07ab373144df1bf6866aa2696cf5b19d72ff54e16afbce62366fc3c1",
    ("ambiguous", False): "bb14e068a18c1749074b6d02da9ea9c1c391d3b63ca071f6d2239862125c03c2",
    ("devoice27", True): "039fe831703e4764b4dfa48610b3fce91aa4160522124e6785c57b55f676d1b9",
    ("ambiguous", True): "81daac612cd270ccc6332ca0002e76053e945c4815762775a6a0f57b4a806025",
}

# the concatenated dumps of 40 random replace rules (tests/gen.py, seed
# 20261018), whose targets are partly untrimmed machines given by arcs
GEN_RULES_SEED, GEN_RULES_COUNT = 20261018, 40
GEN_RULES_GOLDEN = "5008f015cced0bb39fcdaf04c26effdfc5d644ac6a0688c3c12c418bf2c0640b"


def _compile_digest(tmp_path, path, cascade):
    out = tmp_path / (path.stem + ".fsm")
    argv = ["compile", "-r", str(path), "-o", str(out)]
    if cascade:
        argv.append("--cascade")
    assert main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_every_shipped_rule_file_is_pinned():
    assert {p.stem for p in RULES_DIR.glob("*.fsr")} == {
        name for name, _ in GOLDEN}


@pytest.mark.parametrize("name,cascade", sorted(GOLDEN),
                         ids=lambda v: v if isinstance(v, str) else
                         ("cascade" if v else "machine"))
def test_compile_dump_is_byte_identical(tmp_path, name, cascade):
    got = _compile_digest(tmp_path, RULES_DIR / (name + ".fsr"), cascade)
    assert got == GOLDEN[(name, cascade)]


@pytest.mark.parametrize("name,cascade", sorted(BENCH_GOLDEN),
                         ids=lambda v: v if isinstance(v, str) else
                         ("cascade" if v else "machine"))
def test_bench_rule_dump_is_byte_identical(tmp_path, name, cascade):
    got = _compile_digest(tmp_path, BENCH_RULES_DIR / (name + ".fsr"), cascade)
    assert got == BENCH_GOLDEN[(name, cascade)]


def test_random_replace_rule_dumps_are_byte_identical():
    rng = random.Random(GEN_RULES_SEED)
    digest = hashlib.sha256()
    for _ in range(GEN_RULES_COUNT):
        _, t, left, right = random_replace_rule(rng)
        digest.update(dump_text(replace(t, left, right)).encode())
    assert digest.hexdigest() == GEN_RULES_GOLDEN
