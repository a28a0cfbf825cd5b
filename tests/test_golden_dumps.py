"""Byte-exact `fsrw compile` output for the shipped rule files.

Dumps are canonical, so any change to the construction algorithms that
keeps the machines the same keeps these SHA-256 digests the same.  A
digest that moves means a different machine (or a different numbering of
the same one) and needs an explanation, not a new digest."""

import hashlib
from pathlib import Path

import pytest

from fsrw.cli import main

RULES_DIR = Path(__file__).resolve().parent.parent / "rules"

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


def test_every_shipped_rule_file_is_pinned():
    assert {p.stem for p in RULES_DIR.glob("*.fsr")} == {
        name for name, _ in GOLDEN}


@pytest.mark.parametrize("name,cascade", sorted(GOLDEN),
                         ids=lambda v: v if isinstance(v, str) else
                         ("cascade" if v else "machine"))
def test_compile_dump_is_byte_identical(tmp_path, name, cascade):
    out = tmp_path / (name + ".fsm")
    argv = ["compile", "-r", str(RULES_DIR / (name + ".fsr")), "-o", str(out)]
    if cascade:
        argv.append("--cascade")
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[(name, cascade)]
