"""Byte-exact `fsrw compile` and `fsrw apply` output for the shipped rule
files.

Dumps are canonical, so any change to the construction algorithms that
keeps the machines the same keeps these SHA-256 digests the same.  A
digest that moves means a different machine (or a different numbering of
the same one) and needs an explanation, not a new digest.  The apply
digests pin what each machine prints for seeded lines, so a change to
how lines are read must print the same bytes."""

import hashlib
import io
import random

import pytest

from fsrw import EPS
from fsrw.cli import _load_machine, main
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


# `fsrw apply` over APPLY_LINES seeded lines (`_apply_lines`) for the plain
# compile of every rule file, printing the least output of each line and,
# with --all, every output
APPLY_LINES = 300
APPLY_GOLDEN = {
    ("ambiguous", False): "dd81824a720fb1a1905865e5af117db6bbc9d35682d0b617483adb50523ea8a0",
    ("ambiguous", True): "63161db3ac7b9e0f78b5700f747845f23e7d662b0a7263ec3f31f0a10e454028",
    ("cascade27", False): "8956c67fe14f9c58d1c9f49254baeef72fd158e81aae33116367ba79fef76d58",
    ("cascade27", True): "8956c67fe14f9c58d1c9f49254baeef72fd158e81aae33116367ba79fef76d58",
    ("devoice27", False): "1c9bb98f61341a0a7ec73a94262966a2cefd4f7a330a8281b852b5d0bc5319ce",
    ("devoice27", True): "1c9bb98f61341a0a7ec73a94262966a2cefd4f7a330a8281b852b5d0bc5319ce",
    ("lm3", False): "0946134d6a4da5339cb2a50cac49308f900ef913cc2130dafb766dea4827e838",
    ("lm3", True): "0946134d6a4da5339cb2a50cac49308f900ef913cc2130dafb766dea4827e838",
    ("lm5", False): "90a801d3766147534271922b1f4ef4754fbe7d0723d6bd8da1c60f6da942ab54",
    ("lm5", True): "90a801d3766147534271922b1f4ef4754fbe7d0723d6bd8da1c60f6da942ab54",
    ("ab_star", False): "78d7d150de782eba0cbd51ae252512309576fcb9febfb7025229a7ff2fed58c0",
    ("ab_star", True): "78d7d150de782eba0cbd51ae252512309576fcb9febfb7025229a7ff2fed58c0",
    ("abbrev", False): "119db88a61f7e9029d6c5174d06cb46f56d249f28f64b69937d033e7f006483b",
    ("abbrev", True): "119db88a61f7e9029d6c5174d06cb46f56d249f28f64b69937d033e7f006483b",
    ("devoice_final", False): "e8dd801f677769eb293bdc955abfa8f065e8dadb0cf5226c20f933d4a9208943",
    ("devoice_final", True): "e8dd801f677769eb293bdc955abfa8f065e8dadb0cf5226c20f933d4a9208943",
    ("topological", False): "c625a269d556cb2a0b567a664713275dc9c6bcfea0eb1c193bf7f14a37ab5c4d",
    ("topological", True): "c625a269d556cb2a0b567a664713275dc9c6bcfea0eb1c193bf7f14a37ab5c4d",
    ("triple_a", False): "72959c469234b47374049716bcf30b4f4b05e2bedaba4c79bc4d31ed0e31b7d5",
    ("triple_a", True): "72959c469234b47374049716bcf30b4f4b05e2bedaba4c79bc4d31ed0e31b7d5",
    ("triple_a_explicit", False): "e3de3f20845a200b2f2314fa219f58444d4711757ff115b61b69c331ac358501",
    ("triple_a_explicit", True): "e3de3f20845a200b2f2314fa219f58444d4711757ff115b61b69c331ac358501",
}

APPLY_RULE_FILES = sorted([ROOT / "rules" / (name + ".fsr") for name, cascade in GOLDEN
                           if not cascade]
                          + [ROOT / "bench" / "rules" / (name + ".fsr")
                             for name, cascade in BENCH_GOLDEN if not cascade])


def _apply_lines(m, rng):
    """Lines for `m`: a third random user glyphs, a third the inputs of
    random walks along its arcs (mostly accepted), a third either of
    those with a glyph no table knows put in, first, in the middle or
    last; each line is its glyphs joined."""
    glyphs = m.table.user_glyphs()
    adj = m.adjacency()
    lines = []
    for k in range(APPLY_LINES):
        if k % 3 == 1:
            q, line = m.initial, []
            while len(line) < 10 and adj[q] and not (q in m.finals and rng.random() < 0.2):
                i, _, q = rng.choice(adj[q])
                if i != EPS:
                    line.append(m.table.glyph(i))
        else:
            line = [rng.choice(glyphs) for _ in range(rng.randint(0, 10))]
        if k % 3 == 2:
            line.insert(rng.choice([0, len(line) // 2, len(line)]), "~")
        lines.append("".join(line) + "\n")
    return "".join(lines)


def _apply_digest(monkeypatch, capsys, machine, stdin, every):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(["apply", "-m", str(machine)] + (["--all"] if every else [])) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("path", APPLY_RULE_FILES, ids=lambda p: p.stem)
def test_apply_output_is_byte_identical(tmp_path, monkeypatch, capsys, path):
    machine = tmp_path / (path.stem + ".fsm")
    assert main(["compile", "-r", str(path), "-o", str(machine)]) == 0
    stdin = _apply_lines(_load_machine(str(machine)), random.Random(path.stem))
    got = {every: _apply_digest(monkeypatch, capsys, machine, stdin, every)
           for every in (False, True)}
    assert got == {every: APPLY_GOLDEN[path.stem, every] for every in (False, True)}
