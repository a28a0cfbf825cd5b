"""Every name a module of `src/fsrw` or of `tests` imports is used in
that module, and every private module-level name is used somewhere in the
package.

A name listed in the module's `__all__` counts as used (the package
re-exports it), and so does an import whose line is marked
`# noqa: F401`, but only when the benchmark's tracer (`bench/spans.py`)
patches that name on that module (`cli.py` keeps `compose` and
`reduce_pairs` for it), so a stale mark fails.  A private name (`_x`: a
function, class or assignment at module level) counts as used when some
statement other than its own definition names it: as a plain name, as an
attribute, or in a `from ... import`."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fsrw"
SPANS = TESTS.parent / "bench" / "spans.py"


def _marked(node, lines) -> bool:
    return any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line number
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if _marked(node, lines):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted("%s (line %d)" % (name, line)
                  for name, line in imported.items() if name not in used)


def exempt_imports(source: str) -> list[str]:
    """The names imported on lines marked `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    return sorted(alias.asname or alias.name
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and _marked(node, lines)
                  for alias in node.names)


def patched_names(source: str) -> set[tuple[str, str]]:
    """(module, name) for each `patch(fsrw.<module>, "name", ...)` call in
    the tracer's source."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "patch" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)):
            owner = ast.unparse(node.args[0])
            if owner.startswith("fsrw."):
                found.add((owner[len("fsrw."):], node.args[1].value))
    return found


def stale_exemptions(source: str, module: str, spans: str) -> list[str]:
    """The names `source` (module `fsrw.<module>`) marks `# noqa: F401`
    that the tracer's source `spans` does not patch on that module."""
    patched = patched_names(spans)
    return [name for name in exempt_imports(source) if (module, name) not in patched]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    source = path.read_text(encoding="utf-8")
    assert unused_imports(source) == []
    assert stale_exemptions(source, path.stem, SPANS.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = ("from typing import Optional, Sequence\n"
              "import os.path\n"
              "from .fsm import compose  # noqa: F401  kept for patching\n"
              "__all__ = ['Sequence']\n"
              "def f(x: Optional[int]):\n"
              "    return x\n")
    assert unused_imports(source) == ["os (line 2)"]
    assert unused_imports("import re\n") == ["re (line 1)"]


def test_a_stale_noqa_import_is_reported():
    # only names the tracer patches on the module may keep the mark
    source = ("from .fsm import compose, reduce_pairs  # noqa: F401  patched\n"
              "from .fsm import (minimize,  # noqa: F401\n"
              "                  union)\n")
    spans = ("import fsrw.cli\n"
             "tracer.patch(fsrw.cli, 'compose', 'cli.fold')\n"
             "tracer.patch(fsrw.cli, 'minimize', 'cli.min')\n"
             "tracer.patch(fsrw.fsm, 'union', 'fsm.union')\n"
             "tracer.patch(kit, 'reduce_pairs', 'markers.reduce_pairs')\n")
    assert exempt_imports(source) == ["compose", "minimize", "reduce_pairs", "union"]
    assert patched_names(spans) == {("cli", "compose"), ("cli", "minimize"), ("fsm", "union")}
    assert stale_exemptions(source, "cli", spans) == ["reduce_pairs", "union"]
    assert stale_exemptions(source, "cli", SPANS.read_text(encoding="utf-8")) == [
        "minimize", "union"]


def _private_definitions(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def _references(stmt) -> set[str]:
    refs = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """`module: name (line n)` for each private module-level name that no
    statement of any module in `sources` names, apart from its own."""
    stmts = [(module, stmt) for module, source in sources.items()
             for stmt in ast.parse(source).body]
    refs = [_references(stmt) for _, stmt in stmts]
    return sorted("%s: %s (line %d)" % (module, name, stmt.lineno)
                  for k, (module, stmt) in enumerate(stmts)
                  for name in _private_definitions(stmt)
                  if not any(name in r for j, r in enumerate(refs) if j != k))


def test_every_private_name_is_used():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_a_dead_private_name_is_reported():
    sources = {
        "a.py": ("def _alone(n):\n"
                 "    return _alone(n - 1) if n else 0\n"
                 "def _called():\n    pass\n"
                 "_LIMIT = 3\n_Unused: int = 4\n"
                 "class _Kept:\n    pass\n"
                 "def _via_attribute():\n    pass\n"
                 "def f():\n    return _called() + _LIMIT\n"
                 "__all__ = ['f']\n"),
        "b.py": ("from .a import _Kept\n"
                 "import a\n"
                 "g = a._via_attribute\n"),
    }
    assert dead_private_names(sources) == [
        "a.py: _Unused (line 6)", "a.py: _alone (line 1)"]
