"""Every name a module of `src/fsrw` or of `tests` imports is used in
that module, and every private module-level name is used somewhere in the
package.

A name listed in the module's `__all__` counts as used (the package
re-exports it), and so does an import whose line is marked
`# noqa: F401`, but only when the benchmark's tracer (`bench/spans.py`)
patches that name on that module, directly or through a name bound to the
module (`cli.py` keeps `compose` and `reduce_pairs` for it, `capture.py`
keeps `complement`), so a stale mark fails.  A private name (`_x`: a
function, class or assignment at module level, or a method of a class)
counts as used when something outside its own definition names it: as a
plain name, as an attribute, or in a `from ... import`."""

import ast
import collections
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


def _aliases(tree) -> dict[str, str]:
    """name -> the expression it is bound to, for each plain or tuple
    assignment in the tracer's source (`cap = fsrw.capture`,
    `dsl, rep = fsrw.dsl, replace_module`); an
    `importlib.import_module("fsrw.x")` call stands for `fsrw.x`, and a
    name bound earlier stands for what it is bound to (the walk meets
    module-level assignments before those in function bodies)."""
    aliases = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target, value = node.targets[0], node.value
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            pairs = zip(target.elts, value.elts)
        else:
            pairs = [(target, value)]
        for name, bound in pairs:
            if not isinstance(name, ast.Name):
                continue
            if (isinstance(bound, ast.Call)
                    and ast.unparse(bound.func) == "importlib.import_module"
                    and bound.args and isinstance(bound.args[0], ast.Constant)):
                aliases[name.id] = bound.args[0].value
            else:
                text = ast.unparse(bound)
                aliases[name.id] = aliases.get(text, text)
    return aliases


def patched_names(source: str) -> set[tuple[str, str]]:
    """(module, name) for each `patch(<owner>, "name", ...)` call in the
    tracer's source whose owner is `fsrw.<module>` or a name bound to it."""
    tree = ast.parse(source)
    aliases = _aliases(tree)
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "patch" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)):
            owner = ast.unparse(node.args[0])
            owner = aliases.get(owner, owner)
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
    # an owner bound to a module by assignment counts as that module, so a
    # name patched through the alias keeps its mark and any other is stale
    aliased = ("import importlib\n"
               "import fsrw.capture\n"
               "mod = importlib.import_module('fsrw.replace')\n"
               "cap, rep = fsrw.capture, mod\n"
               "tracer.patch(cap, 'compose', 'capture.compose')\n"
               "tracer.patch(rep, 'reduce_pairs', 'replace.reduce_pairs')\n")
    assert patched_names(aliased) == {("capture", "compose"),
                                      ("replace", "reduce_pairs")}
    assert stale_exemptions(source, "capture", aliased) == [
        "minimize", "reduce_pairs", "union"]
    assert stale_exemptions(source, "replace", aliased) == [
        "compose", "minimize", "union"]
    assert stale_exemptions("from .fsm import complement  # noqa: F401\n", "capture",
                            SPANS.read_text(encoding="utf-8")) == []


def _private_definitions(stmt) -> list[tuple[str, ast.AST]]:
    """(name, node) for each private name `stmt` defines at module level,
    and for each private method of a class it defines: the node is the
    definition whose own references do not count as uses."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        found = [(stmt.name, stmt)]
    elif isinstance(stmt, ast.Assign):
        found = [(t.id, stmt) for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        found = [(stmt.target.id, stmt)]
    else:
        found = []
    if isinstance(stmt, ast.ClassDef):
        found += [(node.name, node) for node in stmt.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [(name, node) for name, node in found
            if name.startswith("_") and not name.endswith("__")]


def _references(node) -> collections.Counter:
    refs = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """`module: name (line n)` for each private module-level name, and each
    private method, that nothing in `sources` names outside its own
    definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    refs = sum((_references(tree) for tree in trees.values()), collections.Counter())
    return sorted("%s: %s (line %d)" % (module, name, node.lineno)
                  for module, tree in trees.items() for stmt in tree.body
                  for name, node in _private_definitions(stmt)
                  if refs[name] == _references(node)[name])


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


def test_a_dead_private_method_is_reported():
    # a method counts as used when something outside its own body names
    # it: another method, another class or another module
    sources = {
        "a.py": ("class Kit:\n"
                 "    def __init__(self):\n"
                 "        self._cache = {}\n"
                 "    def _leftover(self, s):\n"
                 "        return self._leftover(s) if s else self._cache\n"
                 "    def _called(self):\n        pass\n"
                 "    @property\n"
                 "    def _prop(self):\n"
                 "        return self._called()\n"
                 "    def _elsewhere(self):\n        pass\n"
                 "    def public(self):\n"
                 "        return self._prop\n"
                 "    def _unused(self):\n        pass\n"),
        "b.py": ("from .a import Kit\n"
                 "def f(kit):\n"
                 "    return kit._elsewhere()\n"),
    }
    assert dead_private_names(sources) == [
        "a.py: _leftover (line 4)", "a.py: _unused (line 15)"]
