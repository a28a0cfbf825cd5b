"""Every name a module of `src/fsrw` imports is used in that module.

A name listed in the module's `__all__` counts as used (the package
re-exports it), and so does an import whose line is marked
`# noqa: F401` (`cli.py` keeps `compose` and `reduce_pairs` for the
benchmark's tracer to patch)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fsrw"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line number
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = ("from typing import Optional, Sequence\n"
              "import os.path\n"
              "from .fsm import compose  # noqa: F401  kept for patching\n"
              "__all__ = ['Sequence']\n"
              "def f(x: Optional[int]):\n"
              "    return x\n")
    assert unused_imports(source) == ["os (line 2)"]
    assert unused_imports("import re\n") == ["re (line 1)"]
