"""Static checks over the package source, with the standard library only."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "cograph_hc")
                 .glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never uses. A name counts as used when
    it is read anywhere in the module or listed in `__all__`; `__future__`
    imports are skipped."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os, sys\nfrom .cotree import build_cotree as bc, LEAF\n"
              "__all__ = ['LEAF']\nprint(sys.argv)\n")
    assert unused_imports(source) == ["line 2: os", "line 3: bc"]


def private_names(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level `_name` defs, classes and assignments (not dunders)."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node
    return out


def references(node: ast.AST) -> Counter:
    """Names read below node: loaded names, attributes and imported names."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names that nothing in the package reads apart
    from their own definition (a recursive call does not count)."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = Counter()
    for tree in trees.values():
        used += references(tree)
    return [f"{module}: {name}" for module, tree in trees.items()
            for name, node in private_names(tree).items()
            if used[name] - references(node)[name] <= 0]


def test_every_private_name_is_used():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unreferenced_private_names(sources) == []


def test_unused_private_name_is_found():
    sources = {
        "a.py": ("_LIMIT = 3\n_spare = 1\n"
                 "def _walk(k):\n    return _walk(k - 1) if k else _LIMIT\n"
                 "def _helper():\n    return 0\n"),
        "b.py": "from .a import _helper\n",
    }
    assert unreferenced_private_names(sources) == ["a.py: _spare",
                                                   "a.py: _walk"]
