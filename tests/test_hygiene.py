"""Source hygiene: every imported name is used somewhere in its module, and
every private module-level name in the package is used outside its definition."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _scanned_files() -> list[Path]:
    src = [f for f in sorted((ROOT / "src" / "ghbounds").glob("*.py")) if f.name != "__init__.py"]
    return src + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside string annotations such as ``"SubsetRef | Iterable[int]"``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name bound by an import and never referenced."""
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return [(line, name) for line, name in imported if name not in used]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in _scanned_files()
             for line, name in unused_imports(path.read_text())]
    assert not found, "imported but never used:\n" + "\n".join(found)


def test_the_scan_sees_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from typing import Iterable, Sequence\n"
        "from .errors import A, B\n"
        "__all__ = ['A']\n"
        "def f(x: 'Iterable[int]') -> None:\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == [(2, "os"), (2, "os"), (4, "Sequence"), (5, "B")]


def _private_names(stmt: ast.stmt) -> set[str]:
    """Private names a module-level statement defines (not dunders such as ``__all__``)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    else:
        names = set()
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _referenced(node: ast.AST) -> set[str]:
    """Names read, imported or taken as attributes anywhere inside node."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names |= {a.name for a in sub.names}
    return names


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """"module: name" for each private module-level name no other statement references.

    A statement's references to the names it defines itself (a recursive
    call, say) do not count.
    """
    stmts = [(module, stmt) for module, text in sources.items() for stmt in ast.parse(text).body]
    refs = [_referenced(stmt) for _, stmt in stmts]
    dead = []
    for k, (module, stmt) in enumerate(stmts):
        for name in sorted(_private_names(stmt)):
            if not any(name in r for j, r in enumerate(refs) if j != k):
                dead.append(f"{module}: {name}")
    return dead


def test_no_dead_private_names():
    sources = {f.name: f.read_text() for f in sorted((ROOT / "src" / "ghbounds").glob("*.py"))}
    dead = dead_private_names(sources)
    assert not dead, "defined but never used elsewhere in src/:\n" + "\n".join(dead)


def test_the_dead_name_scan_sees_what_it_should():
    sources = {
        "a.py": ("_CAP = 3\n_OLD = 4\n__all__ = []\n"
                 "def _loop(n):\n    return _loop(n - 1)\n"
                 "def _used():\n    return _CAP\n"
                 "class _Kept:\n    pass\n"),
        "b.py": "from .a import _used\nimport a\nx = a._Kept\n",
    }
    assert dead_private_names(sources) == ["a.py: _OLD", "a.py: _loop"]
