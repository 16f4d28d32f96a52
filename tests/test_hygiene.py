"""Source hygiene: every imported name is used somewhere in its module."""

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
