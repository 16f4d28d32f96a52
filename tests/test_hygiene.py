"""Source hygiene: every imported name is used somewhere in its module, every
private module-level name in the package is used outside its definition,
every defaulted parameter of the package is passed by some call, every
method or property of a package class is read by something but the tests,
every public function of the package is named by something but the tests,
and the package holds no assert statement."""

from __future__ import annotations

import ast
import math
from pathlib import Path

import ghbounds

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


def test_no_assert_in_the_package():
    # python -O strips assert statements, so a check that input can reach must raise
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in sorted((ROOT / "src" / "ghbounds").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements in src/:\n" + "\n".join(found)


def _defaulted_params(tree: ast.Module) -> list[tuple[str, str, str, int | None]]:
    """Each defaulted parameter of a module's functions and methods.

    As (qualified name, the name calls use, parameter, its position among
    a call's arguments, or None for a keyword-only one). A method's calls
    skip self, and ``__init__`` is called by its class's name.
    """
    found = []
    units = [(None, stmt) for stmt in tree.body] + [
        (cls.name, stmt) for cls in tree.body if isinstance(cls, ast.ClassDef)
        for stmt in cls.body]
    for owner, node in units:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        skip = 1 if owner and not static else 0
        called = owner if node.name == "__init__" else node.name
        qual = f"{owner}.{node.name}" if owner else node.name
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        found += [(qual, called, p.arg, k - skip) for k, p in enumerate(positional) if k >= first]
        found += [(qual, called, p.arg, None)
                  for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return found


def _passed(trees: list[ast.Module]) -> dict[str, tuple[int, set[str]]]:
    """Per called name: the most positional arguments a call passes, and every keyword passed.

    A call with ``*args`` counts as passing every position, and one with
    ``**kwargs`` as passing every keyword (``"**"``).
    """
    seen: dict[str, tuple[int, set[str]]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            most, keys = seen.get(name, (0, set()))
            star = any(isinstance(a, ast.Starred) for a in node.args)
            most = max(most, math.inf if star else len(node.args))
            seen[name] = most, keys | {k.arg or "**" for k in node.keywords}
    return seen


def unpassed_defaults(sources: dict[str, str], callers: list[str]) -> list[str]:
    """"module: function.parameter" for each defaulted parameter in sources that no call passes.

    Calls in sources and callers are matched by name, so a call of any
    function of that name counts; it passes the parameter by position or
    by keyword.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    passed = _passed(list(trees.values()) + [ast.parse(text) for text in callers])
    unpassed = []
    for module, tree in trees.items():
        for qual, called, param, pos in _defaulted_params(tree):
            most, keys = passed.get(called, (0, set()))
            if param not in keys and "**" not in keys and (pos is None or most <= pos):
                unpassed.append(f"{module}: {qual}.{param}")
    return unpassed


def test_no_unpassed_defaults():
    sources = {f.name: f.read_text() for f in sorted((ROOT / "src" / "ghbounds").glob("*.py"))}
    callers = [f.read_text() for f in _scanned_files() if f.parent.name != "ghbounds"]
    unpassed = unpassed_defaults(sources, callers)
    assert not unpassed, "defaulted parameters that no call passes:\n" + "\n".join(unpassed)


def test_the_unpassed_default_scan_sees_what_it_should():
    sources = {
        "a.py": ("def f(x, cap=3, *, tol=1e-9, quiet=False):\n    return x\n"
                 "def g(x, net=None):\n    return f(x, 4)\n"
                 "class K:\n"
                 "    def __init__(self, side=0.0, per_cell=1):\n        pass\n"
                 "    def m(self, a=1, b=2):\n        pass\n"
                 "    @staticmethod\n    def s(a=1):\n        pass\n"
                 "def h(x, y=0):\n    return x\n"
                 "def k(x, y=0):\n    return x\n"),
    }
    callers = ["from a import f, g, K, h, k\n"
               "f(1, quiet=True)\ng(2)\nK(5.0)\nK().m(1)\nK.s()\nh(*[1, 2])\nk(**{})\n"]
    assert unpassed_defaults(sources, callers) == [
        "a.py: f.tol", "a.py: g.net", "a.py: K.__init__.per_cell", "a.py: K.m.b", "a.py: K.s.a"]


def _methods(tree: ast.Module) -> list[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """(class name, definition) of each method and property of a module's classes, but dunders."""
    return [(cls.name, node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def methods_only_tests_read(sources: dict[str, str], readers: list[str]) -> list[str]:
    """"module: Class.method" for each method or property in sources that no reader reads.

    Readers are the sources themselves, the member's own body aside, and
    the other non-test code. A read is an attribute of the member's name,
    on any object: matched by name, as calls are matched above.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    outside = {sub.attr for text in readers for sub in ast.walk(ast.parse(text))
               if isinstance(sub, ast.Attribute)}
    inside = [sub for tree in trees.values() for sub in ast.walk(tree)
              if isinstance(sub, ast.Attribute)]
    unread = []
    for module, tree in trees.items():
        for cls, node in _methods(tree):
            own = {id(sub) for sub in ast.walk(node)}
            if node.name not in outside and not any(
                    sub.attr == node.name and id(sub) not in own for sub in inside):
                unread.append(f"{module}: {cls}.{node.name}")
    return unread


# read only by tests, on purpose: test_metric.py checks ``block`` against them
_TEST_ONLY_METHODS = {"metric.py: FiniteMetricSpace.d", "metric.py: EuclideanPointSet.d"}


def test_no_methods_only_tests_read():
    sources = {f.name: f.read_text() for f in sorted((ROOT / "src" / "ghbounds").glob("*.py"))}
    readers = [f.read_text() for f in sorted((ROOT / "scripts").glob("*.py"))
               + sorted((ROOT / "perfbench").glob("*.py"))]
    unread = [m for m in methods_only_tests_read(sources, readers)
              if m not in _TEST_ONLY_METHODS]
    assert not unread, "methods and properties only tests read:\n" + "\n".join(unread)


def test_the_test_only_method_scan_sees_what_it_should():
    sources = {
        "a.py": ("class K:\n"
                 "    def used(self):\n        return self.helper()\n"
                 "    def helper(self):\n        return 1\n"
                 "    def loop(self, n):\n        return self.loop(n - 1)\n"
                 "    @property\n    def size(self):\n        return 0\n"
                 "    @staticmethod\n    def of(pairs):\n        return K()\n"
                 "    def __len__(self):\n        return 0\n"
                 "    class Inner:\n        def deep(self):\n            pass\n"),
        "b.py": "from .a import K\nx = K().used()\n",
    }
    readers = ["from a import K\nprint(K().size)\n"]
    assert methods_only_tests_read(sources, readers) == [
        "a.py: K.loop", "a.py: K.of", "a.py: Inner.deep"]



def functions_only_tests_call(sources: dict[str, str], readers: list[str],
                              exported: set[str]) -> list[str]:
    """"module: function" for each public module-level function that no reader names.

    Readers are the other statements of sources and the non-test code; a
    name is read, imported or taken as an attribute (``_referenced``).
    Exported names are kept, and so are ``main`` and ``cmd_*``, which
    ``cli.main`` finds by name.
    """
    stmts = [(module, stmt) for module, text in sources.items() for stmt in ast.parse(text).body]
    refs = [_referenced(stmt) for _, stmt in stmts]
    kept = exported.union(*(_referenced(ast.parse(text)) for text in readers))
    return [f"{module}: {stmt.name}" for k, (module, stmt) in enumerate(stmts)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not stmt.name.startswith(("_", "cmd_")) and stmt.name != "main"
            and stmt.name not in kept
            and not any(stmt.name in r for j, r in enumerate(refs) if j != k)]


def test_no_functions_only_tests_call():
    sources = {f.name: f.read_text() for f in sorted((ROOT / "src" / "ghbounds").glob("*.py"))
               if f.name != "__init__.py"}
    readers = [f.read_text() for f in sorted((ROOT / "scripts").glob("*.py"))
               + sorted((ROOT / "perfbench").glob("*.py"))]
    found = functions_only_tests_call(sources, readers, set(ghbounds.__all__))
    assert not found, "public functions only tests call:\n" + "\n".join(found)


def test_the_test_only_function_scan_sees_what_it_should():
    sources = {
        "a.py": ("def used():\n    return helper()\n"
                 "def helper():\n    return 1\n"
                 "def loop(n):\n    return loop(n - 1)\n"
                 "def exported():\n    pass\n"
                 "def scripted():\n    pass\n"
                 "def cmd_go(args):\n    pass\n"
                 "def main(argv):\n    pass\n"
                 "def _private():\n    pass\n"
                 "class K:\n    def method(self):\n        pass\n"
                 "def wrapper():\n    return used()\n"),
        "b.py": "from .a import used\n",
    }
    readers = ["import a\na.scripted()\n"]
    assert functions_only_tests_call(sources, readers, {"exported"}) == [
        "a.py: loop", "a.py: wrapper"]
