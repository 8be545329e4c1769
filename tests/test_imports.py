"""Static checks on src/circlelab: every module-level import is used,
every module-level private function or class is referenced somewhere,
every local that a function assigns by name is read (in tests/ too),
every reduction mod 1 goes through `circle.wrap`, and no module imports a
thread or process pool: runs are serial.

`__init__.py` is exempt from the import check; its imports are the
package's public names.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "circlelab"


def unused_imports(source: str) -> list:
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def unreferenced_privates(sources: dict) -> list:
    """Module-level `_name` functions and classes that no module reads or imports."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    referenced = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                referenced.add(n.id)
            elif isinstance(n, ast.Attribute):
                referenced.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                referenced.update(a.name for a in n.names)
    return [f"{name}:{node.name}" for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and node.name not in referenced]


def unread_locals(source: str) -> list:
    """`function:name` for each `name = ...` inside a function that the
    function (nested functions included) never reads."""
    found = []

    def scan(node, fn, reads):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                reads_in = {n.id for n in ast.walk(child)
                            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                scan(child, child.name, reads_in | {"_"})
                continue
            if (fn and isinstance(child, ast.Assign) and len(child.targets) == 1
                    and isinstance(child.targets[0], ast.Name) and child.targets[0].id not in reads):
                found.append(f"{fn}:{child.targets[0].id}")
            scan(child, fn, reads)

    scan(ast.parse(source), None, set())
    return found


def _reduces_mod_one(node) -> bool:
    """`x % 1`, `x % 1.0` or `x %= 1`."""
    if isinstance(node, ast.BinOp):
        op, right = node.op, node.right
    elif isinstance(node, ast.AugAssign):
        op, right = node.op, node.value
    else:
        return False
    return (isinstance(op, ast.Mod) and isinstance(right, ast.Constant)
            and type(right.value) in (int, float) and right.value == 1)


def _names(node) -> set:
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.ImportFrom):
        return {a.name for a in node.names}
    return set()


def mod_one_sites(source: str, exempt: str | None = None) -> list:
    """Lines with `% 1`, `% 1.0` or a mod/remainder/fmod function (np.mod,
    np.remainder, np.fmod, math.fmod) outside the function named exempt."""
    found = []

    def scan(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef) and child.name == exempt:
                continue
            if _reduces_mod_one(child) or _names(child) & {"mod", "remainder", "fmod"}:
                found.append(child.lineno)
            scan(child)

    scan(ast.parse(source))
    return found


def test_mod_one_checker_flags_only_reductions_outside_wrap():
    src = ("import numpy as np\nfrom math import fmod\n"
           "def wrap(x):\n    return x % 1.0\n"
           "def f(x, k):\n    a = x % 1\n    b = np.remainder(x, 1.0)\n    c = np.mod(x, 1)\n"
           "    x %= 1.0\n    d = x % 2 + k % 1.5 + (x - np.floor(x))\n    return a, b, c, d\n")
    assert mod_one_sites(src, exempt="wrap") == [2, 6, 7, 8, 9]
    assert mod_one_sites(src) == [2, 4, 6, 7, 8, 9]


def test_every_reduction_mod_one_goes_through_wrap():
    found = {p.name: mod_one_sites(p.read_text(), exempt="wrap" if p.name == "circle.py" else None)
             for p in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


CONCURRENCY = {"concurrent", "threading", "multiprocessing"}


def concurrency_imports(source: str) -> list:
    """Lines that import concurrent.futures, threading or multiprocessing
    (or a submodule), at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        if any(m.split(".")[0] in CONCURRENCY for m in modules):
            found.append(node.lineno)
    return found


def test_concurrency_checker_flags_only_pool_imports():
    src = ("import threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
           "import os, multiprocessing.pool as mp\nfrom .threading import lock\nimport threadpoolctl\n"
           "def f():\n    import concurrent.futures\n    from . import threading\n")
    assert concurrency_imports(src) == [1, 2, 3, 7]


def test_no_module_imports_a_thread_or_process_pool():
    found = {p.name: concurrency_imports(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def test_checker_flags_only_unused_names():
    src = "from __future__ import annotations\nimport numpy as np\nfrom os import path, sep\nx = np.pi + len(sep)\n"
    assert unused_imports(src) == ["path"]


def test_no_unused_module_level_imports():
    found = {p.name: unused_imports(p.read_text())
             for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    assert {k: v for k, v in found.items() if v} == {}


def test_local_checker_flags_only_unread_names():
    src = ("top = 1\n"
           "def f(x):\n    dead = x + 1\n    kept = x\n    a, b = x, x\n    _ = a\n"
           "    def g():\n        late = kept\n        return x\n    return g\n"
           "class C:\n    def m(self):\n        self.y = 1\n        z = 2\n        return z\n")
    assert unread_locals(src) == ["f:dead", "g:late"]


def test_no_unread_locals():
    found = {str(p.relative_to(TESTS.parent)): unread_locals(p.read_text())
             for p in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def test_private_checker_flags_only_unreferenced_names():
    sources = {
        "a.py": "def _local():\n    pass\ndef _dead():\n    pass\nclass _Imported:\n    pass\n"
                "def _attr():\n    pass\nx = _local()\n",
        "b.py": "from a import _Imported\nimport a\ny = a._attr\ndef public():\n    pass\n",
    }
    assert unreferenced_privates(sources) == ["a.py:_dead"]


def test_no_unreferenced_module_level_privates():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []
