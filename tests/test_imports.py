"""Static checks on src/circlelab: every module-level import is used,
every module-level private function or class is referenced somewhere, and
every local that a function assigns by name is read (in tests/ too).

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
