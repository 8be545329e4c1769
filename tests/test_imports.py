"""Static checks on src/circlelab: every module-level import is used, and
every module-level private function or class is referenced somewhere.

`__init__.py` is exempt from the import check; its imports are the
package's public names.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "circlelab"


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


def test_checker_flags_only_unused_names():
    src = "from __future__ import annotations\nimport numpy as np\nfrom os import path, sep\nx = np.pi + len(sep)\n"
    assert unused_imports(src) == ["path"]


def test_no_unused_module_level_imports():
    found = {p.name: unused_imports(p.read_text())
             for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
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
