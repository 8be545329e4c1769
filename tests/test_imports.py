"""Static check: every module-level import in src/circlelab is used.

`__init__.py` is exempt; its imports are the package's public names.
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


def test_checker_flags_only_unused_names():
    src = "from __future__ import annotations\nimport numpy as np\nfrom os import path, sep\nx = np.pi + len(sep)\n"
    assert unused_imports(src) == ["path"]


def test_no_unused_module_level_imports():
    found = {p.name: unused_imports(p.read_text())
             for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    assert {k: v for k, v in found.items() if v} == {}
