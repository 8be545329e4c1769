"""Static checks on src/circlelab: every module-level import is used
(in tests/ too),
every module-level private function or class is referenced somewhere,
every public function, method and property is read by src code or is a
test reference (`TEST_REFERENCES`),
every local that a function assigns by name is read (in tests/ too),
every reduction mod 1 goes through `circle.wrap`, no module imports a
thread or process pool (runs are serial), no loop steps points by
`.step`, `.cval` or `.cderiv` (per-step loops step states), no loop
in `distortion.py` takes a one-map `.jet` (its checks step batches), and
no loop in `measure.py` builds a `GridMeasure` (its kernels write CDFs
into buffers).

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


def unread_public_names(sources: dict) -> list:
    """`module:name` or `module:Class.name` for each public module-level
    function, and each public method or property of a module-level class,
    whose name no module but `__init__.py` reads (as a name or an attribute)."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for name, tree in trees.items() if name != "__init__.py" for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{f.name}", f.name) for f in node.body if isinstance(f, ast.FunctionDef)]
            else:
                defs = [(node.name, node.name)] if isinstance(node, ast.FunctionDef) else []
            found += [f"{name}:{qual}" for qual, n in defs if not n.startswith("_") and n not in read]
    return sorted(found)


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


POINT_STEPPERS = {"step", "cval", "cderiv"}


def loop_point_steps(source: str, methods=POINT_STEPPERS, functions=()) -> list:
    """Lines of calls of the methods (by default `.step(`, `.cval(` or
    `.cderiv(`), or of the functions named in functions, inside the body
    of a `for` or `while` loop or the element of a comprehension, at any
    depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            bodies = node.body + node.orelse
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            bodies = [node.elt]
        elif isinstance(node, ast.DictComp):
            bodies = [node.key, node.value]
        else:
            continue
        found.update(n.lineno for body in bodies for n in ast.walk(body)
                     if isinstance(n, ast.Call) and (
                         isinstance(n.func, ast.Attribute) and n.func.attr in methods
                         or isinstance(n.func, ast.Name) and n.func.id in functions))
    return sorted(found)


def test_loop_checker_flags_only_point_steps_in_loops():
    src = ("def f(mu, a, x, n):\n    y = mu.step(0, x)\n    for _ in range(n):\n"
           "        x, _ = mu.step(0, x)\n        s = mu.step_state(0, x)\n"
           "        if n:\n            z = a.cval(x)\n    while n:\n        n = a.cderiv(x)\n"
           "    w = [a.cval(v) for v in x]\n    t = {k: a.step(k) for k in x}\n"
           "    u = step(x) + a.steps(x) + sum(mu.state(v) for v in x)\n    return y, s, z, w, t, u\n")
    assert loop_point_steps(src) == [4, 7, 9, 10, 11]


def test_no_loop_steps_points():
    found = {p.name: loop_point_steps(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def test_loop_checker_flags_only_jets_in_loops():
    src = ("def f(atoms, steps, x):\n    j = atoms[0].jet(x)\n    for k in steps:\n"
           "        j = atoms[k].jet(j.value)\n        v = mobius_jet(k, x) + jet(x)\n"
           "    return [a.jet(x) for a in atoms], j, v\n")
    assert loop_point_steps(src, {"jet"}) == [4, 6]


def test_no_distortion_loop_takes_a_one_map_jet():
    assert loop_point_steps((SRC / "distortion.py").read_text(), {"jet"}) == []


# what builds a GridMeasure: its constructor, its constructions and its pushforwards
MEASURE_BUILDS = {"pushforward", "pushforward_from_preimages", "lebesgue", "from_samples"}


def test_loop_checker_flags_only_measure_builds_in_loops():
    src = ("def f(nu, pre, n):\n    m = GridMeasure(pre)\n    for _ in range(n):\n"
           "        m = GridMeasure(pre)\n        p = nu.pushforward_from_preimages(pre)\n"
           "        nu._push_into(pre, m, p)\n        q = measure.GridMeasure(p)\n"
           "    return [GridMeasure.lebesgue(k) for k in pre], m, q\n")
    assert loop_point_steps(src, MEASURE_BUILDS, {"GridMeasure"}) == [4, 5, 8]
    assert loop_point_steps(src, MEASURE_BUILDS | {"GridMeasure"}, {"GridMeasure"}) == [4, 5, 7, 8]


def test_no_measure_loop_builds_a_grid_measure():
    methods = MEASURE_BUILDS | {"GridMeasure"}
    assert loop_point_steps((SRC / "measure.py").read_text(), methods, {"GridMeasure"}) == []


def test_checker_flags_only_unused_names():
    src = "from __future__ import annotations\nimport numpy as np\nfrom os import path, sep\nx = np.pi + len(sep)\n"
    assert unused_imports(src) == ["path"]


def test_no_unused_module_level_imports():
    found = {str(p.relative_to(TESTS.parent)): unused_imports(p.read_text())
             for p in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")) if p.name != "__init__.py"}
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


def test_public_checker_flags_only_names_src_never_reads():
    sources = {
        "a.py": "def used():\n    def inner():\n        pass\n    return inner\ndef dead():\n    pass\n"
                "class C:\n    def m(self):\n        pass\n    @property\n    def p(self):\n        return 1\n"
                "    def alias(self):\n        pass\n    __call__ = alias\n    def _private(self):\n        pass\n"
                "    def __len__(self):\n        return 0\n",
        "b.py": "from a import used, dead\nimport a\nx = used() + a.C().p\n",
        "__init__.py": "from .a import dead\nfrom . import a\ny = a.C.m\n",
    }
    assert unread_public_names(sources) == ["a.py:C.m", "a.py:dead"]


# public names that no src module reads, each kept as a reference that tests compare against
TEST_REFERENCES = {
    "convolve.py:ConvolutionTable.mass_of_matrix": "one-matrix lookup that the batched masses_of_matrices must equal",
    "jets.py:log_and_schwarzian": "(L, S) of a jet, for the chain-rule cocycle checks of criterion 6",
    "jets.py:projective_schwarzian": "the corrected Schwarzian that vanishes on Mobius words",
    "maps.py:MobiusMap.cderiv": "with cval, the loop the complex distortion check's direction states must match",
    "maps.py:MobiusMap.cval": "with cderiv, the loop the complex distortion check's direction states must match",
    "measure.py:GridMeasure.pushforward": "pushes nu through a whole word: the word-by-word reference Dirac probe",
    "measure.py:rn_derivative": "the one-point RN window, checked against g' and the cocycle rule",
    "measure.py:stationarity_residual": "the residual of criterion 4, recomputed from a measure alone",
}


def test_every_public_name_is_read_by_src_or_is_a_test_reference():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_public_names(sources) == sorted(TEST_REFERENCES)
