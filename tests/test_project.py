"""Packaging metadata: what pyproject.toml and the modules declare must exist."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pswarp

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.parent / "README.md"
PACKAGE = PYPROJECT.parent / "src" / "pswarp"
BENCH = PYPROJECT.parent / "bench"
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_console_script_targets_import():
    # an installed console script imports its target on every start
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(pswarp.__path__)])
def test_module_exports_resolve(name):
    module = importlib.import_module(f"pswarp.{name}")
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"pswarp.{name}.{export}"


def test_factorized_operators_do_not_load_the_oracle():
    # the dense oracle referees the factorized code, so that code must not
    # lean on it; a fresh interpreter sees what the imports really pull in
    code = ("import sys, pswarp.saf_operators, pswarp.dual_operators; "
            "print('pswarp.dense_oracle' in sys.modules)")
    src = str(Path(pswarp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_readme_has_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_python_block_runs(index):
    # each block runs on its own, in a namespace of its own
    exec(compile(README_BLOCKS[index], f"README.md python block {index}", "exec"), {})


# Defined in src/pswarp, called only by tests: each is the referee of
# another definition, or a check small enough that moving it into the
# tests would not make less code.
TEST_ONLY = {
    "_to_time": "the dense referee of _to_time_product",
    "warped_dft": "the dense definition apply_warped_dft is tested against",
    "swf_time_invmap": "the dense definition apply_swf_time_invmap is tested against",
    "deviation_from_identity": "the pairing check ||D'W - I||_2 on an OperatorMatrix",
    "tail_rows": "the factored tail rows the quadrature oracle referees",
}


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _units(tree):
    """(name, nodes) of each module-level function and class and each method.

    A class's bases, decorators, fields and dunder methods go with the
    class; the module's other statements go under None.
    """
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            own = [*node.bases, *node.keywords, *node.decorator_list]
            for item in node.body:
                if isinstance(item, _FUNCS) and not _dunder(item.name):
                    yield item.name, [item]
                else:
                    own.append(item)
            yield node.name, own
        elif isinstance(node, _FUNCS):
            yield node.name, [node]
        else:
            yield None, [node]


def _references(node):
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            for alias in child.names:
                yield from alias.name.split(".")


def _reached(trees):
    """(defined, live): the src/pswarp definitions and the names that run.

    Reachability by name, to a fixed point: the roots are the module-level
    statements of src/pswarp and all of bench/ and the oracle, and a
    definition counts as called only when a reached unit names it.  A
    reference made only from inside an uncalled definition, or from a
    cycle of them, calls nothing.
    """
    units = {None: []}
    for path, tree in trees.items():
        whole = path.parent != PACKAGE or path.stem == "dense_oracle"
        for name, nodes in _units(tree):
            units.setdefault(None if whole else name, []).extend(nodes)
    defined = set(units) - {None}
    live, todo = set(), units.pop(None)
    while todo:
        for name in _references(todo.pop()):
            if name not in live:
                live.add(name)
                todo.extend(units.pop(name, []))
    return defined, live


def test_every_definition_has_a_caller_outside_the_tests():
    # the dense oracle is exempt as a definition, but its calls count
    callers = sorted(PACKAGE.glob("*.py")) + sorted(
        p for p in BENCH.glob("*.py") if p.name != "test_bench.py")
    defined, live = _reached({p: ast.parse(p.read_text(), str(p)) for p in callers})
    uncalled = sorted(defined - live - set(TEST_ONLY))
    assert not uncalled, f"defined in src/pswarp, called only by tests: {uncalled}"
    gone = sorted(set(TEST_ONLY) - defined)
    assert not gone, f"listed in TEST_ONLY, no longer defined: {gone}"
    called = sorted(set(TEST_ONLY) & live)
    assert not called, f"listed in TEST_ONLY, called outside the tests: {called}"


def test_a_chain_of_uncalled_definitions_is_all_uncalled():
    # _a calls _b, _c and _d call each other, nothing calls _a, _c or _d
    code = ("import os\n"
            "def _a():\n    return _b()\n"
            "def _b():\n    return os.sep\n"
            "def _c():\n    return _d()\n"
            "def _d():\n    return _c()\n"
            "class K:\n    def used(self):\n        return 1\n"
            "    def _e(self):\n        return _f()\n"
            "def _f():\n    return 0\n"
            "K().used()\n")
    defined, live = _reached({PACKAGE / "fake.py": ast.parse(code)})
    assert sorted(defined - live) == ["_a", "_b", "_c", "_d", "_e", "_f"]
