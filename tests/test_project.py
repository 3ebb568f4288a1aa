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


def _definitions(tree):
    """Module-level functions and classes, and the functions of each class body."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield from alias.name.split(".")


def test_every_definition_has_a_caller_outside_the_tests():
    # the dense oracle is exempt as a definition, but its calls count
    callers = sorted(PACKAGE.glob("*.py")) + sorted(
        p for p in BENCH.glob("*.py") if p.name != "test_bench.py")
    trees = {p: ast.parse(p.read_text(), str(p)) for p in callers}
    used = {name for tree in trees.values() for name in _references(tree)}
    defined = {name for p, tree in trees.items()
               if p.parent == PACKAGE and p.stem != "dense_oracle"
               for name in _definitions(tree)
               if not (name.startswith("__") and name.endswith("__"))}
    uncalled = sorted(defined - used - set(TEST_ONLY))
    assert not uncalled, f"defined in src/pswarp, called only by tests: {uncalled}"
    gone = sorted(set(TEST_ONLY) - defined)
    assert not gone, f"listed in TEST_ONLY, no longer defined: {gone}"
