"""Packaging metadata: what pyproject.toml and the modules declare must exist."""

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
