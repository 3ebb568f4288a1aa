"""Packaging metadata: what pyproject.toml and the modules declare must exist."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import pswarp

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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
