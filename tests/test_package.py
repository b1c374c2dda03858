"""Tests for the package as a whole, run in a fresh interpreter.

Other test modules import the submodules in-process, so a fault that only
shows when ``import crobstacle`` runs first (a name missing from a module
that ``__init__`` pulls in, say) can hide behind collection order.  This
module imports nothing from the package itself, so it still collects and
reports such a fault.
"""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: prints the default error degree, then every name in a module's
#: ``__all__`` or re-exported by the package that does not resolve, then
#: every module without ``__all__`` and every public function or class a
#: module defines that its ``__all__`` leaves out
CHECK = textwrap.dedent("""
    import ast, importlib, inspect, pkgutil
    import crobstacle
    print(crobstacle.AfemConfig().error_degree)
    missing, unlisted = [], []
    for info in pkgutil.iter_modules(crobstacle.__path__):
        module = importlib.import_module("crobstacle." + info.name)
        if not hasattr(module, "__all__"):
            unlisted.append(f"{info.name}.__all__")
        listed = getattr(module, "__all__", ())
        missing += [f"{info.name}.{name}" for name in listed
                    if not hasattr(module, name)]
        unlisted += [f"{info.name}.{name}" for name, value in vars(module).items()
                     if not name.startswith("_") and name not in listed
                     and (inspect.isfunction(value) or inspect.isclass(value))
                     and value.__module__ == module.__name__]
    with open(crobstacle.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module("crobstacle." + node.module)
            for alias in node.names:
                exported = getattr(crobstacle, alias.asname or alias.name, None)
                if exported is None or exported is not getattr(module, alias.name, None):
                    missing.append(alias.name)
    print(sorted(missing))
    print(sorted(unlisted))
""")


def test_package_imports_in_fresh_interpreter():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", CHECK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["12", "[]", "[]"], proc.stdout


def test_console_scripts_resolve():
    # every [project.scripts] target must import and be callable, or the
    # installed script fails with ModuleNotFoundError
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        check = (f"import importlib; assert callable(getattr("
                 f"importlib.import_module({module!r}), {attr!r}))")
        proc = subprocess.run([sys.executable, "-c", check], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, f"{name} = {target}: {proc.stderr}"
