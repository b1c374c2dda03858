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

SRC = Path(__file__).resolve().parents[1] / "src"

#: prints the default error degree, then every name in a module's
#: ``__all__`` or re-exported by the package that does not resolve
CHECK = textwrap.dedent("""
    import ast, importlib, pkgutil
    import crobstacle
    print(crobstacle.AfemConfig().error_degree)
    missing = []
    for info in pkgutil.iter_modules(crobstacle.__path__):
        module = importlib.import_module("crobstacle." + info.name)
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
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
""")


def test_package_imports_in_fresh_interpreter():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", CHECK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["12", "[]"], proc.stdout
