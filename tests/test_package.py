"""Tests for the package as a whole, run in a fresh interpreter.

Other test modules import the submodules in-process, so a fault that only
shows when ``import crobstacle`` runs first (a name missing from a module
that ``__init__`` pulls in, say) can hide behind collection order.  This
module imports nothing from the package itself, so it still collects and
reports such a fault.
"""
import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: prints every name in a module's ``__all__`` or re-exported by the package
#: that does not resolve, then every module without ``__all__`` and every
#: public function or class a module defines that its ``__all__`` leaves out
CHECK = textwrap.dedent("""
    import ast, importlib, inspect, pkgutil
    import crobstacle
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
    assert proc.stdout.split("\n")[:2] == ["[]", "[]"], proc.stdout


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


#: defaulted parameters that no call in the program passes, each kept for a
#: reason; a setting with one value in use is code, not a parameter
KEPT_SETTINGS = {
    "build_structured.boundary_rule": "the paper's mixed Dirichlet/Neumann setting",
    "triangle_rule.subdivisions": "composite reference rules that tests compare against",
    "pdas_solve.max_iter": "tests exhaust the iteration budget",
    "AfemHistory.decay_slope.skip": "drops a pre-asymptotic transient from a rate fit",
    "rho_reduced.reference_energy": "an extrapolated energy where none is exact (pyramid)",
    "rho_reduced.include_exact_terms": "the energy-only variant of the reduced measure",
}


def _defaulted(label, callee, fn, method):
    """``(label.param, callee, positional index or None, param)`` per defaulted parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield f"{label}.{arg.arg}", callee, i - method, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield f"{label}.{arg.arg}", callee, None, arg.arg


def _settings(tree):
    """Defaulted parameters of the public functions, methods and constructors."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield from _defaulted(node.name, node.name, node, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if fn.name == "__init__":
                    yield from _defaulted(node.name, node.name, fn, 1)
                elif not fn.name.startswith("_"):
                    yield from _defaulted(f"{node.name}.{fn.name}", fn.name, fn, 1)


def _passes(call, index, param):
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if index is not None and len(call.args) > index:
        return True
    return any(k.arg in (param, None) for k in call.keywords)


def _program():
    """The settings of ``src/crobstacle`` and the program's calls by callee name."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((SRC / "crobstacle").glob("*.py"))
             + sorted((ROOT / "perfbench").glob("*.py"))}
    calls = {}
    for tree in trees.values():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                calls.setdefault(name, []).append(call)
    settings = [setting for path, tree in trees.items()
                if path.parent.name == "crobstacle" for setting in _settings(tree)]
    return settings, calls


def test_every_setting_is_passed_or_kept():
    # A public function, method or constructor parameter with a default is
    # a setting.  Some call in src/ or perfbench/ (its tests aside) must pass
    # it, by position or by keyword, or KEPT_SETTINGS must name it.  Calls
    # are matched by the callee's name; dataclass fields are not covered.
    settings, calls = _program()
    unused = sorted(
        label for label, callee, index, param in settings
        if not any(_passes(c, index, param) for c in calls.get(callee, ())))
    assert unused == sorted(KEPT_SETTINGS), unused


#: defaulted parameters that no call in the program leaves at its default,
#: each kept for a reason; a default that only tests use belongs in the tests
KEPT_DEFAULTS = {
    "Mesh.side_labeler": "build_structured passes its boundary_rule, whose "
                         "default every benchmark uses",
    "build_structured.pattern": "each benchmark names its diagonals; a mesh "
                                "built by hand takes the alternating ones",
    "refine_rgb.marked": "None is uniform red refinement",
    "AfemHistory.decay_slope.skip": "drops a pre-asymptotic transient from a rate fit",
}


def test_every_default_is_used_or_kept():
    # The mirror of the lint above: some call in src/ or perfbench/ (its
    # tests aside) must omit each defaulted parameter, so that its default
    # is the program's own value, or KEPT_DEFAULTS must name it.
    settings, calls = _program()
    unused = sorted(
        label for label, callee, index, param in settings
        if all(_passes(c, index, param) for c in calls.get(callee, ())))
    assert unused == sorted(KEPT_DEFAULTS), unused
