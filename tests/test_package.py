"""Tests for the package as a whole, run in a fresh interpreter.

Other test modules import the submodules in-process, so a fault that only
shows when ``import crobstacle`` runs first (a name missing from a module
that ``__init__`` pulls in, say) can hide behind collection order.  This
module imports nothing from the package itself, so it still collects and
reports such a fault.
"""
import ast
import inspect
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


#: the loop controls, which only tests construct so far
_AFEM_CONFIG = ("theta", "eps_stop", "max_levels", "uniform", "max_elements")
_NO_CLI_YET = ("no program code constructs AfemConfig until the crobstacle "
               "CLI passes its options")

#: defaulted parameters that no call in the program passes, each kept for a
#: reason; a setting with one value in use is code, not a parameter
KEPT_SETTINGS = {
    "build_structured.boundary_rule": "the paper's mixed Dirichlet/Neumann setting",
    "pdas_solve.max_iter": "tests exhaust the iteration budget",
    "AfemHistory.decay_slope.skip": "drops a pre-asymptotic transient from a rate fit",
    "rho_reduced.reference_energy": "an extrapolated energy where none is exact (pyramid)",
    "rho_reduced.include_exact_terms": "the energy-only variant of the reduced measure",
    **{f"AfemConfig.{name}": _NO_CLI_YET for name in _AFEM_CONFIG},
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


def _is_dataclass(node):
    return any(getattr(d, "id", getattr(getattr(d, "func", None), "id", None))
               == "dataclass" for d in node.decorator_list)


def _dataclass_fields(node):
    """``(label.field, class, position, field)`` per defaulted field of a dataclass."""
    fields = [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)]
    for i, stmt in enumerate(fields):
        if stmt.value is not None:
            name = stmt.target.id
            yield f"{node.name}.{name}", node.name, i, name


def _settings(tree):
    """Defaulted parameters of the public functions, methods and constructors.

    The defaulted fields of a public dataclass are parameters of its
    constructor, matched by position in field order or by keyword.
    """
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield from _defaulted(node.name, node.name, node, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if _is_dataclass(node):
                yield from _dataclass_fields(node)
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
    # are matched by the callee's name, a dataclass's by its class name
    # (``dataclasses.replace`` calls are not matched).
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
    **{f"AfemConfig.{name}": _NO_CLI_YET for name in _AFEM_CONFIG},
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


def test_no_data_sampler_takes_element_points():
    # shared_sample builds the element points of the rows it samples, and
    # a post-processed field those of a callable obstacle; no caller hands
    # element points to a sampler or a diagnostic
    from crobstacle import duality, estimator, spaces
    for fn in (spaces.shared_sample, estimator.oscillation,
               estimator.PostprocessedField.sample, duality.energy_primal_continuous):
        assert "points" not in inspect.signature(fn).parameters, fn.__qualname__
    settings, _ = _program()
    assert "element_points.elements" in {label for label, *_ in settings}


#: ``global`` statements the program keeps, each with its reason
KEPT_GLOBALS = {}

#: methods that change a list, dict, set or deque in place
_MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove", "clear",
             "update", "setdefault", "add", "discard", "sort", "reverse",
             "appendleft", "extendleft", "__setitem__", "__delitem__"}


def _functions(tree):
    """``(qualified name, function node)`` of every function, nested ones included."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child
                yield from walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
    yield from walk(tree, "")


def _module_names(tree):
    """Names the module binds at its top level."""
    names = set()
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                   else [])
        names.update(t.id for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Name))
    return names


def _local_names(fn):
    """Parameters and names a function binds itself (``global`` ones excluded)."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    declared = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
    return names - declared


def _in_place_writes(fn, shared):
    """Module-level names in ``shared`` that ``fn`` changes in place."""
    shared = shared - _local_names(fn)
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete))
                       else [node.target])
            for target in targets:
                if (isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name)
                        and target.value.id in shared):
                    yield target.value.id
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in _MUTATORS and isinstance(node.func.value, ast.Name)
              and node.func.value.id in shared):
            yield node.func.value.id


def _program_modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((SRC / "crobstacle").glob("*.py"))}


def test_every_global_statement_is_kept():
    # module state outlives every call; the program writes it only where
    # KEPT_GLOBALS says why
    found = sorted(f"{module}.{name}.{target}"
                   for module, tree in _program_modules().items()
                   for name, fn in _functions(tree)
                   for node in ast.walk(fn) if isinstance(node, ast.Global)
                   for target in node.names)
    assert found == sorted(KEPT_GLOBALS), found


def test_no_function_changes_module_state_in_place():
    # a module-level list, dict or set that a function fills is a cache
    # that outlives the call (a factor cache, say); module-level containers
    # are read only, and no function is memoised
    writes, memoised = [], []
    for module, tree in _program_modules().items():
        shared = _module_names(tree)
        for name, fn in _functions(tree):
            writes += [f"{module}.{name}: {target}"
                       for target in _in_place_writes(fn, shared)]
            memoised += [f"{module}.{name}" for d in fn.decorator_list
                         for node in ast.walk(d)
                         if getattr(node, "id", getattr(node, "attr", None))
                         in ("cache", "lru_cache")]
    assert writes == [] and memoised == [], (writes, memoised)


def _calls_by_function(tree):
    """``(qualified name of the innermost enclosing function, call node)`` of every call."""
    def walk(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, prefix + child.name + ".", prefix + child.name)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".", owner)
            else:
                if isinstance(child, ast.Call):
                    yield owner, child
                yield from walk(child, prefix, owner)
    yield from walk(tree, "", "<module>")


def _is_selector_factorisation(call):
    """``splu(P, permc_spec="NATURAL", **_SELECTOR_OPTIONS)``."""
    given = [(k.arg, k.value) for k in call.keywords]
    return (len(call.args) == 1 and len(given) == 2
            and given[0][0] == "permc_spec"
            and isinstance(given[0][1], ast.Constant) and given[0][1].value == "NATURAL"
            and given[1][0] is None
            and isinstance(given[1][1], ast.Name) and given[1][1].id == "_SELECTOR_OPTIONS")


#: the functions whose one SuperLU factorisation keeps SuperLU's defaults:
#: their bits set every record, and even the panel width moves them
DEFAULT_FACTORISATIONS = ("sparse.solve_kkt", "sparse.solve_spd")


def test_every_factorisation_is_a_selector_or_a_default_one():
    # a selector factors P in the order its pattern holds, so it asks
    # SuperLU for none; solve_kkt and solve_spd pass no option at all
    selectors, defaults, other, named = [], [], [], 0
    for module, tree in _program_modules().items():
        named += sum(1 for node in ast.walk(tree)
                     if getattr(node, "id", getattr(node, "attr", None)) == "splu")
        for owner, call in _calls_by_function(tree):
            if getattr(call.func, "id", getattr(call.func, "attr", None)) != "splu":
                continue
            where = f"{module}.{owner}"
            if _is_selector_factorisation(call):
                selectors.append(where)
            elif len(call.args) == 1 and not call.keywords:
                defaults.append(where)
            else:
                other.append(f"{where}: {ast.unparse(call)}")
    assert other == [], other
    assert sorted(defaults) == sorted(DEFAULT_FACTORISATIONS), defaults
    assert selectors and named == len(selectors) + len(defaults)


def test_no_module_maps_physical_points_back_to_barycentric():
    # quadrature is barycentric only: prolongation reads a fine side
    # midpoint's parent coordinates from the refinement's child codes, and
    # Mesh.barycentric_coordinates is left to the tests and the benchmark
    calls = sorted(f"{module}.{owner}"
                   for module, tree in _program_modules().items()
                   for owner, call in _calls_by_function(tree)
                   if getattr(call.func, "attr", None) == "barycentric_coordinates")
    assert calls == [], calls
