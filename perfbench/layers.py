"""Load the crobstacle layer modules from ``src/`` without the package ``__init__``.

The benchmark reaches each layer through its public module functions.  The
package ``__init__`` re-exports everything, ``adaptivity`` included, so one
broken module there would stop every workload.  Instead a bare package
object is registered under the name ``crobstacle`` with its search path set
to ``src/crobstacle``, and only the layer modules are imported.  No names are
injected and no program code is patched.
"""
import importlib
import importlib.machinery
import sys
import types
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = REPO_ROOT / "src" / "crobstacle"

#: the modules the benchmark drives, in import order
LAYER_NAMES = ("mesh", "spaces", "sparse", "assembly", "solver", "duality",
               "estimator", "benchmarks")


class LayerLoadError(RuntimeError):
    """The package sources are missing or a layer module failed to import."""


def load_layers(package_dir: Path = PACKAGE_DIR) -> types.SimpleNamespace:
    """Import the layer modules and return them as attributes of a namespace."""
    package_dir = Path(package_dir)
    if not (package_dir / "mesh.py").is_file():
        raise LayerLoadError(f"no crobstacle sources under {package_dir}")
    existing = sys.modules.get("crobstacle")
    if existing is None:
        pkg = types.ModuleType("crobstacle")
        pkg.__path__ = [str(package_dir)]
        pkg.__spec__ = importlib.machinery.ModuleSpec(
            "crobstacle", None, is_package=True)
        pkg.__spec__.submodule_search_locations = pkg.__path__
        sys.modules["crobstacle"] = pkg
    elif [str(p) for p in getattr(existing, "__path__", ())] != [str(package_dir)]:
        raise LayerLoadError(
            f"a different crobstacle package is already loaded: {existing!r}")
    modules = {}
    for name in LAYER_NAMES:
        try:
            modules[name] = importlib.import_module(f"crobstacle.{name}")
        except Exception as exc:
            raise LayerLoadError(f"importing crobstacle.{name} failed: {exc}") from exc
    return types.SimpleNamespace(**modules)
