"""The layer loader and the trace wrappers on the package tree."""
import sys
import types

import pytest

import tracing
from layers import LAYER_NAMES, LayerLoadError, load_layers


def test_loader_imports_every_layer_without_the_package_init():
    L = load_layers()
    for name in LAYER_NAMES:
        module = getattr(L, name)
        assert module.__name__ == f"crobstacle.{name}"
    package = sys.modules["crobstacle"]
    # The bare package carries no re-exports, so the package __init__ never ran.
    assert not hasattr(package, "afem_run")
    assert "crobstacle.adaptivity" not in sys.modules
    assert callable(L.solver.pdas_solve) and callable(L.benchmarks.get_benchmark)


def test_loader_reports_missing_sources(tmp_path):
    with pytest.raises(LayerLoadError):
        load_layers(tmp_path)


def test_every_wrapped_name_exists_on_the_tree():
    L = load_layers()
    saved = {(owner, attr): getattr(owner, attr) for owner, attr in _targets(L)}
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, L)
        assert tracer.missing == []
    finally:
        for (owner, attr), original in saved.items():
            setattr(owner, attr, original)


def _targets(L):
    out = [(L.solver, a) for a in (
        "solve_kkt", "solve_spd", "build_system", "assemble_stiffness_full",
        "assemble_coupling", "find_excluded_element", "build_dofmap",
        "assemble_load", "assemble_obstacle_vectors", "dirichlet_dof_values")]
    out += [(m, "element_points") for m in (L.spaces, L.assembly, L.duality,
                                            L.estimator)]
    out += [(L.mesh.Mesh, "barycentric_coordinates")]
    out += [(L.estimator, a) for a in ("eta_A", "eta_B", "eta_C", "oscillation",
                                       "postprocess_conforming")]
    return out


def test_missing_target_is_noted_not_fatal():
    tracer = tracing.Tracer()
    owner = types.SimpleNamespace(present=lambda x: x + 1)
    assert tracer.wrap(owner, "absent", "layer.absent") is False
    assert tracer.wrap(owner, "present", "layer.present") is True
    assert len(tracer.missing) == 1 and tracer.missing[0].endswith(".absent")
    with tracer.recording():
        assert owner.present(1) == 2
    assert owner.present(2) == 3                      # not recorded: tracing off
    assert tracer.calls("layer.present") == 1


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0],
                    ["inner", 5.0, 6.0, 0], ["leaf", 2.0, 3.0, 1]]
    assert tracer.total("outer") == 10.0
    assert tracer.self_time("outer") == 6.0
    assert tracer.self_time("inner") == 3.0
    assert tracer.calls("inner") == 2
