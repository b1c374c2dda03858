"""Smoke sizes of every workload: each check runs and passes in seconds."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

import study

STUDY = Path(study.__file__)
WORKLOADS = sorted(study.WORKLOADS)


def run_study(workload, *flags):
    proc = subprocess.run(
        [sys.executable, str(STUDY), "--workload", workload, "--smoke", *flags],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def smoke(request):
    name = request.param
    return name, run_study(name), run_study(name, "--trace"), run_study(name, "--trace")


def test_every_check_runs_and_passes(smoke):
    name, plain, _, _ = smoke
    spec = study.workload_spec(name, smoke=True)
    checks = plain["checks"]
    assert plain["failed"] == 0 and len(plain["records"]) == spec.levels
    assert checks["correct"], checks
    assert checks["failing"] == {}
    # every level ran the solve, energy, obstacle and seed-comparison checks
    assert checks["total"] >= 5 * spec.levels
    assert plain["time_to_eta_s"] is not None and plain["wall_s"] > 0.0


def test_traced_counts_repeat_exactly(smoke):
    _, plain, first, second = smoke
    for key in ("spaces.element_points_calls", "solver.iterations",
                "sparse.kkt_calls", "mesh.barycentric_calls", "spaces.quad_points"):
        assert first["layers"][key] == second["layers"][key], key
    assert first["records"] == second["records"] == plain["records"]


def test_layer_split_covers_the_pipeline(smoke):
    name, _, traced, _ = smoke
    layers = traced["layers"]
    expected = {m["name"] for m in json.loads(
        (STUDY.parents[1] / "BENCHMARK.json").read_text())["per_layer"]}
    # trace.overhead_frac needs an untraced partner and is added by run.py
    assert set(layers) == expected - {"trace.overhead_frac"}
    assert layers["solver.pdas_s"] >= layers["sparse.kkt_s"] > 0.0
    assert layers["solver.pdas_self_s"] >= 0.0
    levels = len(traced["records"])
    if name == "corner-afem":
        # 1 in the solve, 5 in estimate, 4 in exact_errors, 2 in rho_reduced
        assert layers["spaces.element_points_calls"] == 12 * levels


def test_seed_mismatch_makes_the_run_incorrect():
    spec = study.workload_spec("ring-cold", smoke=True)
    reference = study.load_reference("ring-cold", smoke=True)
    level = reference["levels"][0]
    record = dict(level, converged=True, above_obstacle=True,
                  dual_energy=level["primal_energy"])
    assert study.check_study([record], 0, spec, reference)["correct"]
    shifted = dict(record, iterations=level["iterations"] + 1,
                   eta_sq=level["eta_sq"] * (1.0 + 1e-4))
    verdict = study.check_study([shifted], 0, spec, reference)
    assert not verdict["correct"]
    assert verdict["unexpected"] == {"counts_match_seed": [1],
                                     "values_match_seed": [1]}


def test_known_seed_failures_count_but_do_not_fail_the_run():
    spec = study.workload_spec("ring-cold")
    reference = study.load_reference("ring-cold")
    level = reference["levels"][0]
    record = dict(level, converged=True, above_obstacle=True, dual_energy=None)
    verdict = study.check_study([record], 0, spec, reference)
    assert verdict["failing"] == {"strong_duality": [1]}
    assert verdict["correct"] and verdict["passed"] == verdict["total"] - 1
