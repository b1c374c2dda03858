"""Tests for the adaptive refinement loop: marking, bookkeeping, and rates.

Rate bands were frozen from an independent hand-rolled solve-estimate-mark-
refine loop (driving only the already-tested solver/estimator/mesh modules)
before this module was implemented:

* corner benchmark, adaptive, 22 levels, last-half fit: slope -1.08
  (uniform refinement stalls near -0.87 at the same scale);
* radial benchmark, adaptive, 20 levels, last-half fit: slope -1.04;
* smooth unconstrained problem, uniform, 6 levels: slope -0.97;
* corner localization at the final adaptive mesh: elements in the contact
  interior are > 3x coarser than in the free-boundary annulus, the smallest
  element sits at the re-entrant corner, and > half of all elements live in
  the annulus band.
"""
import functools
import itertools
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crobstacle import adaptivity
from crobstacle import spaces as spaces_mod
from crobstacle.adaptivity import (
    AdaptivityError,
    AfemConfig,
    AfemHistory,
    afem_run,
    doerfler_mark,
    dump_level_vtk,
)
from crobstacle.assembly import HIGH_ORDER_DEGREE, ProblemData
from crobstacle.benchmarks import corner, pyramid, ring
from crobstacle.duality import (
    energy_dual_discrete,
    energy_primal_discrete,
)
from crobstacle.estimator import write_error_history
from crobstacle.mesh import Rectangle, build_structured

THETA = 0.5


# ----------------------------------------------------------------------
# Shared histories
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def corner_adaptive():
    bench = corner()
    cfg = AfemConfig(theta=THETA, max_levels=22)
    return afem_run(bench.data, cfg, bench.initial_mesh())


@pytest.fixture(scope="module")
def ring_adaptive():
    bench = ring()
    cfg = AfemConfig(theta=THETA, max_levels=20)
    return afem_run(bench.data, cfg, bench.initial_mesh())


@pytest.fixture(scope="module")
def smooth_uniform():
    data = ProblemData(name="smooth", f=1.0, chi=-1e6)
    mesh = build_structured(Rectangle(0.0, 0.0, 1.0, 1.0), 2)
    cfg = AfemConfig(uniform=True, max_levels=6)
    return afem_run(data, cfg, mesh)


# ----------------------------------------------------------------------
# Configuration validation
# ----------------------------------------------------------------------
def test_config_defaults():
    cfg = AfemConfig()
    assert cfg.theta == 0.5
    assert cfg.eps_stop > 0.0
    assert cfg.max_levels >= 1
    assert cfg.uniform is False
    assert cfg.max_elements >= 1


@pytest.mark.parametrize("theta", [0.0, 1.0, -0.25, 1.5, math.nan])
def test_config_rejects_bad_theta(theta):
    with pytest.raises(AdaptivityError):
        AfemConfig(theta=theta)


@pytest.mark.parametrize("eps", [0.0, -1e-3])
def test_config_rejects_bad_eps_stop(eps):
    with pytest.raises(AdaptivityError):
        AfemConfig(eps_stop=eps)


def test_config_rejects_bad_budgets():
    with pytest.raises(AdaptivityError):
        AfemConfig(max_levels=0)
    with pytest.raises(AdaptivityError):
        AfemConfig(max_elements=0)


# ----------------------------------------------------------------------
# Bulk marking
# ----------------------------------------------------------------------
def test_mark_single_dominant_element():
    marked = doerfler_mark(np.array([4.0, 1.0, 1.0, 1.0, 1.0]),
                           math.sqrt(0.5))
    assert marked.tolist() == [0]


def test_mark_uniform_ties_take_lowest_ids():
    marked = doerfler_mark(np.ones(8), math.sqrt(0.5))
    assert marked.tolist() == [0, 1, 2, 3]


def test_mark_all_zero_gives_empty_set():
    marked = doerfler_mark(np.zeros(5), 0.5)
    assert marked.size == 0


def test_mark_rejects_non_finite_indicators():
    # NaN passes a "min < 0" test; unchecked, it marks every element
    for value in (np.nan, np.inf):
        ind = np.ones(8)
        ind[2] = value
        with pytest.raises(AdaptivityError, match="finite"):
            doerfler_mark(ind, THETA)


def test_mark_rejects_negative_indicators():
    with pytest.raises(AdaptivityError):
        doerfler_mark(np.array([1.0, -1e-9, 2.0]), 0.5)


@pytest.mark.parametrize("theta", [0.0, 1.0, -0.5, 1.5])
def test_mark_rejects_bad_theta(theta):
    with pytest.raises(AdaptivityError):
        doerfler_mark(np.ones(4), theta)


def test_mark_threshold_and_prefix_minimality():
    rng = np.random.default_rng(1905)
    for trial in range(40):
        n = int(rng.integers(5, 60))
        ind = rng.uniform(0.0, 1.0, size=n) ** 2
        if trial % 5 == 0:  # inject exact ties
            ind[: n // 2] = ind[0]
        theta = float(rng.uniform(0.2, 0.95))
        marked = doerfler_mark(ind, theta)
        assert marked.dtype.kind == "i"
        assert np.all(np.diff(marked) > 0), "ids must be ascending"
        total = ind.sum()
        got = ind[marked].sum()
        assert got >= theta**2 * total - 1e-14 * total
        # dropping the weakest marked element must break the bound
        assert (got - ind[marked].min()
                < theta**2 * total + 1e-14 * total)


def test_mark_matches_exhaustive_minimal_cardinality():
    rng = np.random.default_rng(77)
    thetas = [0.3, math.sqrt(0.5), 0.8]
    for trial in range(27):
        n = int(rng.integers(3, 13))
        ind = rng.uniform(0.0, 1.0, size=n) ** 2
        if trial % 4 == 0:
            ind[::2] = ind[0]
        theta = thetas[trial % 3]
        total = ind.sum()
        thresh = theta**2 * total - 1e-14 * total
        best = None
        for m in range(n + 1):
            if any(sum(combo) >= thresh
                   for combo in itertools.combinations(ind, m)):
                best = m
                break
        marked = doerfler_mark(ind, theta)
        assert len(marked) == best, (trial, ind.tolist(), theta)


# ----------------------------------------------------------------------
# Uniform-mode runs
# ----------------------------------------------------------------------
def test_uniform_run_bookkeeping(smooth_uniform):
    hist = smooth_uniform
    assert len(hist.levels) == 6
    assert hist.stop_reason == "max_levels"
    dofs = [lvl.record.dofs for lvl in hist.levels]
    assert all(b > a for a, b in zip(dofs, dofs[1:]))
    for lvl in hist.levels:
        assert len(lvl.marked) == lvl.mesh.n_elements
        assert lvl.seconds >= 0.0 and math.isfinite(lvl.seconds)
        assert lvl.record.errors is None
        assert lvl.record.estimator_sq > 0.0
    elems = [lvl.mesh.n_elements for lvl in hist.levels]
    assert all(b == 4 * a for a, b in zip(elems, elems[1:]))


def test_uniform_smooth_estimator_decay_rate(smooth_uniform):
    slope = smooth_uniform.decay_slope(skip=2)
    assert -1.10 <= slope <= -0.85


def test_eps_stop_halts_run():
    bench = ring()
    cfg = AfemConfig(eps_stop=1.0e3, max_levels=10)
    hist = afem_run(bench.data, cfg, bench.initial_mesh())
    assert len(hist.levels) == 1
    assert hist.stop_reason == "estimator_tolerance"
    assert hist.levels[0].record.estimator_sq <= 1.0e3


def test_zero_problem_stops_immediately():
    data = ProblemData(name="null", f=0.0, chi=-1e6)
    mesh = build_structured(Rectangle(0.0, 0.0, 1.0, 1.0), 2)
    hist = afem_run(data, AfemConfig(max_levels=8), mesh)
    assert hist.stop_reason == "estimator_tolerance"
    assert len(hist.levels) == 1
    assert hist.levels[0].record.estimator_sq <= 1e-20


def test_element_budget_stops_refinement():
    bench = ring()
    cfg = AfemConfig(max_levels=50, max_elements=100)
    hist = afem_run(bench.data, cfg, bench.initial_mesh())
    assert hist.stop_reason == "element_budget"
    assert len(hist.levels) >= 4
    assert hist.levels[-1].mesh.n_elements <= 100


def test_solver_failure_aborts_with_partial_history(monkeypatch):
    # a one-iteration budget leaves the first level's solve non-converged
    monkeypatch.setattr(adaptivity, "pdas_solve",
                        functools.partial(adaptivity.pdas_solve, max_iter=1))
    bench = ring()
    cfg = AfemConfig(max_levels=5)
    with pytest.raises(AdaptivityError) as exc_info:
        afem_run(bench.data, cfg, bench.initial_mesh())
    history = exc_info.value.history
    assert isinstance(history, AfemHistory)
    assert len(history.levels) == 0


def test_late_failure_aborts_with_partial_history():
    # the exact u fails on the refined second mesh: the failure comes in
    # exact_errors, after that level's solve, flux and estimate succeeded
    bench = ring()
    mesh0 = bench.initial_mesh()
    exact = bench.data.exact

    def u(pts):
        if len(pts) > max(mesh0.n_elements, mesh0.n_sides):
            raise ValueError("no exact solution on this mesh")
        return exact.u(pts)

    data = replace(bench.data, exact=replace(exact, u=u))
    with pytest.raises(AdaptivityError, match="level 2") as exc_info:
        afem_run(data, AfemConfig(max_levels=5), mesh0)
    assert isinstance(exc_info.value.__cause__, ValueError)
    history = exc_info.value.history
    assert isinstance(history, AfemHistory)
    assert history.stop_reason == "aborted"
    assert len(history.levels) == 1


def test_history_requires_increasing_dofs(smooth_uniform):
    with pytest.raises(AdaptivityError):
        AfemHistory(config=smooth_uniform.config,
                    data=smooth_uniform.data,
                    levels=tuple(reversed(smooth_uniform.levels)),
                    stop_reason=smooth_uniform.stop_reason)


def test_decay_slope_needs_two_levels(smooth_uniform):
    with pytest.raises(AdaptivityError):
        smooth_uniform.decay_slope(skip=len(smooth_uniform.levels) - 1)


# ----------------------------------------------------------------------
# Adaptive runs: certificates and rates
# ----------------------------------------------------------------------
def test_corner_adaptive_rate(corner_adaptive):
    slope = corner_adaptive.decay_slope(skip=11)
    assert -1.25 <= slope <= -0.90


def test_corner_adaptive_marking_certificates(corner_adaptive):
    for lvl in corner_adaptive.levels[:-1]:
        ind = lvl.breakdown.indicators
        total = ind.sum()
        got = ind[lvl.marked].sum()
        assert got >= THETA**2 * total - 1e-14 * total
        assert (got - ind[lvl.marked].min()
                < THETA**2 * total + 1e-14 * total)


def test_corner_adaptive_marked_elements_refined(corner_adaptive):
    levels = corner_adaptive.levels
    for coarse, fine in zip(levels, levels[1:]):
        parents = fine.mesh.parent_elements
        assert parents is not None
        children = np.bincount(parents, minlength=coarse.mesh.n_elements)
        assert np.all(children[coarse.marked] >= 2)


def test_corner_adaptive_estimator_decreases_from_level3(corner_adaptive):
    eta = [lvl.record.estimator_sq for lvl in corner_adaptive.levels]
    for k in range(2, len(eta) - 1):
        assert eta[k + 1] < eta[k]


def test_corner_adaptive_localizes_refinement(corner_adaptive):
    mesh = corner_adaptive.levels[-1].mesh
    bary = mesh.vertex_coords[mesh.elem_vertices].mean(axis=1)
    r = np.hypot(bary[:, 0], bary[:, 1])
    areas = mesh.areas
    annulus = (r > 0.3) & (r < 0.7)
    contact_bulk = (r > 0.12) & (r < 0.22)
    assert annulus.sum() > 0 and contact_bulk.sum() > 0
    # the free-boundary annulus is refined, the contact interior stays coarse
    assert areas[contact_bulk].mean() >= 2.0 * areas[annulus].mean()
    # the strongest refinement sits at the re-entrant corner
    assert r[np.argmin(areas)] < 0.1
    # most elements end up inside the annulus band
    assert annulus.sum() >= 0.5 * mesh.n_elements


def test_ring_adaptive_rate(ring_adaptive):
    slope = ring_adaptive.decay_slope(skip=10)
    assert -1.25 <= slope <= -0.85


def test_ring_adaptive_contact_zone(ring_adaptive):
    for lvl in ring_adaptive.levels:
        assert np.array_equal(lvl.contact, lvl.outcome.multiplier.values < 0)
        assert lvl.contact.sum() >= 1
        mesh = lvl.mesh
        bary = mesh.vertex_coords[mesh.elem_vertices].mean(axis=1)
        radii = np.hypot(bary[:, 0], bary[:, 1])[lvl.contact]
        assert radii.max() <= 1.0 + mesh.h_max


def test_ring_adaptive_strong_duality_each_level(ring_adaptive):
    for lvl in ring_adaptive.levels:
        sysd = lvl.outcome.system
        primal = energy_primal_discrete(lvl.outcome.solution, sysd.f_h,
                                        sysd.chi_h)
        dual = energy_dual_discrete(lvl.flux, sysd.f_h, sysd.chi_h,
                                    boundary_dof_values=sysd.boundary_values)
        assert abs(primal - dual) <= 1e-10 * (1.0 + abs(primal))
        assert lvl.record.primal_energy == primal
        assert lvl.record.dual_energy == dual


def test_corner_adaptive_strong_duality_each_level(corner_adaptive):
    for rec in corner_adaptive.records:
        primal, dual = rec.primal_energy, rec.dual_energy
        assert math.isfinite(primal) and math.isfinite(dual), rec.level
        assert abs(primal - dual) <= 1e-8 * max(1.0, abs(primal)), rec.level


def test_pyramid_adaptive_strong_duality_each_level():
    # The dual energy reads the multiplier as its residual load, so no
    # round-off of the side fluxes can lift it above the sign slack: on
    # levels 12 and 13 of this run such round-off exceeds it.
    bench = pyramid()
    history = afem_run(bench.data, AfemConfig(max_levels=13),
                       bench.initial_mesh())
    assert len(history.levels) == 13
    for rec in history.records:
        primal, dual = rec.primal_energy, rec.dual_energy
        assert math.isfinite(primal) and math.isfinite(dual), rec.level
        assert abs(primal - dual) <= 1e-8 * max(1.0, abs(primal)), rec.level


def test_inherited_samples_give_the_records_of_fresh_ones(monkeypatch):
    """Refined levels copy unrefined elements' samples, with no record bit moved.

    The reference run samples every element on every level.  A counting
    load shows that the inheriting run evaluates fewer points.
    """
    bench = corner()

    def run():
        points = []

        def f(pts):
            points.append(pts.shape[0] * pts.shape[1])
            return bench.data.f(pts)

        hist = afem_run(replace(bench.data, f=f), AfemConfig(max_levels=6),
                        bench.initial_mesh())
        return [np.asarray(rec.row(), dtype=float).tobytes()
                for rec in hist.records], sum(points)

    inherited, inherited_points = run()
    monkeypatch.setattr(
        spaces_mod, "_sample_level",
        lambda value, mesh, rule: spaces_mod.sample_data(
            value, spaces_mod.element_points(mesh, rule.bary)))
    fresh, fresh_points = run()
    assert len(inherited) == 6 and inherited == fresh
    assert inherited_points < fresh_points


def test_only_the_last_level_keeps_samples():
    """Each level hands its f, u and grad u samples over to the next one.

    After a corner run every earlier level's mesh holds no sample, and the
    last mesh holds one each of f, u and grad u at the degree-12 points.
    """
    bench = corner()
    hist = afem_run(bench.data, AfemConfig(max_levels=6), bench.initial_mesh())
    meshes = [lvl.mesh for lvl in hist.levels]
    assert len(meshes) == 6
    assert all(mesh.samples == [] for mesh in meshes[:-1])
    last = meshes[-1]
    exact = bench.data.exact
    nq = spaces_mod.triangle_rule(HIGH_ORDER_DEGREE).n_points
    shapes = {fn: values.shape for fn, _, values in last.samples}
    assert shapes == {bench.data.f: (last.n_elements, nq),
                      exact.u: (last.n_elements, nq),
                      exact.grad_u: (last.n_elements, nq, 2)}
    assert len(last.samples) == 3


#: prints the level count and the sha256 of the records' rows of a short
#: adaptive corner run
_RECORD_DIGEST = textwrap.dedent("""
    import hashlib
    from crobstacle.adaptivity import AfemConfig, afem_run
    from crobstacle.benchmarks import corner
    bench = corner()
    history = afem_run(bench.data, AfemConfig(max_levels=8), bench.initial_mesh())
    rows = [record.row() for record in history.records]
    print(len(rows), hashlib.sha256(repr(rows).encode()).hexdigest())
""")


def test_records_do_not_depend_on_threads_or_hash_seed():
    # the records are bitwise reproducible: neither the BLAS thread count
    # nor the order of a hashed set or dict moves a bit of them
    src = Path(__file__).resolve().parents[1] / "src"
    digests = []
    for threads, seed in (("1", "0"), ("2", "4711")):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed,
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _RECORD_DIGEST], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert digests[0][0] == "8" and digests[0] == digests[1], digests


def test_ring_adaptive_exact_errors_recorded(ring_adaptive):
    errs = [lvl.record.errors for lvl in ring_adaptive.levels]
    assert all(e is not None for e in errs)
    assert errs[-1].grad_error < errs[0].grad_error / 3.0
    red = [lvl.record.reduced_sq for lvl in ring_adaptive.levels]
    assert all(math.isfinite(v) and v >= -1e-12 for v in red)


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------
def test_history_csv_written_from_records(tmp_path, ring_adaptive):
    path = tmp_path / "history.csv"
    write_error_history(path, ring_adaptive.records)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("level,h_max,dofs,grad_error")
    assert len(lines) == len(ring_adaptive.levels) + 1


def test_dump_level_vtk(tmp_path, ring_adaptive):
    lvl = ring_adaptive.levels[2]
    path = tmp_path / "level3.vtk"
    dump_level_vtk(lvl, path)
    text = path.read_text()
    assert "CELL_DATA" in text
    assert "POINT_DATA" in text
    for field in ("multiplier", "contact", "flux_x", "flux_y",
                  "estimator_sq", "solution"):
        assert f"SCALARS {field}" in text, field


def test_dump_level_vtk_solution_carries_the_boundary_data(tmp_path, ring_adaptive):
    # ring has inhomogeneous Dirichlet data; the vertex field must show it
    lvl = ring_adaptive.levels[1]
    path = tmp_path / "level2.vtk"
    dump_level_vtk(lvl, path)
    lines = path.read_text().splitlines()
    start = lines.index("SCALARS solution double 1") + 2
    point = np.array([float(v) for v in lines[start:start + lvl.mesh.n_vertices]])
    dmask = lvl.mesh.dirichlet_vertex_mask()
    g = ring().data.dirichlet_data(lvl.mesh.vertex_coords[dmask])
    assert np.allclose(point[dmask], g, rtol=1e-15, atol=0.0)
    assert np.round(point[dmask][:2], 3).tolist() == [0.998, 0.22]
