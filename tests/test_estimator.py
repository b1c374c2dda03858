"""Tests for the a posteriori machinery.

Covers the conforming post-processing (vertex averaging capped by the
obstacle), the three-part error estimator with per-element localization,
the computable reduced error measure, exact-error norms against closed-form
solutions, experimental convergence orders, and extrapolated reference
energies.

Oracle style: closed-form hand values where available, independent
quadrature re-computations otherwise, plus study-level anchors for the
radial benchmark (tabulated reference errors and values frozen from an
independent development-time computation).
"""
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from crobstacle.assembly import (
    ExactSolution,
    ProblemData,
    assemble_load,
)
from crobstacle.benchmarks import RING_ENERGY, corner, pyramid, ring
from crobstacle.duality import energy_primal_continuous, marini_flux
from crobstacle.estimator import (
    ErrorRecord,
    EstimatorBreakdown,
    EstimatorError,
    aitken,
    eoc,
    estimate,
    eta_A,
    eta_B,
    eta_C,
    exact_errors,
    oscillation,
    postprocess_conforming,
    rho_reduced,
    write_error_history,
)
from crobstacle.mesh import (
    Mesh,
    Rectangle,
    build_structured,
    export_vtk,
    refine_rgb,
)
from crobstacle.solver import pdas_solve
from crobstacle.spaces import (
    CrFunction,
    P0Function,
    SpaceError,
    element_points,
    integrate_elementwise,
    interp_av,
    interp_cr,
    interp_rt,
    project_p0,
    segment_rule,
    triangle_rule,
)

from util import dual_field, grid_mesh

# Tabulated reference errors for the radial benchmark on successive uniform
# refinements (levels 1..7), and the convergence orders printed next to them.
REF_GRAD_ERRORS = [1.359, 0.787, 0.380, 0.197, 0.099, 0.050, 0.025]
REF_GRAD_EOCS = [0.788, 1.048, 0.948, 0.996, 0.989, 0.998]
REF_GRAD_INTERP_L3 = 0.324
REF_FLUX_L3 = 0.260
REF_FLUX_INTERP_L3 = 0.212
# Multiplier pairing anchors at level 3, frozen from an independent
# development-time computation on the same uniform-diagonal mesh family.
REF_PAIRING_L3 = 1.778e-3
REF_PAIRING_INTERP_L3 = 4.95e-3
# Supercloseness anchors at level 3 (distance of the discrete fields to the
# canonical interpolants of the exact fields), frozen the same way.  These
# decay faster than the plain error norms, so they sit well below the
# corresponding *_INTERP approximation errors of the interpolants.
REF_GRAD_SUPER_L3 = 0.1770
REF_FLUX_SUPER_L3 = 0.0764


def _high(v):
    """``v`` sampled on the points of the estimator's degree-12 rule."""
    return v.sample(triangle_rule(12).bary)


def _high_points(mesh):
    """The element points of the estimator's degree-12 rule."""
    return element_points(mesh, triangle_rule(12).bary)


def _grad_sq(sample):
    """``|grad v|^2`` of a post-processed field at its sample points."""
    return sample.gradient_error_sq(np.zeros((sample.field.mesh.n_elements, 2)))


def _affine(a, b, c):
    def fn(points):
        pts = np.asarray(points, dtype=float)
        return a + b * pts[..., 0] + c * pts[..., 1]

    return fn


# ----------------------------------------------------------------------
# Shared uniform-refinement study of the radial benchmark (levels 1..6).
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ring_study():
    bench = ring()
    data = bench.data
    mesh = bench.initial_mesh()
    levels = []
    for k in range(1, 7):
        out = pdas_solve(mesh, data)
        assert out.converged
        flux = marini_flux(out.solution, out.multiplier, out.system.f_h)
        res = estimate(out)
        errs = exact_errors(out.solution, flux, out.multiplier, data)
        pts = _high_points(mesh)
        sample = res.field.sample(triangle_rule(12).bary, pts)
        i_v = energy_primal_continuous(mesh, data, sample.values,
                                       _grad_sq(sample), pts)
        rho_full = rho_reduced(res.field, out.solution, out.multiplier, data)
        rho_energy = rho_reduced(res.field, out.solution, out.multiplier,
                                 data, include_exact_terms=False)
        levels.append(SimpleNamespace(
            level=k, mesh=mesh, out=out, flux=flux, result=res, errors=errs,
            i_v=i_v, rho_full=rho_full, rho_energy=rho_energy,
            h=mesh.h_max))
        if k < 6:
            mesh = refine_rgb(mesh)
    return levels


# ----------------------------------------------------------------------
# Post-processing
# ----------------------------------------------------------------------
def test_postprocess_is_vertex_averaging_when_obstacle_far():
    mesh = grid_mesh(3, 3)
    rng = np.random.default_rng(11)
    u = CrFunction(mesh, rng.normal(size=mesh.n_sides))
    data = ProblemData(name="far", f=0.0, chi=-1e6)
    v = postprocess_conforming(u, data)
    nodal = interp_av(u, data.dirichlet_values_at)
    rule = triangle_rule(3)
    assert np.array_equal(v.values_on(rule.bary), nodal.eval_at(rule.bary))
    # the gradient is the nodal one at every point
    assert np.all(v.sample(rule.bary).gradient_error_sq(
        nodal.gradient().values) == 0.0)


def test_postprocess_zero_solution_nonpositive_obstacle():
    mesh = grid_mesh(2, 2)

    def chi(points):
        pts = np.asarray(points, dtype=float)
        return -(1.0 + pts[..., 0] ** 2)

    u = CrFunction(mesh, np.zeros(mesh.n_sides))
    data = ProblemData(name="zero", f=1.0, chi=chi)
    v = postprocess_conforming(u, data)
    rule = triangle_rule(4)
    assert np.all(v.values_on(rule.bary) == 0.0)
    assert np.all(_grad_sq(v.sample(rule.bary)) == 0.0)


def test_postprocess_takes_pointwise_maximum():
    mesh = grid_mesh(3, 2)
    rng = np.random.default_rng(5)
    u = CrFunction(mesh, rng.normal(size=mesh.n_sides))
    chi = _affine(0.1, 0.3, 0.0)
    data = ProblemData(name="max", f=0.0, chi=chi,
                       chi_grad=lambda pts: np.broadcast_to(
                           [0.3, 0.0], np.asarray(pts).shape))
    v = postprocess_conforming(u, data)
    rule = triangle_rule(4)
    p1 = interp_av(u, data.dirichlet_values_at).eval_at(rule.bary)
    chi_vals = chi(element_points(mesh, rule.bary))
    assert np.array_equal(v.values_on(rule.bary), np.maximum(p1, chi_vals))
    assert np.all(v.values_on(rule.bary) >= chi_vals)


def test_postprocess_assigns_boundary_data_at_dirichlet_vertices():
    bench = ring()
    mesh = bench.initial_mesh()
    out = pdas_solve(mesh, bench.data)
    v = postprocess_conforming(out.solution, bench.data)
    dmask = mesh.dirichlet_vertex_mask()
    expected = bench.data.dirichlet_values_at(mesh.vertex_coords[dmask])
    assert np.allclose(v.nodal.values[dmask], expected, atol=1e-14)


def test_postprocess_gradient_uses_active_obstacle_branch():
    mesh = grid_mesh(2, 2)
    u = CrFunction(mesh, np.zeros(mesh.n_sides))
    chi = _affine(-0.5, 1.0, 0.0)

    def chi_grad(points):
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape)
        out[..., 0] = 1.0
        return out

    data = ProblemData(name="branch", f=0.0, chi=chi, chi_grad=chi_grad)
    v = postprocess_conforming(u, data)
    rule = triangle_rule(3)
    sample = v.sample(rule.bary)
    x = element_points(mesh, rule.bary)[..., 0]
    active = x > 0.5
    # |grad v - (1, 0)|^2 within (1e-14)^2 per component where chi is active
    e_x = np.tile([1.0, 0.0], (mesh.n_elements, 1))
    assert np.all(sample.gradient_error_sq(e_x)[active] <= 2e-28)
    assert np.all(_grad_sq(sample)[~active] == 0.0)

    bare = ProblemData(name="branch-no-grad", f=0.0, chi=chi)
    v_bare = postprocess_conforming(u, bare)
    v_bare.values_on(rule.bary)  # values never need the obstacle gradient
    with pytest.raises(EstimatorError):
        _grad_sq(v_bare.sample(rule.bary))


def test_postprocess_physical_point_evaluation_consistent():
    bench = ring()
    mesh = refine_rgb(bench.initial_mesh())
    out = pdas_solve(mesh, bench.data)
    v = postprocess_conforming(out.solution, bench.data)
    rule = triangle_rule(5)
    pts = element_points(mesh, rule.bary)
    # physical-point oracle: locate each point in its element, evaluate the
    # nodal affine there and cap it by the (flat) obstacle
    nt, nq = pts.shape[:2]
    bary = mesh.barycentric_coordinates(
        np.repeat(np.arange(nt), nq), pts.reshape(-1, 2)).reshape(nt, nq, 3)
    p1 = np.einsum("tj,tqj->tq", v.nodal.element_values(), bary)
    values = np.maximum(p1, bench.data.chi)
    grads = np.where((bench.data.chi > p1)[..., None], 0.0,
                     v.nodal.gradient().values[:, None, :])
    assert np.allclose(values, v.values_on(rule.bary),
                       atol=1e-12, rtol=1e-12)
    # |grad v - r|^2 for r = 0, e_x and e_y pins grad v down
    for r in ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0]):
        ref = np.tile(r, (nt, 1))
        assert np.allclose(((grads - ref[:, None, :]) ** 2).sum(axis=-1),
                           v.sample(rule.bary).gradient_error_sq(ref),
                           atol=1e-12, rtol=1e-12)
    assert np.array_equal(v.sample(rule.bary, pts).values, v.values_on(rule.bary))
    assert np.array_equal(_grad_sq(v.sample(rule.bary, pts)),
                          _grad_sq(v.sample(rule.bary)))


def test_postprocess_pyramid_feasible_at_quadrature_nodes():
    bench = pyramid()
    mesh = bench.initial_mesh()
    out = pdas_solve(mesh, bench.data)
    v = postprocess_conforming(out.solution, bench.data)
    rule = triangle_rule(5)
    chi_vals = bench.data.chi(element_points(mesh, rule.bary))
    assert np.all(v.values_on(rule.bary) - chi_vals >= 0.0)


# ----------------------------------------------------------------------
# eta_A
# ----------------------------------------------------------------------
def test_eta_a_vanishes_when_averaging_reproduces():
    mesh = grid_mesh(3, 3)
    g = _affine(0.4, -1.2, 0.7)
    data = ProblemData(name="affine", f=0.0, chi=-1e6, dirichlet_data=g)
    u = interp_cr(g, mesh)
    v = postprocess_conforming(u, data)
    vals = eta_A(v, u, _high(v))
    assert vals.shape == (mesh.n_elements,)
    assert np.all(np.abs(vals) <= 1e-20)


def test_eta_a_matches_independent_quadrature():
    mesh = grid_mesh(3, 2)
    rng = np.random.default_rng(23)
    u = CrFunction(mesh, rng.normal(size=mesh.n_sides))
    data = ProblemData(name="osc", f=0.0, chi=-1e6)
    v = postprocess_conforming(u, data)
    # Obstacle far below: the integrand |grad I_av u - grad_h u|^2 is
    # constant per element, so any rule integrates it exactly.
    nodal = interp_av(u, data.dirichlet_values_at)
    nodal_vals = nodal.values[mesh.elem_vertices]
    p1_grads = np.einsum("tj,tjd->td", nodal_vals, mesh.bary_grads)
    cr_grads = u.gradient().values
    expected = ((p1_grads - cr_grads) ** 2).sum(axis=1) * mesh.areas
    assert np.allclose(eta_A(v, u, _high(v)), expected, rtol=1e-13)
    # a sample on points built by the caller gives the same bits
    shared = v.sample(triangle_rule(12).bary, _high_points(mesh))
    assert np.array_equal(eta_A(v, u, shared), eta_A(v, u, _high(v)))


def test_eta_a_total_decreases_under_refinement(ring_study):
    totals = [lvl.result.breakdown.eta_a_sq.sum() for lvl in ring_study]
    assert all(b < a for a, b in zip(totals, totals[1:]))


def test_eta_a_squared_decays_quadratically_without_contact():
    bench = ring()
    data = ProblemData(name="smooth", f=-2.0, chi=-1e9,
                       dirichlet_data=bench.data.dirichlet_data)
    mesh = bench.initial_mesh()
    hs, totals = [], []
    for _ in range(4):
        out = pdas_solve(mesh, data)
        assert not out.state.active.any()
        v = postprocess_conforming(out.solution, data)
        totals.append(eta_A(v, out.solution, _high(v)).sum())
        hs.append(mesh.h_max)
        mesh = refine_rgb(mesh)
    slope = np.polyfit(np.log(hs), np.log(totals), 1)[0]
    assert 1.6 <= slope <= 2.4


# ----------------------------------------------------------------------
# eta_B
# ----------------------------------------------------------------------
def test_eta_b_zero_without_contact():
    mesh = grid_mesh(2, 2)
    rng = np.random.default_rng(3)
    u = CrFunction(mesh, rng.normal(size=mesh.n_sides))
    data = ProblemData(name="nocontact", f=0.0, chi=-5.0)
    v = postprocess_conforming(u, data)
    lam = P0Function(mesh, np.zeros(mesh.n_elements))
    assert np.all(eta_B(v, lam, data, _high(v)) == 0.0)


def test_eta_b_zero_when_postprocessing_sits_on_obstacle():
    mesh = grid_mesh(2, 2)
    u = CrFunction(mesh, np.zeros(mesh.n_sides))
    data = ProblemData(name="flat", f=-4.0, chi=0.0)
    v = postprocess_conforming(u, data)
    lam = P0Function(mesh, np.full(mesh.n_elements, -3.0))
    assert np.all(eta_B(v, lam, data, _high(v)) == 0.0)


def test_eta_b_hand_value_for_affine_gap():
    mesh = grid_mesh(2, 2)
    rng = np.random.default_rng(7)
    u = CrFunction(mesh, rng.uniform(1.0, 2.0, size=mesh.n_sides))
    data = ProblemData(name="gap", f=0.0, chi=-1.0)
    v = postprocess_conforming(u, data)
    lam_vals = -rng.uniform(0.5, 4.0, size=mesh.n_elements)
    lam = P0Function(mesh, lam_vals)
    # v - chi is affine per element; its mean is the value at the centroid.
    centroid_vals = v.nodal.element_values().mean(axis=1)
    expected = (-lam_vals) * mesh.areas * (centroid_vals + 1.0)
    assert np.allclose(eta_B(v, lam, data, _high(v)), expected, rtol=1e-13)


def test_eta_b_rejects_positive_multiplier():
    mesh = grid_mesh(2, 2)
    u = CrFunction(mesh, np.full(mesh.n_sides, 2.0))
    data = ProblemData(name="bad", f=0.0, chi=0.0)
    v = postprocess_conforming(u, data)
    lam = P0Function(mesh, np.full(mesh.n_elements, 1.0))
    with pytest.raises(EstimatorError):
        eta_B(v, lam, data, _high(v))


def test_eta_b_supported_on_discrete_contact_zone(ring_study):
    lvl = ring_study[4]  # 2048 elements
    b = lvl.result.breakdown.eta_b_sq
    h = lvl.mesh.h_max
    radii = np.hypot(*lvl.mesh.barycenters.T)
    contributing = b > 1e-12 * b.max()
    assert contributing.any()
    # contributions require an active multiplier, so they never reach
    # beyond one element layer outside the exact contact disc |x| <= 1
    assert radii[contributing].max() <= 1.0 + h
    # the dominant contribution sits at the free boundary, and the bulk of
    # the mass concentrates in a narrow band around it
    assert abs(radii[b.argmax()] - 1.0) <= 0.5 * h
    near = np.abs(radii - 1.0) <= 3.0 * h
    assert b[near].sum() >= 0.95 * b.sum()


# ----------------------------------------------------------------------
# eta_C
# ----------------------------------------------------------------------
def test_eta_c_zero_when_multiplier_matches_load():
    mesh = grid_mesh(3, 2)
    vals = np.linspace(-2.0, -0.5, mesh.n_elements)
    lam = P0Function(mesh, vals)
    f_h = P0Function(mesh, vals.copy())
    assert np.all(eta_C(lam, f_h, mesh) == 0.0)


def test_eta_c_closed_form_for_constant_load():
    mesh = grid_mesh(2, 3)
    lam = P0Function(mesh, np.zeros(mesh.n_elements))
    f_h = P0Function(mesh, np.full(mesh.n_elements, -2.0))
    expected = mesh.h_elements ** 2 * mesh.areas
    assert np.allclose(eta_C(lam, f_h, mesh), expected, rtol=1e-14)


def test_eta_c_total_decays_quadratically(ring_study):
    hs = [lvl.h for lvl in ring_study[1:]]
    totals = [lvl.result.breakdown.eta_c_sq.sum() for lvl in ring_study[1:]]
    slope = np.polyfit(np.log(hs), np.log(totals), 1)[0]
    assert 1.8 <= slope <= 2.2


# ----------------------------------------------------------------------
# Data oscillation
# ----------------------------------------------------------------------
def test_oscillation_zero_for_constant_load():
    mesh = grid_mesh(2, 2)
    data = ProblemData(name="const", f=-2.0, chi=0.0)
    f_h = P0Function(mesh, np.full(mesh.n_elements, -2.0))
    assert np.all(oscillation(mesh, data, f_h, _high_points(mesh)) == 0.0)


def test_oscillation_matches_independent_quadrature():
    mesh = grid_mesh(3, 2)
    f = _affine(2.0, 1.0, -2.0)
    data = ProblemData(name="affload", f=f, chi=-10.0)
    from crobstacle.spaces import project_p0

    f_h = project_p0(f, mesh, triangle_rule(5))
    rule = triangle_rule(2)  # exact for the quadratic integrand
    pts = element_points(mesh, rule.bary)
    diff_sq = (f(pts) - f_h.values[:, None]) ** 2
    expected = mesh.h_elements ** 2 * integrate_elementwise(mesh, rule, diff_sq)
    got = oscillation(mesh, data, f_h, _high_points(mesh))
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-16)


class TestOsc:
    """Oscillation with the load projection that assembly computes.

    The oscillation of ``f = x_1`` on the unit right triangle is
    ``h^2 * 1/36 = 1/18`` (centred second moment of x over that triangle).
    """

    @staticmethod
    def osc(mesh, data):
        f_h = assemble_load(mesh, data)
        per = oscillation(mesh, data, f_h, _high_points(mesh))
        return per, float(per.sum())

    def test_constant_zero_exactly(self):
        m = _square_mesh(2)
        per, total = self.osc(m, _plain_data(f=3.0))
        assert np.all(per == 0.0) and total == 0.0
        per, total = self.osc(m, _plain_data(f=P0Function(m, np.ones(m.n_elements))))
        assert total == 0.0

    def test_linear_on_reference_triangle(self):
        m = Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
        per, total = self.osc(m, _plain_data(f=lambda p: p[..., 0]))
        # h^2 ||x - 1/3||^2 = 2 * (1/36) = 1/18 on the unit right triangle
        assert total == pytest.approx(1.0 / 18.0, rel=1e-12)
        assert per[0] == pytest.approx(total)

    def test_smooth_vs_quadrature_oracle(self):
        m = _square_mesh(2)
        f = lambda p: np.cos(p[..., 0] * p[..., 1])
        per, total = self.osc(m, _plain_data(f=f))
        rule = triangle_rule(12, subdivisions=1)
        pts = element_points(m, rule.bary)
        f_h = project_p0(f, m, triangle_rule(5))
        diff2 = (np.asarray(f(pts)) - f_h.values[:, None]) ** 2
        oracle = m.h_elements ** 2 * m.areas * (diff2 @ rule.weights)
        assert np.allclose(per, oracle, atol=1e-10)


def _square_mesh(n, lo=-1.5, hi=1.5):
    return build_structured(Rectangle(lo, lo, hi, hi), n)


def _plain_data(f=0.0, chi=0.0, **kw):
    return ProblemData(name="test", f=f, chi=chi, **kw)


def test_oscillation_rejects_load_on_another_mesh():
    mesh = _square_mesh(2)
    other = _square_mesh(2)
    data = _plain_data(f=P0Function(other, np.ones(other.n_elements)))
    f_h = P0Function(mesh, np.ones(mesh.n_elements))
    with pytest.raises(SpaceError):
        oscillation(mesh, data, f_h, _high_points(mesh))


def test_estimate_with_piecewise_constant_load_matches_scalar_load():
    bench = ring()
    mesh = bench.initial_mesh()
    scalar = replace(bench.data, f=-2.0)
    discrete = replace(bench.data,
                       f=P0Function(mesh, np.full(mesh.n_elements, -2.0)))
    parts = []
    for data in (scalar, discrete):
        bd = estimate(pdas_solve(mesh, data)).breakdown
        assert np.all(bd.osc_sq == 0.0)
        parts.append((bd.eta_a_sq, bd.eta_b_sq, bd.eta_c_sq))
    for a, b in zip(*parts):
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# Breakdown container
# ----------------------------------------------------------------------
def test_breakdown_totals_are_sums():
    mesh = grid_mesh(2, 2)
    rng = np.random.default_rng(1)
    parts = [rng.uniform(0.0, 1.0, mesh.n_elements) for _ in range(4)]
    bd = EstimatorBreakdown(mesh, *parts)
    for name, part in zip(("eta_a_sq", "eta_b_sq", "eta_c_sq", "osc_sq"), parts):
        assert np.array_equal(getattr(bd, name), part)
    assert np.allclose(bd.indicators, parts[0] + parts[1] + parts[2],
                       rtol=1e-15)
    assert bd.total_sq == pytest.approx(bd.indicators.sum(), rel=1e-14)
    cell = bd.cell_data()
    for key in ("eta_a_sq", "eta_b_sq", "eta_c_sq", "osc_sq", "estimator_sq"):
        assert key in cell and len(cell[key]) == mesh.n_elements


def test_breakdown_rejects_negative_entries():
    mesh = grid_mesh(2, 2)
    good = np.zeros(mesh.n_elements)
    bad = good.copy()
    bad[3] = -1e-10
    with pytest.raises(EstimatorError):
        EstimatorBreakdown(mesh, bad, good, good, good)


def test_breakdown_rejects_non_finite_entries():
    # NaN passes a "min < -tol" test; it would make total_sq NaN
    mesh = grid_mesh(2, 2)
    good = np.zeros(mesh.n_elements)
    for value in (np.nan, np.inf):
        bad = good.copy()
        bad[3] = value
        for k in range(4):
            parts = [good] * 4
            parts[k] = bad
            with pytest.raises(EstimatorError, match="non-finite"):
                EstimatorBreakdown(mesh, *parts)


def test_estimate_composes_the_parts(ring_study):
    lvl = ring_study[1]
    out, res = lvl.out, lvl.result
    data = out.system.data
    assert np.allclose(res.breakdown.eta_a_sq,
                       eta_A(res.field, out.solution, _high(res.field)), rtol=1e-13)
    assert np.allclose(res.breakdown.eta_b_sq,
                       eta_B(res.field, out.multiplier, data, _high(res.field)), rtol=1e-13)
    assert np.allclose(res.breakdown.eta_c_sq,
                       eta_C(out.multiplier, out.system.f_h, lvl.mesh),
                       rtol=1e-13)
    assert np.allclose(res.breakdown.osc_sq,
                       oscillation(lvl.mesh, data, out.system.f_h,
                                   _high_points(lvl.mesh)),
                       rtol=1e-13)


# ----------------------------------------------------------------------
# Constant-free reliability and the reduced error measure
# ----------------------------------------------------------------------
def test_constant_free_reliability_every_level(ring_study):
    for lvl in ring_study:
        eta_sq = lvl.result.breakdown.total_sq
        lhs = (lvl.i_v - RING_ENERGY) + 0.5 * lvl.errors.flux_error ** 2
        scale = 1.0 + abs(RING_ENERGY) + eta_sq
        assert lhs <= eta_sq + 1e-8 * scale, f"level {lvl.level}"
        # the energy pairing with the exact constraint force is nonnegative
        assert lvl.i_v >= RING_ENERGY - 1e-8 * scale, f"level {lvl.level}"


def test_reduced_measure_below_estimator_every_level(ring_study):
    for lvl in ring_study:
        eta_sq = lvl.result.breakdown.total_sq
        scale = 1.0 + abs(RING_ENERGY) + eta_sq
        assert lvl.rho_full <= eta_sq + 1e-8 * scale, f"level {lvl.level}"
        assert lvl.rho_full >= -1e-8 * scale


def test_efficiency_ratio_stable_across_levels(ring_study):
    ratios = [lvl.result.breakdown.total_sq / lvl.rho_full
              for lvl in ring_study[1:]]
    assert max(ratios) / min(ratios) <= 10.0


def test_rho_reduced_vanishes_when_everything_reproduces():
    mesh = grid_mesh(3, 3)
    g = _affine(0.2, 0.8, -0.5)

    def grad_g(points):
        pts = np.asarray(points, dtype=float)
        out = np.empty(pts.shape)
        out[..., 0] = 0.8
        out[..., 1] = -0.5
        return out

    energy = 0.5 * (0.8 ** 2 + 0.5 ** 2)  # unit square, f = 0
    exact = ExactSolution(u=g, grad_u=grad_g, energy=energy)
    data = ProblemData(name="exact-affine", f=0.0, chi=-1e6,
                       dirichlet_data=g, exact=exact)
    out = pdas_solve(mesh, data)
    v = postprocess_conforming(out.solution, data)
    rho = rho_reduced(v, out.solution, out.multiplier, data)
    assert abs(rho) <= 1e-10 * (1.0 + energy)


def test_rho_reduced_reference_energy_precedence(ring_study):
    lvl = ring_study[1]
    v, out = lvl.result.field, lvl.out
    data = out.system.data
    base = rho_reduced(v, out.solution, out.multiplier, data)
    same = rho_reduced(v, out.solution, out.multiplier, data,
                       reference_energy=RING_ENERGY)
    shifted = rho_reduced(v, out.solution, out.multiplier, data,
                          reference_energy=RING_ENERGY - 0.5)
    assert same == pytest.approx(base, abs=1e-12)
    assert shifted == pytest.approx(base + 0.5, abs=1e-10)


def test_rho_reduced_requires_a_reference_energy():
    bench = pyramid()
    mesh = bench.initial_mesh()
    out = pdas_solve(mesh, bench.data)
    v = postprocess_conforming(out.solution, bench.data)
    with pytest.raises(EstimatorError):
        rho_reduced(v, out.solution, out.multiplier, bench.data)
    with pytest.raises(EstimatorError):
        rho_reduced(v, out.solution, out.multiplier, bench.data,
                    reference_energy=-1.0, include_exact_terms=True)
    # energy-only variant works from an extrapolated reference
    val = rho_reduced(v, out.solution, out.multiplier, bench.data,
                      reference_energy=-1.0)
    assert np.isfinite(val)


def test_rho_reduced_variant_drops_exact_solution_terms(ring_study):
    lvl = ring_study[1]
    out, data = lvl.out, lvl.out.system.data
    v = lvl.result.field
    pts = _high_points(lvl.mesh)
    sample = v.sample(triangle_rule(12).bary, pts)
    i_v = energy_primal_continuous(lvl.mesh, data, sample.values,
                                   _grad_sq(sample), pts)
    assert lvl.rho_energy == pytest.approx(i_v - RING_ENERGY, abs=1e-10)
    # the dropped terms: broken gradient error squared plus the pairing of
    # the discrete constraint force with the exact gap
    rule = triangle_rule(12)
    pts = element_points(lvl.mesh, rule.bary)
    mean_u = integrate_elementwise(
        lvl.mesh, rule, data.exact.u(pts)) / lvl.mesh.areas
    pair = float(np.sum(-out.multiplier.values * lvl.mesh.areas * mean_u))
    dropped = lvl.errors.grad_error ** 2 + pair
    assert lvl.rho_full - lvl.rho_energy == pytest.approx(dropped, rel=1e-8)
    assert dropped >= -1e-12


# ----------------------------------------------------------------------
# Exact error norms
# ----------------------------------------------------------------------
def test_exact_errors_interpolant_identities():
    bench = ring()
    data = bench.data
    mesh = refine_rgb(bench.initial_mesh())
    u_i = interp_cr(data.exact.u, mesh, segment_rule(6))
    z_i = interp_rt(data.exact.grad_u, mesh, segment_rule(6))
    lam = P0Function(mesh, np.zeros(mesh.n_elements))
    errs = exact_errors(u_i, dual_field(z_i), lam, data)
    # The discrete fields coincide with the interpolants, so the distance
    # to the interpolants vanishes while the plain errors reduce to the
    # interpolants' own approximation errors.
    assert errs.grad_supercloseness <= 1e-13
    assert errs.flux_supercloseness <= 1e-13
    assert errs.grad_error == pytest.approx(errs.grad_error_interp,
                                            rel=1e-12)
    assert errs.flux_error == pytest.approx(errs.flux_error_interp,
                                            rel=1e-12)
    assert errs.grad_error_interp > 0.01
    assert errs.flux_error_interp > 0.01
    assert errs.pairing_error == 0.0
    assert errs.pairing_error_interp == 0.0
    assert errs.total_error == pytest.approx(errs.grad_error, rel=1e-15)
    assert errs.total_error_interp == pytest.approx(
        errs.grad_error_interp, rel=1e-15)


def test_exact_errors_radial_benchmark_level3(ring_study):
    errs = ring_study[2].errors
    assert abs(errs.grad_error - 0.380) <= 0.20 * 0.380
    assert abs(errs.grad_error_interp - REF_GRAD_INTERP_L3) <= \
        0.20 * REF_GRAD_INTERP_L3
    assert abs(errs.flux_error - REF_FLUX_L3) <= 0.20 * REF_FLUX_L3
    assert abs(errs.flux_error_interp - REF_FLUX_INTERP_L3) <= \
        0.20 * REF_FLUX_INTERP_L3
    assert abs(errs.pairing_error - REF_PAIRING_L3) <= 0.15 * REF_PAIRING_L3
    assert abs(errs.pairing_error_interp - REF_PAIRING_INTERP_L3) <= \
        0.15 * REF_PAIRING_INTERP_L3
    assert errs.grad_supercloseness == pytest.approx(REF_GRAD_SUPER_L3,
                                                     rel=0.02)
    assert errs.flux_supercloseness == pytest.approx(REF_FLUX_SUPER_L3,
                                                     rel=0.02)
    # Per-element L2 orthogonality ties the gradient triple together.
    assert errs.grad_error ** 2 == pytest.approx(
        errs.grad_error_interp ** 2 + errs.grad_supercloseness ** 2,
        rel=1e-2)
    assert errs.total_error == pytest.approx(
        errs.pairing_error + errs.grad_error, rel=1e-15)
    assert errs.total_error_interp == pytest.approx(
        errs.pairing_error_interp + errs.grad_error_interp, rel=1e-15)


def test_exact_errors_nonnegative(ring_study):
    for lvl in ring_study[:4]:
        e = lvl.errors
        for val in (e.grad_error, e.grad_error_interp,
                    e.grad_supercloseness, e.flux_error,
                    e.flux_error_interp, e.flux_supercloseness,
                    e.pairing_error, e.pairing_error_interp):
            assert val >= -1e-12


# ----------------------------------------------------------------------
# Convergence orders
# ----------------------------------------------------------------------
def test_eoc_closed_forms():
    assert np.allclose(eoc([1.0, 0.5], [1.0, 0.5]), [1.0], atol=1e-12)
    assert np.allclose(eoc([1.0, 0.25], [1.0, 0.5]), [2.0], atol=1e-12)


def test_eoc_matches_log_ratio_formula():
    rng = np.random.default_rng(17)
    e = rng.uniform(0.1, 2.0, size=6)
    h = 1.5 * 0.5 ** np.arange(6)
    got = eoc(e, h)
    expected = [np.log(e[i + 1] / e[i]) / np.log(h[i + 1] / h[i])
                for i in range(5)]
    assert np.allclose(got, expected, atol=1e-12)


def test_eoc_reproduces_tabulated_orders():
    h = 1.0 / 2.0 ** np.arange(7)
    got = eoc(REF_GRAD_ERRORS, h)
    assert np.all(np.abs(got - REF_GRAD_EOCS) <= 0.005)


def test_eoc_rejects_bad_input():
    with pytest.raises(EstimatorError):
        eoc([1.0, 0.0], [1.0, 0.5])
    with pytest.raises(EstimatorError):
        eoc([1.0, -0.5], [1.0, 0.5])
    with pytest.raises(EstimatorError):
        eoc([1.0, 0.5], [1.0, 0.5, 0.25])
    with pytest.raises(EstimatorError):
        eoc([1.0], [1.0])
    with pytest.raises(EstimatorError):
        eoc([1.0, 0.5], [1.0, -0.5])


# ----------------------------------------------------------------------
# Extrapolated reference energies
# ----------------------------------------------------------------------
def test_aitken_exact_on_geometric_sequences():
    assert aitken([2.0, 1.5, 1.25]) == pytest.approx(1.0, abs=1e-12)
    k = np.arange(7)
    seq = -0.3 + 0.7 * 0.4 ** k
    assert aitken(seq) == pytest.approx(-0.3, abs=1e-12)


def test_aitken_rejects_degenerate_sequences():
    with pytest.raises(EstimatorError):
        aitken([5.0, 5.0, 5.0])
    with pytest.raises(EstimatorError):
        aitken([1.0, 2.0])


def test_aitken_falls_back_to_last_computable_window():
    # trailing window is degenerate; the one before it gives exactly 7
    assert aitken([2.0, 1.5, 1.25, 7.0, 7.0, 7.0]) == pytest.approx(
        7.0, abs=1e-12)


# ----------------------------------------------------------------------
# Study records
# ----------------------------------------------------------------------
def test_error_history_csv_deterministic(tmp_path, ring_study):
    lvl = ring_study[0]
    rec1 = ErrorRecord(level=1, h_max=lvl.h, dofs=lvl.out.system.dofmap.n_free,
                       errors=lvl.errors,
                       estimator_sq=lvl.result.breakdown.total_sq,
                       reduced_sq=lvl.rho_full,
                       primal_energy=0.1 + 0.2, dual_energy=-1.0)
    rec2 = ErrorRecord(level=2, h_max=lvl.h / 2.0, dofs=40, errors=None)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_error_history(path_a, [rec1, rec2])
    write_error_history(path_b, [rec1, rec2])
    assert path_a.read_bytes() == path_b.read_bytes()
    lines = path_a.read_text().strip().splitlines()
    assert lines[0] == ("level,h_max,dofs,grad_error,grad_error_interp,"
                        "grad_supercloseness,flux_error,flux_error_interp,"
                        "flux_supercloseness,pairing_error,"
                        "pairing_error_interp,total_error,total_error_interp,"
                        "estimator_sq,reduced_sq,primal_energy,dual_energy")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1"
    # full 17-significant-digit round trip
    assert float(first[15]) == 0.1 + 0.2
    assert all(tok == "nan" for tok in lines[2].split(",")[3:])


def test_breakdown_exports_to_vtk(tmp_path, ring_study):
    lvl = ring_study[0]
    path = tmp_path / "estimator.vtk"
    export_vtk(lvl.mesh, path, cell_data=lvl.result.breakdown.cell_data(),
               point_data={})
    text = path.read_text()
    assert "CELL_DATA" in text
    assert "estimator_sq" in text
    assert re.search(r"SCALARS\s+eta_a_sq", text)


# ----------------------------------------------------------------------
# Quadrature passes
# ----------------------------------------------------------------------
def test_each_diagnostic_builds_one_point_set(monkeypatch):
    """estimate, exact_errors and rho_reduced each lay one quadrature pass.

    Calls are counted by wrapping the module attributes through which the
    package reaches ``element_points`` and ``Mesh.barycentric_coordinates``,
    as the benchmark's tracer does.
    """
    import crobstacle.assembly as assembly_mod
    import crobstacle.duality as duality_mod
    import crobstacle.estimator as estimator_mod
    import crobstacle.spaces as spaces_mod

    bench = corner()
    mesh = bench.initial_mesh()
    mesh = refine_rgb(mesh, np.arange(0, mesh.n_elements, 5))
    data = bench.data
    out = pdas_solve(mesh, data)
    flux = marini_flux(out.solution, out.multiplier, out.system.f_h)

    calls = {"points": 0, "barycentric": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (spaces_mod, assembly_mod, duality_mod, estimator_mod):
        monkeypatch.setattr(module, "element_points",
                            counting("points", module.element_points))
    monkeypatch.setattr(Mesh, "barycentric_coordinates",
                        counting("barycentric", Mesh.barycentric_coordinates))

    runs = {
        "estimate": lambda: estimate(out),
        "exact_errors": lambda: exact_errors(out.solution, flux,
                                             out.multiplier, data),
    }
    field = runs["estimate"]().field
    runs["rho_reduced"] = lambda: rho_reduced(field, out.solution,
                                              out.multiplier, data)
    for name, run in runs.items():
        calls.update(points=0, barycentric=0)
        run()
        assert calls["points"] == 1, name
        assert calls["barycentric"] == 0, name


def test_rho_reduced_samples_the_obstacle_once():
    """One evaluation of a callable obstacle per rho_reduced, same value.

    The energy, its gradient term and the gap term all take the obstacle
    from one sample at the degree-12 element points.
    """
    bench = ring()
    shapes = []

    def chi(pts):
        shapes.append(pts.shape)
        return np.zeros(pts.shape[:-1])

    data = replace(bench.data, chi=chi, chi_grad=lambda pts: np.zeros(pts.shape))
    mesh = refine_rgb(bench.initial_mesh())
    out = pdas_solve(mesh, data)
    field = estimate(out).field
    shapes.clear()
    value = rho_reduced(field, out.solution, out.multiplier, data)
    nq = triangle_rule(12).n_points
    assert shapes == [(mesh.n_elements, nq, 2)] == [(32, 49, 2)]
    # the callable is ring's constant obstacle 0, and gives the same bits
    const = postprocess_conforming(out.solution, bench.data)
    assert value == rho_reduced(const, out.solution, out.multiplier, bench.data)


def test_diagnostics_sample_each_data_callable_once_per_level():
    """estimate, exact_errors and rho_reduced share the samples of f, u, grad u.

    Each callable is wrapped to count the element points of the degree-12
    rule it is evaluated at (side points of the interpolants are not
    counted).  Sharing changes no bit: the same diagnostics computed with
    fresh, unshared callables give equal values.
    """
    bench = corner()
    mesh = bench.initial_mesh()
    mesh = refine_rgb(mesh, np.arange(0, mesh.n_elements, 5))
    nq = triangle_rule(12).n_points
    counts = {}

    def counting(name, fn):
        counts[name] = 0

        def wrapper(pts):
            if pts.ndim == 3 and pts.shape[1] == nq:
                counts[name] += pts.shape[0] * pts.shape[1]
            return fn(pts)
        return wrapper

    def wrapped_data():
        exact = bench.data.exact
        return replace(bench.data, f=counting("f", bench.data.f),
                       exact=replace(exact, u=counting("u", exact.u),
                                     grad_u=counting("grad_u", exact.grad_u)))

    def diagnostics(out, data):
        flux = marini_flux(out.solution, out.multiplier, out.system.f_h)
        result = estimate(out)
        errs = exact_errors(out.solution, flux, out.multiplier, data)
        reduced = rho_reduced(result.field, out.solution, out.multiplier, data)
        return result.breakdown, errs, reduced

    data = wrapped_data()
    out = pdas_solve(mesh, data)
    for name in counts:
        counts[name] = 0
    breakdown, errs, reduced = diagnostics(out, data)
    n_points = mesh.n_elements * nq
    assert counts == {"f": n_points, "u": n_points, "grad_u": n_points}

    # unshared reference: new callables for every diagnostic
    ref_out = replace(out, system=replace(out.system, data=wrapped_data()))
    ref_breakdown = estimate(ref_out).breakdown
    flux = marini_flux(out.solution, out.multiplier, out.system.f_h)
    assert exact_errors(out.solution, flux, out.multiplier,
                        wrapped_data()) == errs
    ref_data = wrapped_data()
    field = postprocess_conforming(out.solution, ref_data)
    assert rho_reduced(field, out.solution, out.multiplier, ref_data) == reduced
    for name in ("eta_a_sq", "eta_b_sq", "eta_c_sq", "osc_sq"):
        assert np.array_equal(getattr(breakdown, name),
                              getattr(ref_breakdown, name)), name
