"""Tests for the dual flux reconstruction and the four energy functionals.

Oracle routes:
* closed-form side fluxes / divergences of hand-built affine fields,
* an independent integration-by-parts identity computed by quadrature,
* the frozen ring benchmark energy (re-derived in test_benchmarks.py),
* printed convergence anchors for the dual error.
"""
import math

import numpy as np
import pytest

from crobstacle.assembly import ProblemData, assemble_load, assemble_obstacle_vectors
from crobstacle.benchmarks import RING_ENERGY, corner, pyramid, ring
from crobstacle.duality import (
    DualityError,
    energy_dual_continuous,
    energy_dual_discrete,
    energy_primal_continuous,
    energy_primal_discrete,
    marini_flux,
)
from crobstacle.estimator import ErrorRecord, write_error_history
from crobstacle.mesh import refine_rgb
from crobstacle.solver import build_system, pdas_solve
from crobstacle.spaces import (
    CrFunction,
    P0Function,
    Rt0Function,
    element_points,
    integrate_elementwise,
    triangle_rule,
)
from util import (
    broken_energy,
    dual_field,
    grid_mesh,
    make_feasible_competitor,
    random_small_problem,
)


def cr_gradients(mesh, dofs):
    """Independent broken gradient: vertex traces times barycentric gradients."""
    d = np.asarray(dofs, dtype=float)[mesh.elem_sides]
    vertex_vals = d.sum(axis=1, keepdims=True) - 2.0 * d
    return np.einsum("tj,tjd->td", vertex_vals, mesh.bary_grads)


def reconstruction_fluxes(mesh, dofs, correction):
    """Closed-form side fluxes of grad_h u + c_T (x - x_T), one row per side
    and element slot (minus, plus); np.nan marks a missing plus element."""
    grads = cr_gradients(mesh, dofs)
    out = np.full((mesh.n_sides, 2), np.nan)
    for s in range(mesh.n_sides):
        n = mesh.side_normals[s]
        mid = mesh.side_midpoints[s]
        for slot, t in enumerate((mesh.side_elem_minus[s],
                                  mesh.side_elem_plus[s])):
            if t < 0:
                continue
            out[s, slot] = (n @ grads[t]
                            + correction[t] * (n @ (mid - mesh.barycenters[t])))
    return out


# ----------------------------------------------------------------------
# flux reconstruction
# ----------------------------------------------------------------------
def test_marini_flux_closed_form_two_triangles():
    mesh = grid_mesh(1, 1)
    rng = np.random.default_rng(5)
    dofs = rng.normal(size=mesh.n_sides)
    grads = cr_gradients(mesh, dofs)

    # pick the element-0 correction freely, then match element 1 so the
    # normal flux is single-valued on the shared diagonal
    interior = int(np.flatnonzero(mesh.side_elem_plus >= 0)[0])
    n = mesh.side_normals[interior]
    mid = mesh.side_midpoints[interior]
    t0 = int(mesh.side_elem_minus[interior])
    t1 = int(mesh.side_elem_plus[interior])
    c = np.zeros(2)
    c[t0] = rng.normal()
    c[t1] = ((n @ grads[t0] - n @ grads[t1]
              + c[t0] * (n @ (mid - mesh.barycenters[t0])))
             / (n @ (mid - mesh.barycenters[t1])))

    f_vals = rng.normal(size=2)
    lam_vals = f_vals + 2.0 * c
    u = CrFunction(mesh, dofs)
    z = marini_flux(u, P0Function(mesh, lam_vals), P0Function(mesh, f_vals))

    expected = reconstruction_fluxes(mesh, dofs, c)
    want = np.where(np.isnan(expected[:, 1]), expected[:, 0],
                    np.nanmean(expected, axis=1))
    assert np.max(np.abs(z.flux.side_fluxes - want)) <= 1e-13
    # divergence of the affine correction is exactly 2 c
    assert np.max(np.abs(z.divergence.values - 2.0 * c)) <= 1e-12
    assert np.max(np.abs(z.divergence.values - (lam_vals - f_vals))) <= 1e-12
    # element mean of an affine field is its barycenter value, grad_h u
    assert np.max(np.abs(z.cell_average.values - grads)) <= 1e-12


def test_marini_flux_rejects_inconsistent_data():
    mesh = grid_mesh(1, 1)
    rng = np.random.default_rng(6)
    dofs = rng.normal(size=mesh.n_sides)
    u = CrFunction(mesh, dofs)
    lam = P0Function(mesh, np.array([1.7, -2.3]))
    f_h = P0Function(mesh, np.zeros(2))
    with pytest.raises(DualityError):
        marini_flux(u, lam, f_h)


def test_marini_flux_zero_correction_reproduces_gradient():
    # affine boundary data with zero load: the nonconforming solution is the
    # affine function itself, the multiplier vanishes, and the reconstruction
    # degenerates to the (constant) gradient
    mesh = grid_mesh(3, 2, (0.0, 0.0, 1.5, 1.0))

    def g(points):
        pts = np.asarray(points, dtype=float)
        return 0.4 + 1.25 * pts[..., 0] - 0.75 * pts[..., 1]

    data = ProblemData(name="affine", f=0.0, chi=-1e6, dirichlet_data=g)
    out = pdas_solve(mesh, data)
    assert out.converged
    assert np.all(out.multiplier.values == 0.0)
    z = marini_flux(out.solution, out.multiplier, out.system.f_h)

    expected = mesh.side_normals @ np.array([1.25, -0.75])
    assert np.max(np.abs(z.flux.side_fluxes - expected)) <= 1e-10
    assert np.max(np.abs(z.divergence.values)) <= 1e-10
    assert z.max_normal_jump <= 1e-12


def test_dual_field_invariants_on_solves():
    rng = np.random.default_rng(99)
    cases = [random_small_problem(rng, k) for k in range(8)]
    for mesh, data in cases:
        out = pdas_solve(mesh, data)
        assert out.converged
        z = marini_flux(out.solution, out.multiplier, out.system.f_h)
        grads = out.solution.gradient().values
        lam = out.multiplier.values
        f_vals = out.system.f_h.values
        scale = 1.0 + float(np.abs(lam).max(initial=0.0)
                            + np.abs(f_vals).max(initial=0.0))
        # cell averages recover the broken gradient
        gscale = 1.0 + float(np.abs(grads).max(initial=0.0))
        assert np.max(np.abs(z.cell_average.values - grads)) <= 1e-12 * gscale
        # divergence identity (computed through the flux coefficients)
        assert np.max(np.abs(z.divergence.values + f_vals - lam)) <= 1e-12 * scale
        # normal-trace continuity, recomputed side by side
        both = reconstruction_fluxes(mesh, out.solution.dofs,
                                     0.5 * (lam - f_vals))
        interior = mesh.side_elem_plus >= 0
        jumps = np.abs(both[interior, 0] - both[interior, 1])
        assert jumps.max(initial=0.0) <= 1e-10 * scale
        # discrete complementarity per element
        gaps = out.solution.element_means() - out.system.chi_h.values
        comp = np.abs((z.divergence.values + f_vals) * gaps)
        cscale = 1.0 + float(np.abs(gaps).max(initial=0.0)) + scale
        assert comp.max(initial=0.0) <= 1e-10 * cscale


# ----------------------------------------------------------------------
# discrete energies and strong duality
# ----------------------------------------------------------------------
def _solve_and_energies(mesh, data):
    out = pdas_solve(mesh, data)
    assert out.converged
    sysd = out.system
    z = marini_flux(out.solution, out.multiplier, sysd.f_h)
    primal = energy_primal_discrete(out.solution, sysd.f_h, sysd.chi_h)
    dual = energy_dual_discrete(z, sysd.f_h, sysd.chi_h,
                                boundary_dof_values=sysd.boundary_values)
    return out, z, primal, dual


def test_discrete_strong_duality_randomized():
    rng = np.random.default_rng(314)
    for k in range(8):
        mesh, data = random_small_problem(rng, k)
        _, _, primal, dual = _solve_and_energies(mesh, data)
        assert math.isfinite(primal) and math.isfinite(dual)
        assert abs(primal - dual) <= 1e-10 * (1.0 + abs(primal))


def test_discrete_strong_duality_benchmarks():
    for bench, levels in ((ring(), 2), (corner(), 1), (pyramid(), 1)):
        mesh = bench.initial_mesh()
        for level in range(levels):
            _, _, primal, dual = _solve_and_energies(mesh, bench.data)
            assert abs(primal - dual) <= 1e-10 * (1.0 + abs(primal)), (
                f"{bench.name} level {level}: {primal} vs {dual}")
            mesh = refine_rgb(mesh)


def test_energy_primal_discrete_values():
    mesh = grid_mesh(3, 3)
    data = ProblemData(name="p", f=-3.0, chi=-1.0)
    f_h = assemble_load(mesh, data)
    _, chi_h = assemble_obstacle_vectors(mesh, data)

    zero = CrFunction(mesh, np.zeros(mesh.n_sides))
    assert energy_primal_discrete(zero, f_h, chi_h) == 0.0

    rng = np.random.default_rng(12)
    sysd = build_system(mesh, data)
    full = make_feasible_competitor(rng, mesh, sysd.dofmap,
                                    sysd.boundary_values, sysd.obstacle_means)
    v = CrFunction(mesh, full)
    value = energy_primal_discrete(v, f_h, chi_h)
    oracle = broken_energy(mesh, full, f_h.values)
    assert abs(value - oracle) <= 1e-12 * (1.0 + abs(oracle))

    # push one element mean far below the obstacle
    bad = full.copy()
    bad[mesh.elem_sides[4]] -= 5.0
    infeasible = energy_primal_discrete(CrFunction(mesh, bad), f_h, chi_h)
    assert isinstance(infeasible, float)
    assert infeasible == math.inf
    # above every finite energy, so its gap to any dual energy is +inf
    assert infeasible > 1e308
    assert infeasible - value == math.inf
    assert infeasible - (-math.inf) == math.inf


def _zero_flux_case():
    """A zero flux field on a 2x3 grid, a nonpositive load, its absolute
    value (which makes the flux infeasible) and an obstacle."""
    mesh = grid_mesh(2, 3, (0.0, 0.0, 1.0, 1.5))
    rng = np.random.default_rng(8)
    f_vals = -rng.uniform(0.5, 2.0, size=mesh.n_elements)
    chi_vals = rng.normal(size=mesh.n_elements)
    zero = dual_field(Rt0Function(mesh, np.zeros(mesh.n_sides)))
    return (zero, P0Function(mesh, f_vals), P0Function(mesh, np.abs(f_vals)),
            P0Function(mesh, chi_vals))


def test_energy_dual_discrete_values():
    zero, f_h, f_bad, chi_h = _zero_flux_case()
    mesh = zero.mesh
    no_data = np.zeros(mesh.n_sides)
    value = energy_dual_discrete(zero, f_h, chi_h, boundary_dof_values=no_data)
    oracle = -float((f_h.values * chi_h.values * mesh.areas).sum())
    assert abs(value - oracle) <= 1e-13 * (1.0 + abs(oracle))

    # positive residual load violates the sign constraint
    infeasible = energy_dual_discrete(zero, f_bad, chi_h,
                                      boundary_dof_values=no_data)
    assert isinstance(infeasible, float)
    assert infeasible == -math.inf
    # below every finite energy, so any primal energy's gap to it is +inf
    assert infeasible < -1e308
    assert value - infeasible == math.inf


def test_ibp_identity_random_fields():
    # (y, grad_h u) = sum_boundary flux |S| u_S - (div y, means);  both sides
    # through different code paths, for random fluxes and random dofs
    rng = np.random.default_rng(21)
    for nx, ny in ((2, 2), (3, 2), (4, 3)):
        mesh = grid_mesh(nx, ny)
        flux = Rt0Function(mesh, rng.normal(size=mesh.n_sides))
        u = CrFunction(mesh, rng.normal(size=mesh.n_sides))
        rule = triangle_rule(2)
        yvals = flux.eval_at(rule.bary)                    # (nt, nq, 2)
        grads = u.gradient().values                        # (nt, 2)
        lhs = float(integrate_elementwise(
            mesh, rule, np.einsum("tqd,td->tq", yvals, grads)).sum())
        bdry = mesh.side_elem_plus < 0
        rhs = float((flux.side_fluxes[bdry] * mesh.side_lengths[bdry]
                     * u.dofs[bdry]).sum())
        rhs -= float((flux.divergence().values * mesh.areas
                      * u.element_means()).sum())
        scale = 1.0 + abs(lhs)
        assert abs(lhs - rhs) <= 1e-12 * scale


# ----------------------------------------------------------------------
# continuous energies
# ----------------------------------------------------------------------
def test_energy_primal_continuous_trivial_zero():
    bench = ring()
    mesh = bench.initial_mesh()

    pts = element_points(mesh, triangle_rule(12).bary)
    zeros = np.zeros(pts.shape[:-1])
    value = energy_primal_continuous(mesh, bench.data, zeros, zeros, pts)
    assert abs(value) <= 1e-14


def test_energy_primal_continuous_reproduces_ring_energy():
    bench = ring()
    mesh = bench.initial_mesh()
    for _ in range(4):
        mesh = refine_rgb(mesh)          # 2048 elements
    exact = bench.data.exact
    pts = element_points(mesh, triangle_rule(12).bary)
    grads = exact.grad_u(pts)
    value = energy_primal_continuous(mesh, bench.data, exact.u(pts),
                                     grads[..., 0] ** 2 + grads[..., 1] ** 2, pts)
    # the integrand kinks along the contact circle; with the high-order rule
    # the remaining quadrature error is dominated by the crossing elements
    assert abs(value - RING_ENERGY) <= 5e-4 * (1.0 + abs(RING_ENERGY))


def test_energy_dual_continuous_weak_duality_and_gap_rate():
    bench = ring()
    mesh = bench.initial_mesh()
    gaps = []
    hs = []
    e_z_level3 = None
    for level in range(1, 6):
        out = pdas_solve(mesh, bench.data)
        assert out.converged
        z = marini_flux(out.solution, out.multiplier, out.system.f_h)
        dual = energy_dual_continuous(mesh, bench.data, z, out.system.f_h)
        assert math.isfinite(dual)
        # weak duality against the exact minimizer (quadrature slack)
        assert dual <= RING_ENERGY + 1e-6
        gaps.append(RING_ENERGY - dual)
        hs.append(mesh.h_max)
        if level == 3:
            rule = triangle_rule(10)
            pts = element_points(mesh, rule.bary)
            diff = z.flux.eval_at(rule.bary) - bench.data.exact.grad_u(pts)
            e_z_level3 = float(np.sqrt(integrate_elementwise(
                mesh, rule, (diff ** 2).sum(axis=-1)).sum()))
        mesh = refine_rgb(mesh)
    assert all(g > 0 for g in gaps)
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    slope = np.polyfit(np.log(hs[1:]), np.log(gaps[1:]), 1)[0]
    assert 1.5 <= slope <= 2.5
    assert abs(e_z_level3 - 0.260) <= 0.15 * 0.260


# ----------------------------------------------------------------------
# energy history
# ----------------------------------------------------------------------
def test_energy_history_csv(tmp_path):
    # infinite energies are written as inf / -inf cells, the dual one as
    # energy_dual_discrete returns it for an infeasible flux
    zero, _, f_bad, chi_h = _zero_flux_case()
    dual = energy_dual_discrete(zero, f_bad, chi_h,
                                boundary_dof_values=np.zeros(zero.mesh.n_sides))
    records = [
        ErrorRecord(level=1, h_max=0.5, dofs=10, estimator_sq=0.25,
                    primal_energy=3.375, dual_energy=3.375),
        ErrorRecord(level=2, h_max=0.25, dofs=40, estimator_sq=0.0625,
                    primal_energy=math.inf, dual_energy=dual),
    ]
    path = tmp_path / "energies.csv"
    write_error_history(path, records)
    text = path.read_text()
    lines = text.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].endswith(",primal_energy,dual_energy")
    assert lines[1].startswith("1,0.5,10,")
    assert lines[1].endswith(",0.25,nan,3.375,3.375")
    assert lines[2].endswith(",0.0625,nan,inf,-inf")
    write_error_history(path, records)
    assert path.read_text() == text
