"""Tests for the constrained solvers.

The primal-dual active-set solver is validated against an exhaustive
enumeration oracle on randomized small instances, against the penalization
route (both oracles live in ``tests/oracles.py``), and against
closed-form/unconstrained limits.  All tolerances are absolute contracts,
not tuned numbers.
"""
from dataclasses import replace

import numpy as np
import pytest

from crobstacle import solver
from crobstacle.adaptivity import AfemConfig, afem_run
from crobstacle.assembly import AssemblyError, ProblemData, build_dofmap
from crobstacle.benchmarks import corner, pyramid, ring
from crobstacle.mesh import build_structured, refine_rgb
from crobstacle.solver import (
    SolverError,
    _ActiveSetSolves,
    _fresh_solve,
    active_set,
    build_system,
    pdas_solve,
)
from crobstacle.sparse import SingularConstraintError, solve_spd
from crobstacle.spaces import (
    element_points,
    integrate_elementwise,
    interp_cr,
    triangle_rule,
)
from crobstacle.spaces import prolong_cr, prolong_p0
from oracles import brute_force_solve, fresh_pdas_solve, penalized_solve
from util import (
    broken_energy,
    grid_mesh,
    make_feasible_competitor,
    random_small_problem,
)


# ----------------------------------------------------------------------
# the active-set test itself
# ----------------------------------------------------------------------
def test_active_set_strict_inequality_ties_inactive():
    means = np.array([0.0, 0.0, 1.0, -1.0])
    mult = np.array([0.0, -1e-30, 0.0, 0.0])
    chi = np.zeros(4)
    act = active_set(means, mult, chi)
    # exact tie (0 < 0 is false) stays inactive; any negativity activates
    assert list(act) == [False, True, False, True]


# ----------------------------------------------------------------------
# system assembly
# ----------------------------------------------------------------------
def test_build_system_shapes_and_lifting():
    mesh = grid_mesh(2, 2)
    data = ProblemData(name="t", f=-3.0, chi=-10.0, dirichlet_data=1.0)
    sys_ = build_system(mesh, data)
    dm = sys_.dofmap
    assert sys_.stiffness.shape == (dm.n_free, dm.n_free)
    assert sys_.coupling.shape == (dm.n_free, dm.n_multipliers)
    assert sys_.load.shape == (dm.n_free,)
    # boundary values recorded on Dirichlet sides only
    assert np.all(sys_.boundary_values[mesh.dirichlet_side_mask] == 1.0)
    assert np.all(sys_.boundary_values[~mesh.dirichlet_side_mask] == 0.0)
    # with homogeneous data the load reduces to the plain coupling product
    data0 = ProblemData(name="t0", f=-3.0, chi=-10.0)
    sys0 = build_system(mesh, data0)
    expected = sys0.coupling @ sys0.f_h.values[dm.elements]
    assert np.allclose(sys0.load, expected, atol=1e-14)
    # lifting shifts the load by the stiffness action of the boundary data
    lift = sys_.load - expected
    assert np.linalg.norm(lift) > 0.1


def test_build_system_interpolates_the_obstacle_once():
    bench = pyramid()
    mesh = bench.initial_mesh()
    shapes = []

    def chi(pts):
        shapes.append(pts.shape)
        return bench.data.chi(pts)

    sys_ = build_system(mesh, replace(bench.data, chi=chi))
    assert shapes == [(mesh.n_sides, 2, 2)] == [(208, 2, 2)]
    expected = interp_cr(bench.data.chi, mesh).dofs
    assert np.array_equal(sys_.obstacle_side_values, expected)
    assert np.array_equal(sys_.chi_h.values,
                          expected[mesh.elem_sides].mean(axis=1))
    # the one interpolant still serves the boundary check
    with pytest.raises(AssemblyError, match="exceeds the Dirichlet data"):
        build_system(grid_mesh(2, 2), ProblemData(name="high", f=0.0, chi=0.5))


def test_unconstrained_limit_when_obstacle_far():
    mesh = grid_mesh(2, 2)
    data = ProblemData(name="far", f=-2.0, chi=-1e6)
    out = pdas_solve(mesh, data)
    assert out.converged
    assert out.iterations == 1
    assert not out.state.active.any()
    assert np.all(out.multiplier.values == 0.0)
    sys_ = out.system
    direct, _ = solve_spd(sys_.stiffness, sys_.load)
    assert np.allclose(out.state.free_values, direct, atol=1e-14)
    assert len(out.log) == 1


def test_pdas_matches_brute_force_on_stated_instance():
    # Lifted boundary plus strong downward load: contact on most (but not
    # all) elements, so the multiplier is unique and brute force has a
    # single feasible stationary point to find.
    mesh = grid_mesh(4, 2, (0.0, 0.0, 2.0, 1.0))

    def lifted(points):
        return np.full(np.asarray(points, dtype=float)[..., 0].shape, 0.25)

    data = ProblemData(name="hard", f=-10.0, chi=0.0, dirichlet_data=lifted)
    a = pdas_solve(mesh, data)
    b = brute_force_solve(mesh, data)
    assert a.converged
    assert np.max(np.abs(a.solution.dofs - b.solution.dofs)) <= 1e-10
    assert np.max(np.abs(a.multiplier.values - b.multiplier.values)) <= 1e-10
    # the constant forcing pushes the midpoint region onto the obstacle,
    # but the lifted boundary keeps the outermost elements free
    assert a.state.active.any()
    assert not a.state.active.all()


def test_pdas_matches_brute_force_randomized():
    rng = np.random.default_rng(2024)
    n_checked = 0
    for k in range(20):
        mesh, data = random_small_problem(rng, k)
        a = pdas_solve(mesh, data)
        b = brute_force_solve(mesh, data)
        assert a.converged, f"instance {k} did not converge"
        du = np.max(np.abs(a.solution.dofs - b.solution.dofs))
        dl = np.max(np.abs(a.multiplier.values - b.multiplier.values))
        assert du <= 1e-10, f"instance {k}: primal mismatch {du:.2e}"
        assert dl <= 1e-10, f"instance {k}: multiplier mismatch {dl:.2e}"
        n_checked += 1
    assert n_checked >= 20


def test_pdas_state_invariants_randomized():
    rng = np.random.default_rng(7)
    for k in range(8):
        mesh, data = random_small_problem(rng, k)
        out = pdas_solve(mesh, data)
        assert out.converged
        sys_ = out.system
        scale = sys_.scale
        means = sys_.element_means(out.state.free_values)
        gap = means - sys_.obstacle_means
        lam = out.state.multipliers
        assert np.all(lam <= 1e-11 * scale)                      # sign
        assert gap.min() >= -1e-10 * scale                       # feasibility
        assert np.max(np.abs(lam * gap)) <= 1e-10 * scale ** 2   # complementarity
        assert out.residual <= 1e-10 * scale                     # stationarity


def test_discrete_variational_inequality_and_minimality():
    mesh = grid_mesh(3, 3)
    rng = np.random.default_rng(5)
    data = ProblemData(name="vi", f=-6.0,
                       chi=lambda p: -0.2 - 0.5 * ((np.asarray(p)[..., 0] - 0.5) ** 2))
    out = pdas_solve(mesh, data)
    assert out.converged
    sys_ = out.system
    dm = sys_.dofmap
    u_full = out.solution.dofs
    f_vals = sys_.f_h.values
    grads_u = out.solution.gradient().values
    energy_u = broken_energy(mesh, u_full, f_vals)
    scale = sys_.scale
    for _ in range(100):
        v_full = make_feasible_competitor(
            rng, mesh, dm, sys_.boundary_values, sys_.obstacle_means,
            base=u_full, scale=0.7)
        # energy minimality
        assert broken_energy(mesh, v_full, f_vals) >= energy_u - 1e-10 * scale
        # first-order variational inequality
        d = (v_full - u_full)[mesh.elem_sides]
        grads_d = np.einsum("tj,tjd->td",
                            d.sum(axis=1, keepdims=True) - 2.0 * d,
                            mesh.bary_grads)
        lhs = ((grads_u * grads_d).sum(axis=1) * mesh.areas).sum()
        rhs = (f_vals * mesh.areas * d.mean(axis=1)).sum()
        assert lhs >= rhs - 1e-10 * scale


def test_pdas_nonconvergence_reported_not_raised():
    mesh = grid_mesh(2, 2)
    data = ProblemData(name="hard", f=-50.0, chi=0.0)
    out = pdas_solve(mesh, data, max_iter=1)
    assert not out.converged
    assert out.iterations == 1
    assert len(out.log) == 1


def test_pdas_warm_start_accepts_state_and_matches_cold():
    mesh = grid_mesh(3, 2)
    data = ProblemData(name="w", f=-8.0, chi=-0.05)
    cold = pdas_solve(mesh, data)
    warm = pdas_solve(mesh, data,
                      init=(cold.state.free_values, cold.state.multipliers))
    assert warm.converged
    assert warm.iterations <= cold.iterations
    assert np.allclose(warm.solution.dofs, cold.solution.dofs, atol=1e-12)
    assert np.allclose(warm.multiplier.values, cold.multiplier.values, atol=1e-12)
    # a warm start on a prebuilt system gives the same iterate
    warm2 = pdas_solve(system=cold.system,
                       init=(cold.state.free_values, cold.state.multipliers))
    assert np.array_equal(warm2.solution.dofs, warm.solution.dofs)
    with pytest.raises(SolverError, match="init shapes"):
        pdas_solve(mesh, data, init=(cold.state.free_values[:-1],
                                     cold.state.multipliers))


def test_pdas_iteration_log_wellformed():
    mesh = grid_mesh(3, 3)

    def lifted(points):
        return np.full(np.asarray(points, dtype=float)[..., 0].shape, 0.3)

    data = ProblemData(name="log", f=-7.0, chi=0.0, dirichlet_data=lifted)
    out = pdas_solve(mesh, data)
    assert out.state.active.any() and not out.state.active.all()
    assert out.converged
    assert len(out.log) == out.iterations
    ks = [row.iteration for row in out.log]
    assert ks == list(range(1, out.iterations + 1))
    for row in out.log:
        assert 0 <= row.n_active <= out.system.dofmap.n_multipliers
        assert row.residual <= 1e-10 * out.system.scale
        assert row.step_inf_norm >= 0.0


def test_degenerate_consistent_constraints_recover_symmetric_multiplier():
    # one free side shared by two elements whose remaining sides are all
    # constrained: both multiplier columns coincide.  The two constraints ask
    # for the same thing (mean zero), so the solve is consistent and the
    # minimum-norm recovery must settle on the symmetric multiplier split:
    # the single stationarity row reads (1/6)(L_0 + L_1) = 2*(1/6)*(-10).
    mesh = grid_mesh(1, 1)
    data = ProblemData(name="sing", f=-10.0, chi=0.0)
    out = pdas_solve(mesh, data)
    assert out.converged
    assert np.abs(out.state.free_values).max() <= 1e-12
    assert np.allclose(out.state.multipliers, [-10.0, -10.0], atol=1e-10)
    assert out.residual <= 1e-10 * out.system.scale


def test_degenerate_inconsistent_constraints_raise():
    # same dependent columns, but an affine obstacle gives the two elements
    # different mean targets: no solution exists for that active set, so the
    # constraint diagnosis must surface to the caller
    mesh = grid_mesh(1, 1)
    data = ProblemData(name="incons", f=-50.0, chi=lambda p: p[..., 0],
                       dirichlet_data=1.0)
    with pytest.raises(SingularConstraintError):
        pdas_solve(mesh, data)


def test_all_dirichlet_element_excluded_and_multiplier_zero():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    from crobstacle.mesh import Mesh

    mesh = Mesh(coords, tris)
    data = ProblemData(name="single", f=3.0, chi=-1.0)
    out = pdas_solve(mesh, data)
    assert out.converged
    assert out.system.dofmap.n_free == 0
    assert out.system.dofmap.n_multipliers == 0
    assert np.all(out.solution.dofs == 0.0)
    assert np.all(out.multiplier.values == 0.0)


# ----------------------------------------------------------------------
# bordered updates against the refactor-every-iteration loop
# ----------------------------------------------------------------------
def assert_same_iterate(out, ref):
    assert np.array_equal(out.state.free_values, ref.state.free_values)
    assert np.array_equal(out.state.multipliers, ref.state.multipliers)
    assert np.array_equal(out.state.active, ref.state.active)
    assert out.iterations == ref.iterations
    assert out.converged == ref.converged


def structured_system(bench, divisions):
    mesh = build_structured(bench.domain, divisions, pattern=bench.mesh_pattern)
    return build_system(mesh, bench.data)


def test_pdas_bitwise_fresh_cold_ring():
    system = structured_system(ring(), 16)
    out = pdas_solve(system=system)
    assert any(row.solve == "bordered" for row in out.log)
    assert_same_iterate(out, fresh_pdas_solve(system=system))


def test_pdas_bitwise_fresh_cold_pyramid_min_norm():
    # the first iterate activates every element: the dependent constraint
    # block goes through the dense minimum-norm fallback
    system = structured_system(pyramid(), 8)
    out = pdas_solve(system=system)
    assert out.log[0].solve == "fresh"
    assert out.log[0].n_active == system.dofmap.n_multipliers
    assert_same_iterate(out, fresh_pdas_solve(system=system))


@pytest.fixture(scope="module")
def corner_warm_levels():
    """(system, init, outcome) of corner levels 1-8, warm-started from level 2."""
    bench = corner()
    history = afem_run(bench.data, AfemConfig(max_levels=8), bench.initial_mesh())
    levels, prev = [], None
    for level in history.levels:
        system = level.outcome.system
        init = None
        if prev is not None:
            dm = system.dofmap
            init = (prolong_cr(prev.solution, level.mesh).dofs[dm.free_sides],
                    prolong_p0(prev.multiplier, level.mesh).values[dm.elements])
        levels.append((system, init, level.outcome))
        prev = level.outcome
    return levels


def test_pdas_bitwise_fresh_warm_corner_levels(corner_warm_levels):
    for system, init, out in corner_warm_levels:
        assert_same_iterate(out, fresh_pdas_solve(system=system, init=init))


def test_pdas_counts_fewer_factorizations_than_iterations(corner_warm_levels):
    long = [out for _, init, out in corner_warm_levels
            if init is not None and out.iterations >= 4]
    assert long
    for out in long:
        assert out.factorizations < out.iterations
        kinds = [row.solve for row in out.log]
        assert kinds[0] == "fresh" and "bordered" in kinds
        # the returned bordered iterate was solved once more, afresh
        assert out.factorizations == kinds.count("fresh") + (kinds[-1] == "bordered")


def random_changes(rng, act, n_changes):
    changed = act.copy()
    flip = rng.choice(act.size, size=n_changes, replace=False)
    changed[flip] = ~changed[flip]
    return changed


@pytest.mark.parametrize("bench, refinements", [(corner, 3), (pyramid, 1)])
def test_bordered_matches_fresh_kkt_on_random_changes(bench, refinements):
    # each step needs at most 16 new border columns, within the budget
    definition = bench()
    mesh = definition.initial_mesh()
    for _ in range(refinements):
        mesh = refine_rgb(mesh)
    system = build_system(mesh, definition.data)
    rng = np.random.default_rng(17)
    base = rng.random(system.dofmap.n_multipliers) < 0.3
    solves = _ActiveSetSolves(system)
    solves.fresh(base)
    for n_changes in (1, 4, 9, 4, 16):
        act = random_changes(rng, base, n_changes)
        free, mult, how = solves.solve(act)
        ref_free, ref_mult, _ = _fresh_solve(system, act)
        assert how == "bordered"
        assert np.all(mult[~act] == 0.0)
        assert (np.abs(free - ref_free).max()
                <= 1e-10 * np.abs(ref_free).max())
        assert (np.abs(mult - ref_mult).max()
                <= 1e-10 * np.abs(ref_mult).max())
    assert solves.factorizations == 1


def corner_system(refinements):
    definition = corner()
    mesh = definition.initial_mesh()
    for _ in range(refinements):
        mesh = refine_rgb(mesh)
    return build_system(mesh, definition.data)


def test_refactors_when_new_columns_exceed_the_budget(monkeypatch):
    monkeypatch.setattr(solver, "_REFACTOR_COLUMNS", 2)
    system = corner_system(2)
    base = np.zeros(system.dofmap.n_multipliers, dtype=bool)
    base[::3] = True

    def flipped(*indices):
        act = base.copy()
        act[list(indices)] = ~act[list(indices)]
        return act

    solves = _ActiveSetSolves(system)
    solves.fresh(base)
    assert solves.solve(flipped(0, 1))[2] == "bordered"
    # columns 0 and 1 are cached: one new column is within the budget
    assert solves.solve(flipped(0, 1, 2))[2] == "bordered"
    assert solves.factorizations == 1
    free, mult, how = solves.solve(flipped(3, 4, 5))
    assert how == "fresh" and solves.factorizations == 2
    ref_free, ref_mult, _ = _fresh_solve(system, flipped(3, 4, 5))
    assert np.array_equal(free, ref_free) and np.array_equal(mult, ref_mult)


def test_base_survives_an_unconstrained_iterate():
    # base -> nothing active -> base again: the base is kept over the
    # unconstrained solve and the repeated set needs no border column
    system = corner_system(2)
    base = np.zeros(system.dofmap.n_multipliers, dtype=bool)
    base[::3] = True
    solves = _ActiveSetSolves(system)
    free0, mult0, how0 = solves.solve(base)
    assert how0 == "fresh"
    assert solves.solve(np.zeros_like(base))[2] == "unconstrained"
    free, mult, how = solves.solve(base)
    assert how == "bordered" and solves.factorizations == 1
    assert np.array_equal(free, free0) and np.array_equal(mult, mult0)


def test_bordered_dependent_column_falls_back_to_fresh_path():
    # on a structured pyramid mesh the dual graph is bipartite with equal
    # areas, so activating every element makes the constraints dependent;
    # a base missing one element is regular, and adding it back must go to
    # the fresh path and its minimum-norm fallback
    system = structured_system(pyramid(), 8)
    everything = np.ones(system.dofmap.n_multipliers, dtype=bool)
    base = everything.copy()
    base[0] = False
    solves = _ActiveSetSolves(system)
    solves.fresh(base)
    free, mult, how = solves.solve(everything)
    assert how == "fresh"
    assert solves.factorizations == 2
    ref_free, ref_mult, report = _fresh_solve(system, everything)
    assert report is None          # the minimum-norm fallback answered
    assert np.array_equal(free, ref_free) and np.array_equal(mult, ref_mult)


def test_bordered_dependent_inconsistent_column_raises():
    # the two elements of a 1x1 grid share their only free side: adding the
    # second constraint to a base holding the first one is dependent, and
    # with different mean targets the fresh path's diagnosis must surface
    mesh = grid_mesh(1, 1)
    data = ProblemData(name="incons", f=-50.0, chi=lambda p: p[..., 0],
                       dirichlet_data=1.0)
    system = build_system(mesh, data)
    solves = _ActiveSetSolves(system)
    solves.fresh(np.array([True, False]))
    with pytest.raises(SingularConstraintError):
        solves.solve(np.array([True, True]))


# ----------------------------------------------------------------------
# penalization route
# ----------------------------------------------------------------------
def test_penalized_inactive_equals_unconstrained():
    mesh = grid_mesh(2, 2)
    data = ProblemData(name="far", f=-2.0, chi=-1e6)
    reference = pdas_solve(mesh, data)
    for eps in (1e-2, 1e-3, 1e-4):
        out = penalized_solve(mesh, data, eps=eps)
        assert out.converged
        assert np.allclose(out.solution.dofs, reference.solution.dofs, atol=1e-12)
        assert np.all(out.multiplier.values == 0.0)


def test_penalized_converges_to_constrained_solution():
    rng = np.random.default_rng(31)
    for k in (0, 1, 2):
        mesh, data = random_small_problem(rng, k)
        exact_out = pdas_solve(mesh, data)
        assert exact_out.state.active.any()
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            pen = penalized_solve(mesh, data, eps=eps)
            assert pen.converged
            errs.append(np.max(np.abs(pen.solution.dofs - exact_out.solution.dofs)))
        scale = 1.0 + np.max(np.abs(exact_out.solution.dofs))
        assert errs[2] <= 1e-3 * scale
        assert errs[0] >= errs[1] >= errs[2]


def test_penalized_violation_identity_exact():
    rng = np.random.default_rng(17)
    for k in (0, 3):
        mesh, data = random_small_problem(rng, k)
        for eps in (1e-1, 1e-2):
            out = penalized_solve(mesh, data, eps=eps)
            assert out.converged
            # || (means - chi)_- ||_Omega == eps^2 * || lambda_eps ||_Omega
            lhs = out.violation_norm
            rhs = eps ** 2 * out.multiplier_norm
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + lhs)
            # recompute both norms from the returned fields
            sys_ = out.system
            means = sys_.element_means(
                out.solution.dofs[sys_.dofmap.free_sides])
            neg = np.minimum(means - sys_.obstacle_means, 0.0)
            areas = mesh.areas[sys_.dofmap.elements]
            assert abs(lhs - np.sqrt((neg ** 2 * areas).sum())) <= 1e-14 * (1 + lhs)
            assert np.all(out.multiplier.values <= 0.0)


# ----------------------------------------------------------------------
# exhaustive oracle details
# ----------------------------------------------------------------------
def test_brute_force_rejects_large_instances():
    mesh = grid_mesh(4, 3)   # 24 elements > 20 multipliers
    data = ProblemData(name="big", f=-1.0, chi=0.0)
    with pytest.raises(SolverError):
        brute_force_solve(mesh, data)


def test_brute_force_unconstrained_instance():
    mesh = grid_mesh(2, 2)
    data = ProblemData(name="free", f=1.0, chi=-1e3)
    b = brute_force_solve(mesh, data)
    direct, _ = solve_spd(b.system.stiffness, b.system.load)
    assert np.allclose(b.state.free_values, direct, atol=1e-12)
    assert np.all(b.multiplier.values == 0.0)


# ----------------------------------------------------------------------
# benchmark-scale check
# ----------------------------------------------------------------------
def test_ring_level3_broken_gradient_error():
    bench = ring()
    mesh = bench.initial_mesh()
    for _ in range(2):            # levels 1 -> 3
        mesh = refine_rgb(mesh)
    out = pdas_solve(mesh, bench.data)
    assert out.converged
    assert mesh.n_elements == 128
    rule = triangle_rule(10)
    pts = element_points(mesh, rule.bary)
    diff = out.solution.gradient().values[:, None, :] - bench.data.exact.grad_u(pts)
    err = np.sqrt(integrate_elementwise(
        mesh, rule, (diff ** 2).sum(axis=-1)).sum())
    assert abs(err - 0.380) <= 0.15 * 0.380
    # multiplier localises on the contact disc: every strongly active element
    # has its barycenter inside the unit disc (with an h-width margin)
    act = out.state.active
    centers = mesh.barycenters[out.system.dofmap.elements[act]]
    assert np.all(np.hypot(centers[:, 0], centers[:, 1]) <= 1.0 + mesh.h_max)
