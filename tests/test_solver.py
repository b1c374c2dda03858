"""Tests for the constrained solvers.

The primal-dual active-set solver is validated against an exhaustive
enumeration oracle on randomized small instances, against the penalization
route (both oracles live in ``tests/oracles.py``), and against
closed-form/unconstrained limits.  All tolerances are absolute contracts,
not tuned numbers.
"""
from dataclasses import replace
import sys
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from crobstacle import solver, sparse
from crobstacle.adaptivity import AfemConfig, afem_run
from crobstacle.assembly import AssemblyError, ProblemData, build_dofmap
from crobstacle.benchmarks import corner, pyramid, ring
from crobstacle.mesh import build_structured, nested_dissection, refine_rgb
from crobstacle.solver import (
    SolverError,
    active_set,
    build_system,
    pdas_solve,
)
from crobstacle.sparse import (
    LinearSolveError,
    SelectorPattern,
    SingularConstraintError,
    selector_solve,
    solve_kkt,
    solve_spd,
)
from crobstacle.spaces import (
    element_points,
    integrate_elementwise,
    interp_cr,
    triangle_rule,
)
from crobstacle.spaces import prolong_cr, prolong_p0
import oracles
from oracles import (
    brute_force_solve,
    fresh_pdas_solve,
    fresh_solve,
    min_norm_kkt,
    penalized_solve,
    selector_pattern_arrays,
)
from util import (
    assert_same_pattern,
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
        gap = means - sys_.chi_h.values
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
            rng, mesh, dm, sys_.boundary_values, sys_.chi_h.values,
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
    # for the same thing (mean zero), so the solve is consistent; solve_kkt
    # refuses it, and the regularised selector's multiplier must be the
    # symmetric split:
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
    # selector misses its residual bound and the error names the iteration
    # and the active count
    mesh = grid_mesh(1, 1)
    data = ProblemData(name="incons", f=-50.0, chi=lambda p: p[..., 0],
                       dirichlet_data=1.0)
    with pytest.raises(SolverError, match=r"PDAS iteration 1: .* of 2 constraints") as err:
        pdas_solve(mesh, data)
    assert isinstance(err.value.__cause__, LinearSolveError)


def test_multiplier_is_the_pdas_vector_on_every_element():
    # one multiplier per element: the coupling has a column for each, and
    # the outcome's P0 multiplier holds the iterate's vector as it is
    for bench in (ring(), corner(), pyramid()):
        mesh = refine_rgb(bench.initial_mesh())
        out = pdas_solve(mesh, bench.data)
        dm = out.system.dofmap
        assert np.array_equal(dm.elements, np.arange(mesh.n_elements))
        assert out.system.coupling.shape == (dm.n_free, mesh.n_elements)
        assert np.array_equal(out.multiplier.values, out.state.multipliers)
        assert np.all(out.multiplier.values[~out.state.active] == 0.0)
        assert np.all(out.multiplier.values[out.state.active] <= 0.0)


# ----------------------------------------------------------------------
# selector iterates against the refactor-every-iteration loop
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


@pytest.mark.parametrize("divisions", [16, 32, 48])
def test_pdas_bitwise_fresh_cold_ring(divisions):
    system = structured_system(ring(), divisions)
    out = pdas_solve(system=system)
    assert_same_iterate(out, fresh_pdas_solve(system=system))


def test_pdas_bitwise_fresh_cold_pyramid_min_norm():
    # the first iterate activates every element, a dependent constraint
    # block: the selector takes a regularised multiplier, only the oracle
    # takes the dense minimum-norm path, and both pick the same next set
    system = structured_system(pyramid(), 8)
    out = pdas_solve(system=system)
    assert out.log[0].solve == "fresh"
    assert out.log[0].n_active == system.dofmap.n_multipliers
    assert_same_iterate(out, fresh_pdas_solve(system=system))


def warm_levels(bench, max_levels):
    """(system, init, outcome) of every level of an adaptive run, warm-started from level 2."""
    history = afem_run(bench.data, AfemConfig(max_levels=max_levels), bench.initial_mesh())
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


@pytest.fixture(scope="module")
def corner_warm_levels():
    """(system, init, outcome) of corner levels 1-8, warm-started from level 2."""
    return warm_levels(corner(), 8)


@pytest.fixture(scope="module")
def pyramid_warm_levels():
    """(system, init, outcome) of pyramid levels 1-10, warm-started from level 2."""
    return warm_levels(pyramid(), 10)


def test_pdas_bitwise_fresh_warm_corner_levels(corner_warm_levels):
    for system, init, out in corner_warm_levels:
        assert_same_iterate(out, fresh_pdas_solve(system=system, init=init))


def test_pdas_counts_one_factorization_per_constrained_iterate(corner_warm_levels):
    assert any(out.iterations >= 4 for _, _, out in corner_warm_levels)
    for _, _, out in corner_warm_levels:
        kinds = [row.solve for row in out.log]
        constrained = sum(row.n_active > 0 for row in out.log)
        assert kinds == ["fresh" if row.n_active else "unconstrained" for row in out.log]
        # one selector factorisation per constrained iterate, plus the
        # solve_kkt re-solve of the returned constrained iterate
        assert out.state.active.any()
        assert out.factorizations == constrained + 1


def test_saddle_point_matrix_is_bmat_bitwise(corner_warm_levels, pyramid_warm_levels):
    # solve_kkt builds [[A, B], [B^T, 0]] without sp.bmat; its arrays, explicit
    # zeros included, fix the COLAMD order and so every record's bits
    ring_system = structured_system(ring(), 24)
    cases = [(ring_system, pdas_solve(system=ring_system).state.active)]
    cases += [(out.system, out.state.active)
              for levels in (corner_warm_levels, pyramid_warm_levels)
              for _, _, out in levels[1:]]
    zeros = 0
    for system, act in cases:
        A = sp.csr_array(system.stiffness)
        B = sp.csr_array(system.coupling[:, np.flatnonzero(act)])
        expected = sp.bmat([[A, B], [B.T, None]], format="csc")
        got = sparse._saddle_point(A, B)
        assert got.format == "csc" and got.shape == expected.shape
        for key in ("data", "indices", "indptr"):
            value, reference = getattr(got, key), getattr(expected, key)
            assert value.dtype == reference.dtype and np.array_equal(value, reference), key
        zeros += int(np.count_nonzero(expected.data == 0.0))
    assert zeros > 0


def selector_case(name, corner_warm_levels, ring_divisions=24):
    """(system, active mask) of a benchmark system with its converged active set."""
    if name == "corner":
        _, _, out = corner_warm_levels[-1]
        return out.system, out.state.active
    if name == "ring":
        system = structured_system(ring(), ring_divisions)
    else:
        mesh = refine_rgb(pyramid().initial_mesh())
        system = build_system(mesh, pyramid().data)
    return system, pdas_solve(system=system).state.active


def elimination_order(system):
    """The nested-dissection order ``pdas_solve`` factors ``system``'s selectors in."""
    return nested_dissection(system.mesh, system.dofmap.free_sides)


def selector_pattern(system, order=None):
    """The :class:`SelectorPattern` of ``system`` in ``order`` (default: as ``pdas_solve``)."""
    if order is None:
        order = elimination_order(system)
    return SelectorPattern(system.stiffness, system.coupling, order)


@pytest.mark.parametrize("name", ["ring", "pyramid", "corner"])
def test_selector_pattern_matches_the_indexing_reference(name, corner_warm_levels,
                                                        pyramid_warm_levels):
    # the build by one row gather, a scaled copy of the data and one lookup
    # against the build by fancy indexing, a matrix product and the lookup:
    # the ring 24x24, the 10-level adaptive pyramid and every corner level
    if name == "ring":
        systems = [structured_system(ring(), 24)]
    elif name == "pyramid":
        systems = [pyramid_warm_levels[-1][0]]
    else:
        systems = [system for system, _, _ in corner_warm_levels]
    for system in systems:
        order = elimination_order(system)
        assert_same_pattern(selector_pattern(system, order),
                            selector_pattern_arrays(system.stiffness, system.coupling, order))


def minimum_degree_order(system):
    """SuperLU's minimum-degree order of the stiffness, which every ``P`` shares."""
    lu = sparse.spla.splu(sp.csc_array(system.stiffness), permc_spec="MMD_AT_PLUS_A",
                          **sparse._SELECTOR_OPTIONS)
    return np.argsort(lu.perm_c)


def selector_solution(system, act, pattern=None):
    """``(free, multipliers)`` of active mask ``act`` by one selector factorisation.

    Without ``pattern`` it is a build of a new :class:`SelectorPattern` in
    the system's nested-dissection order, as in ``pdas_solve``.
    """
    if pattern is None:
        pattern = selector_pattern(system)
    return selector_solve(pattern, system.load, system.constraint_rhs, act)


def relative_error(value, reference):
    return np.abs(value - reference).max() / np.abs(reference).max()


@pytest.mark.parametrize("name", ["ring", "corner", "pyramid"])
def test_selector_factor_matches_solve_kkt(name, corner_warm_levels):
    system, act = selector_case(name, corner_warm_levels)
    cols = np.flatnonzero(act)
    free, mult = selector_solution(system, act)
    ref_free, ref_mult, _ = solve_kkt(system.stiffness, system.coupling[:, cols],
                                      system.load, system.constraint_rhs[cols])
    assert cols.size > 0 and np.all(mult[~act] == 0.0)
    assert relative_error(free, ref_free) <= 1e-10
    assert relative_error(mult[cols], ref_mult) <= 1e-10


def captured_factorizations(monkeypatch):
    """``(matrix, options, factor)`` of each SuperLU factorisation from now on."""
    factored = []
    splu = sparse.spla.splu

    def capture(matrix, **kwargs):
        factored.append((matrix, kwargs, splu(matrix, **kwargs)))
        return factored[-1][2]

    monkeypatch.setattr(sparse.spla, "splu", capture)
    return factored


def symmetric_permutation(matrix, order):
    """``matrix[order][:, order]`` in canonical CSC form."""
    permuted = sp.csc_array(sp.csr_array(matrix)[order][:, order])
    permuted.sort_indices()
    return permuted


@pytest.mark.parametrize("active", ["converged", "random"])
@pytest.mark.parametrize("name", ["ring", "corner", "pyramid"])
def test_selector_matrix_has_the_stiffness_pattern(name, active, corner_warm_levels,
                                                   monkeypatch):
    # each constraint couples the free sides of one element, which the
    # stiffness already couples: A + B B^T / delta adds no entry, and A's
    # explicit zeros stay stored.  Every build factors P permuted into the
    # system's nested-dissection order, in its natural order: bitwise the
    # P of the unpermuted pattern, moved
    system, act = selector_case(name, corner_warm_levels, ring_divisions=16)
    if active == "random":
        act = np.random.default_rng(3).random(act.size) < 0.3
    order = elimination_order(system)
    factored = captured_factorizations(monkeypatch)
    pattern = selector_pattern(system, order)
    selector_solution(system, act, pattern)
    selector_solution(system, act, pattern)
    selector_solution(system, act, selector_pattern(system, np.arange(order.size)))
    stiffness = symmetric_permutation(system.stiffness, order)
    [(first, first_options, _), (later, later_options, _), (plain, _, _)] = factored
    assert act.any() and np.any(stiffness.data == 0.0)
    assert np.any(order != np.arange(order.size))
    assert np.array_equal(first.indptr, stiffness.indptr)
    assert np.array_equal(first.indices, stiffness.indices)
    # the order is the pattern's, no pivoting, one-column panels
    assert first_options == {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0,
                             "panel_size": 1, "options": {"SymmetricMode": True}}
    expected = symmetric_permutation(plain, order)
    for matrix in (first, later):
        assert np.array_equal(matrix.indptr, expected.indptr)
        assert np.array_equal(matrix.indices, expected.indices)
        assert np.array_equal(matrix.data, expected.data)
    assert later_options == first_options


def coo_condensed(A, Bs):
    """``A + Bs Bs^T / delta`` summed as COO: the scatter's oracle."""
    A = A.tocoo()
    BBt = (Bs @ Bs.T).tocoo()
    return sp.csc_array((np.concatenate([A.data, BBt.data / sparse._DELTA]),
                         (np.concatenate([A.row, BBt.row]),
                          np.concatenate([A.col, BBt.col]))), shape=A.shape)


@pytest.mark.parametrize("active", ["converged", "random"])
@pytest.mark.parametrize("name", ["ring", "corner", "pyramid"])
def test_condensed_matches_the_coo_sum(name, active, corner_warm_levels, monkeypatch):
    # the scatter map against a COO sum permuted into the pattern's order,
    # for two builds of one pattern with different constraints
    system, act = selector_case(name, corner_warm_levels)
    rng = np.random.default_rng(4)
    if active == "random":
        act = rng.random(act.size) < 0.3
    other = random_changes(rng, act, act.size // 4)
    order = elimination_order(system)
    factored = captured_factorizations(monkeypatch)
    pattern = selector_pattern(system, order)
    selector_solution(system, act, pattern)
    selector_solution(system, other, pattern)
    B = sp.csc_array(system.coupling)
    for (matrix, _, _), mask in zip(factored, (act, other)):
        columns = B[:, np.flatnonzero(mask)]
        Bs = columns @ sp.diags_array(1.0 / abs(columns).max(axis=0).toarray())
        expected = symmetric_permutation(coo_condensed(system.stiffness, Bs), order)
        assert np.array_equal(matrix.indptr, expected.indptr)
        assert np.array_equal(matrix.indices, expected.indices)
        assert np.all(np.abs(matrix.data - expected.data)
                      <= np.spacing(np.abs(expected.data)))


@pytest.mark.parametrize("active", ["converged", "random"])
@pytest.mark.parametrize("name", ["ring", "corner", "pyramid"])
def test_permuted_selector_solve_matches_the_first_build(name, active, corner_warm_levels):
    # a build in the nested-dissection order against one in SuperLU's
    # minimum-degree order: only the rounding of the raw solves differs,
    # and two refinement steps take both to the same iterate
    system, act = selector_case(name, corner_warm_levels)
    rng = np.random.default_rng(6)
    if active == "random":
        act = rng.random(act.size) < 0.3
    first = selector_pattern(system, minimum_degree_order(system))
    permuted = selector_pattern(system)
    for changed in [act] + [random_changes(rng, act, count) for count in (1, 4, 16)]:
        free, mult = selector_solution(system, changed, permuted)
        ref_free, ref_mult = selector_solution(system, changed, first)
        assert relative_error(free, ref_free) <= 1e-12
        assert relative_error(mult, ref_mult) <= 1e-12


def fill_case(name):
    """(system, converged active mask) of a fill guard."""
    if name == "ring-cold-48":
        system = structured_system(ring(), 48)
        return system, pdas_solve(system=system).state.active
    bench = pyramid()
    history = afem_run(bench.data, AfemConfig(max_levels=10), bench.initial_mesh())
    out = history.levels[-1].outcome
    return out.system, out.state.active


#: bound on the L+U count of the nested-dissection factor of P relative to
#: the minimum-degree one.  Measured: 179,046 / 200,788 = 0.892 on the cold
#: ring 48x48 system (6,816 unknowns) and 23,400 / 20,602 = 1.136 on the
#: 10-level adaptive pyramid system (1,478 unknowns); each bound leaves
#: about 3% of the minimum-degree count
FILL_RATIO_BOUND = {"ring-cold-48": 0.92, "pyramid-adaptive-10": 1.17}


@pytest.mark.parametrize("name", sorted(FILL_RATIO_BOUND))
def test_nested_dissection_fill_against_minimum_degree(name, monkeypatch):
    # the symbolic factor without pivoting depends on the pattern only, so
    # the counts are exact and the same on every machine
    system, act = fill_case(name)
    factored = captured_factorizations(monkeypatch)
    selector_solution(system, act)
    [(P, options, lu)] = factored
    assert options["permc_spec"] == "NATURAL"
    columns = sp.csc_array(system.coupling)[:, np.flatnonzero(act)]
    Bs = columns @ sp.diags_array(1.0 / abs(columns).max(axis=0).toarray())
    reference = sparse.spla.splu(coo_condensed(system.stiffness, Bs),
                                 **{**options, "permc_spec": "MMD_AT_PLUS_A"})
    fill = lu.L.nnz + lu.U.nnz
    assert fill <= FILL_RATIO_BOUND[name] * (reference.L.nnz + reference.U.nnz)


@pytest.mark.parametrize("name, active", [("ring", "converged"), ("ring", "random"),
                                          ("corner", "converged"),
                                          ("pyramid", "converged")])
def test_refined_selector_solve_does_not_depend_on_the_panel_width(
        name, active, corner_warm_levels, monkeypatch):
    # the panel width changes only the rounding order of the factor; two
    # refinement steps take both raw solves to the same iterate
    system, act = selector_case(name, corner_warm_levels)
    rng = np.random.default_rng(5)
    if active == "random":
        act = rng.random(act.size) < 0.3
    pattern = selector_pattern(system)
    splu = sparse.spla.splu

    def default_panel(matrix, **kwargs):
        del kwargs["panel_size"]
        return splu(matrix, **kwargs)

    for changed in [act] + [random_changes(rng, act, count) for count in (1, 4, 16)]:
        free, mult = selector_solution(system, changed, pattern)
        with monkeypatch.context() as patch:
            patch.setattr(sparse.spla, "splu", default_panel)
            ref_free, ref_mult = selector_solution(system, changed, pattern)
        assert relative_error(free, ref_free) <= 1e-12
        assert relative_error(mult, ref_mult) <= 1e-12


@pytest.mark.parametrize("divisions", [8, 16])
def test_selector_accepts_dependent_all_active_pyramid(divisions, monkeypatch):
    # every element of the structured pyramid mesh active: the constraint
    # block has a one-dimensional null space (checkerboard of equal areas).
    # The regularised selector accepts the consistent system; its multiplier
    # is a representative of the family close to the minimum-norm one.
    system = structured_system(pyramid(), divisions)
    everything = np.ones(system.dofmap.n_multipliers, dtype=bool)
    args = (system.stiffness, system.coupling, system.load, system.constraint_rhs)
    with pytest.raises(SingularConstraintError):
        solve_kkt(*args)
    free, mult = selector_solution(system, everything)
    ref_free, ref_mult, residual = min_norm_kkt(*args)
    assert residual <= 1e-9 * system.scale
    assert relative_error(free, ref_free) <= 1e-10
    assert relative_error(mult, ref_mult) <= 1e-6
    # pdas_solve on that set: one selector and the final solve_kkt attempt,
    # which refuses the dependent set, so the selector iterate is returned,
    # bitwise that of a build of the solve's pattern in the same order
    script_active_sets(monkeypatch, [everything, everything])
    out = pdas_solve(system=system)
    assert [row.solve for row in out.log] == ["fresh"] and out.factorizations == 2
    assert np.array_equal(out.state.free_values, free)
    assert np.array_equal(out.state.multipliers, mult)


def random_changes(rng, act, n_changes):
    changed = act.copy()
    flip = rng.choice(act.size, size=n_changes, replace=False)
    changed[flip] = ~changed[flip]
    return changed


@pytest.mark.parametrize("bench, refinements", [(corner, 3), (pyramid, 1)])
def test_bordered_matches_fresh_kkt_on_random_changes(bench, refinements):
    # random active sets near a random one, each solved by its own build of
    # the system's one pattern, against solve_kkt
    definition = bench()
    mesh = definition.initial_mesh()
    for _ in range(refinements):
        mesh = refine_rgb(mesh)
    system = build_system(mesh, definition.data)
    rng = np.random.default_rng(17)
    base = rng.random(system.dofmap.n_multipliers) < 0.3
    pattern = selector_pattern(system)
    for n_changes in (1, 4, 9, 4, 16):
        act = random_changes(rng, base, n_changes)
        free, mult = selector_solution(system, act, pattern)
        ref_free, ref_mult = fresh_solve(system, act)
        assert np.all(mult[~act] == 0.0)
        assert relative_error(free, ref_free) <= 1e-10
        assert relative_error(mult, ref_mult) <= 1e-10


def corner_system(refinements):
    definition = corner()
    mesh = definition.initial_mesh()
    for _ in range(refinements):
        mesh = refine_rgb(mesh)
    return build_system(mesh, definition.data)


def script_active_sets(monkeypatch, masks, module=solver):
    """Make the ``pdas_solve`` of ``module`` visit the active sets ``masks`` in order."""
    script = iter(masks)
    monkeypatch.setattr(module, "active_set", lambda *_: next(script).copy())


def test_no_factorization_survives_an_unconstrained_iterate(monkeypatch):
    # set -> nothing active -> the same set again: each constrained iterate
    # gets its own selector, so the repeated set is factored again, to the
    # same bits, and the result is that of the refactor-every-iteration loop
    system = corner_system(2)
    base = np.zeros(system.dofmap.n_multipliers, dtype=bool)
    base[::3] = True
    masks = [base, np.zeros_like(base), base, base]
    script_active_sets(monkeypatch, masks)
    script_active_sets(monkeypatch, masks, module=oracles)
    out = pdas_solve(system=system)
    assert [row.solve for row in out.log] == ["fresh", "unconstrained", "fresh"]
    # two selectors and the solve_kkt re-solve of the returned set
    assert out.factorizations == 3
    assert out.log[2].residual == out.log[0].residual
    assert_same_iterate(out, fresh_pdas_solve(system=system))


def held_elsewhere(objects):
    """Indices of the members of list ``objects`` that anything else references."""
    objects.append(object())        # referenced by the list only
    counts = [sys.getrefcount(objects[i]) for i in range(len(objects))]
    objects.pop()
    return [i for i, count in enumerate(counts[:-1]) if count > counts[-1]]


def test_no_pattern_or_factor_outlives_its_solve(monkeypatch):
    # the SelectorPattern and every SuperLU factor die with pdas_solve, and
    # each factorisation finds every earlier factor dead already
    system = structured_system(ring(), 16)
    factors, alive_before, patterns = [], [], []
    splu = sparse.spla.splu

    def capture(matrix, **kwargs):
        alive_before.append(held_elsewhere(factors))
        factors.append(splu(matrix, **kwargs))
        return factors[-1]

    class Recorded(SelectorPattern):
        def __init__(self, *args):
            super().__init__(*args)
            patterns.append(weakref.ref(self))

    monkeypatch.setattr(sparse.spla, "splu", capture)
    monkeypatch.setattr(solver, "SelectorPattern", Recorded)
    out = pdas_solve(system=system)
    assert [row.solve for row in out.log].count("fresh") >= 2 and len(patterns) == 1
    assert alive_before == [[]] * len(factors)
    assert patterns[0]() is None
    assert held_elsewhere(factors) == []


def test_bordered_dependent_inconsistent_column_raises(monkeypatch):
    # the two elements of a 1x1 grid share their only free side: their two
    # constraints are dependent, and with different mean targets no
    # solution exists.  The selector solve misses its residual bound, and
    # the error names the iteration and the active count.
    mesh = grid_mesh(1, 1)
    data = ProblemData(name="incons", f=-50.0, chi=lambda p: p[..., 0],
                       dirichlet_data=1.0)
    system = build_system(mesh, data)
    first, both = np.array([True, False]), np.array([True, True])
    selector_solution(system, first)
    with pytest.raises(LinearSolveError, match="refined residual"):
        selector_solution(system, both)
    script_active_sets(monkeypatch, [first, both])
    with pytest.raises(SolverError, match=r"PDAS iteration 2: .* of 2 constraints") as err:
        pdas_solve(system=system)
    assert isinstance(err.value.__cause__, LinearSolveError)


def test_dependent_final_set_above_the_dense_size(monkeypatch):
    # every element of the structured 32x32 pyramid mesh active twice: the
    # final set is dependent (3,008 free dofs, 2,048 constraints), solve_kkt
    # refuses it, and the selector iterate is returned
    system = structured_system(pyramid(), 32)
    everything = np.ones(system.dofmap.n_multipliers, dtype=bool)
    script_active_sets(monkeypatch, [everything, everything])
    out = pdas_solve(system=system)
    assert out.converged
    assert out.residual <= 1e-10 * system.scale
    means = system.element_means(out.state.free_values)
    assert np.abs(means - system.chi_h.values).max() <= 1e-12


@pytest.mark.parametrize("divisions", [32, 64])
def test_pdas_cold_pyramid_converges(divisions):
    system = structured_system(pyramid(), divisions)
    out = pdas_solve(system=system)
    assert out.converged
    assert out.log[0].n_active == system.dofmap.n_multipliers
    assert np.all(out.state.multipliers <= 0.0)
    assert out.residual <= 1e-10 * system.scale


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
            neg = np.minimum(means - sys_.chi_h.values, 0.0)
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
