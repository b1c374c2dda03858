"""Assembly of stiffness/coupling matrices and data vectors.

Analytic oracles used here:

* the broken stiffness applied to an affine field reproduces its exact
  energy ``|grad l|^2 |Omega|``;
* the coupling column of an element is ``|T| / 3`` per free side.
"""

from dataclasses import replace

import numpy as np
import pytest

from crobstacle.assembly import (
    AssemblyError,
    ProblemData,
    assemble_coupling,
    assemble_load,
    assemble_obstacle_vectors,
    assemble_stiffness_full,
    build_dofmap,
    dirichlet_dof_values,
    find_excluded_element,
)
from crobstacle.benchmarks import ring
from crobstacle.mesh import NEUMANN, Mesh, Rectangle, build_structured
from crobstacle.spaces import (
    CrFunction,
    P0Function,
    VertexFunction,
    element_points,
    interp_cr,
    triangle_rule,
)


def reference_triangle(all_neumann=False):
    labeler = ((lambda sides, mid: np.full(len(sides), NEUMANN))
               if all_neumann else None)
    return Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]],
                side_labeler=labeler)


def square_mesh(n, lo=-1.5, hi=1.5):
    return build_structured(Rectangle(lo, lo, hi, hi), n)


def plain_data(f=0.0, chi=0.0, **kw):
    return ProblemData(name="test", f=f, chi=chi, **kw)


class TestDofMap:
    def test_counts(self):
        m = square_mesh(4)
        dm = build_dofmap(m)
        assert dm.n_free == m.n_sides - int(m.dirichlet_side_mask.sum()) == 40
        assert dm.n_multipliers == m.n_elements
        assert np.all(dm.side_to_free[dm.free_sides] == np.arange(dm.n_free))
        assert np.all(dm.side_to_free[m.dirichlet_side_mask] == -1)

    def test_neumann_sides_are_free(self):
        def rule(sides, mid):
            return np.where(mid[:, 1] > 1.4999, NEUMANN, "dirichlet")

        m = build_structured(Rectangle(-1.5, -1.5, 1.5, 1.5), 4, boundary_rule=rule)
        dm = build_dofmap(m)
        assert dm.n_free == 44

    def test_exclude(self):
        m = square_mesh(2)
        dm = build_dofmap(m)
        dm2 = dm.exclude([3])
        assert dm2.n_multipliers == m.n_elements - 1
        assert dm2.elem_to_col[3] == -1
        assert 3 not in dm2.elements
        assert dm2.excluded_elements == (3,)
        # remaining enumeration stays ascending and dense
        assert np.all(np.diff(dm2.elements) > 0)
        cols = dm2.elem_to_col[dm2.elements]
        assert np.array_equal(cols, np.arange(dm2.n_multipliers))


class TestStiffness:
    def test_reference_triangle_row_sums(self):
        m = reference_triangle(all_neumann=True)
        dm = build_dofmap(m)
        S = assemble_stiffness_full(m)[dm.free_sides][:, dm.free_sides]
        assert S.shape == (3, 3)
        assert np.allclose(S.toarray().sum(axis=1), 0.0, atol=1e-14)

    def test_affine_energy(self):
        m = square_mesh(4)
        grad = np.array([0.7, -1.3])
        f = lambda p: 2.0 + p[..., 0] * grad[0] + p[..., 1] * grad[1]
        dofs = f(m.side_midpoints)
        S = assemble_stiffness_full(m)
        energy = dofs @ (S @ dofs)
        assert energy == pytest.approx((grad @ grad) * 9.0, rel=1e-12)

    def test_symmetry_exact(self):
        m = square_mesh(3)
        S = assemble_stiffness_full(m).toarray()
        assert np.abs(S - S.T).max() == 0.0

    def test_energy_matches_broken_gradient_norm(self):
        m = square_mesh(3)
        rng = np.random.default_rng(0)
        dofs = rng.normal(size=m.n_sides)
        S = assemble_stiffness_full(m)
        v = CrFunction(m, dofs)
        assert dofs @ (S @ dofs) == pytest.approx(
            v.gradient().l2_norm() ** 2, rel=1e-12)

    def test_constants_in_kernel_before_masking(self):
        m = square_mesh(2)
        S = assemble_stiffness_full(m)
        ones = np.ones(m.n_sides)
        assert np.abs(S @ ones).max() < 1e-12


class TestCoupling:
    def test_reference_triangle_column(self):
        m = reference_triangle(all_neumann=True)
        dm = build_dofmap(m)
        P = assemble_coupling(m, dm)
        assert P.shape == (3, 1)
        assert np.allclose(P.toarray()[:, 0], 0.5 / 3.0)

    def test_all_dirichlet_triangle_zero_column(self):
        m = reference_triangle()
        dm = build_dofmap(m)
        P = assemble_coupling(m, dm)
        assert P.shape == (0, 1)
        assert find_excluded_element(P) == [0]
        dm2 = dm.exclude(find_excluded_element(P))
        assert dm2.n_multipliers == 0

    def test_no_excluded_on_structured_meshes(self):
        for m in (square_mesh(4), square_mesh(1)):
            dm = build_dofmap(m)
            P = assemble_coupling(m, dm)
            assert find_excluded_element(P) == []

    def test_transpose_is_scaled_element_mean(self):
        m = square_mesh(3)
        dm = build_dofmap(m)
        P = assemble_coupling(m, dm)
        rng = np.random.default_rng(1)
        dofs = rng.normal(size=m.n_sides)
        dofs[m.dirichlet_side_mask] = 0.0
        out = P.T @ dofs[dm.free_sides]
        means = CrFunction(m, dofs).element_means()
        assert np.allclose(out, means * m.areas, atol=1e-13)

    def test_column_sums(self):
        m = square_mesh(3)
        dm = build_dofmap(m)
        P = assemble_coupling(m, dm).toarray()
        n_free_sides = (~m.dirichlet_side_mask)[m.elem_sides].sum(axis=1)
        assert np.allclose(P.sum(axis=0), m.areas * n_free_sides / 3.0)
        assert P.min() >= 0.0


class TestObstacleVectors:
    def test_zero_obstacle(self):
        m = square_mesh(2)
        X, chi_h = assemble_obstacle_vectors(m, plain_data(chi=0.0))
        assert np.all(X == 0.0)
        assert np.all(chi_h.values == 0.0)

    def test_affine_obstacle(self):
        m = square_mesh(2)
        chi = lambda p: 0.3 * p[..., 0] - 0.1 * p[..., 1] - 2.0
        X, chi_h = assemble_obstacle_vectors(m, plain_data(chi=chi))
        assert np.allclose(X, chi(m.side_midpoints), atol=1e-13)
        assert np.allclose(chi_h.values, chi(m.barycenters), atol=1e-13)

    def test_distance_obstacle_pyramid(self):
        m = build_structured(Rectangle(-1, -1, 1, 1), 8)
        chi = lambda p: np.minimum(1 - np.abs(p[..., 0]), 1 - np.abs(p[..., 1]))
        X, chi_h = assemble_obstacle_vectors(m, plain_data(chi=chi))
        # the mesh is aligned with every kink line of the distance function,
        # so the obstacle is affine along each side
        assert np.allclose(X, chi(m.side_midpoints), atol=1e-13)
        assert np.all(X[m.boundary_mask] == pytest.approx(0.0, abs=1e-13))
        assert X[~m.boundary_mask].min() > 0.0
        assert chi_h.values.min() > 0.0
        # the smallest element means sit next to the boundary
        touching = np.zeros(m.n_elements, bool)
        touching[m.side_elem_minus[m.boundary_mask]] = True
        argmin = np.argmin(chi_h.values)
        assert touching[argmin]


class TestLoad:
    def test_constant_loads(self):
        m = square_mesh(2)
        assert np.all(assemble_load(m, plain_data(f=-2.0)).values == -2.0)
        assert np.all(assemble_load(m, plain_data(f=1.0)).values == 1.0)

    def test_smooth_load_vs_high_order_oracle(self):
        m = square_mesh(3)
        f = lambda p: np.sin(p[..., 0]) * np.exp(0.3 * p[..., 1])
        f_h = assemble_load(m, plain_data(f=f))
        oracle_rule = triangle_rule(12, subdivisions=1)
        pts = element_points(m, oracle_rule.bary)
        oracle = np.asarray(f(pts)) @ oracle_rule.weights
        assert np.allclose(f_h.values, oracle, atol=1e-8)

    def test_p0_load_passthrough(self):
        m = square_mesh(2)
        vals = np.arange(m.n_elements, dtype=float)
        f_h = assemble_load(m, plain_data(f=P0Function(m, vals)))
        assert np.array_equal(f_h.values, vals)


class TestProblemData:
    def test_obstacle_boundary_compatibility(self):
        m = square_mesh(2)

        def validate(data):
            data.validate_on(m, side_values=data.chi_side_values(m))

        validate(plain_data(chi=-1.0))
        validate(plain_data(chi=0.0))
        with pytest.raises(AssemblyError):
            validate(plain_data(chi=0.5))
        # positive obstacle is fine when the boundary data dominates it
        validate(plain_data(chi=0.5, dirichlet_data=1.0))

    def test_discrete_obstacle_rejected(self):
        # the estimator samples the obstacle at quadrature points, which a
        # field of side or element values cannot provide
        m = square_mesh(2)
        for chi in (interp_cr(-0.5, m), P0Function(m, np.full(m.n_elements, -0.5))):
            with pytest.raises(AssemblyError, match="scalar or a callable"):
                plain_data(chi=chi)

    def test_discrete_load_rejected(self):
        # a load of side or vertex values cannot be sampled at the
        # estimator's quadrature points
        m = square_mesh(2)
        vertex_load = VertexFunction(m, np.full(m.n_vertices, -2.0))
        for f in (interp_cr(-2.0, m), vertex_load):
            with pytest.raises(AssemblyError,
                               match="scalar, a callable or a P0Function"):
                plain_data(f=f)
        ring_data = ring().data
        with pytest.raises(AssemblyError, match="got CrFunction"):
            replace(ring_data, f=interp_cr(-2.0, ring().initial_mesh()))
        for f in (-2.0, np.float64(1.0), lambda p: p[..., 0],
                  P0Function(m, np.zeros(m.n_elements))):
            assert plain_data(f=f).f is f

    def test_validate_on_uses_given_side_values(self):
        m = square_mesh(2)
        data = plain_data(chi=0.5)
        with pytest.raises(AssemblyError):
            data.validate_on(m, side_values=data.chi_side_values(m))
        # the given values are the ones checked
        data.validate_on(m, side_values=np.zeros(m.n_sides))

    def test_dirichlet_dof_values(self):
        m = square_mesh(2)
        g = lambda p: 1.0 + p[..., 0] - 0.5 * p[..., 1]
        data = plain_data(dirichlet_data=g)
        vals = dirichlet_dof_values(m, data)
        dmask = m.dirichlet_side_mask
        assert np.allclose(vals[dmask], g(m.side_midpoints[dmask]), atol=1e-13)
        assert np.all(vals[~dmask] == 0.0)
        none = dirichlet_dof_values(m, plain_data())
        assert np.all(none == 0.0)
        # a constant goes through the same 2-point average and keeps its bits
        const = dirichlet_dof_values(m, plain_data(dirichlet_data=0.3))
        assert np.all(const[dmask] == 0.3) and np.all(const[~dmask] == 0.0)
