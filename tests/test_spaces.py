"""Quadrature, discrete fields, interpolants.

Key independent oracles:

* monomial integrals on the reference triangle have the closed form
  ``a! b! / (a + b + 2)!`` -- every triangle rule is checked against it;
* CR evaluation is cross-checked by fitting the element affine through its
  three side-midpoint values with a dense 3x3 solve;
* the divergence of a flux field is cross-checked with a boundary integral
  (Gauss theorem) evaluated by segment quadrature of the traces.
"""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from crobstacle.mesh import (
    LShape,
    Mesh,
    Rectangle,
    build_structured,
    refine_rgb,
)
from crobstacle.spaces import (
    CrFunction,
    P0Function,
    Rt0Function,
    SpaceError,
    VertexFunction,
    element_points,
    integrate_elementwise,
    interp_av,
    interp_cr,
    interp_rt,
    project_p0,
    prolong_cr,
    prolong_p0,
    sample_data,
    segment_rule,
    shared_sample,
    side_points,
    triangle_rule,
)
from crobstacle import spaces as spaces_mod
from crobstacle.benchmarks import corner, pyramid, ring

from util import (composite_rule, divergence, eval_cr, graded_meshes, kept_elements,
                  side_values, zero_boundary_data)


def reference_triangle():
    return Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])


def lshape_mesh(n=2):
    return build_structured(
        LShape(Rectangle(-2, -2, 2, 2), Rectangle(0, -2, 2, 0)), n)


def rgb_mesh():
    """An L-shape mesh after three rounds of red-green-blue refinement."""
    mesh = lshape_mesh(2)
    for k in range(3):
        mesh = refine_rgb(mesh, np.arange(k, mesh.n_elements, 4))
    return mesh


def exact_monomial(a, b):
    """closed form for the unit right triangle: a! b! / (a + b + 2)!"""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


# ----------------------------------------------------------------------
# Quadrature
# ----------------------------------------------------------------------
class TestQuadrature:
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 8, 10, 12])
    def test_monomial_exactness(self, degree):
        mesh = reference_triangle()
        rule = triangle_rule(degree)
        pts = element_points(mesh, rule.bary)[0]
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                got = 0.5 * (rule.weights * pts[:, 0] ** a * pts[:, 1] ** b).sum()
                assert got == pytest.approx(exact_monomial(a, b), abs=1e-14, rel=1e-12)

    @pytest.mark.parametrize("subdivisions", [1, 2])
    def test_composite_rule_exactness(self, subdivisions):
        mesh = reference_triangle()
        rule = composite_rule(5, subdivisions)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-13)
        pts = element_points(mesh, rule.bary)[0]
        for a, b in [(0, 0), (2, 1), (3, 2), (1, 4)]:
            got = 0.5 * (rule.weights * pts[:, 0] ** a * pts[:, 1] ** b).sum()
            assert got == pytest.approx(exact_monomial(a, b), abs=1e-14, rel=1e-12)

    def test_weights_sum_and_positivity(self):
        for degree in range(1, 14):
            rule = triangle_rule(degree)
            assert rule.weights.sum() == pytest.approx(1.0, abs=1e-13)
            assert rule.weights.min() > 0
            assert np.allclose(rule.bary.sum(axis=1), 1.0, atol=1e-13)
            assert rule.bary.min() >= 0.0

    def test_segment_rule(self):
        for n in (1, 2, 3, 4):
            rule = segment_rule(n)
            assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
            for k in range(2 * n):
                got = (rule.weights * rule.points ** k).sum()
                assert got == pytest.approx(1.0 / (k + 1), rel=1e-13)

    def test_invalid_degree(self):
        with pytest.raises(SpaceError):
            triangle_rule(0)
        with pytest.raises(SpaceError):
            segment_rule(0)

    def test_integrate_elementwise(self):
        mesh = lshape_mesh(2)
        rule = triangle_rule(2)
        ones = np.ones((mesh.n_elements, rule.n_points))
        assert integrate_elementwise(mesh, rule, ones).sum() == pytest.approx(12.0)

    @pytest.mark.parametrize("subdivisions", [0, 1])
    @pytest.mark.parametrize("degree", [1, 2, 5, 12])
    def test_element_points_bitwise_equal_to_einsum(self, degree, subdivisions):
        """The points must equal ``einsum("qj,tjd->tqd")`` bit for bit.

        Callers compare data sampled at these points against data sampled
        at points built that way, with no tolerance: a post-processed field
        ``max(p1, chi)`` is checked ``>= chi`` exactly, and a 1-ulp shift in
        a point moves ``chi`` enough to fail that check.
        """
        mesh = rgb_mesh()
        rule = composite_rule(degree, subdivisions)
        corners = mesh.vertex_coords[mesh.elem_vertices]
        expected = np.einsum("qj,tjd->tqd", rule.bary, corners)
        assert np.array_equal(element_points(mesh, rule.bary), expected)

    @pytest.mark.parametrize("n", [1, 2, 6, 8])
    def test_side_points_bitwise_equal_to_inline_formula(self, n):
        """The points equal ``a + t (b - a)`` evaluated inline, bit for bit."""
        mesh = rgb_mesh()
        rule = segment_rule(n)

        def inline(sides):
            a = mesh.vertex_coords[mesh.side_vertices[sides, 0]]
            b = mesh.vertex_coords[mesh.side_vertices[sides, 1]]
            return a[:, None, :] + rule.points[None, :, None] * (b - a)[:, None, :]

        assert np.array_equal(side_points(mesh, rule), inline(slice(None)))
        mask = mesh.dirichlet_side_mask
        assert np.array_equal(side_points(mesh, rule, mask), inline(mask))
        sides = np.flatnonzero(mask)
        assert np.array_equal(side_points(mesh, rule, sides), inline(sides))

    def test_sample_data(self):
        mesh = lshape_mesh(2)
        pts = element_points(mesh, triangle_rule(5).bary)
        assert sample_data(2.5, pts) == 2.5
        got = sample_data(lambda p: p[..., 0] * p[..., 1], pts)
        assert np.array_equal(got, pts[..., 0] * pts[..., 1])
        # element values live on one mesh, not at the points
        vals = np.arange(mesh.n_elements, dtype=float)
        with pytest.raises(SpaceError):
            sample_data(P0Function(mesh, vals), pts)
        with pytest.raises(SpaceError):
            sample_data([1.0, 2.0], pts)


# ----------------------------------------------------------------------
# Data sampling: blocked evaluation and the samples each mesh keeps
# ----------------------------------------------------------------------
def corner_mesh(refinements):
    mesh = corner().initial_mesh()
    for _ in range(refinements):
        mesh = refine_rgb(mesh)
    return mesh


class CountingCallable:
    """A data callable that counts the points it is evaluated at."""

    def __init__(self, fn):
        self.fn = fn
        self.points = 0
        self.calls = 0

    def __call__(self, pts):
        self.points += pts.size // 2
        self.calls += 1
        return self.fn(pts)


class TestSampleData:
    def test_blocked_sampler_bitwise_equal_to_one_call(self):
        mesh = corner_mesh(3)
        assert mesh.n_elements > 5 * spaces_mod._SAMPLE_BLOCK
        pts = element_points(mesh, triangle_rule(12).bary)
        exact = corner().data.exact
        for fn in (corner().data.f, exact.u, exact.grad_u,
                   pyramid().data.chi, ring().data.exact.u):
            one_call = np.asarray(fn(pts), dtype=float)
            got = sample_data(fn, pts)
            assert got.shape == one_call.shape
            assert np.array_equal(got, one_call), fn.__name__
        # per-point results of another dtype are converted as one call would
        contact = exact.contact
        assert np.array_equal(sample_data(contact, pts),
                              np.asarray(contact(pts), dtype=float))

    def test_scalar_callable_keeps_its_shape(self):
        mesh = corner_mesh(2)
        assert mesh.n_elements > spaces_mod._SAMPLE_BLOCK
        pts = element_points(mesh, triangle_rule(5).bary)
        got = sample_data(lambda p: 2.5, pts)
        assert got.shape == () and got == 2.5
        small = corner_mesh(0)
        got = sample_data(lambda p: 2.5, element_points(small, triangle_rule(5).bary))
        assert got.shape == () and got == 2.5

    def test_blocked_sampler_memory_is_bounded_by_a_block(self):
        mesh = corner_mesh(4)
        assert mesh.n_elements >= 8 * spaces_mod._SAMPLE_BLOCK
        pts = element_points(mesh, triangle_rule(12).bary)
        grad_u = corner().data.exact.grad_u
        tracemalloc.start()
        try:
            out = sample_data(grad_u, pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == pts.shape
        # one call on all points peaks at about 9.6 times the output
        assert peak < 3 * out.nbytes

    def test_project_p0_samples_through_sample_data(self):
        mesh = corner_mesh(3)
        rule = triangle_rule(5)
        f = CountingCallable(corner().data.f)
        got = project_p0(f, mesh, rule)
        assert f.calls == -(-mesh.n_elements // spaces_mod._SAMPLE_BLOCK)
        assert f.points == mesh.n_elements * rule.n_points
        pts = element_points(mesh, rule.bary)
        assert np.array_equal(got.values, np.asarray(f.fn(pts)) @ rule.weights)


class TestSharedSample:
    def test_reused_per_mesh_rule_and_callable(self):
        mesh = corner_mesh(1)
        rule = triangle_rule(12)
        pts = element_points(mesh, rule.bary)
        fn = CountingCallable(corner().data.exact.grad_u)
        first = shared_sample(fn, mesh, rule)
        assert np.array_equal(first, sample_data(fn.fn, pts))
        assert not first.flags.writeable
        n_points = mesh.n_elements * rule.n_points
        assert fn.points == n_points
        # a fresh rule object with the same points hits
        assert shared_sample(fn, mesh, triangle_rule(12)) is first
        assert fn.points == n_points
        # a different callable object never hits, even with the same code
        twin = CountingCallable(fn.fn)
        assert np.array_equal(shared_sample(twin, mesh, rule), first)
        assert twin.points == n_points
        # scalars pass straight through
        assert shared_sample(2.5, mesh, rule) == 2.5
        # another rule adds an entry and keeps the first rule's sample
        rule5 = triangle_rule(5)
        other = shared_sample(fn, mesh, rule5)
        assert np.array_equal(other, sample_data(fn.fn, element_points(mesh, rule5.bary)))
        assert shared_sample(fn, mesh, rule) is first
        assert shared_sample(fn, mesh, rule5) is other
        assert fn.points == n_points + mesh.n_elements * rule5.n_points
        assert [entry[0] for entry in mesh.samples] == [fn, twin, fn]
        assert mesh.samples[0][2] is first and mesh.samples[2][2] is other

    def test_nothing_of_an_older_mesh_survives(self, monkeypatch):
        rule = triangle_rule(12)
        fn = corner().data.f
        built = []

        def recording(*args):
            points = element_points(*args)
            built.append(weakref.ref(points))
            return points

        monkeypatch.setattr(spaces_mod, "element_points", recording)
        mesh_a = corner_mesh(1)
        sample_a = shared_sample(fn, mesh_a, rule)
        refs = [weakref.ref(obj) for obj in
                (mesh_a, sample_a, sample_a.base)]
        # the mesh never holds the element points, not even on their level
        gc.collect()
        assert len(built) == 1 and built[0]() is None
        mesh_b = corner_mesh(0)
        shared_sample(fn, mesh_b, rule)
        del mesh_a, sample_a
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_samples_die_with_their_mesh(self):
        rule = triangle_rule(12)
        mesh = corner_mesh(1)
        exact = corner().data.exact
        samples = [shared_sample(fn, mesh, rule)
                   for fn in (corner().data.f, exact.u, exact.grad_u)]
        assert len(mesh.samples) == 3
        assert all(entry[2] is sample for entry, sample in zip(mesh.samples, samples))
        refs = [weakref.ref(obj) for sample in samples for obj in (sample, sample.base)]
        del mesh, samples
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_another_mesh_leaves_the_samples_in_place(self):
        rule = triangle_rule(12)
        fn = CountingCallable(corner().data.f)
        mesh_a, mesh_b = corner_mesh(1), corner_mesh(0)
        sample_a = shared_sample(fn, mesh_a, rule)
        shared_sample(fn, mesh_b, rule)
        assert mesh_b.parent is None and len(mesh_b.samples) == 1
        fn.points = 0
        assert shared_sample(fn, mesh_a, rule) is sample_a
        assert fn.points == 0
        assert len(mesh_a.samples) == 1 and mesh_a.samples[0][2] is sample_a


class TestInheritedSamples:
    """A refined mesh copies its unrefined elements' sample rows from the parent."""

    @staticmethod
    def callables(name):
        if name == "corner":
            exact = corner().data.exact
            return [corner().data.f, exact.u, exact.grad_u]
        data = pyramid().data
        return [data.chi, data.chi_grad]

    @pytest.mark.parametrize("name", ["corner", "pyramid"])
    def test_inherited_samples_equal_a_fresh_sample(self, name):
        rule = triangle_rule(12)
        fns = self.callables(name)
        meshes = graded_meshes(corner() if name == "corner" else pyramid(), 4)
        for mesh in meshes:
            for fn in fns:
                got = shared_sample(fn, mesh, rule)
                assert np.array_equal(got, sample_data(fn, element_points(mesh, rule.bary)))
        assert all(kept_elements(mesh).mean() > 0.5 for mesh in meshes[1:])

    def test_only_new_elements_are_evaluated(self, monkeypatch):
        rule = triangle_rule(12)
        parent, child = graded_meshes(corner(), 2)
        fns = [CountingCallable(fn) for fn in self.callables("corner")]
        for fn in fns:
            shared_sample(fn, parent, rule)
        shapes = []

        def recording(*args):
            points = element_points(*args)
            shapes.append(points.shape)
            return points

        monkeypatch.setattr(spaces_mod, "element_points", recording)
        n_new = int((~kept_elements(child)).sum())
        assert 0 < n_new < child.n_elements
        for fn in fns:
            fn.points = 0
            shared_sample(fn, child, rule)
            assert fn.points == n_new * rule.n_points
        assert shapes == [(n_new, rule.n_points, 2)] * len(fns)

    def test_constant_callable_on_a_refined_mesh(self):
        # a callable that ignores its points gives a scalar, with no rows to copy
        rule = triangle_rule(12)
        parent, child = graded_meshes(corner(), 2)
        fn = lambda pts: 2.5   # noqa: E731
        assert shared_sample(fn, parent, rule) == 2.5
        got = shared_sample(fn, child, rule)
        assert got.shape == () and got == 2.5

    def test_collected_parent_samples_everything(self):
        rule = triangle_rule(12)
        parent, child = graded_meshes(corner(), 2)
        fn = CountingCallable(corner().data.f)
        shared_sample(fn, parent, rule)
        del parent
        gc.collect()
        assert child.parent is None
        fn.points = 0
        got = shared_sample(fn, child, rule)
        assert fn.points == child.n_elements * rule.n_points
        assert np.array_equal(got, sample_data(fn.fn, element_points(child, rule.bary)))

    def test_parent_samples_are_released_on_take_over(self):
        rule = triangle_rule(12)
        parent, child, grandchild = graded_meshes(corner(), 3)
        exact = corner().data.exact
        taken, left = (shared_sample(fn, parent, rule) for fn in (exact.u, exact.grad_u))
        taken_refs = [weakref.ref(taken), weakref.ref(taken.base)]
        left_refs = [weakref.ref(left), weakref.ref(left.base)]
        del taken, left
        shared_sample(exact.u, child, rule)
        gc.collect()
        assert all(ref() is None for ref in taken_refs)
        assert [entry[0] for entry in parent.samples] == [exact.grad_u]
        # the parent's other sample waits for its take-over while the parent lives
        shared_sample(exact.u, grandchild, rule)
        gc.collect()
        assert all(ref() is not None for ref in left_refs)
        assert child.samples == [] and len(grandchild.samples) == 1
        del parent
        gc.collect()
        assert all(ref() is None for ref in left_refs)
        assert child.parent is None and grandchild.parent is child


# ----------------------------------------------------------------------
# CR fields
# ----------------------------------------------------------------------
class TestCrFunction:
    def test_affine_fit_oracle(self):
        mesh = lshape_mesh(2)
        rng = np.random.default_rng(0)
        v = CrFunction(mesh, rng.normal(size=mesh.n_sides))
        rule = triangle_rule(2)
        vals = v.eval_at(rule.bary)
        grads = v.gradient().values
        for t in range(mesh.n_elements):
            mids = mesh.side_midpoints[mesh.elem_sides[t]]
            A = np.column_stack([np.ones(3), mids])
            coef = np.linalg.solve(A, v.dofs[mesh.elem_sides[t]])
            pts = element_points(mesh, rule.bary)[t]
            expected = coef[0] + pts @ coef[1:]
            assert np.allclose(vals[t], expected, atol=1e-12)
            assert np.allclose(grads[t], coef[1:], atol=1e-12)

    def test_basis_value_at_barycenter(self):
        mesh = lshape_mesh(2)
        for s in [0, 3, mesh.n_sides - 1]:
            dofs = np.zeros(mesh.n_sides)
            dofs[s] = 1.0
            v = CrFunction(mesh, dofs)
            means = v.element_means()
            for t in range(mesh.n_elements):
                expected = 1.0 / 3.0 if s in mesh.elem_sides[t] else 0.0
                assert means[t] == pytest.approx(expected, abs=1e-14)

    def test_midpoint_continuity(self):
        mesh = lshape_mesh(2)
        rng = np.random.default_rng(1)
        v = CrFunction(mesh, rng.normal(size=mesh.n_sides))
        interior = np.flatnonzero(mesh.interior_side_mask)
        tmid = np.array([0.5])
        minus = side_values(v, interior, tmid, "minus")[:, 0]
        plus = side_values(v, interior, tmid, "plus")[:, 0]
        assert np.allclose(minus, v.dofs[interior], atol=1e-12)
        assert np.allclose(plus, v.dofs[interior], atol=1e-12)
        # generically discontinuous away from the midpoint
        toff = np.array([0.25])
        minus = side_values(v, interior, toff, "minus")[:, 0]
        plus = side_values(v, interior, toff, "plus")[:, 0]
        assert np.abs(minus - plus).max() > 1e-3

    def test_vertex_traces(self):
        mesh = lshape_mesh(2)
        rng = np.random.default_rng(2)
        v = CrFunction(mesh, rng.normal(size=mesh.n_sides))
        traces = v.vertex_traces()
        pts = mesh.vertex_coords[mesh.elem_vertices]  # (nt,3,2)
        for t in range(mesh.n_elements):
            got = eval_cr(v, np.full(3, t), pts[t])
            assert np.allclose(got, traces[t], atol=1e-12)

    def test_l2_norm_vs_quadrature(self):
        mesh = lshape_mesh(4)
        rng = np.random.default_rng(3)
        v = CrFunction(mesh, rng.normal(size=mesh.n_sides))
        rule = triangle_rule(2)
        sq = integrate_elementwise(mesh, rule, v.eval_at(rule.bary) ** 2).sum()
        assert v.l2_norm() == pytest.approx(np.sqrt(sq), rel=1e-13)

    def test_eval_outside_element_raises(self):
        mesh = lshape_mesh(2)
        v = CrFunction(mesh, np.zeros(mesh.n_sides))
        outside = mesh.barycenters[1] if True else None
        with pytest.raises(SpaceError):
            eval_cr(v, [0], [mesh.barycenters[5]])
        # sanity: inside point works
        assert eval_cr(v, [0], [mesh.barycenters[0]])[0] == pytest.approx(0.0)

    def test_bad_shapes(self):
        mesh = lshape_mesh(2)
        with pytest.raises(SpaceError):
            CrFunction(mesh, np.zeros(mesh.n_sides + 1))
        with pytest.raises(SpaceError):
            P0Function(mesh, np.zeros(3))


# ----------------------------------------------------------------------
# Interpolants and the commuting identities
# ----------------------------------------------------------------------
class TestInterpolants:
    def test_interp_cr_exact_for_affine(self):
        mesh = lshape_mesh(2)
        f = lambda p: 2.0 + 3.0 * p[..., 0] - 0.5 * p[..., 1]
        v = interp_cr(f, mesh)
        assert np.allclose(v.dofs, f(mesh.side_midpoints), atol=1e-13)

    def test_broken_gradient_commutes_with_side_averages(self):
        # gradient of the side-average interpolant = element means of the gradient
        mesh = lshape_mesh(4)
        f = lambda p: p[..., 0] ** 3 - 2 * p[..., 0] * p[..., 1] ** 2 + p[..., 1]
        df = lambda p: np.stack(
            [3 * p[..., 0] ** 2 - 2 * p[..., 1] ** 2,
             -4 * p[..., 0] * p[..., 1] + 1.0], axis=-1)
        v = interp_cr(f, mesh)
        got = v.gradient().values
        rule = triangle_rule(5)
        pts = element_points(mesh, rule.bary)
        expected = np.einsum("tqd,q->td", df(pts), rule.weights)
        assert np.allclose(got, expected, atol=1e-12)

    def test_flux_interpolant_commutes_with_divergence(self):
        mesh = lshape_mesh(4)
        y = lambda p: np.stack(
            [p[..., 0] ** 2 + p[..., 1], p[..., 0] * p[..., 1] - 3.0], axis=-1)
        divy = lambda p: 2 * p[..., 0] + p[..., 0]
        z = interp_rt(y, mesh, segment_rule(2))
        got = divergence(z)
        rule = triangle_rule(5)
        pts = element_points(mesh, rule.bary)
        expected = np.einsum("tq,q->t", divy(pts), rule.weights)
        assert np.allclose(got, expected, atol=1e-12)

    def test_project_p0(self):
        mesh = lshape_mesh(2)
        rule = triangle_rule(5)
        # of a linear callable: the barycenter value
        q = project_p0(lambda pts: pts[..., 0], mesh, rule)
        assert np.allclose(q.values, mesh.barycenters[:, 0], atol=1e-13)
        # of a constant
        c = project_p0(2.5, mesh, rule)
        assert np.allclose(c.values, 2.5)
        # of a piecewise constant: rejected, it cannot be sampled at points
        p = P0Function(mesh, np.arange(mesh.n_elements, dtype=float))
        with pytest.raises(SpaceError):
            project_p0(p, mesh, rule)

    def test_interp_av_recovers_conforming_fields(self):
        mesh = lshape_mesh(2)
        # homogeneous case: a conforming affine hat-combination with zero
        # Dirichlet trace is reproduced exactly
        rng = np.random.default_rng(5)
        w = rng.normal(size=mesh.n_vertices)
        w[mesh.dirichlet_vertex_mask()] = 0.0
        v = CrFunction(mesh, 0.5 * w[mesh.side_vertices].sum(axis=1))
        got = interp_av(v, zero_boundary_data)
        assert np.allclose(got.values, w, atol=1e-12)

    def test_interp_av_with_boundary_data(self):
        mesh = lshape_mesh(2)
        g = lambda p: 1.0 + p[..., 0] - 2.0 * p[..., 1]
        w = g(mesh.vertex_coords)
        v = CrFunction(mesh, 0.5 * w[mesh.side_vertices].sum(axis=1))
        got = interp_av(v, g)
        assert np.allclose(got.values, w, atol=1e-12)
        # zero data forces the Dirichlet vertices to zero
        hom = interp_av(v, zero_boundary_data)
        assert np.allclose(hom.values[mesh.dirichlet_vertex_mask()], 0.0)

    def test_interp_av_averages_interior(self):
        mesh = lshape_mesh(2)
        rng = np.random.default_rng(6)
        v = CrFunction(mesh, rng.normal(size=mesh.n_sides))
        got = interp_av(v, zero_boundary_data)
        traces = v.vertex_traces()
        interior = ~mesh.dirichlet_vertex_mask()
        for z in np.flatnonzero(interior):
            vals = []
            for t in np.flatnonzero((mesh.elem_vertices == z).any(axis=1)):
                j = int(np.where(mesh.elem_vertices[t] == z)[0][0])
                vals.append(traces[t, j])
            assert got.values[z] == pytest.approx(np.mean(vals), abs=1e-12)


# ----------------------------------------------------------------------
# Flux fields
# ----------------------------------------------------------------------
class TestRt0:
    def test_normal_trace_is_the_side_flux(self):
        mesh = lshape_mesh(2)
        rng = np.random.default_rng(7)
        z = Rt0Function(mesh, rng.normal(size=mesh.n_sides))
        tpts = np.array([0.15, 0.5, 0.9])
        all_sides = np.arange(mesh.n_sides)
        tr_minus = side_values(z, all_sides, tpts, "minus")
        normal_comp = np.einsum("sqd,sd->sq", tr_minus, mesh.side_normals)
        assert np.allclose(normal_comp, z.side_fluxes[:, None], atol=1e-12)
        interior = np.flatnonzero(mesh.interior_side_mask)
        tr_plus = side_values(z, interior, tpts, "plus")
        normal_comp = np.einsum("sqd,sd->sq", tr_plus, mesh.side_normals[interior])
        assert np.allclose(normal_comp, z.side_fluxes[interior, None], atol=1e-12)

    def test_divergence_vs_gauss_theorem(self):
        mesh = lshape_mesh(2)
        rng = np.random.default_rng(8)
        z = Rt0Function(mesh, rng.normal(size=mesh.n_sides))
        div = divergence(z)
        rule = segment_rule(2)
        for t in range(mesh.n_elements):
            flux_sum = 0.0
            for j in range(3):
                s = mesh.elem_sides[t, j]
                which = "minus" if mesh.side_elem_minus[s] == t else "plus"
                tr = side_values(z, [s], rule.points, which)[0]
                orient = mesh.elem_side_orient[t, j]
                n_out = orient * mesh.side_normals[s]
                flux_sum += mesh.side_lengths[s] * (rule.weights * (tr @ n_out)).sum()
            assert div[t] == pytest.approx(flux_sum / mesh.areas[t], abs=1e-12)

    def test_eval_at_matches_physical_formula(self):
        # on each element the field is sum_j c_j (x - P_j) with
        # c_j = flux_j * orient_j * |S_j| / (2 |T|), at the physical points
        mesh = rgb_mesh()
        rng = np.random.default_rng(11)
        z = Rt0Function(mesh, rng.normal(size=mesh.n_sides))
        rule = triangle_rule(5)
        es = mesh.elem_sides
        coef = (z.side_fluxes[es] * mesh.elem_side_orient
                * mesh.side_lengths[es] / (2.0 * mesh.areas[:, None]))
        pts = element_points(mesh, rule.bary)
        corners = mesh.vertex_coords[mesh.elem_vertices]
        expected = np.einsum("tj,tjqd->tqd", coef,
                             pts[:, None, :, :] - corners[:, :, None, :])
        assert np.allclose(z.eval_at(rule.bary), expected, rtol=0, atol=1e-12)

    def test_element_means_vs_quadrature(self):
        mesh = lshape_mesh(2)
        rng = np.random.default_rng(9)
        z = Rt0Function(mesh, rng.normal(size=mesh.n_sides))
        rule = triangle_rule(2)
        vals = z.eval_at(rule.bary)
        expected = np.einsum("tqd,q->td", vals, rule.weights)
        assert np.allclose(z.element_means().values, expected, atol=1e-12)

    def test_interp_rt_reproduces_flux_fields(self):
        mesh = lshape_mesh(2)
        rng = np.random.default_rng(10)
        z = Rt0Function(mesh, rng.normal(size=mesh.n_sides))
        tpts = segment_rule(2).points

        def callable_z(pts):
            # evaluate the flux field at arbitrary points: pts has shape
            # (ns, nq, 2) coming from interp_rt's probing along sides; return
            # the minus-side trace values
            assert pts.shape[1:] == (2, 2)
            out = np.empty_like(pts)
            for s in range(pts.shape[0]):
                out[s] = side_values(z, [s], tpts, "minus")[0]
            return out

        w = interp_rt(callable_z, mesh, segment_rule(2))
        assert np.allclose(w.side_fluxes, z.side_fluxes, atol=1e-12)


# ----------------------------------------------------------------------
# Prolongation
# ----------------------------------------------------------------------
class TestProlongation:
    def test_affine_exactness(self):
        coarse = lshape_mesh(2)
        f = lambda p: 0.7 - 1.3 * p[..., 0] + 0.4 * p[..., 1]
        v = interp_cr(f, coarse)
        fine = refine_rgb(coarse)
        out = prolong_cr(v, fine)
        assert np.allclose(out.dofs, f(fine.side_midpoints), atol=1e-12)

    def test_interior_sides_copy_parent_affine(self):
        coarse = lshape_mesh(2)
        rng = np.random.default_rng(11)
        v = CrFunction(coarse, rng.normal(size=coarse.n_sides))
        fine = refine_rgb(coarse)
        out = prolong_cr(v, fine)
        # sides whose two adjacent children share the parent: exact evaluation
        p_minus = fine.parent_elements[fine.side_elem_minus]
        p_plus = fine.parent_elements[np.maximum(fine.side_elem_plus, 0)]
        same = (fine.side_elem_plus >= 0) & (p_minus == p_plus)
        sides = np.flatnonzero(same)
        expected = eval_cr(v, p_minus[sides], fine.side_midpoints[sides])
        assert np.allclose(out.dofs[sides], expected, atol=1e-12)

    def test_prolong_p0(self):
        coarse = lshape_mesh(2)
        p = P0Function(coarse, np.arange(coarse.n_elements, dtype=float))
        fine = refine_rgb(coarse)
        out = prolong_p0(p, fine)
        assert np.allclose(out.values, p.values[fine.parent_elements])

    def test_wrong_hierarchy_raises(self):
        a = lshape_mesh(2)
        b = lshape_mesh(2)
        v = CrFunction(a, np.zeros(a.n_sides))
        with pytest.raises(SpaceError):
            prolong_cr(v, b)

    def test_fine_mesh_holds_its_parent_weakly(self):
        # a refinement does not keep its ancestry alive
        coarse = lshape_mesh(2)
        fine = refine_rgb(coarse)
        assert fine.parent is coarse
        gone = weakref.ref(coarse)
        del coarse
        gc.collect()
        assert gone() is None and fine.parent is None
        other = lshape_mesh(2)
        with pytest.raises(SpaceError):
            prolong_cr(CrFunction(other, np.zeros(other.n_sides)), fine)
