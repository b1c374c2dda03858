"""Oracle tests for the built-in benchmark problems.

The reference energies are re-derived here from scratch via 1-D radial
reductions of the energy integrals (scipy.integrate.quad), independently of
the frozen constants shipped in the package.  PDE consistency of the closed
form solutions is checked by finite differences.
"""
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from crobstacle import benchmarks
from crobstacle.benchmarks import (
    CORNER_ENERGY,
    RING_ENERGY,
    BenchmarkDefinition,
    corner,
    get_benchmark,
    pyramid,
    ring,
)
from util import validate_boundary


# ----------------------------------------------------------------------
# helpers: independent closed forms (the oracles)
# ----------------------------------------------------------------------
def ring_u(x, y):
    r = np.hypot(x, y)
    return 0.5 * r * r - np.log(r) - 0.5 if r >= 1.0 else 0.0


def quintic(s):
    """C^2 step: 1 for s <= 0, 0 for s >= 1."""
    if s <= 0.0:
        return 1.0
    if s >= 1.0:
        return 0.0
    return 1.0 + s ** 3 * (-10.0 + s * (15.0 - 6.0 * s))


def quintic_d1(s):
    if s <= 0.0 or s >= 1.0:
        return 0.0
    return -30.0 * s * s * (s - 1.0) ** 2


def quintic_d2(s):
    if s <= 0.0 or s >= 1.0:
        return 0.0
    return -60.0 * s * (2.0 * s - 1.0) * (s - 1.0)


def corner_radial(r):
    return r ** (2.0 / 3.0) * quintic(2.0 * (r - 0.25))


def corner_radial_d1(r):
    g = quintic(2.0 * (r - 0.25))
    g1 = 2.0 * quintic_d1(2.0 * (r - 0.25))
    return (2.0 / 3.0) * r ** (-1.0 / 3.0) * g + r ** (2.0 / 3.0) * g1


def corner_source_radial(r):
    g1 = 2.0 * quintic_d1(2.0 * (r - 0.25))
    g2 = 4.0 * quintic_d2(2.0 * (r - 0.25))
    return -(r ** (2.0 / 3.0) * g2 + (7.0 / 3.0) * r ** (-1.0 / 3.0) * g1)


def corner_u(x, y):
    r = np.hypot(x, y)
    phi = np.arctan2(y, x)
    if phi < 0.0:
        phi += 2.0 * np.pi
    return corner_radial(r) * np.sin(2.0 * phi / 3.0)


def fd_laplacian(fn, x, y, h=1e-5):
    return (fn(x + h, y) + fn(x - h, y) + fn(x, y + h) + fn(x, y - h)
            - 4.0 * fn(x, y)) / (h * h)


def fd_gradient(fn, x, y, h=1e-6):
    return np.array([(fn(x + h, y) - fn(x - h, y)) / (2 * h),
                     (fn(x, y + h) - fn(x, y - h)) / (2 * h)])


# ----------------------------------------------------------------------
# frozen reference energies, re-derived
# ----------------------------------------------------------------------
def test_ring_energy_rederived():
    # Energy density in polar coordinates for u = r^2/2 - ln r - 1/2 (r >= 1),
    # f = -2:  psi(r) = (3/2) r^2 - 2 ln r - 2 + 1/(2 r^2); zero for r < 1.
    # Radial integral from 1 to R (times r dr):
    def wedge(R):
        return (0.375 * R ** 4 - R * R * np.log(R) - 0.5 * R * R
                + 0.5 * np.log(R) + 0.125)

    val, err = quad(lambda phi: wedge(1.5 / np.cos(phi)), 0.0, np.pi / 4,
                    epsabs=1e-14, epsrel=1e-13)
    total = 8.0 * val
    assert err < 1e-10
    assert abs(total - RING_ENERGY) < 1e-10


def test_corner_energy_rederived():
    # u = R(r) sin(2 phi / 3) over the 3*pi/2 sector; the angular integrals of
    # sin^2 and cos^2 over (0, 3*pi/2) both equal 3*pi/4, so
    # I(u) = (3 pi / 8) * A - (3 pi / 4) * B with the radial integrals below.
    def grad_density(r):
        return (corner_radial_d1(r) ** 2
                + (4.0 / 9.0) * (corner_radial(r) / r) ** 2) * r

    def load_density(r):
        return corner_source_radial(r) * corner_radial(r) * r

    A, errA = quad(grad_density, 0.0, 0.75, points=[0.25], limit=200,
                   epsabs=1e-13, epsrel=1e-13)
    B, errB = quad(load_density, 0.0, 0.75, points=[0.25], limit=200,
                   epsabs=1e-13, epsrel=1e-13)
    total = 3.0 * np.pi / 8.0 * A - 3.0 * np.pi / 4.0 * B
    assert errA < 1e-10 and errB < 1e-10
    assert abs(total - CORNER_ENERGY) < 1e-9


# ----------------------------------------------------------------------
# ring benchmark
# ----------------------------------------------------------------------
def test_ring_definition_shape():
    b = ring()
    assert isinstance(b, BenchmarkDefinition)
    mesh = b.initial_mesh()
    # coarsest mesh of the published convergence study: a 2x2 grid of
    # cells, each split into two triangles; six uniform refinements reach
    # the finest reported level (anchor errors pin this starting mesh)
    assert mesh.n_elements == 8
    assert abs(mesh.h_max - 3.0 * np.sqrt(2.0) / 2.0) < 1e-14
    validate_boundary(b.data, mesh)


def test_ring_solution_values_and_contact():
    b = ring()
    ex = b.data.exact
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.3, -0.4], [1.0, 0.0],
                    [1.2, 0.0], [0.0, -1.4], [1.3, 1.3]])
    vals = ex.u(pts)
    expected = [ring_u(x, y) for x, y in pts]
    assert np.allclose(vals, expected, atol=1e-14)
    # zero on the contact disc, positive outside
    assert vals[0] == 0.0 and vals[1] == 0.0 and vals[2] == 0.0
    assert np.all(vals[4:] > 0.0)
    contact = ex.contact(pts)
    assert list(contact) == [True, True, True, True, False, False, False]


def test_ring_solution_is_c1_across_interface():
    ex = ring().data.exact
    for d in (1.0 - 1e-7, 1.0 + 1e-7):
        p = np.array([[d * np.cos(0.3), d * np.sin(0.3)]])
        assert abs(ex.u(p)[0]) < 1e-13
        assert np.linalg.norm(ex.grad_u(p)[0]) < 1e-6


def test_ring_gradient_matches_finite_differences():
    ex = ring().data.exact

    def u_scalar(x, y):
        return float(ex.u(np.array([[x, y]]))[0])

    for (x, y) in [(1.3, 0.2), (-0.9, 0.9), (0.2, -1.25), (0.5, 0.1)]:
        g = ex.grad_u(np.array([[x, y]]))[0]
        assert np.allclose(g, fd_gradient(u_scalar, x, y), atol=1e-8)


def test_ring_multiplier_consistent_with_pde():
    # lam = f + Delta(u): equals -2 on the contact disc and 0 outside.
    b = ring()
    ex = b.data.exact

    def u_scalar(x, y):
        return float(ex.u(np.array([[x, y]]))[0])

    for (x, y) in [(1.3, 0.2), (0.8, 1.0), (-1.1, -0.6)]:
        lap = fd_laplacian(u_scalar, x, y)
        lam = float(ex.lam(np.array([[x, y]]))[0])
        assert abs(b.data.f + lap - lam) < 1e-5
    inside = np.array([[0.4, 0.2], [0.0, 0.0]])
    assert np.allclose(ex.lam(inside), -2.0)
    assert float(ex.lam(np.array([[1.2, 0.0]]))[0]) == 0.0


def test_ring_dirichlet_data_matches_solution_trace():
    b = ring()
    t = np.linspace(-1.5, 1.5, 13)
    for edge in (np.column_stack([t, np.full_like(t, 1.5)]),
                 np.column_stack([np.full_like(t, -1.5), t])):
        g = b.data.dirichlet_values_at(edge)
        assert np.allclose(g, b.data.exact.u(edge), atol=1e-14)
        assert np.all(g > 0.0)
    assert b.data.exact.energy == RING_ENERGY


# ----------------------------------------------------------------------
# corner benchmark
# ----------------------------------------------------------------------
def test_corner_definition_shape():
    b = corner()
    mesh = b.initial_mesh()
    assert mesh.n_elements == 96
    assert abs(sum(mesh.areas) - 12.0) < 1e-12
    validate_boundary(b.data, mesh)
    assert b.data.exact.energy == CORNER_ENERGY


def test_corner_solution_values():
    ex = corner().data.exact
    pts = np.array([[0.1, 0.1], [-0.3, 0.2], [-0.1, -0.2], [0.5, 0.5]])
    vals = ex.u(pts)
    expected = [corner_u(x, y) for x, y in pts]
    assert np.allclose(vals, expected, atol=1e-14)
    assert np.all(vals[:3] > 0.0)


def test_corner_solution_vanishes_on_boundary_and_contact():
    ex = corner().data.exact
    # the two legs of the re-entrant corner
    legs = np.array([[0.5, 0.0], [1.7, 0.0], [0.0, -0.5], [0.0, -1.9]])
    assert np.allclose(ex.u(legs), 0.0, atol=1e-14)
    # outer boundary (radius >= 3/4 kills the radial factor)
    outer = np.array([[2.0, 1.0], [-2.0, 0.3], [1.1, 2.0], [-0.7, -2.0]])
    assert np.allclose(ex.u(outer), 0.0, atol=1e-14)
    # contact: u == 0 for r >= 3/4
    assert np.allclose(ex.u(np.array([[-0.8, 0.0], [0.0, 0.9]])), 0.0)
    assert list(ex.contact(np.array([[-0.8, 0.0], [0.1, 0.1]]))) == [True, False]


def test_corner_solution_nonnegative_sampled():
    ex = corner().data.exact
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2, 2, size=(4000, 2))
    keep = ~((pts[:, 0] >= 0) & (pts[:, 1] <= 0))
    vals = ex.u(pts[keep])
    assert vals.min() >= -1e-15


def test_corner_gradient_matches_finite_differences():
    ex = corner().data.exact

    def u_scalar(x, y):
        return float(ex.u(np.array([[x, y]]))[0])

    for (x, y) in [(0.3, 0.25), (-0.35, 0.2), (-0.2, -0.3), (0.1, 0.05)]:
        g = ex.grad_u(np.array([[x, y]]))[0]
        assert np.allclose(g, fd_gradient(u_scalar, x, y), atol=1e-7)


def test_closed_forms_at_the_corner_and_the_band_edges_raise_no_warning():
    # r = 0 is the re-entrant corner; s = 0 and s = 1 (r = 0.25 and 0.75)
    # bound the cutoff band.  The values there are exact, +0 included.
    ex = corner().data.exact
    pts = np.array([[0.0, 0.0], [-0.0, 0.0], [0.25, 0.0], [0.0, 0.75],
                    [-0.75, 0.0], [0.0, -0.25]])
    s = np.array([0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grad = ex.grad_u(pts)
        load = corner().data.f(pts)
        step = benchmarks._step(s)
        d1, d2 = benchmarks._step_d1(s), benchmarks._step_d2(s)
        source = benchmarks._corner_source_radial(np.array([0.0, 0.25, 0.75]))
        ring_u, ring_grad = ring().data.exact.u(pts), ring().data.exact.grad_u(pts)
    assert np.all(grad[:2] == 0.0) and not np.signbit(grad[:2]).any()
    assert np.all(np.isfinite(grad)) and np.all(np.isfinite(load))
    assert step.tolist() == [1.0, 0.0]
    for zeros in (step[1:], d1, d2, source, ring_u):
        assert np.all(zeros == 0.0) and not np.signbit(zeros).any()
    assert np.all(ring_grad == 0.0)


def test_corner_load_consistent_with_pde():
    # lam = f + Delta(u): 0 off the contact region, -gamma2 on it.
    b = corner()
    ex = b.data.exact

    def u_scalar(x, y):
        return float(ex.u(np.array([[x, y]]))[0])

    for (x, y) in [(0.35, 0.3), (-0.3, 0.25), (0.1, 0.12), (-0.25, -0.35)]:
        lap = fd_laplacian(u_scalar, x, y, h=2e-5)
        f = float(b.data.f(np.array([[x, y]]))[0])
        lam = float(ex.lam(np.array([[x, y]]))[0])
        assert abs(f + lap - lam) < 2e-4
    # deep in the contact region u == 0 and f == -1, lam == -1
    deep = np.array([[-1.5, 0.4], [0.2, 1.4]])
    assert np.allclose(b.data.f(deep), -1.0)
    assert np.allclose(ex.lam(deep), -1.0)
    # between the support radius 3/4 and the multiplier onset 7/8: both zero
    mid = np.array([[-0.8, 0.0]])
    assert float(b.data.f(mid)[0]) == 0.0
    assert float(ex.lam(mid)[0]) == 0.0
    # multiplier is never positive
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, size=(500, 2))
    assert np.all(ex.lam(pts) <= 0.0)


# ----------------------------------------------------------------------
# pyramid benchmark
# ----------------------------------------------------------------------
def test_pyramid_definition_shape():
    b = pyramid()
    mesh = b.initial_mesh()
    assert mesh.n_elements == 128
    assert b.data.exact is None
    assert b.data.f == 1.0
    validate_boundary(b.data, mesh)


def test_pyramid_obstacle_is_boundary_distance():
    b = pyramid()
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 1, size=(200, 2))
    chi = b.data.chi(pts)
    # brute force distance to a dense boundary sampling
    t = np.linspace(-1, 1, 4001)
    edges = np.concatenate([
        np.column_stack([t, np.full_like(t, -1.0)]),
        np.column_stack([t, np.full_like(t, 1.0)]),
        np.column_stack([np.full_like(t, -1.0), t]),
        np.column_stack([np.full_like(t, 1.0), t])])
    d = np.sqrt(((pts[:, None, :] - edges[None, :, :]) ** 2).sum(-1)).min(axis=1)
    assert np.allclose(chi, d, atol=1e-3)
    # exact values at salient points
    assert float(b.data.chi(np.array([[0.0, 0.0]]))[0]) == 1.0
    assert float(b.data.chi(np.array([[1.0, 0.3]]))[0]) == 0.0
    assert float(b.data.chi(np.array([[0.5, -0.25]]))[0]) == 0.5


def test_pyramid_obstacle_gradient():
    b = pyramid()

    def chi_scalar(x, y):
        return float(b.data.chi(np.array([[x, y]]))[0])

    # generic points away from the ridge |x| == |y|
    for (x, y) in [(0.5, 0.1), (-0.6, 0.2), (0.1, 0.7), (0.2, -0.5)]:
        g = b.data.chi_grad(np.array([[x, y]]))[0]
        assert np.allclose(g, fd_gradient(chi_scalar, x, y), atol=1e-9)
        assert abs(np.linalg.norm(g) - 1.0) < 1e-12


def test_pyramid_mesh_aligned_with_obstacle_kinks():
    # every obstacle kink line (the diagonals and the axes) must be resolved
    # by the initial mesh: no element may straddle |x| == |y|
    mesh = pyramid().initial_mesh()
    corners = mesh.vertex_coords[mesh.elem_vertices]          # (nt, 3, 2)
    for sign in (1.0, -1.0):
        s = corners[:, :, 1] - sign * corners[:, :, 0]
        straddles = (s.max(axis=1) > 1e-12) & (s.min(axis=1) < -1e-12)
        assert not straddles.any()


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_get_benchmark_registry():
    for name in ("ring", "corner", "pyramid"):
        b = get_benchmark(name)
        assert b.name == name
    with pytest.raises(ValueError):
        get_benchmark("nope")
