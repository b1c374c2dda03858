"""Built-in obstacle-problem benchmarks.

Three classic configurations:

* ``ring``    -- flat obstacle on a square, constant negative load; the
  solution touches the obstacle on the unit disc and is known in closed
  (radial) form, so all errors and the exact energy are available.
* ``corner``  -- L-shaped domain with a re-entrant corner; the constructed
  solution has the characteristic ``r^(2/3)`` corner singularity, a radial
  cutoff, and a known annular contact region.
* ``pyramid`` -- square domain with the boundary-distance (pyramid) obstacle
  and unit load; no closed-form solution, so studies use extrapolated
  reference energies.

All callables are vectorised over point arrays of shape ``(..., 2)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import ExactSolution, ProblemData
from .mesh import LShape, Mesh, Rectangle, build_structured

__all__ = [
    "RING_ENERGY",
    "CORNER_ENERGY",
    "BenchmarkDefinition",
    "ring",
    "corner",
    "pyramid",
    "get_benchmark",
    "BENCHMARK_NAMES",
]

# Exact energies of the two closed-form benchmarks, from the 1-D radial
# reductions of the energy integrals (independently re-derived in the tests).
RING_ENERGY = 3.980995758125677
CORNER_ENERGY = -0.691484417381332


@dataclass(frozen=True)
class BenchmarkDefinition:
    """A benchmark: domain, coarsest structured mesh, and problem data."""
    name: str
    domain: object
    initial_divisions: int
    data: ProblemData
    description: str
    mesh_pattern: str = "alternating"

    def initial_mesh(self) -> Mesh:
        return build_structured(self.domain, self.initial_divisions,
                                pattern=self.mesh_pattern)


def _xy(points):
    pts = np.asarray(points, dtype=float)
    return pts[..., 0], pts[..., 1]


# Piecewise closed forms work on whole arrays: a branch either clamps its
# argument (the clamped value gives the other branch's +0 or 1 exactly) or is
# selected by ``np.where`` from a safe argument, so no point raises a warning.


# ----------------------------------------------------------------------
# ring: flat obstacle, constant load, radial solution
# ----------------------------------------------------------------------
def _ring_solution(points):
    x, y = _xy(points)
    r = np.maximum(np.hypot(x, y), 1.0)     # the disc r < 1 gives +0
    return 0.5 * r * r - np.log(r) - 0.5


def _ring_gradient(points):
    pts = np.asarray(points, dtype=float)
    r2 = np.maximum(pts[..., 0] ** 2 + pts[..., 1] ** 2, 1.0)
    return pts * (1.0 - 1.0 / r2)[..., None]


def _ring_multiplier(points):
    x, y = _xy(points)
    return np.where(np.hypot(x, y) < 1.0, -2.0, 0.0)


def _ring_contact(points):
    x, y = _xy(points)
    return np.hypot(x, y) <= 1.0


def ring() -> BenchmarkDefinition:
    exact = ExactSolution(u=_ring_solution, grad_u=_ring_gradient,
                          lam=_ring_multiplier, energy=RING_ENERGY,
                          contact=_ring_contact)
    data = ProblemData(name="ring", f=-2.0, chi=0.0,
                       dirichlet_data=_ring_solution, exact=exact)
    return BenchmarkDefinition(
        name="ring",
        domain=Rectangle(-1.5, -1.5, 1.5, 1.5),
        initial_divisions=2,
        data=data,
        description="flat obstacle with circular contact zone and known "
                    "radial solution; inhomogeneous boundary values",
        # The uniform diagonal avoids a symmetry artefact of the alternating
        # pattern on this radially symmetric problem: the fully symmetric
        # coarse meshes otherwise collapse the discrete contact zone onto the
        # centre cells, which stalls the multiplier pairing errors.
        mesh_pattern="uniform")


# ----------------------------------------------------------------------
# corner: re-entrant corner singularity with radial cutoff
# ----------------------------------------------------------------------
def _step(s):
    """C^2 quintic step: 1 for s <= 0, 0 for s >= 1, monotone in between."""
    s = np.clip(s, 0.0, 1.0)
    return 1.0 + s ** 3 * (-10.0 + s * (15.0 - 6.0 * s))


def _band(s):
    return (s > 0.0) & (s < 1.0)


def _step_d1(s):
    return np.where(_band(s), -30.0 * s * s * (s - 1.0) ** 2, 0.0)


def _step_d2(s):
    return np.where(_band(s), -60.0 * s * (2.0 * s - 1.0) * (s - 1.0), 0.0)


def _corner_polar(points):
    x, y = _xy(points)
    r = np.hypot(x, y)
    phi = np.arctan2(y, x)
    phi = np.where(phi < 0.0, phi + 2.0 * np.pi, phi)
    return r, phi


_CUTOFF_SCALE = 2.0
_CUTOFF_SHIFT = 0.25


def _cutoff_arg(r):
    return _CUTOFF_SCALE * (np.asarray(r, dtype=float) - _CUTOFF_SHIFT)


def _corner_radial(r):
    return np.cbrt(r) ** 2 * _step(_cutoff_arg(r))


def _corner_solution(points):
    r, phi = _corner_polar(points)
    return _corner_radial(r) * np.sin(2.0 * phi / 3.0)


def _corner_source_radial(r):
    """Radial factor of the load where the cutoff is active; zero elsewhere."""
    s = _cutoff_arg(r)
    cbrt = np.cbrt(np.maximum(r, _CUTOFF_SHIFT))   # r in the band exceeds the shift
    d1 = _CUTOFF_SCALE * _step_d1(s)
    d2 = _CUTOFF_SCALE ** 2 * _step_d2(s)
    return np.where(_band(s), -(cbrt ** 2 * d2 + (7.0 / 3.0) * d1 / cbrt), 0.0)


def _corner_contact_weight(r):
    """Indicator of the region carrying the nonzero multiplier."""
    return np.where(_cutoff_arg(r) > 1.25, 1.0, 0.0)


def _corner_load(points):
    r, phi = _corner_polar(points)
    return (_corner_source_radial(r) * np.sin(2.0 * phi / 3.0)
            - _corner_contact_weight(r))


def _corner_gradient(points):
    r, phi = _corner_polar(points)
    away = r > 0.0
    r = np.where(away, r, 1.0)          # the gradient at the corner is 0
    g = _step(_cutoff_arg(r))
    d1 = _CUTOFF_SCALE * _step_d1(_cutoff_arg(r))
    cbrt = np.cbrt(r)
    radial = cbrt ** 2 * g
    radial_d1 = (2.0 / 3.0) * g / cbrt + cbrt ** 2 * d1
    ang = 2.0 * phi / 3.0
    dr = radial_d1 * np.sin(ang)
    dphi = (2.0 / 3.0) * (radial / r) * np.cos(ang)
    cos, sin = np.cos(phi), np.sin(phi)
    grad = np.stack([dr * cos - dphi * sin, dr * sin + dphi * cos], axis=-1)
    return np.where(away[..., None], grad, 0.0)


def _corner_multiplier(points):
    r, _ = _corner_polar(points)
    return -_corner_contact_weight(r)


def _corner_contact(points):
    r, _ = _corner_polar(points)
    return r >= 0.75


def corner() -> BenchmarkDefinition:
    exact = ExactSolution(u=_corner_solution, grad_u=_corner_gradient,
                          lam=_corner_multiplier, energy=CORNER_ENERGY,
                          contact=_corner_contact)
    data = ProblemData(name="corner", f=_corner_load, chi=0.0, exact=exact)
    return BenchmarkDefinition(
        name="corner",
        domain=LShape(Rectangle(-2.0, -2.0, 2.0, 2.0),
                      Rectangle(0.0, -2.0, 2.0, 0.0)),
        initial_divisions=8,
        data=data,
        description="re-entrant corner with r^(2/3) singularity, radial "
                    "cutoff, and annular contact region")


# ----------------------------------------------------------------------
# pyramid: boundary-distance obstacle, unit load
# ----------------------------------------------------------------------
_PYRAMID_DOMAIN = Rectangle(-1.0, -1.0, 1.0, 1.0)


def _pyramid_obstacle(points):
    return _PYRAMID_DOMAIN.distance_to_boundary(points)


def _pyramid_obstacle_gradient(points):
    x, y = _xy(points)
    x_branch = np.abs(x) >= np.abs(y)
    gx = np.where(x_branch, -np.sign(x), 0.0)
    gy = np.where(x_branch, 0.0, -np.sign(y))
    return np.stack([gx, gy], axis=-1)


def pyramid() -> BenchmarkDefinition:
    data = ProblemData(name="pyramid", f=1.0, chi=_pyramid_obstacle,
                       chi_grad=_pyramid_obstacle_gradient)
    return BenchmarkDefinition(
        name="pyramid",
        domain=_PYRAMID_DOMAIN,
        initial_divisions=8,
        data=data,
        description="pyramid (boundary-distance) obstacle with unit load; "
                    "no closed-form solution")


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY = {"ring": ring, "corner": corner, "pyramid": pyramid}
BENCHMARK_NAMES = tuple(sorted(_REGISTRY))


def get_benchmark(name: str) -> BenchmarkDefinition:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; available: {', '.join(BENCHMARK_NAMES)}"
        ) from None
    return factory()
