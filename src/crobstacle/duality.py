"""Dual flux reconstruction and the primal/dual energy functionals.

From a converged constrained solve, a lowest-order normal-continuous flux
field is reconstructed elementwise as the broken gradient plus a radial
correction scaled by the residual load ``(multiplier - f_h)/2``; its
divergence reproduces ``multiplier - f_h`` and its element means reproduce
the broken gradient.  The discrete primal and dual energies computed from
such a pair coincide exactly (strong duality), providing a machine-precision
consistency check on any solve.

An infeasible input has the energy ``+inf`` (primal) or ``-inf`` (dual), so
the gap ``primal - dual`` is ``+inf`` whenever either side is infeasible.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .assembly import HIGH_ORDER_DEGREE, ProblemData
from .mesh import Mesh
from .spaces import (
    CrFunction,
    P0Function,
    P0VectorField,
    Rt0Function,
    element_points,
    integrate_elementwise,
    sample_data,
    segment_rule,
    shared_sample,
    side_points,
    triangle_rule,
)

__all__ = [
    "DualityError",
    "DualField",
    "marini_flux",
    "energy_primal_discrete",
    "energy_dual_discrete",
    "energy_primal_continuous",
    "energy_dual_continuous",
]


class DualityError(Exception):
    """Raised when a flux reconstruction is inconsistent (solver bug)."""


#: relative normal-flux jump across an interior side above which
#: :func:`marini_flux` rejects its input
_JUMP_TOL = 1e-10
#: relative slack of the obstacle constraint in :func:`energy_primal_discrete`
_FEASIBILITY_TOL = 1e-10
#: relative slack of the residual-load sign condition of the dual energies
_SIGN_TOL = 1e-12
#: Gauss points per side of the boundary pairing of :func:`energy_dual_continuous`
_BOUNDARY_POINTS = 8


# ----------------------------------------------------------------------
# flux reconstruction
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DualField:
    """Reconstructed flux with its divergence and element means.

    Invariants (up to roundoff): the element means equal the broken gradient
    of the generating solution, the divergence equals ``multiplier - f_h``,
    and normal components are single-valued across interior sides.
    """
    flux: Rt0Function
    divergence: P0Function
    cell_average: P0VectorField
    max_normal_jump: float

    @property
    def mesh(self) -> Mesh:
        return self.flux.mesh


def marini_flux(solution: CrFunction, multiplier: P0Function,
                f_h: P0Function) -> DualField:
    """Reconstruct the normal-continuous flux of a constrained solve.

    Per element the field is ``grad_h u + c_T (x - x_T)`` with
    ``c_T = (multiplier_T - f_T)/2`` and ``x_T`` the barycenter; its normal
    component is constant along each (straight) side, so evaluating at side
    midpoints yields the lowest-order flux coefficients.  For a pair coming
    from a converged solve the two elemental values on an interior side
    coincide; a jump beyond ``_JUMP_TOL`` (relative) indicates an
    inconsistent input and raises :class:`DualityError`.
    """
    mesh = solution.mesh
    grads = solution.gradient().values
    c = 0.5 * (multiplier.values - f_h.values)

    normals = mesh.side_normals
    mids = mesh.side_midpoints
    minus = mesh.side_elem_minus
    plus = mesh.side_elem_plus
    has_plus = plus >= 0

    def one_sided(elems):
        offset = mids - mesh.barycenters[elems]
        return (np.einsum("sd,sd->s", normals, grads[elems])
                + c[elems] * np.einsum("sd,sd->s", normals, offset))

    flux_minus = one_sided(minus)
    flux_plus = one_sided(np.where(has_plus, plus, minus))
    jumps = np.where(has_plus, np.abs(flux_minus - flux_plus), 0.0)
    scale = 1.0 + float(max(np.abs(flux_minus).max(initial=0.0),
                            np.abs(flux_plus).max(initial=0.0)))
    max_jump = float(jumps.max(initial=0.0))
    if max_jump > _JUMP_TOL * scale:
        worst = int(jumps.argmax())
        raise DualityError(
            f"normal-flux jump {max_jump:.3e} across side {worst} exceeds "
            f"{_JUMP_TOL:.1e} * {scale:.3e}; the (solution, multiplier, load) "
            "triple is not a stationary point")

    fluxes = np.where(has_plus, 0.5 * (flux_minus + flux_plus), flux_minus)
    flux = Rt0Function(mesh, fluxes)
    return DualField(flux=flux, divergence=flux.divergence(),
                     cell_average=flux.element_means(),
                     max_normal_jump=max_jump)


# ----------------------------------------------------------------------
# discrete energies
# ----------------------------------------------------------------------
def energy_primal_discrete(u: CrFunction, f_h: P0Function, chi_h: P0Function):
    """Broken Dirichlet energy ``1/2 ||grad_h u||^2 - (f_h, means(u))``.

    Inputs whose element means undercut the obstacle means (beyond a
    relative slack) are infeasible and map to ``+inf``.
    """
    mesh = u.mesh
    means = u.element_means()
    slack = _FEASIBILITY_TOL * (1.0 + float(np.abs(means).max(initial=0.0))
                                + float(np.abs(chi_h.values).max(initial=0.0)))
    if float((means - chi_h.values).min(initial=0.0)) < -slack:
        return math.inf
    grads = u.gradient().values
    return float(0.5 * (mesh.areas * (grads ** 2).sum(axis=1)).sum()
                 - (f_h.values * mesh.areas * means).sum())


def energy_dual_discrete(y: DualField, f_h: P0Function, chi_h: P0Function, *,
                         boundary_dof_values: np.ndarray):
    """Discrete dual energy of a field from :func:`marini_flux`.

    ``-1/2 ||means(y)||^2 - (div y + f_h, chi_h)`` plus, for inhomogeneous
    boundary values ``boundary_dof_values`` (one per side), the boundary
    pairing ``sum_S flux_S |S| g_S`` over constrained sides.  A positive
    residual load ``div y + f_h`` anywhere (beyond a slack) maps to ``-inf``.
    """
    flux, means = y.flux, y.cell_average.values
    mesh = flux.mesh
    residual_load = y.divergence.values + f_h.values
    slack = _SIGN_TOL * (1.0 + float(np.abs(f_h.values).max(initial=0.0)))
    if float(residual_load.max(initial=0.0)) > slack:
        return -math.inf
    value = float(-0.5 * (mesh.areas * (means ** 2).sum(axis=1)).sum()
                  - (residual_load * chi_h.values * mesh.areas).sum())
    g = np.asarray(boundary_dof_values, dtype=float)
    if np.any(g != 0.0):
        mask = mesh.dirichlet_side_mask
        value += float((flux.side_fluxes[mask] * mesh.side_lengths[mask]
                        * g[mask]).sum())
    return value


# ----------------------------------------------------------------------
# continuous energies
# ----------------------------------------------------------------------
def energy_primal_continuous(mesh: Mesh, data: ProblemData, values, grad_sq,
                             points: np.ndarray) -> float:
    """Dirichlet energy ``1/2 ||grad v||^2 - (f, v)`` by high-order quadrature.

    ``values`` and ``grad_sq`` ``(n_elements, nq)`` are ``v`` and
    ``|grad v|^2`` sampled at ``points``, the element points of
    ``triangle_rule(HIGH_ORDER_DEGREE)``; the points serve only to sample
    the load.  Feasibility of ``v`` is the caller's responsibility.
    """
    rule = triangle_rule(HIGH_ORDER_DEGREE)
    density = 0.5 * np.asarray(grad_sq, dtype=float)
    density -= (shared_sample(data.f, mesh, rule, points)
                * np.asarray(values, dtype=float))
    return float(integrate_elementwise(mesh, rule, density).sum())


def energy_dual_continuous(mesh: Mesh, data: ProblemData, field: DualField,
                           f_h: P0Function):
    """Continuous dual energy of a reconstructed flux.

    ``-1/2 ||y||^2`` is integrated exactly (the integrand is quadratic per
    element); the obstacle pairing ``-(div y + f, chi)`` uses the high-order
    rule with the continuous load; the sign indicator is evaluated with the
    projected load ``f_h`` (for non-constant loads the difference is an
    oscillation-order effect); inhomogeneous boundary values contribute
    ``sum_S flux_S int_S g``.  A positive residual load maps to ``-inf``.
    """
    residual_load = field.divergence.values + f_h.values
    slack = _SIGN_TOL * (1.0 + float(np.abs(f_h.values).max(initial=0.0)))
    if float(residual_load.max(initial=0.0)) > slack:
        return -math.inf

    exact2 = triangle_rule(2)
    y_vals = field.flux.eval_at(exact2.bary)
    norm_sq = float(integrate_elementwise(
        mesh, exact2, (y_vals ** 2).sum(axis=-1)).sum())

    rule = triangle_rule(HIGH_ORDER_DEGREE)
    pts = element_points(mesh, rule.bary)
    chi_vals = sample_data(data.chi, mesh, pts)
    f_vals = shared_sample(data.f, mesh, rule, pts)
    div_vals = field.divergence.values[:, None]
    pairing = float(integrate_elementwise(
        mesh, rule, (div_vals + f_vals) * chi_vals).sum())

    value = -0.5 * norm_sq - pairing
    mask = mesh.dirichlet_side_mask
    if mask.any():
        srule = segment_rule(_BOUNDARY_POINTS)
        g_vals = data.dirichlet_values_at(side_points(mesh, srule, mask))
        side_integrals = (g_vals @ srule.weights) * mesh.side_lengths[mask]
        value += float((field.flux.side_fluxes[mask] * side_integrals).sum())
    return value

