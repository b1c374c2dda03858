"""Assembly of the discrete obstacle-problem building blocks.

The discrete complementarity system couples

* the broken stiffness matrix ``S`` of the CR space (Dirichlet dofs removed),
* the side-element coupling matrix ``P`` with entries ``|T| / 3`` for each
  free side of ``T`` (the element-mean pairing),
* the obstacle side values (the side-average interpolant of the obstacle)
  and their element means ``chi_h``,
* the element load values ``f_h`` (element-mean projection of ``f``).

Every element carries a multiplier, so each element needs a free side:
:func:`find_excluded_element` names the empty coupling columns.
"""

from __future__ import annotations

from dataclasses import dataclass
import numbers
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh
from .spaces import (
    P0Function,
    element_points,  # noqa: F401  (perfbench/tracing.py counts calls through it)
    interp_cr,
    project_p0,
    segment_rule,
    side_points,
    triangle_rule,
)

__all__ = [
    "AssemblyError",
    "DofMap",
    "build_dofmap",
    "ExactSolution",
    "ProblemData",
    "assemble_stiffness_full",
    "assemble_coupling",
    "find_excluded_element",
    "assemble_obstacle_vectors",
    "assemble_load",
    "dirichlet_dof_values",
]

DATA_PROJECTION_DEGREE = 5
HIGH_ORDER_DEGREE = 12
#: the rule of the estimator's and the diagnostics' high-order integrals
HIGH_ORDER_RULE = triangle_rule(HIGH_ORDER_DEGREE)
HIGH_ORDER_RULE.bary.setflags(write=False)
HIGH_ORDER_RULE.weights.setflags(write=False)


class AssemblyError(Exception):
    """Raised for invalid problem data or assembly preconditions."""


# ----------------------------------------------------------------------
# Dof bookkeeping
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DofMap:
    """Enumerations of the free side dofs and the multiplier elements.

    ``free_sides`` lists the non-Dirichlet sides in ascending order;
    ``elements`` lists the elements carrying a multiplier: all of them.
    """
    mesh: Mesh
    free_sides: np.ndarray
    side_to_free: np.ndarray
    elements: np.ndarray

    @property
    def n_free(self) -> int:
        return len(self.free_sides)

    @property
    def n_multipliers(self) -> int:
        return len(self.elements)


def build_dofmap(mesh: Mesh) -> DofMap:
    free = np.flatnonzero(~mesh.dirichlet_side_mask)
    side_to_free = np.full(mesh.n_sides, -1, dtype=np.int64)
    side_to_free[free] = np.arange(len(free))
    return DofMap(mesh, free, side_to_free, np.arange(mesh.n_elements))


# ----------------------------------------------------------------------
# Problem data
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExactSolution:
    """Reference solution data for benchmark error studies."""
    u: Callable
    grad_u: Callable
    lam: Optional[Callable]
    energy: Optional[float]
    contact: Optional[Callable]


@dataclass(frozen=True)
class ProblemData:
    """Data of one obstacle problem instance.

    The load ``f``, the obstacle ``chi`` and the boundary data
    ``dirichlet_data`` are each a real number or a vectorised callable on
    coordinate arrays; ``dirichlet_data`` may also be ``None``, the
    homogeneous problem.  Anything else (a string, an array, a field on one
    mesh such as a ``P0Function`` load or obstacle) raises
    :class:`AssemblyError`: every level samples the data at its own points.
    ``chi_grad`` (vector callable) is needed only by estimator routines when
    the obstacle is active and non-affine.
    """
    name: str
    f: object
    chi: object
    chi_grad: Optional[Callable] = None
    dirichlet_data: object = None
    exact: Optional[ExactSolution] = None

    def __post_init__(self):
        for field in ("f", "chi", "dirichlet_data"):
            value = getattr(self, field)
            if not (isinstance(value, numbers.Real) or callable(value)
                    or (field == "dirichlet_data" and value is None)):
                raise AssemblyError(
                    f"ProblemData.{field} must be a real scalar or a callable, "
                    f"got {type(value).__name__}")

    def chi_side_values(self, mesh: Mesh) -> np.ndarray:
        """Side-average interpolant values of the obstacle (one per side)."""
        return interp_cr(self.chi, mesh).dofs

    def dirichlet_values_at(self, points: np.ndarray) -> np.ndarray:
        """Boundary data at ``(..., 2)`` points: zero, a constant or the callable's values."""
        if self.dirichlet_data is None:
            return np.zeros(points.shape[:-1])
        if not callable(self.dirichlet_data):
            return np.full(points.shape[:-1], float(self.dirichlet_data))
        return np.asarray(self.dirichlet_data(points), dtype=float)

    def validate_on(self, mesh: Mesh, *, side_values, boundary_values):
        """Check that the obstacle stays within 1e-12 of the boundary data on Dirichlet sides.

        ``side_values`` are the obstacle's :meth:`chi_side_values` on ``mesh``
        and ``boundary_values`` the boundary data's side averages on the same
        rule (:func:`dirichlet_dof_values`), so an obstacle that equals the
        data on a side passes whatever its curvature.
        """
        dmask = mesh.dirichlet_side_mask
        if not dmask.any():
            return
        worst = float((side_values[dmask] - boundary_values[dmask]).max())
        if worst > 1e-12:
            raise AssemblyError(
                f"obstacle exceeds the Dirichlet data on the boundary by {worst:.3e}")


# ----------------------------------------------------------------------
# Matrices
# ----------------------------------------------------------------------
def assemble_stiffness_full(mesh: Mesh) -> sp.csr_array:
    """Broken-gradient stiffness over *all* side dofs (no boundary masking)."""
    # grad of the side basis opposite vertex j is -2 grad lambda_j (constant),
    # so the local matrix is 4 |T| (grad lambda_i . grad lambda_j): exact.
    g = mesh.bary_grads                                # (nt, 3, 2)
    local = 4.0 * mesh.areas[:, None, None] * np.einsum("tid,tjd->tij", g, g)
    rows = np.repeat(mesh.elem_sides, 3, axis=1).ravel()
    cols = np.tile(mesh.elem_sides, (1, 3)).ravel()
    return sp.coo_array((local.ravel(), (rows, cols)),
                        shape=(mesh.n_sides, mesh.n_sides)).tocsr()


def assemble_coupling(mesh: Mesh, dofmap: DofMap) -> sp.csr_array:
    """Coupling matrix: entry (side S, element T) = |T| / 3 for free S of T."""
    es = mesh.elem_sides                               # (nt, 3)
    free_row = dofmap.side_to_free[es]                 # -1 where constrained
    col = np.broadcast_to(dofmap.elements[:, None], es.shape)
    vals = np.broadcast_to((mesh.areas / 3.0)[:, None], es.shape)
    keep = free_row >= 0
    return sp.coo_array((vals[keep], (free_row[keep], col[keep])),
                        shape=(dofmap.n_free, dofmap.n_multipliers)).tocsr()


def find_excluded_element(P: sp.csr_array):
    """Element columns of the coupling matrix with empty support.

    Returns a list of column indices (ascending); empty when every element
    couples to at least one free side.  Only a triangle whose three sides
    are all Dirichlet sides has an empty column.  An explicitly stored zero
    does not count as support.
    """
    counts = np.bincount(P.indices[P.data != 0], minlength=P.shape[1])
    return [int(j) for j in np.flatnonzero(counts == 0)]


# ----------------------------------------------------------------------
# Vectors
# ----------------------------------------------------------------------
def assemble_obstacle_vectors(mesh: Mesh, data: ProblemData):
    """Side values of the interpolated obstacle and their element means.

    Returns ``(X, chi_h)`` where ``X[s]`` is the side-average interpolant of
    the obstacle on side ``s`` and ``chi_h`` is the piecewise constant of its
    element means (the discrete obstacle for the barycentric constraint).
    """
    X = data.chi_side_values(mesh)
    chi_h = P0Function(mesh, X[mesh.elem_sides].mean(axis=1))
    return X, chi_h


def assemble_load(mesh: Mesh, data: ProblemData) -> P0Function:
    """The projected load ``f_h``: element means of ``f`` by the degree-5 rule."""
    return project_p0(data.f, mesh, triangle_rule(DATA_PROJECTION_DEGREE))


def dirichlet_dof_values(mesh: Mesh, data: ProblemData) -> np.ndarray:
    """Full-length side vector: boundary-data side averages on Dirichlet sides, else 0.

    The 2-point Gauss weights are ½ and ½, so a constant keeps its bits.
    """
    values = np.zeros(mesh.n_sides)
    dmask = mesh.dirichlet_side_mask
    if not dmask.any():
        return values
    rule = segment_rule(2)
    sides = np.flatnonzero(dmask)
    values[sides] = (data.dirichlet_values_at(side_points(mesh, rule, sides))
                     @ rule.weights)
    return values
