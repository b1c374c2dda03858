"""Discrete fields on triangulations and numerical quadrature.

Fields
------
* :class:`CrFunction` -- nonconforming piecewise affine functions with one
  degree of freedom per side (the value at the side midpoint); continuous at
  side midpoints only.
* :class:`P0Function` / :class:`P0VectorField` -- piecewise constants.
* :class:`Rt0Function` -- lowest-order conforming flux fields with one degree
  of freedom per side (the constant normal component on that side); the
  normal component is single-valued across sides.
* :class:`VertexFunction` -- conforming piecewise affine functions.

Interpolants
------------
* :func:`interp_cr` -- side-average interpolant (commutes with the broken
  gradient: the broken gradient of the interpolant is the element mean of the
  gradient).
* :func:`interp_rt` -- side-flux interpolant (commutes with the divergence).
* :func:`interp_av` -- vertex-averaging map from nonconforming to conforming
  piecewise affines; on Dirichlet vertices the boundary data is imposed.
* :func:`project_p0` -- element-mean projection.

Quadrature
----------
Quadrature is barycentric only: fields evaluate at the barycentric points of
a rule (``eval_at``), and :func:`element_points` builds the physical points
once per pass, only for :func:`sample_data` to evaluate problem data there;
:func:`side_points` does the same for segment rules on sides.
Nothing maps physical points back to barycentric coordinates except
prolongation, which locates fine side midpoints in coarse elements.

Data sampling
-------------
:func:`sample_data` is the one sampler of problem data at element points.  It
calls a data callable on blocks of a fixed number of elements and writes
each block into one preallocated array, so the callable's temporaries are
bounded by a block rather than by the mesh; the result is bitwise equal to
one call on all points.  :func:`shared_sample` puts a single slot in front of
it: the samples of the latest mesh and rule, reused by every caller on that
level (see its docstring for the lifetime).

All scalar callables used as data must accept ``(..., 2)`` coordinate arrays
and evaluate vectorised; vector callables return ``(..., 2)`` arrays.  Data
callables must be pointwise and pure: the value at a point depends on that
point only, never on the other points of the call or on earlier calls.  The
blocked sampler and the shared slot both rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import weakref

import numpy as np

from .mesh import Mesh

__all__ = [
    "SpaceError",
    "QuadratureRule",
    "SegmentRule",
    "triangle_rule",
    "segment_rule",
    "element_points",
    "side_points",
    "sample_data",
    "shared_sample",
    "integrate_elementwise",
    "P0Function",
    "P0VectorField",
    "CrFunction",
    "Rt0Function",
    "VertexFunction",
    "project_p0",
    "interp_cr",
    "interp_rt",
    "interp_av",
    "prolong_cr",
    "prolong_p0",
]


class SpaceError(Exception):
    """Raised for invalid field data or evaluation outside an element."""


# ----------------------------------------------------------------------
# Quadrature
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature on a triangle in barycentric coordinates.

    ``weights`` sum to one; the integral of ``f`` over an element ``T`` is
    ``|T| * sum_q w_q f(x_q)``.
    """
    name: str
    degree: int
    bary: np.ndarray      # (nq, 3)
    weights: np.ndarray   # (nq,)

    @property
    def n_points(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class SegmentRule:
    """Gauss quadrature on the unit interval, weights summing to one."""
    points: np.ndarray
    weights: np.ndarray


def _centroid_rule():
    return QuadratureRule("centroid", 1,
                          np.array([[1.0, 1.0, 1.0]]) / 3.0, np.array([1.0]))


def _midpoint_rule():
    bary = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    return QuadratureRule("side-midpoints", 2, bary, np.full(3, 1.0 / 3.0))


def _seven_point_rule():
    # Symmetric 7-point rule of polynomial degree 5.
    a1, w1 = 0.0597158717897698, 0.1323941527885062
    a2, w2 = 0.7974269853530873, 0.1259391805448271
    b1 = 0.4701420641051151
    b2 = 0.1012865073234563
    bary = np.array([
        [1 / 3, 1 / 3, 1 / 3],
        [a1, b1, b1], [b1, a1, b1], [b1, b1, a1],
        [a2, b2, b2], [b2, a2, b2], [b2, b2, a2],
    ])
    weights = np.array([9.0 / 40.0, w1, w1, w1, w2, w2, w2])
    return QuadratureRule("seven-point", 5, bary, weights)


def _collapsed_square_rule(degree: int):
    """Tensor Gauss rule mapped from the unit square to the triangle.

    The map ``(s, t) -> (s, t (1 - s))`` has Jacobian ``1 - s``; an ``m`` point
    Gauss rule per direction integrates triangle polynomials of total degree
    ``2 m - 2`` exactly (one order is spent on the Jacobian factor).
    """
    m = max(2, math.ceil((degree + 2) / 2))
    x, w = np.polynomial.legendre.leggauss(m)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    s, t = np.meshgrid(x, x, indexing="ij")
    ws, wt = np.meshgrid(w, w, indexing="ij")
    xx = s.ravel()
    yy = (t * (1.0 - s)).ravel()
    weights = (ws * wt * (1.0 - s)).ravel()
    bary = np.stack([1.0 - xx - yy, xx, yy], axis=1)
    # total weight is the reference-triangle area 1/2; normalise to 1
    return QuadratureRule(f"collapsed-gauss-{m}", 2 * m - 2, bary, 2.0 * weights)


def triangle_rule(degree: int, subdivisions: int = 0) -> QuadratureRule:
    """A triangle rule exact (at least) to the given polynomial degree.

    ``subdivisions > 0`` returns a composite rule on the 4**subdivisions
    similar subtriangles of the regular subdivision, useful for integrands
    with interior kinks.
    """
    if degree < 1:
        raise SpaceError(f"quadrature degree must be >= 1, got {degree}")
    if degree == 1:
        rule = _centroid_rule()
    elif degree == 2:
        rule = _midpoint_rule()
    elif degree <= 5:
        rule = _seven_point_rule()
    else:
        rule = _collapsed_square_rule(degree)
    for _ in range(int(subdivisions)):
        rule = _subdivide_rule(rule)
    return rule


def _subdivide_rule(rule: QuadratureRule) -> QuadratureRule:
    """Composite rule on the four children of the regular (red) subdivision."""
    b = rule.bary
    # children in barycentric coordinates of the parent:
    # corner children: lambda -> corner + 0.5 * (lambda shuffled), central child.
    maps = []
    eye = np.eye(3)
    mids = 0.5 * (eye[[1, 2, 0]] + eye[[2, 0, 1]])  # midpoints opposite each vertex
    for j in range(3):
        corners = np.stack([eye[j], mids[(j + 2) % 3], mids[(j + 1) % 3]])
        maps.append(corners)
    maps.append(mids)
    parts = [b @ corners for corners in maps]
    bary = np.vstack(parts)
    weights = np.concatenate([rule.weights / 4.0] * 4)
    return QuadratureRule(f"{rule.name}-x4", rule.degree, bary, weights)


def segment_rule(n: int) -> SegmentRule:
    """``n``-point Gauss rule on [0, 1] (degree ``2 n - 1``)."""
    if n < 1:
        raise SpaceError("segment rule needs at least one point")
    x, w = np.polynomial.legendre.leggauss(n)
    return SegmentRule(0.5 * (x + 1.0), 0.5 * w)


def _barycentric_combination(bary, corner_values) -> np.ndarray:
    """``sum_j bary[q, j] * corner_values[t, j, :]`` as a ``(t, q, d)`` array.

    Each coordinate is accumulated as outer products over ``j = 0, 1, 2`` in
    that order, which gives the same bits as
    ``np.einsum("qj,tjd->tqd", bary, corner_values)`` at a fraction of its
    cost (``np.matmul`` is faster still but rounds differently).
    """
    bary = np.asarray(bary, dtype=float)
    out = np.empty((corner_values.shape[2], len(corner_values), len(bary)))
    for d, acc in enumerate(out):
        np.multiply.outer(corner_values[:, 0, d], bary[:, 0], out=acc)
        acc += np.multiply.outer(corner_values[:, 1, d], bary[:, 1])
        acc += np.multiply.outer(corner_values[:, 2, d], bary[:, 2])
    return np.moveaxis(out, 0, -1)


def element_points(mesh: Mesh, bary: np.ndarray) -> np.ndarray:
    """Physical coordinates ``(n_elements, nq, 2)`` of barycentric points.

    The points are bitwise equal to ``np.einsum("qj,tjd->tqd", bary,
    corners)``: data sampled here must match data sampled at points built
    that way, with no tolerance (a 1-ulp shift can move an obstacle value
    across the post-processed field).  Each coordinate is stored
    contiguously, so ``points[..., 0]`` is a cheap strided view.
    """
    return _barycentric_combination(bary, mesh.vertex_coords[mesh.elem_vertices])


def side_points(mesh: Mesh, rule: SegmentRule, sides=None) -> np.ndarray:
    """Physical coordinates ``(n_sides, nq, 2)`` of a segment rule on sides.

    Side ``[a, b]`` (in its stored orientation) carries the points
    ``a + t (b - a)`` for the rule points ``t``; ``sides`` selects sides by
    index or mask (all sides by default).
    """
    sv = mesh.side_vertices if sides is None else mesh.side_vertices[sides]
    a = mesh.vertex_coords[sv[:, 0]]
    b = mesh.vertex_coords[sv[:, 1]]
    return a[:, None, :] + rule.points[None, :, None] * (b - a)[:, None, :]


def sample_data(value, mesh: Mesh, points: np.ndarray):
    """Problem data (load, obstacle, ...) at element points ``(n_elements, nq, 2)``.

    A scalar comes back as a float and a :class:`P0Function` on ``mesh`` as
    its ``(n_elements, 1)`` column; both broadcast against the points
    without being materialised.  A callable is evaluated at the points.
    """
    if np.isscalar(value):
        return float(value)
    if isinstance(value, P0Function):
        if value.mesh is not mesh:
            raise SpaceError("piecewise-constant data lives on a different mesh")
        return value.values[:, None]
    if not callable(value):
        raise SpaceError(f"cannot sample data of type {type(value).__name__}")
    return _sample_blocked(value, points)


#: elements per call of a data callable in :func:`sample_data`
_SAMPLE_BLOCK = 1024


def _sample_blocked(fn, points: np.ndarray) -> np.ndarray:
    """``np.asarray(fn(points), dtype=float)``, evaluated block by block.

    Blocks of :data:`_SAMPLE_BLOCK` elements are written into one array
    shaped by the first block.  A pointwise callable gives the same bits and
    shape as one call.  A first block that is not shaped point by point (a
    constant callable returns a scalar, say) falls back to one call.
    """
    n = len(points)
    if n <= _SAMPLE_BLOCK:
        return np.asarray(fn(points), dtype=float)
    first = np.asarray(fn(points[:_SAMPLE_BLOCK]), dtype=float)
    per_point = points.shape[1:-1]
    if first.shape[:len(per_point) + 1] != (_SAMPLE_BLOCK,) + per_point:
        return np.asarray(fn(points), dtype=float)
    out = np.empty((n,) + first.shape[1:])
    out[:_SAMPLE_BLOCK] = first
    del first
    for start in range(_SAMPLE_BLOCK, n, _SAMPLE_BLOCK):
        out[start:start + _SAMPLE_BLOCK] = fn(points[start:start + _SAMPLE_BLOCK])
    return out


@dataclass
class _LevelSamples:
    """The samples of :func:`shared_sample` on one mesh and rule."""
    mesh: object       # weak reference to the mesh (None: empty slot)
    rule: object
    samples: list      # (callable, read-only sample) pairs


_NO_SAMPLES = _LevelSamples(None, None, ())
_level_samples = _NO_SAMPLES


def _release(mesh_ref) -> None:
    """Empty the slot when its mesh is collected."""
    global _level_samples
    if _level_samples.mesh is mesh_ref:
        _level_samples = _NO_SAMPLES


def shared_sample(value, mesh: Mesh, rule: QuadratureRule, points: np.ndarray):
    """:func:`sample_data` at the element points of ``rule``, shared per level.

    ``points`` must be ``element_points(mesh, rule.bary)``.  A callable is
    sampled at most once per mesh and rule: a later call with the same
    callable object (compared with ``is``), the same mesh and a rule with
    the same barycentric points returns the same read-only array.  Scalars
    and piecewise constants go straight to :func:`sample_data`.

    The samples live in one module-level slot, since the diagnostics'
    signatures carry no per-level state to hang them on, and the mesh cannot
    carry them (an adaptive run keeps every level's mesh).  The slot holds a
    weak reference to its mesh, the rule and the samples, never the element
    points.
    Sampling on another mesh or rule replaces the whole slot, and the slot
    empties when its mesh is collected, so it holds at most one level's
    samples and nothing of an older mesh.
    """
    global _level_samples
    if not callable(value):
        return sample_data(value, mesh, points)
    slot = _level_samples
    if (slot.mesh is None or slot.mesh() is not mesh
            or not np.array_equal(slot.rule.bary, rule.bary)):
        slot = _LevelSamples(weakref.ref(mesh, _release), rule, [])
        _level_samples = slot
    for fn, values in slot.samples:
        if fn is value:
            return values
    # a read-only view: an array the callable returned stays writeable
    values = sample_data(value, mesh, points).view()
    values.flags.writeable = False
    slot.samples.append((value, values))
    return values


def integrate_elementwise(mesh: Mesh, rule: QuadratureRule,
                          values: np.ndarray) -> np.ndarray:
    """Per-element integrals of sampled values (n_elements, nq) -> (n_elements,).

    ``values`` may be anything that broadcasts to ``(n_elements, nq)``, such
    as a per-element column from :func:`sample_data`.
    """
    values = np.broadcast_to(values, (mesh.n_elements, rule.n_points))
    return mesh.areas * (values @ rule.weights)


# ----------------------------------------------------------------------
# Fields
# ----------------------------------------------------------------------
def _check_len(name, arr, n):
    if arr.shape != (n,):
        raise SpaceError(f"{name} must have shape ({n},), got {arr.shape}")


@dataclass(frozen=True)
class P0Function:
    """Piecewise constant scalar field (one value per element)."""
    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        _check_len("values", self.values, self.mesh.n_elements)

    def l2_norm(self) -> float:
        return float(np.sqrt((self.values ** 2 * self.mesh.areas).sum()))

    def integral(self) -> float:
        return float((self.values * self.mesh.areas).sum())


@dataclass(frozen=True)
class P0VectorField:
    """Piecewise constant vector field, e.g. a broken gradient."""
    mesh: Mesh
    values: np.ndarray  # (nt, 2)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (self.mesh.n_elements, 2):
            raise SpaceError(f"values must have shape (nt, 2), got {self.values.shape}")

    def l2_norm(self) -> float:
        return float(np.sqrt(((self.values ** 2).sum(axis=1) * self.mesh.areas).sum()))


@dataclass(frozen=True)
class CrFunction:
    """Nonconforming piecewise affine field with side-midpoint degrees of freedom."""
    mesh: Mesh
    dofs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dofs", np.asarray(self.dofs, dtype=float))
        _check_len("dofs", self.dofs, self.mesh.n_sides)

    def element_dofs(self) -> np.ndarray:
        return self.dofs[self.mesh.elem_sides]

    def element_means(self) -> np.ndarray:
        """Barycenter values = element means (the element-mean projection)."""
        return self.element_dofs().mean(axis=1)

    def eval_at(self, bary):
        # basis_j = 1 - 2 lambda_j at the side opposite vertex j
        basis = 1.0 - 2.0 * np.asarray(bary)          # (nq, 3)
        return self.element_dofs() @ basis.T

    def vertex_traces(self) -> np.ndarray:
        """(n_elements, 3) trace of the element-affine at each local vertex."""
        d = self.element_dofs()
        return d.sum(axis=1, keepdims=True) - 2.0 * d

    def gradient(self) -> P0VectorField:
        g = np.einsum("tj,tjd->td", self.element_dofs(), -2.0 * self.mesh.bary_grads)
        return P0VectorField(self.mesh, g)

    def l2_norm(self) -> float:
        # the squared field is quadratic; the side-midpoint rule is exact
        d2 = (self.element_dofs() ** 2).mean(axis=1)
        return float(np.sqrt((d2 * self.mesh.areas).sum()))


@dataclass(frozen=True)
class Rt0Function:
    """Lowest-order flux field; dof = constant normal component per side.

    The normal component is taken w.r.t. the side's global normal (outward
    from the "minus" element).
    """
    mesh: Mesh
    side_fluxes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "side_fluxes", np.asarray(self.side_fluxes, dtype=float))
        _check_len("side_fluxes", self.side_fluxes, self.mesh.n_sides)

    def eval_at(self, bary):
        # The field is sum_j c_j (x - P_j); with x - P_j = sum_k lambda_k
        # (P_k - P_j) it is sum_k lambda_k V_k, V_k = sum_j c_j (P_k - P_j).
        m = self.mesh
        es = m.elem_sides
        coef = (self.side_fluxes[es] * m.elem_side_orient * m.side_lengths[es]
                / (2.0 * m.areas[:, None]))
        corners = m.vertex_coords[m.elem_vertices]    # (n, 3, 2)
        vertex_values = sum(coef[:, j, None, None] * (corners - corners[:, j, None, :])
                            for j in range(3))
        return _barycentric_combination(bary, vertex_values)

    def divergence(self) -> P0Function:
        m = self.mesh
        div = (self.side_fluxes[m.elem_sides] * m.elem_side_orient
               * m.side_lengths[m.elem_sides]).sum(axis=1) / m.areas
        return P0Function(m, div)

    def element_means(self) -> P0VectorField:
        """Element means; the field is affine per element, so this is the barycenter value."""
        centroid = np.full((1, 3), 1.0 / 3.0)
        return P0VectorField(self.mesh, self.eval_at(centroid)[:, 0, :])


@dataclass(frozen=True)
class VertexFunction:
    """Conforming piecewise affine field with vertex degrees of freedom."""
    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        _check_len("values", self.values, self.mesh.n_vertices)

    def element_values(self) -> np.ndarray:
        return self.values[self.mesh.elem_vertices]

    def eval_at(self, bary):
        return self.element_values() @ np.asarray(bary).T

    def gradient(self) -> P0VectorField:
        g = np.einsum("tj,tjd->td", self.element_values(), self.mesh.bary_grads)
        return P0VectorField(self.mesh, g)


# ----------------------------------------------------------------------
# Interpolation and projection
# ----------------------------------------------------------------------
def project_p0(f, mesh: Mesh, rule: QuadratureRule) -> P0Function:
    """Element means of a scalar, a callable (by ``rule``) or a :class:`P0Function` load."""
    if isinstance(f, P0Function):
        return f
    if np.isscalar(f):
        return P0Function(mesh, np.full(mesh.n_elements, float(f)))
    vals = sample_data(f, mesh, element_points(mesh, rule.bary))
    return P0Function(mesh, vals @ rule.weights)


def interp_cr(f, mesh: Mesh, rule: SegmentRule | None = None) -> CrFunction:
    """Side-average interpolant of a callable (or constant) into the CR space."""
    if np.isscalar(f):
        return CrFunction(mesh, np.full(mesh.n_sides, float(f)))
    rule = rule or segment_rule(2)
    vals = f(side_points(mesh, rule))
    return CrFunction(mesh, np.asarray(vals) @ rule.weights)


def interp_rt(y, mesh: Mesh, rule: SegmentRule) -> Rt0Function:
    """Side-flux interpolant of a vector callable into the lowest-order flux space."""
    vals = np.asarray(y(side_points(mesh, rule)))   # (ns, nq, 2)
    normal_comp = np.einsum("sqd,sd->sq", vals, mesh.side_normals)
    return Rt0Function(mesh, normal_comp @ rule.weights)


def interp_av(v: CrFunction, boundary_values) -> VertexFunction:
    """Vertex-averaging map into the conforming space.

    Each vertex value is the arithmetic mean of the traces of the element
    affines meeting at that vertex; vertices on Dirichlet sides are assigned
    ``boundary_values(coords)``, the boundary data at their ``(k, 2)``
    coordinates (``ProblemData.dirichlet_values_at``).
    """
    mesh = v.mesh
    traces = v.vertex_traces()
    sums = np.zeros(mesh.n_vertices)
    np.add.at(sums, mesh.elem_vertices.ravel(), traces.ravel())
    counts = np.bincount(mesh.elem_vertices.ravel(), minlength=mesh.n_vertices)
    values = sums / np.maximum(counts, 1)

    dmask = mesh.dirichlet_vertex_mask()
    values[dmask] = boundary_values(mesh.vertex_coords[dmask])
    return VertexFunction(mesh, values)


# ----------------------------------------------------------------------
# Prolongation to a refined mesh
# ----------------------------------------------------------------------
def _require_child(fine: Mesh, coarse: Mesh):
    if fine.parent is not coarse or fine.parent_elements is None:
        raise SpaceError("fine mesh is not a refinement of the coarse mesh")


def prolong_cr(v: CrFunction, fine: Mesh) -> CrFunction:
    """Transfer a CR field to a refinement of its mesh.

    Each fine side dof is the average, over the fine side's adjacent
    elements, of the parent element affine evaluated at the fine side
    midpoint.  (For sides interior to a parent element this is exact; across
    parent interfaces the two one-sided values are averaged.)
    """
    coarse = v.mesh
    _require_child(fine, coarse)
    mids = fine.side_midpoints

    def one_sided(elem_ids):
        valid = elem_ids >= 0
        parents = fine.parent_elements[np.where(valid, elem_ids, 0)]
        bary = coarse.barycentric_coordinates(parents, mids)
        vals = (v.dofs[coarse.elem_sides[parents]] * (1.0 - 2.0 * bary)).sum(axis=1)
        return np.where(valid, vals, 0.0), valid

    v_minus, _ = one_sided(fine.side_elem_minus)
    v_plus, has_plus = one_sided(fine.side_elem_plus)
    dofs = np.where(has_plus, 0.5 * (v_minus + v_plus), v_minus)
    return CrFunction(fine, dofs)


def prolong_p0(p: P0Function, fine: Mesh) -> P0Function:
    """Transfer a piecewise constant to a refinement (children inherit the value)."""
    _require_child(fine, p.mesh)
    return P0Function(fine, p.values[fine.parent_elements])

