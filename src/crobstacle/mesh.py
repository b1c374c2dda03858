"""Conforming 2-D simplicial meshes with structured generation and refinement.

The mesh data structure is array-based, its arrays read-only after construction:

* ``vertex_coords`` -- ``(nv, 2)`` float array of vertex positions,
* ``elem_vertices`` -- ``(nt, 3)`` int array, counter-clockwise per element,
* ``elem_sides`` -- ``(nt, 3)`` int array; local side ``j`` is opposite
  local vertex ``j``,
* ``side_vertices`` -- ``(ns, 2)`` int array; the orientation is the one in
  which the side was first traversed (element-major, counter-clockwise),
* ``side_elem_minus`` / ``side_elem_plus`` -- adjacent elements; the "minus"
  element is the first registrant and the side normal points out of it;
  ``side_elem_plus`` is ``-1`` on the boundary,
* ``dirichlet_side_mask`` -- ``(ns,)`` bool array, True on the Dirichlet sides,
* ``parent_elements`` / ``parent_codes`` -- on a refined mesh, each element's
  parent and the ``(nt, 3)`` int8 codes of its vertices in it, else ``None``.

Jumps across a side are evaluated as ``trace_plus - trace_minus``; on the
boundary the convention degenerates to ``-trace_minus``, i.e. the normal is
the outward normal of the domain.

:func:`nested_dissection` orders side unknowns for a sparse factorisation,
from a recursive bisection of the elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
import weakref

import numpy as np

__all__ = [
    "MeshError",
    "DIRICHLET",
    "NEUMANN",
    "Mesh",
    "Rectangle",
    "LShape",
    "build_structured",
    "refine_rgb",
    "nested_dissection",
    "mesh_stats",
    "export_vtk",
]

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

_BOUNDARY_LABELS = (DIRICHLET, NEUMANN)


class MeshError(Exception):
    """Raised for invalid mesh input, broken conformity, or bad refinement marks."""


def _cross2(u, v):
    """z-component of the cross product of stacked 2-D vectors."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


class Mesh:
    """A conforming triangulation with read-only arrays.

    Its geometry and topology arrays are read-only.  Its one mutable
    attribute is ``samples``, a list of ``(callable, barycentric points,
    read-only sample)`` entries that :func:`~crobstacle.spaces.shared_sample`
    keeps for this level; they die with the mesh.

    Parameters
    ----------
    vertex_coords:
        ``(nv, 2)`` array of vertex positions.
    elem_vertices:
        ``(nt, 3)`` array of vertex indices.  Clockwise elements are
        reordered (a refined mesh rejects them, see below); degenerate
        (zero-area) elements raise :class:`MeshError`.
    side_labeler:
        Optional callable ``(side_vertices, midpoints) -> labels`` assigning
        a boundary label (``"dirichlet"`` or ``"neumann"``) to every
        boundary side at once: it gets the ``(k, 2)`` vertex indices and the
        ``(k, 2)`` midpoints of the ``k`` boundary sides, in side order, and
        returns ``k`` labels, which become ``dirichlet_side_mask``.  Without
        a labeler or a parent, every boundary side is Dirichlet.
    parent / parent_elements / parent_codes:
        Refinement bookkeeping, given together: the coarser mesh, held
        weakly so that a level does not keep its ancestry alive; each
        element's parent element; and the int8 codes of its vertices in
        that parent (0-2 its vertices, 3 + j the midpoint of its side j,
        ``_CODE_BARY`` their barycentric coordinates).  Each boundary side
        inherits the mask of the parent side it lies on, so a refined mesh
        takes no labeler, and no clockwise element: its codes name its
        vertices in order.
    """

    def __init__(self, vertex_coords, elem_vertices, side_labeler=None,
                 parent=None, parent_elements=None, parent_codes=None):
        if parent is not None and (parent_elements is None or parent_codes is None):
            raise MeshError("a refined mesh needs parent_elements and parent_codes")
        if parent is not None and side_labeler is not None:
            raise MeshError("a refined mesh inherits its Dirichlet sides: no side_labeler")
        coords = np.ascontiguousarray(np.asarray(vertex_coords, dtype=float))
        tri = np.ascontiguousarray(np.asarray(elem_vertices, dtype=np.int64))
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise MeshError(f"vertex_coords must have shape (nv, 2), got {coords.shape}")
        if tri.ndim != 2 or tri.shape[1] != 3:
            raise MeshError(f"elem_vertices must have shape (nt, 3), got {tri.shape}")
        if tri.size and (tri.min() < 0 or tri.max() >= len(coords)):
            raise MeshError("element vertex index out of range")
        if len(tri) == 0:
            raise MeshError("mesh must contain at least one element")

        # Enforce counter-clockwise orientation.
        p = coords[tri]
        signed_twice = _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        flip = signed_twice < 0.0
        if np.any(flip):
            if parent is not None:
                raise MeshError(f"refined element {int(np.argmax(flip))} is clockwise")
            tri = tri.copy()
            tri[flip] = tri[flip][:, [0, 2, 1]]
            p = coords[tri]
            signed_twice = _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        if np.any(signed_twice <= 0.0):
            bad = int(np.argmax(signed_twice <= 0.0))
            raise MeshError(f"element {bad} is degenerate (zero area)")

        nt = len(tri)
        self.vertex_coords = coords
        self.elem_vertices = tri
        self.n_vertices = len(coords)
        self.n_elements = nt
        self.areas = 0.5 * signed_twice
        self.barycenters = p.mean(axis=1)

        # Side extraction.  Local side j of an element is the edge opposite
        # local vertex j, traversed in element (counter-clockwise) order.
        oriented = np.stack(
            [tri[:, [1, 2]], tri[:, [2, 0]], tri[:, [0, 1]]], axis=1
        ).reshape(-1, 2)
        # One int64 key per undirected side; its order is the lexicographic
        # order of the sorted vertex pairs.
        pair = np.sort(oriented, axis=1)
        uniq, first_idx, inverse, counts = np.unique(
            pair[:, 0] * len(coords) + pair[:, 1],
            return_index=True, return_inverse=True, return_counts=True)
        if np.any(counts > 2):
            raise MeshError("non-manifold mesh: a side is shared by more than two elements")
        ns = len(uniq)
        self.n_sides = ns
        self.side_vertices = np.ascontiguousarray(oriented[first_idx])
        self.elem_sides = np.ascontiguousarray(inverse.reshape(nt, 3))

        self.side_elem_minus = first_idx // 3
        t_plus = np.full(ns, -1, dtype=np.int64)
        is_second = np.ones(3 * nt, dtype=bool)
        is_second[first_idx] = False
        t_plus[inverse[is_second]] = np.repeat(np.arange(nt), 3)[is_second]
        self.side_elem_plus = t_plus
        self.boundary_mask = t_plus < 0

        a = coords[self.side_vertices[:, 0]]
        b = coords[self.side_vertices[:, 1]]
        d = b - a
        self.side_lengths = np.hypot(d[:, 0], d[:, 1])
        if np.any(self.side_lengths <= 0.0):
            raise MeshError("degenerate side of zero length")
        self.side_midpoints = 0.5 * (a + b)
        # Rotate the traversal direction by -90 degrees: for counter-clockwise
        # elements this is the outward normal of the "minus" element.
        self.side_normals = np.stack(
            [d[:, 1], -d[:, 0]], axis=1) / self.side_lengths[:, None]

        self.h_elements = self.side_lengths[self.elem_sides].max(axis=1)

        self._parent = None if parent is None else weakref.ref(parent)
        self.parent_elements = (None if parent_elements is None
                                else np.asarray(parent_elements, dtype=np.int64))
        self.parent_codes = (None if parent_codes is None
                             else np.asarray(parent_codes, dtype=np.int8))

        # Dirichlet sides.  The boundary side j of a child has the end codes
        # a, b of its vertices j + 1, j + 2: it lies on parent side m - 3 when
        # one end is a midpoint m, and on side 3 - a - b when neither is.
        bnd = self.boundary_mask
        dirichlet = bnd.copy()
        if parent is not None:
            t, j = np.divmod(first_idx[bnd], 3)
            ends = self.parent_codes[t[:, None], (j[:, None] + [1, 2]) % 3].astype(np.int64)
            top = ends.max(axis=1)
            k = np.where(top >= 3, top - 3, 3 - ends.sum(axis=1))
            dirichlet[bnd] = parent.dirichlet_side_mask[
                parent.elem_sides[self.parent_elements[t], k]]
        elif side_labeler is not None:
            given = np.asarray(side_labeler(self.side_vertices[bnd],
                                            self.side_midpoints[bnd]))
            if given.shape != (int(bnd.sum()),):
                raise MeshError(f"side labeler returned shape {given.shape}; "
                                f"expected ({int(bnd.sum())},)")
            unknown = given[~np.isin(given, _BOUNDARY_LABELS)]
            if unknown.size:
                raise MeshError(f"side labeler returned {unknown[0]!r}; "
                                f"expected one of {_BOUNDARY_LABELS}")
            dirichlet[bnd] = given == DIRICHLET
        self.dirichlet_side_mask = dirichlet

        # Barycentric gradients: grad lambda_j = perp(edge opposite vertex j) / (2|T|).
        e = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]
        perp = np.stack([-e[..., 1], e[..., 0]], axis=-1)
        self.bary_grads = perp / (2.0 * self.areas)[:, None, None]

        # Orientation signs: +1 where the element is the side's minus element.
        self.elem_side_orient = np.where(
            self.side_elem_minus[self.elem_sides] == np.arange(nt)[:, None], 1.0, -1.0)

        self.samples = []

        for arr in (self.vertex_coords, self.elem_vertices, self.elem_sides,
                    self.side_vertices, self.side_elem_minus, self.side_elem_plus,
                    self.side_lengths, self.side_midpoints, self.side_normals,
                    self.areas, self.barycenters, self.h_elements, self.dirichlet_side_mask,
                    self.bary_grads, self.elem_side_orient, self.boundary_mask,
                    self.parent_elements, self.parent_codes):
            if arr is not None:
                arr.setflags(write=False)

    # ------------------------------------------------------------------
    # Derived queries
    # ------------------------------------------------------------------
    @property
    def parent(self):
        """The mesh this one was refined from, while it is alive; else ``None``."""
        return None if self._parent is None else self._parent()

    @property
    def h_max(self) -> float:
        return float(self.h_elements.max())

    @property
    def h_min(self) -> float:
        return float(self.h_elements.min())

    @property
    def interior_side_mask(self) -> np.ndarray:
        return ~self.boundary_mask

    @property
    def neumann_side_mask(self) -> np.ndarray:
        return self.boundary_mask & ~self.dirichlet_side_mask

    def dirichlet_vertex_mask(self) -> np.ndarray:
        """Vertices lying on a Dirichlet boundary side."""
        mask = np.zeros(self.n_vertices, dtype=bool)
        dir_sides = self.dirichlet_side_mask
        mask[self.side_vertices[dir_sides].ravel()] = True
        return mask

    def min_angles(self) -> np.ndarray:
        """Smallest interior angle of each element, in degrees."""
        p = self.vertex_coords[self.elem_vertices]
        angles = np.empty((self.n_elements, 3))
        for j in range(3):
            u = p[:, (j + 1) % 3] - p[:, j]
            v = p[:, (j + 2) % 3] - p[:, j]
            cosang = (u * v).sum(axis=1) / (np.hypot(u[:, 0], u[:, 1]) * np.hypot(v[:, 0], v[:, 1]))
            angles[:, j] = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
        return angles.min(axis=1)

    def shape_regularity(self) -> np.ndarray:
        """Per-element ratio diameter / inradius (lower is better; equilateral ~ 3.46)."""
        per = self.side_lengths[self.elem_sides].sum(axis=1)
        rho = 2.0 * self.areas / per
        return self.h_elements / rho

    def barycentric_coordinates(self, elems, points) -> np.ndarray:
        """Barycentric coordinates of ``points`` (n,2) w.r.t. elements ``elems`` (n,).

        No program code calls it; it is the tests' oracle for ``parent_codes``
        and the benchmark's tracer wraps it.
        """
        elems = np.asarray(elems, dtype=np.int64)
        points = np.asarray(points, dtype=float)
        # lambda_j is affine, vanishes on the side opposite vertex j, and its
        # gradient is known; anchor at the vertex (j+1) % 3 where it vanishes.
        anchors = self.vertex_coords[self.elem_vertices[elems][:, [1, 2, 0]]]
        diff = points[:, None, :] - anchors
        return (self.bary_grads[elems] * diff).sum(axis=2)

    def __repr__(self):
        return (f"Mesh(nv={self.n_vertices}, nt={self.n_elements}, "
                f"ns={self.n_sides}, h_max={self.h_max:.4g})")


# ----------------------------------------------------------------------
# Structured generation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle ``[x0, x1] x [y0, y1]``."""
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise MeshError(f"degenerate rectangle {self}")

    @property
    def corners(self):
        return ((self.x0, self.y0), (self.x1, self.y0),
                (self.x1, self.y1), (self.x0, self.y1))

    def distance_to_boundary(self, pts):
        """Distance from interior points to the rectangle boundary."""
        pts = np.asarray(pts, dtype=float)
        return np.minimum(
            np.minimum(pts[..., 0] - self.x0, self.x1 - pts[..., 0]),
            np.minimum(pts[..., 1] - self.y0, self.y1 - pts[..., 1]))


@dataclass(frozen=True)
class LShape:
    """An axis-aligned rectangle with one corner-aligned rectangular cut removed."""
    bounds: Rectangle
    cut: Rectangle

    def __post_init__(self):
        b, c = self.bounds, self.cut
        inside = (b.x0 <= c.x0 < c.x1 <= b.x1) and (b.y0 <= c.y0 < c.y1 <= b.y1)
        if not inside:
            raise MeshError("cut rectangle must lie inside the bounds")
        shared = sum(1 for corner in c.corners if corner in set(b.corners))
        if shared != 1:
            raise MeshError("cut rectangle must share exactly one corner with the bounds")
        if (c.x1 - c.x0) >= (b.x1 - b.x0) or (c.y1 - c.y0) >= (b.y1 - b.y0):
            raise MeshError("cut rectangle must be strictly smaller than the bounds")


def _on_grid(value, start, step, n):
    """Is value on the grid start + k*step (0 <= k <= n)?"""
    k = (value - start) / step
    return abs(k - round(k)) < 1e-12 and -1e-12 <= k <= n + 1e-12


def build_structured(domain, n, boundary_rule=None, pattern="alternating"):
    """Triangulate a :class:`Rectangle` or :class:`LShape` with ``2*n*n`` cells.

    The bounding box is split into ``n x n`` rectangular cells; each cell is
    split into two triangles along one of its diagonals.  With
    ``pattern="alternating"`` the diagonal direction alternates in a
    checkerboard fashion (cells with even ``i + j`` use the bottom-left to
    top-right diagonal), which keeps cell diagonals aligned with the square's
    main diagonals; with ``pattern="uniform"`` every cell uses the
    bottom-left to top-right diagonal.  For an :class:`LShape`, cells whose
    centre lies in the cut are removed; the cut edges must then lie on grid
    lines.

    ``boundary_rule`` is an optional side labeler, a callable
    ``(side_vertices, midpoints) -> labels`` as :class:`Mesh` takes it
    (default: all ``"dirichlet"``).
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise MeshError(f"n must be a positive integer, got {n!r}")
    if pattern not in ("alternating", "uniform"):
        raise MeshError(f"unknown diagonal pattern {pattern!r}")
    if isinstance(domain, Rectangle):
        bounds, cut = domain, None
    elif isinstance(domain, LShape):
        bounds, cut = domain.bounds, domain.cut
    else:
        raise MeshError(f"unsupported domain {domain!r}")

    dx = (bounds.x1 - bounds.x0) / n
    dy = (bounds.y1 - bounds.y0) / n
    if cut is not None:
        for v, start, step in ((cut.x0, bounds.x0, dx), (cut.x1, bounds.x0, dx)):
            if not _on_grid(v, start, step, n):
                raise MeshError("cut x-boundaries must lie on grid lines")
        for v, start, step in ((cut.y0, bounds.y0, dy), (cut.y1, bounds.y0, dy)):
            if not _on_grid(v, start, step, n):
                raise MeshError("cut y-boundaries must lie on grid lines")

    xs = bounds.x0 + dx * np.arange(n + 1)
    ys = bounds.y0 + dy * np.arange(n + 1)
    xs[-1] = bounds.x1
    ys[-1] = bounds.y1
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    coords = np.stack([gx.ravel(), gy.ravel()], axis=1)  # id = j*(n+1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            cx = bounds.x0 + (i + 0.5) * dx
            cy = bounds.y0 + (j + 0.5) * dy
            if cut is not None and (cut.x0 < cx < cut.x1) and (cut.y0 < cy < cut.y1):
                continue
            p00 = j * (n + 1) + i
            p10 = j * (n + 1) + i + 1
            p01 = (j + 1) * (n + 1) + i
            p11 = (j + 1) * (n + 1) + i + 1
            if pattern == "uniform" or (i + j) % 2 == 0:
                tris.append((p00, p10, p11))
                tris.append((p00, p11, p01))
            else:
                tris.append((p00, p10, p01))
                tris.append((p10, p11, p01))
    tris = np.asarray(tris, dtype=np.int64)
    if len(tris) == 0:
        raise MeshError("domain triangulation is empty")

    used = np.unique(tris.ravel())
    remap = np.full(len(coords), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    coords = coords[used]
    tris = remap[tris]

    return Mesh(coords, tris, side_labeler=boundary_rule)


# ----------------------------------------------------------------------
# Refinement
# ----------------------------------------------------------------------
def _marked_mask(mesh, marked):
    if marked is None:
        return np.ones(mesh.n_elements, dtype=bool)
    marked = np.asarray(marked)
    if marked.dtype == bool:
        if marked.shape != (mesh.n_elements,):
            raise MeshError("boolean mark array has wrong length")
        return marked
    if marked.size and not np.issubdtype(marked.dtype, np.integer):
        raise MeshError(f"marks must be element ids or a boolean mask, got {marked.dtype}")
    if marked.size and (marked.min() < 0 or marked.max() >= mesh.n_elements):
        raise MeshError("marked element index out of range")
    mask = np.zeros(mesh.n_elements, dtype=bool)
    mask[marked.astype(np.int64)] = True
    return mask


def _reference_sides(mesh):
    """Local index (per element) of the refinement-reference side.

    The reference side is the longest side; exact length ties are broken by
    the smallest global side index, which makes the choice deterministic.
    """
    lengths = mesh.side_lengths[mesh.elem_sides]
    max_len = lengths.max(axis=1, keepdims=True)
    candidate = np.where(lengths == max_len, mesh.elem_sides, np.iinfo(np.int64).max)
    return candidate.argmin(axis=1)


#: barycentric coordinates of the child codes in their parent: codes 0-2 are
#: the parent's vertices, code 3 + j is the midpoint of its side j
_CODE_BARY = np.vstack([np.eye(3), 0.5 * (np.eye(3)[[1, 2, 0]] + np.eye(3)[[2, 0, 1]])])
_CODE_BARY.setflags(write=False)

#: the children of an element whose reference side is 0, in codes, by its
#: marked-side bits (bit j marks side j): keep, green, the two blues, red
_CHILDREN_OF_SIDE_0 = {
    0b000: ((0, 1, 2),),
    0b001: ((0, 1, 3), (0, 3, 2)),
    0b011: ((0, 1, 3), (3, 2, 4), (3, 4, 0)),
    0b101: ((0, 5, 3), (5, 1, 3), (0, 3, 2)),
    0b111: ((0, 5, 4), (1, 3, 5), (2, 4, 3), (3, 4, 5)),
}


def _child_code_table():
    """``(3, 8, 4, 3)`` child codes by (reference side r, marked-side bits).

    Green and blue turn the side-0 children by r; keep and red do not.  Rows
    past the last child, and bits the closure never leaves, hold -1.
    """
    table = np.full((3, 8, 4, 3), -1, dtype=np.int8)
    for r in range(3):
        turn = np.r_[np.arange(r, r + 3) % 3, 3 + np.arange(r, r + 3) % 3]
        for bits, children in _CHILDREN_OF_SIDE_0.items():
            if bits not in (0b000, 0b111):
                children = turn[np.array(children)]
            table[r, (bits << r | bits >> (3 - r)) & 0b111, :len(children)] = children
    table.setflags(write=False)
    return table


_CHILD_CODES = _child_code_table()


def refine_rgb(mesh, marked=None):
    """Red-green-blue refinement of the marked elements with conforming closure.

    Marked elements are refined red; the closure iteratively marks the
    reference (longest) side of any element that has a marked side, and the
    resulting side marks are realised by red (3 sides), blue (2) or green (1)
    subdivisions.  The output mesh is conforming by construction.
    ``marked`` holds element ids or is a boolean mask; ``None`` marks every
    element (uniform red refinement, each element split into 4 similar
    children), and an empty mark set returns the input unchanged.  One
    table, ``_CHILD_CODES``, gives every element's children in codes by its
    reference side and marked sides; the child mesh keeps them as
    ``parent_codes`` and inherits its Dirichlet sides through them.
    Children follow their parent's order.
    """
    mask = _marked_mask(mesh, marked)
    if not mask.any():
        return mesh

    ref_local = _reference_sides(mesh)
    ref_side = mesh.elem_sides[np.arange(mesh.n_elements), ref_local]

    marked_sides = np.zeros(mesh.n_sides, dtype=bool)
    marked_sides[mesh.elem_sides[mask]] = True
    while True:
        closing = ref_side[marked_sides[mesh.elem_sides].any(axis=1)]
        if marked_sides[closing].all():
            break
        marked_sides[closing] = True

    side_ids = np.flatnonzero(marked_sides)
    new_vertex_of_side = np.full(mesh.n_sides, -1, dtype=np.int64)
    new_vertex_of_side[side_ids] = mesh.n_vertices + np.arange(len(side_ids))
    coords = np.vstack([mesh.vertex_coords, mesh.side_midpoints[side_ids]])

    # four child slots per element by its reference side and marked-side
    # bits; a child's codes index its parent's vertices and new midpoints
    bits = marked_sides[mesh.elem_sides] @ np.array([1, 2, 4])
    slots = _CHILD_CODES[ref_local, bits].reshape(-1, 3)
    children = np.flatnonzero(slots[:, 0] >= 0)
    parent, codes = children // 4, slots[children]
    corners = np.hstack([mesh.elem_vertices, new_vertex_of_side[mesh.elem_sides]])
    return Mesh(coords, corners[parent[:, None], codes], parent=mesh,
                parent_elements=parent, parent_codes=codes)


# ----------------------------------------------------------------------
# Nested dissection
# ----------------------------------------------------------------------
#: a part of at most this many elements is a leaf of the bisection
_LEAF_ELEMENTS = 8


def _bisection_labels(mesh):
    """Recursive bisection of the elements; returns ``(labels, depth)``.

    Each part is cut across the longer extent of its barycenters.  The cut
    is the position, in coordinate order, crossed by the fewest interior
    sides of the part, chosen among the middle 30% of its elements (the one
    nearest the middle on a tie, the lower of two).  Parts of at most
    ``_LEAF_ELEMENTS`` elements are leaves.  Every level cuts all parts at
    once: each part is a run of one ordering of the elements by x and of
    one by y, and a cut splits the run it was chosen in and partitions the
    other run stably.  Bit ``depth - 1 - k`` of ``labels[t]`` says whether
    element ``t`` went to the second half at level ``k`` (0 below a leaf),
    so the labels of two elements share as many leading bits as the levels
    at which they shared a part.
    """
    nt = mesh.n_elements
    centers = mesh.barycenters
    by_x, by_y = (np.argsort(centers[:, axis], kind="stable") for axis in (0, 1))
    bounds = np.array([0, nt])
    labels = np.zeros(nt, dtype=np.int64)
    interior = mesh.side_elem_plus >= 0
    left, right = mesh.side_elem_minus[interior], mesh.side_elem_plus[interior].copy()
    positions = np.arange(nt)
    rank = np.empty(nt, dtype=np.intp)
    depth = 0
    while True:
        start, stop = bounds[:-1], bounds[1:]
        sizes = stop - start
        split = np.flatnonzero(sizes > _LEAF_ELEMENTS)
        if split.size == 0:
            return labels, depth
        along_y = np.repeat(centers[by_y[stop - 1], 1] - centers[by_y[start], 1]
                            > centers[by_x[stop - 1], 0] - centers[by_x[start], 0], sizes)
        order = np.where(along_y, by_y, by_x)
        other = np.where(along_y, by_x, by_y)
        rank[order] = positions
        # crossing[k - 1] counts the interior sides of a part that cross a
        # cut before position k: first < k <= last
        at_left, at_right = rank[left], rank[right]
        first = np.minimum(at_left, at_right)
        last = np.maximum(at_left, at_right)
        crossing = np.cumsum(np.bincount(first, minlength=nt)
                             - np.bincount(last, minlength=nt))
        # candidate cuts: positions 0.35 n to 0.65 n of each part to split
        n = sizes[split]
        low = start[split] + -(-7 * n // 20)
        count = start[split] + 13 * n // 20 - low + 1
        offset = np.cumsum(count) - count
        cand = np.arange(count.sum()) - np.repeat(offset - low, count)
        # fewest crossings, then nearest the middle, then the lower
        middle = np.repeat(2 * start[split] + n, count)
        key = (crossing[cand - 1] * (4 * nt + 2) + 2 * np.abs(2 * cand - middle)
               + (2 * cand > middle))
        cut = stop.copy()
        cut[split] = cand[key == np.repeat(np.minimum.reduceat(key, offset), count)]
        cut_at = np.repeat(cut, sizes)
        upper_at = positions >= cut_at
        upper = upper_at[rank]
        labels <<= 1
        labels |= upper
        depth += 1
        # the cut splits the run it was chosen in; the other run keeps its
        # order within each half: its lower elements, part by part, fill
        # the positions before the cuts
        up = upper[other]
        parted = np.empty_like(other)
        parted[~upper_at] = other[~up]
        parted[upper_at] = other[up]
        by_x = np.where(along_y, parted, order)
        by_y = np.where(along_y, order, parted)
        bounds = np.sort(np.concatenate([bounds, cut[split]]))
        # a side between the halves leaves the crossing counts: it now
        # joins its left element to itself
        cross = np.flatnonzero(upper[left] != upper[right])
        right[cross] = left[cross]


def nested_dissection(mesh, sides):
    """Nested-dissection elimination order of the side unknowns ``sides``.

    Returns the permutation ``order`` of ``range(len(sides))`` that lists,
    for every part of :func:`_bisection_labels`'s tree in post-order, the
    sides it owns: a leaf owns the sides of its elements that no other part
    shares (its boundary sides among them), and an inner part owns the
    interior sides between its two halves.  A Crouzeix-Raviart stiffness
    couples two sides only through a common element, so those sides
    separate the two halves exactly: no stiffness entry couples a side of
    one half with a side of the other, and each half comes before its
    separator.  Sides of one part keep their order in ``sides``.
    """
    labels, depth = _bisection_labels(mesh)
    sides = np.asarray(sides)
    one = mesh.side_elem_minus[sides]
    other = mesh.side_elem_plus[sides]
    first = labels[one]
    second = labels[np.where(other >= 0, other, one)]
    # bits below the common prefix: the owner is the part of label first >> below
    below = np.frexp((first ^ second).astype(float))[1].astype(np.int64)
    end = ((first >> below) + 1) << below
    return np.argsort(end * (depth + 1) + below, kind="stable")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def mesh_stats(mesh) -> dict:
    """Scalar summary of the mesh (counts, mesh sizes, quality measures)."""
    return {
        "n_vertices": int(mesh.n_vertices),
        "n_elements": int(mesh.n_elements),
        "n_sides": int(mesh.n_sides),
        "n_interior_sides": int(mesh.interior_side_mask.sum()),
        "n_dirichlet_sides": int(mesh.dirichlet_side_mask.sum()),
        "n_neumann_sides": int(mesh.neumann_side_mask.sum()),
        "area": float(mesh.areas.sum()),
        "h_max": mesh.h_max,
        "h_min": mesh.h_min,
        "min_angle_deg": float(mesh.min_angles().min()),
        "shape_regularity_max": float(mesh.shape_regularity().max()),
        "euler_characteristic": int(mesh.n_vertices - mesh.n_sides + mesh.n_elements),
    }


# ----------------------------------------------------------------------
# VTK export (legacy ASCII)
# ----------------------------------------------------------------------
def _write_scalar_blocks(lines, data, n, kind):
    first = True
    for name, values in data.items():
        values = np.asarray(values, dtype=float).ravel()
        if len(values) != n:
            raise MeshError(f"{kind} array {name!r} has length {len(values)}, expected {n}")
        if first:
            lines.append(f"{kind} {n}")
            first = False
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(f"{v:.16g}" for v in values)


def export_vtk(mesh, path, cell_data, point_data):
    """Write the mesh and its per-element and per-vertex scalars as legacy VTK."""
    lines = [
        "# vtk DataFile Version 2.0",
        "crobstacle mesh",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_vertices} double",
    ]
    lines.extend(f"{x:.16g} {y:.16g} 0.0" for x, y in mesh.vertex_coords)
    lines.append(f"CELLS {mesh.n_elements} {4 * mesh.n_elements}")
    lines.extend(f"3 {a} {b} {c}" for a, b, c in mesh.elem_vertices)
    lines.append(f"CELL_TYPES {mesh.n_elements}")
    lines.extend("5" for _ in range(mesh.n_elements))
    _write_scalar_blocks(lines, cell_data, mesh.n_elements, "CELL_DATA")
    _write_scalar_blocks(lines, point_data, mesh.n_vertices, "POINT_DATA")
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path
