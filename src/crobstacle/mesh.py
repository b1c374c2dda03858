"""Conforming 2-D simplicial meshes with structured generation and refinement.

The mesh data structure is array-based and immutable after construction:

* ``vertex_coords`` -- ``(nv, 2)`` float array of vertex positions,
* ``elem_vertices`` -- ``(nt, 3)`` int array, counter-clockwise per element,
* ``elem_sides`` -- ``(nt, 3)`` int array; local side ``j`` is opposite
  local vertex ``j``,
* ``side_vertices`` -- ``(ns, 2)`` int array; the orientation is the one in
  which the side was first traversed (element-major, counter-clockwise),
* ``side_elem_minus`` / ``side_elem_plus`` -- adjacent elements; the "minus"
  element is the first registrant and the side normal points out of it;
  ``side_elem_plus`` is ``-1`` on the boundary.

Jumps across a side are evaluated as ``trace_plus - trace_minus``; on the
boundary the convention degenerates to ``-trace_minus``, i.e. the normal is
the outward normal of the domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
import json
import math

import numpy as np

__all__ = [
    "MeshError",
    "INTERIOR",
    "DIRICHLET",
    "NEUMANN",
    "Mesh",
    "Rectangle",
    "LShape",
    "build_structured",
    "refine_red",
    "refine_rgb",
    "PatchTable",
    "patches",
    "mesh_stats",
    "write_stats_json",
    "export_vtk",
    "export_vtk_point_cloud",
]

INTERIOR = "interior"
DIRICHLET = "dirichlet"
NEUMANN = "neumann"

_BOUNDARY_LABELS = (DIRICHLET, NEUMANN)


class MeshError(Exception):
    """Raised for invalid mesh input, broken conformity, or bad refinement marks."""


def _cross2(u, v):
    """z-component of the cross product of stacked 2-D vectors."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


class Mesh:
    """An immutable conforming triangulation.

    Parameters
    ----------
    vertex_coords:
        ``(nv, 2)`` array of vertex positions.
    elem_vertices:
        ``(nt, 3)`` array of vertex indices.  Elements with clockwise
        orientation are silently reordered; degenerate (zero-area) elements
        raise :class:`MeshError`.
    side_labeler:
        Optional callable ``(v0, v1, midpoint) -> str`` assigning a boundary
        label (``"dirichlet"`` or ``"neumann"``) to each boundary side; the
        arguments are the side's vertex indices and midpoint coordinates.
        Defaults to labelling every boundary side ``"dirichlet"``.
    parent / parent_elements:
        Refinement bookkeeping: the coarser mesh this one was refined from
        and, per element, the index of its parent element.
    """

    def __init__(self, vertex_coords, elem_vertices, side_labeler=None,
                 parent=None, parent_elements=None, refinement_kind=None):
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
        key = np.sort(oriented, axis=1)
        uniq, first_idx, inverse, counts = np.unique(
            key, axis=0, return_index=True, return_inverse=True, return_counts=True
        )
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

        # Boundary labels.
        labels = np.full(ns, INTERIOR, dtype="<U9")
        bnd = np.flatnonzero(self.boundary_mask)
        if side_labeler is None:
            labels[bnd] = DIRICHLET
        else:
            for s in bnd:
                lab = side_labeler(int(self.side_vertices[s, 0]),
                                   int(self.side_vertices[s, 1]),
                                   self.side_midpoints[s])
                if lab not in _BOUNDARY_LABELS:
                    raise MeshError(
                        f"side labeler returned {lab!r}; expected one of {_BOUNDARY_LABELS}")
                labels[s] = lab
        self.side_labels = labels

        # Barycentric gradients: grad lambda_j = perp(edge opposite vertex j) / (2|T|).
        e = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]
        perp = np.stack([-e[..., 1], e[..., 0]], axis=-1)
        self.bary_grads = perp / (2.0 * self.areas)[:, None, None]

        # Orientation signs: +1 where the element is the side's minus element.
        self.elem_side_orient = np.where(
            self.side_elem_minus[self.elem_sides] == np.arange(nt)[:, None], 1.0, -1.0)

        self.parent = parent
        self.parent_elements = (None if parent_elements is None
                                else np.asarray(parent_elements, dtype=np.int64))
        self.refinement_kind = refinement_kind
        self._vertex_elements = None

        for arr in (self.vertex_coords, self.elem_vertices, self.elem_sides,
                    self.side_vertices, self.side_elem_minus, self.side_elem_plus,
                    self.side_lengths, self.side_midpoints, self.side_normals,
                    self.areas, self.barycenters, self.h_elements, self.side_labels,
                    self.bary_grads, self.elem_side_orient, self.boundary_mask):
            arr.setflags(write=False)

    # ------------------------------------------------------------------
    # Derived queries
    # ------------------------------------------------------------------
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
    def dirichlet_side_mask(self) -> np.ndarray:
        return self.side_labels == DIRICHLET

    @property
    def neumann_side_mask(self) -> np.ndarray:
        return self.side_labels == NEUMANN

    def vertex_elements(self):
        """List (length nv) of arrays with the elements adjacent to each vertex."""
        if self._vertex_elements is None:
            flat_v = self.elem_vertices.ravel()
            flat_t = np.repeat(np.arange(self.n_elements), 3)
            order = np.argsort(flat_v, kind="stable")
            v_sorted = flat_v[order]
            t_sorted = flat_t[order]
            starts = np.searchsorted(v_sorted, np.arange(self.n_vertices + 1))
            out = [t_sorted[starts[v]:starts[v + 1]] for v in range(self.n_vertices)]
            self._vertex_elements = out
        return self._vertex_elements

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
        """Barycentric coordinates of ``points`` (n,2) w.r.t. elements ``elems`` (n,)."""
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

    def contains(self, pts, tol=0.0):
        pts = np.asarray(pts, dtype=float)
        return ((pts[..., 0] >= self.x0 - tol) & (pts[..., 0] <= self.x1 + tol)
                & (pts[..., 1] >= self.y0 - tol) & (pts[..., 1] <= self.y1 + tol))

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

    ``boundary_rule`` is an optional callable ``midpoint -> label`` used to
    label boundary sides (default: all ``"dirichlet"``).
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

    if boundary_rule is None:
        labeler = None
    else:
        def labeler(v0, v1, midpoint):
            return boundary_rule(midpoint)

    return Mesh(coords, tris, side_labeler=labeler)


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
        return marked.copy()
    mask = np.zeros(mesh.n_elements, dtype=bool)
    if marked.size:
        if marked.min() < 0 or marked.max() >= mesh.n_elements:
            raise MeshError("marked element index out of range")
        mask[marked.astype(np.int64)] = True
    return mask


def _inherited_labeler(mesh, new_vertex_side):
    """Boundary labeler for a refined mesh: children inherit the parent side label.

    ``new_vertex_side`` maps new vertex ids (>= parent nv) to the parent side
    they subdivide.  A child boundary side either joins two parent vertices
    (it *is* a parent side) or contains exactly one new midpoint vertex.
    """
    nv_old = mesh.n_vertices
    parent_pair_label = {}
    for s in np.flatnonzero(mesh.boundary_mask):
        v0, v1 = mesh.side_vertices[s]
        parent_pair_label[(min(v0, v1), max(v0, v1))] = mesh.side_labels[s]
    side_label = mesh.side_labels

    def labeler(v0, v1, midpoint):
        hi = max(v0, v1)
        if hi >= nv_old:
            return str(side_label[new_vertex_side[hi]])
        lab = parent_pair_label.get((min(v0, v1), hi))
        if lab is None:
            raise MeshError("refined boundary side does not match any parent side")
        return str(lab)

    return labeler


def refine_red(mesh, marked=None):
    """Red (regular) refinement: each marked element is split into 4 similar children.

    Every interior side must have both or neither of its adjacent elements
    marked, otherwise the result would contain hanging nodes and a
    :class:`MeshError` is raised (use :func:`refine_rgb` for local
    refinement).  An empty mark set returns the input mesh unchanged.
    """
    mask = _marked_mask(mesh, marked)
    if not mask.any():
        return mesh

    interior = mesh.interior_side_mask
    lhs = mask[mesh.side_elem_minus[interior]]
    rhs = mask[mesh.side_elem_plus[interior]]
    if np.any(lhs != rhs):
        raise MeshError(
            "red refinement marks must be closed: an interior side separates a "
            "marked from an unmarked element (use refine_rgb for local marks)")

    split_sides = np.zeros(mesh.n_sides, dtype=bool)
    split_sides[mesh.elem_sides[mask].ravel()] = True
    side_ids = np.flatnonzero(split_sides)
    nv_old = mesh.n_vertices
    new_vertex_of_side = np.full(mesh.n_sides, -1, dtype=np.int64)
    new_vertex_of_side[side_ids] = nv_old + np.arange(len(side_ids))
    coords = np.vstack([mesh.vertex_coords, mesh.side_midpoints[side_ids]])

    n_children = np.where(mask, 4, 1)
    offsets = np.concatenate([[0], np.cumsum(n_children)])
    nt_new = offsets[-1]
    tris = np.empty((nt_new, 3), dtype=np.int64)
    parent = np.empty(nt_new, dtype=np.int64)

    keep = np.flatnonzero(~mask)
    tris[offsets[keep]] = mesh.elem_vertices[keep]
    parent[offsets[keep]] = keep

    ref = np.flatnonzero(mask)
    v = mesh.elem_vertices[ref]
    m = new_vertex_of_side[mesh.elem_sides[ref]]
    base = offsets[ref]
    tris[base + 0] = np.stack([v[:, 0], m[:, 2], m[:, 1]], axis=1)
    tris[base + 1] = np.stack([v[:, 1], m[:, 0], m[:, 2]], axis=1)
    tris[base + 2] = np.stack([v[:, 2], m[:, 1], m[:, 0]], axis=1)
    tris[base + 3] = m
    parent[base + 0] = parent[base + 1] = parent[base + 2] = parent[base + 3] = ref

    new_vertex_side = {int(new_vertex_of_side[s]): int(s) for s in side_ids}
    return Mesh(coords, tris, side_labeler=_inherited_labeler(mesh, new_vertex_side),
                parent=mesh, parent_elements=parent, refinement_kind="red")


def _reference_sides(mesh):
    """Local index (per element) of the refinement-reference side.

    The reference side is the longest side; exact length ties are broken by
    the smallest global side index, which makes the choice deterministic.
    """
    lengths = mesh.side_lengths[mesh.elem_sides]
    max_len = lengths.max(axis=1, keepdims=True)
    candidate = np.where(lengths == max_len, mesh.elem_sides, np.iinfo(np.int64).max)
    return candidate.argmin(axis=1)


def refine_rgb(mesh, marked):
    """Red-green-blue refinement of the marked elements with conforming closure.

    Marked elements are refined red; the closure iteratively marks the
    reference (longest) side of any element that has a marked side, and the
    resulting side marks are realised by red (3 sides), blue (2) or green (1)
    subdivisions.  The output mesh is conforming by construction.  An empty
    mark set returns the input unchanged.
    """
    mask = _marked_mask(mesh, marked if marked is not None else [])
    if not mask.any():
        return mesh

    ref_local = _reference_sides(mesh)
    ref_side = mesh.elem_sides[np.arange(mesh.n_elements), ref_local]

    marked_sides = np.zeros(mesh.n_sides, dtype=bool)
    marked_sides[mesh.elem_sides[mask].ravel()] = True
    while True:
        has_any = marked_sides[mesh.elem_sides].any(axis=1)
        want = marked_sides.copy()
        want[ref_side[has_any]] = True
        if np.array_equal(want, marked_sides):
            break
        marked_sides = want

    side_ids = np.flatnonzero(marked_sides)
    nv_old = mesh.n_vertices
    new_vertex_of_side = np.full(mesh.n_sides, -1, dtype=np.int64)
    new_vertex_of_side[side_ids] = nv_old + np.arange(len(side_ids))
    coords = np.vstack([mesh.vertex_coords, mesh.side_midpoints[side_ids]])

    local_marks = marked_sides[mesh.elem_sides]
    n_marked = local_marks.sum(axis=1)
    # Any element with a marked side has its reference side marked (closure).
    n_children = np.choose(n_marked, [1, 2, 3, 4])
    offsets = np.concatenate([[0], np.cumsum(n_children)])
    nt_new = offsets[-1]
    tris = np.empty((nt_new, 3), dtype=np.int64)
    parent = np.empty(nt_new, dtype=np.int64)

    keep = np.flatnonzero(n_marked == 0)
    tris[offsets[keep]] = mesh.elem_vertices[keep]
    parent[offsets[keep]] = keep

    def local_vertices(elems, r):
        """(apex, A, B) with the reference side (A, B) opposite the apex."""
        ev = mesh.elem_vertices[elems]
        idx = np.arange(len(elems))
        apex = ev[idx, r]
        a = ev[idx, (r + 1) % 3]
        b = ev[idx, (r + 2) % 3]
        return apex, a, b

    # Green: only the reference side is marked -> bisect it.
    green = np.flatnonzero(n_marked == 1)
    if green.size:
        r = ref_local[green]
        apex, a, b = local_vertices(green, r)
        mid = new_vertex_of_side[ref_side[green]]
        base = offsets[green]
        tris[base + 0] = np.stack([apex, a, mid], axis=1)
        tris[base + 1] = np.stack([apex, mid, b], axis=1)
        parent[base + 0] = parent[base + 1] = green

    # Blue: the reference side and one other side are marked.
    blue = np.flatnonzero(n_marked == 2)
    if blue.size:
        r = ref_local[blue]
        apex, a, b = local_vertices(blue, r)
        mid = new_vertex_of_side[ref_side[blue]]
        idx = np.arange(len(blue))
        lm = local_marks[blue]
        other_next = lm[idx, (r + 1) % 3]          # side (B, apex) marked
        s_next = mesh.elem_sides[blue, (r + 1) % 3]
        s_prev = mesh.elem_sides[blue, (r + 2) % 3]
        q = np.where(other_next, new_vertex_of_side[s_next], new_vertex_of_side[s_prev])
        base = offsets[blue]
        # Side (apex, A) marked (local index r+2): split child (apex, A, mid).
        prev_rows = ~other_next
        tris[base + 0] = np.where(prev_rows[:, None],
                                  np.stack([apex, q, mid], axis=1),
                                  np.stack([apex, a, mid], axis=1))
        tris[base + 1] = np.where(prev_rows[:, None],
                                  np.stack([q, a, mid], axis=1),
                                  np.stack([mid, b, q], axis=1))
        tris[base + 2] = np.where(prev_rows[:, None],
                                  np.stack([apex, mid, b], axis=1),
                                  np.stack([mid, q, apex], axis=1))
        parent[base + 0] = parent[base + 1] = parent[base + 2] = blue

    red = np.flatnonzero(n_marked == 3)
    if red.size:
        v = mesh.elem_vertices[red]
        m = new_vertex_of_side[mesh.elem_sides[red]]
        base = offsets[red]
        tris[base + 0] = np.stack([v[:, 0], m[:, 2], m[:, 1]], axis=1)
        tris[base + 1] = np.stack([v[:, 1], m[:, 0], m[:, 2]], axis=1)
        tris[base + 2] = np.stack([v[:, 2], m[:, 1], m[:, 0]], axis=1)
        tris[base + 3] = m
        parent[base + 0] = parent[base + 1] = parent[base + 2] = parent[base + 3] = red

    new_vertex_side = {int(new_vertex_of_side[s]): int(s) for s in side_ids}
    return Mesh(coords, tris, side_labeler=_inherited_labeler(mesh, new_vertex_side),
                parent=mesh, parent_elements=parent, refinement_kind="rgb")


# ----------------------------------------------------------------------
# Patches and statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PatchTable:
    """Vertex-connectivity element patches and side patches."""
    element_patches: list
    side_patches: list


def patches(mesh) -> PatchTable:
    """Element patches (all elements sharing a vertex) and side patches (adjacent elements)."""
    ve = mesh.vertex_elements()
    elem_patches = []
    for t in range(mesh.n_elements):
        neigh = np.unique(np.concatenate([ve[v] for v in mesh.elem_vertices[t]]))
        elem_patches.append(neigh)
    side_patches = []
    for s in range(mesh.n_sides):
        if mesh.boundary_mask[s]:
            side_patches.append(np.array([mesh.side_elem_minus[s]]))
        else:
            pair = np.sort(np.array([mesh.side_elem_minus[s], mesh.side_elem_plus[s]]))
            side_patches.append(pair)
    return PatchTable(elem_patches, side_patches)


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


def write_stats_json(mesh, path):
    path = Path(path)
    path.write_text(json.dumps(mesh_stats(mesh), indent=2, sort_keys=True) + "\n")
    return path


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


def export_vtk(mesh, path, cell_data=None, point_data=None, title="crobstacle mesh"):
    """Write the mesh (plus optional per-element / per-vertex scalars) as legacy VTK."""
    lines = [
        "# vtk DataFile Version 2.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_vertices} double",
    ]
    lines.extend(f"{x:.16g} {y:.16g} 0.0" for x, y in mesh.vertex_coords)
    lines.append(f"CELLS {mesh.n_elements} {4 * mesh.n_elements}")
    lines.extend(f"3 {a} {b} {c}" for a, b, c in mesh.elem_vertices)
    lines.append(f"CELL_TYPES {mesh.n_elements}")
    lines.extend("5" for _ in range(mesh.n_elements))
    if cell_data:
        _write_scalar_blocks(lines, cell_data, mesh.n_elements, "CELL_DATA")
    if point_data:
        _write_scalar_blocks(lines, point_data, mesh.n_vertices, "POINT_DATA")
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path


def export_vtk_point_cloud(points, path, point_data=None, title="crobstacle point data"):
    """Write a point cloud (e.g. side midpoints with side-based values) as legacy VTK."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    lines = [
        "# vtk DataFile Version 2.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {n} double",
    ]
    lines.extend(f"{x:.16g} {y:.16g} 0.0" for x, y in points)
    lines.append(f"CELLS {n} {2 * n}")
    lines.extend(f"1 {i}" for i in range(n))
    lines.append(f"CELL_TYPES {n}")
    lines.extend("1" for _ in range(n))
    if point_data:
        _write_scalar_blocks(lines, point_data, n, "POINT_DATA")
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path
