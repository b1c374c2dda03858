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

from dataclasses import dataclass
from pathlib import Path
import weakref

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
    "refine_rgb",
    "mesh_stats",
    "export_vtk",
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
        Optional callable ``(side_vertices, midpoints) -> labels`` assigning
        a boundary label (``"dirichlet"`` or ``"neumann"``) to every
        boundary side at once: it gets the ``(k, 2)`` vertex indices and the
        ``(k, 2)`` midpoints of the ``k`` boundary sides, in side order, and
        returns ``k`` labels.  Defaults to labelling every boundary side
        ``"dirichlet"``.
    parent / parent_elements:
        Refinement bookkeeping: the coarser mesh this one was refined from
        and, per element, the index of its parent element.  The parent is
        held weakly, so a level does not keep its ancestry alive.
    """

    def __init__(self, vertex_coords, elem_vertices, side_labeler=None,
                 parent=None, parent_elements=None):
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

        # Boundary labels.
        labels = np.full(ns, INTERIOR, dtype="<U9")
        bnd = self.boundary_mask
        if side_labeler is None:
            labels[bnd] = DIRICHLET
        else:
            given = np.asarray(side_labeler(self.side_vertices[bnd],
                                            self.side_midpoints[bnd]))
            if given.shape != (int(bnd.sum()),):
                raise MeshError(f"side labeler returned shape {given.shape}; "
                                f"expected ({int(bnd.sum())},)")
            unknown = given[~np.isin(given, _BOUNDARY_LABELS)]
            if unknown.size:
                raise MeshError(f"side labeler returned {unknown[0]!r}; "
                                f"expected one of {_BOUNDARY_LABELS}")
            labels[bnd] = given
        self.side_labels = labels

        # Barycentric gradients: grad lambda_j = perp(edge opposite vertex j) / (2|T|).
        e = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]
        perp = np.stack([-e[..., 1], e[..., 0]], axis=-1)
        self.bary_grads = perp / (2.0 * self.areas)[:, None, None]

        # Orientation signs: +1 where the element is the side's minus element.
        self.elem_side_orient = np.where(
            self.side_elem_minus[self.elem_sides] == np.arange(nt)[:, None], 1.0, -1.0)

        self._parent = None if parent is None else weakref.ref(parent)
        self.parent_elements = (None if parent_elements is None
                                else np.asarray(parent_elements, dtype=np.int64))

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
    def dirichlet_side_mask(self) -> np.ndarray:
        return self.side_labels == DIRICHLET

    @property
    def neumann_side_mask(self) -> np.ndarray:
        return self.side_labels == NEUMANN

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
        return marked.copy()
    mask = np.zeros(mesh.n_elements, dtype=bool)
    if marked.size:
        if marked.min() < 0 or marked.max() >= mesh.n_elements:
            raise MeshError("marked element index out of range")
        mask[marked.astype(np.int64)] = True
    return mask


def _inherited_labeler(mesh, side_ids):
    """Boundary labeler for a refinement: children inherit the parent side label.

    ``side_ids`` are the parent sides that were split, in the order of their
    new midpoint vertices ``nv_old, nv_old + 1, ...``.  A child boundary side
    either contains exactly one new midpoint vertex (it is half of a split
    parent side) or joins two parent vertices (it *is* a parent side, found
    by its sorted vertex pair).
    """
    nv_old = mesh.n_vertices
    bnd = np.flatnonzero(mesh.boundary_mask)
    pair = np.sort(mesh.side_vertices[bnd], axis=1)
    key = pair[:, 0] * nv_old + pair[:, 1]
    order = np.argsort(key)
    parent_keys = key[order]
    parent_labels = mesh.side_labels[bnd[order]]

    def labeler(side_vertices, midpoints):
        lo = side_vertices.min(axis=1)
        hi = side_vertices.max(axis=1)
        split = hi >= nv_old
        labels = np.empty(len(hi), dtype=mesh.side_labels.dtype)
        labels[split] = mesh.side_labels[side_ids[hi[split] - nv_old]]
        whole = lo[~split] * nv_old + hi[~split]
        pos = np.minimum(np.searchsorted(parent_keys, whole), len(parent_keys) - 1)
        if whole.size and not np.array_equal(parent_keys[pos], whole):
            raise MeshError("refined boundary side does not match any parent side")
        labels[~split] = parent_labels[pos]
        return labels

    return labeler


def _reference_sides(mesh):
    """Local index (per element) of the refinement-reference side.

    The reference side is the longest side; exact length ties are broken by
    the smallest global side index, which makes the choice deterministic.
    """
    lengths = mesh.side_lengths[mesh.elem_sides]
    max_len = lengths.max(axis=1, keepdims=True)
    candidate = np.where(lengths == max_len, mesh.elem_sides, np.iinfo(np.int64).max)
    return candidate.argmin(axis=1)


def refine_rgb(mesh, marked=None):
    """Red-green-blue refinement of the marked elements with conforming closure.

    Marked elements are refined red; the closure iteratively marks the
    reference (longest) side of any element that has a marked side, and the
    resulting side marks are realised by red (3 sides), blue (2) or green (1)
    subdivisions.  The output mesh is conforming by construction.
    ``marked=None`` marks every element (uniform red refinement, each element
    split into 4 similar children); an empty mark set returns the input
    unchanged.
    """
    mask = _marked_mask(mesh, marked)
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

    return Mesh(coords, tris, side_labeler=_inherited_labeler(mesh, side_ids),
                parent=mesh, parent_elements=parent)


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
