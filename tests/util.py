"""Shared implementation-independent checks used across the test suite.

The mesh checks work only from ``vertex_coords`` / ``elem_vertices`` (plus
plain geometry), so they can serve as an independent oracle for the mesh data
structures and refinement routines.  The field evaluators at the end work at
physical points (through ``Mesh.barycentric_coordinates``), an independent
route to the barycentric evaluation the package uses.
"""

import numpy as np

from crobstacle.duality import DualField
from crobstacle.mesh import _CODE_BARY, refine_rgb
from crobstacle.spaces import (
    CrFunction,
    P0Function,
    P0VectorField,
    QuadratureRule,
    Rt0Function,
    SpaceError,
    VertexFunction,
    triangle_rule,
)


def composite_rule(degree, subdivisions):
    """``triangle_rule(degree)`` on the 4**subdivisions similar subtriangles.

    Each subdivision is the regular (red) one; the composite rule integrates
    integrands with interior kinks more accurately than the rule itself.
    """
    rule = triangle_rule(degree)
    eye = np.eye(3)
    mids = 0.5 * (eye[[1, 2, 0]] + eye[[2, 0, 1]])  # midpoints opposite each vertex
    # the corner children, then the central one, in barycentric coordinates
    children = [np.stack([eye[j], mids[(j + 2) % 3], mids[(j + 1) % 3]])
                for j in range(3)] + [mids]
    for _ in range(subdivisions):
        rule = QuadratureRule(f"{rule.name}-x4", rule.degree,
                              np.vstack([rule.bary @ corners for corners in children]),
                              np.concatenate([rule.weights / 4.0] * 4))
    return rule


def assert_same_pattern(pattern, reference):
    """Every array of a ``SelectorPattern`` bitwise that of ``reference``.

    ``reference`` is the dict of ``oracles.selector_pattern_arrays``.
    """
    for key in ("_data", "_indices", "_indptr", "scale", "_pairs", "_pos", "_product"):
        value, expected = getattr(pattern, key), reference[key]
        assert value.dtype == expected.dtype and np.array_equal(value, expected), key
    for key in ("data", "indices", "indptr"):
        value, expected = getattr(pattern.scaled, key), getattr(reference["scaled"], key)
        assert np.array_equal(value, expected), key
    assert pattern.scaled.shape == reference["scaled"].shape


def undirected_edge_counts(elem_vertices):
    """Map (min_vertex, max_vertex) -> number of elements containing that edge."""
    counts = {}
    for tri in np.asarray(elem_vertices):
        for j in range(3):
            a, b = int(tri[(j + 1) % 3]), int(tri[(j + 2) % 3])
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    return counts


def conformity_scan(mesh, boundary_predicate=None, tol=1e-12):
    """Independent conformity check on a mesh.

    * every undirected edge belongs to one or two elements,
    * edges owned by a single element lie on the domain boundary when a
      predicate for boundary membership of the edge midpoint is supplied,
    * no vertex lies in the open interior of any edge (no hanging nodes),
    * the edge set of the mesh's side arrays equals the scanned edge set.
    """
    counts = undirected_edge_counts(mesh.elem_vertices)
    assert all(c in (1, 2) for c in counts.values()), "edge shared by >2 elements"

    side_keys = {
        (int(min(a, b)), int(max(a, b))) for a, b in mesh.side_vertices
    }
    assert side_keys == set(counts.keys()), "side arrays disagree with edge scan"

    coords = mesh.vertex_coords
    if boundary_predicate is not None:
        for (a, b), c in counts.items():
            if c == 1:
                mid = 0.5 * (coords[a] + coords[b])
                assert boundary_predicate(mid), f"interior edge {(a, b)} has one element"

    # Hanging-node scan: no vertex strictly inside another edge.
    for (a, b) in counts:
        pa, pb = coords[a], coords[b]
        d = pb - pa
        L2 = float(d @ d)
        rel = coords - pa
        t = (rel @ d) / L2
        dist2 = (rel * rel).sum(axis=1) - (t ** 2) * L2
        on_line = dist2 < tol * L2
        inside = (t > tol) & (t < 1.0 - tol)
        bad = np.flatnonzero(on_line & inside)
        bad = [v for v in bad if v not in (a, b)]
        assert not bad, f"vertex {bad} hangs on edge {(a, b)}"


def triangle_area(coords, tri):
    p = np.asarray(coords)[np.asarray(tri)]
    return 0.5 * abs(
        (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
        - (p[1, 1] - p[0, 1]) * (p[2, 0] - p[0, 0])
    )


def total_area(mesh):
    return sum(triangle_area(mesh.vertex_coords, tri) for tri in mesh.elem_vertices)


def children_inside_parents(child):
    """Every child vertex is the parent vertex or side midpoint its code names.

    ``parent_codes`` holds, per child vertex, 0-2 for a parent vertex and
    3 + j for the midpoint of parent side j.  The codes' barycentric rows
    applied to the parent's corners give the child's vertices bitwise, in
    the child's own vertex order, so ``Mesh`` reoriented no child.
    """
    parent = child.parent
    assert parent is not None and child.parent_elements is not None
    codes = child.parent_codes
    assert codes.shape == (child.n_elements, 3) and codes.dtype == np.int8
    assert codes.min() >= 0 and codes.max() <= 5
    corners = parent.vertex_coords[parent.elem_vertices[child.parent_elements]]
    expected = np.einsum("tkj,tjd->tkd", _CODE_BARY[codes], corners)
    assert np.array_equal(child.vertex_coords[child.elem_vertices], expected)


# ----------------------------------------------------------------------
# Small-instance generators shared by the solver tests and the acceptance
# suite (randomized cross-validation of the active-set solver).
# ----------------------------------------------------------------------
def graded_meshes(bench, levels, centre=(0.3, 0.1)):
    """``levels`` meshes from ``bench``'s initial one, each refined from the last.

    Each refinement marks the tenth of the elements (at least one) whose
    barycenters lie nearest ``centre``, so the closure adds green and blue
    elements and most elements stay unrefined, as in an adaptive run.  The
    list keeps every parent alive.
    """
    meshes = [bench.initial_mesh()]
    while len(meshes) < levels:
        mesh = meshes[-1]
        dist = np.hypot(*(mesh.barycenters - np.asarray(centre)).T)
        marked = np.argsort(dist, kind="stable")[:max(1, mesh.n_elements // 10)]
        meshes.append(refine_rgb(mesh, marked))
    return meshes


def kept_elements(mesh):
    """Elements of a refinement that are their parent's only child."""
    return np.bincount(mesh.parent_elements)[mesh.parent_elements] == 1


def grid_mesh(nx, ny, bounds=(0.0, 0.0, 1.0, 1.0)):
    """Hand-built nx-by-ny rectangle grid, each cell split along the
    checkerboard diagonal; all boundary sides Dirichlet (default labeler)."""
    from crobstacle.mesh import Mesh

    x0, y0, x1, y1 = bounds
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    coords = np.array([[x, y] for y in ys for x in xs], dtype=float)

    def vid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            if (i + j) % 2 == 0:        # diagonal a-c
                tris.append((a, b, c))
                tris.append((a, c, d))
            else:                       # diagonal b-d
                tris.append((a, b, d))
                tris.append((b, c, d))
    return Mesh(coords, np.array(tris, dtype=np.int64))


def random_quadratic(rng, scale=1.0):
    """A random quadratic callable on point arrays of shape (..., 2)."""
    c = rng.uniform(-scale, scale, size=6)

    def fn(points):
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        return (c[0] + c[1] * x + c[2] * y + c[3] * x * y
                + c[4] * x * x + c[5] * y * y)

    return fn


def random_small_problem(rng, index):
    """One randomized small obstacle instance (<= 16 elements).

    Cycles through several grid shapes; the load is strongly negative to
    force contact, the obstacle is a random quadratic shifted below the
    boundary data, and some instances carry inhomogeneous boundary values.
    """
    from crobstacle.assembly import ProblemData

    shapes = [(2, 2, (0.0, 0.0, 1.0, 1.0)),
              (2, 2, (0.0, 0.0, 2.0, 1.0)),
              (3, 2, (0.0, 0.0, 1.5, 1.0)),
              (4, 2, (-1.0, 0.0, 1.0, 1.0))]
    nx, ny, bounds = shapes[index % len(shapes)]
    mesh = grid_mesh(nx, ny, bounds)

    f_raw = random_quadratic(rng, scale=4.0)
    f_shift = rng.uniform(2.0, 14.0)

    def f(points):
        return f_raw(points) - f_shift

    inhomogeneous = index % 3 == 2
    if inhomogeneous:
        cg = rng.uniform(-0.5, 0.5, size=3)

        def g(points):
            pts = np.asarray(points, dtype=float)
            return cg[0] + cg[1] * pts[..., 0] + cg[2] * pts[..., 1]
    else:
        g = None

    # downward dome peaking at a random interior point (plus a mild random
    # quadratic ripple): raising it creates contact near the peak long
    # before the obstacle collides with the boundary data
    x0, y0, x1, y1 = bounds
    cx = rng.uniform(x0 + 0.3 * (x1 - x0), x1 - 0.3 * (x1 - x0))
    cy = rng.uniform(y0 + 0.3 * (y1 - y0), y1 - 0.3 * (y1 - y0))
    curv = rng.uniform(0.8, 3.0)
    ripple = random_quadratic(rng, scale=0.1)

    def chi_raw(points):
        pts = np.asarray(points, dtype=float)
        return (-curv * ((pts[..., 0] - cx) ** 2 + (pts[..., 1] - cy) ** 2)
                + ripple(points))

    corners = np.array(
        [[bounds[0], bounds[1]], [bounds[2], bounds[1]],
         [bounds[2], bounds[3]], [bounds[0], bounds[3]]])
    t = np.linspace(0, 1, 21)[:, None]
    ring_pts = np.concatenate(
        [corners[i] + t * (corners[(i + 1) % 4] - corners[i]) for i in range(4)])
    g_min = 0.0 if g is None else float(np.min(g(ring_pts)))
    offset = float(np.max(chi_raw(ring_pts))) - g_min + rng.uniform(0.05, 0.6)

    def make_chi(shift):
        def chi(points):
            return chi_raw(points) - offset + shift
        return chi

    name = f"random-{index}"
    data = ProblemData(name=name, f=f, chi=make_chi(0.0), dirichlet_data=g)

    # Lift the obstacle until the unconstrained solution violates it on a
    # handful of elements: guarantees genuine (but partial) contact.  A
    # tie-free shift between order statistics of the defect keeps the final
    # active set away from full contact, where structured grids can have a
    # non-unique multiplier.
    from crobstacle.solver import build_system, pdas_solve
    from crobstacle.sparse import solve_spd

    sysd = build_system(mesh, data)
    if sysd.dofmap.n_free:
        free, _ = solve_spd(sysd.stiffness, sysd.load)
    else:
        free = np.zeros(0)
    defect = np.sort(sysd.element_means(free) - sysd.chi_h.values)
    nm = defect.size
    dmask = mesh.dirichlet_side_mask
    cap = float(np.min(data.dirichlet_values_at(mesh.side_midpoints[dmask])
                       - data.chi_side_values(mesh)[dmask]))
    for k in (max(2, nm // 3), 2, 1):
        if k > nm - 2:
            continue
        want = 0.5 * (defect[k - 1] + defect[k])
        shift = min(want, cap - 1e-9)
        if shift <= 0.0:
            continue
        candidate = ProblemData(name=name, f=f, chi=make_chi(shift),
                                dirichlet_data=g)
        out = pdas_solve(mesh, candidate)
        if out.converged and out.state.active.any() and not out.state.active.all():
            return mesh, candidate
    return mesh, data


def broken_energy(mesh, full_dofs, f_values):
    """Independent discrete energy: 0.5*||grad_h v||^2 - (f_h, element means).

    Computed from raw arrays (barycentric gradients and side means) without
    the solver module.
    """
    d = np.asarray(full_dofs, dtype=float)[mesh.elem_sides]
    grads = np.einsum("tj,tjd->td", d.sum(axis=1, keepdims=True) - 2.0 * d,
                      mesh.bary_grads)
    grad_sq = (grads ** 2).sum(axis=1) @ mesh.areas
    load = (np.asarray(f_values) * mesh.areas) @ d.mean(axis=1)
    return 0.5 * grad_sq - load


def make_feasible_competitor(rng, mesh, dofmap, boundary_values, chi_means,
                             base=None, scale=1.0):
    """A random CR dof vector respecting boundary data and element-mean
    feasibility (means >= obstacle means on every multiplier element)."""
    full = np.asarray(boundary_values, dtype=float).copy()
    if base is not None:
        full = np.asarray(base, dtype=float).copy()
    full[dofmap.free_sides] += rng.normal(0.0, scale, size=dofmap.n_free)
    elems = dofmap.elements
    for _ in range(200):
        means = full[mesh.elem_sides[elems]].mean(axis=1)
        deficit = chi_means - means
        worst = int(np.argmax(deficit))
        if deficit[worst] <= 0.0:
            return full
        sides = mesh.elem_sides[elems[worst]]
        free = [s for s in sides if dofmap.side_to_free[s] >= 0]
        full[free[0]] += 3.0 * deficit[worst] + 1e-12
    raise AssertionError("feasibility repair did not terminate")


# ----------------------------------------------------------------------
# Inputs in the one form the package takes
# ----------------------------------------------------------------------
def zero_boundary_data(points):
    """Homogeneous boundary data at ``(..., 2)`` points, as ``interp_av`` takes it."""
    return np.zeros(np.shape(points)[:-1])


def divergence(flux):
    """Element values of the divergence of a lowest-order flux field.

    The field is affine on each element, so its divergence is the outflow
    through the three sides over the area.
    """
    m = flux.mesh
    return (flux.side_fluxes[m.elem_sides] * m.elem_side_orient
            * m.side_lengths[m.elem_sides]).sum(axis=1) / m.areas


def dual_field(flux, f_h):
    """A bare lowest-order flux wrapped as the field ``marini_flux`` returns.

    Its residual load is ``div flux + f_h``, differenced from the side fluxes.
    """
    load = P0Function(flux.mesh, divergence(flux) + f_h.values)
    return DualField(flux=flux, residual_load=load,
                     cell_average=flux.element_means())


# ----------------------------------------------------------------------
# Physical-point evaluation of discrete fields (oracles for the
# barycentric evaluation in the package)
# ----------------------------------------------------------------------
def eval_cr(v, elems, points, tol=1e-10):
    """Evaluate a CR field at physical points paired with containing elements."""
    elems = np.atleast_1d(np.asarray(elems, dtype=np.int64))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    bary = v.mesh.barycentric_coordinates(elems, points)
    if bary.min() < -tol or bary.max() > 1.0 + tol:
        raise SpaceError("evaluation point lies outside its element")
    basis = 1.0 - 2.0 * bary
    return (v.dofs[v.mesh.elem_sides[elems]] * basis).sum(axis=1)


def side_values(field, side_ids, tpoints, which="minus"):
    """Evaluate a field's trace on sides from one adjacent element.

    ``tpoints`` are parameters in [0, 1] along each side (from the side's
    first to second vertex); ``which`` selects the adjacent element.  Scalar
    fields return ``(n_sides, nq)``; vector fields ``(n_sides, nq, 2)``.
    """
    mesh = field.mesh
    side_ids = np.asarray(side_ids, dtype=np.int64)
    tpoints = np.asarray(tpoints, dtype=float)
    if which == "minus":
        elems = mesh.side_elem_minus[side_ids]
    elif which == "plus":
        elems = mesh.side_elem_plus[side_ids]
        if np.any(elems < 0):
            raise SpaceError("boundary side has no plus element")
    else:
        raise SpaceError(f"unknown side {which!r}")

    a = mesh.vertex_coords[mesh.side_vertices[side_ids, 0]]
    b = mesh.vertex_coords[mesh.side_vertices[side_ids, 1]]
    pts = a[:, None, :] + tpoints[None, :, None] * (b - a)[:, None, :]
    nq = len(tpoints)

    flat_elems = np.repeat(elems, nq)
    flat_pts = pts.reshape(-1, 2)
    bary = mesh.barycentric_coordinates(flat_elems, flat_pts).reshape(len(side_ids), nq, 3)

    if isinstance(field, CrFunction):
        basis = 1.0 - 2.0 * bary
        return np.einsum("sj,sqj->sq", field.dofs[mesh.elem_sides[elems]], basis)
    if isinstance(field, VertexFunction):
        return np.einsum("sj,sqj->sq", field.values[mesh.elem_vertices[elems]], bary)
    if isinstance(field, P0Function):
        return np.broadcast_to(field.values[elems][:, None], (len(side_ids), nq)).copy()
    if isinstance(field, P0VectorField):
        return np.broadcast_to(field.values[elems][:, None, :],
                               (len(side_ids), nq, 2)).copy()
    if isinstance(field, Rt0Function):
        es = mesh.elem_sides[elems]
        coef = (field.side_fluxes[es] * mesh.elem_side_orient[elems]
                * mesh.side_lengths[es] / (2.0 * mesh.areas[elems][:, None]))
        corners = mesh.vertex_coords[mesh.elem_vertices[elems]]
        diff = pts[:, None, :, :] - corners[:, :, None, :]
        return np.einsum("sj,sjqd->sqd", coef, diff)
    raise SpaceError(f"unsupported field type {type(field).__name__}")
