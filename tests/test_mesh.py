"""Mesh construction, structured generation, refinement, export.

Count/geometry oracles in this file were derived by hand from the generator
contract (n x n cells, two triangles per cell, checkerboard diagonals) before
the implementation existed; the conformity scans in tests/util.py work
directly on vertex/element arrays and are independent of the mesh class.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crobstacle.mesh import (
    DIRICHLET,
    INTERIOR,
    NEUMANN,
    LShape,
    Mesh,
    MeshError,
    Rectangle,
    build_structured,
    export_vtk,
    mesh_stats,
    refine_rgb,
)
from util import (
    children_inside_parents,
    conformity_scan,
    total_area,
    undirected_edge_counts,
)


def square(n, lo=0.0, hi=1.0):
    return build_structured(Rectangle(lo, lo, hi, hi), n)


def ring_mesh(n=4):
    return build_structured(Rectangle(-1.5, -1.5, 1.5, 1.5), n)


def lshape_mesh(n=8):
    dom = LShape(Rectangle(-2, -2, 2, 2), Rectangle(0, -2, 2, 0))
    return build_structured(dom, n)


# ----------------------------------------------------------------------
# Structured generation: frozen counts and geometry
# ----------------------------------------------------------------------
class TestBuildStructured:
    def test_unit_square_n1_counts(self):
        m = square(1)
        assert (m.n_vertices, m.n_elements, m.n_sides) == (4, 2, 5)
        assert int(m.interior_side_mask.sum()) == 1
        assert np.isclose(m.areas.sum(), 1.0)
        assert np.isclose(m.h_max, np.sqrt(2.0))

    def test_square_counts_n4(self):
        # Hand count: (n+1)^2 vertices, 2 n^2 elements, 3 n^2 + 2 n sides.
        m = ring_mesh(4)
        assert (m.n_vertices, m.n_elements, m.n_sides) == (25, 32, 56)
        assert int(m.boundary_mask.sum()) == 16
        assert int(m.interior_side_mask.sum()) == 40
        assert np.isclose(m.areas.sum(), 9.0)
        assert np.isclose(m.h_max, 3.0 * np.sqrt(2.0) / 4.0)
        assert np.isclose(m.h_min, m.h_max)  # uniform

    def test_lshape_counts_n8(self):
        m = lshape_mesh(8)
        assert (m.n_vertices, m.n_elements, m.n_sides) == (65, 96, 160)
        assert int(m.boundary_mask.sum()) == 32
        assert np.isclose(m.areas.sum(), 12.0)
        stats = mesh_stats(m)
        assert stats["euler_characteristic"] == 1

    def test_conformity_and_orientation(self):
        for m in (square(1), ring_mesh(4), lshape_mesh(8), square(3)):
            conformity_scan(m)
            assert np.all(m.areas > 0.0)
            # all elements counter-clockwise was asserted via positive areas;
            # total area matches the brute-force sum
            assert np.isclose(m.areas.sum(), total_area(m))

    def test_lshape_boundary_edges_on_outline(self):
        m = lshape_mesh(8)

        def on_lshape_boundary(p):
            x, y = p
            on_outer = np.isclose(abs(x), 2) or np.isclose(abs(y), 2)
            on_cut = (np.isclose(x, 0) and -2 <= y <= 0) or (
                np.isclose(y, 0) and 0 <= x <= 2)
            return on_outer or on_cut

        conformity_scan(m, boundary_predicate=on_lshape_boundary)

    def test_diagonals_do_not_cross_square_diagonals(self):
        # The checkerboard phase keeps element edges off the interiors of the
        # lines y = x and y = -x on a symmetric square, so piecewise-affine
        # functions with kinks on those diagonals stay mesh-aligned.
        for n in (2, 4, 8):
            m = build_structured(Rectangle(-1, -1, 1, 1), n)
            a = m.vertex_coords[m.side_vertices[:, 0]]
            b = m.vertex_coords[m.side_vertices[:, 1]]
            for s in (lambda p: p[:, 0] - p[:, 1], lambda p: p[:, 0] + p[:, 1]):
                crosses = (s(a) * s(b)) < -1e-12
                assert not crosses.any()

    def test_sides_opposite_vertices(self):
        m = lshape_mesh(4)
        for t in range(m.n_elements):
            verts = set(m.elem_vertices[t])
            for j in range(3):
                sv = set(m.side_vertices[m.elem_sides[t, j]])
                assert sv == verts - {m.elem_vertices[t, j]}

    def test_normals_unit_and_outward(self):
        m = ring_mesh(4)
        norms = np.hypot(m.side_normals[:, 0], m.side_normals[:, 1])
        assert np.allclose(norms, 1.0)
        # boundary: outward from the square centred at the origin
        for s in np.flatnonzero(m.boundary_mask):
            assert m.side_normals[s] @ m.side_midpoints[s] > 0
        # interior: from the minus element to the plus element
        for s in np.flatnonzero(m.interior_side_mask):
            d = m.barycenters[m.side_elem_plus[s]] - m.barycenters[m.side_elem_minus[s]]
            assert m.side_normals[s] @ d > 0

    def test_boundary_rule_labels(self):
        def rule(sides, mid):
            return np.where(mid[:, 1] > 1.4999, NEUMANN, DIRICHLET)

        m = build_structured(Rectangle(-1.5, -1.5, 1.5, 1.5), 4, boundary_rule=rule)
        assert int(m.neumann_side_mask.sum()) == 4
        assert int(m.dirichlet_side_mask.sum()) == 12
        assert np.allclose(m.side_midpoints[m.neumann_side_mask][:, 1], 1.5)
        assert np.all(m.side_labels[m.interior_side_mask] == INTERIOR)

    def test_validation_errors(self):
        with pytest.raises(MeshError):
            build_structured(Rectangle(0, 0, 1, 1), 0)
        with pytest.raises(MeshError):
            Rectangle(0, 0, 0, 1)
        with pytest.raises(MeshError):  # cut does not share a corner
            LShape(Rectangle(0, 0, 4, 4), Rectangle(1, 1, 2, 2))
        with pytest.raises(MeshError):  # cut boundary off the grid
            dom = LShape(Rectangle(0, 0, 3, 3), Rectangle(1.7, 0, 3, 1.5))
            build_structured(dom, 2)

    def test_mesh_validation(self):
        coords = [[0, 0], [1, 0], [0, 1], [1, 1], [2, 0.5]]
        with pytest.raises(MeshError):  # degenerate element
            Mesh(coords, [[0, 1, 1]])
        with pytest.raises(MeshError):  # vertex index out of range
            Mesh(coords, [[0, 1, 7]])
        with pytest.raises(MeshError):  # non-manifold edge
            Mesh(coords, [[0, 1, 2], [1, 0, 3], [0, 1, 4]])

    def test_side_labeler_gets_every_boundary_side_at_once(self):
        calls = []

        def rule(sides, mid):
            calls.append((sides.copy(), mid.copy()))
            return np.full(len(sides), NEUMANN)

        m = build_structured(Rectangle(0, 0, 1, 1), 2, boundary_rule=rule)
        assert len(calls) == 1
        sides, mid = calls[0]
        bnd = m.boundary_mask
        assert np.array_equal(sides, m.side_vertices[bnd])
        assert np.array_equal(mid, m.side_midpoints[bnd])
        assert np.all(m.side_labels[bnd] == NEUMANN)

    def test_side_labeler_rejects_unknown_labels(self):
        with pytest.raises(MeshError, match="'robin'"):
            build_structured(Rectangle(0, 0, 1, 1), 2,
                             boundary_rule=lambda s, mid: np.where(
                                 mid[:, 0] > 0.99, "robin", DIRICHLET))
        with pytest.raises(MeshError, match="shape"):
            build_structured(Rectangle(0, 0, 1, 1), 2,
                             boundary_rule=lambda s, mid: DIRICHLET)

    def test_side_table_matches_row_unique(self):
        # One int64 key per side gives the same table as np.unique over the
        # sorted vertex pairs as rows (axis=0), the formula it replaced.
        rng = np.random.default_rng(11)
        m = ring_mesh(4)
        for _ in range(3):
            m = refine_rgb(m, rng.choice(m.n_elements, m.n_elements // 3,
                                         replace=False))
        tri = m.elem_vertices
        oriented = np.stack([tri[:, [1, 2]], tri[:, [2, 0]], tri[:, [0, 1]]],
                            axis=1).reshape(-1, 2)
        _, first, inverse, counts = np.unique(
            np.sort(oriented, axis=1), axis=0, return_index=True,
            return_inverse=True, return_counts=True)
        assert np.array_equal(m.side_vertices, oriented[first])
        assert np.array_equal(m.elem_sides, inverse.reshape(-1, 3))
        assert np.array_equal(m.boundary_mask, counts == 1)
        assert np.array_equal(m.side_elem_minus, first // 3)

    def test_clockwise_input_reoriented(self):
        m = Mesh([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])
        assert m.areas[0] > 0
        assert set(m.elem_vertices[0]) == {0, 1, 2}

    def test_immutability(self):
        m = square(1)
        with pytest.raises(ValueError):
            m.vertex_coords[0, 0] = 7.0

    def test_barycentric_coordinates(self):
        m = lshape_mesh(2)
        rng = np.random.default_rng(7)
        bary = rng.dirichlet([1, 1, 1], size=m.n_elements)
        pts = np.einsum("tj,tjd->td", bary, m.vertex_coords[m.elem_vertices])
        out = m.barycentric_coordinates(np.arange(m.n_elements), pts)
        assert np.allclose(out, bary, atol=1e-12)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


# ----------------------------------------------------------------------
# Uniform red refinement: refine_rgb with every element marked
# ----------------------------------------------------------------------
class TestRefineRed:
    def test_uniform_red_counts_and_geometry(self):
        m = ring_mesh(4)
        f = refine_rgb(m)
        assert f.n_elements == 4 * m.n_elements
        assert f.n_vertices == m.n_vertices + m.n_sides
        assert f.n_sides == 2 * m.n_sides + 3 * m.n_elements
        assert int(f.boundary_mask.sum()) == 2 * int(m.boundary_mask.sum())
        assert np.isclose(f.areas.sum(), m.areas.sum())
        # children are similar: h exactly halves, areas exactly quarter
        assert np.isclose(f.h_max, m.h_max / 2.0)
        assert np.allclose(np.sort(f.areas)[::-1], m.areas.max() / 4.0)
        conformity_scan(f)
        children_inside_parents(f)
        assert np.all(np.bincount(f.parent_elements) == 4)

    def test_red_empty_marks_identity(self):
        m = square(2)
        assert refine_rgb(m, np.zeros(m.n_elements, dtype=bool)) is m

    def test_red_labels_inherited(self):
        def rule(sides, mid):
            return np.where(mid[:, 1] > 1.4999, NEUMANN, DIRICHLET)

        m = build_structured(Rectangle(-1.5, -1.5, 1.5, 1.5), 4, boundary_rule=rule)
        f = refine_rgb(refine_rgb(m))
        assert int(f.neumann_side_mask.sum()) == 16
        assert np.allclose(f.side_midpoints[f.neumann_side_mask][:, 1], 1.5)
        assert int(f.dirichlet_side_mask.sum()) == 48

    def test_red_right_isoceles_preserved(self):
        m = refine_rgb(refine_rgb(ring_mesh(4)))
        assert np.allclose(m.min_angles(), 45.0, atol=1e-9)


# ----------------------------------------------------------------------
# Red-green-blue refinement
# ----------------------------------------------------------------------
class TestRefineRgb:
    def test_empty_marks_identity(self):
        m = square(2)
        assert refine_rgb(m, []) is m

    def test_single_mark_conforming(self):
        m = ring_mesh(4)
        f = refine_rgb(m, [0])
        conformity_scan(f)
        children_inside_parents(f)
        assert np.isclose(f.areas.sum(), m.areas.sum())
        # the marked element was refined red (4 children)
        assert int((f.parent_elements == 0).sum()) == 4
        assert f.n_elements > m.n_elements

    def test_marked_elements_get_four_children(self):
        m = lshape_mesh(4)
        marked = [0, 7, 13]
        f = refine_rgb(m, marked)
        counts = np.bincount(f.parent_elements, minlength=m.n_elements)
        for t in marked:
            assert counts[t] == 4
        assert np.all(counts >= 1)
        conformity_scan(f)

    def test_marked_sides_bisected_everywhere(self):
        # Every side of a marked element must be bisected in *all* adjacent
        # elements: the midpoint of each such side is a vertex of the fine mesh
        # and no fine side contains it strictly inside (conformity_scan).
        m = ring_mesh(4)
        marked = [3, 17]
        f = refine_rgb(m, marked)
        conformity_scan(f)
        fine_vertices = {tuple(np.round(p, 12)) for p in f.vertex_coords}
        for t in marked:
            for s in m.elem_sides[t]:
                assert tuple(np.round(m.side_midpoints[s], 12)) in fine_vertices

    def test_structured_angles_preserved_exactly(self):
        # Right isoceles triangles refine (red, green or blue) into right
        # isoceles triangles when the reference side is the hypotenuse, so the
        # minimum angle stays exactly 45 degrees through any marking sequence.
        m = square(2)
        rng = np.random.default_rng(42)
        for _ in range(6):
            k = rng.integers(1, max(2, m.n_elements // 3))
            marked = rng.choice(m.n_elements, size=k, replace=False)
            m = refine_rgb(m, marked)
            conformity_scan(m)
        assert np.allclose(m.min_angles(), 45.0, atol=1e-9)
        assert np.isclose(m.areas.sum(), 1.0)

    def test_reference_side_tie_break(self):
        # Equilateral triangle: all side lengths tie, the smallest global side
        # index wins deterministically.
        coords = [[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]]
        m = Mesh(coords, [[0, 1, 2]])
        f1 = refine_rgb(m, [0])
        f2 = refine_rgb(m, [0])
        assert np.array_equal(f1.elem_vertices, f2.elem_vertices)
        assert np.allclose(f1.vertex_coords, f2.vertex_coords)

    def test_labels_inherited(self):
        def rule(sides, mid):
            return np.where(mid[:, 0] > 0.9999, NEUMANN, DIRICHLET)

        m = build_structured(Rectangle(0, 0, 1, 1), 2, boundary_rule=rule)
        f = refine_rgb(m, np.arange(m.n_elements))
        assert np.allclose(f.side_midpoints[f.neumann_side_mask][:, 0], 1.0)
        assert int(f.neumann_side_mask.sum()) == 4
        g = refine_rgb(f, [0, 1])
        assert np.allclose(g.side_midpoints[g.neumann_side_mask][:, 0], 1.0)
        # split and unsplit sides alike keep the label: the Neumann sides
        # still cover the whole edge x = 1
        assert np.isclose(g.side_lengths[g.neumann_side_mask].sum(), 1.0)
        assert np.isclose(g.side_lengths[g.dirichlet_side_mask].sum(), 3.0)

    def test_skewed_mesh_quality_floor(self):
        # Perturbed grid: repeated local refinement must not degenerate the
        # triangles; longest-edge closure keeps descendants in finitely many
        # similarity classes (floor frozen from a measured run at > 0.49 of
        # the initial minimum angle).
        base = square(3)
        rng = np.random.default_rng(3)
        coords = base.vertex_coords.copy()
        interior = ~base.dirichlet_vertex_mask()
        coords[interior] += 0.08 * (rng.random((int(interior.sum()), 2)) - 0.5)
        m = Mesh(coords, base.elem_vertices)
        a0 = m.min_angles().min()
        for _ in range(5):
            k = max(1, m.n_elements // 4)
            marked = rng.choice(m.n_elements, size=k, replace=False)
            m = refine_rgb(m, marked)
        conformity_scan(m)
        assert m.min_angles().min() >= 0.49 * a0

    @given(
        n=st.integers(1, 3),
        seed=st.integers(0, 10_000),
        rounds=st.integers(1, 3),
    )
    @settings(max_examples=20)
    def test_random_marking_invariants(self, n, seed, rounds):
        m = build_structured(Rectangle(0, 0, 2, 1.5), n)
        area = m.areas.sum()
        rng = np.random.default_rng(seed)
        for _ in range(rounds):
            k = int(rng.integers(1, m.n_elements + 1))
            marked = rng.choice(m.n_elements, size=k, replace=False)
            m = refine_rgb(m, marked)
        conformity_scan(m)
        assert np.isclose(m.areas.sum(), area)
        assert mesh_stats(m)["euler_characteristic"] == 1
        assert np.all(m.areas > 0)


# ----------------------------------------------------------------------
# Stats, export
# ----------------------------------------------------------------------
class TestPatchesStatsExport:
    def test_stats_values(self):
        m = ring_mesh(4)
        stats = mesh_stats(m)
        assert stats["n_vertices"] == 25
        assert stats["n_elements"] == 32
        assert stats["n_sides"] == 56
        assert stats["n_dirichlet_sides"] == 16
        assert stats["n_neumann_sides"] == 0
        assert np.isclose(stats["area"], 9.0)
        assert np.isclose(stats["min_angle_deg"], 45.0)
        # right isoceles: diameter/inradius = 2 + 2*sqrt(2)
        assert np.isclose(stats["shape_regularity_max"], 2.0 + 2.0 * np.sqrt(2.0))
        assert stats["euler_characteristic"] == 1
        assert np.isclose(stats["h_max"], 3.0 * np.sqrt(2.0) / 4.0)

    def test_vtk_roundtrip(self, tmp_path):
        m = square(2)
        cell = {"lam": np.arange(m.n_elements, dtype=float)}
        point = {"uz": np.linspace(0, 1, m.n_vertices)}
        path = export_vtk(m, tmp_path / "mesh.vtk", cell_data=cell, point_data=point)
        lines = path.read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 2.0"
        assert "ASCII" in lines
        assert "DATASET UNSTRUCTURED_GRID" in lines

        i = lines.index(f"POINTS {m.n_vertices} double")
        pts = np.array([[float(v) for v in lines[i + 1 + k].split()]
                        for k in range(m.n_vertices)])
        assert np.allclose(pts[:, :2], m.vertex_coords)
        assert np.allclose(pts[:, 2], 0.0)

        i = lines.index(f"CELLS {m.n_elements} {4 * m.n_elements}")
        cells = np.array([[int(v) for v in lines[i + 1 + k].split()]
                          for k in range(m.n_elements)])
        assert np.all(cells[:, 0] == 3)
        assert np.array_equal(cells[:, 1:], m.elem_vertices)

        i = lines.index(f"CELL_TYPES {m.n_elements}")
        assert all(lines[i + 1 + k] == "5" for k in range(m.n_elements))

        i = lines.index("SCALARS lam double 1")
        vals = np.array([float(lines[i + 2 + k]) for k in range(m.n_elements)])
        assert np.allclose(vals, cell["lam"])

        i = lines.index("SCALARS uz double 1")
        vals = np.array([float(lines[i + 2 + k]) for k in range(m.n_vertices)])
        assert np.allclose(vals, point["uz"])

    def test_vtk_bad_data_length(self, tmp_path):
        m = square(1)
        with pytest.raises(MeshError):
            export_vtk(m, tmp_path / "bad.vtk", cell_data={"x": np.zeros(7)},
                       point_data={})

    def test_edge_counts_oracle_matches_side_arrays(self):
        m = lshape_mesh(4)
        counts = undirected_edge_counts(m.elem_vertices)
        n_boundary = sum(1 for c in counts.values() if c == 1)
        assert n_boundary == int(m.boundary_mask.sum())
        assert len(counts) == m.n_sides
