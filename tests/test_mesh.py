import numpy as np
import pytest

from levelmc.mesh import (
    TriMesh,
    aligned_structured_mesh,
    bisect_refine,
    structured_unit_square,
    uniform_family,
)


def assert_conforming(mesh):
    counts = np.where(mesh.boundary_edge, 1, 2)
    built = np.zeros(len(mesh.edges), dtype=int)
    for eids in mesh.tri_edges:
        built[eids] += 1
    assert np.array_equal(built, counts)
    assert (mesh.areas > 0).all()


class TestStructured:
    def test_single_cell(self):
        mesh = structured_unit_square(1)
        assert mesh.num_vertices == 4
        assert mesh.num_triangles == 2
        assert mesh.areas.sum() == pytest.approx(1.0)

    def test_vertex_count(self):
        assert structured_unit_square(10).num_vertices == 121

    def test_bracketing_resolutions(self):
        assert structured_unit_square(14).num_vertices == 225
        assert structured_unit_square(15).num_vertices == 256

    def test_conformity(self):
        assert_conforming(structured_unit_square(7))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            structured_unit_square(0)


class TestUniformFamily:
    def test_level_zero(self):
        assert uniform_family(0, 15).num_vertices == 256

    def test_level_one_rounding(self):
        # resolution round(15 * 1.5) = 23
        mesh = uniform_family(1, 15)
        assert mesh.num_vertices == 24**2

    def test_growth_ratio_band(self):
        counts = [uniform_family(level, 15).num_vertices for level in range(8)]
        ratios = np.array(counts[1:]) / np.array(counts[:-1])
        assert (ratios >= 2.0).all() and (ratios <= 2.5).all()


class TestBisectRefine:
    def test_empty_marking_is_identity(self):
        mesh = structured_unit_square(3)
        assert bisect_refine(mesh, []) is mesh

    def test_single_marked_on_two_triangle_mesh(self):
        mesh = structured_unit_square(1)
        refined = bisect_refine(mesh, [0])
        # both triangles share the diagonal refinement edge: 2 + 2 children
        assert refined.num_triangles == 4
        assert refined.num_vertices == 5
        assert_conforming(refined)

    def test_vertex_count_strictly_increases(self):
        mesh = structured_unit_square(4)
        for marked in ([0], [3, 7], list(range(mesh.num_triangles))):
            refined = bisect_refine(mesh, marked)
            assert refined.num_vertices > mesh.num_vertices

    def test_marked_triangles_are_subdivided(self):
        mesh = structured_unit_square(4)
        marked = [5, 11]
        refined = bisect_refine(mesh, marked)
        parents = set(refined.parent_ids.tolist())
        for m in marked:
            children = np.nonzero(refined.parent_ids == m)[0]
            assert len(children) >= 2
        assert parents <= set(range(mesh.num_triangles))

    def test_children_nested_in_parent(self):
        mesh = structured_unit_square(3)
        rng = np.random.default_rng(0)
        marked = rng.choice(mesh.num_triangles, size=6, replace=False)
        refined = bisect_refine(mesh, marked)
        # child barycenters lie inside the parent triangle
        for child, parent in enumerate(refined.parent_ids):
            bary = refined.barycenters[child]
            tri = mesh.vertices[mesh.triangles[parent]]
            # barycentric coordinates of the point
            T = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
            lam = np.linalg.solve(T, bary - tri[0])
            assert lam.min() >= -1e-12 and lam.sum() <= 1 + 1e-12

    def test_vertices_nested(self):
        mesh = structured_unit_square(3)
        refined = bisect_refine(mesh, [0, 5])
        assert np.array_equal(refined.vertices[: mesh.num_vertices], mesh.vertices)

    def test_conformity_and_angles_after_many_refinements(self):
        mesh = structured_unit_square(4)
        initial_angle = mesh.min_angle()
        rng = np.random.default_rng(7)
        for _ in range(6):
            marked = rng.choice(mesh.num_triangles,
                                size=max(1, mesh.num_triangles // 5), replace=False)
            mesh = bisect_refine(mesh, marked)
            assert_conforming(mesh)
        # newest-vertex bisection keeps shape regularity bounded
        assert mesh.min_angle() >= 0.5 * initial_angle

    def test_out_of_range_id_rejected(self):
        mesh = structured_unit_square(2)
        with pytest.raises(IndexError):
            bisect_refine(mesh, [mesh.num_triangles])


class TestAlignedMesh:
    def test_breaks_on_gridlines(self):
        mesh = aligned_structured_mesh([0.5], [0.5], 2)
        xs = np.unique(mesh.vertices[:, 0])
        ys = np.unique(mesh.vertices[:, 1])
        assert 0.5 in xs and 0.5 in ys

    def test_box_breaks_all_on_edges(self):
        # box centered (0.4, 0.6) with edge length 0.3
        bx, by = (0.25, 0.55), (0.45, 0.75)
        mesh = aligned_structured_mesh(bx, by, 8)
        xs = np.unique(mesh.vertices[:, 0])
        ys = np.unique(mesh.vertices[:, 1])
        for b in bx:
            assert np.isclose(xs, b).any()
        for b in by:
            assert np.isclose(ys, b).any()
        assert_conforming(mesh)

    def test_no_breaks_plain_structured(self):
        mesh = aligned_structured_mesh([], [], 4)
        plain = structured_unit_square(4)
        assert np.allclose(mesh.vertices, plain.vertices)
        assert np.array_equal(mesh.triangles, plain.triangles)

    def test_minimum_resolution(self):
        mesh = aligned_structured_mesh([0.3], [0.7], 10)
        assert len(np.unique(mesh.vertices[:, 0])) >= 11


class TestGeometryQueries:
    def test_unit_right_triangle(self):
        mesh = TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
        assert mesh.diameters[0] == pytest.approx(np.sqrt(2))
        assert mesh.areas[0] == pytest.approx(0.5)
        assert np.allclose(mesh.barycenters[0], [1 / 3, 1 / 3])

    def test_edge_length(self):
        mesh = TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
        eid = next(
            e for e, (a, b) in enumerate(mesh.edges.tolist()) if (a, b) == (0, 1)
        )
        assert mesh.edge_lengths[eid] == pytest.approx(1.0)

    def test_interior_edges_two_triangle_square(self):
        mesh = structured_unit_square(1)
        for k in range(2):
            eids = mesh.tri_edges[k]
            interior = eids[~mesh.boundary_edge[eids]]
            assert len(interior) == 1
            a, b = mesh.edges[interior[0]]
            assert {tuple(mesh.vertices[a]), tuple(mesh.vertices[b])} == {
                (0.0, 0.0), (1.0, 1.0),
            }
