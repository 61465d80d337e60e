import numpy as np
import pytest
from reference_numerics import min_angle

from levelmc.mesh import (
    LEVEL_RATIO,
    TriMesh,
    aligned_structured_mesh,
    bisect_refine,
    level_resolution,
    structured_unit_square,
    uniform_family,
)
from levelmc.mlmc import PdeLevelModel


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

    def test_one_level_ratio(self):
        # the resolutions and MLMC's DOF growth s both come from LEVEL_RATIO
        assert [level_resolution(level, 15) for level in range(8)] == [
            15, 23, 34, 51, 76, 114, 171, 256]
        assert PdeLevelModel.s == LEVEL_RATIO**2 == 2.25


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
        initial_angle = min_angle(mesh)
        rng = np.random.default_rng(7)
        for _ in range(6):
            marked = rng.choice(mesh.num_triangles,
                                size=max(1, mesh.num_triangles // 5), replace=False)
            mesh = bisect_refine(mesh, marked)
            assert_conforming(mesh)
        # newest-vertex bisection keeps shape regularity bounded
        assert min_angle(mesh) >= 0.5 * initial_angle

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


# -- the column kernels against the array formulas they replaced -------------
# Per-sample outputs are discontinuous in round-off (a flipped marking or
# level decision moves a sample by far more than an ulp), so these checks
# ask for equal bits, not closeness.


def unique_edge_build(mesh):
    """Edges, tri_edges, edge_sides, edge_tris and boundary flags by np.unique,
    a stable argsort and searchsorted; the stable sort lists the two sides of
    an edge in half-edge order (local edge, then triangle id)."""
    t, n = mesh.triangles, mesh.num_vertices
    pairs = np.sort(np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]]), axis=1)
    unique_keys, inverse = np.unique(pairs[:, 0] * np.int64(n) + pairs[:, 1],
                                     return_inverse=True)
    edges = np.column_stack([unique_keys // n, unique_keys % n])
    counts = np.bincount(inverse, minlength=len(unique_keys))
    order = np.argsort(inverse, kind="stable")     # half-edge ids k M + i, by edge
    tri_ids = np.tile(np.arange(len(t), dtype=np.int64), 3)[order]
    first = np.searchsorted(inverse[order], np.arange(len(unique_keys)))
    edge_sides = np.full((len(unique_keys), 2), -1, dtype=np.int64)
    edge_sides[:, 0] = order[first]
    edge_sides[counts == 2, 1] = order[first[counts == 2] + 1]
    edge_tris = np.full((len(unique_keys), 2), -1, dtype=np.int64)
    edge_tris[:, 0] = tri_ids[first]
    edge_tris[counts == 2, 1] = tri_ids[first[counts == 2] + 1]
    boundary_vertex = np.zeros(n, dtype=bool)
    boundary_vertex[edges[counts == 1].ravel()] = True
    return {"edges": edges, "tri_edges": inverse.reshape(3, -1).T, "edge_sides": edge_sides,
            "edge_tris": edge_tris, "boundary_edge": counts == 1,
            "boundary_vertex": boundary_vertex}


def gathered_geometry(mesh):
    """Areas, barycenters, gradient factors, edge lengths and diameters from
    3-D row gathers."""
    p = mesh.vertices[mesh.triangles]
    x, y = p[:, :, 0], p[:, :, 1]
    d = mesh.vertices[mesh.edges[:, 0]] - mesh.vertices[mesh.edges[:, 1]]
    lengths = np.hypot(d[:, 0], d[:, 1])
    return {
        "areas": 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])),
        "barycenters": p.mean(axis=1),
        "gradient_factors": np.array([[y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]],
                                      [x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]]]),
        "edge_lengths": lengths,
        "diameters": lengths[mesh.tri_edges].max(axis=1),
    }


def reduction_bisect_refine(mesh, marked):
    """Newest-vertex bisection with the closure and split masks taken by
    row reductions, children emitted by boolean masks."""
    tri_edges = mesh.tri_edges
    edge_marked = np.zeros(len(mesh.edges), dtype=bool)
    edge_marked[tri_edges[marked, 2]] = True
    while True:
        need = edge_marked[tri_edges].any(axis=1) & ~edge_marked[tri_edges[:, 2]]
        if not need.any():
            break
        edge_marked[tri_edges[need, 2]] = True
    marked_edge_ids = np.nonzero(edge_marked)[0]
    midpoints = mesh.vertices[mesh.edges[marked_edge_ids]].mean(axis=1)
    mid_of_edge = np.full(len(mesh.edges), -1, dtype=np.int64)
    mid_of_edge[marked_edge_ids] = mesh.num_vertices + np.arange(len(marked_edge_ids))
    v0, v1, v2 = mesh.triangles.T
    m12, m20, m01 = (mid_of_edge[tri_edges[:, k]] for k in range(3))
    split = edge_marked[tri_edges[:, 2]]
    split_a, split_b = edge_marked[tri_edges[:, 1]], edge_marked[tri_edges[:, 0]]
    ids = np.arange(mesh.num_triangles)
    blocks = [(~split, v0, v1, v2), (split & ~split_a, v2, v0, m01),
              (split & split_a, m01, v2, m20), (split & split_a, v0, m01, m20),
              (split & ~split_b, v1, v2, m01), (split & split_b, m01, v1, m12),
              (split & split_b, v2, m01, m12)]
    triangles = np.concatenate([np.column_stack([a[s], b[s], c[s]]) for s, a, b, c in blocks])
    parents = np.concatenate([ids[s] for s, *_ in blocks])
    return np.concatenate([mesh.vertices, midpoints]), triangles, parents


def refined_meshes(steps=7, seed=3):
    """An NVB-refined mesh sequence with random marking, as in an adaptive path."""
    mesh = structured_unit_square(6)
    rng = np.random.default_rng(seed)
    meshes = [mesh]
    for _ in range(steps):
        marked = np.sort(rng.choice(mesh.num_triangles, mesh.num_triangles // 6, replace=False))
        mesh = bisect_refine(mesh, marked)
        meshes.append(mesh)
    return meshes


def assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestColumnKernelsBitIdentical:
    def test_edge_build_matches_unique_build(self):
        for mesh in refined_meshes():
            for name, want in unique_edge_build(mesh).items():
                assert_same_bits(getattr(mesh, name), want)

    def test_geometry_matches_gathered_formulas(self):
        for mesh in refined_meshes():
            for name, want in gathered_geometry(mesh).items():
                assert_same_bits(getattr(mesh, name), want)

    def test_derived_geometry_is_computed_once_and_read_only(self):
        for mesh in refined_meshes(steps=3) + [uniform_family(2)]:
            fresh = gathered_geometry(mesh)
            for name in ("areas", "barycenters", "gradient_factors", "edge_lengths"):
                kept = getattr(mesh, name)
                assert getattr(mesh, name) is kept
                assert not kept.flags.writeable
                with pytest.raises(ValueError):
                    kept[0] = 0.0
                assert_same_bits(kept, fresh[name])

    def test_bisect_refine_matches_reduction_formulas(self):
        rng = np.random.default_rng(11)
        for mesh in refined_meshes(steps=5):
            marked = np.sort(rng.choice(mesh.num_triangles, mesh.num_triangles // 4,
                                        replace=False))
            refined = bisect_refine(mesh, marked)
            vertices, triangles, parents = reduction_bisect_refine(mesh, marked)
            assert_same_bits(refined.vertices, vertices)
            assert_same_bits(refined.triangles, triangles)
            assert_same_bits(refined.parent_ids, parents)
