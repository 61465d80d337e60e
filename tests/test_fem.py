import dataclasses
import gc
import itertools
import weakref
from functools import cache

import numpy as np
import pytest
import scipy.sparse as sp
from adaptive_replay import REPLAYED, replay_hierarchy
from reference_numerics import energy_norm, error_norms

import levelmc.indicator
import levelmc.mlmc
from levelmc.coefficient import CoefficientSample
from levelmc.fem import (
    BAND_MAX,
    AssemblyError,
    FESolution,
    SolverError,
    _grid_transfer,
    _grid_transfers,
    _vcycle,
    assemble,
    h1_norm,
    pcg,
    solve,
)
from levelmc.indicator import adaptive_hierarchy
from levelmc.mesh import (
    TriMesh,
    aligned_structured_mesh,
    level_resolution,
    structured_unit_square,
    uniform_family,
)
from levelmc.mlmc import PdeLevelModel


def hand_assembled_two_triangle_stiffness():
    """Global stiffness for the 2-triangle unit square with a = 1.

    Vertices (0,0), (1,0), (1,1), (0,1); both triangles are unit right
    triangles, local matrices computed by hand from the P1 gradients.
    """
    # triangle (v0,v1,v2) with legs h: K = 1/2 [[2,-1,-1],[-1,1,0],[-1,0,1]]
    # rotated per orientation; the assembled 4x4 (before boundary elimination):
    return np.array(
        [
            [1.0, -0.5, 0.0, -0.5],
            [-0.5, 1.0, -0.5, 0.0],
            [0.0, -0.5, 1.0, -0.5],
            [-0.5, 0.0, -0.5, 1.0],
        ]
    )


class TestAssemble:
    def test_two_triangle_unit_square_matches_hand_computation(self):
        mesh = structured_unit_square(1)
        # keep all vertices: compare the full matrix via a mesh with no
        # boundary elimination by assembling elementwise ourselves
        from levelmc.fem import element_coefficients

        b, c = (columns.T for columns in mesh.gradient_factors)
        a_k = element_coefficients(mesh, None)
        full = np.zeros((4, 4))
        for m, tri in enumerate(mesh.triangles):
            local = (np.outer(b[m], b[m]) + np.outer(c[m], c[m])) / (4 * mesh.areas[m])
            for i in range(3):
                for j in range(3):
                    full[tri[i], tri[j]] += a_k[m] * local[i, j]
        expected = hand_assembled_two_triangle_stiffness()
        # structured mesh numbers vertices (0,0),(1,0),(0,1),(1,1); the hand
        # matrix walks the square boundary (0,0),(1,0),(1,1),(0,1)
        perm = [0, 1, 3, 2]
        assert np.allclose(full[np.ix_(perm, perm)], expected)

    def test_zero_source_zero_load(self):
        mesh = structured_unit_square(3)
        system = assemble(mesh, None, 0.0)
        assert np.all(system.rhs == 0.0)

    def test_stiffness_scales_linearly_in_coefficient(self):
        mesh = structured_unit_square(4)
        one = assemble(mesh, 1.0, 1.0).matrix
        seven = assemble(mesh, 7.0, 1.0).matrix
        assert np.allclose((7.0 * one - seven).toarray(), 0.0)

    def test_symmetry_and_coercivity(self):
        mesh = structured_unit_square(5)
        coeff = CoefficientSample("box", 0.5, 0.5, 300.0, length=0.25)
        system = assemble(mesh, coeff, 1.0)
        asym = abs(system.matrix - system.matrix.T).max()
        assert asym == 0.0
        eigvals = np.linalg.eigvalsh(system.matrix.toarray())
        assert eigvals.min() > 0.0

    def test_degenerate_triangle_rejected(self):
        with pytest.raises(ValueError):
            # zero-area triangle fails the orientation check at construction
            TriMesh([[0, 0], [1, 0], [2, 0]], [[0, 1, 2]])

    def test_callable_source_matches_constant(self):
        mesh = structured_unit_square(4)
        const = assemble(mesh, None, 2.5).rhs
        func = assemble(mesh, None, lambda p: np.full(len(p), 2.5)).rhs
        assert np.allclose(const, func)


class TestSolve:
    def test_zero_rhs_zero_solution(self):
        mesh = structured_unit_square(4)
        sol = solve(assemble(mesh, None, 0.0))
        assert np.all(sol.values == 0.0)

    def test_cg_exact_on_small_spd_system(self):
        import scipy.sparse as sp

        matrix = sp.csr_matrix(np.array([
            [4.0, 1.0, 0.0],
            [1.0, 3.0, 1.0],
            [0.0, 1.0, 5.0],
        ]))
        rhs = np.array([1.0, 2.0, 3.0])
        x, iterations, relres = pcg(matrix, rhs, rtol=1e-12)
        assert iterations <= 3  # Krylov exactness in at most n steps
        assert np.allclose(matrix @ x, rhs, atol=1e-10)

    def test_residual_below_tolerance(self):
        mesh = structured_unit_square(8)
        coeff = CoefficientSample("cross", 0.45, 0.55, 300.0)
        system = assemble(mesh, coeff, 1.0)
        sol = solve(system)
        residual = system.rhs - system.matrix @ sol.values[system.free]
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(system.rhs)

    def test_discrete_max_principle(self):
        # f >= 0 and a > 0 on a non-obtuse structured mesh: u >= 0
        mesh = structured_unit_square(9)
        coeff = CoefficientSample("box", 0.5, 0.5, 50.0, length=0.3)
        sol = solve(assemble(mesh, coeff, 1.0))
        assert sol.values.min() >= -1e-14

    def test_nonconvergence_raises_with_residual(self):
        # an rtol below machine precision: neither CG nor a factorisation reaches it
        cg_system = wide_bisected_system()
        with pytest.raises(SolverError) as err:
            solve(cg_system, rtol=1e-30)
        assert err.value.residual > 0
        assert err.value.iterations > 0
        banded_system = assemble(structured_unit_square(12), None, 1.0)
        assert banded_system.band is not None
        with pytest.raises(SolverError) as err:
            solve(banded_system, rtol=1e-30)
        assert err.value.residual > 0
        assert err.value.iterations == 0

    def test_boundary_values_exactly_zero(self):
        mesh = structured_unit_square(6)
        sol = solve(assemble(mesh, None, 1.0))
        assert np.all(sol.values[mesh.boundary_vertex] == 0.0)


class TestNorms:
    def test_zero_solution(self):
        mesh = structured_unit_square(3)
        sol = FESolution(mesh, np.zeros(mesh.num_vertices))
        assert h1_norm(sol) == 0.0
        assert energy_norm(sol, 1.0) == 0.0

    def test_linear_interpolant_exact(self):
        # v(x, y) = x: integral of v^2 + |grad v|^2 = 1/3 + 1 = 4/3
        mesh = structured_unit_square(5)
        sol = FESolution(mesh, mesh.vertices[:, 0].copy())
        assert h1_norm(sol) ** 2 == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_energy_norm_equals_h1_seminorm_for_unit_coefficient(self):
        mesh = structured_unit_square(4)
        sol = solve(assemble(mesh, None, 1.0))
        grad_sq = h1_norm(sol) ** 2 - _mass_sq(sol)
        assert energy_norm(sol, 1.0) ** 2 == pytest.approx(grad_sq, rel=1e-10)

    def test_energy_norm_nondecreasing_on_nested_refinement(self):
        # aligned meshes keep the elementwise coefficient exact under
        # refinement, so Galerkin energy maximization applies verbatim
        coeff = REPLAYED["aligned"][0]
        energies = [energy_norm(sol, coeff) for _, sol, _ in replay_hierarchy(*REPLAYED["aligned"])]
        assert all(b >= a - 1e-12 for a, b in zip(energies, energies[1:]))

    def test_weak_error_decreases_with_adaptivity(self):
        from levelmc.harness import aligned_reference_qoi

        coeff = CoefficientSample("box", 0.4, 0.6, 300.0, length=0.3)
        q_ref = aligned_reference_qoi(coeff, 64)
        # levels 1.203 and 1.389 at steps 9 and 10: the path stops at step 10
        hierarchy = adaptive_hierarchy(coeff, 0.5, structured_unit_square(15), max_level=1.3)
        assert len(hierarchy.steps) == 11
        errors = np.abs(q_ref - hierarchy.qois)
        # statistical trend over levels: the tail is far closer than the head
        assert errors[-1] < 0.1 * errors[0]
        assert np.mean(errors[-3:]) < np.mean(errors[:3])


def _mass_sq(sol):
    mesh, u = sol.mesh, sol.values
    ue = u[mesh.triangles]
    return float(((mesh.areas / 12.0) * ((ue.sum(1)) ** 2 + (ue**2).sum(1))).sum())


class TestManufacturedSolution:
    def test_convergence_rates(self):
        exact = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
        grad = lambda p: np.stack(
            [
                np.pi * np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
                np.pi * np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
            ],
            axis=1,
        )
        f = lambda p: 2 * np.pi**2 * exact(p)

        sizes = [8, 12, 18, 27, 40]
        l2, h1 = [], []
        for n in sizes:
            sol = solve(assemble(structured_unit_square(n), None, f))
            e_l2, e_h1 = error_norms(sol, exact, grad)
            l2.append(e_l2)
            h1.append(e_h1)
        h = 1.0 / np.array(sizes)
        rate_h1 = np.polyfit(np.log(h), np.log(h1), 1)[0]
        rate_l2 = np.polyfit(np.log(h), np.log(l2), 1)[0]
        assert rate_h1 == pytest.approx(1.0, abs=0.15)
        assert rate_l2 == pytest.approx(2.0, abs=0.2)


# -- the column kernels against the array formulas they replaced -------------
# Per-sample outputs are discontinuous in round-off, so these checks ask for
# equal bits, not closeness.


def contrast_300_meshes():
    """A box coefficient at contrast 300 and meshes refined towards its jumps."""
    coeff = REPLAYED["contrast-300"][0]
    return coeff, [mesh for mesh, _, _ in replay_hierarchy(*REPLAYED["contrast-300"])]


def gathered_gradient_factors(mesh):
    p = mesh.vertices[mesh.triangles]
    x, y = p[:, :, 0], p[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    return b, c


def lexsort_stiffness(mesh, a_k):
    """CSR indices, indptr and data by a lexsorted slot map of the entries."""
    free = np.nonzero(~mesh.boundary_vertex)[0]
    dof_of = np.full(mesh.num_vertices, -1, dtype=np.int64)
    dof_of[free] = np.arange(len(free))
    b, c = gathered_gradient_factors(mesh)
    geo = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) \
        / (4.0 * mesh.areas)[:, None, None]
    t = mesh.triangles
    rows = dof_of[np.repeat(t, 3, axis=1).ravel()]
    cols = dof_of[np.tile(t, (1, 3)).ravel()]
    keep = (rows >= 0) & (cols >= 0)
    rows, cols = rows[keep], cols[keep]
    order = np.lexsort((cols, rows))
    ro, co = rows[order], cols[order]
    new_entry = np.ones(len(ro), dtype=bool)
    new_entry[1:] = (ro[1:] != ro[:-1]) | (co[1:] != co[:-1])
    slots = np.empty(len(ro), dtype=np.int64)
    slots[order] = np.cumsum(new_entry) - 1
    weights = a_k[np.repeat(np.arange(len(t)), 9)[keep]] * geo.ravel()[keep]
    data = np.bincount(slots, weights=weights, minlength=int(new_entry.sum()))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(ro[new_entry], minlength=len(free)))])
    return co[new_entry], indptr, data


def allocating_pcg(matrix, rhs, rtol=1e-10):
    """Jacobi-PCG with a fresh array for every update and np.linalg.norm."""
    n = len(rhs)
    rhs_norm = np.linalg.norm(rhs)
    maxiter = int(np.ceil(20.0 * np.sqrt(n)))
    inv_diag = 1.0 / matrix.diagonal()
    x = np.zeros(n)
    r = rhs.copy()
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    for it in range(1, maxiter + 1):
        ap = matrix @ p
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= rtol * rhs_norm:
            true_res = np.linalg.norm(rhs - matrix @ x)
            if true_res <= rtol * rhs_norm:
                return x, it, true_res / rhs_norm
            r = rhs - matrix @ x
        z = inv_diag * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, maxiter, np.linalg.norm(rhs - matrix @ x) / rhs_norm


# bytes of the (slot x element) scatter matrix that held the level-6 stiffness
# terms before the assembler read the edge table (6.69 MiB)
LEVEL_6_SCATTER_BYTES = 7_013_580


class TestColumnKernelsBitIdentical:
    def test_assembler_pattern_and_data_match_lexsort_build(self):
        # every family the one assembler serves: bisected meshes of an adaptive
        # path, one wider than BAND_MAX, uniform levels and aligned meshes
        coeff, meshes = contrast_300_meshes()
        cases = [(coeff, mesh) for mesh in meshes + [wide_bisected_mesh()]]
        cases += [(CONTRAST_300["box"], uniform_family(level)) for level in range(7)]
        cases += [(CONTRAST_300[kind], level_mesh(kind, level, aligned=True))
                  for kind in ("box", "cross") for level in (0, 3, 5)]
        for coeff, mesh in cases:
            matrix = assemble(mesh, coeff, 1.0).matrix
            indices, indptr, data = lexsort_stiffness(mesh, coeff.element_values(mesh))
            assert np.array_equal(matrix.indices, indices)
            assert np.array_equal(matrix.indptr, indptr)
            assert np.array_equal(matrix.data, data)

    def test_level_6_assembler_holds_less_than_the_scatter_matrix(self):
        mesh = uniform_family(6)
        assemble(mesh)
        held = vars(mesh._fem_assembler).copy()
        # the corner list is the mesh's own triangles, not a copy
        corners = held.pop("_corners")
        assert np.shares_memory(corners, mesh.triangles) and corners.base is not None
        assert {held[name].dtype for name in ("indices", "indptr", "_source", "_side_tris")} \
            == {np.dtype(np.int32)}
        held.pop("transfers")     # the V-cycle's, as before
        arrays = [value for value in held.values() if isinstance(value, np.ndarray)]
        arrays += [part for value in held.values() if sp.issparse(value)
                   for part in (value.data, value.indices, value.indptr)]
        assert sum(a.nbytes for a in arrays) <= LEVEL_6_SCATTER_BYTES

    def test_unit_load_matches_add_at(self):
        _, meshes = contrast_300_meshes()
        for mesh in meshes:
            load = np.zeros(mesh.num_vertices)
            np.add.at(load, mesh.triangles.ravel(), np.repeat(mesh.areas / 3.0, 3))
            assert np.array_equal(assemble(mesh, None, 1.0).rhs, load[~mesh.boundary_vertex])

    def test_pcg_matches_allocating_loop(self):
        coeff, meshes = contrast_300_meshes()
        counts = []
        # at 1e-14 one recursive residual passes while the true one does
        # not, so the loop restarts from the true residual once
        for mesh, rtol in itertools.product(meshes, (1e-10, 1e-14)):
            system = assemble(mesh, coeff, 1.0)
            x, iterations, relres = pcg(system.matrix, system.rhs, rtol=rtol)
            x_ref, iterations_ref, relres_ref = allocating_pcg(system.matrix, system.rhs, rtol)
            assert iterations == iterations_ref
            assert relres == relres_ref
            assert np.array_equal(x, x_ref)
            counts.append(iterations)
        assert max(counts) > 30

    def test_h1_norm_matches_row_reductions(self):
        coeff, meshes = contrast_300_meshes()
        for mesh in meshes:
            sol = solve(assemble(mesh, coeff, 1.0))
            ue = sol.values[mesh.triangles]
            b, c = gathered_gradient_factors(mesh)
            grad_sq = ((ue * b).sum(axis=1) ** 2 + (ue * c).sum(axis=1) ** 2) \
                / (4.0 * mesh.areas)
            mass = (mesh.areas / 12.0) * (ue.sum(axis=1) ** 2 + (ue**2).sum(axis=1))
            assert h1_norm(sol) == float(np.sqrt(mass.sum() + grad_sq.sum()))


# -- the V-cycle preconditioner on tensor meshes ------------------------------

CONTRAST_300 = {
    "box": CoefficientSample("box", 0.47, 0.53, 300.0, length=0.26),
    "cross": CoefficientSample("cross", 0.45, 0.55, 300.0),
}


def level_mesh(kind, level, aligned):
    """A uniform-family mesh, or the aligned tensor mesh of the same resolution."""
    if aligned:
        return aligned_structured_mesh(*CONTRAST_300[kind].break_lines(),
                                       level_resolution(level))
    return uniform_family(level)


def preconditioner_matrix(system, transfers):
    """The V-cycle of a system as a dense matrix, one column per unit vector."""
    apply = _vcycle(system.matrix, transfers)
    n = system.num_dof
    columns = np.empty((n, n))
    for i, unit in enumerate(np.eye(n)):
        apply(unit, columns[i])
    return columns.T


@cache
def wide_bisected_mesh():
    """A bisected mesh whose band is wider than BAND_MAX (1,375 DOF, band 133)."""
    coeff, mesh, _ = REPLAYED["contrast-300"]
    return replay_hierarchy(coeff, mesh, 18)[-1][0]


def wide_bisected_system():
    return assemble(wide_bisected_mesh(), REPLAYED["contrast-300"][0])


def rcm_band(matrix):
    """The band of a symmetric sparse matrix under reverse Cuthill-McKee."""
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    perm = reverse_cuthill_mckee(matrix.tocsr(), symmetric_mode=True)
    position = np.argsort(perm)
    coo = matrix.tocoo()
    return int(np.abs(position[coo.row] - position[coo.col]).max())


class TestMultigrid:
    # tensor meshes of at most BAND_MAX + 1 cells a side are factored, so the
    # V-cycle's own properties are checked with explicitly built transfers
    def test_transfer_reproduces_linear_functions_inside_the_coarse_grid(self):
        cells = 9
        # gridlines at the box's breaks: most fine vertices are not coarse ones
        points = level_mesh("box", 2, aligned=True).vertices
        axis = np.arange(1, cells) / cells
        coarse_x, coarse_y = np.tile(axis, cells - 1), np.repeat(axis, cells - 1)

        def linear(x, y):
            return 0.3 + 1.7 * x - 2.9 * y

        # cells whose corners are all interior grid vertices
        inside = np.all((points >= 1.0 / cells) & (points <= 1.0 - 1.0 / cells), axis=1)
        interpolated = _grid_transfer(points, cells) @ linear(coarse_x, coarse_y)
        assert inside.sum() > 100
        assert np.allclose(interpolated[inside], linear(*points[inside].T), rtol=0, atol=1e-12)

    def test_transfers_halve_the_cells_down_to_the_coarsest_grid(self):
        system = assemble(uniform_family(6))        # 171 cells a side
        assert [p.shape for p, _ in system.transfers] == \
            [(170**2, 84**2), (84**2, 41**2), (41**2, 20**2), (20**2, 9**2)]
        assert all((r != p.T).nnz == 0 for p, r in system.transfers)
        # bisected meshes and tensor meshes narrow enough to be factored
        _, meshes = contrast_300_meshes()
        for mesh in meshes + [wide_bisected_mesh(), structured_unit_square(BAND_MAX + 1),
                              uniform_family(1)]:
            assert assemble(mesh).transfers == ()
        assert assemble(structured_unit_square(BAND_MAX + 2)).transfers

    @pytest.mark.parametrize("kind", ["box", "cross"])
    def test_vcycle_is_symmetric_and_positive_definite(self, kind):
        system = assemble(uniform_family(2), CONTRAST_300[kind])
        transfers = _grid_transfers(system.mesh, system.free)    # 34 -> 17 -> 8 cells
        assert len(transfers) == 2
        m = preconditioner_matrix(system, transfers)
        assert np.abs(m - m.T).max() <= 1e-12 * np.abs(m).max()
        assert np.linalg.eigvalsh(0.5 * (m + m.T)).min() > 0.0
        rng = np.random.default_rng(3)
        u, v = rng.standard_normal((2, system.num_dof))
        assert u @ m @ v == pytest.approx(v @ m @ u, rel=1e-12)
        assert u @ m @ u > 0.0

    @pytest.mark.parametrize("kind, aligned", itertools.product(["box", "cross"], [False, True]))
    def test_multigrid_solve_matches_jacobi_pcg(self, kind, aligned):
        system = assemble(level_mesh(kind, 3, aligned), CONTRAST_300[kind])
        transfers = _grid_transfers(system.mesh, system.free)
        assert transfers
        x_mg, iterations, relres = pcg(system.matrix, system.rhs,
                                       precondition=_vcycle(system.matrix, transfers))
        x, jacobi_iterations, _ = pcg(system.matrix, system.rhs)
        assert relres <= 1e-10
        assert iterations < jacobi_iterations / 5
        assert np.abs(x_mg - x).max() <= 1e-9 * np.abs(x).max()

    def test_iterations_stay_bounded_at_uniform_level_6(self):
        # uniform level 5 is factored; on level 6 the V-cycle takes 31 iterations
        system = assemble(uniform_family(6), CONTRAST_300["box"])
        assert system.band is None and system.transfers
        sol = solve(system)
        assert 0 < sol.iterations <= 40
        assert not sol.factored

    def test_bisected_and_coarse_meshes_keep_the_jacobi_bits(self):
        # the bisected meshes that are not factored: bands wider than BAND_MAX
        system = wide_bisected_system()
        assert system.band is None and system.transfers == ()
        sol = solve(system)
        x, iterations, relres = pcg(system.matrix, system.rhs)
        assert (sol.iterations, sol.residual) == (iterations, relres)
        assert np.array_equal(sol.values[system.free], x)


# -- banded Cholesky on narrow-band systems ----------------------------------


def narrow_band_mesh(kind, mesh_kind):
    """A uniform, aligned or bisected mesh whose band is at most BAND_MAX; a
    uniform or aligned mesh is of level 3, or of level 5 with the suffix -5,
    the widest factored level (114 cells a side, aligned up to 116)."""
    if mesh_kind == "bisected":
        return replay_hierarchy(CONTRAST_300[kind], structured_unit_square(7), 8)[-1][0]
    tensor, _, level = mesh_kind.partition("-")
    return level_mesh(kind, int(level or 3), tensor == "aligned")


class TestBandedCholesky:
    @pytest.mark.parametrize("kind, mesh_kind", itertools.product(
        ["box", "cross"], ["uniform", "aligned", "bisected", "uniform-5", "aligned-5"]))
    def test_banded_solve_matches_jacobi_pcg(self, kind, mesh_kind):
        system = assemble(narrow_band_mesh(kind, mesh_kind), CONTRAST_300[kind])
        assert system.band is not None and system.transfers == ()
        sol = solve(system)
        x, _, _ = pcg(system.matrix, system.rhs)
        assert sol.iterations == 0 and sol.factored
        u = sol.values[system.free]
        assert np.abs(u - x).max() <= 1e-9 * np.abs(x).max()
        residual = np.linalg.norm(system.rhs - system.matrix @ u) / np.linalg.norm(system.rhs)
        assert sol.residual == pytest.approx(residual, rel=1e-12)
        assert sol.residual <= 1e-12
        assert np.all(sol.values[system.mesh.boundary_vertex] == 0.0)

    @pytest.mark.parametrize("cells", [3, 7, 15, 34, 101, BAND_MAX + 1])
    def test_band_of_a_tensor_mesh_is_cells_minus_one(self, cells):
        assert assemble(structured_unit_square(cells)).band.width == cells - 1

    def test_layout_exists_exactly_when_the_band_is_narrow(self):
        _, meshes = contrast_300_meshes()
        meshes += [wide_bisected_mesh(), uniform_family(0), uniform_family(4),
                   level_mesh("cross", 2, aligned=True), structured_unit_square(BAND_MAX + 1),
                   structured_unit_square(BAND_MAX + 2)]
        narrow = []
        for mesh in meshes:
            system = assemble(mesh, CONTRAST_300["box"])
            band = rcm_band(system.matrix)
            narrow.append(band <= BAND_MAX)
            assert (system.band is not None) == (band <= BAND_MAX)
            if system.band is not None:
                assert system.band.width == band
        assert sum(narrow) == len(narrow) - 2

    def test_indefinite_matrix_raises_and_zero_rhs_gives_zero(self):
        system = assemble(uniform_family(0), CONTRAST_300["box"])
        assert system.band is not None
        with pytest.raises(SolverError) as err:
            solve(dataclasses.replace(system, matrix=-system.matrix))
        assert err.value.iterations == 0
        sol = solve(dataclasses.replace(system, rhs=np.zeros(system.num_dof)))
        assert (sol.iterations, sol.residual) == (0, 0.0)
        assert np.all(sol.values == 0.0)


# -- a mesh dies with the step that built it ---------------------------------


@pytest.fixture
def gc_disabled():
    """Reference counting alone frees objects, so a reference cycle keeps them alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def record_meshes(monkeypatch, module, name):
    """Make module.name, a mesh builder, keep a weak reference to each mesh it builds."""
    built = []
    build = getattr(module, name)

    def recording(*args, **kwargs):
        mesh = build(*args, **kwargs)
        built.append(weakref.ref(mesh))
        return mesh

    monkeypatch.setattr(module, name, recording)
    return built


class TestMeshLifetime:
    def test_adaptive_hierarchy_keeps_no_mesh(self, monkeypatch, gc_disabled):
        built = record_meshes(monkeypatch, levelmc.indicator, "bisect_refine")
        coeff, mesh, refinements = REPLAYED["contrast-300"]
        # levels 0.775 and 0.930 at steps 5 and 6: the path stops at step 6
        hierarchy = adaptive_hierarchy(coeff, 0.5, mesh, max_level=0.9)
        assert len(built) == len(hierarchy.steps) - 1 == refinements
        assert [ref() for ref in built] == [None] * refinements

    def test_aligned_pair_keeps_no_mesh(self, monkeypatch, gc_disabled):
        built = record_meshes(monkeypatch, levelmc.mlmc, "aligned_structured_mesh")
        PdeLevelModel("box", 300.0, base_n=4, seed=1, aligned=True).pair(2, 0)
        assert len(built) == 2
        assert [ref() for ref in built] == [None, None]
