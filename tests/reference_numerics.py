"""Reference numerics that only the tests use: the L2 and H1 errors against a
smooth exact solution, the energy norm, the smallest angle of a mesh and
the CDF of Exp(r).

The package computes none of them; the tests check the solver, the
bisection and the level draws against them.
"""

import numpy as np

from levelmc.fem import FESolution, element_coefficients


def energy_norm(sol: FESolution, coeff) -> float:
    """Energy norm sqrt(sum_K a_K int_K |grad v|^2) of a solution or difference."""
    a_k = element_coefficients(sol.mesh, coeff)
    gx, gy = sol.gradient_sums
    return float(np.sqrt((a_k * ((gx**2 + gy**2) / (4.0 * sol.mesh.areas))).sum()))


# degree-5 quadrature on the reference triangle (barycentric points, weights sum to 1)
_QW = np.array(
    [9.0 / 40.0]
    + [(155.0 + np.sqrt(15.0)) / 1200.0] * 3
    + [(155.0 - np.sqrt(15.0)) / 1200.0] * 3
)
_a1, _b1 = (6.0 + np.sqrt(15.0)) / 21.0, (9.0 - 2.0 * np.sqrt(15.0)) / 21.0
_a2, _b2 = (6.0 - np.sqrt(15.0)) / 21.0, (9.0 + 2.0 * np.sqrt(15.0)) / 21.0
_QP = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [_b1, _a1, _a1], [_a1, _b1, _a1], [_a1, _a1, _b1],
        [_b2, _a2, _a2], [_a2, _b2, _a2], [_a2, _a2, _b2],
    ]
)


def error_norms(sol: FESolution, exact, exact_grad):
    """(L2, H1) errors against a smooth exact solution via degree-5 quadrature."""
    mesh = sol.mesh
    p = mesh.vertices[mesh.triangles]          # (M, 3, 2)
    pts = np.einsum("qi,mid->mqd", _QP, p)     # (M, Q, 2)
    flat = pts.reshape(-1, 2)
    uh = np.einsum("qi,mi->mq", _QP, np.column_stack(sol.corner_values))
    gx, gy = sol.gradient_sums
    gxh = gx / (2.0 * mesh.areas)
    gyh = gy / (2.0 * mesh.areas)

    du = (np.asarray(exact(flat)).reshape(uh.shape) - uh) ** 2
    g = np.asarray(exact_grad(flat)).reshape(pts.shape[0], pts.shape[1], 2)
    dg = (g[:, :, 0] - gxh[:, None]) ** 2 + (g[:, :, 1] - gyh[:, None]) ** 2

    l2_sq = (mesh.areas[:, None] * _QW * du).sum()
    h1_semi_sq = (mesh.areas[:, None] * _QW * dg).sum()
    return float(np.sqrt(l2_sq)), float(np.sqrt(l2_sq + h1_semi_sq))


def min_angle(mesh) -> float:
    """Smallest interior angle over all triangles of a mesh (radians)."""
    p = mesh.vertices[mesh.triangles]
    angles = []
    for i in range(3):
        a = p[:, (i + 1) % 3] - p[:, i]
        b = p[:, (i + 2) % 3] - p[:, i]
        cosang = (a * b).sum(axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        angles.append(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return float(np.min(angles))


def exp_cdf(t, r: float):
    """CDF of Exp(r); inverse of ``levelmc.sampling.inv_exp_cdf``."""
    if r <= 0:
        raise ValueError("rate must be positive")
    return -np.expm1(-r * np.asarray(t, dtype=np.float64))
