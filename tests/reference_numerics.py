"""Reference numerics that only the tests use: the exact solution of
-div(grad u) = 1 on the unit square with u = 0 on its boundary and the L2 and
H1 errors against it, the energy norm, the smallest angle of a mesh, the CDF
of Exp(r) and the element values of the unit coefficient.

The package computes none of them; the tests check the solver, the
bisection and the level draws against them.
"""

import numpy as np

from levelmc.fem import FESolution


def unit_coefficient(mesh) -> np.ndarray:
    """Element values a_K = 1 of the coefficient a = 1."""
    return np.ones(mesh.num_triangles)


def energy_norm(sol: FESolution, a_k) -> float:
    """Energy norm sqrt(sum_K a_K int_K |grad v|^2) of a solution or difference."""
    gx, gy = sol.gradient_sums
    return float(np.sqrt((a_k * ((gx**2 + gy**2) / (4.0 * sol.mesh.areas))).sum()))


# the exact solution of -div(grad u) = 1 is the sine series
#     u = sum_{m, n odd} 16 / (pi^4 m n (m^2 + n^2)) sin(m pi x) sin(n pi y);
# its terms up to m, n = 199 leave an L2 error below 1e-7
_ODD = np.arange(1, 200, 2)
_COEFFS = 16.0 / (np.pi**4 * np.outer(_ODD, _ODD) * (_ODD[:, None] ** 2 + _ODD**2))


def _exact_integral() -> float:
    """int u = sum_{m, n odd} 64 / (pi^6 m^2 n^2 (m^2 + n^2)), up to m, n = 2001:
    the tail is below 1e-11."""
    odd = np.arange(1, 2002, 2, dtype=np.float64)
    return float((64.0 / (np.pi**6 * np.outer(odd**2, odd**2) * (odd[:, None] ** 2 + odd**2)))
                 .sum())


EXACT_INTEGRAL = _exact_integral()  # 0.0351442537383...


def exact_solution(points) -> np.ndarray:
    """u at (N, 2) points, from the truncated sine series."""
    x, y = np.asarray(points, dtype=np.float64).T
    sin_x = np.sin(np.pi * np.outer(x, _ODD))
    sin_y = np.sin(np.pi * np.outer(y, _ODD))
    return ((sin_x @ _COEFFS) * sin_y).sum(axis=1)


def h1_seminorm_error(sol: FESolution) -> float:
    """|u - u_h|_1 by the energy identity |u - v|_1^2 = int u - 2 int v + |v|_1^2,
    which holds for every v in H^1_0 since int grad u . grad v = int v; for the
    Galerkin solution, where |u_h|_1^2 = int u_h, it is int u - rhs . x."""
    u0, u1, u2 = sol.corner_values
    integral = ((sol.mesh.areas / 3.0) * (u0 + u1 + u2)).sum()
    energy_sq = energy_norm(sol, unit_coefficient(sol.mesh)) ** 2
    return float(np.sqrt(EXACT_INTEGRAL - 2.0 * integral + energy_sq))


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


def error_norms(sol: FESolution):
    """(L2, H1) errors against the exact solution: the L2 error by degree-5
    quadrature of the sine series, the H1 seminorm by the energy identity."""
    mesh = sol.mesh
    pts = np.einsum("qi,mid->mqd", _QP, mesh.vertices[mesh.triangles])  # (M, Q, 2)
    uh = np.einsum("qi,mi->mq", _QP, np.column_stack(sol.corner_values))
    du = (exact_solution(pts.reshape(-1, 2)).reshape(uh.shape) - uh) ** 2
    l2_sq = (mesh.areas[:, None] * _QW * du).sum()
    return float(np.sqrt(l2_sq)), float(np.sqrt(l2_sq + h1_seminorm_error(sol) ** 2))


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
