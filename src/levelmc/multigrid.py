"""Black-box multigrid for operators on logically rectangular grids.

The grids are the free vertices of a tensor mesh, numbered row by row, and
below it every other row and column of the grid above (Alcouffe, Brandt,
Dendy & Painter, SISSC 1981; Dendy, J. Comput. Phys. 1982).  Operators on
them have at most nine-point stencils, read as (9, my, mx) arrays of each
point's couplings; the stiffness of the tensor triangulation has seven.
The patterns of the interpolations depend on the grids alone and are built
once per mesh; their weights and the Galerkin coarse operators depend on
the coefficient and are built per solve, from the operator they coarsen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = ["coarsenings", "vcycle"]

COARSEST_CELLS = 8        # the V-cycle's coarsest grid has at most this many cells a side
SMOOTHING_WEIGHT = 0.7    # of the V-cycle's damped Jacobi sweeps

# a grid point's nine couplings, to the points at row offset dy and column
# offset dx (each -1, 0 or 1), are numbered 3 (dy + 1) + dx + 1
SW, S, SE, W, C, E, NW, N, NE = range(9)


@dataclass(frozen=True)
class _Coarsening:
    """The fixed patterns of one coarsening of a grid of ``shape`` = (my, mx)
    points: the coarse points are those in odd rows and odd columns
    (counting from 0), and P and P^T take their values from
    _prolongation_weights at positions ``source``."""

    shape: tuple
    prolong: tuple            # (indptr, indices, source) of P
    restrict: tuple           # the same of P^T
    slots: np.ndarray | None  # _stencil_slots of the grid's operator, if its pattern is fixed

    @property
    def coarse_shape(self) -> tuple:
        return self.shape[0] // 2, self.shape[1] // 2


def _coarsening(my: int, mx: int, slots=None) -> _Coarsening:
    myc, mxc, mye, mxe = my // 2, mx // 2, (my + 1) // 2, (mx + 1) // 2
    fine = np.arange(my * mx).reshape(my, mx)
    # coarse point (l, k) sits at fine (2l + 1, 2k + 1); -1 marks the boundary
    coarse = np.full((myc + 2, mxc + 2), -1)
    coarse[1:-1, 1:-1] = np.arange(myc * mxc).reshape(myc, mxc)
    x_edges, y_edges, cells = fine[1::2, 0::2], fine[0::2, 1::2], fine[0::2, 0::2]
    entries = [          # (fine points, their coarse neighbours), as in _prolongation_weights
        (fine[1::2, 1::2], coarse[1:-1, 1:-1]),
        (x_edges, coarse[1:myc + 1, :mxe]), (x_edges, coarse[1:myc + 1, 1:mxe + 1]),
        (y_edges, coarse[:mye, 1:mxc + 1]), (y_edges, coarse[1:mye + 1, 1:mxc + 1]),
        (cells, coarse[:mye, :mxe]), (cells, coarse[:mye, 1:mxe + 1]),
        (cells, coarse[1:mye + 1, :mxe]), (cells, coarse[1:mye + 1, 1:mxe + 1]),
    ]
    rows = np.concatenate([points.ravel() for points, _ in entries])
    cols = np.concatenate([neighbours.ravel() for _, neighbours in entries])
    keep = cols >= 0
    rows, cols, source = rows[keep], cols[keep], np.flatnonzero(keep)

    def csr(rows, cols, size):
        # a stable sort keeps the kinds' order within a row (for P, that of
        # the columns); each kind's rows ascend, so it merges nine runs
        order = np.argsort(rows, kind="stable")
        indptr = np.searchsorted(rows[order], np.arange(size + 1))
        return tuple(a.astype(np.int32) for a in (indptr, cols[order], source[order]))

    return _Coarsening((my, mx), csr(rows, cols, my * mx), csr(cols, rows, myc * mxc), slots)


def coarsenings(shape, indptr, indices) -> tuple:
    """The coarsenings of a tensor mesh of shape (nx, ny) cells and stiffness
    pattern (indptr, indices), from the grid of its free vertices down to a
    grid of fewer than COARSEST_CELLS points a side, or of fewer than 6 on
    its shorter side."""
    nx, ny = shape
    grid = (ny - 1, nx - 1)
    out = [_coarsening(*grid, _stencil_slots(indptr, indices, grid))]
    while max(grid := out[-1].coarse_shape) >= COARSEST_CELLS and min(grid) >= 6:
        out.append(_coarsening(*grid))
    return tuple(out)


def _stencil_slots(indptr, indices, shape) -> np.ndarray:
    """Where the CSR entries of an operator on a grid of ``shape``, whose
    rows have at least 3 points, go in the flat (9, my, mx) array of
    _stencil."""
    my, mx = shape
    n = my * mx
    rows = np.repeat(np.arange(n), np.diff(indptr))
    # an offset dy mx + dx, shifted by mx + 1, is dx + 1 modulo mx and dy + 1
    # times mx above it
    direction = np.zeros(2 * mx + 3, dtype=np.int64)
    for dy in range(3):
        direction[dy * mx:dy * mx + 3] = (3 * dy + np.arange(3)) * n
    rows += direction[indices - rows + (mx + 1)]
    return rows


def _stencil(matrix, shape, slots=None) -> np.ndarray:
    """The (9, my, mx) couplings of each point of a grid operator; missing
    ones are zero.  ``slots`` are those of the matrix's pattern, if known: a
    Galerkin product's pattern drops the entries that cancel."""
    if slots is None:
        slots = _stencil_slots(matrix.indptr, matrix.indices, shape)
    stencil = np.zeros(9 * math.prod(shape))
    stencil[slots] = matrix.data
    return stencil.reshape(9, *shape)


def _prolongation_weights(a) -> np.ndarray:
    """Dendy's operator-dependent interpolation weights from the stencil
    ``a`` of a grid operator, in the order of the entries of _coarsening.

    A coarse point keeps its value.  An edge point between two coarse points
    takes their values weighted by the couplings across the edge, summed
    along it: on an x-edge, w_W = -(a_W + a_NW + a_SW) / (a_C + a_N + a_S).
    A cell point solves its own row given its eight neighbours, with its
    edge neighbours' interpolations in place.
    """
    x, y, cell = a[:, 1::2, 0::2], a[:, 0::2, 1::2], a[:, 0::2, 0::2]
    across = x[C] + x[N] + x[S]
    x_west, x_east = -(x[W] + x[NW] + x[SW]) / across, -(x[E] + x[NE] + x[SE]) / across
    across = y[C] + y[W] + y[E]
    y_south, y_north = -(y[S] + y[SW] + y[SE]) / across, -(y[N] + y[NW] + y[NE]) / across
    mye, mxe = cell[C].shape

    def padded(weights, rows, cols):
        # the edge neighbours' weights on the cells' index grid, 0 beyond the grid
        out = np.zeros((mye + 1, mxe + 1))
        out[rows:rows + weights.shape[0], cols:cols + weights.shape[1]] = weights
        return out

    xw, xe = padded(x_west, 1, 0), padded(x_east, 1, 0)      # below a cell: row l
    ys, yn = padded(y_south, 0, 1), padded(y_north, 0, 1)    # left of a cell: column k
    below, above = slice(0, mye), slice(1, mye + 1)
    left, right = slice(0, mxe), slice(1, mxe + 1)
    corners = [
        -(cell[SW] + cell[W] * ys[below, left] + cell[S] * xw[below, left]),
        -(cell[SE] + cell[E] * ys[below, right] + cell[S] * xe[below, left]),
        -(cell[NW] + cell[W] * yn[below, left] + cell[N] * xw[above, left]),
        -(cell[NE] + cell[E] * yn[below, right] + cell[N] * xe[above, left]),
    ]
    return np.concatenate([np.ones(x_west.shape[0] * y_south.shape[1]), x_west.ravel(),
                           x_east.ravel(), y_south.ravel(), y_north.ravel()]
                          + [(w / cell[C]).ravel() for w in corners])


def vcycle(matrix, coarsenings):
    """Symmetric V(1,1)-cycle preconditioner ``apply(r, z)``, z = B r.

    Each coarsening's P takes Dendy's weights from the operator it coarsens,
    whose Galerkin product P^T A P is the next operator; all are built per
    call.  Each level makes one damped Jacobi sweep before and one after its
    coarse correction, which makes B symmetric; the coarsest level is solved
    with a dense inverse.
    """
    operators, transfers, weights = [matrix], [], []
    for coarsening in coarsenings:
        a = _stencil(operators[-1], coarsening.shape, coarsening.slots)
        values = _prolongation_weights(a)
        n, n_coarse = math.prod(coarsening.shape), math.prod(coarsening.coarse_shape)
        indptr, indices, source = coarsening.prolong
        transfer = sp.csr_matrix((values[source], indices, indptr), shape=(n, n_coarse))
        indptr, indices, source = coarsening.restrict
        restrict = sp.csr_matrix((values[source], indices, indptr), shape=(n_coarse, n))
        transfers.append((transfer, restrict))
        weights.append(SMOOTHING_WEIGHT / a[C].ravel())
        operators.append(restrict @ (operators[-1] @ transfer))
    coarsest = np.linalg.inv(operators.pop().toarray())
    coarsest = 0.5 * (coarsest + coarsest.T)

    def apply(r, z):
        # down the levels: smooth from zero, restrict the residual
        smoothed = []
        for op, weight, (_, restrict) in zip(operators, weights, transfers):
            x = weight * r
            smoothed.append((r, x))
            r = restrict @ (r - op @ x)
        x = coarsest @ r
        # and up: prolong the correction, smooth again
        for op, weight, (transfer, _), (r, fine) in zip(
                reversed(operators), reversed(weights), reversed(transfers), reversed(smoothed)):
            fine += transfer @ x
            fine += weight * (r - op @ fine)
            x = fine
        z[:] = x

    return apply
