"""Random two-valued diffusion coefficients with box or cross discontinuities.

A sample partitions the unit square into two regions: the coefficient takes
the contrast value P on the first region and 1/P on the second.

* box: a square of random center (x, y) ~ U[0.4, 0.6]^2 and edge length
  l ~ U[0.2, 0.3]; the closed box is the 1/P region, its outside carries P.
* cross: a vertical line at x and a horizontal line at y, both U[0.4, 0.6],
  split the domain into four rectangles.  The open lower-left and
  upper-right quadrants carry P, the complement (including the lines
  themselves) carries 1/P.  Which diagonal pair carries P is a convention;
  both choices are equal in distribution.

Uniform draw order (x, y, then l for the box) is part of the contract so
pseudo- and quasi-random runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TriMesh
from .sampling import UniformSource

__all__ = ["CoefficientSample", "draw_coefficient", "sample_box", "sample_cross"]

BOX_CENTER_RANGE = (0.4, 0.6)
BOX_LENGTH_RANGE = (0.2, 0.3)


@dataclass(frozen=True)
class CoefficientSample:
    """One realized coefficient: kind, discontinuity geometry and contrast P."""

    kind: str                  # "box" | "cross"
    x: float
    y: float
    contrast: float            # P > 0
    length: float | None = None  # box edge length

    def __post_init__(self):
        if self.kind not in ("box", "cross"):
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if self.contrast <= 0:
            raise ValueError("contrast P must be positive")
        if self.kind == "box" and self.length is None:
            raise ValueError("box samples need an edge length")

    def value_at(self, points) -> np.ndarray:
        """Coefficient value (P or 1/P) at each point; vectorized."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        px, py = pts[:, 0], pts[:, 1]
        P = self.contrast
        if self.kind == "box":
            h = self.length / 2.0
            inside = (np.abs(px - self.x) <= h) & (np.abs(py - self.y) <= h)
            values = np.where(inside, 1.0 / P, P)
        else:
            first = ((px < self.x) & (py < self.y)) | ((px > self.x) & (py > self.y))
            values = np.where(first, P, 1.0 / P)
        return values if np.asarray(points).ndim > 1 else values[0]

    def element_values(self, mesh: TriMesh) -> np.ndarray:
        """Piecewise-constant element values a_K = value at the barycenter.

        Exact whenever no element straddles a discontinuity (aligned meshes).
        """
        return self.value_at(mesh.barycenters)

    def break_lines(self):
        """Discontinuity coordinates as (x-breaks, y-breaks)."""
        if self.kind == "box":
            h = self.length / 2.0
            return (self.x - h, self.x + h), (self.y - h, self.y + h)
        return (self.x,), (self.y,)


def sample_box(source: UniformSource, contrast: float) -> CoefficientSample:
    """Draw a box sample; consumes three uniforms in the order x, y, l."""
    u = source.next_block(3)
    lo, hi = BOX_CENTER_RANGE
    a, b = BOX_LENGTH_RANGE
    return CoefficientSample(
        kind="box",
        x=lo + (hi - lo) * u[0],
        y=lo + (hi - lo) * u[1],
        length=a + (b - a) * u[2],
        contrast=contrast,
    )


def sample_cross(source: UniformSource, contrast: float) -> CoefficientSample:
    """Draw a cross sample; consumes two uniforms in the order x, y."""
    u = source.next_block(2)
    lo, hi = BOX_CENTER_RANGE
    return CoefficientSample(
        kind="cross",
        x=lo + (hi - lo) * u[0],
        y=lo + (hi - lo) * u[1],
        contrast=contrast,
    )


def draw_coefficient(kind: str, contrast: float, seed: int, stream) -> CoefficientSample:
    """Draw a box or cross sample from the pseudo-random substream (seed, stream)."""
    source = UniformSource("pseudo", seed=seed, stream=stream)
    if kind == "box":
        return sample_box(source, contrast)
    return sample_cross(source, contrast)
