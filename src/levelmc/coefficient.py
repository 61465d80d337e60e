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

``from_uniforms`` is the one map from uniforms to a sample.  It reads them
in the order x, y, then l for the box; that order is part of the contract
so pseudo- and quasi-random runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TriMesh
from .sampling import UniformSource

__all__ = ["KINDS", "CoefficientSample", "draw_coefficient", "from_uniforms", "sample_box"]

KINDS = ("box", "cross")

BOX_CENTER_RANGE = (0.4, 0.6)
BOX_LENGTH_RANGE = (0.2, 0.3)


@dataclass(frozen=True)
class CoefficientSample:
    """One realized coefficient: kind, discontinuity geometry and contrast P."""

    kind: str                  # one of KINDS
    x: float
    y: float
    contrast: float            # P > 0
    length: float | None = None  # box edge length

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if self.contrast <= 0:
            raise ValueError("contrast P must be positive")
        if self.kind == "box" and self.length is None:
            raise ValueError("box samples need an edge length")

    def value_at(self, points: np.ndarray) -> np.ndarray:
        """Coefficient value (P or 1/P) at each row of the (N, 2) array ``points``."""
        px, py = points[:, 0], points[:, 1]
        P = self.contrast
        if self.kind == "box":
            h = self.length / 2.0
            inside = (np.abs(px - self.x) <= h) & (np.abs(py - self.y) <= h)
            return np.where(inside, 1.0 / P, P)
        first = ((px < self.x) & (py < self.y)) | ((px > self.x) & (py > self.y))
        return np.where(first, P, 1.0 / P)

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


def from_uniforms(kind: str, contrast: float, u) -> CoefficientSample:
    """The sample of ``kind`` that the uniforms ``u`` give: x, y, then the box's l."""
    lo, hi = BOX_CENTER_RANGE
    a, b = BOX_LENGTH_RANGE
    return CoefficientSample(
        kind=kind,
        x=lo + (hi - lo) * u[0],
        y=lo + (hi - lo) * u[1],
        length=a + (b - a) * u[2] if kind == "box" else None,
        contrast=contrast,
    )


def sample_box(source: UniformSource, contrast: float) -> CoefficientSample:
    """Draw a box sample from the next three uniforms of ``source``."""
    return from_uniforms("box", contrast, source.next_block(3))


def draw_coefficient(kind: str, contrast: float, seed: int, stream) -> CoefficientSample:
    """Draw a box or cross sample from the pseudo-random substream (seed, stream)."""
    source = UniformSource("pseudo", seed=seed, stream=stream)
    if kind == "box":  # through sample_box, which bench/tracer.py times
        return sample_box(source, contrast)
    return from_uniforms(kind, contrast, source.next_block(2))
