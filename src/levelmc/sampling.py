"""Uniform [0,1) sources and exponentially distributed maximal-level draws.

Two interchangeable stream kinds drive every stochastic component of the
package:

* ``"pseudo"`` -- a PCG64 stream (numpy's default bit generator, period
  2^128), seeded from ``(seed, stream)`` so that concurrent workers own
  non-overlapping, reproducible streams.
* ``"low-discrepancy"`` -- the one-dimensional base-2 radical-inverse
  (van der Corput) sequence with nested Owen scrambling, keyed by
  ``(seed, stream)``.  Index 0 of the raw sequence (the point 0) is
  skipped; scrambling depth is 32 binary digits.

Maximal refinement levels are exponential variates obtained from either
source through the inverse CDF ``-log(1 - x) / r``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "UniformSource",
    "ExponentialLevelSampler",
    "inv_exp_cdf",
    "exp_cdf",
    "radical_inverse_base2",
    "moment_mse_experiment",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

SOURCE_KINDS = ("pseudo", "low-discrepancy")
_SCRAMBLE_DEPTH = 32  # digits beyond 2^-32 are irrelevant for the level range used here
LEVEL_BLOCK = 64  # maximal levels drawn from the source at a time


def _mix64(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer on uint64 arrays."""
    with np.errstate(over="ignore"):
        z = z.astype(np.uint64, copy=True)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
    return z


def _scramble_key(seed: int, stream) -> int:
    """Derive the 64-bit Owen scrambling key from (seed, stream)."""
    key = _mix64(np.array([(seed ^ _GOLDEN) & _MASK64], dtype=np.uint64))
    for part in np.atleast_1d(stream):
        key = _mix64(key ^ np.uint64((int(part) * _GOLDEN) & _MASK64))
    return int(key[0])


def radical_inverse_base2(indices) -> np.ndarray:
    """Base-2 radical inverse (van der Corput) of the given indices.

    ``indices`` must be < 2^32; the result carries 32 binary digits,
    returned as uint64 words with digit 2^-1 at bit 31.
    """
    n = np.asarray(indices, dtype=np.uint64)
    if np.any(n >> np.uint64(32)):
        raise ValueError("radical inverse indices must be < 2^32")
    r = np.zeros_like(n)
    one = np.uint64(1)
    for _ in range(_SCRAMBLE_DEPTH):
        r = (r << one) | (n & one)
        n = n >> one
    return r


def _owen_scramble(frac: np.ndarray, key: int) -> np.ndarray:
    """Nested (Owen) scrambling of 32-digit base-2 fractions.

    The flip of digit d is a hash of the scrambling key and the node of the
    binary tree addressed by digits 1..d-1, giving independent digit
    permutations per node.
    """
    out = frac.astype(np.uint64, copy=True)
    key64 = np.uint64(key)
    for d in range(_SCRAMBLE_DEPTH):
        bit = np.uint64(31 - d)
        # node id 2^d + prefix is unique across depths
        node = (np.uint64(1) << np.uint64(d)) | (out >> (bit + np.uint64(1)))
        flip = _mix64(node ^ key64) >> np.uint64(63)
        out ^= flip << bit
    return out


@dataclass
class UniformSource:
    """A deterministic stream of [0,1) variates.

    Equal (kind, seed, stream, scramble) reproduce the identical stream.
    Sources are not shareable between concurrent workers; give each worker
    its own (seed, stream) pair instead.
    """

    kind: str
    seed: int = 0
    stream: int | tuple = 0
    scramble: bool = True
    counter: int = field(default=0, init=False)
    _gen: np.random.Generator | None = field(default=None, init=False, repr=False)
    _key: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.kind == "pseudo":
            spawn = self.stream if isinstance(self.stream, tuple) else (self.stream,)
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=spawn)
            self._gen = np.random.Generator(np.random.PCG64(ss))
        else:
            self._key = _scramble_key(self.seed, self.stream)

    def next_block(self, n: int) -> np.ndarray:
        """Draw the next n variates and advance the counter by n; a block of
        n and n blocks of one give the same stream."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        if self.kind == "pseudo":
            values = self._gen.random(n)
        else:
            # raw sequence index 0 maps to the point 0 and is skipped
            idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
            frac = radical_inverse_base2(idx)
            if self.scramble:
                frac = _owen_scramble(frac, self._key)
            values = frac.astype(np.float64) * 2.0**-32
        self.counter += n
        return values


def inv_exp_cdf(x, r: float):
    """Inverse CDF of Exp(r): maps [0,1) uniforms to nonnegative levels.

    The map is non-decreasing.  For 0.01 <= r <= 50 it is strictly
    increasing on the grid k * 2^-32 of the low-discrepancy source, but
    adjacent doubles in general may share a level.
    """
    if r <= 0:
        raise ValueError("rate must be positive")
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < 0) or np.any(arr >= 1):
        raise ValueError("uniform input must lie in [0, 1)")
    out = -np.log1p(-arr) / r
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def exp_cdf(t, r: float):
    """CDF of Exp(r); inverse of :func:`inv_exp_cdf`."""
    if r <= 0:
        raise ValueError("rate must be positive")
    return -np.expm1(-r * np.asarray(t, dtype=np.float64))


@dataclass
class ExponentialLevelSampler:
    """Exp(rate) maximal-level draws via inverse transform of a uniform source.

    Single draws are served from blocks of ``LEVEL_BLOCK`` levels, which is
    the same stream as drawing them one at a time (see
    ``UniformSource.next_block``); the source runs ahead of the levels
    handed out by up to one block.
    """

    rate: float
    source: UniformSource
    _buffered: list = field(default_factory=list, init=False, repr=False)  # next level last

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def draw_max_level(self) -> float:
        if not self._buffered:
            block = inv_exp_cdf(self.source.next_block(LEVEL_BLOCK), self.rate)
            self._buffered = block.tolist()[::-1]
        return self._buffered.pop()


def moment_mse_experiment(rate: float, sample_counts, runs: int, seed: int = 0):
    """MSE of empirical mean/variance of Exp(rate) draws vs the exact moments.

    For each source kind and each count ``n``, the first ``n`` draws of
    ``runs`` independently seeded streams are reduced to their sample mean
    and sample variance; the squared deviations from the exact moments
    1/rate and 1/rate^2 are averaged over the runs.

    Returns a list of dict rows: kind, count, mse_mean, mse_variance.
    """
    if runs < 2:
        raise ValueError("need at least 2 runs to estimate an MSE")
    counts = sorted(int(c) for c in sample_counts)
    n_max = counts[-1]
    exact_mean = 1.0 / rate
    exact_var = 1.0 / rate**2

    rows = []
    for kind in SOURCE_KINDS:
        sq_mean = np.zeros(len(counts))
        sq_var = np.zeros(len(counts))
        for run in range(runs):
            levels = inv_exp_cdf(UniformSource(kind, seed=seed + run).next_block(n_max), rate)
            for i, n in enumerate(counts):
                head = levels[:n]
                sq_mean[i] += (head.mean() - exact_mean) ** 2
                sq_var[i] += (head.var(ddof=1) - exact_var) ** 2
        for i, n in enumerate(counts):
            rows.append(
                {
                    "kind": kind,
                    "count": n,
                    "mse_mean": sq_mean[i] / runs,
                    "mse_variance": sq_var[i] / runs,
                }
            )
    return rows
