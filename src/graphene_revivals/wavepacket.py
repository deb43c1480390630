"""Gaussian-populated Landau-level packets and their overlap table.

A packet is a superposition over levels n with Gaussian amplitudes
g_n = exp(-(n-n0)^2 / (2 sigma)), optionally duplicated over the two bands.
The only quantities any observable ever needs are the level-population
overlaps U_{m,n} ~ g_m * g_n on the diagonal and the first off-diagonal;
they are stored normalized so that the total population is exactly 1.

The transverse-momentum profile of the packet factors out of every
U_{m,n} and therefore out of every observable; it is deliberately not
represented here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

BANDS = ("positive", "negative", "both")


@dataclass(frozen=True)
class PacketSpec:
    """Packet parameters: central level, level-space width, band content.

    n0 is at most 2**52, so that every level index of the packet is an exact
    double. tail_tolerance, in (0, 1), bounds the relative Gaussian amplitude
    weight that truncating the level sum may discard.
    """

    n0: int
    sigma: float
    bands: str = "positive"
    tail_tolerance: float = 1e-12

    def __post_init__(self):
        if not (isinstance(self.n0, numbers.Integral) and 1 <= self.n0 <= 2 ** 52):
            raise ValueError(f"central level n0 must be in [1, 2**52], got {self.n0}")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if self.bands not in BANDS:
            raise ValueError(f"bands must be one of {BANDS}, got {self.bands!r}")
        if not 0.0 < self.tail_tolerance < 1.0:
            raise ValueError(f"tail_tolerance must be in (0, 1), got {self.tail_tolerance}")


@dataclass(frozen=True)
class WeightTable:
    """Normalized overlaps U_{m,n} over the truncated level range.

    diag[i]    = U_{n,n}   for n = n_min + i
    offdiag[i] = U_{n-1,n} for n = n_min + 1 + i

    For two-band packets the stored entries are per-band values: each band
    carries the same table and the two populations add up to 1.
    Arrays are read-only; treat instances as immutable.
    """

    n_min: int
    n_max: int
    diag: np.ndarray
    offdiag: np.ndarray
    band_content: str

    def __post_init__(self):
        if self.n_min < 0 or self.n_max < self.n_min:
            raise ValueError(f"bad level range [{self.n_min}, {self.n_max}]")
        if len(self.diag) != self.n_max - self.n_min + 1:
            raise ValueError("diag length does not match the level range")
        if len(self.offdiag) != len(self.diag) - 1:
            raise ValueError("offdiag must be one entry shorter than diag")
        if self.band_content not in BANDS:
            raise ValueError(f"band_content must be one of {BANDS}")

    @property
    def levels(self) -> np.ndarray:
        """Populated level indices n_min..n_max."""
        return np.arange(self.n_min, self.n_max + 1)

    @property
    def band_multiplicity(self) -> int:
        return 2 if self.band_content == "both" else 1

    def total_population(self) -> float:
        """Sum of U_{n,n} over all populated (n, s); equals 1 by construction."""
        return self.band_multiplicity * float(np.sum(self.diag))


def truncation_range(spec: PacketSpec) -> tuple[int, int]:
    """The level range (n_min, n_max) of build_weights(spec)."""
    table = build_weights(spec)
    return table.n_min, table.n_max


def build_weights(spec: PacketSpec) -> WeightTable:
    """Build the normalized overlap table for a packet.

    The range is (n_min, n_max) = (max(0, n0-k), n0+k) with the smallest k
    such that the amplitude weight g_n = exp(-(n-n0)^2/(2 sigma)) excluded
    from it is less than tail_tolerance of the total over n >= 0. U_{m,n} is
    proportional to g_m * g_n over that range and normalized so the total
    population sums to exactly 1; for two-band packets each band carries
    half, i.e. the stored per-band diagonal sums to 1/2.
    """
    n0, sigma, tol = spec.n0, spec.sigma, spec.tail_tolerance
    # past |n-n0| > sqrt(1492 sigma) the exponent is below -746, where exp
    # underflows to 0.0, so g's sum over this window is the total over n >= 0
    half = math.ceil(math.sqrt(1492.0 * sigma)) + 1
    lo = max(0, n0 - half)
    with np.errstate(over="ignore"):  # at tiny sigma the exponent is -inf: g_n = 0
        g = np.exp(-((np.arange(lo, n0 + half + 1) - n0) ** 2) / (2.0 * sigma))
    c = n0 - lo
    # excluded[k], the weight outside [n0-k, n0+k], sums each tail smallest term
    # first (to a few eps of itself); excluded[half] = 0 < tol * total bounds k
    excluded = np.zeros(half + 1)
    excluded[:half] = np.cumsum(g[:c:-1])[::-1]
    excluded[:c] += np.cumsum(g[:c])[::-1]
    k = int(np.argmax(excluded < tol * g.sum()))
    n_min, n_max = max(0, n0 - k), n0 + k
    g_in = g[n_min - lo:n_max - lo + 1]
    pop = g_in * g_in
    norm = pop.sum() * (2.0 if spec.bands == "both" else 1.0)
    diag = pop / norm
    offdiag = g_in[:-1] * g_in[1:] / norm
    diag.flags.writeable = False
    offdiag.flags.writeable = False
    return WeightTable(n_min=n_min, n_max=n_max, diag=diag, offdiag=offdiag,
                       band_content=spec.bands)
