"""Hermite-Gaussian eigenfunctions and the two-component valley spinors.

The dimensionless transverse profile of level n is

    h_n(xi) = exp(-xi^2/2) H_n(xi) / C_n,   C_n = sqrt(2^n n! sqrt(pi)),

evaluated through the normalized three-term recurrence, run rescaled so
that the coefficient of its oldest term is 1 (never through the raw
polynomials, which overflow near n ~ 150; see the Hermite comment in
_kernels). Callers needing a physical density attach the 1/sqrt(L) factor
themselves.

Spinor component patterns at the two inequivalent valleys, with h_{-1} == 0:

    K1: (upper, lower) = (-s * h_{n-1}, h_n)
    K2: (upper, lower) = (h_n, s * h_{n-1})

The plane-wave prefactor is a pure phase and is not represented. The
two-component norm is 2 for n >= 1 (two unit-norm components) and 1 for
n = 0; it is reported as-is, not renormalized.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._kernels import hermite_sweep

VALLEYS = ("K1", "K2")


class Eigenspinor(NamedTuple):
    """Spinor components at one valley for level (n, s), sampled in xi."""

    upper: np.ndarray
    lower: np.ndarray


def hermite_function(n: int, xi):
    """Normalized Hermite-Gaussian h_n(xi): a float for scalar xi, an array for an array.

    Stable for n up to at least 10^4 and any finite xi; NaN or infinite xi
    raises ValueError. h_n(-xi) = (-1)^n h_n(xi) holds bit for bit, signed
    zeros included, and the result is a signed zero past |xi| = 2*sqrt(n) + 40,
    where the sweep clamps |xi| (see the Hermite comment in _kernels).
    """
    _, h = hermite_sweep(n, xi)
    return h if np.ndim(xi) else float(h)


def eigenspinor(n: int, s: int, valley: str, xi) -> Eigenspinor:
    """Two-component eigenspinor at valley K1 or K2 for level (n, s)."""
    if s not in (+1, -1):
        raise ValueError(f"band index s must be +1 or -1, got {s}")
    if valley not in VALLEYS:
        raise ValueError(f"valley must be one of {VALLEYS}, got {valley!r}")
    h_below, h_n = hermite_sweep(n, np.atleast_1d(xi))  # h_{-1} == 0 comes out of the sweep
    if valley == "K1":
        upper, lower = -s * h_below, h_n
    else:
        upper, lower = h_n, s * h_below
    return Eigenspinor(upper=upper, lower=lower)
