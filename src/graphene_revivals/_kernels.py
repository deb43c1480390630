"""The two numeric kernels every observable is built from.

trig_series sums weighted cosines and sines over a time grid; hermite_sweep
evaluates normalized Hermite-Gaussian functions by a stable recurrence.
Both are plain numpy.
"""

from __future__ import annotations

import math

import numpy as np


# --- weighted trigonometric series -----------------------------------------
#
# trig_series(w, om, t, np.cos, np.sin) == (C, S) with
#
#   C[k] = sum_j w[j] * cos(om[j] * t[k]),   S[k] = sum_j w[j] * sin(om[j] * t[k])
#
# One kernel serves every observable: autocorrelation (weights = level
# populations, om = E_n/hbar), currents (weights = first off-diagonal
# overlaps, om = transition frequencies). A caller names only the functions
# its series uses: the two-band current is a pure sine series and asks for
# np.sin alone, so no cosine of its large sum-frequency phases is evaluated.
#
# Each requested function gets its own phase table and runs on it in place,
# and the table is freed before the next one is built, so a call holds one
# T x L float64 table at a time. Reusing one table for cos and sin would
# need a second table for whichever runs first.
#
# The sums over j are einsum contractions, not matrix products: a BLAS
# gemv splits the sum by thread, so its last bits would depend on the BLAS
# thread count, and outputs must repeat byte for byte on any machine.


PHASE_ROUNDING_LIMIT = 1e-3  # rad


def phase_rounding(max_omega: float, max_time: float) -> float:
    """Rounding bound eps * max|om| * max|t| of the largest phase [rad].

    A phase om*t is rounded to a double before cos/sin see it, which moves
    it by up to this much, so each term, and the series relative to the
    weight sum, can be off by as much. Past PHASE_ROUNDING_LIMIT (1e-3 rad,
    i.e. wrong in the third digit) this raises ValueError.
    """
    phase = float(max_omega) * float(max_time)
    bound = float(np.finfo(np.float64).eps) * phase
    if not bound <= PHASE_ROUNDING_LIMIT:
        raise ValueError(
            f"phases up to {phase:.3e} rad round by up to {bound:.3e} rad, past "
            f"the {PHASE_ROUNDING_LIMIT} rad limit; shorten the time grid")
    return bound


def _weighted_sum(f, weights, omegas, times):
    """sum_j w_j f(om_j t_k) over one phase table, f evaluated in place."""
    phases = np.outer(times, omegas)
    return np.einsum("ij,j->i", f(phases, out=phases), weights)


def trig_series(weights: np.ndarray, omegas: np.ndarray, times: np.ndarray, *trigs):
    """(sum_j w_j f(om_j t_k) for f in trigs) over the time grid, f np.cos or np.sin.

    Error model: each phase is fl(om_j * t_k), so against the exact sum at
    the same float inputs every value is off by

        |err_k| <= eps * (max|om| * max|t| + L) * sum_j |w_j|,

    phase rounding plus the rounding of f and of the L-term sum. Raises
    ValueError when the largest phase is too large to carry correct digits
    (see :func:`phase_rounding`).
    """
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    omegas = np.ascontiguousarray(omegas, dtype=np.float64)
    times = np.ascontiguousarray(times, dtype=np.float64)
    if weights.shape != omegas.shape:
        raise ValueError("weights and omegas must have the same length")
    phase_rounding(np.abs(omegas).max(initial=0.0), np.abs(times).max(initial=0.0))
    return tuple(_weighted_sum(f, weights, omegas, times) for f in trigs)


# --- normalized Hermite-Gaussian recurrence ---------------------------------
#
# hermite_sweep(n, xi) evaluates h_m(xi) = exp(-xi^2/2) H_m(xi) / C_m,
# C_m = sqrt(2^m m! sqrt(pi)), for m = n-1 and m = n.
#
# The three-term recurrence runs on the normalized polynomial part
# p_m = H_m / C_m,
#
#   p_m = xi*sqrt(2/m)*p_{m-1} - sqrt((m-1)/m)*p_{m-2},
#
# and the Gaussian is attached at the end in log space. Seeding the
# recurrence with exp(-xi^2/2) directly would underflow to garbage for
# |xi| beyond ~38 and get amplified near the turning point; p_m is the
# dominant solution there, so the forward sweep is stable, and a carried
# base-2 exponent keeps it in range when p_m ~ exp(+xi^2/2) grows past
# double precision. The results stay bounded (|h_m| < 0.82 for every m).

_RESCALE_LIMIT = 2.0 ** 500
_RESCALE_FACTOR = 2.0 ** -500
_RESCALE_STRIDE = 16  # growth per step stays far below 2^32; 16 steps are safe
_LN2 = float(np.log(2.0))


def hermite_sweep(n: int, xi):
    """(h_{n-1}(xi), h_n(xi)) for the normalized Hermite-Gaussian functions.

    The output shape follows xi; a scalar xi gives float64 scalars. Raises
    ValueError for a negative order or a non-finite xi.
    """
    if n < 0:
        raise ValueError(f"order must be non-negative, got {n}")
    xi = np.asarray(xi, dtype=np.float64)[()]
    if not np.isfinite(xi).all():
        raise ValueError("Hermite functions need finite xi")
    p_prev = np.zeros_like(xi)  # p_{-1} == 0
    p = np.full_like(xi, np.pi ** -0.25)  # p_0
    expo = np.zeros_like(xi)  # carried base-2 exponent
    for m in range(1, n + 1):
        p_prev, p = p, xi * math.sqrt(2.0 / m) * p - math.sqrt((m - 1.0) / m) * p_prev
        if m % _RESCALE_STRIDE == 0:
            big = np.abs(p) > _RESCALE_LIMIT
            if big.any():
                # powers of two rescale exactly; the timing is irrelevant
                p = np.where(big, p * _RESCALE_FACTOR, p)
                p_prev = np.where(big, p_prev * _RESCALE_FACTOR, p_prev)
                expo = np.where(big, expo + 500.0, expo)
    scale = np.exp(expo * _LN2 - 0.5 * xi * xi)
    return p_prev * scale, p * scale
