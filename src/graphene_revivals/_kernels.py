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
# The T x L phase table is walked in blocks of whole rows, about
# BLOCK_ELEMENTS phases each, through three preallocated (rows, L) buffers,
# so a call holds O(T + BLOCK_ELEMENTS) floats at any grid size and a block
# stays in cache. Each row is computed on its own, so the output bits do
# not depend on the block size.
#
# Each phase is fl(om_j * t_k), the product np.outer gives, and is reduced
# mod 2*pi once, before any function sees it: libm's sin and cos switch to a
# slow large-argument reduction above about 1e8 rad, where the two-band sum
# frequencies reach 5e8 rad, and one reduction serves both functions of a
# one-band series. The reduction is Cody-Waite's: k = rint(x / 2pi) and
# r = x - k*P1 - k*P2 - k*P3 - k*P4 - k*P5, where the parts sum to 2pi to
# more than 100 bits. P1..P4 have at most 12 significant bits, so for
# |k| < 2^41 (every phase phase_rounding admits is below 4.5e12 rad) each
# k*P_i, i <= 4, is exact, and so is each difference, whose operands lie on
# the grid of ulp(x) or of P_i's last bit and whose result needs fewer than
# 53 of its bits. Only k*P5 and the last difference round, so r is within
# eps of x - 2*pi*k; |r| <= pi + eps*|x| <= pi + 1e-3, as x / 2pi rounds
# before rint.
#
# The sums over j are np.add.reduce over each row of w_j * f(r), not a BLAS
# product: a gemv splits the sum by thread, so its last bits would depend
# on the BLAS thread count, and outputs must repeat byte for byte on any
# machine.

BLOCK_ELEMENTS = 1 << 15  # 256 KiB of float64 per buffer
_TWO_PI_PARTS = tuple(float.fromhex(h) for h in (
    "0x1.92p+2", "0x1.fb4p-10", "0x1.444p-22", "0x1.68cp-37", "0x1.1a62633145c07p-52"))
_INV_TWO_PI = 1.0 / (2.0 * math.pi)

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


def _vector(name, values):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {values.shape}")
    return values


def trig_series(weights: np.ndarray, omegas: np.ndarray, times: np.ndarray, *trigs):
    """(sum_j w_j f(om_j t_k) for f in trigs) over the time grid, f np.cos or np.sin.

    Error model: each phase x = fl(om_j * t_k) is reduced to r with
    |r - (x - 2*pi*k)| <= eps, f(r) is within one ulp (<= eps/2), the
    product w_j * f(r) rounds once and the L-term sum by at most (L - 1)
    roundings along any path, so against the exact sums of cos/sin of the
    same float phases every value is off by

        |err_k| <= eps * (L + 3) / 2 * sum_j |w_j|

    to first order, for weights that are not subnormal. Rounding the phase
    itself moves it by up to eps/2 * |om_j * t_k|, so against the exact sum
    at the same float inputs

        |err_k| <= eps * (max|om| * max|t| + L + 3) / 2 * sum_j |w_j|.

    Raises ValueError when an input is not one-dimensional, when weights
    and omegas differ in length, or when the largest phase is too large to
    carry correct digits (see :func:`phase_rounding`).
    """
    weights = _vector("weights", weights)
    omegas = _vector("omegas", omegas)
    times = _vector("times", times)
    if weights.shape != omegas.shape:
        raise ValueError("weights and omegas must have the same length")
    # the ufunc, not ndarray.max: that method forwards to numpy's Python _amax,
    # and its first use in a process leaves a 54-byte object in some
    # processes only, so a first call's tracemalloc peak would not repeat
    phase_rounding(np.maximum.reduce(np.abs(omegas), initial=0.0),
                   np.maximum.reduce(np.abs(times), initial=0.0))
    n_t, n_l = times.size, omegas.size
    sums = tuple(np.zeros(n_t) for _ in trigs)
    if n_t == 0 or n_l == 0:
        return sums
    rows = min(n_t, max(1, BLOCK_ELEMENTS // n_l))
    phase, turns, term = (np.empty((rows, n_l)) for _ in range(3))
    for start in range(0, n_t, rows):
        t = times[start:start + rows]
        x, k, f = phase[:t.size], turns[:t.size], term[:t.size]
        np.multiply(t[:, np.newaxis], omegas, out=x)
        np.rint(np.multiply(x, _INV_TWO_PI, out=k), out=k)
        for part in _TWO_PI_PARTS:
            x -= np.multiply(k, part, out=f)
        for trig, total in zip(trigs, sums):
            np.multiply(trig(x, out=f), weights, out=f)
            np.add.reduce(f, axis=1, out=total[start:start + t.size])
    return sums


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
