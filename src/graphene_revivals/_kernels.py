"""The two numeric kernels every observable is built from.

trig_series sums weighted cosines and sines over a time grid; hermite_sweep
evaluates normalized Hermite-Gaussian functions by a stable recurrence.
Both are plain numpy.
"""

from __future__ import annotations

import math

import numpy as np

# np.einsum(..., optimize=False) only forwards to this C function. Its Python
# wrapper repacks the arguments on every call, and the traced size of those
# small allocations varies over a process's first passes, so a tracemalloc
# peak of the first traced pass would not repeat. numpy < 2 names the module
# numpy.core.multiarray.
try:
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum as _c_einsum


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
# The T x L phase table is walked in blocks of whole rows through four
# preallocated (rows, L) buffers of 3/4 * BLOCK_ELEMENTS phases each (768
# KiB), so a call holds O(T + BLOCK_ELEMENTS) floats at any grid size and a
# block stays in cache. Each row is computed on its own, so the output bits
# do not depend on the block size.
#
# Each phase is x = fl(om_j * t_k), the product np.outer gives, halved
# exactly: h = x / 2 is computed as t_k * (om_j / 2), which rounds the same
# real number at half the scale (om_j / 2 is exact unless om_j is
# subnormal). One einsum("i,j->ij") per block forms these products, the
# same IEEE products as a broadcast multiply without its per-row overhead;
# it adds each to a zeroed output, so an exact zero is +0, a sign no output
# can see, as the level sums start from +0 too. Both functions come from
# one np.tan of the reduced half-phase: numpy's SIMD tan costs about 3 ns
# per element where libm's sin and cos cost 19-21 ns on [-pi, pi], and more
# above ~1e8 rad.
#
# Reduction (Cody-Waite, mod pi/2 on h): k is the nearest integer to
# fl(h * 2/pi), taken as M + k = fl(fl(h * 2/pi) + M) with M = 1.5 * 2^52,
# so the last bit of M + k is k's parity. Then
# y = h - k*Q1 - k*Q2 - k*Q3 - k*Q4, r = fl(y - k*Q5) and the low word
# lo = (y - r) - k*Q5, where Q_i = _TWO_PI_PARTS[i] / 4 (exact) sum to pi/2 to
# more than 100 bits. Q1..Q4 have at most 12 significant bits, so for
# |k| < 2^41 (every phase phase_rounding admits is below 4.5e12 rad) each
# k*Q_i, i <= 4, is exact, and so is each difference, whose operands lie on
# the grid of ulp(h) or of Q_i's last bit and whose result needs fewer than
# 53 of its bits. r + lo is theta = h - k*pi/2 to within 2e-18 (the parts'
# 2^-100 and the rounding of k*Q5), and |theta| <= pi/4 + 5e-4, as
# h * 2/pi rounds before k is taken.
#
# Evaluation: t = tan(r), carried to tan(theta) by t += (1 + t^2) * lo; then
# with q = t^2, d = 1 + q and sigma = (-1)^k,
#
#   sin(x) = 2t / (sigma * d),   cos(x) = (1 - q) / (sigma * d).
#
# sigma enters as the sign bit of d, copied from the parity bit of M + k, so
# the flip is exact; the 2 of the sine is applied to the finished sum, also
# exactly. One t serves both functions of a one-band series.
#
# The sum over j of each row is one einsum("ij,j->i", f(x), w): the weight
# multiply and the sum in one pass of numpy's own sum-of-products loop. Its
# order within a row depends on L only, under two conditions kept here: a
# strided operand takes another loop, so the inputs are made contiguous; and
# a row longer than einsum's 8192-element buffer is cut where the number of
# rows decides, so such rows go one per block. einsum makes no BLAS call
# (only its optimize path would): a gemv splits the sum by thread, so its
# last bits would depend on the BLAS thread count, and outputs must repeat
# byte for byte on any machine. einsum is built for numpy's baseline
# (X86_V2 on x86-64: no FMA) with no runtime dispatch, so its bytes do not
# change with NPY_DISABLE_CPU_FEATURES either; np.tan's do.

BLOCK_ELEMENTS = 1 << 15  # four buffers of 3/4 of it: 768 KiB of float64
_EINSUM_BUFFER = 8192  # numpy's NPY_BUFSIZE; np.setbufsize does not reach einsum
_TWO_PI_PARTS = tuple(float.fromhex(h) for h in (
    "0x1.92p+2", "0x1.fb4p-10", "0x1.444p-22", "0x1.68cp-37", "0x1.1a62633145c07p-52"))
_HALF_PI_PARTS = tuple(p / 4.0 for p in _TWO_PI_PARTS)
_TWO_OVER_PI = 2.0 / math.pi
_ROUNDER = 1.5 * 2.0 ** 52  # fl(y + M) - M is y rounded to an integer, |y| < 2^51

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
    values = np.asarray(values, dtype=np.float64, order="C")
    if values.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {values.shape}")
    return values


def trig_series(weights: np.ndarray, omegas: np.ndarray, times: np.ndarray, *trigs):
    """(sum_j w_j f(om_j t_k) for f in trigs) over the time grid, f np.cos or np.sin.

    Error model, to first order: let x = fl(om_j * t_k), theta its reduced
    half-phase (|theta| <= pi/4 + 5e-4) and T = tan(theta). With np.tan
    within c ulp, the corrected t is within c*ulp(T) + ulp(T)/2 + 4e-18 of T.
    Carrying that, and the roundings of t^2, 1 + t^2, 1 - t^2 (exact for
    t^2 >= 1/2) and the division, through 2T/(1+T^2) and (1-T^2)/(1+T^2)
    bounds the evaluated f~ at every theta by

        |f~ - f(x)| + eps/2 * |f(x)| <= 2 * eps      for c <= 0.8.

    The largest value is the cosine's near T = 1/2: 1.85 * eps at c = 0.573,
    the largest error measured for numpy's float64 tan on that range. So
    each product w_j * f~, rounded once, is within 2 * eps * |w_j| of
    w_j * f(x). The L-term sum, one einsum contraction per row (numpy's own
    loop, no BLAS, no FMA) whose order depends on L only, adds at most
    (L - 1) roundings along any path; against the exact sums of cos/sin of
    the same float phases every value is off by

        |err_k| <= eps * (L + 3) / 2 * sum_j |w_j|

    to first order, for weights that are not subnormal. Rounding the phase
    itself moves it by up to eps/2 * |om_j * t_k|, so against the exact sum
    at the same float inputs

        |err_k| <= eps * (max|om| * max|t| + L + 3) / 2 * sum_j |w_j|.

    Raises ValueError when an input is not one-dimensional, when weights
    and omegas differ in length, when a function other than np.cos or np.sin
    is requested, or when the largest phase is too large to carry correct
    digits (see :func:`phase_rounding`).
    """
    weights = _vector("weights", weights)
    omegas = _vector("omegas", omegas)
    times = _vector("times", times)
    if weights.shape != omegas.shape:
        raise ValueError("weights and omegas must have the same length")
    if not all(trig is np.cos or trig is np.sin for trig in trigs):
        raise ValueError("trig_series evaluates np.cos and np.sin only")
    # the ufunc, not ndarray.max: that method forwards to numpy's Python _amax,
    # and its first use in a process leaves a 54-byte object in some
    # processes only, so a first call's tracemalloc peak would not repeat
    phase_rounding(np.maximum.reduce(np.abs(omegas), initial=0.0),
                   np.maximum.reduce(np.abs(times), initial=0.0))
    n_t, n_l = times.size, omegas.size
    sums = tuple(np.zeros(n_t) for _ in trigs)
    if n_t == 0 or n_l == 0:
        return sums
    half_omegas = 0.5 * omegas
    rows = 1 if n_l > _EINSUM_BUFFER else min(n_t, max(1, 3 * BLOCK_ELEMENTS // (4 * n_l)))
    phase, turns, tangent, scratch = (np.empty((rows, n_l)) for _ in range(4))
    for start in range(0, n_t, rows):
        t_k = times[start:start + rows]
        h, m, t, f = phase[:t_k.size], turns[:t_k.size], tangent[:t_k.size], scratch[:t_k.size]
        _c_einsum("i,j->ij", t_k, half_omegas, out=h)
        np.add(np.multiply(h, _TWO_OVER_PI, out=m), _ROUNDER, out=m)  # M + k
        k = np.subtract(m, _ROUNDER, out=t)
        for part in _HALF_PI_PARTS[:-1]:
            h -= np.multiply(k, part, out=f)  # y, exactly
        np.multiply(k, _HALF_PI_PARTS[-1], out=f)
        r = np.subtract(h, f, out=t)
        lo = np.subtract(np.subtract(h, r, out=h), f, out=h)
        np.tan(r, out=t)
        t += np.multiply(np.add(np.multiply(t, t, out=f), 1.0, out=f), lo, out=f)
        q = np.multiply(t, t, out=f)
        d = np.add(q, 1.0, out=h)
        sign = m.view(np.uint64)  # k's parity moved to the sign bit, xor-ed into d
        np.left_shift(sign, 63, out=sign)
        np.bitwise_xor(d.view(np.uint64), sign, out=d.view(np.uint64))
        for trig, total in zip(trigs, sums):
            term = np.subtract(1.0, q, out=m) if trig is np.cos else t
            _c_einsum("ij,j->i", np.divide(term, d, out=m), weights,
                      out=total[start:start + t_k.size])
    for trig, total in zip(trigs, sums):
        if trig is np.sin:
            total *= 2.0  # the sums were of t / d
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
    # [()] keeps the state of a scalar xi in float64 scalars
    p_prev = np.zeros_like(xi)[()]  # p_{-1} == 0
    p = np.full_like(xi, np.pi ** -0.25)[()]  # p_0
    expo = np.zeros_like(xi)  # carried base-2 exponent
    # each step writes p_m over p_{m-2} through one spare buffer, in the
    # operation order of the formula above; scalars need no buffer
    spare = np.empty_like(xi) if xi.ndim else None
    for m in range(1, n + 1):
        a = math.sqrt(2.0 / m)
        p_next = xi * a if spare is None else np.multiply(xi, a, out=spare)
        p_next *= p
        p_prev *= math.sqrt((m - 1.0) / m)
        p_next -= p_prev
        p_prev, p, spare = p, p_next, None if spare is None else p_prev
        if m % _RESCALE_STRIDE == 0:
            big = np.abs(p) > _RESCALE_LIMIT
            if big.any():
                # powers of two rescale exactly; the timing is irrelevant
                p = np.where(big, p * _RESCALE_FACTOR, p)
                p_prev = np.where(big, p_prev * _RESCALE_FACTOR, p_prev)
                expo = np.where(big, expo + 500.0, expo)
    scale = np.exp(expo * _LN2 - 0.5 * xi * xi)
    return p_prev * scale, p * scale
