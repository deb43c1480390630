"""The two numeric kernels every observable is built from.

trig_series sums weighted cosines and sines over a time grid; hermite_sweep
evaluates normalized Hermite-Gaussian functions by a stable recurrence.
Both are plain numpy.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

# np.einsum(..., optimize=False) only forwards to this C function. Its Python
# wrapper repacks the arguments on every call, and the traced size of those
# small allocations varies over a process's first passes, so a tracemalloc
# peak of the first traced pass would not repeat.
from numpy._core.multiarray import c_einsum as _c_einsum


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
# The T x L phase table is walked in blocks of whole rows through three
# preallocated (rows, L) buffers of BLOCK_ELEMENTS phases each (768 KiB),
# so a call holds O(T + BLOCK_ELEMENTS) floats at any grid size and a block
# stays in cache. Each row is computed on its own, so the output bits do
# not depend on the block size.
#
# Each phase is x = fl(om_j * t_k), the product np.outer gives, halved
# exactly: h = x / 2 is computed as t_k * (om_j / 2), which rounds the same
# real number at half the scale (om_j / 2 is exact unless om_j is
# subnormal). One einsum("i,j->ij") per block forms these products, the
# same IEEE products as a broadcast multiply without its per-row overhead;
# it adds each to a zeroed output, so an exact zero is +0, a sign no output
# can see, as the level sums start from +0 too. Both functions come from
# one np.tan of the half-phase, with no argument reduction of the kernel's
# own (numpy's tan reduces h itself): with t = tan(h), q = t^2 and d = 1 + q,
#
#   sin(x) = 2t / d,   cos(x) = (1 - q) / d,
#
# for every h, as tan has period pi. numpy's SIMD tan costs about 1.5 ns per
# element up to ~5e4 rad and ~6 ns above 1e5, where libm's sin and cos cost
# 19-21 ns on [-pi, pi], and more above ~1e8 rad. The 2 of the sine is
# applied to the finished sum, exactly. One t serves both functions of a
# one-band series. Each function is formed in the buffer of its own input,
# cos over q and sin over t; neither reads what the other overwrites, so
# either order of a (cos, sin) request gives the same bits.
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

BLOCK_ELEMENTS = 1 << 15  # three buffers of it: 768 KiB of float64
_EINSUM_BUFFER = 8192  # numpy's NPY_BUFSIZE; np.setbufsize does not reach einsum

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

    Error model, to first order: let x = fl(om_j * t_k), h = x/2 (exact),
    T = tan(h), which no reduction bounds, and u = eps/2. With np.tan within
    c ulp, t = T * (1 + a), |a| <= c * ulp(T)/|T|. Every later operation
    rounds its exact result y by a relative r_y <= (ulp(y)/2)/|y| <= u, where
    1 - q is exact for 1/2 <= q <= 2^53 and 1 +- q are off by at most 1.
    Carried through sin x = 2T/(1+T^2) and cos x = (1-T^2)/(1+T^2), with
    v = T^2/(1+T^2) = sin^2(h), these give

        |sin~ - sin x| <= |sin x| * (|a| |cos x| + r_q v + r_d + r_(t/d)),
        |cos~ - cos x| <= |cos x| * (r_(1-q) + r_d + r_cos) + sin^2 x * (|a| + r_q/2),

    and over every T (2e6 points over 1e-8 <= T <= 1e19 and the binade
    edges of T, T^2 and 1 +- T^2)

        |f~ - f(x)| + eps/2 * |f(x)| <= 2 * eps      for c <= 0.8

    (it holds up to c = 1.33). At c = 0.8 the largest values are the
    cosine's 1.75 * eps where T^2 is just above 2^53 and the sine's
    1.67 * eps at T = 2; bounding every r_y by u instead would give
    1.99 * eps for the sine near T = 1.5. numpy's float64 tan was measured
    within 0.555 ulp of 50-digit mpmath for 1e-3 <= h <= 2.2e12, with and
    without AVX-512. The largest |t| found at admitted phases is 1.6e18,
    far below the 1.3e154 at which q would overflow. Each product w_j * f~,
    rounded once, is then within 2 * eps * |w_j| of w_j * f(x). The L-term
    sum, one einsum contraction per row (numpy's own loop, no BLAS, no FMA)
    whose order depends on L only, adds at most (L - 1) roundings along any
    path; against the exact sums of cos/sin of the same float phases every
    value is off by

        |err_k| <= eps * (L + 3) / 2 * sum_j |w_j|

    to first order, for weights that are not subnormal. Rounding the phase
    itself moves it by up to eps/2 * |om_j * t_k|, so against the exact sum
    at the same float inputs

        |err_k| <= eps * (max|om| * max|t| + L + 3) / 2 * sum_j |w_j|.

    Raises ValueError when an input is not one-dimensional, when weights
    and omegas differ in length, when a function other than np.cos or np.sin
    is requested or one is requested twice, or when the largest phase is too
    large to carry correct digits (see :func:`phase_rounding`).
    """
    weights = _vector("weights", weights)
    omegas = _vector("omegas", omegas)
    times = _vector("times", times)
    if weights.shape != omegas.shape:
        raise ValueError("weights and omegas must have the same length")
    if not all(trig is np.cos or trig is np.sin for trig in trigs):
        raise ValueError("trig_series evaluates np.cos and np.sin only")
    if len(set(trigs)) != len(trigs):
        raise ValueError("trig_series evaluates each function once per call")
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
    rows = 1 if n_l > _EINSUM_BUFFER else min(n_t, max(1, BLOCK_ELEMENTS // n_l))
    phase, tangent, denom = (np.empty((rows, n_l)) for _ in range(3))
    for start in range(0, n_t, rows):
        t_k = times[start:start + rows]
        h, t, d = phase[:t_k.size], tangent[:t_k.size], denom[:t_k.size]
        _c_einsum("i,j->ij", t_k, half_omegas, out=h)
        np.tan(h, out=t)
        q = np.multiply(t, t, out=h)
        np.add(q, 1.0, out=d)
        for trig, total in zip(trigs, sums):
            f = np.subtract(1.0, q, out=q) if trig is np.cos else t
            _c_einsum("ij,j->i", np.divide(f, d, out=f), weights,
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
#
# xi is swept once per distinct |xi|, in ascending order (a scalar as a
# 1-element array). The functions have a parity, h_m(-xi) = (-1)^m h_m(xi),
# and it holds bit for bit: IEEE rounding is symmetric, so negating xi
# negates every product of the step that holds it. A subtraction x - y that
# cancels to zero gives +0 for either sign of x and y, so at xi < 0 the odd
# order is flipped as 0.0 - p, which keeps such a zero +0. At xi = -0.0
# every term of an odd order is itself a signed zero, and there the flip is
# a plain negation. h_{-1} (n = 0) is +0 at every xi. p is flipped before
# the Gaussian multiplies it, so an h that underflows to zero keeps the
# recurrence's sign.
#
# |xi| is clamped at 2*sqrt(n) + 40 before the sweep, so far points collapse
# into one swept value and no square or product in the sweep overflows.
# Past the clamp |H_m(x)| <= (2|x|)^m exp(m^2/(4x^2)) puts both functions
# below 2^-1080 (the bound is in tests/oracles.py), and the recurrence at the
# clamp gives the (sign xi)^m * 0 every farther point needs: p_m has the sign
# of xi^m past the largest zero of H_m, and the computed Gaussian is zero, or
# subnormal and within a factor 2 of the true one, so the product rounds to 0.

_RESCALE_LIMIT = 2.0 ** 500
_RESCALE_FACTOR = 2.0 ** -500
# a step grows |p| by at most |xi|*sqrt(2/m) + 1 <= sqrt(2)*(2*sqrt(n) + 40) + 1,
# below 2^31 for n < 5e17, so 16 steps from at most 2^524 stay finite
_RESCALE_STRIDE = 16
_LN2 = float(np.log(2.0))


def _sweep(n: int, x):
    """(p_{n-1}(x), p_n(x), Gaussian with the carried exponent) on a 1-D x."""
    p_prev = np.zeros_like(x)  # p_{-1} == 0
    p = np.full_like(x, np.pi ** -0.25)  # p_0
    expo = np.zeros_like(x)  # carried base-2 exponent
    # each step writes p_m over p_{m-2} through one spare buffer, in the
    # operation order of the formula above
    spare = np.empty_like(x)
    # the step's two factors as 0-d float64 operands, which a ufunc takes
    # without converting a Python float on every call; the products are the same
    grow, shrink = np.empty(()), np.empty(())
    for m in range(1, n + 1):
        grow[()] = math.sqrt(2.0 / m)
        shrink[()] = math.sqrt((m - 1.0) / m)
        p_next = np.multiply(x, grow, spare)
        p_next *= p
        p_prev *= shrink
        p_next -= p_prev
        p_prev, p, spare = p, p_next, p_prev
        if m % _RESCALE_STRIDE == 0:
            size = np.abs(p, spare)  # spare is free until the next step
            if np.maximum.reduce(size, initial=0.0) > _RESCALE_LIMIT:
                # powers of two rescale exactly; the timing is irrelevant
                big = size > _RESCALE_LIMIT
                p = np.where(big, p * _RESCALE_FACTOR, p)
                p_prev = np.where(big, p_prev * _RESCALE_FACTOR, p_prev)
                expo = np.where(big, expo + 500.0, expo)
    return p_prev, p, np.exp(expo * _LN2 - 0.5 * x * x)


def hermite_sweep(n: int, xi):
    """(h_{n-1}(xi), h_n(xi)) for the normalized Hermite-Gaussian functions.

    The output shape follows xi; a scalar xi gives float64 scalars. Raises
    ValueError for an order that is not a non-negative integer, or a
    non-finite xi.
    """
    if not (isinstance(n, numbers.Integral) and n >= 0):
        raise ValueError(f"order must be a non-negative integer, got {n}")
    xi = np.asarray(xi, dtype=np.float64)[()]
    if not np.isfinite(xi).all():
        raise ValueError("Hermite functions need finite xi")
    if xi.ndim == 0:
        h_prev, h = hermite_sweep(n, np.reshape(xi, 1))
        return h_prev[0], h[0]
    x, back = np.unique(np.minimum(np.abs(xi).ravel(), 2.0 * math.sqrt(n) + 40.0),
                        return_inverse=True)
    p_prev, p, scale = _sweep(n, x)
    back = back.reshape(xi.shape)
    p_prev, p, scale = p_prev[back], p[back], scale[back]
    if n:  # h_{-1} stays +0
        odd = p if n % 2 else p_prev
        np.subtract(0.0, odd, odd, where=xi < 0)
        np.negative(odd, odd, where=(xi == 0) & np.signbit(xi))
    return np.multiply(p_prev, scale, p_prev), np.multiply(p, scale, p)
