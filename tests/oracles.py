"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (explicit
polynomial coefficients, direct tail summation, plain term-by-term complex
arithmetic) and never calls the code paths it checks.
"""

import bisect
import cmath
import math

import numpy as np

from graphene_revivals import Peak

# Physicists' Hermite polynomial coefficients, ascending powers, H_0..H_12.
HERMITE_COEFFS = [
    [1],
    [0, 2],
    [-2, 0, 4],
    [0, -12, 0, 8],
    [12, 0, -48, 0, 16],
    [0, 120, 0, -160, 0, 32],
    [-120, 0, 720, 0, -480, 0, 64],
    [0, -1680, 0, 3360, 0, -1344, 0, 128],
    [1680, 0, -13440, 0, 13440, 0, -3584, 0, 256],
    [0, 30240, 0, -80640, 0, 48384, 0, -9216, 0, 512],
    [-30240, 0, 302400, 0, -403200, 0, 161280, 0, -23040, 0, 1024],
    [0, -665280, 0, 2217600, 0, -1774080, 0, 506880, 0, -56320, 0, 2048],
    [665280, 0, -7983360, 0, 13305600, 0, -7096320, 0, 1520640, 0, -135168,
     0, 4096],
]


def hermite_gaussian_explicit(n: int, xi: float) -> float:
    """exp(-xi^2/2) H_n(xi) / sqrt(2^n n! sqrt(pi)) from explicit coefficients."""
    coeffs = HERMITE_COEFFS[n]
    poly = 0.0
    for k in reversed(range(len(coeffs))):
        poly = poly * xi + coeffs[k]
    norm = math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
    return math.exp(-0.5 * xi * xi) * poly / norm


def hermite_sweep_by_allocation(n: int, xi):
    """(h_{n-1}(xi), h_n(xi)) by the library's Hermite recurrence as written
    with one fresh array per operation.

    The same operations in the same order as _kernels.hermite_sweep (the
    normalized three-term recurrence, a 2^-500 rescale of every point past
    2^500 checked each 16 steps, and the Gaussian attached in log space at the
    end), run at every point as given, negative and repeated ones included.
    hermite_sweep, which sweeps each distinct |xi| once and takes the parity
    (see the Hermite comment in _kernels), must agree with this byte for byte
    wherever this stays finite; far out this overflows to nan.
    """
    xi = np.asarray(xi, dtype=np.float64)
    p_prev, p, expo = np.zeros_like(xi), np.full_like(xi, np.pi ** -0.25), np.zeros_like(xi)
    for m in range(1, n + 1):
        p_prev, p = p, xi * math.sqrt(2.0 / m) * p - math.sqrt((m - 1.0) / m) * p_prev
        if m % 16 == 0:
            big = np.abs(p) > 2.0 ** 500
            p = np.where(big, p * 2.0 ** -500, p)
            p_prev = np.where(big, p_prev * 2.0 ** -500, p_prev)
            expo = np.where(big, expo + 500.0, expo)
    scale = np.exp(expo * math.log(2.0) - 0.5 * xi * xi)
    return p_prev * scale, p * scale


def hermite_log_bound(n: int, x: float) -> float:
    """An upper bound on ln max(|h_{n-1}(x)|, |h_n(x)|) at x != 0.

    H_m(x) = (2x)^m sum_k (-1)^k m!/(k!(m-2k)!) (2x)^(-2k), and
    m!/(m-2k)! <= m^(2k), so |H_m(x)| <= (2|x|)^m exp(m^2/(4x^2)); with
    C_m = sqrt(2^m m! sqrt(pi)),

        ln|h_m(x)| <= -x^2/2 + m ln(2|x|) + m^2/(4x^2) - ln C_m.
    """
    x = abs(float(x))
    return max(-0.5 * x * x + m * math.log(2.0 * x) + m * m / (4.0 * x * x)
               - 0.5 * (m * math.log(2.0) + math.lgamma(m + 1) + 0.5 * math.log(math.pi))
               for m in (n - 1, n) if m >= 0)


def truncation_half_width(n0: int, sigma: float, tol: float) -> int:
    """Smallest k whose excluded Gaussian amplitude weight is below tol of the
    total, with both excluded tails and the total summed exactly (math.fsum).

    g_n = exp(-(n-n0)^2/(2 sigma)) is 0.0 past |n - n0| = sqrt(1492 sigma) + 1,
    so that window holds every nonzero term. The exact excluded weight shrinks
    as k grows, so the first k that meets the bound is found by bisection.
    """
    half = math.ceil(math.sqrt(1492.0 * sigma)) + 1
    lo = max(0, n0 - half)
    g = np.exp(-((np.arange(lo, n0 + half + 1) - n0) ** 2) / (2.0 * sigma)).tolist()
    limit = tol * math.fsum(g)
    c = n0 - lo

    def excluded(k):
        return math.fsum(g[:max(0, c - k)] + g[c + k + 1:])

    return bisect.bisect_left(range(half + 1), True, key=lambda k: excluded(k) < limit)


def brute_force_autocorr(diag, energies_j, hbar, t: float) -> complex:
    """A(t) by plain term-by-term summation (single positive band)."""
    total = 0.0 + 0.0j
    for u, e in zip(diag, energies_j):
        total += u * cmath.exp(-1j * e * t / hbar)
    return total


def brute_force_currents(offdiag, energies_j, hbar, t: float, s: int):
    """(j_x, j_y) of a one-band packet by plain term-by-term summation."""
    jx = 0.0
    jy = 0.0
    for i, u in enumerate(offdiag):
        de = (energies_j[i + 1] - energies_j[i]) / hbar
        jx += s * u * math.cos(de * t)
        jy += u * math.sin(de * t)
    return jx, jy


def dirac_autocorrelation(table, gap_ratio: float, omega_t):
    """A(t) = <psi(0)|exp(-i H t / hbar)|psi(0)> by evolving the truncated K1
    massive Dirac Hamiltonian; returns (A at each omega_t = Omega*t, ||H||_2).

    In units of hbar*Omega, H = -[[0, a], [a^dagger, 0]] + gap_ratio * sigma_z
    on the ladder basis |m>, m <= n_max + 10, with a|m> = sqrt(m)|m-1>. The
    basis interleaves lower |m> and upper |m>, so H is tridiagonal. Its
    eigenvectors come from numpy.linalg.eigh; the packet is
    sum_n c_n |n, s>, c_n = sqrt(U_nn), for each band s the table holds,
    where |n, s> is the eigenvector supported on (upper |n-1>, lower |n>)
    with an energy of sign s. The one n = 0 state (lower |0>) is taken by its
    sector alone: its energy, -gap_ratio, is a signed zero without a gap and
    names no band. No Landau-level formula and no series kernel is used: the
    state is evolved as V exp(-i Lambda Omega t) V^T psi(0).
    """
    dim = table.n_max + 11
    h = np.zeros((2 * dim, 2 * dim))
    m = np.arange(dim - 1)  # index 2m: lower |m>, 2m + 1: upper |m>
    h[2 * m + 1, 2 * m + 2] = h[2 * m + 2, 2 * m + 1] = -np.sqrt(m + 1.0)
    h[np.diag_indices(2 * dim)] = np.tile([-gap_ratio, gap_ratio], dim)
    energies, vectors = np.linalg.eigh(h)
    sector_weight = np.zeros((dim + 1, 2 * dim))  # row n: upper |n-1> + lower |n>
    sector_weight[1:] += vectors[1::2] ** 2
    sector_weight[:dim] += vectors[0::2] ** 2
    sectors = np.argmax(sector_weight, axis=0)
    signs = {"positive": (1.0,), "negative": (-1.0,), "both": (1.0, -1.0)}[table.band_content]
    psi0 = np.zeros(2 * dim)
    for k, n in enumerate(sectors):
        if table.n_min <= n <= table.n_max and (n == 0 or np.sign(energies[k]) in signs):
            psi0 += math.sqrt(table.diag[n - table.n_min]) * vectors[:, k]
    phases = np.exp(-1j * np.multiply.outer(energies, np.asarray(omega_t)))
    psi_t = vectors @ (phases * (vectors.T @ psi0)[:, np.newaxis])
    return psi0 @ psi_t, float(np.max(np.abs(energies)))


def damped_direct_sum(weights, omegas, gamma, hbar, times, trig):
    """sum_j w_j trig(om_j t) exp(-2 gamma t / hbar), one level at a time.

    The broadening envelope is applied inside every term, the form that
    level-dependent widths would need; the library applies it once to the
    finished sum.
    """
    out = np.zeros_like(times)
    for w, om in zip(weights, omegas):
        out += w * trig(om * times) * np.exp(-2.0 * gamma * times / hbar)
    return out


def exact_trig_sums(weights, omegas, times):
    """(sum_j w_j cos(om_j t_k), sum_j w_j sin(om_j t_k)) in 40-digit mpmath.

    The inputs are taken as exact binary values: at 40 digits each product
    om_j * t_k is exact, so these are the exact sums at the same float
    inputs, rounded once to float64 at the end.
    """
    import mpmath as mp
    with mp.workdps(40):
        oms = [mp.mpf(float(om)) for om in omegas]
        sums = _mp_trig_sums(weights, ([om * mp.mpf(float(t)) for om in oms] for t in times))
    return tuple(np.array([float(s) for s in column]) for column in sums)


def exact_sums_of_phases(weights, phases):
    """(sum_j w_j cos(x_kj), sum_j w_j sin(x_kj)) for each row x_k of phases, in
    60-digit mpmath, left unrounded.

    Each float phase is taken as an exact binary value, so these are the
    exact sums of cos/sin of the phases as given; 60 digits leave over 140
    bits after reducing a phase of 4.5e12 rad.
    """
    import mpmath as mp
    with mp.workdps(60):
        return _mp_trig_sums(weights, ([mp.mpf(float(x)) for x in row] for row in phases))


def _mp_trig_sums(weights, phase_rows):
    """Per row of mpf phases, (sum_j w_j cos(x_j), sum_j w_j sin(x_j)) at the
    caller's mpmath precision."""
    import mpmath as mp
    ws = [mp.mpf(float(w)) for w in weights]
    cos_sums, sin_sums = [], []
    for xs in phase_rows:
        cos_sums.append(mp.fsum(w * mp.cos(x) for w, x in zip(ws, xs)))
        sin_sums.append(mp.fsum(w * mp.sin(x) for w, x in zip(ws, xs)))
    return cos_sums, sin_sums


def peaks_by_walk(values, times, min_prominence: float):
    """Peaks and prominences by the definition, one walk per candidate.

    A sample is a peak when it exceeds both neighbours, with the leftmost
    sample of a flat plateau standing for it; each prominence walks out to
    the nearest strictly higher sample on each side. O(N) per candidate.
    """
    v = np.asarray(values, dtype=np.float64)
    peaks = []
    i = 1
    while i < v.size - 1:
        if v[i] > v[i - 1]:
            j = i
            while j + 1 < v.size and v[j + 1] == v[j]:
                j += 1
            if j < v.size - 1 and v[j + 1] < v[j]:
                prom = _prominence_by_walk(v, i)
                if prom >= min_prominence:
                    peaks.append(Peak(time=float(times[i]), value=float(v[i]),
                                      prominence=prom))
            i = j + 1
        else:
            i += 1
    return peaks


def _prominence_by_walk(v, p: int) -> float:
    left_min = v[p]
    i = p - 1
    while i >= 0 and v[i] <= v[p]:
        left_min = min(left_min, v[i])
        i -= 1
    right_min = v[p]
    i = p + 1
    while i < v.size and v[i] <= v[p]:
        right_min = min(right_min, v[i])
        i += 1
    return float(v[p]) - float(max(left_min, right_min))  # inf, as a float, on overflow


def autocorr_lines_by_value(t_fs, values):
    """autocorr CSV data lines built one numpy scalar at a time.

    Each row is t, Re A, Im A and the scalar abs(v) ** 2, each cell
    formatted with .17g.
    """
    return [_g17_line([t, v.real, v.imag, abs(v) ** 2]) for t, v in zip(t_fs, values)]


def current_lines_by_value(t_fs, jx, jy, scale: float):
    """current CSV data lines built one numpy scalar at a time: t, scale*j_x, scale*j_y."""
    return [_g17_line([t, scale * x, scale * y]) for t, x, y in zip(t_fs, jx, jy)]


def _g17_line(row) -> str:
    return ",".join(f"{x:.17g}" for x in row)
