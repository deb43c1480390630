import math

import numpy as np
import pytest
from scipy import integrate

from graphene_revivals import eigenspinor, hermite_function

from oracles import hermite_gaussian_explicit

XI_GRID = np.linspace(-8.0, 8.0, 161)


def test_ground_state_value():
    assert hermite_function(0, 0.0) == pytest.approx(math.pi ** -0.25, rel=1e-14, abs=0)
    assert hermite_function(0, 0.0) == pytest.approx(0.7511, rel=1e-3, abs=0)


def test_first_excited_is_odd():
    assert hermite_function(1, 0.0) == 0.0


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        hermite_function(-1, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_xi_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        hermite_function(5, bad)
    with pytest.raises(ValueError, match="finite"):
        eigenspinor(3, +1, "K1", [0.0, bad])


@pytest.mark.parametrize("n", range(13))
def test_recurrence_matches_explicit_polynomials(n):
    values = hermite_function(n, XI_GRID)
    expected = np.array([hermite_gaussian_explicit(n, x) for x in XI_GRID])
    assert values == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_orthonormality_by_quadrature():
    # trapezoid rule for h_m h_n over the real line, all m <= n <= 30; the
    # integrand decays like exp(-xi^2), so the rule converges exponentially
    n_max = 30
    cutoff = math.sqrt(2 * n_max + 1) + 8.0
    xi = np.linspace(-cutoff, cutoff, 1601)
    h = [hermite_function(n, xi) for n in range(n_max + 1)]
    for n in range(n_max + 1):
        for m in range(n + 1):
            val = integrate.trapezoid(h[m] * h[n], xi)
            assert val == pytest.approx(1.0 if m == n else 0.0, abs=1e-8), (m, n)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 13, 40, 101])
def test_parity(n):
    xi = np.linspace(0.1, 7.0, 37)
    left = hermite_function(n, -xi)
    right = (-1.0) ** n * hermite_function(n, xi)
    assert left == pytest.approx(right, abs=1e-13)


SAMPLED_ORDERS = sorted(set(range(1, 33)) | {
    40, 50, 64, 80, 100, 128, 160, 200, 256, 320, 400, 500, 640, 754, 800,
    900, 1000})


def test_sup_norm_bound_up_to_n_1000():
    xi = np.linspace(-40.0, 40.0, 1601)
    running_max = max(float(np.abs(hermite_function(m, xi)).max())
                      for m in SAMPLED_ORDERS)
    assert running_max <= 0.8


def test_forbidden_region_against_mpmath():
    # near xi ~ 38.6 the Gaussian factor alone underflows; a naive
    # Gaussian-seeded recurrence loses the amplitude there
    import mpmath as mp

    def exact(n, x):
        c_n = mp.sqrt(mp.mpf(2) ** n * mp.factorial(n) * mp.sqrt(mp.pi))
        return float(mp.e ** (-mp.mpf(x) ** 2 / 2) * mp.hermite(n, x) / c_n)

    with mp.workdps(50):
        for n, x in [(754, 38.6), (1000, 40.0), (200, 25.0), (50, 3.0)]:
            assert hermite_function(n, x) == pytest.approx(exact(n, x), rel=1e-9, abs=0)


def test_stable_at_high_order():
    xi = np.linspace(-50.0, 50.0, 501)
    values = hermite_function(10_000, xi)
    assert np.all(np.isfinite(values))
    assert np.abs(values).max() <= 0.8


@pytest.mark.parametrize("n, xi", [(10000, 1e11), (40, 1e15), (17, 1e100), (3, 1e155)])
def test_far_out_finite_xi_gives_zero(n, xi):
    # the recurrence alone overflows here and gives nan
    assert hermite_function(n, xi) == 0.0
    sp = eigenspinor(n, +1, "K2", [xi])
    assert sp.upper.tolist() == sp.lower.tolist() == [0.0]


def test_spinor_patterns():
    xi = np.linspace(-5.0, 5.0, 41)
    for n in (1, 4):
        for s in (+1, -1):
            below = hermite_function(n - 1, xi)
            at = hermite_function(n, xi)
            k1 = eigenspinor(n, s, "K1", xi)
            assert k1.upper == pytest.approx(-s * below, abs=1e-14)
            assert k1.lower == pytest.approx(at, abs=1e-14)
            k2 = eigenspinor(n, s, "K2", xi)
            assert k2.upper == pytest.approx(at, abs=1e-14)
            assert k2.lower == pytest.approx(s * below, abs=1e-14)


def test_lowest_level_spinor_has_single_component():
    xi = np.linspace(-5.0, 5.0, 41)
    for s in (+1, -1):
        sp = eigenspinor(0, s, "K1", xi)
        assert np.all(sp.upper == 0.0)
        assert sp.lower == pytest.approx(hermite_function(0, xi), abs=1e-14)


@pytest.mark.parametrize("n,expected", [(0, 1.0), (1, 2.0), (5, 2.0)])
def test_spinor_norm_by_quadrature(n, expected):
    def density(x):
        sp = eigenspinor(n, +1, "K1", np.array([x]))
        return float(sp.upper[0] ** 2 + sp.lower[0] ** 2)

    val, _ = integrate.quad(density, -20.0, 20.0, limit=200)
    assert val == pytest.approx(expected, abs=1e-8)


def test_spinor_validation():
    with pytest.raises(ValueError):
        eigenspinor(-1, +1, "K1", 0.0)
    with pytest.raises(ValueError):
        eigenspinor(2, 3, "K1", 0.0)
    with pytest.raises(ValueError):
        eigenspinor(2, +1, "K3", 0.0)
