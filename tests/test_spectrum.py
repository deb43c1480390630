import math

import numpy as np
import pytest

from graphene_revivals import (E_CHARGE, HBAR, FieldParams, SpectrumModel, convert,
                               landau_energy, spectrum_derivatives, timescales)
from graphene_revivals.spectrum import level_frequencies


def test_zero_level_energy(model10):
    assert landau_energy(model10, 0, +1) == 0.0
    assert landau_energy(model10, 0, -1) == 0.0


def test_first_level_energy(model10):
    e1 = landau_energy(model10, 1, +1)
    assert convert(e1, "J", "meV") == pytest.approx(114.73551817528936, rel=1e-13, abs=0)
    assert convert(e1, "J", "meV") == pytest.approx(114.8, rel=1e-3, abs=0)


def test_band_antisymmetry(model10):
    e1 = landau_energy(model10, 1, +1)
    assert landau_energy(model10, 4, -1) == pytest.approx(-2 * e1, rel=1e-14, abs=0)
    for n in (0, 1, 2, 7, 50):
        assert landau_energy(model10, n, -1) == -landau_energy(model10, n, +1)


def test_energy_array_input(model10):
    n = np.array([0, 1, 4, 9])
    e = landau_energy(model10, n, +1)
    assert e == pytest.approx(HBAR * model10.omega * np.array([0, 1, 2, 3]), rel=1e-14, abs=0)


def test_energy_validation(model10):
    with pytest.raises(ValueError):
        landau_energy(model10, -1, +1)
    with pytest.raises(ValueError):
        landau_energy(model10, 2, 0)


def test_derivatives_at_n0_1(model10):
    d1, d2 = spectrum_derivatives(model10, 1)
    scale = HBAR * model10.omega
    assert d1 == pytest.approx(scale / 2, rel=1e-14, abs=0)
    assert d2 == pytest.approx(-scale / 4, rel=1e-14, abs=0)


def test_derivatives_reject_n0_0(model10):
    with pytest.raises(ValueError):
        spectrum_derivatives(model10, 0)
    with pytest.raises(ValueError):
        timescales(model10, 0)


def test_second_derivative_vs_finite_difference(model10):
    # central difference on the exact spectrum as an independent oracle
    d1, d2 = spectrum_derivatives(model10, 15)
    e = [landau_energy(model10, n, +1) for n in (14, 15, 16)]
    fd = e[2] - 2 * e[1] + e[0]
    assert d2 == pytest.approx(fd, rel=5e-3, abs=0)


@pytest.mark.parametrize("n0", [10, 15, 50, 200])
def test_first_derivative_vs_central_difference(model10, n0):
    d1, _ = spectrum_derivatives(model10, n0)
    fd = (landau_energy(model10, n0 + 1, +1) - landau_energy(model10, n0 - 1, +1)) / 2
    assert d1 == pytest.approx(fd, rel=1e-2, abs=0)


def test_timescale_values(model10):
    ts = timescales(model10, 15)
    assert convert(ts.t_classical, "s", "fs") == pytest.approx(
        279.20512079527276, rel=1e-12, abs=0)
    assert convert(ts.t_revival, "s", "ps") == pytest.approx(
        16.752307247716363, rel=1e-12, abs=0)
    assert convert(ts.t_zitterbewegung, "s", "fs") == pytest.approx(
        4.653418679921212, rel=1e-12, abs=0)


def test_timescale_ordering(model10):
    for n0 in (1, 2, 11, 15, 50):
        ts = timescales(model10, n0)
        assert ts.t_zitterbewegung < ts.t_classical < ts.t_revival


@pytest.mark.parametrize("n0", [1, 2, 5, 11, 15, 50])
def test_ratio_identities(model10, n0):
    ts = timescales(model10, n0)
    assert ts.t_revival / ts.t_classical == pytest.approx(4 * n0, rel=1e-12, abs=0)
    assert ts.t_classical / ts.t_zitterbewegung == pytest.approx(4 * n0, rel=1e-12, abs=0)
    assert ts.t_revival / ts.t_zitterbewegung == pytest.approx(16 * n0 ** 2, rel=1e-12, abs=0)


def test_field_scaling_of_timescales():
    # all periods scale as 1/sqrt(B)
    ts_b = timescales(SpectrumModel(FieldParams(10.0)), 15)
    ts_4b = timescales(SpectrumModel(FieldParams(40.0)), 15)
    assert ts_4b.t_classical == pytest.approx(ts_b.t_classical / 2, rel=1e-12, abs=0)
    assert ts_4b.t_revival == pytest.approx(ts_b.t_revival / 2, rel=1e-12, abs=0)
    assert ts_4b.t_zitterbewegung == pytest.approx(ts_b.t_zitterbewegung / 2, rel=1e-12, abs=0)


def test_gap_free_reduction(model10):
    ts = timescales(model10, 15)
    gap_free = SpectrumModel(FieldParams(10.0, gap_energy=0.0))
    assert timescales(gap_free, 15).t_zitterbewegung == ts.t_zitterbewegung


def test_gap_shortens_period():
    e1 = landau_energy(SpectrumModel(FieldParams(10.0)), 15, +1)
    gaps = [0.0, 0.5 * e1, e1, 5 * e1, 50 * e1]
    periods = [timescales(SpectrumModel(FieldParams(10.0, gap_energy=g)), 15).t_zitterbewegung
               for g in gaps]
    assert all(a > b for a, b in zip(periods, periods[1:]))


def test_gap_equal_to_level_energy():
    model = SpectrumModel(FieldParams(10.0))
    e15 = landau_energy(model, 15, +1)
    gapped = SpectrumModel(FieldParams(10.0, gap_energy=e15))
    ts = timescales(model, 15)
    assert timescales(gapped, 15).t_zitterbewegung == pytest.approx(
        ts.t_zitterbewegung / math.sqrt(2), rel=1e-14, abs=0)


@pytest.mark.parametrize("b", [0.37, 10.0, 73.0])
def test_gapless_spectrum_keeps_its_bits(b):
    # at Delta = 0, hypot(0, x) == x and r = x / x == 1.0 exactly
    model = SpectrumModel(FieldParams(b))
    n = np.arange(5000)
    assert level_frequencies(model, n).tobytes() == (model.omega * np.sqrt(n)).tobytes()
    assert landau_energy(model, n, -1).tobytes() == (-HBAR * model.omega * np.sqrt(n)).tobytes()
    e_scale = HBAR * model.omega
    for n0 in range(1, 5000):
        assert spectrum_derivatives(model, n0) == (
            e_scale / (2.0 * math.sqrt(n0)), -e_scale / (4.0 * n0 ** 1.5))


def _gaps():
    """0, 50 meV, E_15 and 10 E_15 at B = 10 T [J]."""
    e15 = landau_energy(SpectrumModel(FieldParams(10.0)), 15, +1)
    return [0.0, convert(50.0, "meV", "J"), e15, 10.0 * e15]


@pytest.mark.parametrize("gap", _gaps())
@pytest.mark.parametrize("n0", [1, 15, 200])
def test_gapped_ratio_identities(gap, n0):
    # T_r/T_cl = T_cl/T_zb = 4 E^2 / (hbar Omega)^2, E = sqrt(Delta^2 + n0 (hbar Omega)^2)
    model = SpectrumModel(FieldParams(10.0, gap_energy=gap))
    ts = timescales(model, n0)
    ratio = 4.0 * (gap ** 2 / (HBAR * model.omega) ** 2 + n0)
    assert ts.t_revival / ts.t_classical == pytest.approx(ratio, rel=1e-12, abs=0)
    assert ts.t_classical / ts.t_zitterbewegung == pytest.approx(ratio, rel=1e-12, abs=0)


@pytest.mark.parametrize("gap", _gaps()[1:])
def test_gapped_derivatives_vs_central_difference(gap):
    model = SpectrumModel(FieldParams(10.0, gap_energy=gap))
    d1, d2 = spectrum_derivatives(model, 15)
    e = [landau_energy(model, n, +1) for n in (14, 15, 16)]
    assert d1 / ((e[2] - e[0]) / 2) == pytest.approx(1.0, rel=1e-2, abs=0)
    assert d2 / (e[2] - 2 * e[1] + e[0]) == pytest.approx(1.0, rel=5e-3, abs=0)


@pytest.mark.parametrize("gap_over_e15", [30.0, 1e3, 1e6])
def test_nonrelativistic_cyclotron_limit(gap_over_e15):
    # for Delta >> hbar Omega sqrt(n0): E = Delta (1 + x/2 - ...), x = n0 (hbar Omega/Delta)^2,
    # so T_cl = 2 pi E / (e B v_F^2) exceeds 2 pi Delta / (e B v_F^2) by at most x/2
    field = FieldParams(10.0)
    hbar_omega = HBAR * SpectrumModel(field).omega
    gap = gap_over_e15 * hbar_omega * math.sqrt(15)
    model = SpectrumModel(FieldParams(10.0, gap_energy=gap))
    t_massive = 2.0 * math.pi * gap / (E_CHARGE * field.b_tesla * field.v_fermi ** 2)
    x = 15 * (hbar_omega / gap) ** 2
    excess = timescales(model, 15).t_classical / t_massive - 1.0
    assert -1e-15 <= excess <= x / 2


@pytest.mark.parametrize("gap_mev", [1e100, 1e300])  # E'' subnormal, then zero
def test_underflowing_curvature_raises(gap_mev):
    model = SpectrumModel(FieldParams(10.0, gap_energy=convert(gap_mev, "meV", "J")))
    with pytest.raises(ValueError, match="underflows"):
        spectrum_derivatives(model, 15)
    with pytest.raises(ValueError, match="underflows"):
        timescales(model, 15)
