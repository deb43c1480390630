import math

import pytest

from graphene_revivals import (E_CHARGE, HBAR, FieldParams, convert,
                               magnetic_length, omega)

# direct evaluation of sqrt(hbar/(e B)) and sqrt(2) v_F / L at B = 10 T
L_10T = 8.113026294469947e-09
OMEGA_10T = 174313937986009.06
HBAR_OMEGA_10T_MEV = 114.73551817528936


def test_magnetic_length_value():
    assert magnetic_length(FieldParams(10.0)) == pytest.approx(L_10T, rel=1e-13)
    # coarse sanity figure
    assert magnetic_length(FieldParams(10.0)) == pytest.approx(8.11e-9, rel=1e-3)


def test_magnetic_length_scaling():
    l10 = magnetic_length(FieldParams(10.0))
    assert magnetic_length(FieldParams(40.0)) == pytest.approx(l10 / 2, rel=1e-13)
    ref = l10 * math.sqrt(10.0)
    for b in (1.0, 5.0, 10.0, 40.0):
        assert magnetic_length(FieldParams(b)) * math.sqrt(b) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("b", [0.0, -2.5])
def test_nonpositive_field_rejected(b):
    with pytest.raises(ValueError):
        FieldParams(b)


def test_field_params_validation():
    with pytest.raises(ValueError):
        FieldParams(10.0, v_fermi=0.0)
    with pytest.raises(ValueError):
        FieldParams(10.0, gap_energy=-1e-25)


def test_omega_value():
    assert omega(FieldParams(10.0)) == pytest.approx(OMEGA_10T, rel=1e-13)


def test_omega_scaling():
    om = omega(FieldParams(10.0))
    assert omega(FieldParams(40.0)) == pytest.approx(2 * om, rel=1e-13)
    assert omega(FieldParams(10.0, v_fermi=2e6)) == pytest.approx(2 * om, rel=1e-13)


def test_convert_definitions():
    assert convert(1.0, "meV", "J") == E_CHARGE * 1e-3
    assert convert(1.0, "meV", "J") == pytest.approx(1.602176634e-22, rel=1e-15)
    assert convert(17.0, "ps", "s") == pytest.approx(1.7e-11, rel=1e-15)
    assert convert(1.0, "fs", "s") == 1e-15


def test_convert_energy_frequency_bridge():
    om = omega(FieldParams(10.0))
    assert convert(om, "rad/s", "meV") == pytest.approx(HBAR_OMEGA_10T_MEV, rel=1e-13)
    assert convert(om, "rad/s", "meV") == pytest.approx(114.8, rel=1e-3)
    assert convert(1.0, "meV", "rad/s") == pytest.approx(1.602176634e-22 / HBAR, rel=1e-14)


@pytest.mark.parametrize("a,b", [("J", "meV"), ("s", "fs"), ("s", "ps"),
                                 ("fs", "ps"), ("J", "rad/s"), ("meV", "rad/s")])
def test_convert_round_trip(a, b):
    for x in (1.0, 3.7e-3, 279.0, 1.055e-34):
        assert convert(convert(x, a, b), b, a) == pytest.approx(x, rel=1e-14)


def test_convert_incompatible():
    with pytest.raises(ValueError):
        convert(1.0, "s", "J")
    with pytest.raises(ValueError):
        convert(1.0, "fs", "rad/s")
    with pytest.raises(ValueError):
        convert(1.0, "eV", "J")


def test_constants_are_codata_2018():
    assert HBAR == 1.054571817e-34
    assert E_CHARGE == 1.602176634e-19


@pytest.mark.parametrize("b, v_f", [
    (1e-310, 1e6),   # e*B underflows to 0: hbar/(e*B) divided by zero
    (1e-300, 1e6),   # e*B subnormal: Omega 6.4e-6 off
    (1e308, 1e6),    # hbar/(e*B) subnormal: Omega 15% off
    (10.0, 1e-320),  # Omega subnormal, hbar*Omega zero
])
def test_field_scales_outside_the_normal_range_rejected(b, v_f):
    with pytest.raises(ValueError, match="normal floats"):
        FieldParams(b, v_fermi=v_f)
