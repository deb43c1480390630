"""Physical constants, field parameters and unit conversions.

Everything downstream works in SI internally (energies in J, times in s);
results are reported in meV / fs / ps through :func:`convert`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

# CODATA 2018 exact values.
HBAR = 1.054571817e-34  # reduced Planck constant [J s]
E_CHARGE = 1.602176634e-19  # elementary charge [C]

# Fermi velocity of monolayer graphene [m/s].
FERMI_VELOCITY_DEFAULT = 1.0e6


@dataclass(frozen=True)
class FieldParams:
    """Physical inputs: magnetic field, Fermi velocity and an optional gap.

    b_tesla : perpendicular magnetic field [T], must be > 0 (a vanishing
        field gives a continuous spectrum and no discrete-level dynamics).
    v_fermi : Fermi velocity [m/s], > 0.
    gap_energy : energy gap [J], >= 0. It enters every level energy, period
        and series frequency, but not the current weights (README).

    All three must be finite; NaN and infinities raise ValueError. So does
    a (B, v_F) whose e*B, hbar/(e*B), Omega or hbar*Omega is zero,
    subnormal or infinite: it would divide by zero or lose digits.
    """

    b_tesla: float
    v_fermi: float = FERMI_VELOCITY_DEFAULT
    gap_energy: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.gap_energy < math.inf:
            raise ValueError(
                f"gap energy must be non-negative and finite, got {self.gap_energy} J")
        e_b = E_CHARGE * self.b_tesla
        tiny = sys.float_info.min  # hbar*Omega normal implies Omega normal
        if not (tiny <= e_b < math.inf and HBAR / e_b >= tiny
                and tiny <= HBAR * omega(self) < math.inf):
            raise ValueError(
                f"B = {self.b_tesla} T and v_F = {self.v_fermi} m/s must be positive and "
                "give normal floats e*B, hbar/(e*B), Omega and hbar*Omega")


def magnetic_length(params: FieldParams) -> float:
    """Magnetic length L = sqrt(hbar / (e B)) [m]."""
    return math.sqrt(HBAR / (E_CHARGE * params.b_tesla))


def omega(params: FieldParams) -> float:
    """Level-spacing frequency Omega = sqrt(2) v_F / L [rad/s].

    hbar*Omega is the energy of the first Landau level.
    """
    return math.sqrt(2.0) * params.v_fermi / magnetic_length(params)


# unit name -> (dimension, factor to the dimension's SI base unit)
_UNITS = {
    "J": ("energy", 1.0),
    "meV": ("energy", E_CHARGE * 1e-3),
    "s": ("time", 1.0),
    "fs": ("time", 1e-15),
    "ps": ("time", 1e-12),
    "rad/s": ("angular_frequency", 1.0),
}


def convert(value: float, from_unit: str, to_unit: str) -> float:
    """Convert between J, meV, s, fs, ps and rad/s.

    Energy and angular frequency interconvert through E = hbar * omega.
    Incompatible dimensions (e.g. time to energy) raise ValueError.
    """
    try:
        dim_from, fac_from = _UNITS[from_unit]
        dim_to, fac_to = _UNITS[to_unit]
    except KeyError as err:
        raise ValueError(f"unknown unit {err.args[0]!r}; supported: {sorted(_UNITS)}") from None

    si = value * fac_from
    if dim_from == dim_to:
        return si / fac_to
    if {dim_from, dim_to} == {"energy", "angular_frequency"}:
        si = si / HBAR if dim_from == "energy" else si * HBAR
        return si / fac_to
    raise ValueError(f"cannot convert {from_unit!r} ({dim_from}) to {to_unit!r} ({dim_to})")
