"""Landau-level spectrum of Dirac electrons and the derived time scales.

The spectrum E_{n,s} = s * sqrt(Delta^2 + n (hbar*Omega)^2) (s = +1 conduction
band, s = -1 valence band, Delta = FieldParams.gap_energy) is formed here only.
It is strongly anharmonic, so a packet centred on level n0 carries three
distinct periods, all from the local Taylor expansion of E_n around n0:

    T_cl = 2*pi*hbar / |E'(n0)|    classical cyclotron period
    T_r  = 4*pi*hbar / |E''(n0)|   revival time
    T_zb = pi*hbar / E(n0)         interband (zitterbewegung) period

Their ratios are T_r/T_cl = T_cl/T_zb = 4*E(n0)^2/(hbar*Omega)^2 (4*n0 at Delta = 0).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .constants import HBAR, FieldParams, omega as _omega


@dataclass(frozen=True)
class SpectrumModel:
    """Field parameters plus the cached level-spacing frequency."""

    params: FieldParams
    omega: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "omega", _omega(self.params))


class TimeScales(NamedTuple):
    """The three characteristic periods of a packet centred on one level [s]."""

    t_classical: float
    t_revival: float
    t_zitterbewegung: float


def landau_energy(model: SpectrumModel, n, s: int):
    """Energy of Landau level (n, s): s * hypot(Delta, hbar*Omega * sqrt(n)) [J].

    n may be a scalar or an integer array; all entries must be finite and >= 0.
    """
    if s not in (+1, -1):
        raise ValueError(f"band index s must be +1 or -1, got {s}")
    n_arr = np.asarray(n)
    if not np.all((n_arr >= 0) & np.isfinite(n_arr)):
        raise ValueError("level index n must be finite and non-negative")
    e = s * np.hypot(model.params.gap_energy, HBAR * model.omega * np.sqrt(n_arr))
    return e if n_arr.ndim else float(e)


def level_frequencies(model: SpectrumModel, n) -> np.ndarray:
    """E_n / hbar = hypot(Delta/hbar, Omega * sqrt(n)) for levels n >= 0 [rad/s]."""
    return np.hypot(model.params.gap_energy / HBAR, model.omega * np.sqrt(n))


def spectrum_derivatives(model: SpectrumModel, n0: int) -> tuple[float, float]:
    """First and second derivatives of E_n at n0, in (J per level, J per level^2):

    E' = (hbar*Omega)^2 / (2 E),  E'' = -(hbar*Omega)^4 / (4 E^3), written as the
    gapless hbar*Omega / (2 sqrt(n0)) and -hbar*Omega / (4 n0^{3/2}) times r and
    r^3, r = hbar*Omega*sqrt(n0) / E (exactly 1.0 at Delta = 0). Raises
    ValueError when E'' underflows (a gap far above hbar*Omega*sqrt(n0)); as
    |E'| >= 2|E''|, both are otherwise normal and every period finite.
    """
    if n0 < 1:
        raise ValueError(f"derivatives require n0 >= 1 (singular at n = 0), got {n0}")
    e_scale = HBAR * model.omega
    r = e_scale * math.sqrt(n0) / landau_energy(model, n0, +1)
    d1 = e_scale / (2.0 * math.sqrt(n0)) * r
    d2 = -e_scale / (4.0 * n0 ** 1.5) * r ** 3
    if not abs(d2) >= sys.float_info.min:
        raise ValueError(f"E''(n0 = {n0}) = {d2!r} J underflows: the gap is too large")
    return d1, d2


def timescales(model: SpectrumModel, n0: int) -> TimeScales:
    """Classical, revival and zitterbewegung periods for a packet at n0."""
    d1, d2 = spectrum_derivatives(model, n0)
    e_n0 = landau_energy(model, n0, +1)
    return TimeScales(
        t_classical=2.0 * math.pi * HBAR / abs(d1),
        t_revival=4.0 * math.pi * HBAR / abs(d2),
        t_zitterbewegung=math.pi * HBAR / e_n0,
    )
