"""Time series of the autocorrelation and electric-current expectations.

All series are sums of weighted trigonometric terms over the populated
levels, with phases E*t/hbar (:func:`_terms` is their one code form):

    A(t)  = sum_{n,s} U_{n,n} exp(-i E_{n,s} t / hbar)
    j_x(t) = s * sum_n U_{n-1,n} cos[(E_n - E_{n-1}) t / hbar]   (one band)
    j_y(t) =     sum_n U_{n-1,n} sin[(E_n - E_{n-1}) t / hbar]   (one band)
    j_y(t) =     sum_n U_{n-1,n} { sin[(E_n + E_{n-1}) t / hbar]
                                 + sin[(E_n - E_{n-1}) t / hbar] }  (two bands)

with j_x identically zero in the two-band case. In a one-band current the
0 -> 1 term weighs sqrt(2) U_{0,1}: the n = 0 state has one spinor component,
where each n >= 1 state splits its norm over two (exact without a gap; the
gap's mixing factors are not applied). Level broadening with a
level-independent width Gamma multiplies every current term by
exp(-2*Gamma*t/hbar), which commutes with the sum and is applied as a global
envelope to the finished series (:func:`damped`). The current sums run over
transitions n-1 -> n with n >= 1, while the n = 0 population does enter A(t).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._kernels import phase_rounding, trig_series
from .constants import HBAR
from .spectrum import SpectrumModel, level_frequencies
from .wavepacket import WeightTable


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid over [t_start, t_end] with n_samples points [s]."""

    t_start: float
    t_end: float
    n_samples: int = 4096

    def __post_init__(self):
        if not 0.0 <= self.t_start < self.t_end < math.inf:
            raise ValueError(
                f"need finite t_end > t_start >= 0, got [{self.t_start}, {self.t_end}]")
        if not (isinstance(self.n_samples, numbers.Integral) and self.n_samples >= 2):
            raise ValueError(f"need an integer number of samples >= 2, got {self.n_samples}")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_samples)

    @property
    def spacing(self) -> float:
        return (self.t_end - self.t_start) / (self.n_samples - 1)


class ObservableSeries(NamedTuple):
    """A sampled observable: the complex, dimensionless autocorrelation A(t),
    or a real current j_x or j_y in units of e*v_F."""

    grid: TimeGrid
    values: np.ndarray


@dataclass(frozen=True)
class BroadeningModel:
    """Level-independent Landau-level width Gamma [J]; zero = no broadening."""

    gamma: float = 0.0

    def __post_init__(self):
        _check_width(self.gamma)


def _check_width(gamma: float) -> None:
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"broadening must be non-negative and finite, got {gamma} J")


_BAND_SIGN = {"positive": +1, "negative": -1, "both": 0}  # band index s; 0: both


def _terms(table: WeightTable, model: SpectrumModel, current: bool):
    """(weights, frequencies, (cos_scale, sin_scale)) of A(t), or of (j_x, j_y)
    if current: the formulas above, the two-band j_y as one sine series."""
    om = level_frequencies(model, table.levels)
    s = _BAND_SIGN[table.band_content]
    if not current:
        return table.diag, om, ((1, -s) if s else (2.0, 0))
    d_om = om[1:] - om[:-1]
    if s:
        weights = table.offdiag
        if table.n_min == 0:  # |0> has one spinor component, |n >= 1> two
            weights = weights.copy()
            weights[0] *= math.sqrt(2.0)
        return weights, d_om, (s, 1)
    return np.tile(table.offdiag, 2), np.concatenate([om[1:] + om[:-1], d_om]), (0, 1)


def _series(table, model, times, current):
    """The scaled (cos, sin) sums of :func:`_terms` over times, in one kernel call."""
    weights, omegas, scales = _terms(table, model, current)
    return trig_series(weights, omegas, times, scales)


def autocorrelation(table: WeightTable, model: SpectrumModel,
                    grid: TimeGrid) -> ObservableSeries:
    """Overlap of the evolved packet with itself at t = 0; |A(0)| = 1. Unbroadened."""
    re, im = _series(table, model, grid.times, current=False)
    return ObservableSeries(grid, re + 1j * im)  # + 1j * im turns a -0 into +0


def max_frequency(table: WeightTable, model: SpectrumModel) -> float:
    """Upper bound of |om| over every series term of this table [rad/s].

    E_{n_max}/hbar, gap included, bounds the level and intraband transition
    frequencies; the two-band sum frequencies (E_n + E_{n-1})/hbar stay
    below twice it. The one-band bound is E_{n_max}/hbar and not the far
    smaller largest transition frequency: (E_n - E_{n-1})/hbar is a
    difference of two level frequencies and carries their rounding, up to
    eps * E_{n_max}/hbar, so a phase is only as good as that bound times t.
    """
    with np.errstate(over="ignore"):  # a bound past the largest double is inf
        return table.band_multiplicity * float(level_frequencies(model, table.n_max))


def damped(series: ObservableSeries, gamma: float) -> ObservableSeries:
    """The series times the level-width envelope exp(-2*Gamma*t/hbar), Gamma [J].

    Gamma must be finite and >= 0 (ValueError otherwise), as in BroadeningModel.
    """
    _check_width(gamma)
    env = np.exp(-2.0 * gamma * series.grid.times / HBAR)
    return series._replace(values=series.values * env)


def _current_pair(table, model, grid, broadening):
    pair = tuple(ObservableSeries(grid, j) for j in _series(table, model, grid.times, True))
    if broadening is None:
        return pair
    return tuple(damped(j, broadening.gamma) for j in pair)


def current_single_band(table: WeightTable, model: SpectrumModel, grid: TimeGrid,
                        s: int, broadening: BroadeningModel | None = None,
                        ) -> tuple[ObservableSeries, ObservableSeries]:
    """Cyclotron currents (j_x, j_y) of a one-band packet, in units of e*v_F.

    The table must have been built with the matching single band.
    """
    if s not in (+1, -1):
        raise ValueError(f"band index s must be +1 or -1, got {s}")
    if _BAND_SIGN[table.band_content] != s:
        raise ValueError(
            f"table holds {table.band_content!r} band content, need band index {s:+d}")
    phase_rounding(max_frequency(table, model), grid.t_end)
    return _current_pair(table, model, grid, broadening)


def current_two_band(table: WeightTable, model: SpectrumModel, grid: TimeGrid,
                     broadening: BroadeningModel | None = None,
                     ) -> tuple[ObservableSeries, ObservableSeries]:
    """Currents of an equal-weight two-band packet, in units of e*v_F.

    j_x vanishes identically (returned as exact zeros). j_y carries both the
    slow intraband transitions and the fast interband (zitterbewegung) terms.
    Known issue: j_y is half the unit-norm state's expectation (README).
    """
    if _BAND_SIGN[table.band_content]:
        raise ValueError(
            f"table holds {table.band_content!r} band content, need 'both'")
    return _current_pair(table, model, grid, broadening)


def currents(table: WeightTable, model: SpectrumModel, grid: TimeGrid,
             ) -> tuple[ObservableSeries, ObservableSeries]:
    """Unbroadened (j_x, j_y) for whichever band content the table holds."""
    s = _BAND_SIGN[table.band_content]
    if s:
        return current_single_band(table, model, grid, s)
    return current_two_band(table, model, grid)


def total_current_both_valleys(per_valley: ObservableSeries) -> ObservableSeries:
    """Total current from both degenerate valleys: twice the one-valley series.

    The two valleys host distinct eigenspinors but identical spectra, and a
    packet built with common coefficients contributes equally from each.
    """
    return per_valley._replace(values=2.0 * per_valley.values)


def abs_squared(series: ObservableSeries) -> ObservableSeries:
    """|values|^2 as a real series (e.g. revival strength |A(t)|^2); hypot,
    then pow: the same bits as the scalar abs(v) ** 2."""
    v = series.values
    return series._replace(values=np.float_power(np.hypot(v.real, v.imag), 2.0))
