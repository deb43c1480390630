"""Time series of the autocorrelation and electric-current expectations.

All series are sums of weighted trigonometric terms over the populated
levels, with phases E*t/hbar:

    A(t)  = sum_{n,s} U_{n,n} exp(-i E_{n,s} t / hbar)
    j_x(t) = s * sum_n U_{n-1,n} cos[(E_n - E_{n-1}) t / hbar]   (one band)
    j_y(t) =     sum_n U_{n-1,n} sin[(E_n - E_{n-1}) t / hbar]   (one band)
    j_y(t) =     sum_n U_{n-1,n} { sin[(E_n + E_{n-1}) t / hbar]
                                 + sin[(E_n - E_{n-1}) t / hbar] }  (two bands)

with j_x identically zero in the two-band case. Level broadening with a
level-independent width Gamma multiplies every current term by
exp(-2*Gamma*t/hbar), which commutes with the sum and is applied as a global
envelope to the finished series (:func:`damped`). The current sums run over
transitions n-1 -> n with n >= 1, while the n = 0 population does enter A(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import trig_series
from .constants import HBAR
from .spectrum import SpectrumModel, level_frequencies
from .wavepacket import PacketSpec, WeightTable, truncation_range


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
        if self.n_samples < 2:
            raise ValueError(f"need at least 2 samples, got {self.n_samples}")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_samples)

    @property
    def spacing(self) -> float:
        return (self.t_end - self.t_start) / (self.n_samples - 1)


@dataclass(frozen=True)
class ObservableSeries:
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


def _autocorr_values(table: WeightTable, model: SpectrumModel,
                     times: np.ndarray) -> np.ndarray:
    om = level_frequencies(model, table.levels)
    if table.band_content == "both":
        # e^{-i om t} + e^{+i om t} summed with equal per-band weights
        (cos_part,) = trig_series(table.diag, om, times, np.cos)
        return 2.0 * cos_part + 0.0j
    cos_part, sin_part = trig_series(table.diag, om, times, np.cos, np.sin)
    s = +1 if table.band_content == "positive" else -1
    return cos_part - 1j * s * sin_part


def autocorrelation(table: WeightTable, model: SpectrumModel,
                    grid: TimeGrid) -> ObservableSeries:
    """Overlap of the evolved packet with itself at t = 0; |A(0)| = 1. Unbroadened."""
    return ObservableSeries(grid, _autocorr_values(table, model, grid.times))


def max_frequency(spec: PacketSpec, model: SpectrumModel) -> float:
    """Upper bound of |om| over every series term of this packet [rad/s].

    E_{n_max}/hbar, gap included, bounds the level and intraband transition
    frequencies; the two-band sum frequencies (E_n + E_{n-1})/hbar stay
    below twice it.
    """
    _, n_max = truncation_range(spec)
    with np.errstate(over="ignore"):  # a bound past the largest double is inf
        return (2.0 if spec.bands == "both" else 1.0) * float(level_frequencies(model, n_max))


def _transition_frequencies(table, model):
    """((E_n - E_{n-1})/hbar, (E_n + E_{n-1})/hbar) for n = n_min+1..n_max."""
    om = level_frequencies(model, table.levels)
    return om[1:] - om[:-1], om[1:] + om[:-1]


def damped(series: ObservableSeries, gamma: float) -> ObservableSeries:
    """The series times the level-width envelope exp(-2*Gamma*t/hbar), Gamma [J].

    Gamma must be finite and >= 0 (ValueError otherwise), as in BroadeningModel.
    """
    _check_width(gamma)
    env = np.exp(-2.0 * gamma * series.grid.times / HBAR)
    return replace(series, values=series.values * env)


def _single_band_values(table, model, times, s):
    d_om, _ = _transition_frequencies(table, model)
    cos_part, sin_part = trig_series(table.offdiag, d_om, times, np.cos, np.sin)
    return s * cos_part, sin_part


def _two_band_values(table, model, times):
    d_om, s_om = _transition_frequencies(table, model)
    (sin_fast,) = trig_series(table.offdiag, s_om, times, np.sin)
    (sin_slow,) = trig_series(table.offdiag, d_om, times, np.sin)
    return np.zeros_like(times), sin_fast + sin_slow


def _current_pair(grid, jx, jy, broadening):
    pair = ObservableSeries(grid, jx), ObservableSeries(grid, jy)
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
    expected = "positive" if s == +1 else "negative"
    if table.band_content != expected:
        raise ValueError(
            f"table holds {table.band_content!r} band content, need {expected!r}")
    jx, jy = _single_band_values(table, model, grid.times, s)
    return _current_pair(grid, jx, jy, broadening)


def current_two_band(table: WeightTable, model: SpectrumModel, grid: TimeGrid,
                     broadening: BroadeningModel | None = None,
                     ) -> tuple[ObservableSeries, ObservableSeries]:
    """Currents of an equal-weight two-band packet, in units of e*v_F.

    j_x vanishes identically (returned as exact zeros). j_y carries both the
    slow intraband transitions and the fast interband (zitterbewegung) terms.
    Known issue: j_y is half the unit-norm state's expectation (README).
    """
    if table.band_content != "both":
        raise ValueError(
            f"table holds {table.band_content!r} band content, need 'both'")
    jx, jy = _two_band_values(table, model, grid.times)
    return _current_pair(grid, jx, jy, broadening)


def currents(table: WeightTable, model: SpectrumModel, grid: TimeGrid,
             ) -> tuple[ObservableSeries, ObservableSeries]:
    """Unbroadened (j_x, j_y) for whichever band content the table holds."""
    if table.band_content == "both":
        return current_two_band(table, model, grid)
    s = +1 if table.band_content == "positive" else -1
    return current_single_band(table, model, grid, s)


def total_current_both_valleys(per_valley: ObservableSeries) -> ObservableSeries:
    """Total current from both degenerate valleys: twice the one-valley series.

    The two valleys host distinct eigenspinors but identical spectra, and a
    packet built with common coefficients contributes equally from each.
    """
    return replace(per_valley, values=2.0 * per_valley.values)


def abs_squared(series: ObservableSeries) -> ObservableSeries:
    """|values|^2 as a real series (e.g. revival strength |A(t)|^2); hypot,
    then pow: the same bits as the scalar abs(v) ** 2."""
    v = series.values
    return replace(series, values=np.float_power(np.hypot(v.real, v.imag), 2.0))
