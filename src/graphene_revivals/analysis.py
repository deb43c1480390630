"""Series analysis: peak finding, revival detection, period and width limits.

Revival stations are the four named fractions of the revival time,
T_r/4, T_r/2, 3T_r/4 and T_r. A station is classified

    full        a peak within +-STATION_WINDOW of the station (relative to
                the station time) reaches at least FULL_REVIVAL_SHARE of
                the reference value,
    fractional  a peak of prominence at least MIN_PROMINENCE of the
                reference value sits in the window but stays below that,
    absent      no such peak in the window.

The reference value is the series' initial value when it is nonzero
(|A(0)|^2 = 1 for autocorrelation strength) and the series maximum
otherwise (currents start at zero), so classifications are invariant under
rescaling the series by a positive constant. An identically zero series
(a width so large that the envelope underflows) has no peaks, so every
station is absent.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .constants import E_CHARGE, HBAR, FieldParams
from .observables import ObservableSeries, TimeGrid, currents
from .spectrum import SpectrumModel, TimeScales, timescales
from .wavepacket import PacketSpec, build_weights

STATION_FRACTIONS = (0.25, 0.5, 0.75, 1.0)

# A station's window is +-STATION_WINDOW of its time; a station peak that
# reaches FULL_REVIVAL_SHARE of the reference value is a full revival.
STATION_WINDOW = 0.05
FULL_REVIVAL_SHARE = 0.5

# Calibrated: genuine fractional revivals recover about half of the
# reference value, background fluctuations of delocalized packets stay below
# ~0.4 of it (see tests for the two regimes this separates).
MIN_PROMINENCE = 0.4

# Zero-padding factor of the dominant_period periodogram.
SPECTRUM_PAD = 32

# A revival bump this far below the series maximum is treated as beyond
# log-scale visibility (20 decades of dynamic range).
LOG_VISIBILITY_FLOOR = 1e-20

# estimate_gamma_max solves for Gamma in [0, GAMMA_BRACKET] [J], on a
# GAMMA_SAMPLES-point grid over 1.06 * T_r.
GAMMA_BRACKET = 20e-3 * E_CHARGE
GAMMA_SAMPLES = 40001


class Peak(NamedTuple):
    """A local maximum: location [s], height and prominence (series units)."""

    time: float
    value: float
    prominence: float


class StationResult(NamedTuple):
    fraction: float
    peak: Peak | None
    classification: str  # full | fractional | absent


class RevivalReport(NamedTuple):
    stations: tuple[StationResult, ...]

    def classification(self, fraction: float) -> str:
        for st in self.stations:
            if st.fraction == fraction:
                return st.classification
        raise KeyError(f"no station at fraction {fraction}")


def _require_real(series: ObservableSeries) -> np.ndarray:
    v = np.asarray(series.values)
    if np.iscomplexobj(v):
        raise ValueError("peak analysis needs a real series; "
                         "take |.|^2 of the autocorrelation first")
    v = v.astype(np.float64)
    if not np.isfinite(v).all():
        raise ValueError("peak analysis needs finite values")
    return v


def find_peaks(series: ObservableSeries, min_prominence: float) -> list[Peak]:
    """Local maxima with at least the given (absolute) prominence.

    A sample is a peak when it exceeds both neighbours; on a flat plateau
    the leftmost sample wins. The prominence of a peak is its height above
    the higher of the two valley floors separating it from higher ground
    (or the series ends). Output is ordered by time. O(N) time and memory:
    one monotone-stack sweep each way over the turning points. A NaN
    min_prominence raises ValueError.
    """
    if np.isnan(min_prominence):
        raise ValueError(f"min_prominence must be a number, got {min_prominence}")
    v = _require_real(series)
    if v.size < 3:
        raise ValueError(f"need at least 3 samples to find peaks, got {v.size}")
    starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
    rising = v[starts[1:]] > v[starts[:-1]]
    turns = np.flatnonzero(rising[:-1] != rising[1:]) + 1
    # every valley floor is a turning point or an end of the series
    kept = starts[np.concatenate(([0], turns, [starts.size - 1]))]
    heights = v[kept].tolist()
    left, right = _floors(heights), _floors(heights[::-1])[::-1]
    times = series.grid.times
    peaks = []
    for k in (np.flatnonzero(rising[turns - 1]) + 1).tolist():
        prom = heights[k] - max(left[k], right[k])
        if prom >= min_prominence:
            peaks.append(Peak(float(times[kept[k]]), heights[k], prom))
    return peaks


def _floors(heights: list[float]) -> list[float]:
    """Per point, the lowest height back to the previous strictly higher one."""
    floors, stack = [], []  # stack: (height, lowest since the entry below)
    for h in heights:
        low = h
        while stack and stack[-1][0] <= h:
            low = min(low, stack.pop()[1])
        stack.append((h, low))
        floors.append(low)
    return floors


def _reference_value(v: np.ndarray) -> float:
    ref = abs(float(v[0]))
    return ref or float(np.max(np.abs(v)))


def detect_revivals(series: ObservableSeries, scales: TimeScales) -> RevivalReport:
    """Classify the four revival stations; the series must reach past the
    last station's window, to (1 + STATION_WINDOW) * t_revival, and
    t_revival must be finite and > 0."""
    t_r = scales.t_revival
    if not 0.0 < t_r < np.inf:
        raise ValueError(f"t_revival must be finite and > 0, got {t_r}")
    v = _require_real(series)
    span = 1.0 + STATION_WINDOW
    if series.grid.t_end < span * t_r:
        raise ValueError(
            f"series must span at least {span:g} * t_revival = {span * t_r:.3e} s, "
            f"ends at {series.grid.t_end:.3e} s")
    ref = _reference_value(v)
    peaks = find_peaks(series, MIN_PROMINENCE * ref)
    stations = []
    for frac in STATION_FRACTIONS:
        t_st = frac * t_r
        near = [p for p in peaks if abs(p.time - t_st) <= STATION_WINDOW * t_st]
        if not near:
            stations.append(StationResult(frac, None, "absent"))
            continue
        best = max(near, key=lambda p: p.value)
        cls = "full" if best.value >= FULL_REVIVAL_SHARE * ref else "fractional"
        stations.append(StationResult(frac, best, cls))
    return RevivalReport(tuple(stations))


def measure_period(series: ObservableSeries, window: tuple[float, float]) -> float:
    """Oscillation period within a time window [s].

    Estimated as twice the mean spacing of sign changes (linearly
    interpolated between samples); needs at least 3 crossings. The
    discrete-spectrum estimate of :func:`dominant_period` must agree within
    5%, otherwise the window is considered ambiguous and this raises.
    """
    v = _require_real(series)
    t = series.grid.times
    mask = (t >= window[0]) & (t <= window[1])
    tw, vw = t[mask], v[mask]
    if tw.size < 4:
        raise ValueError("window contains too few samples")
    sgn = np.sign(vw)
    idx = np.flatnonzero((sgn[:-1] != sgn[1:]) & (sgn[:-1] != 0))
    if idx.size < 3:
        raise ValueError(f"need at least 3 zero crossings in the window, got {idx.size}")
    t_cross = tw[idx] - vw[idx] * (tw[idx + 1] - tw[idx]) / (vw[idx + 1] - vw[idx])
    period = 2.0 * float(np.mean(np.diff(t_cross)))
    alt = dominant_period(series, window)
    if abs(alt - period) > 0.05 * period:
        raise ValueError(
            f"period estimates disagree: crossings {period:.4e} s vs "
            f"spectrum {alt:.4e} s")
    return period


def dominant_period(series: ObservableSeries, window: tuple[float, float]) -> float:
    """Period of the strongest spectral component within a time window [s]."""
    v = _require_real(series)
    t = series.grid.times
    mask = (t >= window[0]) & (t <= window[1])
    vw = v[mask]
    if vw.size < 8:
        raise ValueError("window contains too few samples for a spectrum")
    tapered = (vw - vw.mean()) * np.hanning(vw.size)
    if not tapered.any():
        raise ValueError("no oscillatory component found in the window")
    spec = np.abs(np.fft.rfft(tapered, n=SPECTRUM_PAD * vw.size))
    freqs = np.fft.rfftfreq(SPECTRUM_PAD * vw.size, d=series.grid.spacing)
    i = int(np.argmax(spec[1:])) + 1
    if 1 <= i < spec.size - 1:
        a, b, c = spec[i - 1], spec[i], spec[i + 1]
        denom = a - 2.0 * b + c
        shift = 0.5 * (a - c) / denom if denom != 0.0 else 0.0
        f_peak = freqs[i] + shift * (freqs[1] - freqs[0])
    else:
        f_peak = freqs[i]
    if f_peak <= 0.0:
        raise ValueError("no oscillatory component found in the window")
    return 1.0 / float(f_peak)


def station_visible_log(series: ObservableSeries, scales: TimeScales,
                        fraction: float = 0.25,
                        floor: float = LOG_VISIBILITY_FLOOR) -> bool:
    """Log-scale visibility of one revival station on a current series.

    True when max |values| within +-STATION_WINDOW of the station stays above
    floor * max |values| of the whole series, i.e. the revival bump would
    still show on a logarithmic plot with -log10(floor) decades of range.
    A window with no nonzero value (any window of a zero series) is not visible.
    A floor that is NaN, infinite or negative raises ValueError.
    """
    if not 0.0 <= floor < np.inf:
        raise ValueError(f"floor must be finite and >= 0, got {floor}")
    v = np.abs(_require_real(series))
    peak = float(v[_station_window(series, fraction * scales.t_revival)].max())
    return peak > 0.0 and peak >= floor * float(v.max())


def _station_window(series: ObservableSeries, t_station: float) -> np.ndarray:
    """Mask of the samples within +-STATION_WINDOW of a station time [s]."""
    mask = np.abs(series.grid.times - t_station) <= STATION_WINDOW * t_station
    if not mask.any():
        raise ValueError("station window lies outside the series")
    return mask


def default_gamma_criterion(series: ObservableSeries, scales: TimeScales) -> bool:
    """Revival-visibility predicate that bounds the width limit.

    The earliest named station (T_r/4) must remain log-scale visible within
    LOG_VISIBILITY_FLOOR of the series maximum. Late stations disappear first
    under the exp(-2*Gamma*t/hbar) envelope, so early-time structure is the
    last survivor and the natural visibility anchor.
    """
    return station_visible_log(series, scales, STATION_FRACTIONS[0])


def estimate_gamma_max(packet: PacketSpec, field: FieldParams) -> float:
    """Largest level width [J] in [0, GAMMA_BRACKET] at which current revivals
    stay visible: :func:`default_gamma_criterion` on the broadened j_y series
    (it must hold at Gamma = 0), solved exactly. With a = log|j_y|, s = 2t/hbar
    on the nonzero samples and W the station window, it reads max_W(a - Gamma*s)
    >= log(floor) + max(a - Gamma*s). Only strict prefix maxima of a attain either
    maximum; window maximum i passes against each series maximum j on one side of
    (a_i - a_j - log(floor)) / (s_i - s_j), so on one interval [lo_i, hi_i], and
    the result is the largest hi_i of a nonempty interval."""
    model = SpectrumModel(field)
    scales = timescales(model, packet.n0)
    grid = TimeGrid(0.0, 1.06 * scales.t_revival, GAMMA_SAMPLES)
    _, jy = currents(build_weights(packet), model, grid)
    nonzero = jy.values != 0.0
    a = np.log(np.abs(jy.values[nonzero]))
    s = 2.0 * grid.times[nonzero] / HBAR
    window = _station_window(jy, STATION_FRACTIONS[0] * scales.t_revival)[nonzero]
    i = _prefix_maxima(np.where(window, a, -np.inf))[:, None]
    j = _prefix_maxima(a)[None, :]
    ds = s[i] - s[j]  # 0 only where i = j, which bounds neither side
    bound = (a[i] - a[j] - np.log(LOG_VISIBILITY_FLOOR)) / np.where(ds == 0.0, 1.0, ds)
    hi = np.where(ds > 0.0, bound, np.inf).min(axis=1, initial=GAMMA_BRACKET)
    lo = np.where(ds < 0.0, bound, -np.inf).max(axis=1, initial=0.0)
    feasible = lo <= hi
    if not (default_gamma_criterion(jy, scales) and feasible.any()):
        raise ValueError("revivals are not visible even at zero broadening; "
                         "the criterion cannot bound the width")
    return float(hi[feasible].max())


def _prefix_maxima(a: np.ndarray) -> np.ndarray:
    """Indices of the strict prefix maxima of a (each above all before it)."""
    return np.flatnonzero(a > np.maximum.accumulate(np.r_[-np.inf, a])[:-1])
