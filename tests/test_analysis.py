import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal

from graphene_revivals import (HBAR, FieldParams, ObservableSeries, PacketSpec,
                               SpectrumModel, TimeGrid, TimeScales,
                               abs_squared, autocorrelation, build_weights,
                               current_single_band, current_two_band, damped,
                               default_gamma_criterion, detect_revivals,
                               dominant_period, estimate_gamma_max, find_peaks,
                               measure_period, station_visible_log, timescales)
from graphene_revivals import analysis
from graphene_revivals.observables import currents
from oracles import peaks_by_walk

MEV = 1.602176634e-22


def series_of(values, t_end=1.0, t_start=0.0):
    values = np.asarray(values, dtype=float)
    grid = TimeGrid(t_start, t_end, len(values))
    return ObservableSeries(grid=grid, values=values)


@pytest.fixture(scope="module")
def revival_series(model10):
    ts = timescales(model10, 15)
    table = build_weights(PacketSpec(15, 3.0))
    grid = TimeGrid(0.0, 1.06 * ts.t_revival, 40_001)
    return abs_squared(autocorrelation(table, model10, grid)), ts


# --- find_peaks ---------------------------------------------------------------

def test_constant_series_has_no_peaks():
    assert find_peaks(series_of(np.ones(100)), 0.0) == []


def test_triangle_pulse_single_peak():
    v = np.concatenate([np.linspace(0, 1, 50), np.linspace(1, 0, 50)[1:]])
    peaks = find_peaks(series_of(v), 0.5)
    assert len(peaks) == 1
    assert peaks[0].value == 1.0
    assert peaks[0].prominence == 1.0


def test_plateau_reports_leftmost_sample():
    v = np.array([0.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    peaks = find_peaks(series_of(v, t_end=5.0), 0.1)
    assert len(peaks) == 1
    assert peaks[0].time == 1.0  # sample index 1 on a unit-spacing grid


def test_find_peaks_needs_three_samples():
    with pytest.raises(ValueError):
        find_peaks(series_of([1.0, 2.0]), 0.0)


def test_find_peaks_rejects_complex(model10):
    table = build_weights(PacketSpec(15, 3.0))
    series = autocorrelation(table, model10, TimeGrid(0.0, 1e-12, 64))
    with pytest.raises(ValueError):
        find_peaks(series, 0.1)


def test_find_peaks_against_scipy_oracle():
    rng = np.random.default_rng(42)
    v = rng.normal(size=400)
    mine = find_peaks(series_of(v, t_end=399.0), 0.0)
    idx_scipy, _ = signal.find_peaks(v)
    prom_scipy = signal.peak_prominences(v, idx_scipy)[0]
    assert [p.time for p in mine] == pytest.approx(list(idx_scipy.astype(float)), abs=0)
    assert [p.prominence for p in mine] == pytest.approx(list(prom_scipy), rel=1e-12, abs=0)
    # three-point dominance and time ordering
    for p in mine:
        i = int(round(p.time))
        assert v[i] > v[i - 1] and v[i] > v[i + 1]
    assert [p.time for p in mine] == sorted(p.time for p in mine)


def assert_matches_walk(values, min_prominence=0.0):
    """find_peaks equals the definition oracle: same Peaks, same float bits."""
    series = series_of(values, t_end=float(max(len(values) - 1, 1)))
    mine = find_peaks(series, min_prominence)
    ref = peaks_by_walk(series.values, series.grid.times, min_prominence)
    assert mine == ref
    bits = [(p.time.hex(), p.value.hex(), p.prominence.hex()) for p in mine]
    assert bits == [(p.time.hex(), p.value.hex(), p.prominence.hex()) for p in ref]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("min_prominence", [0.0, 1.0])
def test_find_peaks_equals_walk_on_normal_series(seed, min_prominence):
    v = np.random.default_rng(seed).normal(size=4001)
    assert_matches_walk(v, min_prominence)


@pytest.mark.parametrize("seed", range(4))
def test_find_peaks_equals_walk_on_quantised_series(seed):
    # a few integer levels give many plateaus, including at the ends
    rng = np.random.default_rng(100 + seed)
    v = np.round(2.0 * rng.normal(size=2000))
    for min_prominence in (0.0, 1.0, 3.0):
        assert_matches_walk(v, min_prominence)


@pytest.mark.parametrize("values", [
    [2, 2, 2, 1, 3, 3, 0, 1, 1, 1],   # plateaus at both ends, plateau peak
    [3, 3, 1, 2, 2, 0, 0],            # higher plateau at the left end
    [0, 0, 1, 1, 0, 2, 2],            # higher plateau at the right end
    [0, 2, 1, 2, 0],                  # equal heights do not stop the walk
    [0, 2, 2, 1, 2, 2, 0, 5, 0],
    list(range(50)),                  # monotone rising
    list(range(50, 0, -1)),           # monotone falling
    [1.5] * 40,                       # constant
    [0, 1, 0], [1, 0, 1], [0, 0, 0], [0, 1, 1], [1, 1, 0], [-0.0, 0.0, -0.0],
])
def test_find_peaks_equals_walk_on_edge_cases(values):
    assert_matches_walk(np.asarray(values, dtype=float))


def test_find_peaks_equals_walk_on_two_band_current(model10):
    ts = timescales(model10, 15)
    table = build_weights(PacketSpec(15, 3.0, "both"))
    _, jy = currents(table, model10, TimeGrid(0.0, 1.1 * ts.t_revival, 4096))
    assert len(find_peaks(jy, 0.0)) > 200
    for min_prominence in (0.0, 0.05, 0.4):
        assert_matches_walk(jy.values, min_prominence)


_small_ints = st.integers(-3, 3).map(float)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(values=st.one_of(st.lists(_small_ints, min_size=3, max_size=60),
                        st.lists(_finite, min_size=3, max_size=60)),
       min_prominence=st.floats(0.0, 4.0))
@example(values=[-1e292, 1.7976931348623157e308, -1e292], min_prominence=0.0)  # inf
def test_find_peaks_equals_walk_property(values, min_prominence):
    assert_matches_walk(np.asarray(values), min_prominence)


_UNIT_SCALES = TimeScales(t_classical=0.25, t_revival=1.0, t_zitterbewegung=0.0625)


# every analysis entry point; the find_peaks cases keep the bare value as id
@pytest.mark.parametrize("analyse, bad", [
    pytest.param(analyse, bad, id=f"{name}{bad}")
    for name, analyse in (
        ("", lambda s: find_peaks(s, 0.0)),
        ("dominant_period-", lambda s: dominant_period(s, (0.0, 1.0))),
        ("measure_period-", lambda s: measure_period(s, (0.0, 1.0))),
        ("station_visible_log-", lambda s: station_visible_log(s, _UNIT_SCALES)),
    )
    for bad in (math.nan, math.inf, -math.inf)])
def test_find_peaks_rejects_non_finite(analyse, bad):
    # a clean four-period sine with one bad sample away from the T_r/4 window
    v = np.sin(np.linspace(0.0, 8.0 * np.pi, 65))
    v[40] = bad
    with pytest.raises(ValueError, match="finite"):
        analyse(series_of(v))


# the series of test_synthetic_two_frequency_full_revival in units of T_r,
# whose T_r station is full at t_revival = 1.0: a NaN threshold, a NaN or
# non-positive t_revival would otherwise leave no peak and no station, and a
# NaN, infinite or negative visibility floor would answer False, False and True
@pytest.mark.parametrize("analyse, message", [
    pytest.param(lambda s: find_peaks(s, math.nan), "min_prominence must be a number",
                 id="find_peaks-nan"),
    *(pytest.param(lambda s, t_r=t_r: detect_revivals(s, TimeScales(t_r / 4, t_r, t_r / 16)),
                   "t_revival must be finite and > 0", id=f"detect_revivals-{t_r}")
      for t_r in (math.nan, math.inf, 0.0, -1.0)),
    *(pytest.param(lambda s, floor=floor: station_visible_log(
        s, TimeScales(0.25, 1.0, 1.0 / 16), floor=floor),
                   "floor must be finite and >= 0", id=f"station_visible_log-{floor}")
      for floor in (math.nan, math.inf, -1.0)),
])
def test_analysis_rejects_non_finite_thresholds(analyse, message):
    t = np.linspace(0.0, 1.5, 3001)
    with pytest.raises(ValueError, match=message):
        analyse(series_of(0.5 + 0.5 * np.cos(2 * np.pi * t), t_end=1.5))


def test_min_prominence_filters():
    rng = np.random.default_rng(3)
    v = rng.normal(size=300)
    loose = find_peaks(series_of(v, t_end=299.0), 0.0)
    tight = find_peaks(series_of(v, t_end=299.0), 1.5)
    assert len(tight) < len(loose)
    assert all(p.prominence >= 1.5 for p in tight)


# --- detect_revivals ----------------------------------------------------------

def test_synthetic_two_frequency_full_revival():
    # |0.5 e^{-i w1 t} + 0.5 e^{-i w2 t}|^2 with w2 - w1 = 2 pi / P; the span
    # extends well past P so the revival peak's right base descends fully
    period = 1.0e-12
    t = np.linspace(0.0, 1.5 * period, 3001)
    v = 0.5 + 0.5 * np.cos(2 * np.pi * t / period)
    series = series_of(v, t_end=1.5 * period)
    scales = TimeScales(t_classical=period / 4, t_revival=period,
                        t_zitterbewegung=period / 16)
    report = detect_revivals(series, scales)
    assert report.classification(1.0) == "full"
    assert report.classification(0.5) == "absent"


def test_zero_series_has_only_absent_stations():
    period = 1.0e-12
    scales = TimeScales(t_classical=period / 4, t_revival=period,
                        t_zitterbewegung=period / 16)
    report = detect_revivals(series_of(np.zeros(1001), t_end=1.5 * period), scales)
    assert [st.classification for st in report.stations] == ["absent"] * 4
    assert all(st.peak is None for st in report.stations)


def test_station_window_is_five_percent_of_the_station_time():
    # bumps of 0.8 of the t = 0 value at 25, 5.5% after the station at 50,
    # 4.5% after the one at 75, and at 100: a window of +-5% reaches the
    # third but not the second, one of +-4% or +-6% would classify both alike
    scales = TimeScales(t_classical=1.0, t_revival=100.0, t_zitterbewegung=0.1)
    grid = TimeGrid(0.0, 110.0, 11001)
    t = grid.times
    v = np.exp(-(t / 0.2) ** 2)
    for centre in (25.0, 1.055 * 50.0, 1.045 * 75.0, 100.0):
        v += 0.8 * np.exp(-((t - centre) / 0.2) ** 2)
    report = detect_revivals(ObservableSeries(grid=grid, values=v), scales)
    assert [st.classification for st in report.stations] == ["full", "absent", "full", "full"]


def test_revival_stations_for_localized_packet(revival_series):
    series, ts = revival_series
    report = detect_revivals(series, ts)
    assert report.classification(0.25) == "fractional"
    assert report.classification(0.5) == "full"
    assert report.classification(0.75) == "fractional"
    assert report.classification(1.0) == "full"


def test_no_stations_for_delocalized_packet(model10):
    ts = timescales(model10, 11)
    table = build_weights(PacketSpec(11, 40.0))
    grid = TimeGrid(0.0, 1.06 * ts.t_revival, 40_001)
    series = abs_squared(autocorrelation(table, model10, grid))
    report = detect_revivals(series, ts)
    assert all(st.classification == "absent" for st in report.stations)


def test_revival_peak_near_17ps(revival_series):
    # the full revival of the localized packet sits within 2% of 17 ps
    series, ts = revival_series
    t = series.grid.times
    mask = (t > 14e-12) & (t < 18.5e-12)
    t_peak = t[mask][np.argmax(series.values[mask])]
    assert abs(t_peak - 17e-12) / 17e-12 <= 0.02


def test_delocalized_packet_stays_below_revival_peak(model10, revival_series):
    # no regeneration: the wide packet never reaches the localized packet's
    # revival strength anywhere past the initial decay
    series15, ts15 = revival_series
    report = detect_revivals(series15, ts15)
    peak15 = report.stations[-1].peak.value

    ts11 = timescales(model10, 11)
    table = build_weights(PacketSpec(11, 40.0))
    grid = TimeGrid(0.0, 1.06 * ts11.t_revival, 40_001)
    series11 = abs_squared(autocorrelation(table, model10, grid))
    t = series11.grid.times
    window = (t >= 1e-12) & (t <= 12e-12)
    assert float(series11.values[window].max()) < peak15


def test_detect_revivals_scale_invariance(revival_series):
    series, ts = revival_series
    scaled = ObservableSeries(grid=series.grid, values=17.3 * series.values)
    ref = detect_revivals(series, ts)
    out = detect_revivals(scaled, ts)
    assert [st.classification for st in out.stations] == \
        [st.classification for st in ref.stations]


def test_detect_revivals_needs_full_span(model10):
    ts = timescales(model10, 15)
    table = build_weights(PacketSpec(15, 3.0))
    grid = TimeGrid(0.0, 0.5 * ts.t_revival, 2048)
    series = abs_squared(autocorrelation(table, model10, grid))
    with pytest.raises(ValueError):
        detect_revivals(series, ts)


def test_grid_doubling_keeps_peak_locations(model10):
    ts = timescales(model10, 15)
    table = build_weights(PacketSpec(15, 3.0))
    runs = {}
    for n in (20_001, 40_001):
        grid = TimeGrid(0.0, 1.06 * ts.t_revival, n)
        series = abs_squared(autocorrelation(table, model10, grid))
        runs[n] = (find_peaks(series, 0.4), grid.spacing)
    coarse, spacing = runs[20_001]
    fine, _ = runs[40_001]
    assert len(coarse) >= 4
    for p in coarse:
        assert min(abs(p.time - q.time) for q in fine) <= spacing


# --- measure_period -----------------------------------------------------------

def test_period_of_pure_sine():
    period = 3.7e-13
    t_end = 10 * period
    t = np.linspace(0.0, t_end, 4001)
    series = series_of(np.sin(2 * np.pi * t / period), t_end=t_end)
    est = measure_period(series, (0.0, t_end))
    assert est == pytest.approx(period, rel=1e-3, abs=0)
    assert dominant_period(series, (0.0, t_end)) == pytest.approx(period, rel=5e-3, abs=0)


def test_period_needs_crossings():
    t_end = 1.0e-12
    series = series_of(np.ones(100) * 0.5, t_end=t_end)
    with pytest.raises(ValueError):
        measure_period(series, (0.0, t_end))


@pytest.mark.parametrize("values", [np.zeros(1001), np.full(1001, 0.5)])
def test_dominant_period_rejects_flat_window(values):
    # a flat window has no spectral peak; the zero-padded periodogram used to
    # report its first bin, 32 times the window length
    series = series_of(values, t_end=1e-12)
    with pytest.raises(ValueError, match="no oscillatory component"):
        dominant_period(series, (0.0, 1e-12))


def test_dominant_period_rejects_two_band_jx(model10):
    # the two-band j_x is identically zero
    table = build_weights(PacketSpec(15, 3.0, "both"))
    jx, _ = current_two_band(table, model10, TimeGrid(0.0, 1e-12, 1001))
    assert not jx.values.any()
    with pytest.raises(ValueError, match="no oscillatory component"):
        dominant_period(jx, (0.0, 1e-12))


def test_dominant_period_interpolates_between_bins():
    # pure sines with 3 to 10 periods in the window: the parabola through the
    # peak bin and its neighbours keeps the worst relative error at 1.2e-3;
    # the padded bins alone leave 4.8e-3
    grid = TimeGrid(0.0, 1.0, 1001)
    worst = 0.0
    for k in range(200):
        period = 1 / (3 + 0.037 * k)
        series = ObservableSeries(grid=grid, values=np.sin(2 * np.pi * grid.times / period
                                                           + 0.3 * k))
        worst = max(worst, abs(dominant_period(series, (0.0, 1.0)) / period - 1))
    assert worst < 2e-3, worst


def test_classical_period_of_current(model10):
    ts = timescales(model10, 15)
    table = build_weights(PacketSpec(15, 3.0))
    grid = TimeGrid(0.0, 1.2e-12, 8001)
    _, jy = current_single_band(table, model10, grid, +1)
    est = measure_period(jy, (0.0, 1.2e-12))
    assert est == pytest.approx(ts.t_classical, rel=0.02, abs=0)


# --- width limit ---------------------------------------------------------------

def test_envelope_magnitude_at_revival_time(model10):
    # at 3.7 meV the damping exponent at the revival time is enormous
    ts = timescales(model10, 15)
    exponent = 2 * 3.7 * MEV * ts.t_revival / HBAR
    assert 180 < exponent < 200
    assert math.exp(-exponent) < 1e-80


def test_station_visibility_is_monotone_in_floor(model10):
    ts = timescales(model10, 15)
    table = build_weights(PacketSpec(15, 3.0))
    grid = TimeGrid(0.0, 1.06 * ts.t_revival, 40_001)
    _, jy = current_single_band(table, model10, grid, +1)
    # the quarter-revival current peak is ~3.5e-3 of the maximum
    assert station_visible_log(jy, ts, floor=1e-20)
    assert station_visible_log(jy, ts, floor=1e-3)
    assert not station_visible_log(jy, ts, floor=1e-2)


@pytest.mark.parametrize("floor", [1e-20, 0.0])
def test_identically_zero_series_is_not_visible(model10, floor):
    ts = timescales(model10, 15)
    zeros = series_of(np.zeros(1001), t_end=1.06 * ts.t_revival)
    assert not station_visible_log(zeros, ts, floor=floor)


def test_gamma_max_of_underflowing_envelope_is_not_the_bracket_top():
    # at n0 20000 the envelope underflows to zeros long before the 20 meV
    # bracket top, and a zero series must not count as visible there
    gmax = estimate_gamma_max(PacketSpec(20000, 3.0), FieldParams(10.0))
    assert 0.0 < gmax < 0.1 * MEV


def test_gamma_max_deterministic(field10):
    packet = PacketSpec(15, 3.0)
    a = estimate_gamma_max(packet, field10)
    b = estimate_gamma_max(packet, field10)
    assert a == b
    assert 0.0 < a < 20e-3 * 1.602176634e-19


def test_gamma_max_monotone_criterion(field10):
    # any gamma below the estimate passes the criterion, any above fails
    packet = PacketSpec(15, 3.0)
    field = field10
    gmax = estimate_gamma_max(packet, field)
    model = SpectrumModel(field)
    ts = timescales(model, 15)
    table = build_weights(packet)
    grid = TimeGrid(0.0, 1.06 * ts.t_revival, 40_001)
    _, jy = current_single_band(table, model, grid, +1)

    def visible(gamma):
        env = np.exp(-2 * gamma * grid.times / HBAR)
        damped = ObservableSeries(grid=grid, values=jy.values * env)
        return default_gamma_criterion(damped, ts)

    assert visible(gmax - 0.2 * MEV)
    assert not visible(gmax + 0.2 * MEV)


def test_gamma_max_is_resolved_by_its_grid(field10, monkeypatch):
    # the two-band width limit on GAMMA_SAMPLES points lies within 5e-4 of the
    # same solve on 160001 (1.4e-4 at 40001 points, 1.4e-3 at 20001)
    packet = PacketSpec(15, 3.0, "both")
    gmax = estimate_gamma_max(packet, field10)
    monkeypatch.setattr(analysis, "GAMMA_SAMPLES", 160_001)
    assert gmax == pytest.approx(estimate_gamma_max(packet, field10), rel=5e-4, abs=0)


def test_gamma_max_rejects_hopeless_criterion(field10, monkeypatch):
    monkeypatch.setattr(analysis, "default_gamma_criterion", lambda s, t: False)
    with pytest.raises(ValueError):
        estimate_gamma_max(PacketSpec(15, 3.0), field10)


def gamma_criterion(packet, field):
    """default_gamma_criterion as a function of the width, on the j_y series
    that estimate_gamma_max solves it for."""
    model = SpectrumModel(field)
    ts = timescales(model, packet.n0)
    grid = TimeGrid(0.0, 1.06 * ts.t_revival, analysis.GAMMA_SAMPLES)
    _, jy = currents(build_weights(packet), model, grid)
    return lambda gamma: default_gamma_criterion(damped(jy, gamma), ts)


@pytest.mark.parametrize("packet", [
    PacketSpec(15, 3.0), PacketSpec(15, 3.0, "both"), PacketSpec(11, 3.0),
    PacketSpec(30, 5.0), PacketSpec(11, 40.0), PacketSpec(20000, 3.0)],
    ids=lambda p: f"{p.n0}-{p.sigma:g}-{p.bands}")
def test_gamma_max_is_the_criterion_edge(packet, field10):
    # the criterion holds just below the estimate and fails just above it,
    # at every scale: 3.3 meV at n0 15, 6.6e-5 meV at n0 20000
    gmax = estimate_gamma_max(packet, field10)
    visible = gamma_criterion(packet, field10)
    assert 0.0 < gmax < analysis.GAMMA_BRACKET
    assert visible(gmax * (1 - 1e-9))
    assert not visible(gmax * (1 + 1e-9))


def test_gamma_max_visible_across_bracket_is_bracket_top(field10):
    # at n0 1 the criterion holds far past 20 meV
    gmax = estimate_gamma_max(PacketSpec(1, 3.0), field10)
    assert gmax == analysis.GAMMA_BRACKET
    assert gamma_criterion(PacketSpec(1, 3.0), field10)(gmax)


@pytest.mark.parametrize("packet", [PacketSpec(15, 3.0), PacketSpec(30, 5.0),
                                    PacketSpec(20000, 3.0)],
                         ids=lambda p: f"{p.n0}-{p.sigma:g}")
def test_gamma_max_agrees_with_dense_scan(packet, field10):
    # the largest scanned width that meets the criterion lies within one step
    # below the estimate, and no scanned width above it meets it; the scan is
    # the whole bracket plus +-1% of the estimate in relative steps of 1e-4,
    # none of which lands on the estimate itself
    gmax = estimate_gamma_max(packet, field10)
    visible = gamma_criterion(packet, field10)
    near = gmax * np.linspace(0.99, 1.01, 200)
    whole = np.linspace(0.0, analysis.GAMMA_BRACKET, 501)
    passing = [g for g in np.concatenate((near, whole)) if visible(g)]
    assert max(passing) <= gmax < max(passing) + (near[1] - near[0])


@settings(max_examples=6, deadline=None)
@given(n0=st.integers(1, 60), sigma=st.floats(0.5, 10.0),
       bands=st.sampled_from(["positive", "negative", "both"]))
def test_gamma_max_property(n0, sigma, bands):
    field = FieldParams(10.0)
    packet = PacketSpec(n0, sigma, bands)
    try:
        gmax = estimate_gamma_max(packet, field)
    except ValueError:
        return
    visible = gamma_criterion(packet, field)
    assert 0.0 <= gmax <= analysis.GAMMA_BRACKET
    assert visible(gmax * (1 - 1e-9))
    assert gmax == analysis.GAMMA_BRACKET or not visible(gmax * (1 + 1e-9))
