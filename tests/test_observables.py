import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphene_revivals import (HBAR, BroadeningModel, Eigenspinor, FieldParams,
                               ObservableSeries, PacketSpec, Peak, RevivalReport,
                               SpectrumModel, StationResult, TimeGrid, TimeScales,
                               abs_squared, autocorrelation, build_weights, convert,
                               current_single_band, current_two_band,
                               currents, damped, landau_energy, measure_period,
                               timescales, total_current_both_valleys, wavepacket)
from graphene_revivals._kernels import phase_rounding, trig_series
from graphene_revivals.observables import _series, _terms, max_frequency
from graphene_revivals.wavepacket import WeightTable

from oracles import (brute_force_autocorr, brute_force_currents, damped_direct_sum,
                     dirac_autocorrelation, dirac_currents)


@pytest.fixture(scope="module")
def table15(model10):
    return build_weights(PacketSpec(15, 3.0))


@pytest.fixture(scope="module")
def table15_both(model10):
    return build_weights(PacketSpec(15, 3.0, bands="both"))


def three_level_table():
    g = np.exp(-np.array([1.0, 0.0, 1.0]) / 2.0)
    pop = g * g
    diag = pop / pop.sum()
    off = g[:-1] * g[1:] / pop.sum()
    return WeightTable(n_min=4, n_max=6, diag=diag, offdiag=off,
                       band_content="positive")


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        BroadeningModel(-1e-25)


def test_autocorrelation_at_t0(table15, model10):
    grid = TimeGrid(0.0, 1e-12, 64)
    series = autocorrelation(table15, model10, grid)
    assert abs(series.values[0]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_brute_force_oracle_equivalence(model10):
    table = three_level_table()
    energies = [landau_energy(model10, n, +1) for n in (4, 5, 6)]
    times = np.linspace(0.0, 2e-13, 9)
    grid = TimeGrid(0.0, 2e-13, 9)

    series = autocorrelation(table, model10, grid)
    expected = [brute_force_autocorr(table.diag, energies, HBAR, t)
                for t in times]
    assert series.values == pytest.approx(expected, abs=1e-14)

    jx, jy = current_single_band(table, model10, grid, +1)
    exp_x, exp_y = zip(*(brute_force_currents(table.offdiag, energies,
                                              HBAR, t, +1) for t in times))
    assert jx.values == pytest.approx(exp_x, abs=1e-14)
    assert jy.values == pytest.approx(exp_y, abs=1e-14)


def test_autocorr_modulus_bounded(table15, model10):
    ts = timescales(model10, 15)
    rng = np.random.default_rng(7)
    times = rng.uniform(0.0, 2 * ts.t_revival, 10_000)
    re, im = _series(table15, model10, times, False)
    assert np.hypot(re, im).max() <= 1.0 + 1e-12


def test_autocorr_time_reversal(table15, model10):
    times = np.linspace(1e-14, 2e-12, 101)
    re, im = _series(table15, model10, times, False)
    back_re, back_im = _series(table15, model10, -times, False)
    assert back_re + 1j * back_im == pytest.approx(re - 1j * im, abs=1e-14)


def test_current_parity(table15, model10):
    times = np.linspace(1e-14, 2e-12, 101)
    jx_p, jy_p = _series(table15, model10, times, True)
    jx_m, jy_m = _series(table15, model10, -times, True)
    assert jx_m == pytest.approx(jx_p, abs=1e-14)   # even
    assert jy_m == pytest.approx(-jy_p, abs=1e-14)  # odd


def test_negative_band_autocorr_is_conjugate(model10):
    pos = build_weights(PacketSpec(15, 3.0, bands="positive"))
    neg = build_weights(PacketSpec(15, 3.0, bands="negative"))
    grid = TimeGrid(0.0, 1e-12, 257)
    a_pos = autocorrelation(pos, model10, grid)
    a_neg = autocorrelation(neg, model10, grid)
    assert a_neg.values == pytest.approx(np.conj(a_pos.values), abs=1e-14)


def test_two_band_autocorr_is_real(table15_both, model10):
    grid = TimeGrid(0.0, 1e-12, 257)
    series = autocorrelation(table15_both, model10, grid)
    assert np.all(series.values.imag == 0.0)
    assert abs(series.values[0]) == pytest.approx(1.0, abs=1e-12)


def test_current_initial_values(table15, model10):
    grid = TimeGrid(0.0, 1.2e-12, 2048)
    jx, jy = current_single_band(table15, model10, grid, +1)
    assert jy.values[0] == 0.0
    expected = math.fsum(table15.offdiag)
    assert abs(jx.values[0] - expected) <= 4 * np.spacing(expected)
    # t = 0 is the global extremum
    assert np.abs(jx.values).max() == jx.values[0]


def test_current_bound(table15, model10):
    grid = TimeGrid(0.0, 5e-12, 4096)
    jx, jy = current_single_band(table15, model10, grid, +1)
    bound = table15.offdiag.sum() * (1 + 1e-12)
    assert np.abs(jx.values).max() <= bound
    assert np.abs(jy.values).max() <= bound


def test_negative_band_flips_jx(model10):
    neg = build_weights(PacketSpec(15, 3.0, bands="negative"))
    pos = build_weights(PacketSpec(15, 3.0, bands="positive"))
    grid = TimeGrid(0.0, 1e-12, 513)
    jx_n, jy_n = current_single_band(neg, model10, grid, -1)
    jx_p, jy_p = current_single_band(pos, model10, grid, +1)
    assert jx_n.values == pytest.approx(-jx_p.values, abs=1e-15)
    assert jy_n.values == pytest.approx(jy_p.values, abs=1e-15)


def test_broadening_factorizes(table15, model10):
    grid = TimeGrid(0.0, 2e-12, 1024)
    gamma = 0.7e-3 * 1.602176634e-19
    plain_x, plain_y = current_single_band(table15, model10, grid, +1)
    broad_x, broad_y = current_single_band(table15, model10, grid, +1,
                                           BroadeningModel(gamma))
    env = np.exp(-2 * gamma * grid.times / HBAR)
    assert broad_x.values == pytest.approx(plain_x.values * env, rel=1e-12, abs=1e-300)
    assert broad_y.values == pytest.approx(plain_y.values * env, rel=1e-12, abs=1e-300)


def _transition_frequencies(table, model):
    om = model.omega * np.sqrt(table.levels.astype(np.float64))
    return om[1:] - om[:-1], om[1:] + om[:-1]


def test_per_term_envelope_equivalent(table15, model10):
    grid = TimeGrid(0.0, 2e-12, 257)
    gamma = BroadeningModel(2e-3 * 1.602176634e-19)
    jx, jy = current_single_band(table15, model10, grid, +1, gamma)
    d_om, _ = _transition_frequencies(table15, model10)
    for series, trig in ((jx, np.cos), (jy, np.sin)):
        direct = damped_direct_sum(table15.offdiag, d_om, gamma.gamma, HBAR,
                                   grid.times, trig)
        assert series.values == pytest.approx(direct, rel=1e-12, abs=1e-16)


def test_per_term_envelope_equivalent_two_band(table15_both, model10):
    grid = TimeGrid(0.0, 2e-13, 257)
    gamma = BroadeningModel(2e-3 * 1.602176634e-19)
    _, jy = current_two_band(table15_both, model10, grid, gamma)
    d_om, s_om = _transition_frequencies(table15_both, model10)
    direct = (damped_direct_sum(table15_both.offdiag, s_om, gamma.gamma, HBAR,
                                grid.times, np.sin)
              + damped_direct_sum(table15_both.offdiag, d_om, gamma.gamma, HBAR,
                                  grid.times, np.sin))
    assert jy.values == pytest.approx(direct, rel=1e-12, abs=1e-16)


def test_currents_dispatch_on_band_content(model10):
    grid = TimeGrid(0.0, 1e-12, 129)
    for bands, direct in (
            ("positive", lambda t: current_single_band(t, model10, grid, +1)),
            ("negative", lambda t: current_single_band(t, model10, grid, -1)),
            ("both", lambda t: current_two_band(t, model10, grid))):
        table = build_weights(PacketSpec(15, 3.0, bands=bands))
        for got, want in zip(currents(table, model10, grid), direct(table)):
            assert np.array_equal(got.values, want.values)


def test_two_band_jx_identically_zero(table15_both, model10):
    grid = TimeGrid(0.0, 5e-12, 2048)
    jx, jy = current_two_band(table15_both, model10, grid)
    assert np.all(jx.values == 0.0)
    assert jy.values[0] == 0.0
    assert np.abs(jy.values).max() <= 2 * table15_both.offdiag.sum() * (1 + 1e-12)


def test_band_content_mismatch_errors(table15, table15_both, model10):
    grid = TimeGrid(0.0, 1e-12, 16)
    with pytest.raises(ValueError):
        current_single_band(table15_both, model10, grid, +1)
    with pytest.raises(ValueError):
        current_single_band(table15, model10, grid, -1)
    with pytest.raises(ValueError):
        current_two_band(table15, model10, grid)
    with pytest.raises(ValueError):
        current_single_band(table15, model10, grid, 2)


def test_valley_doubling(table15, model10):
    grid = TimeGrid(0.0, 1e-12, 257)
    jx, jy = current_single_band(table15, model10, grid, +1)
    total = total_current_both_valleys(jy)
    assert total.values == pytest.approx(2 * jy.values, abs=0)

    zero = total_current_both_valleys(
        current_two_band(build_weights(PacketSpec(15, 3.0, bands="both")),
                         model10, grid)[0])
    assert np.all(zero.values == 0.0)


def test_valley_doubling_commutes_with_broadening(table15, model10):
    grid = TimeGrid(0.0, 1e-12, 129)
    gamma = BroadeningModel(1e-3 * 1.602176634e-19)
    _, jy = current_single_band(table15, model10, grid, +1, gamma)
    env = np.exp(-2 * gamma.gamma * grid.times / HBAR)
    _, jy_plain = current_single_band(table15, model10, grid, +1)
    assert total_current_both_valleys(jy).values == pytest.approx(
        2 * jy_plain.values * env, rel=1e-12, abs=1e-300)


def test_truncation_robustness(monkeypatch, model10):
    # halving the tail tolerance moves every observable by < 1e-10 (sup-norm)
    grid = TimeGrid(0.0, 2e-11, 2048)
    monkeypatch.setattr(wavepacket, "TAIL_TOLERANCE", 1e-12)
    coarse = build_weights(PacketSpec(15, 3.0))
    monkeypatch.setattr(wavepacket, "TAIL_TOLERANCE", 5e-13)
    fine = build_weights(PacketSpec(15, 3.0))
    a1 = autocorrelation(coarse, model10, grid).values
    a2 = autocorrelation(fine, model10, grid).values
    assert np.abs(a1 - a2).max() / np.abs(a1).max() < 1e-10
    for idx in (0, 1):
        j1 = current_single_band(coarse, model10, grid, +1)[idx].values
        j2 = current_single_band(fine, model10, grid, +1)[idx].values
        assert np.abs(j1 - j2).max() / np.abs(j1).max() < 1e-10


@pytest.mark.parametrize("gamma", [math.nan, -1e-20, math.inf])
def test_damped_rejects_invalid_width(table15, model10, gamma):
    # accepted, nan and inf would give NaN values and a negative width growing ones
    _, jy = currents(table15, model10, TimeGrid(0.0, 1e-12, 64))
    with pytest.raises(ValueError, match="broadening"):
        damped(jy, gamma)


def test_abs_squared(table15, model10):
    grid = TimeGrid(0.0, 1e-12, 65)
    series = autocorrelation(table15, model10, grid)
    strength = abs_squared(series)
    assert strength.values == pytest.approx(np.abs(series.values) ** 2, abs=1e-15)
    assert not np.iscomplexobj(strength.values)


@pytest.mark.parametrize("record, names", [
    (TimeScales, ("t_classical", "t_revival", "t_zitterbewegung")),
    (ObservableSeries, ("grid", "values")),
    (Peak, ("time", "value", "prominence")),
    (StationResult, ("fraction", "peak", "classification")),
    (RevivalReport, ("stations",)),
    (Eigenspinor, ("upper", "lower")),
])
def test_result_records(record, names):
    # the records validate nothing: any values construct them, by position in
    # this field order or by keyword; they are immutable, and their repr (which
    # result digests hash) names every field
    values = [object() for _ in names]
    for rec in (record(*values), record(**dict(zip(names, values)))):
        assert [getattr(rec, n) for n in names] == values
        with pytest.raises(AttributeError):
            setattr(rec, names[0], None)
        assert repr(rec) == f"{record.__name__}({', '.join(map('{}={!r}'.format, names, values))})"


def test_record_methods_keep_the_grid():
    peak = Peak(time=1.0, value=0.8, prominence=0.6)
    report = RevivalReport((StationResult(0.5, None, "absent"), StationResult(1.0, peak, "full")))
    assert (report.classification(0.5), report.classification(1.0)) == ("absent", "full")
    with pytest.raises(KeyError):
        report.classification(0.25)
    grid = TimeGrid(0.0, 1e-12, 5)
    series = ObservableSeries(grid, np.linspace(-1.0, 1.0, 5) + 0j)
    for derived in (damped(series, 1e-22), abs_squared(series),
                    total_current_both_valleys(series)):
        assert derived.grid is grid


def test_two_band_slow_component_matches_single_band(model10):
    # the two-band table holds per-band weights, half the one-band ones, so
    # the intraband sum over them is half the one-band j_y; the unit-norm
    # two-band expectation adds both bands' halves (ROADMAP item 1)
    both = build_weights(PacketSpec(15, 3.0, bands="both"))
    single = build_weights(PacketSpec(15, 3.0, bands="positive"))
    times = np.linspace(0.0, 1e-12, 257)
    _, jy_single = _series(single, model10, times, True)
    d_om, _ = _transition_frequencies(both, model10)
    _, slow = trig_series(both.offdiag, d_om, times, (0, 1))
    assert slow == pytest.approx(jy_single / 2, rel=1e-12, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(n0=st.integers(1, 200), sigma=st.floats(0.0, 50.0, exclude_min=True),
       gap=st.floats(0.0, 3.0), bands=st.sampled_from(wavepacket.BANDS))
def test_formula_free_bounds(model10, n0, sigma, gap, bands):
    # A(0) = 1, |A(t)| <= 1 and j_x^2 + j_y^2 <= 1 (|<sigma>| <= 1) in one
    # valley, whatever the packet, gap and band content. Exact in real
    # arithmetic; each column may exceed them by the kernel's error model,
    # eps * (L + 3) / 2 at unit weight sum over L <= 2 * levels terms, both
    # columns together, plus eps per level for the weights' normalization
    model = SpectrumModel(FieldParams(10.0, gap_energy=gap * HBAR * model10.omega))
    table = build_weights(PacketSpec(n0, sigma, bands))
    grid = TimeGrid(0.0, 1.1 * timescales(model, n0).t_revival, 300)
    tol = 3 * np.finfo(np.float64).eps * (table.diag.size + 2)
    a = autocorrelation(table, model, grid).values
    jx, jy = (j.values for j in currents(table, model, grid))
    assert abs(a[0] - 1.0) <= tol
    assert np.abs(a).max() <= 1.0 + tol
    assert np.hypot(jx, jy).max() <= 1.0 + tol


def _top_frequency(table, model):
    """The largest term frequency the kernel sees, over A(t) and the currents."""
    return max(_terms(table, model, current)[1].max() for current in (False, True))


@pytest.mark.parametrize("bands", ["positive", "negative", "both"])
def test_max_frequency_bounds_every_term(model10, bands):
    table = build_weights(PacketSpec(15, 3.0, bands=bands))
    top = _top_frequency(table, model10)
    assert top <= max_frequency(table, model10) < 2.0 * top


def test_imprecise_phases_refused_before_evaluation(model10, table15):
    with pytest.raises(ValueError, match="limit"):
        autocorrelation(table15, model10, TimeGrid(0.0, 1e300, 4))
    with pytest.raises(ValueError, match="limit"):
        currents(table15, model10, TimeGrid(0.0, 1e300, 4))


def test_one_band_current_refuses_rounded_transition_frequencies(model10):
    # om_n - om_{n-1} rounds by eps * om_n, 3.9e-2 rad over this grid, while
    # the transition frequencies that trig_series checks stay far smaller
    table = build_weights(PacketSpec(10**6, 3.0))
    with pytest.raises(ValueError, match="limit"):
        current_single_band(table, model10, TimeGrid(0.0, 1e-3, 64), +1)


def test_widest_perfbench_case_far_below_phase_limit():
    # perfbench's wide-band workload: two bands, n0 up to 2050, sigma 400,
    # B up to 15 T, grid to 1.1 T_r; its phases reach ~2e8 rad
    model = SpectrumModel(FieldParams(15.0))
    table = build_weights(PacketSpec(2050, 400.0, bands="both"))
    t_end = 1.1 * timescales(model, 2050).t_revival
    assert phase_rounding(max_frequency(table, model), t_end) < 1e-6


def _gapped_model(gap: str) -> SpectrumModel:
    """B = 10 T with no gap, a 50 meV gap, or a gap equal to hbar*Omega*sqrt(15)."""
    hbar_omega = HBAR * SpectrumModel(FieldParams(10.0)).omega
    delta = {"0": 0.0, "50meV": convert(50.0, "meV", "J"),
             "E15": hbar_omega * math.sqrt(15)}[gap]
    return SpectrumModel(FieldParams(10.0, gap_energy=delta))


# The gapless packets reach n = 0. Gapped packets that reach it are left out:
# the library puts n = 0 at s*Delta, the Hamiltonian at -Delta in K1 (ROADMAP
# item 3, step A).
@pytest.mark.parametrize("gap, spec", [
    *(pytest.param(gap, PacketSpec(15, 3.0, bands=bands), id=f"{gap}-{bands}")
      for gap in ("50meV", "E15") for bands in ("positive", "negative", "both")),
    pytest.param("0", PacketSpec(2, 3.0, bands="positive"), id="0-n0_2-positive"),
    pytest.param("0", PacketSpec(3, 2.0, bands="negative"), id="0-n0_3-negative"),
])
def test_gapped_autocorrelation_matches_hamiltonian_oracle(gap, spec):
    model = _gapped_model(gap)
    table = build_weights(spec)
    grid = TimeGrid(0.0, 1.1 * timescales(model, spec.n0).t_revival, 257)
    got = autocorrelation(table, model, grid).values
    gap_ratio = model.params.gap_energy / (HBAR * model.omega)
    want, h_norm = dirac_autocorrelation(table, gap_ratio, model.omega * grid.times)
    # The |A| weights sum to 1, so |got - want| is at most the largest phase
    # error plus the summation errors. phi = ||H||_2 * Omega * t_end bounds
    # every phase on either side. eigh moves each eigenvalue by at most
    # eps * ||H||_2 (LAPACK's bound); rounding moves a phase by eps/2 * phi
    # per operation: gap ratio (2) and Omega*t, lambda*(Omega*t) (2) in the
    # oracle; Delta/hbar, sqrt, Omega*sqrt(n), hypot and omega*t (5) in the
    # library. The summation terms stay below eps per basis state.
    eps = np.finfo(np.float64).eps
    phi = h_norm * model.omega * grid.t_end
    bound = eps * (phi * (1.0 + 9 / 2) + 2 * (table.n_max + 11))
    assert np.max(np.abs(got - want)) <= bound


@pytest.mark.parametrize("bands, s", [("positive", +1), ("negative", -1)])
@pytest.mark.parametrize("n0, sigma", [(2, 3.0), (3, 2.0), (5, 2.0), (15, 3.0)])
def test_one_band_current_matches_hamiltonian_oracle(n0, sigma, bands, s):
    # j = -<sigma> of the evolved K1 state, without a gap. The first three
    # packets reach n = 0, whose state has one spinor component, so the
    # 0 <-> 1 term weighs sqrt(2) U_01; without that factor they are off by
    # 6.0e-2, 6.4e-3 and 5.8e-6. (15, 3), levels 3-27, fixes the oracle's
    # sign convention. Residuals measured 5.3e-15 to 7.8e-15.
    model = _gapped_model("0")
    table = build_weights(PacketSpec(n0, sigma, bands))
    grid = TimeGrid(0.0, 60.0 / model.omega, 257)
    got = current_single_band(table, model, grid, s)
    want = dirac_currents(table, 0.0, model.omega * grid.times)
    for g, w in zip(got, want):
        assert np.max(np.abs(g.values - w)) <= 1e-13


@pytest.mark.parametrize("gap", ["50meV", "E15"])
def test_gapped_current_period_is_gapped_classical_period(gap):
    # T_cl = 4 pi hbar E / (hbar Omega)^2 with E = sqrt(Delta^2 + n0 (hbar Omega)^2)
    model = _gapped_model(gap)
    hbar_omega = HBAR * model.omega
    energy = math.sqrt(model.params.gap_energy ** 2 + 15 * hbar_omega ** 2)
    t_cl = 4.0 * math.pi * HBAR * energy / hbar_omega ** 2
    grid = TimeGrid(0.0, 4.0 * t_cl, 8001)
    _, jy = current_single_band(build_weights(PacketSpec(15, 3.0)), model, grid, +1)
    # a ratio: pytest.approx's default abs=1e-12 would pass any period in seconds
    assert measure_period(jy, (0.0, 4.0 * t_cl)) / t_cl == pytest.approx(1.0, rel=0.02, abs=0)


@pytest.mark.parametrize("gap", ["50meV", "E15"])
def test_max_frequency_bounds_every_gapped_term(gap):
    # the kernel's own frequencies, so no slack: E_n + E_{n-1} rounds to at
    # most 2 * E_nmax, and the one-band bound is E_nmax itself
    model = _gapped_model(gap)
    for bands in ("positive", "both"):
        table = build_weights(PacketSpec(15, 3.0, bands=bands))
        assert _top_frequency(table, model) <= max_frequency(table, model)
