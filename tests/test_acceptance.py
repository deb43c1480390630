"""Acceptance gate: every criterion checked at its stated tolerance.

Each test prints one PASS/FAIL line through the terminal-summary hook in
conftest.py. Reference values are rounded numbers for B = 10 T, v_F = 1e6 m/s,
the setting of the source paper; tolerances are pinned here, not configurable.

Reference time scales: T_cl and T_zb are given to three and two significant
figures, T_r to two or three. The paper's abstract (PAPER.md) quotes none of
them, so they are checked against each other: T_r/T_cl = T_cl/T_zb = 4*n0
holds exactly (criterion 2), so the references of one n0 must agree at the
same 2%, and criterion 1 checks that before comparing them with the program.
The n0=11 revival time is 10.5 ps = 44 * 239 fs to three figures, like its
T_cl neighbour. Rounding it to an integer (11 ps) would put it 4.6% off
44 * 239 fs, a reference no program passing criterion 2 and the 239 fs check
could meet.
"""

import math

import numpy as np

from conftest import record_criterion
from graphene_revivals import (HBAR, FieldParams, ObservableSeries, PacketSpec,
                               SpectrumModel, TimeGrid, abs_squared,
                               autocorrelation, build_weights, convert,
                               current_single_band, current_two_band,
                               detect_revivals,
                               dominant_period, estimate_gamma_max, find_peaks,
                               hermite_function, landau_energy, measure_period,
                               station_visible_log, timescales)
from graphene_revivals.cli import main as cli_main
from graphene_revivals.observables import _series

from oracles import (brute_force_autocorr, brute_force_currents,
                     hermite_gaussian_explicit)

MEV = 1.602176634e-22

FIELD = FieldParams(10.0)
MODEL = SpectrumModel(FIELD)

# rounded reference values: (n0, quantity, value, unit)
REFERENCE_TIMESCALES = [
    (15, "t_classical", 279.0, "fs"),
    (15, "t_revival", 17.0, "ps"),
    (15, "t_zitterbewegung", 4.7, "fs"),
    (11, "t_classical", 239.0, "fs"),
    (11, "t_revival", 10.5, "ps"),
    (11, "t_zitterbewegung", 5.4, "fs"),
]


def check(failures, condition, message):
    if not condition:
        failures.append(message)


def finish(name, failures, detail=""):
    record_criterion(name, not failures, "; ".join(failures) if failures else detail)
    assert not failures, f"{name}: " + "; ".join(failures)


def test_criterion_1_time_scales():
    failures = []
    # the references themselves must obey T_r = 4*n0*T_cl and T_cl = 4*n0*T_zb
    refs = {(n0, attr): (convert(ref, unit, "s"), f"{ref} {unit}")
            for n0, attr, ref, unit in REFERENCE_TIMESCALES}
    for n0 in sorted({n0 for n0, *_ in REFERENCE_TIMESCALES}):
        for slow, fast in [("t_revival", "t_classical"),
                           ("t_classical", "t_zitterbewegung")]:
            (slow_s, slow_txt), (fast_s, fast_txt) = refs[n0, slow], refs[n0, fast]
            rel = abs(slow_s / (4 * n0 * fast_s) - 1.0)
            check(failures, rel <= 0.02,
                  f"reference table n0={n0}: {slow} {slow_txt} vs "
                  f"4*n0*{fast} = 4*{n0}*{fast_txt} ({100 * rel:.2f}% > 2%)")
    for n0, attr, ref, unit in REFERENCE_TIMESCALES:
        ts = timescales(MODEL, n0)
        got = convert(getattr(ts, attr), "s", unit)
        rel = abs(got - ref) / ref
        check(failures, rel <= 0.02,
              f"n0={n0} {attr}: {got:.4f} {unit} vs reference {ref} {unit} "
              f"({100 * rel:.2f}% > 2%)")
    finish("criterion 1: time scales match rounded references at 2%", failures)


def test_criterion_2_ratio_identities():
    failures = []
    for n0 in (1, 2, 5, 11, 15, 50):
        ts = timescales(MODEL, n0)
        for label, got, want in [
            ("T_r/T_cl", ts.t_revival / ts.t_classical, 4 * n0),
            ("T_cl/T_zb", ts.t_classical / ts.t_zitterbewegung, 4 * n0),
            ("T_r/T_zb", ts.t_revival / ts.t_zitterbewegung, 16 * n0 ** 2),
        ]:
            check(failures, abs(got - want) / want <= 1e-12,
                  f"n0={n0} {label} = {got!r}, want {want}")
    ts15 = timescales(MODEL, 15)
    ratio = ts15.t_revival / ts15.t_zitterbewegung
    check(failures, abs(ratio - 3600.0) / 3600.0 <= 1e-12,
          f"T_r/T_zb at n0=15 is {ratio!r}, want 3600")
    finish("criterion 2: ratio identities exact to 1e-12", failures)


def test_criterion_3_revival_structure():
    failures = []
    ts = timescales(MODEL, 15)
    grid = TimeGrid(0.0, 1.06 * ts.t_revival, 40_001)
    localized = abs_squared(
        autocorrelation(build_weights(PacketSpec(15, 3.0)), MODEL, grid))
    report = detect_revivals(localized, ts)
    for st in report.stations:
        check(failures, st.classification != "absent",
              f"station at {st.fraction} * T_r not detected")
    full_station = report.stations[-1]
    peak_value = full_station.peak.value if full_station.peak else 0.0
    check(failures, peak_value >= 0.5,
          f"|A|^2 peak at T_r is {peak_value:.3f} < 0.5")

    ts11 = timescales(MODEL, 11)
    grid11 = TimeGrid(0.0, 1.06 * ts11.t_revival, 40_001)
    delocalized = abs_squared(
        autocorrelation(build_weights(PacketSpec(11, 40.0)), MODEL, grid11))
    report11 = detect_revivals(delocalized, ts11)
    for st in report11.stations:
        check(failures, st.classification == "absent",
              f"delocalized packet shows a station at {st.fraction} * T_r")
    finish("criterion 3: revival stations detected for n0=15/sigma=3, "
           "none for n0=11/sigma=40", failures,
           detail=f"|A|^2 at T_r = {peak_value:.3f}")


def test_criterion_4_classical_periodicity():
    failures = []
    ts = timescales(MODEL, 15)
    table = build_weights(PacketSpec(15, 3.0))
    grid = TimeGrid(0.0, 1.2e-12, 8001)
    jx, jy = current_single_band(table, MODEL, grid, +1)
    period = measure_period(jy, (0.0, 1.2e-12))
    rel = abs(period - ts.t_classical) / ts.t_classical
    check(failures, rel <= 0.02,
          f"j_y period {period:.4e} s vs T_cl {ts.t_classical:.4e} s "
          f"({100 * rel:.2f}% > 2%)")
    check(failures, jy.values[0] == 0.0, f"j_y(0) = {jy.values[0]!r}, want 0")
    expected = math.fsum(table.offdiag)
    check(failures, abs(jx.values[0] - expected) <= 4 * np.spacing(expected),
          f"j_x(0) = {jx.values[0]!r} vs sum of overlaps {expected!r}")
    finish("criterion 4: classical period within 2%, exact t=0 currents",
           failures, detail=f"period/T_cl - 1 = {rel:.2e}")


def test_criterion_5_zitterbewegung():
    failures = []
    ts = timescales(MODEL, 15)
    table = build_weights(PacketSpec(15, 3.0, bands="both"))

    early = TimeGrid(0.0, 30e-15, 4001)
    jx, jy = current_two_band(table, MODEL, early)
    period = measure_period(jy, (0.0, 30e-15))
    rel = abs(period - ts.t_zitterbewegung) / ts.t_zitterbewegung
    check(failures, rel <= 0.05,
          f"fastest period {period:.4e} s vs T_zb {ts.t_zitterbewegung:.4e} s "
          f"({100 * rel:.2f}% > 5%)")
    check(failures, np.all(jx.values == 0.0), "two-band j_x not exactly zero")

    # persistence: fast component near the revival window
    window = TimeGrid(ts.t_revival - 50e-15, ts.t_revival + 50e-15, 4001)
    _, jy_late = current_two_band(table, MODEL, window)
    w = int(round(3 * ts.t_zitterbewegung / window.spacing)) | 1
    smooth = np.convolve(jy_late.values, np.ones(w) / w, mode="same")
    resid = (jy_late.values - smooth)[w:-w]
    rms = float(np.sqrt(np.mean(resid ** 2)))
    floor = 0.05 * float(table.offdiag.sum())
    check(failures, rms >= floor,
          f"fast-component rms near T_r is {rms:.3e} < {floor:.3e}")
    resid_series = ObservableSeries(
        grid=TimeGrid(window.t_start + w * window.spacing,
                      window.t_end - w * window.spacing, resid.size),
        values=resid)
    late_period = dominant_period(
        resid_series, (resid_series.grid.t_start, resid_series.grid.t_end))
    rel_late = abs(late_period - ts.t_zitterbewegung) / ts.t_zitterbewegung
    check(failures, rel_late <= 0.10,
          f"late fast period {late_period:.3e} s off T_zb by {100 * rel_late:.1f}%")
    finish("criterion 5: zitterbewegung period within 5%, j_x = 0, "
           "fast component persists near T_r", failures,
           detail=f"late fast rms = {rms:.3f}")


def test_criterion_6_broadening():
    failures = []
    ts = timescales(MODEL, 15)
    table = build_weights(PacketSpec(15, 3.0))
    grid = TimeGrid(0.0, 1.06 * ts.t_revival, 40_001)
    _, jy = current_single_band(table, MODEL, grid, +1)

    def damped(gamma_j):
        env = np.exp(-2.0 * gamma_j * grid.times / HBAR)
        return ObservableSeries(grid=grid, values=jy.values * env)

    moderate = damped(0.7 * MEV)
    check(failures, station_visible_log(moderate, ts, fraction=0.25),
          "T_r/4 structure lost already at 0.7 meV")
    check(failures, station_visible_log(moderate, ts, fraction=0.5),
          "T_r/2 structure lost already at 0.7 meV")

    heavy = damped(3.7 * MEV)
    linear_report = detect_revivals(heavy, ts)
    check(failures, linear_report.classification(1.0) == "absent",
          "linear-scale revival at T_r still present at 3.7 meV")
    check(failures, station_visible_log(heavy, ts, fraction=0.25, floor=1e-30),
          "early-time structure gone beyond log-scale range at 3.7 meV")

    gamma_max = estimate_gamma_max(PacketSpec(15, 3.0), FIELD)
    gamma_max_mev = gamma_max / MEV
    check(failures, 3.7 / 2 <= gamma_max_mev <= 3.7 * 2,
          f"gamma_max = {gamma_max_mev:.2f} meV outside [1.85, 7.4] meV")
    finish("criterion 6: broadening degrades revivals as expected, "
           "gamma_max within factor 2 of 3.7 meV", failures,
           detail=f"gamma_max = {gamma_max_mev:.2f} meV")


def test_criterion_7_property_suites():
    failures = []
    # population normalization
    table = build_weights(PacketSpec(15, 3.0))
    check(failures, abs(table.total_population() - 1.0) <= 1e-12,
          "population not normalized")
    # |A(t)| <= 1 on random times
    rng = np.random.default_rng(123)
    ts = timescales(MODEL, 15)
    re, im = _series(table, MODEL, rng.uniform(0.0, 2 * ts.t_revival, 10_000), False)
    check(failures, float(np.hypot(re, im).max()) <= 1.0 + 1e-12,
          "|A(t)| exceeds 1")
    # 3-level brute-force equivalence
    from graphene_revivals.wavepacket import WeightTable
    g = np.exp(-np.array([1.0, 0.0, 1.0]) / 2.0)
    small = WeightTable(n_min=4, n_max=6, diag=g * g / (g * g).sum(),
                        offdiag=g[:-1] * g[1:] / (g * g).sum(),
                        band_content="positive")
    energies = [landau_energy(MODEL, n, +1) for n in (4, 5, 6)]
    tiny_grid = TimeGrid(0.0, 2e-13, 9)
    a = autocorrelation(small, MODEL, tiny_grid).values
    jx, jy = (s.values for s in current_single_band(small, MODEL, tiny_grid, +1))
    for k, t in enumerate(tiny_grid.times):
        check(failures,
              abs(a[k] - brute_force_autocorr(small.diag, energies, HBAR, t)) <= 1e-14,
              f"A(t) differs from brute force at sample {k}")
        bx, by = brute_force_currents(small.offdiag, energies, HBAR, t, +1)
        check(failures, abs(jx[k] - bx) <= 1e-14 and abs(jy[k] - by) <= 1e-14,
              f"currents differ from brute force at sample {k}")
    # Hermite recurrence vs explicit polynomials
    xi = np.linspace(-6.0, 6.0, 61)
    for n in range(13):
        got = hermite_function(n, xi)
        ref = np.array([hermite_gaussian_explicit(n, x) for x in xi])
        check(failures, np.allclose(got, ref, rtol=1e-10, atol=1e-12),
              f"Hermite order {n} off the explicit polynomial")
    # orthonormality spot checks by quadrature
    from scipy import integrate
    for m, n in [(0, 0), (3, 3), (12, 12), (0, 2), (5, 11), (7, 12)]:
        val, _ = integrate.quad(
            lambda x: hermite_function(m, x) * hermite_function(n, x),
            -14.0, 14.0, limit=200)
        check(failures, abs(val - (1.0 if m == n else 0.0)) <= 1e-8,
              f"<h_{m}|h_{n}> = {val}")
    # field scaling
    ts40 = timescales(SpectrumModel(FieldParams(40.0)), 15)
    for a_, b_ in [(ts40.t_classical, ts.t_classical),
                   (ts40.t_revival, ts.t_revival),
                   (ts40.t_zitterbewegung, ts.t_zitterbewegung)]:
        check(failures, abs(a_ - b_ / 2) / (b_ / 2) <= 1e-12,
              "period does not halve when the field quadruples")
    # grid-doubling peak stability
    peaks = {}
    for n_samples in (20_001, 40_001):
        grid = TimeGrid(0.0, 1.06 * ts.t_revival, n_samples)
        series = abs_squared(autocorrelation(table, MODEL, grid))
        peaks[n_samples] = (find_peaks(series, 0.4), grid.spacing)
    coarse, spacing = peaks[20_001]
    fine, _ = peaks[40_001]
    for p in coarse:
        check(failures,
              min(abs(p.time - q.time) for q in fine) <= spacing,
              f"peak at {p.time:.3e} s moved by more than one grid spacing")
    finish("criterion 7: property suites (normalization, bounds, oracles, "
           "scaling, grid stability)", failures)


def test_criterion_8_determinism(tmp_path):
    failures = []
    for command, extra in [("autocorr", []), ("current", ["--bands", "both"])]:
        f1 = tmp_path / f"{command}_1.csv"
        f2 = tmp_path / f"{command}_2.csv"
        args = [command, "--n0", "15", "--sigma", "3", "--samples", "600"] + extra
        check(failures, cli_main(args + ["--out", str(f1)]) == 0,
              f"{command} run 1 failed")
        check(failures, cli_main(args + ["--out", str(f2)]) == 0,
              f"{command} run 2 failed")
        if f1.exists() and f2.exists():
            check(failures, f1.read_bytes() == f2.read_bytes(),
                  f"{command} outputs differ between identical runs")
    finish("criterion 8: repeated runs produce byte-identical files", failures)
