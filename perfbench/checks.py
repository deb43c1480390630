"""Output checks: direct sums over levels, parsing of CLI outputs.

The oracle recomputes a series value at one time as a plain term-by-term
sum (math.cos / math.sin per level, math.fsum to add them). It evaluates the
phases exactly as the model defines them, fl(omega_n * t) with
omega_n = Omega * sqrt(n) and Omega = sqrt(2) v_F / l_B, so the only
differences from the program are the trig rounding and the summation
order. That lets it hold the tolerance the repository's own oracle test
uses (tests/test_acceptance.py, criterion 7): 1e-14 absolute, scaled by any
output scale factor. Phases at the CLI sizes reach 1e4 (n0 ~ 15) to 2e8
(n0 ~ 2000) rad, so a formula that rounds the phase differently could not
meet that bound.

Level ranges come from the public truncation_range; weights, frequencies,
envelopes and sums are computed here.
"""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np

HBAR = 1.054571817e-34
E_CHARGE = 1.602176634e-19
ORACLE_ATOL = 1e-14
RATIO_RTOL = 1e-12  # the CLI tests' bound on the timescales ratios
HERMITE_RTOL = 1e-10  # the Hermite-vs-explicit-polynomial test bound
CLASSES = ("full", "fractional", "absent")
CHECK_ROWS = 16  # rows per output, plus the first and the last


def level_frequency(b_tesla: float, v_fermi: float = 1.0e6) -> float:
    """Omega = sqrt(2) v_F / l_B with l_B = sqrt(hbar / (e B)) [rad/s]."""
    return math.sqrt(2.0) * v_fermi / math.sqrt(HBAR / (E_CHARGE * b_tesla))


def packet(n0: int, sigma: float, bands: str, n_min: int, n_max: int):
    """(n, U_nn, U_{n-1,n}) of the normalized Gaussian packet over [n_min, n_max]."""
    n = list(range(n_min, n_max + 1))
    g = [math.exp(-((k - n0) ** 2) / (2.0 * sigma)) for k in n]
    norm = math.fsum(x * x for x in g) * (2.0 if bands == "both" else 1.0)
    diag = [x * x / norm for x in g]
    offdiag = [g[i] * g[i + 1] / norm for i in range(len(g) - 1)]
    return n, diag, offdiag


def _frequencies(omega: float, n):
    return [omega * math.sqrt(k) for k in n]


def autocorr_direct(t: float, omega: float, n, diag, bands: str) -> complex:
    """A(t) = sum_{n,s} U_nn exp(-i s omega_n t) by a plain sum."""
    phases = [om * t for om in _frequencies(omega, n)]
    re = math.fsum(u * math.cos(p) for u, p in zip(diag, phases))
    if bands == "both":
        return complex(2.0 * re, 0.0)
    s = 1.0 if bands == "positive" else -1.0
    im = -s * math.fsum(u * math.sin(p) for u, p in zip(diag, phases))
    return complex(re, im)


def current_direct(t: float, omega: float, n, offdiag, bands: str,
                   gamma_j: float = 0.0) -> tuple[float, float]:
    """(j_x, j_y) in units of e*v_F by a plain sum over transitions n-1 -> n."""
    om = _frequencies(omega, n)
    diff = [om[i + 1] - om[i] for i in range(len(om) - 1)]
    env = math.exp(-2.0 * gamma_j * t / HBAR)
    if bands == "both":
        summ = [om[i + 1] + om[i] for i in range(len(om) - 1)]
        jy = math.fsum([u * math.sin(d * t) for u, d in zip(offdiag, diff)]
                       + [u * math.sin(f * t) for u, f in zip(offdiag, summ)])
        return 0.0, jy * env
    s = 1.0 if bands == "positive" else -1.0
    jx = s * math.fsum(u * math.cos(d * t) for u, d in zip(offdiag, diff))
    jy = math.fsum(u * math.sin(d * t) for u, d in zip(offdiag, diff))
    return jx * env, jy * env


def time_grid(t_end_s: float, samples: int) -> np.ndarray:
    """The uniform grid [0, t_end] every series is sampled on."""
    return np.linspace(0.0, t_end_s, samples)


def read_csv(path: str) -> tuple[list[str], list[str], list[str]]:
    """(column names, data lines, trailer comment lines) of a CSV output."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    k = 0
    while k < len(lines) and lines[k].startswith("#"):
        k += 1
    body = lines[k + 1:]
    data = [ln for ln in body if not ln.startswith("#")]
    trailer = [ln for ln in body if ln.startswith("#")]
    return lines[k].split(","), data, trailer


class Deviation:
    """Worst |got - want| / tolerance seen, plus the failures."""

    def __init__(self):
        self.worst_abs = 0.0
        self.worst_share_of_tol = 0.0
        self.failures: list[str] = []

    def compare(self, what: str, got: float, want: float, tol: float) -> None:
        dev = abs(got - want)
        if not dev <= tol:  # NaN fails too
            self.failures.append(f"{what}: got {got!r}, want {want!r} (tol {tol:g})")
        if not math.isfinite(dev):
            self.worst_share_of_tol = math.inf
        elif dev > 0.0:
            self.worst_abs = max(self.worst_abs, dev)
            share = dev / tol if tol > 0.0 else math.inf
            self.worst_share_of_tol = max(self.worst_share_of_tol, share)

    def require(self, what: str, ok: bool) -> None:
        if not ok:
            self.failures.append(what)


def check_rows(rng: random.Random, n: int) -> list[int]:
    """Seed-chosen row indices, always with the first and the last row."""
    return sorted({0, n - 1, *rng.sample(range(n), min(CHECK_ROWS, n))})


def check_cli_output(argv, path: str, rng: random.Random, gr) -> Deviation:
    """Check one CLI output file: config echo round-trip and values."""
    dev = Deviation()
    cli = gr.cli
    command, cfg = cli.config_from_output(path)
    want = cli.resolve_config(cli.build_parser().parse_args(list(argv)))
    want = dataclasses.replace(want, t_end_fs=want.resolve_t_end_fs())
    dev.require(f"echoed command {command!r}, ran {argv[0]!r}", command == argv[0])
    dev.require(f"config echo {cfg} does not round-trip to {want}", cfg == want)
    columns, data, trailer = read_csv(path)
    if command == "timescales":
        _check_timescales(cfg, data, dev)
    elif command == "gamma-scan":
        _check_gamma_scan(cfg, columns, data, trailer, dev)
    else:
        _check_series(command, cfg, columns, data, rng, gr, dev)
    return dev


def _check_timescales(cfg, data, dev: Deviation) -> None:
    got = {k: float(v) for k, v in (ln.split(",") for ln in data)}
    omega = level_frequency(cfg.B, cfg.v_f)
    n0 = cfg.n0
    want = {  # T_cl = 4 pi sqrt(n0)/Omega, T_r = 16 pi n0^1.5/Omega, T_zb = pi/(Omega sqrt(n0))
        "t_cl_fs": 4.0 * math.pi * math.sqrt(n0) / omega * 1e15,
        "t_r_ps": 16.0 * math.pi * n0 ** 1.5 / omega * 1e12,
        "t_zb_fs": math.pi / (omega * math.sqrt(n0)) * 1e15,
        "ratio_t_r_over_t_cl": 4.0 * n0,
        "ratio_t_r_over_t_zb": 16.0 * n0 * n0,
        "hbar_omega_mev": HBAR * omega / (E_CHARGE * 1e-3),
        "magnetic_length_nm": math.sqrt(HBAR / (E_CHARGE * cfg.B)) * 1e9,
    }
    if cfg.gap_mev == 0.0:
        want["t_zb_gap_fs"] = want["t_zb_fs"]
    for key, value in want.items():
        dev.compare(key, got.get(key, math.nan), value, RATIO_RTOL * abs(value))


def _check_gamma_scan(cfg, columns, data, trailer, dev: Deviation) -> None:
    gammas = [0.0] if cfg.gamma_mev == 0.0 else list(
        np.linspace(0.0, cfg.gamma_mev, cfg.gamma_steps))
    dev.require(f"gamma-scan: {len(data)} rows, want {len(gammas)}", len(data) == len(gammas))
    dev.require(f"gamma-scan: {len(columns)} columns, want 9", len(columns) == 9)
    for ln, g in zip(data, gammas):
        row = ln.split(",")
        dev.compare("gamma_mev", float(row[0]), float(g), 0.0)
        for cls, peak in zip(row[1::2], row[2::2]):
            dev.require(f"gamma-scan: class {cls!r}", cls in CLASSES)
            dev.require(f"gamma-scan: class {cls} with peak {peak!r}",
                        (cls == "absent") == (peak == ""))
    tail = [t.split("=", 1) for t in trailer if t.startswith("# gamma_max_mev")]
    gmax = float(tail[0][1]) if len(tail) == 1 else math.nan
    dev.require(f"gamma-scan: gamma_max_mev {gmax} outside (0, 20]", 0.0 < gmax <= 20.0)


def _check_series(command, cfg, columns, data, rng, gr, dev: Deviation) -> None:
    dev.require(f"{command}: {len(data)} rows, want {cfg.samples}", len(data) == cfg.samples)
    spec = cfg.packet_spec()
    n, diag, offdiag = packet(spec.n0, spec.sigma, spec.bands, *gr.truncation_range(spec))
    omega = level_frequency(cfg.B, cfg.v_f)
    times = time_grid(cfg.t_end_fs * 1e-15, cfg.samples)
    scale = (E_CHARGE * cfg.v_f if cfg.si_current else 1.0) * (
        2.0 if cfg.valleys == "both" else 1.0)
    for k in check_rows(rng, len(data)):
        row = [float(x) for x in data[k].split(",")]
        t = float(times[k])
        dev.compare(f"t_fs[{k}]", row[0], t / 1e-15, 4.5e-16 * abs(row[0]))
        if command == "autocorr":
            a = autocorr_direct(t, omega, n, diag, spec.bands)
            dev.compare(f"re_A[{k}]", row[1], a.real, ORACLE_ATOL)
            dev.compare(f"im_A[{k}]", row[2], a.imag, ORACLE_ATOL)
            dev.compare(f"abs2_A[{k}]", row[3], abs(a) ** 2, ORACLE_ATOL)
        else:
            gamma_j = cfg.gamma_mev * (E_CHARGE * 1e-3)
            jx, jy = current_direct(t, omega, n, offdiag, spec.bands, gamma_j)
            dev.compare(f"jx_evf[{k}]", row[1], scale * jx, scale * ORACLE_ATOL)
            dev.compare(f"jy_evf[{k}]", row[2], scale * jy, scale * ORACLE_ATOL)


def check_library(p: dict, got: dict, rows: list[int], gr) -> Deviation:
    """Check the values the library child reported against direct sums."""
    dev = Deviation()
    omega = level_frequency(p["B"])
    times = time_grid(got["t_end_s"], p["samples"])
    gamma_j = p["gamma_mev"] * (E_CHARGE * 1e-3)
    one = gr.PacketSpec(p["n0"], 3.0)
    both = gr.PacketSpec(p["n0"], 3.0, "both")
    n, diag, offdiag = packet(p["n0"], 3.0, "positive", *gr.truncation_range(one))
    nb, _, offdiag_b = packet(p["n0"], 3.0, "both", *gr.truncation_range(both))
    for k, (re, im), jy2, jy1 in zip(rows, got["autocorr"], got["jy_two_band"],
                                     got["jy_one_band"]):
        t = float(times[k])
        a = autocorr_direct(t, omega, n, diag, "positive")
        dev.compare(f"autocorr re[{k}]", re, a.real, ORACLE_ATOL)
        dev.compare(f"autocorr im[{k}]", im, a.imag, ORACLE_ATOL)
        dev.compare(f"jy two-band[{k}]", jy2,
                    current_direct(t, omega, nb, offdiag_b, "both", gamma_j)[1], ORACLE_ATOL)
        dev.compare(f"jy one-band[{k}]", jy1,
                    current_direct(t, omega, n, offdiag, "positive", gamma_j)[1], ORACLE_ATOL)
    for tag, classes in got["classes"].items():
        dev.require(f"{tag}: classes {classes}", len(classes) == 4
                    and all(c in CLASSES for c in classes))
    for g in got["gamma_max_j"]:
        dev.require(f"gamma_max {g} J outside (0, 20 meV]",
                    0.0 < g <= 20e-3 * E_CHARGE * (1.0 + 1e-15))
    # h_n(0) = (-1)^(n/2) pi^(-1/4) sqrt(n!) / (2^(n/2) (n/2)!) for even n; h_{n-1}(0) = 0
    order = p["hermite_order"]
    dev.require(f"spinor centre at xi = {got['xi_center']}, need 0", got["xi_center"] == 0.0
                and order % 2 == 0)
    h0 = (-1) ** (order // 2) * math.exp(
        0.5 * math.lgamma(order + 1) - 0.5 * order * math.log(2.0)
        - math.lgamma(order // 2 + 1) - 0.25 * math.log(math.pi))
    upper, lower = got["spinor_center"]
    dev.compare(f"h_{order}(0)", lower, h0, HERMITE_RTOL * abs(h0))
    dev.compare(f"h_{order - 1}(0)", upper, 0.0, ORACLE_ATOL)
    return dev
