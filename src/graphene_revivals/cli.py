"""Command-line front end.

Subcommands
    timescales   characteristic periods and derived quantities
    autocorr     autocorrelation series A(t) -> t_fs, re_A, im_A, abs2_A
    current      current series -> t_fs, jx_evf, jy_evf
    gamma-scan   revival-station classification vs level width, plus the
                 estimated maximum width

Configuration comes from defaults, then an optional key=value config file
(--config), then command-line flags; flags win. Every run echoes the fully
resolved configuration in its output header, and that echo parses back into
an identical run, so outputs are self-reproducing. Repeated runs of the
same configuration produce byte-identical files.

Exit codes: 0 success, 1 configuration or usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from ._kernels import phase_rounding
from .analysis import detect_revivals, estimate_gamma_max
from .constants import (E_CHARGE, FERMI_VELOCITY_DEFAULT, FieldParams, convert,
                        magnetic_length)
from .observables import (TimeGrid, abs_squared, autocorrelation, currents,
                          damped, max_frequency, total_current_both_valleys)
from .spectrum import SpectrumModel, timescales
from .wavepacket import PacketSpec, build_weights

_BANDS_FLAG = {"pos": "positive", "neg": "negative", "both": "both"}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters (flag vocabulary, CLI units)."""

    B: float = 10.0            # tesla
    v_f: float = FERMI_VELOCITY_DEFAULT  # m/s
    n0: int = 15
    sigma: float = 3.0
    bands: str = "pos"         # pos | neg | both
    gamma_mev: float = 0.0
    gap_mev: float = 0.0
    t_end_fs: float = 0.0      # 0 = auto: 1.1 * revival time
    samples: int = 4096
    valleys: str = "k1"        # k1 | both
    format: str = "csv"        # csv | json
    si_current: bool = False
    gamma_steps: int = 6

    def __post_init__(self):
        if self.bands not in _BANDS_FLAG:
            raise ValueError(f"bands must be pos, neg or both, got {self.bands!r}")
        if self.valleys not in ("k1", "both"):
            raise ValueError(f"valleys must be k1 or both, got {self.valleys!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if self.samples < 2:
            raise ValueError(f"samples must be >= 2, got {self.samples}")
        for name in ("gamma_mev", "gap_mev", "t_end_fs"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.gamma_steps < 2:
            raise ValueError("gamma_steps must be >= 2 to scan both ends of "
                             f"[0, gamma_mev], got {self.gamma_steps}")

    # dependent objects -----------------------------------------------------
    def field_params(self) -> FieldParams:
        return FieldParams(b_tesla=self.B, v_fermi=self.v_f,
                           gap_energy=convert(self.gap_mev, "meV", "J"))

    def packet_spec(self) -> PacketSpec:
        return PacketSpec(n0=self.n0, sigma=self.sigma, bands=_BANDS_FLAG[self.bands])

    def resolve_t_end_fs(self) -> float:
        if self.t_end_fs > 0.0:
            return self.t_end_fs
        model = SpectrumModel(self.field_params())
        return 1.1 * convert(timescales(model, self.n0).t_revival, "s", "fs")

    def time_grid(self) -> TimeGrid:
        return TimeGrid(0.0, convert(self.resolve_t_end_fs(), "fs", "s"), self.samples)


def _format_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def _parse_value(name: str, text: str, kind: type):
    text = text.strip()
    if kind is bool:
        low = text.lower()
        if low in ("1", "true", "yes"):
            return True
        if low in ("0", "false", "no"):
            return False
        raise ValueError(f"config key {name}: expected a boolean, got {text!r}")
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"config key {name}: expected {kind.__name__}, got {text!r}") from None


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_TYPE_MAP = {"float": float, "int": int, "str": str, "bool": bool}


def parse_config_lines(lines, source: str = "config") -> dict:
    """key = value lines -> typed dict; '#' starts a comment; unknown keys fail."""
    out = {}
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{ln}: expected key=value, got {raw.rstrip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"{source}:{ln}: unknown config key {key!r}")
        out[key] = _parse_value(key, value, _TYPE_MAP[_FIELD_TYPES[key]])
    return out


def config_from_output(path: str) -> tuple[str, RunConfig]:
    """Recover (command, RunConfig) from a written output file (csv or json)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        return doc["command"], RunConfig(**doc["config"])
    command = None
    kv_lines = []
    for raw in text.splitlines():
        if not raw.startswith("#"):
            break
        body = raw[1:].strip()
        if body.startswith("graphene-revivals"):
            command = body.split()[-1]
        elif "=" in body:
            kv_lines.append(body)
    if command is None:
        raise ValueError(f"{path}: missing run header")
    return command, RunConfig(**parse_config_lines(kv_lines, source=path))


_BLOCK_ROWS = 1 << 14  # CSV rows formatted and written at once


def _render(cfg: RunConfig, command: str, header: list[str], columns: list,
            trailer=(), out: str | None = None) -> None:
    """Config echo, a table and trailer lines as CSV or JSON, to out or stdout.

    A column is a float64 array or a short sequence of float and str cells. CSV
    writes numbers %.17g and strings as they are, _BLOCK_ROWS rows at a time,
    so it holds one block of text; JSON is built whole.
    """
    config = asdict(cfg)
    with (contextlib.nullcontext(sys.stdout) if out is None
          else open(out, "w", encoding="utf-8", newline="\n")) as fh:
        if cfg.format == "json":
            rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                              for c in columns)))
            doc = {"command": command, "config": config, "columns": header, "rows": rows}
            if trailer:
                doc["trailer"] = trailer
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            return
        fh.write(f"# graphene-revivals {command}\n")
        fh.writelines(f"# {k} = {_format_value(v)}\n" for k, v in config.items())
        fh.write(",".join(header) + "\n")
        columns = [c if isinstance(c, np.ndarray) else np.array(
            [v if isinstance(v, str) else "%.17g" % v for v in c], dtype=object)
            for c in columns]
        line = ",".join("%s" if c.dtype == object else "%.17g" for c in columns) + "\n"
        for i in range(0, len(columns[0]), _BLOCK_ROWS):
            rows = zip(*(c[i:i + _BLOCK_ROWS].tolist() for c in columns))
            fh.write("".join(map(line.__mod__, rows)))
        fh.writelines(f"# {t}\n" for t in trailer)


# --- subcommands ------------------------------------------------------------

def cmd_timescales(cfg: RunConfig, out: str | None) -> None:
    model = SpectrumModel(cfg.field_params())
    ts = timescales(model, cfg.n0)
    entries = [
        ("t_cl_fs", convert(ts.t_classical, "s", "fs")),
        ("t_r_ps", convert(ts.t_revival, "s", "ps")),
        ("t_zb_fs", convert(ts.t_zitterbewegung, "s", "fs")),
        ("t_zb_gap_fs", convert(ts.t_zitterbewegung, "s", "fs")),  # = t_zb_fs; perfbench checks it
        ("ratio_t_r_over_t_cl", ts.t_revival / ts.t_classical),
        ("ratio_t_r_over_t_zb", ts.t_revival / ts.t_zitterbewegung),
        ("hbar_omega_mev", convert(model.omega, "rad/s", "meV")),
        ("magnetic_length_nm", magnetic_length(cfg.field_params()) * 1e9),
    ]
    _render(cfg, "timescales", ["quantity", "value"], list(zip(*entries)), out=out)


def cmd_autocorr(cfg: RunConfig, out: str | None) -> None:
    model = SpectrumModel(cfg.field_params())
    table = build_weights(cfg.packet_spec())
    series = autocorrelation(table, model, cfg.time_grid())
    columns = [convert(series.grid.times, "s", "fs"), series.values.real,
               series.values.imag, abs_squared(series).values]
    _render(cfg, "autocorr", ["t_fs", "re_A", "im_A", "abs2_A"], columns, out=out)


def _undamped_currents(cfg: RunConfig):
    table = build_weights(cfg.packet_spec())
    return currents(table, SpectrumModel(cfg.field_params()), cfg.time_grid())


def _observed(cfg: RunConfig, series, gamma_mev: float):
    """Broaden one valley's current by gamma_mev, then apply the valley choice."""
    series = damped(series, convert(gamma_mev, "meV", "J"))
    return total_current_both_valleys(series) if cfg.valleys == "both" else series


def cmd_current(cfg: RunConfig, out: str | None) -> None:
    jx, jy = (_observed(cfg, j, cfg.gamma_mev) for j in _undamped_currents(cfg))
    scale = E_CHARGE * cfg.v_f if cfg.si_current else 1.0
    columns = [convert(jx.grid.times, "s", "fs"), scale * jx.values, scale * jy.values]
    _render(cfg, "current", ["t_fs", "jx_evf", "jy_evf"], columns, out=out)


def cmd_gamma_scan(cfg: RunConfig, out: str | None) -> None:
    model = SpectrumModel(cfg.field_params())
    scales = timescales(model, cfg.n0)
    gammas = [0.0] if cfg.gamma_mev == 0.0 else np.linspace(
        0.0, cfg.gamma_mev, cfg.gamma_steps).tolist()
    header = ["gamma_mev"]
    for tag in ("quarter", "half", "three_quarter", "full"):
        header += [f"{tag}_class", f"{tag}_peak"]
    _, jy = _undamped_currents(cfg)
    rows = []
    for g in gammas:
        report = detect_revivals(_observed(cfg, jy, g), scales)
        row: list = [g]
        for st in report.stations:
            row.append(st.classification)
            row.append("" if st.peak is None else st.peak.value)
        rows.append(row)
    gamma_max = estimate_gamma_max(cfg.packet_spec(), cfg.field_params())
    trailer = [f"gamma_max_mev = {_format_value(convert(gamma_max, 'J', 'meV'))}"]
    _render(cfg, "gamma-scan", header, list(zip(*rows)), trailer=trailer, out=out)


# --- argument parsing --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file ('#' comments)")
    common.add_argument("--out", help="output file (default: stdout)")
    common.add_argument("--B", type=float, dest="B", help="magnetic field [T]")
    common.add_argument("--n0", type=int, help="central Landau level")
    common.add_argument("--sigma", type=float, help="level-space width parameter")
    common.add_argument("--bands", choices=sorted(_BANDS_FLAG), help="band content")
    common.add_argument("--gamma-mev", type=float, dest="gamma_mev",
                        help="level width [meV]; for gamma-scan: scan maximum")
    common.add_argument("--gap-mev", type=float, dest="gap_mev", help="gap [meV]")
    common.add_argument("--t-end-fs", type=float, dest="t_end_fs",
                        help="grid end [fs] (default: 1.1 * revival time)")
    common.add_argument("--samples", type=int, help="number of grid samples")
    common.add_argument("--valleys", choices=["k1", "both"],
                        help="one valley or the degeneracy-doubled total")
    common.add_argument("--format", choices=["csv", "json"], help="output format")
    common.add_argument("--si-current", action="store_const", const=True,
                        dest="si_current", help="scale currents by e*v_F [A m]")

    parser = argparse.ArgumentParser(
        prog="graphene-revivals",
        description="Landau-level wave-packet dynamics in monolayer graphene")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("timescales", parents=[common],
                   help="characteristic periods and derived quantities")
    sub.add_parser("autocorr", parents=[common], help="autocorrelation series")
    sub.add_parser("current", parents=[common], help="electric-current series")
    sub.add_parser("gamma-scan", parents=[common],
                   help="revival classification vs level width")
    return parser


_COMMANDS = {
    "timescales": cmd_timescales,
    "autocorr": cmd_autocorr,
    "current": cmd_current,
    "gamma-scan": cmd_gamma_scan,
}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then --config, then flags; t_end_fs comes back resolved."""
    values: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            values.update(parse_config_lines(fh, source=args.config))
    for f in fields(RunConfig):
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            values[f.name] = flag_value
    cfg = RunConfig(**values)
    return replace(cfg, t_end_fs=cfg.resolve_t_end_fs())


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:  # argparse has printed usage and the error
        return 0 if stop.code == 0 else 1  # 0 after --help
    try:
        cfg = resolve_config(args)
        phase_rounding(max_frequency(cfg.packet_spec(), SpectrumModel(cfg.field_params())),
                       cfg.time_grid().t_end)
    except (ValueError, OSError) as err:
        print(f"graphene-revivals: config error: {err}", file=sys.stderr)
        return 1
    try:
        _COMMANDS[args.command](cfg, args.out)
    except (ValueError, OSError, ArithmeticError) as err:
        print(f"graphene-revivals: error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
