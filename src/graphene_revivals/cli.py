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
import gc
import math
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from ._kernels import phase_rounding
# eager, unlike json and _format: a span tracer patches only modules loaded before main
from .analysis import detect_revivals, estimate_gamma_max
from .constants import (E_CHARGE, FERMI_VELOCITY_DEFAULT, FieldParams, convert,
                        magnetic_length)
from .observables import (TimeGrid, abs_squared, autocorrelation, currents,
                          damped, max_frequency, total_current_both_valleys)
from .spectrum import SpectrumModel, timescales
from .wavepacket import PacketSpec, WeightTable, build_weights

_BANDS_FLAG = {"both": "both", "neg": "negative", "pos": "positive"}


def _flag(default, help_text: str, choices: tuple[str, ...] | None = None):
    """A RunConfig field that is also the flag --name (dashes for underscores)."""
    return field(default=default, metadata={"help": help_text, "choices": choices})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters (flag vocabulary, CLI units). A _flag field
    holds its flag's help text and allowed values; v_f and gamma_steps are config-file
    keys only. The records it builds (PacketSpec, FieldParams, TimeGrid) check the rest."""

    B: float = _flag(10.0, "magnetic field [T]")
    v_f: float = FERMI_VELOCITY_DEFAULT  # m/s
    n0: int = _flag(15, "central Landau level")
    sigma: float = _flag(3.0, "level-space width parameter")
    bands: str = _flag("pos", "band content", tuple(_BANDS_FLAG))
    gamma_mev: float = _flag(0.0, "level width [meV]; for gamma-scan: scan maximum")
    gap_mev: float = _flag(0.0, "gap [meV]")
    t_end_fs: float = _flag(0.0, "grid end [fs] (default: 1.1 * revival time)")
    samples: int = _flag(4096, "number of grid samples")
    valleys: str = _flag("k1", "one valley or the degeneracy-doubled total", ("k1", "both"))
    format: str = _flag("csv", "output format", ("csv", "json"))
    si_current: bool = _flag(False, "scale currents by e*v_F [A m]")
    gamma_steps: int = 6

    def __post_init__(self):
        for f in fields(self):
            allowed, value = f.metadata.get("choices"), getattr(self, f.name)
            if allowed and value not in allowed:
                raise ValueError(f"{f.name} must be {', '.join(allowed[:-1])} or "
                                 f"{allowed[-1]}, got {value!r}")
        for name in ("gamma_mev", "t_end_fs"):  # t_end_fs = 0: the default end
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not (isinstance(self.gamma_steps, numbers.Integral) and self.gamma_steps >= 2):
            raise ValueError("gamma_steps must be >= 2 to scan both ends of "
                             f"[0, gamma_mev], got {self.gamma_steps}")
        self.packet_spec()  # rejects n0 and sigma before any period is computed
        self.field_params()
        self.time_grid()

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


_FIELD_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}
_BOOL_TEXT = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _setting(where: str, key: str, value, text: bool = True):
    """Config key `key` as its field's type: parsed from a config line's text,
    or (text=False) a JSON value that has that type (an int passes as a float)."""
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ValueError(f"{where}: unknown config key {key!r}")
    with contextlib.suppress(KeyError, ValueError, OverflowError):
        if text:
            return _BOOL_TEXT[value.lower()] if kind is bool else kind(value)
        if type(value) is kind or kind is float and type(value) is int:
            return kind(value)
    raise ValueError(f"config key {key}: expected {kind.__name__}, got {value!r}")


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
        out[key] = _setting(f"{source}:{ln}", key, value.strip())
    return out


def config_from_output(path: str) -> tuple[str, RunConfig]:
    """Recover (command, RunConfig) from a written output file (csv or json)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        import json

        doc = json.loads(text)
        command, config = doc.get("command"), doc.get("config")
        if not (isinstance(command, str) and isinstance(config, dict)):
            raise ValueError(f"{path}: missing run header")
        values = {key: _setting(path, key, value, text=False) for key, value in config.items()}
    else:
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
        values = parse_config_lines(kv_lines, source=path)
    if command not in _COMMANDS:
        raise ValueError(f"{path}: unknown command {command!r}")
    return command, RunConfig(**values)


def _render(cfg: RunConfig, command: str, header: list[str], columns: list,
            trailer=(), out: str | None = None) -> None:
    """Config echo, a table and trailer lines as CSV or JSON, to out or stdout.

    A column is a float64 array or a short sequence of float and str cells.
    CSV writes strings as they are and every number with the bytes of
    '%.17g': a table of arrays block by block from _format.csv_blocks, so
    the writer holds one block of text, and the number cells of a short
    table as '%.17g' % v. JSON holds the rows and streams their text. Each
    branch imports json or _format itself, so a cold start that takes the
    other branches does not load them.
    """
    config = asdict(cfg)
    with (contextlib.nullcontext(sys.stdout) if out is None
          else open(out, "w", encoding="utf-8", newline="\n")) as fh:
        if cfg.format == "json":
            import json

            rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                              for c in columns)))
            doc = {"command": command, "config": config, "columns": header, "rows": rows}
            if trailer:
                doc["trailer"] = trailer
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
            return
        fh.write(f"# graphene-revivals {command}\n")
        fh.writelines(f"# {k} = {_format_value(v)}\n" for k, v in config.items())
        fh.write(",".join(header) + "\n")
        if all(isinstance(c, np.ndarray) for c in columns):
            from ._format import csv_blocks

            fh.writelines(csv_blocks(columns))
        else:
            fh.writelines(",".join(v if isinstance(v, str) else "%.17g" % v for v in row)
                          + "\n" for row in zip(*columns))
        fh.writelines(f"# {t}\n" for t in trailer)


# --- subcommands ------------------------------------------------------------

def cmd_timescales(cfg: RunConfig, model: SpectrumModel, table: WeightTable,
                   grid: TimeGrid, out: str | None) -> None:
    ts = timescales(model, cfg.n0)
    entries = [
        ("t_cl_fs", convert(ts.t_classical, "s", "fs")),
        ("t_r_ps", convert(ts.t_revival, "s", "ps")),
        ("t_zb_fs", convert(ts.t_zitterbewegung, "s", "fs")),
        ("t_zb_gap_fs", convert(ts.t_zitterbewegung, "s", "fs")),  # = t_zb_fs; perfbench checks it
        ("ratio_t_r_over_t_cl", ts.t_revival / ts.t_classical),
        ("ratio_t_r_over_t_zb", ts.t_revival / ts.t_zitterbewegung),
        ("hbar_omega_mev", convert(model.omega, "rad/s", "meV")),
        ("magnetic_length_nm", magnetic_length(model.params) * 1e9),
    ]
    _render(cfg, "timescales", ["quantity", "value"], list(zip(*entries)), out=out)


def cmd_autocorr(cfg: RunConfig, model: SpectrumModel, table: WeightTable,
                 grid: TimeGrid, out: str | None) -> None:
    series = autocorrelation(table, model, grid)
    columns = [convert(series.grid.times, "s", "fs"), series.values.real,
               series.values.imag, abs_squared(series).values]
    _render(cfg, "autocorr", ["t_fs", "re_A", "im_A", "abs2_A"], columns, out=out)


def _observed(cfg: RunConfig, series, gamma_mev: float):
    """Broaden one valley's current by gamma_mev, then apply the valley choice.
    At gamma_mev = 0 the envelope is 1 and the series is kept as it is."""
    if gamma_mev:
        series = damped(series, convert(gamma_mev, "meV", "J"))
    return total_current_both_valleys(series) if cfg.valleys == "both" else series


def _printed_current(cfg: RunConfig, value):
    """A current in units of e*v_F as printed: in A m under --si-current."""
    return E_CHARGE * cfg.v_f * value if cfg.si_current else value


def cmd_current(cfg: RunConfig, model: SpectrumModel, table: WeightTable,
                grid: TimeGrid, out: str | None) -> None:
    jx, jy = (_observed(cfg, j, cfg.gamma_mev) for j in currents(table, model, grid))
    columns = [convert(jx.grid.times, "s", "fs"),
               *(_printed_current(cfg, j.values) for j in (jx, jy))]
    _render(cfg, "current", ["t_fs", "jx_evf", "jy_evf"], columns, out=out)


def cmd_gamma_scan(cfg: RunConfig, model: SpectrumModel, table: WeightTable,
                   grid: TimeGrid, out: str | None) -> None:
    scales = timescales(model, cfg.n0)
    gammas = [0.0] if cfg.gamma_mev == 0.0 else np.linspace(
        0.0, cfg.gamma_mev, cfg.gamma_steps).tolist()
    header = ["gamma_mev"]
    for tag in ("quarter", "half", "three_quarter", "full"):
        header += [f"{tag}_class", f"{tag}_peak"]
    _, jy = currents(table, model, grid)
    rows = []
    for g in gammas:
        report = detect_revivals(_observed(cfg, jy, g), scales)
        row: list = [g]
        for st in report.stations:
            row.append(st.classification)
            row.append("" if st.peak is None else _printed_current(cfg, st.peak.value))
        rows.append(row)
    gamma_max = estimate_gamma_max(cfg.packet_spec(), model.params)
    trailer = [f"gamma_max_mev = {_format_value(convert(gamma_max, 'J', 'meV'))}"]
    _render(cfg, "gamma-scan", header, list(zip(*rows)), trailer=trailer, out=out)


# the subcommands, named once for build_parser and config_from_output
_COMMANDS = {"timescales": cmd_timescales, "autocorr": cmd_autocorr,
             "current": cmd_current, "gamma-scan": cmd_gamma_scan}


# --- argument parsing --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file ('#' comments)")
    common.add_argument("--out", help="output file (default: stdout)")
    for f in fields(RunConfig):
        kind = _FIELD_TYPES[f.name]
        if f.metadata:  # a _flag field
            common.add_argument("--" + f.name.replace("_", "-"), help=f.metadata["help"],
                                **({"action": "store_const", "const": True} if kind is bool
                                   else {"type": kind, "choices": f.metadata["choices"]}))

    parser = argparse.ArgumentParser(
        prog="graphene-revivals",
        description="Landau-level wave-packet dynamics in monolayer graphene")
    sub = parser.add_subparsers(dest="command", required=True)
    for (name, run), help_text in zip(_COMMANDS.items(), (
            "characteristic periods and derived quantities", "autocorrelation series",
            "electric-current series", "revival classification vs level width")):
        sub.add_parser(name, parents=[common], help=help_text).set_defaults(run=run)
    return parser


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
        model = SpectrumModel(cfg.field_params())
        table = build_weights(cfg.packet_spec())
        grid = cfg.time_grid()
        omega_max = max_frequency(table, model)
        if not math.isfinite(omega_max):
            raise ValueError("the packet's level frequencies overflow a double")
        if args.command != "timescales":  # the only command that sums no series
            phase_rounding(omega_max, grid.t_end)
    except (ValueError, OSError, MemoryError) as err:
        print(f"graphene-revivals: config error: {err}", file=sys.stderr)
        return 1
    try:
        args.run(cfg, model, table, grid, args.out)
    except (ValueError, OSError, ArithmeticError, MemoryError) as err:
        print(f"graphene-revivals: error: {err}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    """The process entry point (console script and -m): exit with main's code.
    gc.freeze() first moves every object left by the imports and the run out
    of the collector's reach, so the interpreter's shutdown collections skip
    them; reference counting still frees them as the modules are cleared.
    main() itself leaves the collector as it was."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
