import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphene_revivals

from graphene_revivals import (E_CHARGE, BroadeningModel, FieldParams,
                               PacketSpec, SpectrumModel, TimeGrid,
                               autocorrelation, build_weights, convert,
                               currents, damped, eigenspinor, hermite_function,
                               observables, timescales,
                               total_current_both_valleys)
from graphene_revivals import _format, cli
from graphene_revivals.cli import (RunConfig, build_parser, config_from_output,
                                   main, parse_config_lines, resolve_config)

from oracles import autocorr_lines_by_value, current_lines_by_value


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    header = []
    columns = None
    rows = []
    trailer = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                (header if columns is None else trailer).append(line)
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return header, columns, rows, trailer


def test_timescales_csv(tmp_path):
    out = tmp_path / "ts.csv"
    assert run_cli("timescales", "--B", "10", "--n0", "15", "--out", str(out)) == 0
    _, columns, rows, _ = read_csv(out)
    assert columns == ["quantity", "value"]
    table = {k: float(v) for k, v in rows}
    model = SpectrumModel(FieldParams(10.0))
    ts = timescales(model, 15)
    assert table["t_cl_fs"] == pytest.approx(
        convert(ts.t_classical, "s", "fs"), rel=1e-12, abs=0)
    assert table["t_r_ps"] == pytest.approx(convert(ts.t_revival, "s", "ps"), rel=1e-12, abs=0)
    assert table["t_zb_fs"] == pytest.approx(
        convert(ts.t_zitterbewegung, "s", "fs"), rel=1e-12, abs=0)
    assert table["t_zb_gap_fs"] == pytest.approx(table["t_zb_fs"], rel=1e-12, abs=0)
    assert table["ratio_t_r_over_t_cl"] == pytest.approx(60.0, rel=1e-12, abs=0)
    assert table["ratio_t_r_over_t_zb"] == pytest.approx(3600.0, rel=1e-12, abs=0)
    assert table["hbar_omega_mev"] == pytest.approx(114.73551817528936, rel=1e-12, abs=0)
    assert table["magnetic_length_nm"] == pytest.approx(8.113026294469947, rel=1e-12, abs=0)


def test_timescales_field_scaling(tmp_path):
    vals = {}
    for b in ("10", "40"):
        out = tmp_path / f"ts{b}.csv"
        assert run_cli("timescales", "--B", b, "--n0", "15", "--out", str(out)) == 0
        _, _, rows, _ = read_csv(out)
        vals[b] = {k: float(v) for k, v in rows}
    for key in ("t_cl_fs", "t_r_ps", "t_zb_fs"):
        assert vals["40"][key] == pytest.approx(vals["10"][key] / 2, rel=1e-12, abs=0)


def test_timescales_json(tmp_path):
    out = tmp_path / "ts.json"
    assert run_cli("timescales", "--n0", "11", "--format", "json",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "timescales"
    assert doc["config"]["n0"] == 11
    table = {k: v for k, v in doc["rows"]}
    assert table["ratio_t_r_over_t_cl"] == pytest.approx(44.0, rel=1e-12, abs=0)


def test_autocorr_first_row_is_unity(tmp_path):
    out = tmp_path / "a.csv"
    assert run_cli("autocorr", "--n0", "15", "--sigma", "3",
                   "--samples", "512", "--out", str(out)) == 0
    _, columns, rows, _ = read_csv(out)
    assert columns == ["t_fs", "re_A", "im_A", "abs2_A"]
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][3]) == pytest.approx(1.0, abs=1e-12)
    assert len(rows) == 512


def test_repeated_runs_byte_identical(tmp_path):
    args = ["autocorr", "--n0", "15", "--sigma", "3", "--samples", "700"]
    f1, f2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run_cli(*args, "--out", str(f1)) == 0
    assert run_cli(*args, "--out", str(f2)) == 0
    assert f1.read_bytes() == f2.read_bytes()


def run_python(*argv, **env):
    """Run python with this package importable; extra env vars as keywords."""
    src = str(Path(graphene_revivals.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), **env)
    return subprocess.run([sys.executable, *argv], env=env, check=True,
                          capture_output=True, text=True, timeout=120)


def test_output_independent_of_blas_threads(tmp_path):
    # at 40001 samples a BLAS matrix-vector product splits the level sum by
    # thread; the kernel's contraction must not
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"a{threads}.csv"
        run_python("-m", "graphene_revivals.cli", "autocorr", "--samples", "40001",
                   "--out", str(out), OPENBLAS_NUM_THREADS=threads)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# the package's modules, each after the modules it imports
SUBMODULES = ("constants", "_kernels", "_format", "spectrum", "wavepacket",
              "observables", "eigenstates", "analysis", "cli")


def test_import_loads_no_test_only_dependency(tmp_path):
    # the package and its CLI run on numpy alone; a test-only module
    # imported from src/ would also slow every cold start. The package
    # import itself loads neither numpy nor a submodule. After a CSV run
    # neither fractions nor decimal is loaded either: the formatter takes its
    # powers of ten from int arithmetic, and they add about 2.4 ms per start;
    # nor is numpy.ma, which np.unique on integers imports (about 12.8 ms).
    # No CSV run loads json or eigenstates, and the short tables of
    # timescales and gamma-scan do not load the formatter
    run = "import sys; from graphene_revivals.cli import main; main([%r, '--out', sys.argv[1]])"
    unwanted_by_run = {"fractions", "decimal", "_decimal", "_pydecimal", "numpy.ma",
                       "json", "graphene_revivals.eigenstates"}
    for code, unwanted in (
            ("import sys, graphene_revivals",
             {"numpy", *(f"graphene_revivals.{m}" for m in SUBMODULES)}),
            ("import sys, graphene_revivals, graphene_revivals.cli",
             {"scipy", "mpmath", "hypothesis", "numba"}),
            (run % "autocorr", unwanted_by_run),
            (run % "timescales", {*unwanted_by_run, "graphene_revivals._format"}),
            (run % "gamma-scan", {*unwanted_by_run, "graphene_revivals._format"})):
        done = run_python("-c", code + "; print(*sorted(sys.modules))",
                          str(tmp_path / "a.csv"))
        loaded = {part for name in done.stdout.split()
                  for part in (name, name.partition(".")[0])}
        assert not loaded & unwanted, code


def test_package_names_resolve_on_access():
    # each submodule, reached first through the package attribute, and each
    # public name resolve to the object their module holds, and a star import
    # binds every public name; the package stores none of the public names
    code = f"""
import pkgutil, sys
import graphene_revivals as gr
assert {{m.name for m in pkgutil.iter_modules(gr.__path__)}} == set({SUBMODULES!r})
for name in {SUBMODULES!r}:
    assert name not in vars(gr), name
    assert getattr(gr, name) is sys.modules["graphene_revivals." + name], name
modules = [sys.modules["graphene_revivals." + name] for name in {SUBMODULES!r}]
assert gr.__all__[-1] == "__version__"
for name in gr.__all__[:-1]:
    value = getattr(gr, name)
    assert any(vars(m).get(name) is value for m in modules), name
    assert name not in vars(gr) and name in dir(gr), name
star = {{}}
exec("from graphene_revivals import *", star)
assert all(star[name] is getattr(gr, name) for name in gr.__all__)
print("ok")
"""
    assert run_python("-c", code).stdout == "ok\n"
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        getattr(graphene_revivals, "nonexistent")


@pytest.mark.parametrize("argv", [
    ("autocorr", "--bands", "pos"),
    ("autocorr", "--bands", "neg"),
    ("autocorr", "--bands", "both"),
    ("current",),
    ("current", "--bands", "neg", "--valleys", "both", "--si-current",
     "--gamma-mev", "1.5"),
    ("current", "--bands", "both", "--gamma-mev", "0.7"),
])
def test_cells_match_scalar_definition(tmp_path, monkeypatch, argv):
    # every data cell equals the per-value definition, bit for bit:
    # abs2_A is the scalar abs(v) ** 2, every number is formatted .17g;
    # and the bytes do not depend on how many rows the writer formats at once
    out = tmp_path / "s.csv"
    written = set()
    for block_rows in (1, 7, 300):
        monkeypatch.setattr(_format, "_BLOCK_ROWS", block_rows)
        assert run_cli(*argv, "--samples", "300", "--out", str(out)) == 0
        written.add(out.read_bytes())
    assert len(written) == 1
    got = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
    assert len(got) == 300
    assert got == _data_lines_by_value(out)


@pytest.mark.parametrize("command", ["autocorr", "current"])
def test_cells_match_scalar_definition_at_the_block_size(tmp_path, command):
    # at the writer's own block size, 20000 rows are nine full blocks through
    # the one reused slab and a ragged tenth, and every cell is still the
    # per-value definition
    samples = 20000
    assert samples // _format._BLOCK_ROWS == 9 and samples % _format._BLOCK_ROWS
    out = tmp_path / "s.csv"
    assert run_cli(command, "--samples", str(samples), "--out", str(out)) == 0
    got = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
    assert len(got) == samples
    assert got == _data_lines_by_value(out)


def _data_lines_by_value(out):
    """The data lines of a written autocorr or current CSV, built from its
    config echo one value at a time."""
    command, cfg = config_from_output(str(out))
    model, grid = SpectrumModel(cfg.field_params()), cfg.time_grid()
    table = build_weights(cfg.packet_spec())
    t_fs = convert(grid.times, "s", "fs")
    if command == "autocorr":
        return autocorr_lines_by_value(t_fs, autocorrelation(table, model, grid).values)
    jx, jy = (damped(j, convert(cfg.gamma_mev, "meV", "J"))
              for j in currents(table, model, grid))
    if cfg.valleys == "both":
        jx, jy = total_current_both_valleys(jx), total_current_both_valleys(jy)
    scale = E_CHARGE * cfg.v_f if cfg.si_current else 1.0
    return current_lines_by_value(t_fs, jx.values, jy.values, scale)


@pytest.mark.parametrize("argv", [
    ("timescales",),
    ("gamma-scan", "--gamma-mev", "4"),       # absent stations: empty peak cells
    ("gamma-scan", "--gamma-mev", "1e300"),   # every broadened row absent
])
def test_csv_cells_match_json_rows(tmp_path, argv):
    # a CSV cell is its JSON cell written .17g, or as it is for a string
    csv, js = tmp_path / "t.csv", tmp_path / "t.json"
    assert run_cli(*argv, "--out", str(csv)) == 0
    assert run_cli(*argv, "--format", "json", "--out", str(js)) == 0
    _, columns, rows, _ = read_csv(csv)
    doc = json.loads(js.read_text())
    assert doc["columns"] == columns
    assert rows == [[v if isinstance(v, str) else "%.17g" % v for v in row]
                    for row in doc["rows"]]
    assert any("" in row for row in rows) == (argv[0] == "gamma-scan")


@pytest.mark.parametrize("argv", [
    ("timescales",),
    ("timescales", "--bands", "both"),
    ("autocorr", "--samples", "300"),
    ("autocorr", "--bands", "both", "--samples", "300"),
    ("current", "--samples", "300"),
    ("current", "--bands", "both", "--samples", "300", "--si-current"),
    ("gamma-scan", "--gamma-mev", "4"),
    ("gamma-scan", "--bands", "both", "--gamma-mev", "4"),
])
def test_json_text_is_the_indented_sorted_dump(tmp_path, argv):
    # the streamed document has the bytes of one json.dumps of itself
    out = tmp_path / "o.json"
    assert run_cli(*argv, "--format", "json", "--out", str(out)) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_json_writer_does_not_hold_its_text(tmp_path):
    # JSON keeps its rows but streams their text: the traced peak stays well
    # below the size of the file, which a whole dumped string alone would reach
    out = tmp_path / "a.json"
    tracemalloc.start()
    try:
        assert run_cli("autocorr", "--samples", "20000", "--format", "json",
                       "--out", str(out)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * out.stat().st_size, (peak, out.stat().st_size)


def test_csv_writer_holds_one_block(tmp_path, monkeypatch):
    # the CSV writer keeps one block of rows alive, not the whole table: its
    # traced peak must not grow with the row count (10x the rows would add
    # about 11 MB if it held the table; small blocks keep the test short)
    monkeypatch.setattr(_format, "_BLOCK_ROWS", 1024)
    rng = np.random.default_rng(7)
    peaks = []
    for n in (4_000, 40_000):
        columns = list(rng.random((4, n)))
        tracemalloc.start()
        try:
            cli._render(RunConfig(), "autocorr", ["a", "b", "c", "d"], columns,
                        out=str(tmp_path / "t.csv"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1e6, peaks


def test_tiny_sigma_runs_without_warning():
    # (n - n0)^2 / (2 sigma) overflows to inf; exp(-inf) is the right weight 0,
    # and the overflow is no reason to print anything
    done = run_python("-m", "graphene_revivals.cli", "autocorr", "--sigma", "5e-324",
                      "--samples", "4")
    assert done.stderr == ""
    _, re_a, _, abs2_a = done.stdout.splitlines()[-1].split(",")
    assert re_a == abs2_a == "1"  # one level: |A(t)|^2 = 1


def test_current_two_band_jx_zero(tmp_path):
    out = tmp_path / "c.csv"
    assert run_cli("current", "--bands", "both", "--samples", "512",
                   "--t-end-fs", "100", "--out", str(out)) == 0
    _, columns, rows, _ = read_csv(out)
    assert columns == ["t_fs", "jx_evf", "jy_evf"]
    assert all(r[1] == "0" for r in rows)
    assert float(rows[0][2]) == 0.0


def test_valley_doubling_in_cli(tmp_path):
    base = ["current", "--bands", "pos", "--samples", "256", "--t-end-fs", "500"]
    f1, f2 = tmp_path / "k1.csv", tmp_path / "k2.csv"
    assert run_cli(*base, "--valleys", "k1", "--out", str(f1)) == 0
    assert run_cli(*base, "--valleys", "both", "--out", str(f2)) == 0
    _, _, rows1, _ = read_csv(f1)
    _, _, rows2, _ = read_csv(f2)
    for r1, r2 in zip(rows1, rows2):
        assert float(r2[1]) == pytest.approx(2 * float(r1[1]), rel=1e-15, abs=0)
        assert float(r2[2]) == pytest.approx(2 * float(r1[2]), rel=1e-15, abs=0)


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nn0 = 11\nsigma = 40.0\nsamples = 128\n")
    out = tmp_path / "o.csv"
    # flag wins over the config file
    assert run_cli("autocorr", "--config", str(cfg), "--n0", "15",
                   "--out", str(out)) == 0
    command, parsed = config_from_output(str(out))
    assert command == "autocorr"
    assert parsed.n0 == 15
    assert parsed.sigma == 40.0
    assert parsed.samples == 128


def test_parse_echo_rerun_closure(tmp_path):
    f1, f2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    assert run_cli("autocorr", "--n0", "15", "--sigma", "3", "--samples", "300",
                   "--out", str(f1)) == 0
    command, cfg = config_from_output(str(f1))
    # write the echoed config back out and rerun from it alone
    cfg_file = tmp_path / "echo.cfg"
    lines = [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {str(v).lower()}"
             if isinstance(v, bool) else f"{k} = {v}"
             for k, v in cfg.__dict__.items()]
    cfg_file.write_text("\n".join(lines) + "\n")
    assert run_cli(command, "--config", str(cfg_file), "--out", str(f2)) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_json_output_round_trip(tmp_path):
    out = tmp_path / "a.json"
    assert run_cli("autocorr", "--samples", "64", "--format", "json",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["columns"] == ["t_fs", "re_A", "im_A", "abs2_A"]
    assert doc["rows"][0][3] == pytest.approx(1.0, abs=1e-12)
    command, cfg = config_from_output(str(out))
    assert command == "autocorr" and cfg.samples == 64


@pytest.mark.parametrize("key, value", [
    ("foo", 1), ("B", "ten"), ("sigma", "3"), ("n0", True),
    ("bands", "pos # a comment in a config file, not in JSON"),
])
def test_json_echo_setting_of_another_type_raises(tmp_path, key, value):
    # a JSON echo is read by the config file's key and type rules, checked on
    # the JSON values themselves: no unknown key, no string for a number, no
    # bool for a count, and no '#' comment inside a string
    out = tmp_path / "a.json"
    assert run_cli("autocorr", "--samples", "64", "--format", "json",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    doc["config"][key] = value
    out.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=key):
        config_from_output(str(out))


_FLAG_SAMPLES = {"B": "7.5", "n0": "11", "sigma": "40.0", "bands": "both",
                 "gamma_mev": "0.7", "gap_mev": "2.5", "t_end_fs": "1234.5",
                 "samples": "300", "valleys": "both", "format": "json",
                 "si_current": "true"}


@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig) if f.metadata])
def test_flag_and_config_line_agree(tmp_path, name):
    # every flag-carrying setting means the same as a flag and as a config
    # line (a new flag fails here until it has a sample value above)
    text = _FLAG_SAMPLES[name]
    flag = ["--" + name.replace("_", "-")] + ([] if text == "true" else [text])
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{name} = {text}\n")
    parser = build_parser()
    by_flag = resolve_config(parser.parse_args(["current", *flag]))
    by_line = resolve_config(parser.parse_args(["current", "--config", str(cfg_file)]))
    assert by_flag == by_line
    assert getattr(by_flag, name) != getattr(RunConfig(), name)


def test_bad_flag_value_exits_1(tmp_path, capsys):
    assert run_cli("autocorr", "--B", "-3") == 1
    assert run_cli("autocorr", "--bands", "pos", "--sigma", "-1") == 1


@pytest.mark.parametrize("argv", [
    ("current", "--bands", "foo"),
    ("autocorr", "--samples", "abc"),
    ("autocorr", "--volts", "3"),
    (),
])
def test_usage_error_exits_1(tmp_path, argv):
    out = tmp_path / "x.csv"
    assert run_cli(*argv, "--out", str(out)) == 1
    assert not out.exists()


def test_help_exits_0(capsys):
    assert run_cli("current", "--help") == 0
    assert "usage" in capsys.readouterr().out


@pytest.mark.parametrize("line", ["samples = abc", "si_current = maybe",
                                  "gamma_steps = 0", "gamma_steps = 1"])
def test_bad_config_value_is_config_error(tmp_path, capsys, line):
    cfg, out = tmp_path / "bad.cfg", tmp_path / "x.csv"
    cfg.write_text(line + "\n")
    assert run_cli("gamma-scan", "--config", str(cfg), "--out", str(out)) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_exits_1(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("voltage = 3\n")
    assert run_cli("autocorr", "--config", str(cfg)) == 1


def test_missing_config_file_exits_1(tmp_path):
    assert run_cli("autocorr", "--config", str(tmp_path / "nope.cfg")) == 1


def test_runtime_error_exits_2(tmp_path):
    # grid far too short for revival classification
    assert run_cli("gamma-scan", "--t-end-fs", "100", "--samples", "64",
                   "--out", str(tmp_path / "x.csv")) == 2


@pytest.mark.parametrize("argv, code", [
    (("timescales",), 0),
    (("autocorr", "--samples", "300"), 0),
    (("autocorr", "--samples", "1"), 1),
    (("gamma-scan", "--t-end-fs", "100", "--samples", "64"), 2),
])
def test_module_run_exits_with_mains_code_and_frozen_objects(tmp_path, capsys, argv, code):
    # `python -m graphene_revivals.cli` writes what main() writes in-process and
    # exits with its code, after gc.freeze() has put the objects left by the run
    # out of the shutdown collections' reach; main() itself freezes nothing
    frozen = gc.get_freeze_count()
    here = tmp_path / "here.csv"
    assert main([*argv, "--out", str(here)]) == code
    assert gc.get_freeze_count() == frozen
    there = tmp_path / "there.csv"
    done = run_python(
        "-c", "import gc, runpy\n"
              "try:\n"
              "    runpy.run_module('graphene_revivals.cli', run_name='__main__')\n"
              "except SystemExit as stop:\n"
              "    print(stop.code, gc.get_freeze_count())",
        *argv, "--out", str(there))
    exit_code, frozen_there = map(int, done.stdout.split())
    assert exit_code == code
    assert frozen_there > 0
    assert done.stderr == capsys.readouterr().err
    assert there.exists() == here.exists()
    if code == 0:
        assert there.read_bytes() == here.read_bytes()


def test_gamma_scan_zero_range(tmp_path):
    out = tmp_path / "g.csv"
    assert run_cli("gamma-scan", "--gamma-mev", "0", "--samples", "8192",
                   "--out", str(out)) == 0
    _, columns, rows, trailer = read_csv(out)
    assert columns[0] == "gamma_mev"
    assert len(rows) == 1
    assert float(rows[0][0]) == 0.0
    # unbroadened single-band current: half and full stations survive
    row = dict(zip(columns, rows[0]))
    assert row["half_class"] == "full"
    assert row["full_class"] == "full"
    assert any("gamma_max_mev" in t for t in trailer)


def test_gamma_scan_json_trailer(tmp_path):
    csv, js = tmp_path / "g.csv", tmp_path / "g.json"
    assert run_cli("gamma-scan", "--out", str(csv)) == 0
    assert run_cli("gamma-scan", "--format", "json", "--out", str(js)) == 0
    _, columns, rows, trailer = read_csv(csv)
    doc = json.loads(js.read_text())
    assert doc["trailer"] == [t.removeprefix("# ") for t in trailer]
    assert doc["trailer"][0].startswith("gamma_max_mev = ")
    assert doc["columns"] == columns and len(doc["rows"]) == len(rows)
    command, cfg = config_from_output(str(js))
    assert command == "gamma-scan"
    assert cfg == replace(config_from_output(str(csv))[1], format="json")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_gamma_scan_si_current_scales_only_the_peaks(tmp_path, fmt):
    # --si-current prints each peak in A m, as current does its columns, and
    # classifies on the same series: the class cells and the trailer stay
    plain, si = tmp_path / f"g.{fmt}", tmp_path / f"si.{fmt}"
    argv = ("gamma-scan", "--gamma-mev", "2", "--bands", "both", "--format", fmt)
    assert run_cli(*argv, "--out", str(plain)) == 0
    assert run_cli(*argv, "--si-current", "--out", str(si)) == 0

    def table(path):  # columns, rows, trailer
        if fmt == "csv":
            return read_csv(path)[1:]
        doc = json.loads(path.read_text())
        return doc["columns"], doc["rows"], doc["trailer"]

    columns, rows, trailer = table(plain)
    _, si_rows, si_trailer = table(si)
    assert si_trailer == trailer and len(si_rows) == len(rows)
    scale = E_CHARGE * RunConfig().v_f
    peaks = 0
    for row, si_row in zip(rows, si_rows):
        for name, cell, si_cell in zip(columns, row, si_row):
            if name.endswith("_peak") and cell != "":
                assert float(si_cell) == scale * float(cell)
                peaks += 1
            else:
                assert si_cell == cell
    assert peaks > 0


def test_gamma_scan_monotone_visibility(tmp_path):
    out = tmp_path / "g2.csv"
    assert run_cli("gamma-scan", "--gamma-mev", "2.0", "--samples", "8192",
                   "--out", str(out)) == 0
    _, columns, rows, _ = read_csv(out)
    rank = {"full": 2, "fractional": 1, "absent": 0}
    for tag in ("quarter", "half", "three_quarter", "full"):
        col = columns.index(f"{tag}_class")
        grades = [rank[r[col]] for r in rows]
        assert grades == sorted(grades, reverse=True)


def test_parse_config_lines_reports_location():
    with pytest.raises(ValueError, match="cfg:2"):
        parse_config_lines(["n0 = 15", "what is this"], source="cfg")


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(bands="positive")  # flag vocabulary only
    with pytest.raises(ValueError):
        RunConfig(valleys="k2")
    with pytest.raises(ValueError):
        RunConfig(format="xml")
    with pytest.raises(ValueError):
        RunConfig(samples=1)
    # B, v_F and the gap have no rule of RunConfig's own: FieldParams checks them
    # -1e-310 meV is -0.0 J: 0.0 <= -0.0 holds, the sign bit is refused
    for setting in ({"B": math.nan}, {"B": 0.0}, {"v_f": -1.0}, {"v_f": math.inf},
                    {"gap_mev": -1.0}, {"gap_mev": -0.0}, {"gap_mev": -1e-310}):
        with pytest.raises(ValueError, match="B = |gap energy"):
            RunConfig(**setting)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_echo_with_a_non_finite_field_raises(tmp_path, fmt):
    out = tmp_path / f"a.{fmt}"
    assert run_cli("autocorr", "--samples", "64", "--format", fmt, "--out", str(out)) == 0
    text = out.read_text()
    echo = ('"B": 10.0', '"B": NaN') if fmt == "json" else ("# B = 10.0", "# B = nan")
    assert echo[0] in text
    out.write_text(text.replace(*echo))
    with pytest.raises(ValueError, match="B = nan T"):
        config_from_output(str(out))


@pytest.mark.parametrize("doc", [
    {"config": {"n0": 15}},
    {"command": "autocorr"},
    {"command": "autocorr", "config": [["n0", 15]]},
    {"command": ["autocorr"], "config": {"n0": 15}},
])
def test_malformed_json_echo_raises(tmp_path, doc):
    out = tmp_path / "a.json"
    out.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="missing run header") as err:
        config_from_output(str(out))
    assert str(err.value).startswith(str(out))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_echo_of_an_unknown_command_raises(tmp_path, fmt):
    out = tmp_path / f"a.{fmt}"
    assert run_cli("autocorr", "--samples", "64", "--format", fmt, "--out", str(out)) == 0
    text = out.read_text()
    header = (('"command": "autocorr"', '"command": "bogus"') if fmt == "json"
              else ("# graphene-revivals autocorr", "# graphene-revivals bogus"))
    assert header[0] in text
    out.write_text(text.replace(*header))
    with pytest.raises(ValueError, match="unknown command 'bogus'") as err:
        config_from_output(str(out))
    assert str(err.value).startswith(str(out))


@pytest.mark.parametrize("argv", [
    ("current", "--gamma-mev", "nan"),
    ("current", "--t-end-fs", "nan"),
    ("current", "--gap-mev", "nan"),
    ("gamma-scan", "--gamma-mev", "nan"),
    ("autocorr", "--sigma", "inf"),
    ("autocorr", "--B", "inf"),
])
def test_non_finite_flag_is_config_error(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert run_cli(*argv, "--out", str(out)) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_phase_precision_is_config_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run_cli("current", "--t-end-fs", "1e300", "--samples", "4",
                   "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "limit" in err
    assert not out.exists()


def test_underflowed_grid_end_is_config_error(tmp_path, capsys):
    # 1e-320 fs is 0.0 s once converted: the grid is empty before any run
    out = tmp_path / "x.csv"
    assert run_cli("autocorr", "--t-end-fs", "1e-320", "--samples", "4",
                   "--out", str(out)) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, bands, code", [
    ("autocorr", "pos", 0), ("current", "pos", 0),
    ("autocorr", "both", 1), ("current", "both", 1), ("timescales", "both", 0),
])
def test_phase_precheck_counts_two_band_sum_frequencies(tmp_path, capsys,
                                                         command, bands, code):
    # E_27/hbar * 3e-3 s rounds by 6.0e-4 rad, below the 1e-3 rad limit; the
    # two-band bound 2 E_27/hbar doubles it past the limit, for every command
    # that sums a series; timescales sums none, so no phase refuses it
    out = tmp_path / "x.csv"
    assert run_cli(command, "--bands", bands, "--B", "10", "--n0", "15",
                   "--sigma", "3", "--t-end-fs", "3e12", "--samples", "4",
                   "--out", str(out)) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("graphene-revivals: config error: phases up to 5.435e+12 rad")
        assert "past the 0.001 rad limit" in err
        assert not out.exists()


def test_unallocatable_level_window_is_config_error(tmp_path, capsys, monkeypatch):
    # --sigma 1e14 asks for a ~2.9 GiB level window; a stand-in raises the
    # failed allocation at the default sigma, so nothing large is attempted
    # even where the patch does not reach
    def refuse(spec):
        raise MemoryError("Unable to allocate 2.9 GiB for an array")

    monkeypatch.setattr(cli, "build_weights", refuse)
    out = tmp_path / "x.csv"
    assert run_cli("autocorr", "--samples", "4", "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        "graphene-revivals: config error: Unable to allocate 2.9 GiB for an array\n")
    assert not out.exists()


def test_allocation_failure_in_command_is_runtime_error(tmp_path, capsys, monkeypatch):
    # a grid too large to allocate fails inside the command; a stand-in raises
    # the failed allocation, so nothing large is attempted
    def refuse(table, model, grid):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(cli, "autocorrelation", refuse)
    out = tmp_path / "x.csv"
    assert run_cli("autocorr", "--samples", "4", "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        "graphene-revivals: error: Unable to allocate 745. GiB for an array\n")
    assert not out.exists()


def test_gamma_scan_underflowed_rows_are_absent(tmp_path):
    # at this width the envelope is exactly zero for every t > 0
    ref, out = tmp_path / "g0.csv", tmp_path / "g.csv"
    assert run_cli("gamma-scan", "--out", str(ref)) == 0
    assert run_cli("gamma-scan", "--gamma-mev", "1e300", "--out", str(out)) == 0
    _, _, ref_rows, ref_trailer = read_csv(ref)
    _, _, rows, trailer = read_csv(out)
    assert len(rows) == 6
    assert rows[0] == ref_rows[0]
    assert trailer == ref_trailer
    for row in rows[1:]:
        assert row[1:] == ["absent", ""] * 4


@pytest.mark.parametrize("make", [
    lambda: FieldParams(math.inf),
    lambda: FieldParams(10.0, v_fermi=math.nan),
    lambda: FieldParams(10.0, gap_energy=math.nan),
    lambda: PacketSpec(15, math.inf),
    lambda: PacketSpec(15, math.nan),
    lambda: TimeGrid(0.0, math.nan),
    lambda: TimeGrid(0.0, math.inf),
    lambda: TimeGrid(math.nan, 1.0),
    lambda: BroadeningModel(math.nan),
    lambda: BroadeningModel(math.inf),
    lambda: RunConfig(gamma_mev=math.nan),
    lambda: RunConfig(gap_mev=math.inf),
    lambda: RunConfig(t_end_fs=math.nan),
])
def test_non_finite_constructor_raises(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("make", [
    lambda n: PacketSpec(n, 3.0),
    lambda n: TimeGrid(0.0, 1e-12, n),
    lambda n: hermite_function(n, 0.3),
    lambda n: eigenspinor(n, +1, "K1", 0.3),
    lambda n: RunConfig(gamma_steps=n),
    lambda n: RunConfig(samples=n),
    lambda n: RunConfig(n0=n),
])
def test_non_integer_count_raises(make):
    # a level index, a sample count, a Hermite order or a step count is
    # checked where it enters, not where it first reaches a range or a slice;
    # a bool is a numbers.Integral but no count
    make(np.int64(15))
    for bad in (15.5, 15.0, True, False):
        with pytest.raises(ValueError):
            make(bad)


@pytest.mark.parametrize("bands", ["pos", "neg", "both"])
def test_gamma_scan_kernel_calls_independent_of_steps(tmp_path, monkeypatch, bands):
    # broadening is a global envelope: one undamped series serves every width
    calls = []
    kernel = observables.trig_series

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(observables, "trig_series", counting)
    counts = {}
    for steps in (2, 6):
        cfg = tmp_path / f"steps{steps}.cfg"
        cfg.write_text(f"gamma_steps = {steps}\n")
        calls.clear()
        assert run_cli("gamma-scan", "--config", str(cfg), "--gamma-mev", "4",
                       "--bands", bands, "--out", str(tmp_path / "g.csv")) == 0
        counts[steps] = len(calls)
    # one series for the scan, one inside estimate_gamma_max
    assert counts[2] == counts[6] == 2


def test_gapped_timescales(tmp_path):
    # the gap enters E(n0) = sqrt(Delta^2 + n0 (hbar Omega)^2) and every period
    out = tmp_path / "ts.csv"
    assert run_cli("timescales", "--gap-mev", "445", "--out", str(out)) == 0
    table = {k: float(v) for k, v in read_csv(out)[2]}
    hbar_omega_mev = table["hbar_omega_mev"]
    energy_mev = math.hypot(445.0, hbar_omega_mev * math.sqrt(15))
    ratio = 4.0 * energy_mev ** 2 / hbar_omega_mev ** 2
    assert table["t_cl_fs"] == pytest.approx(395.14, abs=0.005)
    assert table["t_r_ps"] == pytest.approx(47.48, abs=0.005)
    assert table["t_zb_fs"] == 3.2881275974360498  # the old interband-only formula
    assert table["t_zb_gap_fs"] == table["t_zb_fs"]
    assert table["ratio_t_r_over_t_cl"] == pytest.approx(ratio, rel=1e-12, abs=0)
    assert table["ratio_t_r_over_t_zb"] == pytest.approx(ratio ** 2, rel=1e-12, abs=0)


@pytest.mark.parametrize("argv, config", [
    (("--gap-mev", "1e300"), None),  # E'' underflows to zero
    (("--gap-mev=-0.0",), None),     # a negative zero gap
    (("--gap-mev=-1e-310",), None),  # -0.0 J once converted
    (("--B", "1e-310"), None),       # e*B underflows to zero
    (("--B", "1e308"), None),        # hbar/(e*B) subnormal
    ((), "v_f = 1e-320\n"),          # hbar*Omega underflows to zero
    ((), "v_f = 1e300\nB = 1.0\n"),  # Omega * sqrt(n_max) overflows to inf
    # n0 above 2**52 is refused, so no level index rounds as a double; each
    # of these once escaped main() with its own exception
    (("--n0", str(2**53 + 1)), None),
    (("--n0", str(2**63)), None),
    (("--n0", str(2**64)), None),
    (("--n0", str(10**400)), None),
], ids=["gap-1e300", "gap--0.0", "gap--1e-310", "B-1e-310", "B-1e308", "v_f-1e-320", "v_f-1e300",
        "n0-2^53+1", "n0-2^63", "n0-2^64", "n0-10^400"])
def test_extreme_field_and_gap_are_config_errors(tmp_path, capsys, argv, config):
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv = ("--config", str(tmp_path / "run.cfg"))
    assert run_cli("timescales", *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("graphene-revivals: config error:")
    assert "Traceback" not in err


# main() is driven in-process, so any exception that escapes it fails the
# test. sigma stays <= 1e4: the level table holds about 77 sqrt(sigma)
# floats, and no term budget refuses a far wider one yet (README, "Known
# issues"). n0 costs nothing but is drawn at the 2**52 bound and past it too.
_EXTREMES = (5e-324, 1e-310, 1e300, math.nan, math.inf, -math.inf, -1.0, 0.0)


def _draw(ordinary, extremes=_EXTREMES):
    return st.one_of(ordinary, st.sampled_from(extremes))


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["timescales", "autocorr", "current"]),
       bands=st.sampled_from(["pos", "neg", "both"]),
       samples=st.integers(2, 64),
       n0=st.one_of(st.integers(-2, 5000), st.sampled_from(
           [10**7, 10**10, 2**52, 2**52 + 1, 2**63, 2**64, 10**400])),
       b=_draw(st.floats(0.1, 100.0)),
       sigma=_draw(st.floats(0.01, 1e4), tuple(x for x in _EXTREMES if x != 1e300)),
       gap_mev=_draw(st.floats(0.0, 1e3)),
       gamma_mev=_draw(st.floats(0.0, 10.0)),
       t_end_fs=_draw(st.floats(1.0, 1e5)),
       v_f=_draw(st.floats(1e4, 1e7)))
def test_main_exits_cleanly_on_any_input(tmp_path_factory, command, bands, samples, n0,
                                         b, sigma, gap_mev, gamma_mev, t_end_fs, v_f):
    config = tmp_path_factory.getbasetemp() / "main_property.cfg"
    config.write_text(f"v_f = {v_f!r}\n")
    argv = [command, "--config", str(config), "--bands", bands, f"--samples={samples}",
            f"--n0={n0}", f"--B={b!r}", f"--sigma={sigma!r}", f"--gap-mev={gap_mev!r}",
            f"--gamma-mev={gamma_mev!r}", f"--t-end-fs={t_end_fs!r}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("graphene-revivals: "), err.getvalue()
        return
    for line in out.getvalue().splitlines():
        if line.startswith("#"):
            continue
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue  # a column or quantity name
            assert math.isfinite(value), line
