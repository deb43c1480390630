"""The package API that the benchmark in perfbench/ calls.

perfbench/tracer.py wraps each TARGETS entry by name, and perfbench/library.py
calls the public functions positionally. Renaming or deleting one of them, or
changing a positional signature, breaks traced runs or the library workload;
these tests catch that here. They read perfbench/ and change nothing there.
"""

import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphene_revivals as gr
import graphene_revivals.cli  # noqa: F401  (checks.py reads gr.cli)

from oracles import truncation_half_width

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# every packet a workload builds: sigma 3 at n0 15 (one and two bands), sigma
# 400 at n0 1950-2050 (two bands) and the library's delocalized (11, 40)
WORKLOAD_PACKETS = ({(15, 3.0, "positive"), (15, 3.0, "both"), (11, 40.0, "positive")}
                    | {(n0, 400.0, "both") for n0 in range(1950, 2051)})


def perfbench_module(name: str):
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        return importlib.import_module(name)


def test_tracer_targets_are_callable():
    tracer = perfbench_module("tracer")
    for span, modname, attr in tracer.TARGETS:
        module = importlib.import_module(f"graphene_revivals.{modname}")
        assert callable(getattr(module, attr, None)), (span, modname, attr)


def test_tracer_counts_kernel_terms_from_positional_arguments():
    # the tracer reads omegas and times at positions 1 and 2 of trig_series
    tracer = perfbench_module("tracer")
    w, om, t = np.ones(7), np.linspace(1.0, 2.0, 7), np.linspace(0.0, 1.0, 11)
    result = gr._kernels.trig_series(w, om, t, (0, 1))
    assert tracer._counts_trig_series((w, om, t, (0, 1)), {}, result) == {
        "terms": len(om) * len(t)}


@pytest.mark.parametrize("argv, levels, terms", [
    (["current", "--bands", "both", "--sigma", "400", "--n0", "2000", "--B", "10",
      "--samples", "500"], 287, 286000),
    (["autocorr"], 25, 102400),
    (["timescales"], 25, 0),
    (["gamma-scan", "--gamma-mev", "4"], 50, 1058328),  # + estimate_gamma_max's table
])
def test_traced_cli_run_builds_one_table(tmp_path, argv, levels, terms):
    # a traced run as perfbench's CLI child makes it, in this process
    tracer = perfbench_module("tracer")
    rec = tracer.Recorder()
    undo = tracer.install(rec)
    try:
        assert gr.cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    finally:
        tracer.restore(undo)
    metrics = tracer.summarize([rec.spans], 1.0)  # the wall only scales the shares
    assert metrics["wavepacket.levels"] == levels
    assert metrics["kernels.terms"] == terms
    # the subparser hands main the patched cmd_*, so the command is traced once
    assert [s[0] for s in rec.spans].count("cli.command") == 1
    assert metrics["cli.render_self_s"] > 0


def test_library_pass_runs():
    library = perfbench_module("library")
    params = {"B": 10.0, "n0": 15, "samples": 4001, "gamma_mev": 0.7,
              "deloc_n0": 11, "deloc_sigma": 40.0, "hermite_order": 100,
              "hermite_points": 4001, "hermite_half_width": 150.0}
    results = library.run_pass(gr, params)
    assert len(results) == 10
    assert len(library.digests(results)) == 10
    checked = library.check_values(results, [0, 1, 4000], params)
    assert all(len(classes) == 4 for classes in checked["classes"].values())


# a perfbench library child in a fresh process: one warm-up pass, then two
# traced passes; prints each pass's trig_series peaks
_TRACED_LIBRARY_PASSES = """
import json, sys
sys.path.insert(0, sys.argv[1])
import graphene_revivals as gr
import library, tracer
params = json.loads(sys.argv[2])
library.run_pass(gr, params)
peaks = []
for _ in range(2):
    rec = tracer.Recorder()
    undo = tracer.install(rec)
    library.run_pass(gr, params)
    tracer.restore(undo)
    peaks.append([s[5]["peak_alloc_bytes"] for s in rec.spans if s[0] == "kernels.trig_series"])
print(json.dumps(peaks))
"""


def test_traced_library_passes_repeat_the_kernel_peaks():
    # perfbench counts kernels.peak_alloc_mb as a count that must repeat from
    # pass to pass, so the first traced pass of a new process must see the
    # same tracemalloc peak in every trig_series call as the next one
    params = {"B": 10.0, "n0": 15, "samples": 4001, "gamma_mev": 0.7,
              "deloc_n0": 11, "deloc_sigma": 40.0, "hermite_order": 100,
              "hermite_points": 4001, "hermite_half_width": 150.0}
    src = str(Path(gr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _TRACED_LIBRARY_PASSES, str(PERFBENCH),
                           json.dumps(params)], env=env, check=True, capture_output=True,
                          text=True, timeout=120)
    first, second = json.loads(done.stdout)
    assert len(first) == 6  # the kernel calls of one pass
    assert first == second


@pytest.mark.parametrize("workload", ["default-mix", "long-grid", "wide-band"])
def test_workload_outputs_pass_the_benchmark_checks(tmp_path, workload):
    # the checks a benchmark run makes on each output: config echo round-trip
    # and values against perfbench's own direct sums
    checks = perfbench_module("checks")
    for k, inv in enumerate(perfbench_module("workloads").generate(workload, 1)["invocations"]):
        out = tmp_path / f"{k}.csv"
        assert gr.cli.main([*inv.argv, "--out", str(out)]) == 0
        dev = checks.check_cli_output(inv.argv, str(out), random.Random(1), gr)
        assert dev.failures == [], (inv.argv, dev.failures)


def test_library_pass_values_pass_the_benchmark_checks():
    library, checks = perfbench_module("library"), perfbench_module("checks")
    params = {"B": 10.0, "n0": 15, "samples": 4001, "gamma_mev": 0.7,
              "deloc_n0": 11, "deloc_sigma": 40.0, "hermite_order": 100,
              "hermite_points": 4001, "hermite_half_width": 150.0}
    rows = [0, 1, 2000, 4000]
    checked = library.check_values(library.run_pass(gr, params), rows, params)
    assert checks.check_library(params, checked, rows, gr).failures == []


def test_workload_level_ranges_match_the_exact_oracle():
    # checks.py builds its reference sums over gr.truncation_range, so a range
    # defect would move the reference with the program; pin it here instead
    workloads = perfbench_module("workloads")
    for seed in range(50):
        for name in workloads.NAMES:
            w = workloads.generate(name, seed)
            if "library" in w:
                p = w["library"]
                built = {(p["n0"], 3.0, "positive"), (p["n0"], 3.0, "both"),
                         (p["deloc_n0"], p["deloc_sigma"], "positive")}
            else:
                built = {(inv.n0, inv.sigma, inv.bands) for inv in w["invocations"]}
            assert built <= WORKLOAD_PACKETS, (name, seed, built - WORKLOAD_PACKETS)
    for n0, sigma, bands in sorted(WORKLOAD_PACKETS):
        k = truncation_half_width(n0, sigma, gr.wavepacket.TAIL_TOLERANCE)
        assert gr.truncation_range(gr.PacketSpec(n0, sigma, bands)) == \
            (max(0, n0 - k), n0 + k), (n0, sigma, bands)
