"""Benchmark of graphene-revivals: end-to-end metrics and a traced per-layer breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It runs the package from the src/ directory of the checkout that holds this
file (PYTHONPATH), as one client in a closed loop: each invocation starts
after the previous one has ended, all on one CPU (the lowest-numbered one
it may use). It writes only under .perfbench_out/ in that checkout.
Workloads (workloads.py): default-mix, long-grid, wide-band (CLI
subprocesses) and library (warm in-process API calls in one child).

--trace 0 measures end to end with no tracing, for S seconds of passes:
  setup_s      median wall time of cold `python -c "import graphene_revivals"`
  wall_s       median wall time of one pass over the workload
  terms_per_s  sum(output samples x populated levels) / wall_s
  peak_rss_mb  median over passes of the largest child max-RSS (os.wait4)
The three timings are reported at the reference host speed (reference.py),
from reference samples that run no package code: setup_s is the measured
median times the factor from a cold `python -c "import numpy"` after each
cold import, and wall_s the median over passes of each pass's time times
the factor from a fixed numpy-and-Python task run right after it. The
measured medians and the effective factors are in the report.

--trace 1 alternates untraced and traced passes (tracer.py) for S seconds
and reports the per-layer metrics: median self times, exact counts, each
layer's share of the traced wall, the tracing overhead and the part of the
wall no span covers.

On one CPU OpenBLAS runs one thread. In both modes every output is hashed
and must be byte-identical across passes, between traced and untraced
runs, and on a rerun of one CLI invocation on all CPUs at the default BLAS
thread count (the library pass, rerun so, must pass the checks; its
differing results are listed, not counted); seed-chosen rows are
recomputed by direct sums (checks.py); and the config echo must
round-trip. Invocations that exit non-zero, fail a check or change hash
count as failed.

The last line of stdout is the result JSON; the line before it is the full
report (machine facts, seed, the argv of every run, per-pass numbers,
check diagnostics), also written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The host's vCPUs change speed independently of each other, by up to half
# within seconds, so the reference samples (reference.py) only track the
# program's speed when both run on the same CPU. Every timed process runs on
# MEASURE_CPU; only the BLAS-thread reruns use all CPUs. Pinned before numpy
# is imported, so that its BLAS starts one thread here too.
ALL_CPUS = frozenset(os.sched_getaffinity(0))
MEASURE_CPU = min(ALL_CPUS)
os.sched_setaffinity(0, {MEASURE_CPU})

import checks  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PY = sys.executable
SETUP_REPS = 11
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "terms_per_s": "1/s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_mb_per_s", "MB/s"), ("_per_s", "1/s"), ("_mb", "MB"),
                         ("_bytes", "bytes"), ("_share", "share"), ("_per_series", "ratio"),
                         ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def machine_facts() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(ALL_CPUS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "measure_cpu": MEASURE_CPU,
        "platform": platform.platform(),
    }


def sha256(path: Path) -> str | None:
    if not path.is_file():
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def summary(values: list[float]) -> dict:
    """Median, quartiles (n >= 4), extremes and the sample count."""
    out = {"n": len(values), "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        out["p25"], out["p75"] = q[0], q[2]
    return out


class Runner:
    """Spawns child processes and keeps a record of every program invocation."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
        self.records: list[dict] = []

    def spawn(self, cmd: list[str], all_cpus: bool = False) -> dict:
        """Run one child to completion: exit code, wall time, max RSS, stderr tail.

        The child inherits the benchmark's one CPU, or gets all CPUs (and so
        the default BLAS thread count) with `all_cpus`."""
        err_path = self.run_dir / "stderr.txt"
        widen = (lambda: os.sched_setaffinity(0, ALL_CPUS)) if all_cpus else None
        with open(err_path, "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, preexec_fn=widen,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            tail = err.read()[-2000:].decode("utf-8", "replace")
        return {"rc": proc.returncode, "wall_s": wall,
                "maxrss_mb": usage.ru_maxrss / 1024.0, "stderr": tail}

    def traced_spawn(self, kind: str, spans: Path, args: list[str]) -> dict:
        t_spawn = time.perf_counter()
        return self.spawn([PY, str(HERE / "tracer.py"), kind, repr(t_spawn), str(spans),
                           *args])

    def record(self, result: dict, **tags) -> dict:
        result.update(tags)
        if result["rc"] != 0:
            print(f"perfbench: {tags} exited {result['rc']}: {result['stderr']}",
                  file=sys.stderr)
        self.records.append(result)
        return result


def cold_import(runner: Runner, setup: dict, reps: int = 1) -> None:
    """Time `reps` cold package imports into setup["walls"] (setup_s samples),
    each followed by a cold start of the reference (setup["ref"])."""
    for _ in range(reps):
        for cmd, into in (("import graphene_revivals", "walls"),
                          (reference.STARTUP_COMMAND, "ref")):
            r = runner.spawn([PY, "-c", cmd])
            if r["rc"] != 0:
                raise RuntimeError(f"{cmd!r} failed: {r['stderr']}")
            setup[into].append(r["wall_s"])


# --- CLI workloads -----------------------------------------------------------

def cli_pass(runner: Runner, invs, mode: str, k: int, all_cpus: bool = False,
             only: int | None = None) -> tuple[float, list[dict]]:
    """One pass (or one invocation, `only`) over the CLI invocations."""
    recs = []
    t0 = time.perf_counter()
    for i, inv in enumerate(invs):
        if only is not None and i != only:
            continue
        out = runner.run_dir / f"inv{i}-{mode}.out"
        if mode == "traced":
            spans = runner.run_dir / f"inv{i}-spans.json"
            r = runner.traced_spawn("cli", spans, ["--", *inv.argv, "--out", str(out)])
        else:
            r = runner.spawn([PY, "-m", "graphene_revivals.cli", *inv.argv, "--out", str(out)],
                             all_cpus)
        recs.append(runner.record(r, inv=i, mode=mode, argv=list(inv.argv), out=str(out),
                                  **{"pass": k}))
    wall = time.perf_counter() - t0
    for r in recs:
        r["sha256"] = sha256(Path(r["out"]))
    return wall, recs


def check_cli(runner: Runner, wl: dict, gr, rng: random.Random) -> dict:
    """Oracle and round-trip checks on each invocation's untraced output."""
    results = {}
    for i, inv in enumerate(wl["invocations"]):
        path = runner.run_dir / f"inv{i}-untraced.out"
        try:
            dev = checks.check_cli_output(inv.argv, str(path), rng, gr)
            failures, worst = dev.failures, dev.worst_abs
            share = dev.worst_share_of_tol
        except (OSError, ValueError, IndexError, KeyError) as err:
            failures, worst, share = [f"unreadable output: {err!r}"], None, None
        results[i] = {"sha256": sha256(path), "failures": failures[:10],
                      "worst_abs_dev": worst, "worst_dev_share_of_tol": share}
    return results


def run_cli(runner: Runner, wl: dict, args, gr, rng: random.Random, report: dict,
            setup: dict, ref: list[float]) -> dict:
    invs = wl["invocations"]
    terms = sum(inv.series_samples * levels(gr, inv.n0, inv.sigma, inv.bands)
                for inv in invs)
    walls, rss, traced_walls, layer_passes = [], [], [], []
    start = time.perf_counter()
    k = 0
    while not walls or time.perf_counter() - start < args.seconds:
        if not args.trace and len(setup["walls"]) < SETUP_REPS:
            cold_import(runner, setup)  # spread over the run, like the passes
        wall, recs = cli_pass(runner, invs, "untraced", k)
        walls.append(wall)
        rss.append(max(r["maxrss_mb"] for r in recs))
        if not args.trace:
            ref.append(reference.sample_for(reference.SHARE * wall))
        if args.trace:
            wall, recs = cli_pass(runner, invs, "traced", k)
            traced_walls.append(wall)
            spans = []
            for r in recs:
                if r["rc"] != 0:  # counted as failed; a child that died wrote no spans
                    continue
                with open(runner.run_dir / f"inv{r['inv']}-spans.json", encoding="utf-8") as fh:
                    spans.append(json.load(fh)["spans"])
            out_bytes = sum(os.path.getsize(r["out"]) for r in recs)
            layer_passes.append(tracer.summarize(spans, wall, out_bytes))
        k += 1
    blas_inv = rng.choice([i for i, inv in enumerate(invs) if inv.command != "timescales"])
    cli_pass(runner, invs, "all-cpus", k, all_cpus=True, only=blas_inv)
    report["checks"] = check_cli(runner, wl, gr, rng)
    return {"untraced": walls, "rss": rss, "terms": terms, "traced": traced_walls,
            "passes": layer_passes}


def count_failures(runner: Runner, checked: dict) -> tuple[int, int]:
    """(attempted, failed): exit code, hash against the first untraced pass, check."""
    ref = {}
    for r in runner.records:
        if r["mode"] == "untraced" and r["inv"] not in ref:
            ref[r["inv"]] = r["sha256"]
    failed = 0
    for r in runner.records:
        c = checked.get(r["inv"])
        bad_check = bool(r.get("check_failures")) or (
            c is not None and c["failures"] and r["sha256"] == c["sha256"])
        same = r["sha256"] == ref[r["inv"]] or not r.get("hash_checked", True)
        r["ok"] = r["rc"] == 0 and same and not bad_check
        failed += not r["ok"]
    return len(runner.records), failed


# --- library workload -----------------------------------------------------------

def run_library(runner: Runner, wl: dict, args, gr, rng: random.Random, report: dict,
                setup: dict, ref: list[float]) -> dict:
    p = wl["library"]
    rows = checks.check_rows(rng, p["samples"])
    params_path = runner.run_dir / "params.json"
    rows_path = runner.run_dir / "rows.json"
    params_path.write_text(json.dumps(p), encoding="utf-8")
    rows_path.write_text(json.dumps(rows), encoding="utf-8")

    def child(mode: str, seconds: float, all_cpus: bool = False) -> dict:
        result_path = runner.run_dir / f"library-{mode}.json"
        if mode == "traced":
            r = runner.traced_spawn("library", result_path,
                                    [str(params_path), str(seconds), str(rows_path)])
        else:
            r = runner.spawn([PY, str(HERE / "library.py"), str(params_path), str(seconds),
                              str(rows_path), str(result_path)], all_cpus)
        if r["rc"] != 0:
            print(f"perfbench: library {mode} child exited {r['rc']}: {r['stderr']}",
                  file=sys.stderr)
            return {"rc": r["rc"]}
        with open(result_path, encoding="utf-8") as fh:
            return {**json.load(fh), "maxrss_mb": r["maxrss_mb"], "rc": 0}

    if not args.trace:
        cold_import(runner, setup, SETUP_REPS // 2)  # the rest after the child
    main = child("traced" if args.trace else "untraced", args.seconds)
    if main["rc"] != 0:
        raise RuntimeError("the library child failed; see stderr")
    ref.extend(main.get("reference", []))
    rerun = child("all-cpus", 0.0, all_cpus=True)
    # one record per pass; the first untraced one (the warm-up) is the reference
    runner.records = [
        {"inv": 0, "mode": mode, "pass": k, "rc": 0, "sha256": d, "argv": ["library", mode]}
        for mode, ds in (("untraced", main["digests_untraced"]),
                         ("traced", main.get("digests_traced", [])))
        for k, d in enumerate(ds)]

    def check(res: dict) -> dict:
        try:
            dev = checks.check_library(p, res["check"], rows, gr)
        except (ValueError, KeyError, IndexError) as err:
            return {"failures": [f"unreadable check values: {err!r}"]}
        return {"failures": dev.failures[:10], "worst_abs_dev": dev.worst_abs,
                "worst_dev_share_of_tol": dev.worst_share_of_tol}

    report["checks"] = {0: {**check(main), "sha256": runner.records[0]["sha256"]}}
    report["check_rows"] = rows
    # The rerun at the default BLAS thread count must exit 0 and pass the
    # value checks. Its bytes are compared but not required to match: the
    # library leaves the BLAS thread count to its caller (ROADMAP item 2 pins
    # it in the CLI, whose reruns must match byte for byte), and a
    # matrix-vector product split over threads may round its last bit
    # differently.
    rerun_check = check(rerun) if rerun["rc"] == 0 else {"failures": []}
    report["check_all_cpus"] = rerun_check
    report["all_cpus_differing_results"] = sorted(
        k for k, v in main["result_digests"].items()
        if rerun.get("result_digests", {}).get(k) != v)
    runner.records.append({"inv": 0, "mode": "all-cpus", "pass": 0, "rc": rerun["rc"],
                           "sha256": rerun.get("digests_untraced", [None])[-1],
                           "argv": ["library", "all-cpus"], "hash_checked": False,
                           "check_failures": rerun_check["failures"]})
    passes = []
    for spans, wall in zip(main.get("passes", []), main.get("traced", [])):
        m = tracer.summarize([spans], wall)
        m["startup.import_s"] = main["import_s"]  # not part of any pass
        passes.append(m)
    return {"untraced": main["untraced"], "rss": [main["maxrss_mb"]],
            "terms": library_terms(gr, p), "traced": main.get("traced", []), "passes": passes}


def levels(gr, n0: int, sigma: float, bands: str = "positive") -> int:
    n_min, n_max = gr.truncation_range(gr.PacketSpec(n0, sigma, bands))
    return n_max - n_min + 1


def library_terms(gr, p: dict) -> int:
    """Series samples x populated levels of one library pass."""
    local = levels(gr, p["n0"], 3.0)
    deloc = levels(gr, p["deloc_n0"], p["deloc_sigma"])
    # autocorr x2, two-band and one-band currents, one series per gamma_max estimate
    return p["samples"] * (local + deloc + 2 * local) + 40001 * 2 * local


# --- entry point -------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "graphene_revivals" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'graphene_revivals'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import graphene_revivals as gr
    import graphene_revivals.cli  # noqa: F401  (config round-trip helpers)

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(run_dir)
    wl = workloads.generate(args.workload, args.seed)
    rng = random.Random(f"checks:{args.workload}:{args.seed}")
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_facts(),
              "loadavg_start": os.getloadavg(), "closed_loop_clients": 1}
    if "invocations" in wl:
        report["argv"] = [["graphene-revivals", *inv.argv] for inv in wl["invocations"]]
    else:
        report["library_params"] = wl["library"]

    setup: dict = {"walls": [], "ref": []}
    if not args.trace:
        cold_import(runner, {"walls": [], "ref": []})  # compiles the bytecode once; not timed
    ref: list[list[float]] = []  # the reference samples after each untraced pass
    run = run_cli if "invocations" in wl else run_library
    measured = run(runner, wl, args, gr, rng, report, setup, ref)
    if not args.trace:
        cold_import(runner, setup, SETUP_REPS - len(setup["walls"]))
    attempted, failed = count_failures(runner, report["checks"])
    report["terms_per_pass"] = measured["terms"]
    report["pass_walls_s"] = measured["untraced"]
    report["pass_peak_rss_mb"] = measured["rss"]
    report["traced_pass_walls_s"] = measured["traced"]

    if args.trace:
        layer, unsteady = tracer.combine(measured["passes"])
        layer["trace.overhead_s"] = (statistics.median(measured["traced"])
                                     - statistics.median(measured["untraced"]))
        report["unsteady_counts"] = unsteady
        failed += len(unsteady)  # a count that does not repeat is a failed check
        attempted += len(unsteady)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
        n = {k: len(measured["passes"]) for k in metrics}
    else:
        walls = measured["untraced"]
        at_ref = [w * reference.factor(g) for w, g in zip(walls, ref)]
        raw = {"setup_s": statistics.median(setup["walls"]), "wall_s": statistics.median(walls)}
        wall = statistics.median(at_ref)
        speed = {"setup_s": reference.factor(setup["ref"], reference.STARTUP_NOMINAL_S),
                 "wall_s": wall / raw["wall_s"]}
        values = {"setup_s": raw["setup_s"] * speed["setup_s"], "wall_s": wall,
                  "terms_per_s": measured["terms"] / wall,
                  "peak_rss_mb": statistics.median(measured["rss"])}
        speed["terms_per_s"] = speed["wall_s"]
        raw["terms_per_s"] = measured["terms"] / raw["wall_s"]
        report["setup_walls_s"] = setup["walls"]
        report["wall_s"] = summary(walls)
        report["pass_walls_at_reference_s"] = at_ref
        report["reference"] = {"nominal_s": reference.NOMINAL_S, "factor": speed,
                               "setup_samples": summary(setup["ref"]),
                               "pass_samples": summary([s for g in ref for s in g])}
        report["measured"] = raw
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        n = {"setup_s": len(setup["walls"]), "wall_s": len(walls), "terms_per_s": len(walls),
             "peak_rss_mb": len(measured["rss"])}

    report["loadavg_end"] = os.getloadavg()
    report["error_rate"] = failed / attempted
    report["runs"] = [{k: v for k, v in r.items() if k not in ("stderr", "out")}
                      for r in runner.records]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    shutil.rmtree(run_dir, ignore_errors=True)
    with open(OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1, default=str)
    for name, m in metrics.items():
        print(f"{args.workload:12s} {name:40s} {m['value']:.6g} {m['unit']} (n={n[name]})")
    for name, v in report.get("measured", {}).items():
        print(f"{args.workload:12s} {'measured ' + name:40s} {v:.6g} {E2E_UNITS[name]} "
              f"(host speed factor {report['reference']['factor'][name]:.4f})")
    print(f"{args.workload:12s} {'error_rate':40s} {failed}/{attempted}")
    if report.get("all_cpus_differing_results"):
        print(f"{args.workload:12s} {'rerun at default BLAS threads differs':40s} "
              f"{', '.join(report['all_cpus_differing_results'])} (last bits; not counted)")
    print(json.dumps(report, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
