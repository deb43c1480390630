"""Span tracing of the program from outside its source.

The traced child wraps the public entry point of each layer with a span
recorder (name, start, end, parent span, request id) and patches the
wrapper in wherever a module of the package holds the function by value,
for example observables.trig_series, cli.detect_revivals and the
cli._COMMANDS table. Spans stay in memory and are written out when the
child ends. The program's source is not touched.

    python3 perfbench/tracer.py cli T_SPAWN SPANS_JSON -- ARGV...
    python3 perfbench/tracer.py library T_SPAWN SPANS_JSON PARAMS_JSON SECONDS ROWS_JSON

T_SPAWN is the parent's time.perf_counter() just before it started the
child; on Linux that is the system-wide monotonic clock, so the startup span
runs from process spawn to the end of the package import.

The ``cli`` form runs cli.main(ARGV) once. The ``library`` form makes one
warm-up pass, then alternates untraced and traced passes of library.py in
the same process until SECONDS have passed.

summarize() turns one pass's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
import tracemalloc

LAYERS = ("startup", "cli", "wavepacket", "kernels", "observables", "analysis",
          "eigenstates")

# (span name, module under graphene_revivals, function name)
TARGETS = (
    ("cli.resolve_config", "cli", "resolve_config"),
    ("cli.command", "cli", "cmd_timescales"),
    ("cli.command", "cli", "cmd_autocorr"),
    ("cli.command", "cli", "cmd_current"),
    ("cli.command", "cli", "cmd_gamma_scan"),
    ("wavepacket.build_weights", "wavepacket", "build_weights"),
    ("kernels.trig_series", "_kernels", "trig_series"),
    ("kernels.hermite_sweep", "_kernels", "hermite_sweep"),
    ("observables.autocorrelation", "observables", "autocorrelation"),
    ("observables.current_single_band", "observables", "current_single_band"),
    ("observables.current_two_band", "observables", "current_two_band"),
    ("observables.total_current_both_valleys", "observables", "total_current_both_valleys"),
    ("observables.abs_squared", "observables", "abs_squared"),
    ("analysis.find_peaks", "analysis", "find_peaks"),
    ("analysis.detect_revivals", "analysis", "detect_revivals"),
    ("analysis.estimate_gamma_max", "analysis", "estimate_gamma_max"),
    ("analysis.criterion", "analysis", "default_gamma_criterion"),
    ("eigenstates.eigenspinor", "eigenstates", "eigenspinor"),
    ("eigenstates.hermite_function", "eigenstates", "hermite_function"),
)

SERIES_SPANS = ("observables.autocorrelation", "observables.current_single_band",
                "observables.current_two_band")

# Metrics that are counts: they must repeat exactly from pass to pass.
COUNTS = ("cli.output_bytes", "wavepacket.levels", "kernels.trig_series_calls",
          "kernels.terms", "kernels.peak_alloc_mb", "observables.kernel_calls_per_series",
          "analysis.find_peaks_calls", "analysis.find_peaks_samples",
          "analysis.peaks_found", "analysis.criterion_calls")


def _counts_build_weights(args, kwargs, result):
    return {"levels": result.n_max - result.n_min + 1}


def _counts_trig_series(args, kwargs, result):
    omegas = args[1] if len(args) > 1 else kwargs["omegas"]
    times = args[2] if len(args) > 2 else kwargs["times"]
    return {"terms": len(omegas) * len(times)}


def _counts_find_peaks(args, kwargs, result):
    series = args[0] if args else kwargs["series"]
    return {"samples": len(series.values), "peaks": len(result)}


_COUNTERS = {
    "wavepacket.build_weights": _counts_build_weights,
    "kernels.trig_series": _counts_trig_series,
    "analysis.find_peaks": _counts_find_peaks,
}


class Recorder:
    """In-memory spans: [name, parent index, request, start, end, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, self.request, start, end, None])

    def wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        track_alloc = name == "kernels.trig_series"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, parent, self.request, 0.0, 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if track_alloc:
                tracemalloc.start()
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            counts = counter(args, kwargs, result) if counter else {}
            if track_alloc:
                counts["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            span[5] = counts or None
            return result

        return traced


def install(rec: Recorder) -> list:
    """Patch wrappers in at every reference the package holds; returns the undo list."""
    mods = [m for n, m in list(sys.modules.items())
            if n == "graphene_revivals" or n.startswith("graphene_revivals.")]
    undo = []
    for name, modname, attr in TARGETS:
        module = sys.modules.get(f"graphene_revivals.{modname}")
        if module is None:  # the library workload never imports the CLI
            continue
        orig = getattr(module, attr)
        wrapper = rec.wrap(name, orig)
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, wrapper)
                elif isinstance(value, dict) and key.startswith("_"):
                    for k2, v2 in value.items():
                        if v2 is orig:
                            undo.append((value, k2, orig))
                            value[k2] = wrapper
    return undo


def restore(undo: list) -> None:
    for container, key, orig in reversed(undo):
        if isinstance(container, dict):
            container[key] = orig
        else:
            setattr(container, key, orig)


def summarize(span_lists: list[list], wall: float, output_bytes: int = 0) -> dict:
    """Per-layer metrics of one traced pass.

    span_lists holds one span list per process (or per in-process pass);
    parent indices are local to each list. A span's self time is its
    duration minus the durations of its direct children.
    """
    total: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    counts = {"levels": 0, "terms": 0, "samples": 0, "peaks": 0}
    peak_alloc = 0
    covered = 0.0
    kernel_calls_in_series = 0
    for spans in span_lists:
        child = [0.0] * len(spans)
        for name, parent, _, start, end, _ in spans:
            if parent is None:
                covered += end - start
            else:
                child[parent] += end - start
        for i, (name, parent, _, start, end, c) in enumerate(spans):
            dur = end - start
            own = dur - child[i]
            total[name] = total.get(name, 0.0) + dur
            self_by_name[name] = self_by_name.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            layer_self[name.split(".", 1)[0]] += own
            for k, v in (c or {}).items():
                if k == "peak_alloc_bytes":
                    peak_alloc = max(peak_alloc, v)
                else:
                    counts[k] += v
            if name == "kernels.trig_series":
                p = parent
                while p is not None and spans[p][0] not in SERIES_SPANS:
                    p = spans[p][1]
                kernel_calls_in_series += p is not None
    render = self_by_name.get("cli.command", 0.0)
    trig = total.get("kernels.trig_series", 0.0)
    n_series = sum(calls.get(n, 0) for n in SERIES_SPANS)
    m = {
        "startup.import_s": total.get("startup.import", 0.0),
        "cli.resolve_config_s": total.get("cli.resolve_config", 0.0),
        "cli.render_self_s": render,
        "cli.self_s": layer_self["cli"],
        "cli.output_bytes": output_bytes,
        "cli.output_mb_per_s": output_bytes / 1e6 / render if render > 0 else 0.0,
        "wavepacket.build_weights_s": total.get("wavepacket.build_weights", 0.0),
        "wavepacket.levels": counts["levels"],
        "kernels.trig_series_s": trig,
        "kernels.trig_series_calls": calls.get("kernels.trig_series", 0),
        "kernels.terms": counts["terms"],
        "kernels.terms_per_s": counts["terms"] / trig if trig > 0 else 0.0,
        "kernels.peak_alloc_mb": peak_alloc / 1e6,
        "kernels.hermite_sweep_s": total.get("kernels.hermite_sweep", 0.0),
        "observables.self_s": layer_self["observables"],
        "observables.kernel_calls_per_series":
            kernel_calls_in_series / n_series if n_series else 0.0,
        "analysis.find_peaks_s": total.get("analysis.find_peaks", 0.0),
        "analysis.find_peaks_calls": calls.get("analysis.find_peaks", 0),
        "analysis.find_peaks_samples": counts["samples"],
        "analysis.peaks_found": counts["peaks"],
        "analysis.detect_revivals_s": total.get("analysis.detect_revivals", 0.0),
        "analysis.estimate_gamma_max_s": total.get("analysis.estimate_gamma_max", 0.0),
        "analysis.criterion_calls": calls.get("analysis.criterion", 0),
        "analysis.self_s": layer_self["analysis"],
        "eigenstates.eigenspinor_s": total.get("eigenstates.eigenspinor", 0.0),
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = layer_self[layer] / wall
    m["trace.wall_s"] = wall
    m["trace.unaccounted_share"] = (wall - covered) / wall
    return m


def combine(passes: list[dict]) -> tuple[dict, list[str]]:
    """Median over traced passes; counts must repeat exactly (else listed)."""
    out, unsteady = {}, []
    for key in passes[0]:
        values = [p[key] for p in passes]
        if key in COUNTS:
            out[key] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(key)
        else:
            out[key] = statistics.median(values)
    return out, unsteady


def _cli_child(t_spawn: float, spans_path: str, argv: list[str]) -> int:
    rec = Recorder()
    rec.request = os.getpid()  # one process per CLI request
    from graphene_revivals import cli
    rec.add("startup.import", t_spawn, time.perf_counter())
    install(rec)
    rc = rec.wrap("cli.main", cli.main)(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": rec.spans, "rc": rc}, fh)
    return rc


def _library_child(t_spawn: float, spans_path: str, params_path: str,
                   seconds: float, rows_path: str) -> int:
    import graphene_revivals as gr
    import_s = time.perf_counter() - t_spawn
    import library
    with open(params_path, encoding="utf-8") as fh:
        params = json.load(fh)
    with open(rows_path, encoding="utf-8") as fh:
        rows = json.load(fh)
    results = library.run_pass(gr, params)  # warm-up, as in the untraced child
    doc = {"import_s": import_s, "untraced": [], "traced": [], "passes": [],
           "digests_untraced": [library.digest(results)], "digests_traced": [],
           "check": library.check_values(results, rows, params)}
    start = time.perf_counter()
    while not doc["traced"] or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        results = library.run_pass(gr, params)
        doc["untraced"].append(time.perf_counter() - t0)
        doc["digests_untraced"].append(library.digest(results))
        rec = Recorder()
        rec.request = len(doc["passes"])
        undo = install(rec)
        t0 = time.perf_counter()
        results = library.run_pass(gr, params)
        doc["traced"].append(time.perf_counter() - t0)
        restore(undo)
        doc["passes"].append(rec.spans)
        doc["digests_traced"].append(library.digest(results))
    doc["result_digests"] = library.digests(results)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


def main(argv: list[str]) -> int:
    kind, t_spawn, spans_path, *rest = argv
    if kind == "cli":
        return _cli_child(float(t_spawn), spans_path, rest[1:])
    return _library_child(float(t_spawn), spans_path, rest[0], float(rest[1]), rest[2])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
