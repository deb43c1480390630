"""The library workload: warm, in-process calls to the public API.

One pass makes these calls, with B and n0 from the workload parameters:

- autocorrelation of a localized packet (sigma 3) on a 40001-sample grid,
  and detect_revivals on its |A|^2;
- the same for a delocalized packet (n0 = 11, sigma = 40);
- current_two_band of a broadened two-band packet;
- current_single_band of the broadened one-band packet, and detect_revivals
  on its j_y. (On the two-band j_y, with its zitterbewegung wiggles, the
  O(N*P) peak walk takes about 4.6 s per call at this grid, which would
  leave too few passes per run to report a steady median.)
- estimate_gamma_max for one band and for both bands;
- eigenspinor at order 1e4 on 4001 points.

Run as a script it is the untraced child process of the benchmark:

    python3 perfbench/library.py PARAMS_JSON SECONDS ROWS_JSON RESULT_JSON

It imports the package, makes one warm-up pass, then repeats passes until
SECONDS have passed, with host-speed reference samples (reference.py) after
each pass. It writes each pass's wall time and reference samples, a digest
of each pass's results, the values the benchmark checks and the per-result
digests of the last pass to RESULT_JSON.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import numpy as np

import reference


def run_pass(gr, p: dict) -> dict:
    """One pass over the public API; returns every result by name."""
    field = gr.FieldParams(p["B"])
    model = gr.SpectrumModel(field)
    out = {}
    for tag, spec in (("localized", gr.PacketSpec(p["n0"], 3.0)),
                      ("delocalized", gr.PacketSpec(p["deloc_n0"], p["deloc_sigma"]))):
        scales = gr.timescales(model, spec.n0)
        grid = gr.TimeGrid(0.0, 1.1 * scales.t_revival, p["samples"])
        a = gr.autocorrelation(gr.build_weights(spec), model, grid)
        out[f"autocorr_{tag}"] = a
        out[f"revivals_{tag}"] = gr.detect_revivals(gr.abs_squared(a), scales)
    scales = gr.timescales(model, p["n0"])
    grid = out["autocorr_localized"].grid
    broadening = gr.BroadeningModel(gr.convert(p["gamma_mev"], "meV", "J"))
    both = gr.build_weights(gr.PacketSpec(p["n0"], 3.0, "both"))
    _, out["jy_two_band"] = gr.current_two_band(both, model, grid, broadening)
    one = gr.build_weights(gr.PacketSpec(p["n0"], 3.0))
    _, jy = gr.current_single_band(one, model, grid, +1, broadening)
    out["jy_one_band"] = jy
    out["revivals_broadened"] = gr.detect_revivals(jy, scales)
    out["gamma_max_one_band"] = gr.estimate_gamma_max(gr.PacketSpec(p["n0"], 3.0), field)
    out["gamma_max_both_bands"] = gr.estimate_gamma_max(
        gr.PacketSpec(p["n0"], 3.0, "both"), field)
    half = p["hermite_half_width"]
    xi = np.linspace(-half, half, p["hermite_points"])
    out["eigenspinor"] = gr.eigenspinor(p["hermite_order"], +1, "K1", xi)
    return out


def digests(results: dict) -> dict:
    """sha256 of each result's exact bytes (arrays) or repr (scalars, reports)."""
    out = {}
    for name, r in results.items():
        h = hashlib.sha256()
        if hasattr(r, "values"):  # ObservableSeries
            h.update(np.ascontiguousarray(r.values).tobytes())
        elif hasattr(r, "upper"):  # Eigenspinor
            h.update(r.upper.tobytes())
            h.update(r.lower.tobytes())
        else:
            h.update(repr(r).encode())
        out[name] = h.hexdigest()
    return out


def digest(results: dict) -> str:
    """One sha256 over all the per-result digests."""
    parts = digests(results)
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()


def check_values(results: dict, rows: list[int], p: dict) -> dict:
    """The values the benchmark recomputes, as exact floats."""
    a = results["autocorr_localized"]
    spinor = results["eigenspinor"]
    mid = spinor.lower.size // 2
    return {
        "t_end_s": a.grid.t_end,
        "autocorr": [[float(a.values[k].real), float(a.values[k].imag)] for k in rows],
        "jy_two_band": [float(results["jy_two_band"].values[k]) for k in rows],
        "jy_one_band": [float(results["jy_one_band"].values[k]) for k in rows],
        "classes": {tag: [st.classification for st in results[f"revivals_{tag}"].stations]
                    for tag in ("localized", "delocalized", "broadened")},
        "gamma_max_j": [results["gamma_max_one_band"], results["gamma_max_both_bands"]],
        "spinor_center": [float(spinor.upper[mid]), float(spinor.lower[mid])],
        "xi_center": float(np.linspace(-p["hermite_half_width"], p["hermite_half_width"],
                                       p["hermite_points"])[mid]),
    }


def main(argv: list[str]) -> int:
    params_path, seconds, rows_path, result_path = argv
    with open(params_path, encoding="utf-8") as fh:
        params = json.load(fh)
    with open(rows_path, encoding="utf-8") as fh:
        rows = json.load(fh)
    import graphene_revivals as gr

    results = run_pass(gr, params)  # warm-up: lazy set-up and caches
    checked = check_values(results, rows, params)
    doc = {"untraced": [], "digests_untraced": [digest(results)], "check": checked,
           "reference": []}
    start = time.perf_counter()
    while not doc["untraced"] or time.perf_counter() - start < float(seconds):
        t0 = time.perf_counter()
        results = run_pass(gr, params)
        doc["untraced"].append(time.perf_counter() - t0)
        doc["digests_untraced"].append(digest(results))
        doc["reference"].append(reference.sample_for(reference.SHARE * doc["untraced"][-1]))
    doc["result_digests"] = digests(results)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
