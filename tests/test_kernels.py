import math
import tracemalloc

import numpy as np
import pytest

from graphene_revivals import PacketSpec, SpectrumModel, _kernels, build_weights, observables
from graphene_revivals.cli import RunConfig

from oracles import exact_trig_sums


def test_trig_series_shape_validation():
    with pytest.raises(ValueError):
        _kernels.trig_series(np.ones(3), np.ones(4), np.linspace(0, 1, 5))


def test_hermite_sweep_rejects_negative_order():
    with pytest.raises(ValueError):
        _kernels.hermite_sweep(-1, np.zeros(3))


@pytest.mark.parametrize("n, xi", [(0, 0.37), (30, 0.37), (754, 38.6)])
def test_hermite_sweep_scalar_matches_one_element_array(n, xi):
    # a scalar xi stays a scalar and gets the array path's bits, also past
    # a rescale (754, 38.6)
    for scalar, array in zip(_kernels.hermite_sweep(n, xi),
                             _kernels.hermite_sweep(n, np.array([xi]))):
        assert np.ndim(scalar) == 0
        assert scalar.tobytes() == array[0].tobytes()


def test_phase_rounding_bound_arithmetic():
    eps = np.finfo(np.float64).eps
    assert _kernels.phase_rounding(1e15, 1e-11) == eps * (1e15 * 1e-11)
    t_limit = _kernels.PHASE_ROUNDING_LIMIT / (eps * 1e15)
    _kernels.phase_rounding(1e15, 0.5 * t_limit)
    for t in (2.0 * t_limit, 1e300, math.inf, math.nan):
        with pytest.raises(ValueError, match="limit"):
            _kernels.phase_rounding(1e15, t)


def test_trig_series_refuses_phases_without_correct_digits():
    with pytest.raises(ValueError, match="limit"):
        _kernels.trig_series(np.ones(2), np.array([1e3, -1e15]),
                             np.array([0.0, 1e300]))


def _wide_band_series_inputs():
    """Weights, (difference, sum) frequencies and times of the wide-band run
    current --bands both --n0 2000 --sigma 400 --samples 25000 (B = 10 T)."""
    cfg = RunConfig(B=10.0, n0=2000, sigma=400.0, bands="both", samples=25000)
    model = SpectrumModel(cfg.field_params())
    table = build_weights(cfg.packet_spec())
    om = model.omega * np.sqrt(table.levels.astype(np.float64))
    return table.offdiag, (om[1:] - om[:-1], om[1:] + om[:-1]), cfg.time_grid().times


def test_trig_series_error_model_against_exact_sums():
    # |err_k| <= eps * (max|om| * max|t| + L) * sum|w| against the exact sum
    # at the same float inputs, on both frequency sets of the wide-band run
    weights, frequency_sets, times = _wide_band_series_inputs()
    idx = np.sort(np.random.default_rng(9).choice(times.size, 16, replace=False))
    t = times[idx]
    eps = np.finfo(np.float64).eps
    for om in frequency_sets:
        bound = eps * (np.abs(om).max() * np.abs(times).max() + om.size) \
            * np.abs(weights).sum()
        exact = exact_trig_sums(weights, om, t)
        got = _kernels.trig_series(weights, om, t, np.cos, np.sin)
        for g, e in zip(got, exact):
            assert np.abs(g - e).max() <= bound


@pytest.mark.parametrize("trigs", [(np.sin,), (np.cos, np.sin)])
def test_trig_series_holds_one_phase_table_at_a_time(trigs):
    rng = np.random.default_rng(3)
    n_t, n_l = 2000, 50
    weights, omegas = rng.random(n_l), rng.random(n_l) * 1e3
    times = np.linspace(0.0, 1.0, n_t)
    table_bytes = n_t * n_l * 8
    tracemalloc.start()
    try:
        _kernels.trig_series(weights, omegas, times, *trigs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * table_bytes


def test_series_request_only_the_functions_they_use(monkeypatch, model10):
    requests = []
    kernel = observables.trig_series

    def recording(weights, omegas, times, *trigs):
        requests.append(trigs)
        return kernel(weights, omegas, times, *trigs)

    monkeypatch.setattr(observables, "trig_series", recording)
    grid = observables.TimeGrid(0.0, 1e-12, 64)

    def requested(call, bands):
        requests.clear()
        call(build_weights(PacketSpec(15, 3.0, bands)), model10, grid)
        return requests[:]

    assert requested(observables.currents, "both") == [(np.sin,), (np.sin,)]
    assert requested(observables.autocorrelation, "both") == [(np.cos,)]
    for bands in ("positive", "negative"):
        assert requested(observables.currents, bands) == [(np.cos, np.sin)]
        assert requested(observables.autocorrelation, bands) == [(np.cos, np.sin)]
