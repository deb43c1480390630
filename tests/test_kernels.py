import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphene_revivals import PacketSpec, SpectrumModel, _kernels, build_weights, observables
from graphene_revivals.cli import RunConfig

from oracles import (exact_sums_of_phases, exact_trig_sums, hermite_log_bound,
                     hermite_sweep_by_allocation)


def test_trig_series_shape_validation():
    with pytest.raises(ValueError):
        _kernels.trig_series(np.ones(3), np.ones(4), np.linspace(0, 1, 5))


@pytest.mark.parametrize("weights, omegas, times", [
    (np.ones((1, 3)), np.ones(3), np.linspace(0, 1, 5)),
    (np.ones(3), np.ones((3, 1)), np.linspace(0, 1, 5)),
    (np.ones(3), np.ones(3), np.linspace(0, 1, 6).reshape(2, 3)),
    (np.ones(3), np.ones(3), 0.5),
    (1.0, 1.0, np.linspace(0, 1, 5)),
])
def test_trig_series_rejects_non_vector_input(weights, omegas, times):
    # np.outer would flatten a 2-D input and make a scalar time a 1-sample series
    with pytest.raises(ValueError, match="one-dimensional"):
        _kernels.trig_series(weights, omegas, times, np.cos)


def test_hermite_sweep_rejects_negative_order():
    with pytest.raises(ValueError):
        _kernels.hermite_sweep(-1, np.zeros(3))


@pytest.mark.parametrize("n, xi", [(0, 0.37), (30, 0.37), (754, 38.6), (30, -0.37), (3, -0.0)])
def test_hermite_sweep_scalar_matches_one_element_array(n, xi):
    # a scalar xi stays a scalar and gets the array path's bits, also past
    # a rescale (754, 38.6) and at a negative xi, where the parity applies
    for scalar, array in zip(_kernels.hermite_sweep(n, xi),
                             _kernels.hermite_sweep(n, np.array([xi]))):
        assert np.ndim(scalar) == 0
        assert scalar.tobytes() == array[0].tobytes()


def _straddling_clamp(n):
    # a grid over 1.6 times the clamp of |xi|, with the clamp, its float
    # neighbours and a far point, on both sides
    clamp = 2.0 * math.sqrt(n) + 40.0
    edge = np.array([clamp, np.nextafter(clamp, 0.0), np.nextafter(clamp, np.inf), 1e6])
    return np.concatenate((np.linspace(-1.6 * clamp, 1.6 * clamp, 401), edge, -edge))


# -0.0 and 0.0, repeated values, and negative points without a mirror
_SIGNED_GRID = np.array([-0.0, 0.0, 1.5, 1.5, -1.5, -2.25, -0.3, 0.3, -7.0, 0.0, -0.0, 4.0,
                         -5e-324, 1e-160, -1e-160])


@pytest.mark.parametrize("n, xi", [
    (10000, np.linspace(-150.0, 150.0, 4001)),
    (754, 38.6),
    *((n, xi) for n in (0, 1, 2, 3, 16, 17) for xi in (
        np.linspace(-3.0, 7.0, 333),
        _SIGNED_GRID,
        np.linspace(-5.0, 5.0, 60).reshape(6, 10),
        np.array([]),
    )),
    (200, np.linspace(-60.0, 60.0, 2001)),
    # p_5 and p_7 cancel to +0 here, and to +0 at -xi too, not to -0
    (5, np.array([2.0201828704560856, -2.0201828704560856])),
    (8, np.array([0.8162878828589646, -0.8162878828589646])),
    *((n, _straddling_clamp(n)) for n in (0, 1, 16, 17, 200, 10000)),
])
def test_hermite_sweep_bits_match_the_allocating_recurrence(n, xi):
    # the in-place sweep keeps every operation and its order, and a negative
    # xi takes the parity of |xi| with the recurrence's own signed zeros;
    # (10000, 4001 points over [-150, 150]) is the library benchmark's
    # eigenspinor grid, and the last six grids straddle the clamp of |xi|
    for got, expected in zip(_kernels.hermite_sweep(n, xi), hermite_sweep_by_allocation(n, xi)):
        assert np.shape(got) == np.shape(xi)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [3, 40, 10000])
@pytest.mark.parametrize("xi", [1e11, -1e11, 1e15, 1e155, 1.7e308, -1.7e308])
def test_hermite_sweep_is_a_signed_zero_far_out(n, xi):
    # the recurrence would overflow here (with a RuntimeWarning, which fails
    # the run) and return nan; both functions are below 2^-1075, so they are
    # the zero the recurrence gives where it does not overflow, (sign xi)^m * 0
    expected = [math.copysign(0.0, xi ** (m % 2)) for m in (n - 1, n)]
    for got in (_kernels.hermite_sweep(n, xi), _kernels.hermite_sweep(n, np.array([xi, 0.5]))):
        for value, want in zip(got, expected):
            assert np.ravel(value)[0].tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("orders", [
    range(5001),
    sorted({int(n) for n in np.geomspace(5000, 1e15, 400)}),
], ids=["0-5000", "geometric-to-1e15"])
def test_hermite_bound_clears_the_clamp(orders):
    # past |xi| = 2 sqrt(n) + 40 both functions are below 2^-1080, so the
    # sweep's clamp leaves every farther point the zero it gets at the clamp
    for n in orders:
        assert hermite_log_bound(n, 2.0 * math.sqrt(n) + 40.0) <= -1080.0 * math.log(2.0), n


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
    # and on their concatenation [sum, difference] (L = 572), the one series
    # of the two-band current
    weights, (d_om, s_om), times = _wide_band_series_inputs()
    idx = np.sort(np.random.default_rng(9).choice(times.size, 16, replace=False))
    t = times[idx]
    eps = np.finfo(np.float64).eps
    cases = ((weights, d_om), (weights, s_om),
             (np.tile(weights, 2), np.concatenate([s_om, d_om])))
    assert cases[2][1].size == 572
    for w, om in cases:
        bound = eps * (np.abs(om).max() * np.abs(times).max() + om.size) * np.abs(w).sum()
        exact = exact_trig_sums(w, om, t)
        got = _kernels.trig_series(w, om, t, np.cos, np.sin)
        for g, e in zip(got, exact):
            assert np.abs(g - e).max() <= bound


def test_trig_series_per_element_error_against_mpmath():
    # With one unit weight each value is the evaluated cos or sin of the float
    # phase itself (the product by 1 is exact), so the derived per-term bound
    # |f~ - f(x)| + eps/2 * |f(x)| <= 2 eps of the trig_series docstring
    # applies element by element. Phases: every magnitude up to 4.4e12 rad;
    # the doubles at and next to k*pi/2, where tan(x/2) is near 0, +-1 or a
    # pole; the doubles nearest the poles (2k+1)*pi of tan(x/2) and their
    # neighbours, where t is largest; and the derivation's worst cases at
    # tan(x/2) = 2 (sine), 1/2 and 2^26.5 (cosine), also shifted by 2*pi*k
    rng = np.random.default_rng(20)
    eps = np.finfo(np.float64).eps
    spread = 10.0 ** rng.uniform(-3.0, math.log10(4.4e12), 3000) * rng.choice([-1.0, 1.0], 3000)
    k = np.unique(np.rint(10.0 ** rng.uniform(0.0, math.log10(4.4e12 / (np.pi / 2)), 200)))
    quarter_turns = k * (np.pi / 2)
    near = [np.nextafter(quarter_turns, np.inf), np.nextafter(quarter_turns, -np.inf),
            quarter_turns * (1 + 1e-12), quarter_turns * (1 - 1e-12)]
    turns = np.unique(np.rint(10.0 ** rng.uniform(0.0, math.log10(4.4e12 / (2 * np.pi)), 200)))
    with mp.workdps(60):
        poles = np.array([float((2 * mp.mpf(float(j)) + 1) * mp.pi) for j in np.r_[0.0, turns]])
        worst = np.array([float(2 * (mp.atan(tan_h) + mp.mpf(float(j)) * mp.pi))
                          for tan_h in (2, 0.5, mp.mpf(2) ** 26.5) for j in np.r_[0.0, turns]])
    at_poles = [poles, np.nextafter(poles, np.inf), np.nextafter(poles, -np.inf)]
    phases = np.concatenate([[0.0, -0.0, 5e-324], spread, quarter_turns, *near, *at_poles, worst])
    got = _kernels.trig_series(np.ones(1), np.ones(1), phases, np.cos, np.sin)
    exact = exact_sums_of_phases(np.ones(1), phases[:, np.newaxis])
    with mp.workdps(60):
        for g, e in zip(got, exact):
            excess = max(abs(mp.mpf(float(gk)) - ek) + eps / 2 * abs(ek) for gk, ek in zip(g, e))
            assert excess <= 2 * eps


def _ulp(exact):
    """The ulp of the binade holding the real number exact (an mpf)."""
    nearest = abs(float(exact))
    if nearest > abs(exact):  # may have rounded up onto a power of two
        nearest = math.nextafter(nearest, 0.0)
    return math.ulp(nearest)


def test_numpy_tan_is_within_0_8_ulp():
    # The premise of the trig_series error model, on the installed numpy:
    # np.tan of a double half-phase is within 0.8 ulp of the exact tangent,
    # below and above the edge of numpy's fast path near 6.5e4 rad and up to
    # 2.25e12 rad, half the largest phase phase_rounding admits
    rng = np.random.default_rng(23)
    h = np.concatenate([10.0 ** rng.uniform(-3.0, math.log10(2.25e12), 1500),
                        rng.uniform(3e4, 1.3e5, 500), [2.25e12]])
    got = np.tan(h)
    with mp.workdps(50):
        exact = (mp.tan(mp.mpf(float(x))) for x in h)
        worst = max(float(abs(mp.mpf(float(g)) - e)) / _ulp(e) for g, e in zip(got, exact))
    assert worst <= 0.8


@pytest.mark.parametrize("trigs", [(np.cos,), (np.sin,), (np.cos, np.sin), (np.sin, np.cos)])
def test_trig_series_function_bits_do_not_depend_on_the_request(trigs):
    # cos and sin share one tangent per phase; each function's bytes must be
    # those it has when requested alone
    rng = np.random.default_rng(6)
    weights, omegas = rng.random(25), 1e15 * rng.uniform(-1, 1, 25)
    times = np.linspace(-4e-7, 4.4e-3, 3000)
    got = _kernels.trig_series(weights, omegas, times, *trigs)
    for trig, values in zip(trigs, got):
        (alone,) = _kernels.trig_series(weights, omegas, times, trig)
        assert values.tobytes() == alone.tobytes()


def test_trig_series_evaluates_cos_and_sin_only():
    with pytest.raises(ValueError, match="np.cos and np.sin only"):
        _kernels.trig_series(np.ones(3), np.ones(3), np.linspace(0, 1, 5), np.cos, np.tan)
    # each function is formed in place over its own input, so a second copy
    # of it would be evaluated on what the first one left there
    for trigs in ((np.cos, np.cos), (np.sin, np.sin)):
        with pytest.raises(ValueError, match="once per call"):
            _kernels.trig_series(np.ones(3), np.ones(3), np.linspace(0, 1, 5), *trigs)


_unit = st.floats(-1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(max_phase=st.sampled_from([1e4, 4.7e8, 1e11, 4.4e12]),
       data=st.data(),
       weights=st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=1, max_size=8))
def test_trig_series_against_exact_sums_of_the_same_phases(max_phase, data, weights):
    # |err_k| <= eps * (L + 3) / 2 * sum|w| against exact cos/sin of the
    # float phases fl(om * t), at phases up to 4.4e12 rad and negative times;
    # the model is relative, so weights are normal floats or zero
    n_l = len(weights)
    omegas = 1e15 * np.array(data.draw(st.lists(_unit, min_size=n_l, max_size=n_l)))
    times = max_phase / 1e15 * np.array(data.draw(st.lists(_unit, min_size=1, max_size=8)))
    weights = np.array(weights)
    got = _kernels.trig_series(weights, omegas, times, np.cos, np.sin)
    exact = exact_sums_of_phases(weights, np.multiply.outer(times, omegas))
    eps = np.finfo(np.float64).eps
    bound = eps * (n_l + 3) / 2 * np.abs(weights).sum()
    with mp.workdps(60):
        for g, e in zip(got, exact):
            assert max(abs(mp.mpf(float(gk)) - ek) for gk, ek in zip(g, e)) <= bound


@pytest.mark.parametrize("n_l", [1, 25, 286])
def test_trig_series_bits_do_not_depend_on_the_block_size(monkeypatch, n_l):
    rng = np.random.default_rng(n_l)
    weights, omegas = rng.random(n_l), 1e15 * rng.uniform(-1, 1, n_l)
    times = np.linspace(-4e-7, 4.4e-3, 1000)  # phases up to 4.4e12 rad
    reference = _kernels.trig_series(weights, omegas, times, np.cos, np.sin)
    # 7 rows and the default 114 rows at L = 286 leave a partial last block
    for rows in (1, 7, times.size, 2 * times.size):
        monkeypatch.setattr(_kernels, "BLOCK_ELEMENTS", rows * n_l)
        got = _kernels.trig_series(weights, omegas, times, np.cos, np.sin)
        for g, r in zip(got, reference):
            assert g.tobytes() == r.tobytes()


@pytest.mark.parametrize("n_l", [8193, 20000])
def test_trig_series_bits_do_not_depend_on_the_block_size_past_8192_levels(monkeypatch, n_l):
    # einsum cuts a sum longer than its 8192-element buffer at places that
    # depend on how many rows it is given; each row must keep its own bits
    rng = np.random.default_rng(n_l)
    weights, omegas = rng.random(n_l), 1e15 * rng.uniform(-1, 1, n_l)
    times = np.linspace(-4e-7, 4.4e-3, 6)
    one_by_one = [_kernels.trig_series(weights, omegas, times[k:k + 1], np.cos, np.sin)
                  for k in range(times.size)]
    for rows in (2, 3, 6):
        # the smallest budget that the default rule turns into this many rows
        monkeypatch.setattr(_kernels, "BLOCK_ELEMENTS", rows * n_l)
        got = _kernels.trig_series(weights, omegas, times, np.cos, np.sin)
        for g, alone in zip(got, zip(*one_by_one)):
            assert g.tobytes() == np.concatenate(alone).tobytes(), rows


@pytest.mark.parametrize("n_l", [3, 25, 286])
def test_trig_series_bits_do_not_depend_on_input_layout(n_l):
    # einsum takes another inner loop, and another sum order, for a strided
    # operand; the kernel makes its inputs contiguous first
    rng = np.random.default_rng(n_l)
    weights, omegas = rng.random(n_l), 1e15 * rng.uniform(-1, 1, n_l)
    times = np.linspace(-4e-7, 4.4e-3, 1000)

    def strided(x):
        return np.repeat(x, 2)[::2]

    def reversed_(x):
        return x[::-1].copy()[::-1]

    def offset(x):  # 8 bytes past the start of its buffer
        view = np.empty(x.size + 1)[1:]
        view[:] = x
        return view

    inputs = (weights, omegas, times)
    reference = _kernels.trig_series(*inputs, np.cos, np.sin)
    for position in range(3):
        for view in (strided, reversed_, offset):
            args = list(inputs)
            args[position] = view(inputs[position])
            assert args[position].tobytes() == inputs[position].tobytes()
            got = _kernels.trig_series(*args, np.cos, np.sin)
            for g, r in zip(got, reference):
                assert g.tobytes() == r.tobytes(), (position, view.__name__)


def test_trig_series_empty_grid_and_empty_level_set():
    # T = 0 gives empty sums, L = 0 gives zeros
    for weights, times in ((np.ones(3), np.array([])), (np.array([]), np.linspace(0, 1, 5))):
        sums = _kernels.trig_series(weights, weights, times, np.cos, np.sin)
        assert [s.tobytes() for s in sums] == [np.zeros(times.size).tobytes()] * 2


@pytest.mark.parametrize("trigs", [(np.sin,), (np.cos, np.sin)])
def test_trig_series_memory_grows_by_the_outputs_only(trigs):
    # the phase blocks have a fixed size, so between T = 2000 and T = 200000
    # the traced peak grows by the len(trigs) float64 outputs alone
    rng = np.random.default_rng(5)
    n_l = 50
    weights, omegas = rng.random(n_l), rng.random(n_l) * 1e3

    def traced_peak(n_t):
        times = np.linspace(0.0, 1.0, n_t)
        _kernels.trig_series(weights, omegas, times, *trigs)  # one-time numpy set-up
        tracemalloc.start()
        try:
            _kernels.trig_series(weights, omegas, times, *trigs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    growth = traced_peak(200000) - traced_peak(2000)
    assert growth <= len(trigs) * (200000 - 2000) * 8


@pytest.mark.parametrize("trigs", [(np.sin,), (np.cos, np.sin)])
def test_trig_series_holds_outputs_and_three_block_buffers(trigs):
    # The traced peak is the float64 outputs and the three block buffers of
    # BLOCK_ELEMENTS counted here. No pass broadcasts a row, so numpy holds
    # no ufunc buffer of np.getbufsize() floats, and the peak does not move
    # with np.setbufsize. What is left, Python objects, measured 3.4-3.5 KiB at
    # 2000 x 50 (2 vCPUs, numpy 2.4.6); 8 KiB is allowed for it.
    rng = np.random.default_rng(3)
    n_t, n_l = 2000, 50
    weights, omegas = rng.random(n_l), rng.random(n_l) * 1e3
    times = np.linspace(0.0, 1.0, n_t)
    rows = min(n_t, _kernels.BLOCK_ELEMENTS // n_l)
    expected = 8 * (len(trigs) * n_t + 3 * rows * n_l)
    tracemalloc.start()
    try:
        _kernels.trig_series(weights, omegas, times, *trigs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= expected + 8192


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

    assert requested(observables.currents, "both") == [(np.sin,)]
    assert requested(observables.autocorrelation, "both") == [(np.cos,)]
    for bands in ("positive", "negative"):
        assert requested(observables.currents, bands) == [(np.cos, np.sin)]
        assert requested(observables.autocorrelation, bands) == [(np.cos, np.sin)]
