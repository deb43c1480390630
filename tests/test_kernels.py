import math

import numpy as np
import pytest

from graphene_revivals import _kernels


def test_trig_series_shape_validation():
    with pytest.raises(ValueError):
        _kernels.trig_series(np.ones(3), np.ones(4), np.linspace(0, 1, 5))


def test_hermite_sweep_rejects_negative_order():
    with pytest.raises(ValueError):
        _kernels.hermite_sweep(-1, np.zeros(3))


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
