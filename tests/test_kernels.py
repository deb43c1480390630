import numpy as np
import pytest

from graphene_revivals import _kernels


def test_trig_series_shape_validation():
    with pytest.raises(ValueError):
        _kernels.trig_series(np.ones(3), np.ones(4), np.linspace(0, 1, 5))


def test_hermite_sweep_rejects_negative_order():
    with pytest.raises(ValueError):
        _kernels.hermite_sweep(-1, np.zeros(3))
