import math
import random
import tracemalloc

import numpy as np
import pytest

from graphene_revivals import (PacketSpec, WeightTable, build_weights,
                               truncation_range, wavepacket)

from oracles import truncation_half_width


def test_spec_validation():
    with pytest.raises(ValueError):
        PacketSpec(0, 3.0)
    with pytest.raises(ValueError):
        PacketSpec(2**52 + 1, 3.0)  # level indices would round as doubles
    with pytest.raises(ValueError):
        PacketSpec(15, 0.0)
    with pytest.raises(ValueError):
        PacketSpec(15, 3.0, bands="up")


@pytest.mark.parametrize("n0,sigma,tol", [
    (15, 3.0, 1e-12), (11, 40.0, 1e-12), (1, 40.0, 1e-12),
    (50, 10.0, 1e-12), (1, 0.1, 1e-12), (15, 3.0, 0.5),
    # wide packets whose right tail is longer than the left one; the last is
    # the wide-band packet
    (151, 400.0, 1e-12), (57, 1000.0, 1e-12), (394, 3000.0, 1e-12), (2000, 400.0, 1e-12),
    # the excluded share lies within an eps of the total from 1e-12, where
    # total - inside rounds to the wrong side and widens the range by one level
    (1645, 249.0052674639354, 1e-12), (1574, 1175.8376681231177, 1e-12),
])
def test_truncation_matches_tail_sum_oracle(monkeypatch, n0, sigma, tol):
    monkeypatch.setattr(wavepacket, "TAIL_TOLERANCE", tol)
    k = truncation_half_width(n0, sigma, tol)
    assert truncation_range(PacketSpec(n0, sigma)) == (max(0, n0 - k), n0 + k)


@pytest.mark.parametrize("tol, levels", [(1e-20, (0, 31)), (1e-300, (0, 79)),
                                         (5e-324, (0, 81))])
def test_truncation_at_tolerances_below_the_rounding_of_the_total(monkeypatch, tol, levels):
    # the smallest subnormal tolerance still leaves the range inside the window
    monkeypatch.setattr(wavepacket, "TAIL_TOLERANCE", tol)
    assert truncation_half_width(15, 3.0, tol) == levels[1] - 15
    assert truncation_range(PacketSpec(15, 3.0)) == levels


def test_truncation_matches_tail_sum_oracle_on_seeded_packets(monkeypatch):
    rng = random.Random(17)
    for _ in range(200):
        n0, sigma = rng.randint(1, 3000), 10.0 ** rng.uniform(-2.0, math.log10(1500.0))
        tol = 10.0 ** rng.uniform(-300.0, -0.5)
        monkeypatch.setattr(wavepacket, "TAIL_TOLERANCE", tol)
        k = truncation_half_width(n0, sigma, tol)
        assert truncation_range(PacketSpec(n0, sigma)) == \
            (max(0, n0 - k), n0 + k), (n0, sigma, tol)


def test_truncation_frozen_value():
    # oracle value for the canonical packet
    assert truncation_range(PacketSpec(15, 3.0)) == (3, 27)


def test_truncation_collapses_with_loose_tolerance(monkeypatch):
    widths = []
    for tol in (1e-12, 1e-6, 1e-2, 0.5):
        monkeypatch.setattr(wavepacket, "TAIL_TOLERANCE", tol)
        lo, hi = truncation_range(PacketSpec(15, 3.0))
        widths.append(hi - lo)
    assert widths == sorted(widths, reverse=True)
    assert widths[-1] <= 2


def test_table_memory_independent_of_n0():
    # only the window where g_n is nonzero is evaluated, not [0, n0]
    tracemalloc.start()
    try:
        table = build_weights(PacketSpec(10**7, 3.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (table.n_min, table.n_max) == (10**7 - 12, 10**7 + 12)
    assert peak < 1e6


def test_truncation_clips_at_zero():
    lo, hi = truncation_range(PacketSpec(1, 40.0))
    assert lo == 0


@pytest.mark.parametrize("n0,sigma", [(15, 3.0), (11, 40.0), (1, 0.1), (50, 10.0)])
@pytest.mark.parametrize("bands", ["positive", "negative", "both"])
def test_population_normalization(n0, sigma, bands):
    table = build_weights(PacketSpec(n0, sigma, bands=bands))
    assert table.total_population() == pytest.approx(1.0, abs=1e-12)
    mult = 2 if bands == "both" else 1
    assert mult * table.diag.sum() == pytest.approx(1.0, abs=1e-12)


def test_offdiag_to_diag_ratio():
    # U_{14,15}/U_{15,15} = exp(-1/(2 sigma)), independent of normalization
    table = build_weights(PacketSpec(15, 3.0))
    ratio = table.offdiag[15 - table.n_min - 1] / table.diag[15 - table.n_min]
    assert ratio == pytest.approx(math.exp(-1.0 / 6.0), rel=1e-12, abs=0)


def test_delta_limit_of_narrow_packet():
    table = build_weights(PacketSpec(15, 1e-3))
    assert table.n_min == table.n_max == 15
    assert table.diag == pytest.approx([1.0], abs=0)


def test_peak_at_center_and_monotone_decay():
    table = build_weights(PacketSpec(15, 3.0))
    diag = table.diag
    center = 15 - table.n_min
    assert diag[center] == diag.max()
    assert np.all(np.diff(diag[:center + 1]) > 0)
    assert np.all(np.diff(diag[center:]) < 0)


def test_rank_one_structure():
    table = build_weights(PacketSpec(15, 3.0))
    for n in range(table.n_min + 1, table.n_max + 1):
        i = n - table.n_min
        lhs = table.offdiag[i - 1] ** 2
        rhs = table.diag[i - 1] * table.diag[i]
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=0)


def test_tables_are_read_only():
    table = build_weights(PacketSpec(15, 3.0))
    with pytest.raises(ValueError):
        table.diag[0] = 1.0


def test_structural_validation():
    with pytest.raises(ValueError):
        WeightTable(n_min=3, n_max=5, diag=np.ones(2), offdiag=np.ones(2),
                    band_content="positive")
    with pytest.raises(ValueError):
        WeightTable(n_min=-1, n_max=5, diag=np.ones(7), offdiag=np.ones(6),
                    band_content="positive")
    with pytest.raises(ValueError):
        WeightTable(n_min=0, n_max=2, diag=np.ones(3), offdiag=np.ones(2),
                    band_content="mixed")
