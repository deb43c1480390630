from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphene_revivals import _format
from graphene_revivals._format import CsvCells, csv_blocks


def _edges():
    """Values next to every rounding and layout decision of the formatter."""
    values = [k * 2.0 ** -25 for k in range(1, 4096)]  # 2^-25 = 2.98023223876953125e-08: ties
    values += [2.0 ** k for k in range(-1074, 1024)]
    for k in range(-323, 309):
        ten = float(f"1e{k}")
        values += [np.nextafter(ten, 0.0), ten, np.nextafter(ten, np.inf)]
    for ten in (1e16, 1e17, 1e-5, 1e-4):
        values += [np.nextafter(ten, 0.0), ten, np.nextafter(ten, np.inf)]
    values += [9.9999999999999995e-05, 5e-324, np.finfo(np.float64).max, 0.0]
    values = [float(v) for v in values]
    return values + [-v for v in values]


_ANY_DOUBLE = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: float(np.array(bits, np.uint64).view(np.float64)))  # nan payloads, +-inf, subnormals


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_ANY_DOUBLE, st.floats()), max_size=40), st.integers(1, 4))
@example(_edges(), 3)
def test_cells_are_the_percent_format(values, cols):
    # every cell's bytes are those of '%.17g' % v, with ',' between cells and
    # '\n' after a row; later blocks through the same buffers keep them, a
    # short last block included
    rows = len(values) // cols
    columns = [np.array(values[c:rows * cols:cols], np.float64) for c in range(cols)]
    want = "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in zip(*(c.tolist() for c in columns)))
    for block_rows in (1, 7, _format._BLOCK_ROWS):
        with mock.patch.object(_format, "_BLOCK_ROWS", block_rows):
            assert "".join(csv_blocks(columns)) == want


def test_zero_cells_build_no_powers_of_ten(monkeypatch):
    # 0.0 and -0.0 take the zero layout, and nan, +-inf and |x| outside
    # [1e-250, 1e250] the '%.17g' fallback, so only the decades of the other
    # cells, 1 to 1e4, need their powers of ten (10^(16 - e) for e in 0-4)
    ten_to = _format._ten_to
    decided = [1.0, 2.5, 37.0, 123.456, 9999.0, 1e4]
    for others in ([0.0, -0.0], [np.nan, -np.nan], [np.inf, -np.inf], [5e-300, -5e-300],
                   [1e300, -1e300], [0.0, np.nan, np.inf, -5e-300, 1e300, -0.0]):
        built = []
        monkeypatch.setattr(_format, "_ten_to", lambda s: built.append(s) or ten_to(s))
        column = np.array(others[:1] + decided + others[1:] + others)
        columns = [column, column[::-1].copy()]
        want = "".join(f"{'%.17g' % x},{'%.17g' % y}\n" for x, y in zip(*columns))
        assert CsvCells(column.size * 2)(columns) == want
        assert sorted(built) == [12, 13, 14, 15, 16], others
