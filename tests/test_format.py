import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphene_revivals._format import CsvCells


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
    # larger one after a smaller one included
    rows = len(values) // cols
    table = values[:rows * cols]
    cells = CsvCells()
    for block in (table[:rows // 2 * cols], table, table[::-1]):
        columns = [np.array(block[c::cols], np.float64) for c in range(cols)]
        want = "".join(",".join("%.17g" % v for v in row) + "\n"
                       for row in zip(*(c.tolist() for c in columns)))
        assert cells(columns) == want
