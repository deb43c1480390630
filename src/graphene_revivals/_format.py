"""CSV rows of '%.17g' cells from float64 blocks, formatted by numpy.

CsvCells turns a block of columns into the exact text of
",".join("%.17g" % v for v in row) + "\\n" for every row, with no Python
work per cell except for the few cells its error bound cannot decide.

Digits. A finite x with 1e-250 <= |x| <= 1e250 has a decade e, the one with
10^16 <= P < 10^17 for P = |x| * 10^(16-e), and its 17 significant digits
are D = P rounded to an integer (10^17 carries to 10^16 in the next
decade). P is formed as a double-double p + q: 10^s = H + L + d with
H = fl(10^s) and L = fl(10^s - H), both correctly rounded from Python ints
(int / int true division rounds correctly); Dekker's split (2^27 + 1) of |x|
and H gives |x| * H = p + err exactly, and q = fl(err + fl(|x| * L)). With
u = 2^-53, |L| <= u * H, |d| <= u * |L| and |err| <= ulp(p)/2 <= 8, so
|x| * L and |x| * d are at most 11.2 and 1.3e-15, fl(|x| * L) is off by at
most 8.9e-16, the final sum (|q| < 20) by at most 1.8e-15, and

    |P - (p + q)| < 5e-15.

p >= 2^53 is an integer, so D = p + floor(q) + (frac(q) > 1/2) exactly as
long as frac(q) is not within that bound of 1/2, and the decade is decided
by the signs of (p - 10^16) + q and (p - 10^17) + q (both subtractions are
exact near the boundary) as long as neither is within the bound of 0. Any
cell where one of the three lies within MARGIN = 2^-30 of its threshold is
undecided: exact ties such as 2^-25 = 2.98023223876953125e-08, which '%'
rounds half to even, and exact decades such as 1.0. The decade starts at
floor(log10|x|) and takes at most two corrections; undecided cells,
non-finite values and |x| outside [1e-250, 1e250] (where the split or the
powers of ten could underflow) are formatted by '%.17g' itself. A zero is
"0" or "-0" from its sign bit.

Layout. The 'g' rules with 17 digits: fixed notation for -4 <= e < 17,
otherwise d.ddde+XX with at least two exponent digits; trailing zeros and a
bare point are dropped. Each cell is a 32-byte row: its sign and "0.000"
head end at byte 7, its digits start there, and a copy shifted one byte
right supplies the digits after the point. A layout per key (decade, digit
count, sign, last column) gives the constant bytes and the two digit masks:
row = const | (digits & mask1) | (shifted digits & mask2), with the cell's
separator in const. The rows' zero bytes are dropped to give the text.
"""

from __future__ import annotations

import numpy as np

MARGIN = 2.0 ** -30  # undecided within this of a tie or a decade; |error| < 5e-15
_SPLIT = 134217729.0  # 2^27 + 1
_LOWEST, _HIGHEST = 1e-250, 1e250

_WIDTH = 32  # bytes per cell: head <= 6, 17 digits and a point, tail <= 6 ("e-100,")
_DIGIT0 = 7  # byte of the first digit
_DECADES = 512  # decade index e + _E_OFF; 0 and 1 are the zero and fallback layouts
_E_OFF = 256
_ZERO, _FALLBACK = -_E_OFF, 1 - _E_OFF
_S_OFF = 240  # 10^s at s + _S_OFF; s = 16 - e stays in [-237, 269]

# the 4-digit groups 0000-9999: their ASCII text, leading digit in the lowest
# byte, and their number of trailing zeros (4 for 0000)
_GROUP_TEXT = np.empty((10, 10, 10, 10, 4), np.uint8)
_GROUP_ZEROS = np.zeros((10, 10, 10, 10), np.int64)
for _place in range(4):
    _GROUP_TEXT[..., _place] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).reshape(
        [10 if p == _place else 1 for p in range(4)])
    _GROUP_ZEROS[(slice(None),) * (3 - _place) + (0,) * (_place + 1)] += 1
_GROUP_TEXT, _GROUP_ZEROS = _GROUP_TEXT.view("<u4").ravel(), _GROUP_ZEROS.ravel()
del _place


def _ten_to(s: int) -> tuple[float, float, float, float]:
    """(H, head of H, tail of H, L) for 10^s = H + L, correctly rounded."""
    if s >= 0:
        exact = 10 ** s
        high = float(exact)
        low = float(exact - int(high))
    else:
        den = 10 ** -s
        high = 1 / den
        num, pow2 = high.as_integer_ratio()
        low = (pow2 - num * den) / (den * pow2)
    c = _SPLIT * high
    head = c - (c - high)
    return high, head, high - head, low


def _layout(key: int) -> bytes:
    """The const, mask1 and mask2 rows of one key."""
    last, neg, k, e = key & 1, key >> 1 & 1, (key >> 2) % 17 + 1, (key >> 2) // 17 - _E_OFF
    const, mask1, mask2 = bytearray(_WIDTH), bytearray(_WIDTH), bytearray(_WIDTH)
    sep, sign = b"\n" if last else b",", b"-" if neg else b""
    if e == _ZERO:
        const[_DIGIT0:_DIGIT0 + len(sign) + 2] = sign + b"0" + sep
    elif e != _FALLBACK:  # a fallback row stays empty until its text is written
        fixed = -4 <= e < 17
        head = sign + (b"0." + b"0" * (-1 - e) if fixed and e < 0 else b"")
        whole = (e + 1 if e >= 0 else k) if fixed else 1  # digits before the point
        const[_DIGIT0 - len(head):_DIGIT0] = head
        mask1[_DIGIT0:_DIGIT0 + whole] = b"\xff" * whole
        end = _DIGIT0 + whole
        if k > whole:
            const[end] = ord(".")
            mask2[end + 1:_DIGIT0 + 1 + k] = b"\xff" * (k - whole)
            end = _DIGIT0 + 1 + k
        tail = (b"" if fixed else b"e%+03d" % e) + sep
        const[end:end + len(tail)] = tail
    return bytes(const + mask1 + mask2)


class CsvCells:
    """Formats blocks of float64 columns, block after block.

    All working arrays are views of one slab of 15 words per cell, sized by
    the first block, grown only by a larger one and reused by every block;
    arrays never alive together share words. Plain numpy expressions ran as
    fast warm but slower cold: glibc trims their freed per-block temporaries
    and the next block faults them back in (17,728 minor faults against 362
    in a cold `current --samples 100000`). The powers of ten and the layouts
    are built as blocks first need them.
    """

    def __init__(self):
        self._slab = np.empty((15, 0), "<u8")
        self._tens = np.empty((4, _DECADES))
        self._have_ten = np.zeros(_DECADES, bool)
        self._layouts = np.zeros((3, _DECADES * 17 * 4, _WIDTH // 8), "<u8")
        self._have_layout = np.zeros(_DECADES * 17 * 4, bool)

    def __call__(self, columns) -> str:
        """The CSV rows of equal-length float64 columns."""
        cols = len(columns)
        n = len(columns[0]) * cols
        if n == 0:
            return ""
        if n > self._slab.shape[1]:
            self._slab = np.empty((15, n), "<u8")
        slab = self._slab[:, :n]
        # slab rows: 0 x | 1 flags | 2 i | 3-6 a, head, tail, d | 7-10 p, q, f, g
        # | 11-14 e, j and two spare words; the digit rows take 7-10 once the
        # digits are known, and the layout work 3-6 and 11-14 (see _text)
        x, a, head, tail, p, q, f, g, e = (slab[r].view(np.float64)
                                           for r in (0, 3, 4, 5, 7, 8, 9, 10, 11))
        i, d, j = (slab[r].view(np.int64) for r in (2, 6, 12))
        exact, neg, odd, fallback = slab[1].view(bool).reshape(8, n)[:4]
        np.stack(columns, axis=1, out=x.reshape(-1, cols))
        np.abs(x, out=a)
        np.greater_equal(a, _LOWEST, out=exact)
        exact &= np.less_equal(a, _HIGHEST, out=odd)  # false for nan and inf
        np.copyto(a, 1.0, where=~exact)  # a harmless operand; the cell is redone below
        np.multiply(a, _SPLIT, out=head)
        np.subtract(head, a, out=tail)
        np.subtract(head, tail, out=head)
        np.subtract(a, head, out=tail)
        np.floor(np.log10(a, out=e), out=e)
        for _ in range(3):
            self._scale(a, head, tail, e, p, q, f, g, i)
            np.subtract(p, 1e16, out=f)
            f += q  # the gap to the lower decade
            np.less(f, 0.0, out=neg)
            np.subtract(p, 1e17, out=g)
            g += q  # the gap to the upper decade
            np.greater_equal(g, 0.0, out=odd)
            if not (neg.any() or odd.any()):
                break
            e -= neg
            e += odd
        else:
            exact &= ~(neg | odd)  # undecided after two corrections
        for gap in (f, g):
            exact &= np.greater_equal(np.abs(gap, out=gap), MARGIN, out=odd)
        np.floor(q, out=f)
        np.copyto(d, p, casting="unsafe")
        np.copyto(j, f, casting="unsafe")
        d += j
        q -= f  # the fraction
        d += np.greater(q, 0.5, out=odd)
        q -= 0.5
        exact &= np.greater_equal(np.abs(q, out=q), MARGIN, out=odd)
        np.equal(d, 10 ** 17, out=odd)  # rounding carried into the next decade
        np.copyto(d, 10 ** 16, where=odd)
        e += odd
        self._digits(d, j, i, slab[13].view("<u4").reshape(2, n), self._quad(7, n))
        # the layout key ((decade, digit count) * 2 + sign) * 2 + last column
        np.add(e, _E_OFF, out=e)
        np.copyto(e, _ZERO + _E_OFF, where=np.equal(x, 0.0, out=neg))
        np.logical_and(~exact, ~neg, out=fallback)
        np.copyto(e, _FALLBACK + _E_OFF, where=fallback)
        np.copyto(i, e, casting="unsafe")
        i *= 17
        i += j
        i -= 1
        i <<= 2
        i += np.signbit(x, out=neg)
        i += neg
        i.reshape(-1, cols)[:, -1] += 1
        return self._text(x, i, fallback, cols)

    def _quad(self, row: int, n: int):
        """Slab rows row..row+3 seen as n cells of four words."""
        return self._slab[row:row + 4].reshape(-1)[:4 * n].reshape(n, 4)

    def _scale(self, a, head, tail, e, p, q, f, g, i):
        """p + q = a * 10^(16 - e) with the error bound above."""
        np.subtract(16 + _S_OFF, e, out=f)
        np.copyto(i, f, casting="unsafe")
        lo, hi = int(i.min()), int(i.max())
        for s in np.flatnonzero(~self._have_ten[lo:hi + 1]) + lo:
            self._tens[:, s] = _ten_to(int(s) - _S_OFF)
            self._have_ten[s] = True
        big, big_head, big_tail, low = self._tens
        np.take(big, i, out=g)
        np.multiply(a, g, out=p)
        # Dekker's product, its terms added in this order: ah*Hh - p, ah*Hl, al*Hh, al*Hl
        np.take(big_head, i, out=g)
        np.multiply(head, g, out=q)
        q -= p
        np.take(big_tail, i, out=f)
        q += np.multiply(head, f, out=g)
        np.take(big_head, i, out=g)
        q += np.multiply(tail, g, out=g)
        q += np.multiply(tail, f, out=f)
        np.take(low, i, out=g)
        q += np.multiply(a, g, out=g)

    @staticmethod
    def _digits(d, count, scratch, pair, digits):
        """The ASCII digits of D at bytes 7-23 of each digit row (D is
        consumed), and into count the number of digits without trailing zeros."""
        text = digits.view("<u4")
        text[:, 0] = 0
        text[:, 6:] = 0
        np.floor_divide(d, 10 ** 16, out=scratch)
        d -= np.multiply(scratch, 10 ** 16, out=count)
        scratch += ord("0")
        np.left_shift(scratch, 24, out=text[:, 1], casting="unsafe")
        np.floor_divide(d, 10 ** 8, out=scratch)
        d -= np.multiply(scratch, 10 ** 8, out=count)  # scratch: digits 2-9, d: 10-17
        count[:] = 0
        upper, lower = pair
        for column, eight in ((2, scratch), (4, d)):
            np.copyto(lower, eight, casting="unsafe")  # below 10^8: uint32 divides faster
            np.floor_divide(lower, 10000, out=upper)
            lower -= np.multiply(upper, 10000, out=eight.view("<u4")[:lower.size])
            for c, four in ((column, upper), (column + 1, lower)):
                text[:, c] = _GROUP_TEXT[four]
                count *= four == 0  # a zero group adds its 4 to the zeros after it
                count += _GROUP_ZEROS[four]
        np.subtract(17, count, out=count)

    def _text(self, x, keys, fallback, cols) -> str:
        n = x.size
        have = self._have_layout[keys]
        if not have.all():
            for key in set(keys[~have].tolist()):
                self._layouts[:, key] = np.frombuffer(_layout(key), "<u8").reshape(3, -1)
                self._have_layout[key] = True
        rows, digits, spare = self._quad(3, n), self._quad(7, n), self._quad(11, n)
        const, mask1, mask2 = self._layouts
        np.take(mask1, keys, axis=0, out=rows)
        rows &= digits
        np.right_shift(digits, 56, out=spare)  # the digits one byte right
        digits <<= 8
        digits[:, 1:] |= spare[:, :-1]
        np.take(mask2, keys, axis=0, out=spare)
        rows |= np.bitwise_and(spare, digits, out=spare)
        np.take(const, keys, axis=0, out=spare)
        rows |= spare
        text = rows.view(np.uint8)
        for k in np.flatnonzero(fallback):
            cell = ("%.17g" % x[k] + ("," if (k + 1) % cols else "\n")).encode()
            text[k, :len(cell)] = np.frombuffer(cell, np.uint8)
        flat = text.reshape(-1)
        return str(flat[np.not_equal(flat, 0, out=spare.view(bool).reshape(-1))].data,
                   "ascii")
