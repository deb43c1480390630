"""CSV rows of '%.17g' cells from float64 blocks, formatted by numpy.

csv_blocks writes a table block by block through one CsvCells, which turns
a block of columns into the exact text of
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

p >= 2^53 is an integer, so D = p + rint(q) exactly as long as q is not
within that bound of a half-integer. A cell where q lies within MARGIN =
2^-30 of one is undecided: exact ties such as 2^-25 =
2.98023223876953125e-08, which '%' rounds half to even. The decade follows
the signs of (p - 10^16) + q and (p - 10^17) + q (both subtractions are
exact near the boundary). A sign that the bound leaves open does not change
the text: P next to 10^16 gives D = 10^16 in that decade and 10^17, carried
to the same 10^16, in the one below; P next to 10^17 likewise. The decade
starts at floor(log10|x|), and a cell still moving after two corrections is
undecided. Undecided cells, non-finite values and |x| outside
[1e-250, 1e250] (where the split or the powers of ten could underflow) are
formatted by '%.17g' itself, zeros as "0" or "-0" from the sign bit. Zeros,
non-finite values and |x| outside the range are scaled as the block's largest
magnitude in it, so they need no power of ten of their own.

Layout. The 'g' rules with 17 digits: fixed notation for -4 <= e < 17,
otherwise d.ddde+XX with at least two exponent digits; trailing zeros and a
bare point are dropped. Each cell is a 32-byte row: its sign and "0.000"
head end at byte 7, its digits start there, and the same digits read from
one byte earlier, shifted one byte right, supply the digits after the
point. A layout per key (decade, digit count, sign, last column) gives the
constant bytes and the two digit masks: row = const | (digits & mask1) |
(shifted digits & mask2), with the cell's separator in const. The rows'
zero bytes are dropped to give the text.
"""

from __future__ import annotations

import numpy as np

MARGIN = 2.0 ** -30  # undecided within this of a tie; |error| < 5e-15
_SPLIT = 134217729.0  # 2^27 + 1
_LOWEST, _HIGHEST = 1e-250, 1e250

_WIDTH = 32  # bytes per cell: head <= 6, 17 digits and a point, tail <= 6 ("e-100,")
_DIGIT0 = 7  # byte of the first digit
_DECADES = 512  # decade index e + _E_OFF, in [3, 509] for a decided cell
_E_OFF = 256
_ZERO, _FALLBACK = 0, 1  # the decade indices of the zero and fallback layouts

# The 16 digits after the first are two numbers below 10^8, and each becomes a
# word of eight digit bytes, the first digit in the lowest byte, by three
# splits: by 10^4, then by 100 in each 32-bit lane, then by 10 in each 16-bit
# lane. A quotient is a multiply and a shift (x * 109951163 >> 40 is x // 10^4
# for x < 10^8, v * 10486 >> 20 is v // 100 for v < 10^4, v * 103 >> 10 is
# v // 10 for v < 100), masked to its lane after the first. For lane width w,
# adding q * (1 - c * 2^w) to x << w gives q | (x - c * q) << w modulo 2^64.
_SPLITS = tuple((np.uint64(w), np.uint64(magic), np.uint64(cut),
                 None if mask is None else np.uint64(mask), np.uint64((1 - (c << w)) % 2 ** 64))
                for w, magic, cut, mask, c in ((32, 109951163, 40, None, 10 ** 4),
                                               (16, 10486, 20, 0x0000007F0000007F, 100),
                                               (8, 103, 10, 0x000F000F000F000F, 10)))
_ASCII_ZEROS = np.uint64(0x3030303030303030)


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
    last, neg, k, index = key & 1, key >> 1 & 1, (key >> 2) % 17 + 1, (key >> 2) // 17
    e = index - _E_OFF
    const, mask1, mask2 = bytearray(_WIDTH), bytearray(_WIDTH), bytearray(_WIDTH)
    sep, sign = b"\n" if last else b",", b"-" if neg else b""
    if index == _ZERO:
        const[_DIGIT0:_DIGIT0 + len(sign) + 2] = sign + b"0" + sep
    elif index != _FALLBACK:  # a fallback row stays empty until its text is written
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


# CSV rows formatted at once. A CsvCells takes 104 bytes per cell, about
# 0.8 MiB at four columns; larger blocks ran no faster and raised the peak
# RSS of a default run.
_BLOCK_ROWS = 1 << 11


def csv_blocks(columns):
    """The CSV rows of equal-length float64 columns, _BLOCK_ROWS rows at a time."""
    rows = len(columns[0])
    cells = CsvCells(min(rows, _BLOCK_ROWS) * len(columns))
    for i in range(0, rows, _BLOCK_ROWS):
        yield cells([c[i:i + _BLOCK_ROWS] for c in columns])


class CsvCells:
    """Formats blocks of float64 columns, block after block.

    All working arrays are views of one slab of 13 words per cell, sized for
    the largest block and reused by every block; arrays never alive together
    share words. Plain numpy expressions ran as fast warm but slower cold:
    glibc trims their freed per-block temporaries and the next block faults
    them back in (17,728 minor faults against 362 in a cold `current --samples
    100000`). Each pass runs over whole rows of the slab, or gathers whole
    32-byte table rows: numpy loops over a short inner axis, or a per-element
    lookup, cost several times as much per cell. The powers of ten and the
    layouts are built and flagged as blocks first need them.
    """

    def __init__(self, cells: int):
        self._slab = np.empty((13, cells), "<u8")
        self._tens = np.empty((_DECADES, 4))  # _ten_to(16 - e) at decade index e + _E_OFF
        self._have_ten = np.zeros(_DECADES, bool)
        self._layouts = np.zeros((3, _DECADES * 17 * 4, _WIDTH // 8), "<u8")
        self._have_layout = np.zeros(_DECADES * 17 * 4, bool)

    def __call__(self, columns) -> str:
        """The CSV rows of equal-length float64 columns, at most `cells` cells."""
        cols = len(columns)
        n = len(columns[0]) * cols
        if n == 0:
            return ""
        slab = self._slab[:, :n]
        # slab rows: 0 the decade index e, later the layout key | 1 flags
        # | 2-4 x, then a, head, tail | 5-8 p, q, f, g | 9-12 each cell's powers
        # of ten; once D is known, 2-4 hold D, its digit count and scratch, 5-8
        # the digit rows and 9-12 the digit words, and then the layout work
        # takes 1-4 and 9-12 (see _digits and _text)
        a, head, tail, p, q, f, g = (slab[r].view(np.float64) for r in range(2, 9))
        e, d, j = (slab[r].view(np.int64) for r in (0, 2, 3))
        exact, neg, odd, fallback, sign, zero = slab[1].view(bool).reshape(8, n)[:6]
        np.stack(columns, axis=1, out=a.reshape(-1, cols))
        np.signbit(a, out=sign)
        np.equal(np.abs(a, out=tail), 0.0, out=zero)
        # |x| clamped into the range, nan to its low end
        np.fmax(tail, _LOWEST, out=a)
        np.fmin(a, _HIGHEST, out=a)
        np.equal(a, tail, out=exact)  # false for 0, nan, inf and |x| outside the range
        if not exact.all():  # scaled in a decade the block needs (see above)
            np.copyto(a, a.max(initial=_LOWEST, where=exact), where=~exact)
        np.multiply(a, _SPLIT, out=head)
        np.subtract(head, a, out=tail)
        np.subtract(head, tail, out=head)
        np.subtract(a, head, out=tail)
        np.copyto(e, np.floor(np.log10(a, out=f), out=f), casting="unsafe")
        e += _E_OFF
        for _ in range(3):
            self._scale(a, head, tail, e, p, q, f, self._quad(9, n).view(np.float64))
            top = p.max()
            if p.min() >= 1e16 + 32 and top < 1e17 - 32:
                break  # |q| < 20: every cell is in its decade, and none can carry
            np.subtract(p, 1e16, out=f)
            f += q  # the gap to the lower decade
            np.subtract(p, 1e17, out=g)
            g += q  # the gap to the upper decade
            if f.min() >= 0.0 and g.max() < 0.0:
                break
            e -= np.less(f, 0.0, out=neg)
            e += np.greater_equal(g, 0.0, out=odd)
        else:
            exact &= ~(neg | odd)  # undecided after two corrections
        np.rint(q, out=f)
        np.copyto(d, p, casting="unsafe")
        np.copyto(j, f, casting="unsafe")
        d += j  # D = p + rint(q)
        q -= f  # within 1/2 - MARGIN of 0 unless P is near a tie
        exact &= np.less_equal(np.abs(q, out=q), 0.5 - MARGIN, out=odd)
        if top >= 1e17 - 32 and np.equal(d, 10 ** 17, out=odd).any():
            # rounding carried into the next decade
            np.copyto(d, 10 ** 16, where=odd)
            e += odd
        self._digits(d, j, slab[4].view(np.int64), self._quad(9, n).reshape(-1),
                     self._quad(5, n))
        # e becomes the layout key ((decade, digit count) * 2 + sign) * 2 + last column
        np.copyto(e, _ZERO, where=zero)
        np.logical_not(np.logical_or(exact, zero, out=fallback), out=fallback)
        np.copyto(e, _FALLBACK, where=fallback)
        e *= 17
        e += j
        e <<= 2
        e += sign
        e += sign
        e.reshape(-1, cols)[:, -1] += 1
        return self._text(columns, e, np.flatnonzero(fallback))

    def _quad(self, row: int, n: int, back: int = 0):
        """Slab rows row..row+3 seen as n cells of four words, from back bytes
        before the row."""
        start = row * self._slab.shape[1] * 8 - back
        return (self._slab.view(np.uint8).reshape(-1)[start:start + 32 * n]
                .view("<u8").reshape(n, 4))

    def _scale(self, a, head, tail, e, p, q, f, tens):
        """p + q = a * 10^(16 - decade) with the error bound above; the array e
        holds decade + _E_OFF."""
        lo = int(e.min())
        have = self._have_ten[lo:int(e.max()) + 1]
        if not have.all():
            for index in (np.flatnonzero(~have) + lo).tolist():
                self._tens[index] = _ten_to(16 + _E_OFF - index)
                self._have_ten[index] = True
        np.take(self._tens, e, axis=0, out=tens, mode="clip")
        big, big_head, big_tail, low = tens.T
        np.multiply(a, big, out=p)
        # Dekker's product, its terms added in this order: ah*Hh - p, ah*Hl, al*Hh, al*Hl
        np.multiply(head, big_head, out=q)
        q -= p
        q += np.multiply(head, big_tail, out=f)
        q += np.multiply(tail, big_head, out=f)
        q += np.multiply(tail, big_tail, out=f)
        q += np.multiply(a, low, out=f)

    @staticmethod
    def _digits(d, count, scratch, words, digits):
        """The ASCII digits of D at bytes 7-23 of each digit row, and into count
        the number of digits after the first up to the last nonzero one. D and
        the 4n words are consumed."""
        n = d.size
        np.floor_divide(d, 10 ** 16, out=count)
        d -= np.multiply(count, 10 ** 16, out=scratch)
        count += ord("0")
        np.left_shift(count, 56, out=digits[:, 0].view(np.int64))
        eight, quotient = words[:2 * n], words[2 * n:]  # digits 2-9 of every cell, then 10-17
        np.floor_divide(d, 10 ** 8, out=eight[:n].view(np.int64))
        np.subtract(d, np.multiply(eight[:n], 10 ** 8, out=scratch), out=eight[n:].view(np.int64))
        for width, magic, cut, mask, move in _SPLITS:
            np.multiply(eight, magic, out=quotient)
            quotient >>= cut
            if mask:
                quotient &= mask
            eight <<= width
            eight += np.multiply(quotient, move, out=quotient)
        np.add(eight[:n], _ASCII_ZEROS, out=digits[:, 1])
        np.add(eight[n:], _ASCII_ZEROS, out=digits[:, 2])
        # The count c is 1 + the byte of the highest set bit of the 128-bit number
        # (digits 10-17) * 2^64 + (digits 2-9), and 0 if it is 0: the biased
        # exponent B of fl(that number + 1/2) gives c = (B - 1015) >> 3. Digit
        # bytes are at most 9, so a zero bit comes within three bits below the
        # highest set one, and no rounding on the way reaches the next power of 2.
        high = quotient[:n].view(np.float64)
        np.multiply(eight[n:], 2.0 ** 64, out=high)
        high += eight[:n]
        high += 0.5
        np.right_shift(high.view(np.int64), 52, out=count)
        count -= 1015
        count >>= 3

    def _text(self, columns, keys, fallback) -> str:
        n, cols = keys.size, len(columns)
        have = self._have_layout[keys]
        if not have.all():
            for key in set(keys[~have].tolist()):
                self._layouts[:, key] = np.frombuffer(_layout(key), "<u8").reshape(3, -1)
                self._have_layout[key] = True
        rows, digits, spare = self._quad(1, n), self._quad(5, n), self._quad(9, n)
        const, mask1, mask2 = self._layouts
        np.take(mask1, keys, axis=0, out=rows, mode="clip")  # keys are in range
        rows &= digits
        np.take(mask2, keys, axis=0, out=spare, mode="clip")
        # the digits shifted one byte right are the digit rows read from one byte
        # earlier; the byte that comes in from before a row lands where mask2 is 0
        rows |= np.bitwise_and(spare, self._quad(5, n, back=1), out=spare)
        np.take(const, keys, axis=0, out=spare, mode="clip")
        rows |= spare
        text = rows.view(np.uint8)
        for k in fallback:
            cell = ("%.17g" % columns[k % cols][k // cols]
                    + ("," if (k + 1) % cols else "\n")).encode()
            text[k, :len(cell)] = np.frombuffer(cell, np.uint8)
        flat = text.reshape(-1)
        return str(flat[np.not_equal(flat, 0, out=spare.view(bool).reshape(-1))].data,
                   "ascii")
