"""Byte-exact `%d` and `%.17g` text of numpy columns, built as character matrices.

A chunk of CSV rows is laid out as one uint8 matrix with a row per line:
each field of the line owns fixed cells of it, and a value's text fills its
cells, NUL where it is shorter.  The chunk's text is the matrix with its NUL
bytes dropped (join), so no value's text is shifted into place.

A float owns 34 cells: 8 for its sign and the "0.000" prefix of the fixed
form below 1, its lead digit, a slot for the point after it, its other 16
digits and 8 for the exponent of the exponential form.  The digits come
from an exact decimal scaling (_decimal): with X = floor(log10|x|), |x|
10^(16-X) is formed as a double-double product (Dekker's two-product) with
a (hi, lo) split of 10^(16-X) built exactly from Python integers; X moves
by one when the product falls outside [1e16, 1e17), and the integer
nearest to it, rounded half to even, is the 17 digits.  The product is
within about 1e-14 of the exact one, so its fraction decides the rounding
unless it lies within 2^-40 of one half.  Such a value, a NaN or infinity,
and a value with |X| > 280, whose scale or split would leave the normal
floats, are formatted by `%`, and so is a column of at most _FEW values,
where `%` is the faster.  The 16 digits are taken 4 at a time from a table
whose zeros are NUL when no nonzero digit follows, which drops trailing
zeros as `%g` does; the slot holds the point of the exponential form and
of X = 0.  The fixed form with 1 <= X <= 16 (10 <= |x| < 1e17) takes one
more pass, which moves the point after digit X and shows the zeros of the
integer part.
Dekker, Numer. Math. 18 (1971); the same fixed-precision conversion is
U. Adams, "Ryu revisited: printf floating point conversion", OOPSLA 2019.

The tables (_tables) are built on the first call, not at import.
"""

import functools
from types import SimpleNamespace

import numpy as np

# cells of a float: the sign and the prefix "0." + up to three zeros (8
# cells, a uint64), the lead digit and a slot for the point after it, the
# other 16 digits (4 uint32 groups of 4) and the exponent "e-308" at most
# (8 cells, a uint64)
_LEAD, _SLOT, _TAIL = 8, 9, 26
_FLOAT_WIDTH = _TAIL + 8
# decimal exponents formatted without `%`, and the range of the tables,
# which leaves room for the move by one and the carry of the rounding
_X_FAST = 280
_X_MIN = -_X_FAST - 2
_GROUP = 10**4
# up to this many values `%` is faster than the kernel's fixed cost of about
# 85 us: 8 against 77 us for 8 values, 86 against 89 for 104, 104 against 89
# for 128 (2-vCPU AMD EPYC, lower quartiles of 400 calls)
_FEW = 100
_NUL, _ZERO, _MINUS, _POINT = 0, ord("0"), ord("-"), ord(".")


def _split(v):
    """v as hi + lo, each with at most 26 significant bits (Veltkamp's splitting)."""
    c = v * 134217729.0
    hi = c - v
    np.subtract(c, hi, out=hi)
    return hi, np.subtract(v, hi, out=c)


def _words(texts) -> np.ndarray:
    """Each bytes string of texts, NUL-padded to 8 bytes, as a uint64."""
    return np.array([t.ljust(8, b"\0") for t in texts], dtype="S8").view(np.uint64)


@functools.cache
def _tables() -> SimpleNamespace:
    """The kernel's tables, built on the first call.

    groups: uint32 text of each 4-digit group, plain, then with the zeros
    that no nonzero digit follows NUL, then with the zeros that no nonzero
    digit precedes NUL.  Indexed by X - _X_MIN: pow_hi + pow_lo is 10^(16-X)
    (pow_hi correctly rounded) and pow_hi_hi + pow_hi_lo is pow_hi in 26-bit
    halves; lead the little-endian uint16 of "0" and the point (exponential
    form, X = 0) or NUL, to which the lead digit is added; whole is X where
    1 <= X <= 16, else 0; head[plus] the uint64 cells of the sign and the
    "0.000" prefix at 2 X + the sign bit; tail the uint64 exponent cells.
    Indexed by X <= 16, in 3 little-endian words of the 24 cells from the
    lead digit on: move marks the cells 1..X, point the cell X + 1.
    """
    digits = (np.arange(_GROUP, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16)
              % 10).astype(np.uint8)
    groups = np.zeros((3, _GROUP, 4), np.uint8)
    groups[0] = digits + _ZERO
    followed = np.maximum.accumulate(digits[:, ::-1], axis=1)[:, ::-1] > 0
    groups[1] = np.where(followed, groups[0], _NUL)
    groups[2] = np.where(np.maximum.accumulate(digits, axis=1) > 0, groups[0], _NUL)

    # 10^(16-X) = num / den; int / int is correctly rounded, and so the rest
    # num / den - hn / hd of its float h = hn / hd
    hi, lo = [], []
    for X in range(_X_MIN, -_X_MIN + 1):
        num, den = (10 ** (16 - X), 1) if X <= 16 else (1, 10 ** (X - 16))
        hn, hd = (num / den).as_integer_ratio()
        hi.append(hn / hd)
        lo.append((num * hd - hn * den) / (den * hd))
    pow_hi_hi, pow_hi_lo = _split(np.array(hi))

    X = np.arange(_X_MIN, -_X_MIN + 1)
    prefix = [b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"" for x in X.tolist()]
    c, x = np.arange(24), np.arange(17)[:, None]
    return SimpleNamespace(
        groups=groups.view(np.uint32).ravel(), pow_hi=np.array(hi), pow_lo=np.array(lo),
        pow_hi_hi=pow_hi_hi, pow_hi_lo=pow_hi_lo,
        lead=np.where((X < -4) | (X > 16) | (X == 0), _POINT << 8, 0).astype(np.int32) + _ZERO,
        whole=np.where((X >= 1) & (X <= 16), X, 0).astype(np.int8),
        move=np.where((c >= 1) & (c <= x), 255, 0).astype(np.uint8).view("<u8"),
        point=np.where(c == x + 1, 255, 0).astype(np.uint8).view("<u8"),
        head=np.array([_words([sign + p for p in prefix for sign in (plus, b"-")])
                       for plus in (b"", b"+")]),
        tail=_words([b"" if -4 <= x < 17 else b"e%+03d" % x for x in X.tolist()]))


def _scaled(a, i, t):
    """The integer nearest to |x| 10^(16-X), rounded half to even, and the
    rest, the product less it, in [-1/2, 1/2] (to about 1e-14); i indexes
    the tables at X.  The product is p + e, p rounded and e its error, which
    is exact (Dekker) as the sum of the products of the 26-bit halves,
    added in this order.
    """
    p = t.pow_hi[i]
    p *= a
    a_hi, a_lo = _split(a)
    h = t.pow_hi_hi[i]
    e = a_hi * h
    e -= p
    e += np.multiply(a_lo, h, out=h)
    h = t.pow_hi_lo[i]
    e += np.multiply(a_hi, h, out=a_hi)
    e += np.multiply(a_lo, h, out=a_lo)
    h = t.pow_lo[i]
    e += np.multiply(a, h, out=h)
    r = np.rint(e)
    digits = p.astype(np.int64)
    digits += r.astype(np.int64)
    e -= r
    return digits, e


def _decimal(x):
    """The 17 significant digits of each |x| as an int64, the index of its
    decimal exponent X in the tables, and the rows where they do not hold:
    x is zero, not finite, beyond |X| = _X_FAST or within the tie guard,
    and the digits are 0 and X is 0.  Temporaries are reused or deleted
    once spent: a chunk's write holds at most about six float64 arrays of
    its length (cli._CHUNK_ROWS).
    """
    t = _tables()
    with np.errstate(all="ignore"):
        a = np.abs(x)
        X = np.floor(np.log10(a))
        # NaN, infinities and zero fail this too; they take X = 0 and a = 2,
        # whose product is no power of ten
        slow = np.flatnonzero(~(np.abs(X) <= _X_FAST))
        a[slow] = 2.0
        X[slow] = 0.0
        i = X.astype(np.intp) - _X_MIN
        del X
        digits, rest = _scaled(a, i, t)
        # X is one off where the product is outside [1e16, 1e17); only the
        # digits at either end can tell, and 10^17 moves up as a carry would
        edge = np.flatnonzero((digits - (10**16 + 1)).view(np.uint64) >= 10**17 - 10**16 - 1)
        if edge.size:
            # up where the product reaches 1e17, down where it is below 1e16
            d, below = digits[edge], rest[edge] < 0
            step = (d >= 10**17).astype(np.intp) - (d - below < 10**16)
            moved = edge[step != 0]
            if moved.size:
                i[moved] += step[step != 0]
                digits[moved], rest[moved] = _scaled(a[moved], i[moved], t)
                # a product moved down that rounds to 10^17 carries back
                carry = moved[digits[moved] == 10**17]
                digits[carry] = 10**16
                i[carry] += 1
        del a
        # within 2^-40 of one half: a tie or too near one
        slow = np.concatenate((slow, np.flatnonzero(np.abs(rest, out=rest) > 0.5 - 2.0**-40)))
    digits[slow] = 0
    i[slow] = -_X_MIN
    return digits, i, slow


def _put_reals(out, x, plus=False):
    """Write the text '%.17g' % v (with plus, '%+.17g' % v) of each float64 v
    of x into the first _FLOAT_WIDTH cells of its row of out, every one of them."""
    if x.size <= _FEW:
        _put_by_percent(out, x, slice(None), plus)
        return
    t = _tables()
    # a zero, and each value left to `%`, is written here as 0 in the fixed form
    digits, i, slow = _decimal(x)

    # the 16 digits after the lead, 4 at a time from the last, from the table
    # whose zeros are NUL while no nonzero digit has followed; one V16 store
    text = np.empty((x.size, 4), np.uint32)
    trailing = True
    for k in (3, 2, 1, 0):
        rest = digits // _GROUP
        g = digits - rest * _GROUP
        np.add(g, _GROUP, out=g, where=trailing)
        text[:, k] = t.groups[g]
        trailing = g == _GROUP
        digits = rest
    out[:, _SLOT + 1:_TAIL].view("V16")[:, 0] = text.view("V16")[:, 0]
    # digits is the lead digit now; a point follows it in the exponential
    # form and at X = 0 if a nonzero digit follows
    out[:, _LEAD:_SLOT + 1].view("<u2")[:, 0] = digits + t.lead[i]
    out[np.flatnonzero(trailing), _SLOT] = _NUL
    del digits, rest, g, text, trailing

    out[:, :_LEAD].view(np.uint64)[:, 0] = t.head[int(plus)][2 * i + np.signbit(x)]
    out[:, _TAIL:_FLOAT_WIDTH].view(np.uint64)[:, 0] = t.tail[i]
    # the fixed form with 1 <= X <= 16: cell p after the lead digit takes
    # cell p + 1 for p = 1..X, its zero shown, and cell X + 1 the point if a
    # digit follows.  Word k from the lead on holds p = 8k..8k+7 (the third
    # reaches into the exponent's cells, NUL in the fixed form)
    words = out[:, _LEAD:_LEAD + 24].view("<u8")
    rows = np.flatnonzero(t.whole[i])
    for k in range(3):
        rows = rows[t.whole[i[rows]] >= 8 * k - 1]
        if not rows.size:
            break
        X, w = t.whole[i[rows]], words[rows, k]
        s = w >> 8 | (words[rows, k + 1] << 56 if k < 2 else 0)
        move, point = t.move[X, k], t.point[X, k]
        words[rows, k] = (w & ~(move | point) | (s | 0x3030303030303030) & move
                          | ((s & point) >> 4 & 0x0101010101010101) * _POINT)

    slow = slow[x[slow] != 0]
    if slow.size:
        _put_by_percent(out, x, slow, plus)


def _put_by_percent(out, x, rows, plus):
    """_put_reals by `%`, one value at a time, for x[rows]."""
    spec = "%+.17g" if plus else "%.17g"
    text = "".join((spec % v).ljust(_FLOAT_WIDTH, "\0") for v in x[rows].tolist())
    out[rows, :_FLOAT_WIDTH] = np.frombuffer(text.encode(), np.uint8).reshape(-1, _FLOAT_WIDTH)


def _int_groups(v) -> int:
    """The 4-digit groups of the largest |v|, at least one."""
    top = max(-int(v.min()), int(v.max())) if v.size else 0
    return max(1, (len(str(top)) + 3) // 4)


def _put_ints(out, v):
    """Write '%d' % n of each integer n of v into the rows of out: a sign cell, then 4 per group."""
    t = _tables()
    count = (out.shape[1] - 1) // 4
    # |v| in uint64: a negative v is negated there, so -2^63 needs no np.abs
    mag = v.astype(np.uint64)
    negative = v < 0
    np.subtract(np.uint64(0), mag, out=mag, where=negative)
    groups = out[:, 1:].view(np.uint32)
    leading = np.ones(v.size, bool)
    for k in range(count):
        g = mag // np.uint64(10 ** (4 * (count - 1 - k))) if k < count - 1 else mag
        g = g % np.uint64(_GROUP)
        index = g.astype(np.intp)
        np.add(index, 2 * _GROUP, out=index, where=leading)
        groups[:, k] = t.groups[index]
        leading &= g == 0
    out[leading, -1] = _ZERO
    out[:, 0] = np.where(negative, _MINUS, _NUL)


def range_cells(k0: int, n: int) -> np.ndarray:
    """The '%d' text of the n consecutive integers k0, k0 + 1, .., k0 + n - 1,
    a row per integer, laid out as _put_ints writes it (a sign cell and 4
    cells per group, NUL before the text).

    Consecutive integers share their higher groups over runs of up to
    10^4: the higher groups of a run are formatted once, from one Python
    integer, and its low groups are one gather from the group table.  The
    negative integers come first, their magnitudes descending.
    """
    t = _tables()
    count = _int_groups(np.array([k0, k0 + n - 1]))
    out = np.zeros((n, 1 + 4 * count), np.uint8)
    groups = out[:, 1:].view(np.uint32)
    negative = min(max(-k0, 0), n)
    out[:negative, 0] = _MINUS
    for start, stop, step, m0 in ((0, negative, -1, -k0), (negative, n, 1, max(k0, 0))):
        r = start
        while r < stop:
            high, low = divmod(m0 + step * (r - start), _GROUP)
            run = min(stop - r, _GROUP - low if step > 0 else low + 1)
            leading = True
            for k in range(count - 1):
                g = high // _GROUP ** (count - 2 - k) % _GROUP
                groups[r:r + run, k] = t.groups[g + 2 * _GROUP if leading else g]
                leading = leading and g == 0
            index = np.arange(low, low + step * run, step)
            if leading:
                index += 2 * _GROUP
            groups[r:r + run, count - 1] = t.groups[index]
            if leading and low == 0:
                out[r, -1] = _ZERO
            r += run
    return out


def _width(col) -> int:
    """The cells a column's values take in a chunk's matrix."""
    kind = col.dtype.kind
    if col.ndim == 2:
        return col.shape[1]
    if kind in "iu":
        return 1 + 4 * _int_groups(col)
    if kind == "c" and (col.imag != 0).any():
        return 2 * _FLOAT_WIDTH + 1
    return _FLOAT_WIDTH


def _put(out, col):
    """Write a column's text into every cell of out, a (len(col), _width(col)) view.

    A 2-D uint8 column is text already (cells); integers are %d, reals %.17g.
    A complex value is %.17g of its real part followed by %+.17gj of its
    imaginary part unless that is zero (-0.0 included).
    """
    kind = col.dtype.kind
    if col.ndim == 2:
        out[:] = col
    elif kind in "iu":
        _put_ints(out, col)
    elif kind != "c":
        _put_reals(out, np.asarray(col, dtype=np.float64))
    else:
        _put_reals(out[:, :_FLOAT_WIDTH], np.asarray(col.real, dtype=np.float64))
        if out.shape[1] > _FLOAT_WIDTH:
            imag = out[:, _FLOAT_WIDTH:]
            _put_reals(imag, np.asarray(col.imag, dtype=np.float64), plus=True)
            imag[:, -1] = ord("j")
            imag[col.imag == 0] = _NUL


def cells(column) -> np.ndarray:
    """The text of each value of a column as a uint8 matrix, a row per value,
    NUL-padded, without the columns that no value uses; join takes it as text."""
    column = np.asarray(column)
    out = np.zeros((column.size, _width(column)), np.uint8)
    _put(out, column)
    # np.take keeps the rows C-contiguous, which a boolean column index does not
    return np.take(out, np.flatnonzero(out.any(axis=0)), axis=1)


def join(fields, buffer: bytearray) -> bytearray:
    """The text of a chunk of rows: `fields` lays out one row as literal strs
    and equal-length columns (numbers, or text from cells), and the chunk
    holds one row per entry of the columns.

    The chunk's matrix is laid out at the start of `buffer`, which grows
    when the chunk needs more, so the chunks of one file reuse its pages.
    Every cell of the matrix is written (_put), so only what a shorter
    chunk leaves of the buffer is zeroed, and dropped with the padding.
    """
    fields = [f.encode() if isinstance(f, str) else np.asarray(f) for f in fields]
    rows = len(next(f for f in fields if not isinstance(f, bytes)))
    widths = [len(f) if isinstance(f, bytes) else _width(f) for f in fields]
    size = rows * sum(widths)
    if len(buffer) < size:
        # size zero bytes in place: extend would copy them from a temporary
        # as large, which shows in the peak RSS
        buffer.__init__(size)
    cells = np.frombuffer(buffer, np.uint8)
    cells[size:] = _NUL
    matrix = cells[:size].reshape(rows, sum(widths))
    start = 0
    for f, width in zip(fields, widths):
        view = matrix[:, start:start + width]
        start += width
        if isinstance(f, bytes):
            view[:] = np.frombuffer(f, np.uint8)
        else:
            _put(view, f)
    return buffer.translate(None, b"\0")
