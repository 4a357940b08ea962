"""Byte-exact `%d` and `%.17g` text of numpy columns, built as character matrices.

A chunk of CSV rows is laid out as one uint8 matrix with a row per line:
each field of the line owns fixed cells of it, and a value's text fills its
cells, NUL where it is shorter.  The chunk's text is the matrix with its NUL
bytes dropped (join), so no value's text is shifted into place.

A float's cells are its sign, the "0.000" prefix of the fixed form below 1,
its 17 significant digits each followed by a slot for the point, and the
exponent of the exponential form.  The digits come from an exact decimal
scaling (_decimal): with X = floor(log10|x|), |x| 10^(16-X) is formed as a
double-double product (Dekker's two-product) with a (hi, lo) split of
10^(16-X) built exactly from Python integers; X moves by one when the
product falls outside [1e16, 1e17), and the integer nearest to it, rounded
half to even, is the 17 digits.  The product is within about 1e-14 of the
exact one, so its fraction decides the rounding unless it lies within
2^-40 of one half.  Such a value, a NaN or infinity, and a value with
|X| > 280, whose scale or split would leave the normal floats, are
formatted by `%`, and so is a column of at most _FEW values, where `%` is
the faster.  The digits are taken 4 at a time from a table whose zeros are
NUL when no nonzero digit follows, which drops trailing zeros as `%g` does.
Dekker, Numer. Math. 18 (1971); the same fixed-precision conversion is
U. Adams, "Ryu revisited: printf floating point conversion", OOPSLA 2019.

The tables (_tables) are built on the first call, not at import.
"""

import functools
from types import SimpleNamespace

import numpy as np

# cells of a float: the sign and the prefix "0." + up to three zeros (8
# cells), the 17 digits each followed by a point slot, and the exponent
# "e-308" at most (8 cells); the 8-cell parts are written as uint64
_DIGITS = slice(8, 42, 2)
_FLOAT_WIDTH = 50
# decimal exponents formatted without `%`, and the range of the tables,
# which leaves room for the move by one and the carry of the rounding
_X_FAST = 280
_X_MIN = -_X_FAST - 2
_GROUP = 10**4
# up to this many values `%` is faster than the kernel's fixed cost of about
# 50 us: 4 us against 50 us for 12 values, 44 against 54 for 128
_FEW = 128
_NUL, _ZERO, _MINUS, _PLUS, _POINT = 0, ord("0"), ord("-"), ord("+"), ord(".")


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
    digit precedes NUL.  The rest is indexed by X - _X_MIN: pow_hi + pow_lo
    is 10^(16-X) (pow_hi correctly rounded, pow_lo the rest rounded), and
    pow_hi_hi + pow_hi_lo is pow_hi in 26-bit halves; point is the digit a
    point may follow (X in the fixed form, 0 in the exponential one, -1 for
    none); least is how many digits the fixed form shows even if they are
    zero (X + 1); head is the uint64 cells of the sign and the "0.000"
    prefix, 3 per X for no sign, "+" and "-"; tail the uint64 exponent cells.
    """
    digits = (np.arange(_GROUP, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16)
              % 10).astype(np.uint8)
    groups = np.zeros((3, _GROUP, 4), np.uint8)
    groups[0] = digits + _ZERO
    followed = np.maximum.accumulate(digits[:, ::-1], axis=1)[:, ::-1] > 0
    groups[1] = np.where(followed, groups[0], _NUL)
    groups[2] = np.where(np.maximum.accumulate(digits, axis=1) > 0, groups[0], _NUL)

    hi, lo = [], []
    for X in range(_X_MIN, -_X_MIN + 1):
        s = 16 - X
        if s >= 0:
            h = float(10**s)
            hi.append(h)
            lo.append(float(10**s - int(h)))
        else:
            # int / int is correctly rounded; 10^s - h = (den - num 10^-s) / (den 10^-s)
            h = 1 / 10**-s
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * 10**-s) / (den * 10**-s))
    pow_hi = np.array(hi)
    pow_hi_hi, pow_hi_lo = _split(pow_hi)

    X = np.arange(_X_MIN, -_X_MIN + 1)
    fixed = (X >= -4) & (X < 17)
    prefix = [b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"" for x in X.tolist()]
    return SimpleNamespace(
        groups=groups.view(np.uint32).ravel(), pow_hi=pow_hi, pow_lo=np.array(lo),
        pow_hi_hi=pow_hi_hi, pow_hi_lo=pow_hi_lo,
        point=np.where(fixed, np.where((X >= 0) & (X < 16), X, -1), 0).astype(np.int8),
        least=np.where(fixed & (X >= 0), X + 1, 0).astype(np.int8),
        head=_words([sign + p for p in prefix for sign in (b"", b"+", b"-")]),
        tail=_words([b"" if -4 <= x < 17 else b"e%+03d" % x for x in X.tolist()]))


def _scaled(a, i, t):
    """|x| 10^(16-X) as p + e: p the rounded product, e the rest (to about 1e-14).

    i indexes the tables at X.  The hi part of the product is exact
    (Dekker): its error is the sum of the products of the 26-bit halves,
    added in this order.
    """
    p = t.pow_hi[i]
    p *= a
    a_hi, a_lo = _split(a)
    h = t.pow_hi_hi[i]
    e = a_hi * h
    e -= p
    term = a_lo * h
    e += term
    np.take(t.pow_hi_lo, i, out=h)
    e += np.multiply(a_hi, h, out=term)
    e += np.multiply(a_lo, h, out=term)
    np.take(t.pow_lo, i, out=h)
    e += np.multiply(a, h, out=term)
    return p, e


def _decimal(x):
    """The 17 significant digits of each |x| as an int64, the index of its
    decimal exponent X in the tables, and where both hold: elsewhere x is
    zero, not finite, beyond |X| = _X_FAST or within the tie guard, and the
    digits are 0 and X is 0.

    Temporaries are reused or deleted once spent: a chunk's write holds at
    most about eight float64 arrays of its length (cli._CHUNK_ROWS).
    """
    t = _tables()
    with np.errstate(all="ignore"):
        a = np.abs(x)
        X = np.log10(a)
        np.floor(X, out=X)
        # NaN, infinities and zero fail this too; they take X = 0 and a = 1
        fast = (X <= _X_FAST) & (X >= -_X_FAST)
        a[~fast] = 1.0
        X[~fast] = 0.0
        i = X.astype(np.intp)
        del X
        i -= _X_MIN
        p, e = _scaled(a, i, t)
        up = (p - 1e17) + e >= 0
        down = (p - 1e16) + e < 0
        moved = np.flatnonzero(up | down)
        if moved.size:
            i[moved] += up[moved].astype(np.intp) - down[moved]
            p[moved], e[moved] = _scaled(a[moved], i[moved], t)
        del a, up, down
        digits = p.astype(np.int64)
        digits += np.rint(e, out=p).astype(np.int64)
        # the fraction of e, within 2^-40 of one half: a tie or too near one
        e -= np.floor(e, out=p)
        e -= 0.5
        fast &= np.abs(e, out=e) >= 2.0**-40
    fast &= (digits >= 10**16) & (digits <= 10**17)
    carry = fast & (digits == 10**17)
    digits[carry] = 10**16
    i += carry
    digits[~fast] = 0
    i[~fast] = -_X_MIN
    return digits, i, fast


def _put_reals(out, x, plus=False):
    """Write the text '%.17g' % v (with plus, '%+.17g' % v) of each float64 v
    of x into the first _FLOAT_WIDTH cells of its row of out, a zeroed view."""
    if x.size <= _FEW:
        _put_by_percent(out, x, slice(None), plus)
        return
    t = _tables()
    # a zero, and each value left to `%`, is written here as 0 in the fixed form
    digits, i, fast = _decimal(x)

    # the digits as 9 + 8, in int32, then 1 + 4 + 4 + 4 + 4
    high = (digits // 10**8).astype(np.int32)
    low = (digits - high.astype(np.int64) * 10**8).astype(np.int32)
    first = high // _GROUP
    lead = first // _GROUP
    third, fifth = low // _GROUP, high - first * _GROUP
    groups = [low - third * _GROUP, third, fifth, first - lead * _GROUP]
    # the first digit, then 4 groups of 4 digits, each digit followed by a point slot
    out[:, 8] = np.where(digits > 0, lead + _ZERO, _NUL)
    del digits, high, low, first, lead, third, fifth
    text = np.empty((x.size, 4), np.uint32)
    trailing = np.ones(x.size, bool)
    for k, g in enumerate(groups):
        index = g.astype(np.intp)
        np.add(index, _GROUP, out=index, where=trailing)
        text[:, 3 - k] = t.groups[index]
        trailing &= g == 0
    out[:, 10:42:2] = text.view(np.uint8)
    del groups, trailing, index, text

    # a point after digit `point` if a nonzero digit follows it
    point = t.point[i]
    rows = np.flatnonzero(point >= 0)
    cell = 2 * point[rows].astype(np.intp) + 9
    shown = out[rows, cell + 1] != _NUL
    out[rows[shown], cell[shown]] = _POINT
    # the fixed form shows digits up to the point even if they are zero
    least = t.least[i]
    rows = np.flatnonzero(least)
    rows = rows[out[rows, 2 * least[rows].astype(np.intp) + 6] == _NUL]
    if rows.size:
        cells = out[rows, _DIGITS]
        cells[(cells == _NUL) & (np.arange(17) < least[rows, None])] = _ZERO
        out[rows, _DIGITS] = cells
    sign = np.where(np.signbit(x), 2, 1 if plus else 0)
    sign += 3 * i
    out[:, :8].view(np.uint64)[:, 0] = t.head[sign]
    out[:, 42:50].view(np.uint64)[:, 0] = t.tail[i]

    slow = np.flatnonzero(~fast)
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
    top = max(abs(k0), abs(k0 + n - 1))
    count = max(1, (len(str(top)) + 3) // 4)
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
    """Write a column's text into out, a zeroed (len(col), _width(col)) view.

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
    when the chunk needs more and is zeroed for each chunk, so the chunks
    of one file reuse its pages; what a shorter chunk leaves of it is NUL,
    and dropped with the padding.
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
    cells[:] = _NUL
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
