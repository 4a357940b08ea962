"""The CSV text kernel against CPython's `%`, byte for byte.

csvtext builds `%d`, `%.17g` and `%.17g%+.17gj` text with numpy; `%` on
each value, one at a time, is the oracle.  The suite's filterwarnings turn
any RuntimeWarning the kernel lets escape into a failure.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treedisk import cli, csvtext


@pytest.fixture(autouse=True)
def kernel_at_any_size(monkeypatch):
    # the kernel leaves at most _FEW values to `%`; here it takes every size
    monkeypatch.setattr(csvtext, "_FEW", 0)


def _text(column) -> bytes:
    """What the kernel writes for a column, one value per line."""
    return bytes(csvtext.join([column, "\n"], bytearray()))


def _oracle(values, spec="%.17g") -> bytes:
    return "".join(spec % v + "\n" for v in values).encode()


def _complex_oracle(values) -> bytes:
    return "".join(("%.17g" % z.real if z.imag == 0.0 else "%.17g%+.17gj" % (z.real, z.imag))
                   + "\n" for z in values).encode()


def _floats(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def _neighbours(values, steps=2) -> np.ndarray:
    """Each value and the `steps` floats on either side of it."""
    out = [np.asarray(values, dtype=np.float64)]
    for direction in (-np.inf, np.inf):
        v = out[0]
        for _ in range(steps):
            v = np.nextafter(v, direction)
            out.append(v)
    return np.concatenate(out)


SPECIALS = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e16, 1e17, 1e-5, 1e-4, 0.5, 1.0, 100.0,
     12300.0, 1e15, 1e20, 2.0**53, 2.0**63, 1.7976931348623157e308, 2.2250738585072014e-308],
    # NaN payloads, and NaN with the sign bit set: `%` prints each as nan
    _floats([0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
             0xFFF8000000000000, 0xFFFFFFFFFFFFFFFF]),
])


def test_specials_match_percent():
    for x in (SPECIALS, -SPECIALS):
        assert _text(x) == _oracle(x.tolist())


def test_random_bit_patterns_over_all_exponents_match_percent():
    rng = np.random.default_rng(20)
    x = _floats(rng.integers(0, 2**64, size=200_000, dtype=np.uint64))
    assert _text(x) == _oracle(x.tolist())


def test_subnormals_match_percent():
    rng = np.random.default_rng(21)
    mantissa = rng.integers(1, 2**52, size=20_000, dtype=np.uint64)
    sign = rng.integers(0, 2, size=mantissa.size, dtype=np.uint64) << np.uint64(63)
    x = _floats(mantissa | sign)
    assert _text(x) == _oracle(x.tolist())


def test_log_uniform_values_match_percent():
    rng = np.random.default_rng(22)
    x = 10.0 ** rng.uniform(-323, 308, 100_000) * rng.choice([-1.0, 1.0], 100_000)
    assert _text(x) == _oracle(x.tolist())


def test_neighbours_of_powers_of_ten_match_percent():
    # where floor(log10|x|) is one off and where the rounding carries into
    # the next power: 1e16 and 1e17 bound the scaled product, 1e-5 and 1e-4
    # the fixed and the exponential form
    x = _neighbours([float("1e%d" % k) for k in range(-323, 309)], steps=3)
    assert _text(x) == _oracle(x.tolist())
    assert _text(-x) == _oracle((-x).tolist())


def test_integers_and_dyadic_fractions_match_percent():
    rng = np.random.default_rng(23)
    whole = rng.integers(-2**62, 2**62, size=50_000).astype(np.float64)
    dyadic = rng.integers(-2**53, 2**53, size=50_000) / 2.0 ** rng.integers(0, 64, size=50_000)
    x = np.concatenate([whole, dyadic, np.arange(-1000, 1000) * 1000.0])
    assert _text(x) == _oracle(x.tolist())


def test_a_tie_takes_the_fallback_and_matches_percent(monkeypatch):
    # 1234567890123456.75 has 18 significant digits; `%.17g` rounds it half
    # to even, and its scaled product is exactly k + 1/2, inside the guard
    x = np.array([1234567890123456.75, -1234567890123456.25, 0.5 + 2.0**-53 * 3, 0.1])
    tables = csvtext._tables()
    i = np.floor(np.log10(np.abs(x[:1]))).astype(np.intp) - csvtext._X_MIN
    _, rest = csvtext._scaled(np.abs(x[:1]), i, tables)
    assert abs(rest[0] - np.floor(rest[0]) - 0.5) < 2.0**-40
    formatted = []
    by_percent = csvtext._put_by_percent

    def spy(out, values, rows, plus):
        formatted.extend(values[rows].tolist())
        by_percent(out, values, rows, plus)

    monkeypatch.setattr(csvtext, "_put_by_percent", spy)
    assert _text(x) == _oracle(x.tolist())
    assert _text(x).startswith(b"1234567890123456.8\n")
    assert formatted == [x[0], x[1], x[0], x[1]]


@settings(max_examples=50, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern_matches_percent(bits):
    x = _floats(bits)
    assert _text(x) == _oracle(x.tolist())
    z = np.empty(x.size, dtype=complex)
    z.real, z.imag = x, x[::-1]
    assert _text(z) == _complex_oracle(z.tolist())


def test_signed_reals_match_percent_with_plus():
    x = np.concatenate([SPECIALS, -SPECIALS, _neighbours([1.0, 0.1, 1e-300, 1e300])])
    out = np.zeros((x.size, csvtext._FLOAT_WIDTH), np.uint8)
    csvtext._put_reals(out, x, plus=True)
    assert bytes(out[out != 0]) == _oracle(x.tolist(), "%+.17g").replace(b"\n", b"")


def _plus_text(x) -> bytes:
    """What the kernel writes for '%+.17g', one value per line."""
    out = np.zeros((x.size, csvtext._FLOAT_WIDTH + 1), np.uint8)
    csvtext._put_reals(out, x, plus=True)
    out[:, -1] = ord("\n")
    return bytes(out[out != 0])


def test_every_fixed_exponent_mixed_with_the_exponential_form_matches_percent():
    # X from -5 (exponential) to 17 (exponential again), the fixed form
    # between; in one column, and 1 <= X <= 16 puts the point after digit X
    rng = np.random.default_rng(25)
    mantissas = np.concatenate([rng.uniform(1.0, 10.0, 40), [1.0, 1.5, 9.999, 1.0000000000000002,
                                                             3.0000000000000004, 7.25]])
    x = np.concatenate([m * 10.0 ** np.arange(-5, 18) for m in mantissas]
                       + [[1e-300, 2.5e20, 0.0, 6.02e23, 1e-7]])
    rng.shuffle(x)
    for column in (x, -x, x * rng.choice([-1.0, 1.0], x.size)):
        assert _text(column) == _oracle(column.tolist())
        assert _plus_text(column) == _oracle(column.tolist(), "%+.17g")


def test_integer_parts_with_zeros_match_percent():
    # the fixed form shows every digit up to the point, zeros included, and
    # the point only if a nonzero digit follows it
    x = np.array([10.0, 100.5, 1e15, 2.0**53, 1000.0, 1e16, 100.0, 10.000000000000002, 101.0,
                  100000.00100000001, 20.5, 9007199254740993.0, 99999999999999984.0, 1e16 + 2,
                  1234000000000000.0, 120.00000000000001])
    for column in (x, -x):
        assert _text(column) == _oracle(column.tolist())
        assert _plus_text(column) == _oracle(column.tolist(), "%+.17g")


def test_fixed_values_without_a_fraction_write_no_point():
    x = np.concatenate([[12345.0, 9999999999999998.0, 123.0, 10.0, 4.0, 1e16, 7e15, 99.0],
                        np.arange(1, 2000) * 13.0])
    text = _text(x)
    assert text == _oracle(x.tolist()) and b"." not in text
    assert _plus_text(-x) == _oracle((-x).tolist(), "%+.17g")


def test_a_column_without_integer_parts_skips_the_fixed_pass():
    # no value has 10 <= |v| < 1e17, so no row takes the fixed-form pass
    rng = np.random.default_rng(26)
    x = np.concatenate([rng.uniform(-9.9, 9.9, 500), 10.0 ** rng.uniform(-20, 1, 500),
                        10.0 ** rng.uniform(17, 300, 500), [0.0, -0.0, 1.0, 9.5, 1e17]])
    whole = csvtext._tables().whole
    assert not whole[csvtext._decimal(x)[1]].any()
    assert whole[csvtext._decimal(np.array([10.0, 9.99]))[1]].tolist() == [1, 0]
    assert _text(x) == _oracle(x.tolist())
    assert _plus_text(x) == _oracle(x.tolist(), "%+.17g")


def test_complex_values_match_percent():
    nan, inf = float("nan"), float("inf")
    z = np.array([1 + 0j, complex(-2.0, -0.0), complex(0.0, nan), complex(-0.0, 0.0),
                  complex(inf, -inf), complex(nan, 1e-300), 0.1 + 0.2j, complex(1.5, -0.0),
                  complex(5e-324, -5e-324), complex(1e16, 1e17)])
    assert _text(z) == _complex_oracle(z.tolist())
    # a chunk whose imaginary parts are all zero, and one whose are all nonzero
    assert _text(z[[0, 1, 3, 7]]) == _complex_oracle(z[[0, 1, 3, 7]].tolist())
    assert _text(z[[2, 4, 6]]) == _complex_oracle(z[[2, 4, 6]].tolist())


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint8, np.uint64])
def test_integers_match_percent_up_to_the_extremes(dtype):
    info = np.iinfo(dtype)
    v = np.array([info.min, info.min + 1, -1, 0, 1, 9, 10, 9999, 10000, info.max - 1, info.max]
                 if info.min < 0 else [0, 1, 9, 10, 9999, 10000, info.max - 1, info.max],
                 dtype=np.int64 if info.min < 0 else np.uint64)
    v = v[(v >= info.min) & (v <= info.max)].astype(dtype)
    assert _text(v) == _oracle(v.tolist(), "%d")


def test_random_int64_match_percent():
    rng = np.random.default_rng(24)
    v = np.concatenate([rng.integers(-2**63, 2**63 - 1, size=50_000, dtype=np.int64),
                        [-2**63, 2**63 - 1], rng.integers(-99, 99, size=1000)])
    assert _text(v) == _oracle(v.tolist(), "%d")
    assert _text(v[-1000:]) == _oracle(v[-1000:].tolist(), "%d")


@settings(max_examples=60, deadline=None)
@given(k0=st.one_of(st.integers(-30_000, 30_000), st.integers(-2**62, 2**62),
                    st.sampled_from([0, -1, 9_999, -10_000, 10**8 - 5, -10**8 + 2])),
       n=st.integers(0, 25_000))
def test_consecutive_integers_match_percent_and_the_column_kernel(k0, n):
    # runs across 4-digit group boundaries, across zero and of every length
    # up to more than two runs; the same cells as the column kernel writes
    cells = csvtext.range_cells(k0, n)
    v = np.arange(k0, k0 + n, dtype=np.int64)
    column = np.zeros(cells.shape, np.uint8)
    csvtext._put_ints(column, v)
    assert np.array_equal(cells, column)
    assert bytes(csvtext.join([cells, "\n"], bytearray())) == _oracle(range(k0, k0 + n), "%d")


def test_the_kernel_warns_about_nothing():
    values = [SPECIALS, -SPECIALS, _floats(np.arange(4096, dtype=np.uint64) << np.uint64(52))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in values:
            z = np.empty(x.size, dtype=complex)
            z.real, z.imag = x, x[::-1]
            _text(x)
            _text(z)
        _text(np.array([-2**63, 2**63 - 1], dtype=np.int64))


def test_cells_are_trimmed_text_that_join_takes_back():
    x = np.array([1.0, -2.5, 1e-300])
    cells = csvtext.cells(x)
    assert cells.dtype == np.uint8 and cells.flags.c_contiguous
    assert (cells != 0).any(axis=0).all()
    assert bytes(csvtext.join(["<", cells, ">", np.arange(3), "\n"], bytearray())) == \
        b"".join(b"<%s>%d\n" % (b"%.17g" % v, i) for i, v in enumerate(x.tolist()))
    assert bytes(csvtext.join([np.zeros(0), "\n"], bytearray())) == b""


def test_one_buffer_serves_every_chunk_of_a_file():
    # the chunks of a file share one buffer: a longer chunk grows it, and a
    # shorter one, or one whose columns take fewer cells, leaves NUL behind
    # its matrix, which is dropped; each chunk reads as if its buffer were new
    buffer = bytearray()
    for n, imag in ((5, 0.0), (3, 1.5), (9, 0.0), (1, -2.0)):
        k = np.arange(-n, 0) * 10**n
        z = np.arange(n) / 7.0 + imag * 1j
        fields = [k, ",", z, "\n"]
        assert csvtext.join(fields, buffer) == csvtext.join(fields, bytearray())
    assert len(buffer) == 9 * (1 + 4 * 3 + 1 + csvtext._FLOAT_WIDTH + 1)


def test_a_short_column_is_formatted_by_percent(monkeypatch):
    x = np.concatenate([SPECIALS, -SPECIALS, [0.1, 1.0 / 3.0]])
    monkeypatch.setattr(csvtext, "_FEW", x.size)
    monkeypatch.setattr(csvtext, "_tables", None)
    assert _text(x) == _oracle(x.tolist())


def _cell(v) -> str:
    if isinstance(v, int):
        return "%d" % v
    if isinstance(v, complex):
        return "%.17g" % v.real if v.imag == 0.0 else "%.17g%+.17gj" % (v.real, v.imag)
    return "%.17g" % v


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_chunked_rows_of_every_kind_match_percent(data, tmp_path_factory):
    # the CLI's writer over random splits, every column through the kernel:
    # int64 up to the extremes, any float bits, complex with zero, -0.0 and
    # NaN imaginary parts, and the floats again as text (cli._distinct_text)
    n = data.draw(st.integers(0, 60))
    ints = np.array(data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)),
                    dtype=np.int64)
    x = _floats(data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n)))
    imag = np.array([0.0, -0.0, float("nan"), 1e-300, -2.5])
    z = np.empty(n, dtype=complex)
    z.real = x[::-1]
    z.imag = imag[data.draw(st.lists(st.integers(0, imag.size - 1), min_size=n, max_size=n))]
    cuts = sorted(set(data.draw(st.lists(st.integers(0, n), max_size=5))) | {0, n})
    columns = [ints, x, z, cli._distinct_text(x)]
    out = tmp_path_factory.getbasetemp() / "kinds.csv"
    cli._write_chunks(str(out), ("i", "x", "z", "t"),
                      [cli._row([col[a:b] for col in columns]) for a, b in zip(cuts, cuts[1:])])
    rows = zip(ints.tolist(), x.tolist(), z.tolist(), x.tolist())
    expected = "i,x,z,t\n" + "".join(",".join(map(_cell, row)) + "\n" for row in rows)
    assert out.read_bytes() == expected.encode()
