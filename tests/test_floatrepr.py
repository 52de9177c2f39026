"""``_floatrepr.format_rows`` against ``repr``, cell for cell: raw 64-bit
patterns of every finite exponent, and the doubles where a shortest-digits
algorithm or repr's layout has an edge."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omicsurv import _floatrepr


def check(values, width):
    """format_rows on ``values`` as rows of ``width`` gives the repr rows."""
    block = np.array(values, dtype=np.float64).reshape(-1, width)
    assert _floatrepr.format_rows(block) == [
        "".join("," + repr(x) for x in row).encode("ascii") for row in block.tolist()]


def doubles(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


finite_bits = st.builds(lambda sign, exponent, fraction: sign << 63 | exponent << 52 | fraction,
                        st.integers(0, 1), st.integers(0, 2046), st.integers(0, 2**52 - 1))


@given(st.integers(1, 6), st.integers(1, 8), st.data())
@settings(max_examples=200, deadline=None)
def test_random_bit_patterns(width, rows, data):
    bits = data.draw(st.lists(finite_bits, min_size=rows * width, max_size=rows * width))
    check(doubles(bits), width)


def test_every_finite_exponent():
    """Eight seeded fractions, both signs, at each biased exponent 0-2046."""
    gen = np.random.default_rng(0)
    exponent = np.repeat(np.arange(2047, dtype=np.uint64), 8)
    fraction = gen.integers(0, 2**52, exponent.size, dtype=np.uint64)
    sign = gen.integers(0, 2, exponent.size, dtype=np.uint64)
    check(doubles(sign << np.uint64(63) | exponent << np.uint64(52) | fraction), 8)


def neighbours(x):
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


EDGES = {
    "zeros_and_least_subnormals": [0.0, -0.0] + [k * 5e-324 for k in range(1, 40)],
    "least_normal": neighbours(2.2250738585072014e-308),
    "largest": [1.7976931348623157e308, np.nextafter(1.7976931348623157e308, 0.0)],
    # a power of two has a narrower rounding interval below it than above
    "powers_of_two": [math.ldexp(1.0, e) for e in range(-1074, 1024)],
    # where repr switches between fixed and scientific notation
    "layout_switch": [v for x in (1e-4, 1e-5, 1e15, 1e16, 1e17) for v in neighbours(x)],
    "integral": [float(i) for i in range(-300, 300)]
    + [float(2**53 + d) for d in range(-3, 3)] + [10.0**k for k in range(23)],
    "all_17_digits": [0.1 + 0.2, 1 / 3, 2 / 3, 5e-324 * 12345, 9007199254740993.0 / 3,
                      1.2345678901234567e-300, 9.999999999999999e22, 0.30000000000000004],
    "short": [0.1, 0.5, 1.5, 100.25, 1e22, 1e23, 5e-5, 123456.789, 1e100, 1e-100],
}


@pytest.mark.parametrize("name", EDGES)
def test_edges(name):
    values = EDGES[name]
    check(values + [-x for x in values], 1)
    check([values + [-x for x in values]], 2 * len(values))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_value_is_value_error(bad):
    with pytest.raises(ValueError, match="non-finite"):
        _floatrepr.format_rows(np.array([[1.0, bad]]))
