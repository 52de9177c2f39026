"""The float text of a matrix file against ``repr``, cell for cell:
``save_expression`` writes each row as ``",".join(repr(x) for x in row)``
after its id. Raw 64-bit patterns of every finite exponent, and the doubles
where a shortest-digits algorithm or repr's layout has an edge, including
both ends of [1e-4, 1e16), outside which the writer re-formats a cell with
``repr``."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omicsurv import dataio


def check(values, width):
    """``save_expression`` of ``values`` as rows of ``width`` writes the repr
    rows, and loading the file gives the same bits."""
    block = np.array(values, dtype=np.float64).reshape(-1, width)
    ids = [f"p{i}" for i in range(len(block))]
    genes = [f"g{j}" for j in range(width)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        dataio.save_expression(dataio.FeatureMatrix(ids, genes, block), path)
        want = "".join(f"{pid},{','.join(repr(x) for x in row)}\r\n"
                       for pid, row in zip(ids, block.tolist()))
        assert path.read_bytes() == (f"patient_id,{','.join(genes)}\r\n" + want).encode()
        again = dataio.load_features(path).values
    assert again.tobytes() == block.tobytes()


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
    # just inside and outside the range where the writer keeps orjson's text
    "range_ends": [v for x in (1e-4, 1e16) for k in (1, 2, 3)
                   for v in (x * (1 - k * 2.0**-53), x * (1 + k * 2.0**-52))]
    + [9.999e-5, 1.0001e-4, 9.999999999999998e15, 1.0000000000000002e16, 1.5e-7, 1e-5],
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
def test_non_finite_value_is_value_error(bad, tmp_path):
    """A matrix whose values were made non-finite after it was built is not
    written."""
    m = dataio.FeatureMatrix(["p1"], ["f1", "f2"], np.array([[1.0, 2.0]]))
    m.values[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        dataio.save_expression(m, tmp_path / "m.csv")
