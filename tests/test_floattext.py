"""`floattext.reprs` against float.__repr__, called directly whatever the
size at which the record writer switches to it."""

import sys

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from normlab.floattext import reprs


def _assert_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    assert reprs(values) == list(map(float.__repr__, values.tolist()))


def _with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def test_random_bit_patterns():
    bits = np.random.default_rng(30).integers(0, 2**64, 2**17, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    _assert_reprs(values[np.isfinite(values)])


def test_every_power_of_two_with_its_neighbours():
    # every exponent, at the power itself, where the double below is half as
    # far as the one above, and at its regular neighbours
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    _assert_reprs(_with_neighbours(np.concatenate([powers, -powers])))


def test_every_power_of_ten_with_its_neighbours():
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    _assert_reprs(_with_neighbours(np.concatenate([powers, -powers])))


def test_integers_around_2_to_the_53():
    middle = np.arange(-1000, 1000, dtype=np.float64)
    _assert_reprs(np.concatenate([2.0**53 + middle, -(2.0**53) + middle, 2.0**54 + 2 * middle, middle]))


def test_layout_boundaries():
    # the last positional and first exponent form on each side
    values = [1e-05, 0.0001, 9999999999999998.0, 1e16]
    assert reprs(np.array(values)) == ["1e-05", "0.0001", "9999999999999998.0", "1e+16"]
    _assert_reprs(_with_neighbours(values + [-v for v in values]))


def test_zeros_the_smallest_subnormal_and_the_largest_double():
    values = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max, sys.float_info.min]
    _assert_reprs(values)
    assert reprs(np.array([-0.0, 5e-324])) == ["-0.0", "5e-324"]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=64))
def test_any_batch_of_finite_floats(values):
    _assert_reprs(values)
