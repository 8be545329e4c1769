"""`circle.wrap`, the one reduction mod 1, against numpy's `x % 1.0`."""

import numpy as np

from circlelab.circle import wrap

TINY = np.finfo(float).tiny       # smallest normal; below it the subnormals
EDGES = np.array([
    0.0, -0.0, 1e-300, -1e-300, 5e-17, -5e-17, 0.5, -0.5,
    1.0, -1.0, 3.0, -3.0, 7e15, -7e15, 2.0 ** 53, -(2.0 ** 53), 2.0 ** 51 + 0.5, -(2.0 ** 51 + 0.5),
    np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0), np.nextafter(0.0, 1.0), np.nextafter(0.0, -1.0),
    TINY, -TINY, TINY / 3, -TINY / 3, 1e300, -1e300, np.finfo(float).max, -np.finfo(float).max,
])


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def test_wrap_matches_the_float_remainder_on_edge_cases():
    assert np.array_equal(bits(wrap(EDGES)), bits(EDGES % 1.0))
    for x in EDGES:    # one value at a time, as the scalar call sites pass them
        assert bits(wrap(x)) == bits(x % 1.0) == bits(float(x) % 1.0)


def test_wrap_edge_values():
    assert bits(wrap(-0.0)) == bits(0.0)          # +0.0, not -0.0
    assert wrap(-5e-17) == 1.0                    # 1 - 5e-17 rounds up to 1
    assert wrap(np.nextafter(-1.0, 0.0)) == 2.0 ** -53
    assert wrap(-TINY / 3) == 1.0
    assert wrap(2.0 ** 51 + 0.5) == 0.5


def test_wrap_matches_the_float_remainder_on_random_draws():
    rng = np.random.default_rng(9)
    for scale in 10.0 ** np.arange(-20, 21):
        x = rng.standard_normal(20_000) * scale
        assert np.array_equal(bits(wrap(x)), bits(x % 1.0)), scale


def test_wrap_keeps_shape_and_takes_integers():
    assert wrap(np.zeros((3, 4))).shape == (3, 4)
    assert np.array_equal(bits(wrap(np.arange(-5, 5))), bits(np.arange(-5, 5) % 1.0))
    assert isinstance(wrap(0.25), np.floating) and wrap(0.25) == 0.25
