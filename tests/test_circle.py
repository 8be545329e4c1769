"""`circle.wrap`, the one reduction mod 1, against numpy's `x % 1.0`, and
the lift of degree-one rows (`lift_steps`, `unwrap_increasing`)."""

import numpy as np
import pytest

from circlelab.circle import lift_steps, unwrap_increasing, wrap

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


def cluster_row():
    """A degree-one row collapsed to a cluster at 0.3, as r_n^{-1} of a
    contracting walk maps a grid: samples a few ulps apart, stepping back
    and forth, around a sweep of the rest of the circle that crosses 0."""
    rng = np.random.default_rng(4)
    cluster = 0.3 + rng.integers(-2, 3, 80) * np.spacing(0.3)
    return np.concatenate([cluster[:40], wrap(0.3 + np.linspace(0.02, 0.98, 15)), cluster[40:]])


def test_a_cluster_row_with_ulp_backsteps_wraps_once():
    row = cluster_row()
    steps = np.diff(row)
    assert np.count_nonzero((steps < 0) & (steps > -1e-15)) > 10   # ulp backsteps
    lifted = unwrap_increasing(row)
    assert lifted[-1] - lifted[0] == pytest.approx(1.0, abs=1e-14)
    assert np.min(np.diff(lifted)) > -1e-15   # the backsteps stay ulp-sized
    # each row of a batch lifts as it does alone
    rows = np.stack([steps, np.diff(wrap(0.7 + np.linspace(0.0, 1.0, len(row))))])
    alone = [lift_steps(r.copy(), np.empty_like(r)) for r in rows]
    assert np.array_equal(lift_steps(rows.copy(), np.empty_like(rows)), np.stack(alone))


def test_a_row_with_one_wrap_lifts_to_the_wrapped_steps_bit_for_bit():
    rng = np.random.default_rng(6)
    for start in (0.0, 0.3, 0.999):
        row = wrap(start + np.sort(rng.random(500)))
        assert np.count_nonzero(np.diff(row) < 0) <= 1
        want = np.concatenate([row[:1], row[0] + np.cumsum(wrap(np.diff(row)))])
        assert np.array_equal(bits(unwrap_increasing(row)), bits(want))
    assert list(unwrap_increasing([0.0, 1.0, 0.5])) == [0.0, 0.0, 0.5]   # a full turn reads 0
    assert list(unwrap_increasing([0.25])) == [0.25]
