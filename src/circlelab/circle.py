"""Circle arithmetic: points, the shortest-arc metric, and arcs.

The circle is R/Z.  Points are plain floats (or numpy arrays) normalized
into [0, 1); there is deliberately no point wrapper class, so everything
vectorizes.  Arcs are positively oriented intervals given by a left
endpoint and a length in (0, 1).

`wrap` is the one reduction mod 1; every other module reduces through it
(a test fails on any other `% 1`, np.mod, np.remainder or np.fmod).  It
computes x - floor(x) rather than numpy's float remainder x % 1.0, which
also computes the floor quotient and its sign fix-up: on 6144 float64
values (2-core x86 host, numpy 2.4.6) `x % 1.0` takes 110-120 us and
`x - np.floor(x)` 7-9 us.  The bits agree for every finite x: fmod(x, 1)
is exact, and for a negative non-integer the remainder rounds
fmod(x, 1) + 1 once, while x - floor(x) rounds the same exact value once;
integers and -0.0 give +0.0 either way, and -5e-17 wraps to 1.0 in both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def wrap(x):
    """Normalize circle coordinates into [0, 1], bit for bit `x % 1.0`
    (1.0 only where a tiny negative x rounds up to it)."""
    x = np.asarray(x, dtype=float)
    return x - np.floor(x)


def circle_dist(u, v):
    """Shortest-arc distance on R/Z; always in [0, 1/2]."""
    d = wrap(np.asarray(u, dtype=float) - np.asarray(v, dtype=float))
    return np.minimum(d, 1.0 - d)


def lift_steps(steps, turns):
    """Lift, in place, the differences steps (..., n) of rows of circle
    values sampled along degree-one monotone paths; returns steps.  A row
    wraps once, at its most negative step, which gains a turn; its other
    negative steps are rounding backsteps (in a collapsed cluster) and stay,
    and a step of a full turn (0 to 1.0) reads 0.  turns (float, steps'
    shape) is scratch."""
    if steps.shape[-1]:
        at = np.argmin(steps, axis=-1, keepdims=True)
        wrap_turn = np.take_along_axis(np.floor(steps, out=turns), at, axis=-1)
        np.maximum(turns, 0.0, out=turns)
        np.put_along_axis(turns, at, wrap_turn, axis=-1)
        steps -= turns
    return steps


def unwrap_increasing(values):
    """Lift circle values sampled along an increasing path to a monotone
    real sequence starting at values[0], wrapping once (`lift_steps`).

    Assumes consecutive samples advance by less than a full turn, which
    holds for any degree-one monotone map sampled on a reasonable grid.
    """
    v = np.asarray(values, dtype=float)
    steps = np.diff(v)
    return np.concatenate([v[:1], v[0] + np.cumsum(lift_steps(steps, np.empty_like(steps)))])


@dataclass(frozen=True)
class Arc:
    """Positively oriented arc [left, left+length) on R/Z."""

    left: float
    length: float

    def __post_init__(self):
        if not (0.0 < self.length < 1.0):
            raise ValueError(f"arc length must lie in (0,1), got {self.length}")
        object.__setattr__(self, "left", float(wrap(self.left)))

    @property
    def right(self) -> float:
        return float(wrap(self.left + self.length))

    @property
    def midpoint(self) -> float:
        return float(wrap(self.left + 0.5 * self.length))

    def grid(self, n: int) -> np.ndarray:
        """n evenly spaced points on the arc, endpoints included."""
        if n < 2:
            raise ValueError("arc grid needs at least 2 points")
        return wrap(self.left + np.linspace(0.0, self.length, n))

    @staticmethod
    def from_endpoints(left, right) -> "Arc":
        """Arc running positively from left to right."""
        length = float(wrap(float(right) - float(left)))
        return Arc(float(left), length)

