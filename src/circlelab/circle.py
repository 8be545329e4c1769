"""Circle arithmetic: points, the shortest-arc metric, and arcs.

The circle is R/Z.  Points are plain floats (or numpy arrays) normalized
into [0, 1); there is deliberately no point wrapper class, so everything
vectorizes.  Arcs are positively oriented intervals given by a left
endpoint and a length in (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def wrap(x):
    """Normalize circle coordinates into [0, 1)."""
    return np.asarray(x, dtype=float) % 1.0


def circle_dist(u, v):
    """Shortest-arc distance on R/Z; always in [0, 1/2]."""
    d = np.abs((np.asarray(u, dtype=float) - np.asarray(v, dtype=float)) % 1.0)
    return np.minimum(d, 1.0 - d)


def unwrap_increasing(values):
    """Lift circle values sampled along an increasing path to a monotone
    real sequence starting at values[0].

    Assumes consecutive samples advance by less than a full turn, which
    holds for any degree-one monotone map sampled on a reasonable grid.
    """
    v = np.asarray(values, dtype=float)
    steps = np.diff(v) % 1.0
    return np.concatenate([v[:1], v[0] + np.cumsum(steps)])


@dataclass(frozen=True)
class Arc:
    """Positively oriented arc [left, left+length) on R/Z."""

    left: float
    length: float

    def __post_init__(self):
        if not (0.0 < self.length < 1.0):
            raise ValueError(f"arc length must lie in (0,1), got {self.length}")
        object.__setattr__(self, "left", float(self.left) % 1.0)

    @property
    def right(self) -> float:
        return (self.left + self.length) % 1.0

    @property
    def midpoint(self) -> float:
        return (self.left + 0.5 * self.length) % 1.0

    def contains(self, x) -> np.ndarray:
        """Membership test, consistent under mod-1 wraparound."""
        rel = (np.asarray(x, dtype=float) - self.left) % 1.0
        return rel <= self.length

    def grid(self, n: int) -> np.ndarray:
        """n evenly spaced points on the arc, endpoints included."""
        if n < 2:
            raise ValueError("arc grid needs at least 2 points")
        return (self.left + np.linspace(0.0, self.length, n)) % 1.0

    @staticmethod
    def from_endpoints(left, right) -> "Arc":
        """Arc running positively from left to right."""
        length = (float(right) - float(left)) % 1.0
        return Arc(float(left), length)

