"""Third-order jets of orientation-preserving circle maps.

A Jet3 stores the value and the first three derivatives of a map at a
point (all fields may be numpy arrays, so jets vectorize over grids).
Composition follows the third-order chain rule, and the logarithmic and
Schwarzian derivatives

    L g = g''/g',        S g = g'''/g' - (3/2) (g''/g')^2

are evaluated directly from the stored derivatives.  Both satisfy the
cocycle rules

    L(u o v) = (L u o v) v'  + L v
    S(u o v) = (S u o v) v'^2 + S v

which the test suite checks to near machine precision on random words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import wrap

TWO_PI_SQ = 2.0 * np.pi ** 2


@dataclass(frozen=True)
class Jet3:
    """Value and derivatives (d1, d2, d3) of a circle map at a point."""

    value: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray

    def require_orientation(self):
        if np.any(np.asarray(self.d1) <= 0):
            raise ValueError("jet has non-positive derivative; maps must preserve orientation")
        return self


def identity_jet(x) -> Jet3:
    x = wrap(x)
    one = np.ones_like(x)
    zero = np.zeros_like(x)
    return Jet3(x, one, zero, zero)


def compose(outer: Jet3, inner: Jet3) -> Jet3:
    """Jet of (outer o inner); outer must be evaluated at inner.value."""
    f1, f2, f3 = inner.d1, inner.d2, inner.d3
    g1, g2, g3 = outer.d1, outer.d2, outer.d3
    return Jet3(
        outer.value,
        g1 * f1,
        g2 * f1 ** 2 + g1 * f2,
        g3 * f1 ** 3 + 3.0 * g2 * f1 * f2 + g1 * f3,
    )


def log_derivative(j: Jet3):
    """L g = g''/g' read off the jet."""
    return j.d2 / j.d1


def log_and_schwarzian(j: Jet3):
    """(L g, S g) read off the jet; requires d1 > 0."""
    j.require_orientation()
    return log_derivative(j), schwarzian(j)


def schwarzian(j: Jet3):
    """S g = g'''/g' - (3/2) (L g)^2 read off the jet."""
    L = log_derivative(j)
    return j.d3 / j.d1 - 1.5 * L ** 2


def projective_schwarzian(j: Jet3):
    """Schwarzian relative to the projective structure of the Mobius action.

    In the angle coordinate on R/Z a Mobius circle map g satisfies
    S g = 2 pi^2 (1 - g'^2), not S g = 0; the corrected quantity

        S g + 2 pi^2 (g'^2 - 1)

    vanishes identically on Mobius words and obeys the same composition
    cocycle as S.  Use this when "projective maps have zero Schwarzian"
    is the property being exercised.
    """
    return schwarzian(j) + TWO_PI_SQ * (j.d1 ** 2 - 1.0)
