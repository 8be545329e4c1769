"""Generator families acting on the circle, their jets, and distortion.

The circle is parametrized by x in [0, 1).  A unimodular real matrix
[[a, b], [c, d]] acts projectively through the chart t = tan(pi x):

    t  ->  (a t + b) / (c t + d),

and the induced circle map is evaluated through the direction vector
w(x) = (cos pi x, sin pi x), which avoids the t = infinity singularity
entirely.  Writing U = d cos + c sin and V = b cos + a sin (so the image
direction is (U, V)) and R = U^2 + V^2, the chain rule gives closed
forms for the first three derivatives:

    g'   = 1 / R
    g''  = -pi R' / R^2
    g''' = pi^2 (2 R'^2 / R^3 - R'' / R^2)

with R' = 2(U U' + V V'), R'' = 2(U'^2 + V'^2) - 2R.  The same formulas
continue holomorphically to complex x, which is how the annulus
machinery evaluates extended maps.

Rotation matrices act as rigid rotations in this coordinate, so
isometries really have jet (x + theta, 1, 0, 0).

Generators may optionally be conjugated by a fixed analytic circle
diffeomorphism c(x) = x + (trigonometric polynomial), giving maps
c o M o c^{-1} with non-projective jets but closed-form group inverses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import Arc, wrap
from .jets import Jet3, compose, identity_jet

_DET_TOL = 1e-12
# a lifted map's base value this close to its cut (in turns) takes its branch
# from the other base point, where rounding can put it on either side
CUT_NEAR = 1e-9


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    return m


def _c_arctan(w):
    """Principal-branch arctan extended to complex arguments."""
    w = np.asarray(w, dtype=complex)
    return 0.5j * (np.log(1.0 - 1j * w) - np.log(1.0 + 1j * w))


class MobiusMap:
    """Projective action of a unimodular matrix in the angle chart."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = _as_matrix(matrix)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) <= _DET_TOL:
            raise ValueError("matrix is not invertible")
        if det < 0:
            raise ValueError("matrix must have positive determinant (orientation-preserving)")
        m = m / np.sqrt(det)
        # projective sign normalization: first nonzero entry positive
        flat = m.ravel()
        lead = flat[np.nonzero(np.abs(flat) > 0)[0][0]]
        if lead < 0:
            m = -m
        self.matrix = m

    # -- real-circle evaluation ------------------------------------------

    def _uv(self, x, dtype=float):
        # the (U, V) lines of `_direction_image`, on the matrix's scalar
        # entries, for the one-map values; dtype complex serves the
        # extension to the annulus.
        a, b, c, d = self.matrix.ravel()
        phi = np.pi * np.asarray(x, dtype=dtype)
        cs, sn = np.cos(phi), np.sin(phi)
        return d * cs + c * sn, b * cs + a * sn

    def apply(self, x):
        U, V = self._uv(x)
        return wrap(np.arctan2(V, U) / np.pi)

    __call__ = apply

    def jet(self, x) -> Jet3:
        return mobius_jet(self.matrix, x)

    def value_d1(self, x):
        """The value and d1 of `jet`, bit for bit."""
        U, V = self._uv(x)
        return wrap(np.arctan2(V, U) / np.pi), 1.0 / (U * U + V * V)

    def inverse(self) -> "MobiusMap":
        a, b, c, d = self.matrix.ravel()
        return MobiusMap([[d, -b], [-c, a]])

    # -- complex extension -----------------------------------------------

    def cval(self, z):
        """Holomorphic extension to C/Z, values reduced mod 1 in the real part.

        With `cderiv`, the reference that tests compare the complex
        distortion check's direction-state stepping against; no run calls
        them."""
        U, V = self._uv(z, complex)
        w = _c_arctan(V / U) / np.pi
        return wrap(w.real) + 1j * w.imag

    def cderiv(self, z):
        """Complex derivative of the extension (branch independent)."""
        U, V = self._uv(z, complex)
        return 1.0 / (U * U + V * V)

    # -- structure ---------------------------------------------------------

    @property
    def trace(self) -> float:
        return float(self.matrix[0, 0] + self.matrix[1, 1])

    def classify(self) -> str:
        t = abs(self.trace)
        if t > 2.0 + 1e-12:
            return "hyperbolic"
        if t < 2.0 - 1e-12:
            return "elliptic"
        return "parabolic"

    def direction_matrix(self) -> np.ndarray:
        """Matrix acting on direction vectors (cos pi x, sin pi x)."""
        return direction_matrices(self.matrix).copy()

    def __repr__(self):
        return f"MobiusMap({self.matrix.tolist()})"


def rotation(theta: float) -> MobiusMap:
    """Rigid rotation x -> x + theta; realized by a rotation matrix of angle pi*theta."""
    ph = np.pi * theta
    return MobiusMap([[np.cos(ph), np.sin(ph)], [-np.sin(ph), np.cos(ph)]])


def direction_matrices(mats: np.ndarray) -> np.ndarray:
    """The direction matrices [[d, c], [b, a]] of stacked matrices
    [[a, b], [c, d]] (..., 2, 2): each reversed along both axes, as a view."""
    return mats[..., ::-1, ::-1]


def _direction_image(dirs: np.ndarray, cs, sn):
    """(U, V) = D (cs, sn) for stacked direction matrices D (..., 2, 2)."""
    return dirs[..., 0, 0] * cs + dirs[..., 0, 1] * sn, dirs[..., 1, 0] * cs + dirs[..., 1, 1] * sn


def mobius_jet(mats: np.ndarray, x) -> Jet3:
    """3-jets at x of stacked matrices (..., 2, 2), whose leading shape
    broadcasts against x: the closed form of the module docstring."""
    a, b, c, d = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 0], mats[..., 1, 1]
    phi = np.pi * np.asarray(x, dtype=float)
    cs, sn = np.cos(phi), np.sin(phi)
    U, V = d * cs + c * sn, b * cs + a * sn
    Up = c * cs - d * sn
    Vp = a * cs - b * sn
    R = U * U + V * V
    Rp = 2.0 * (U * Up + V * Vp)
    Rpp = 2.0 * (Up * Up + Vp * Vp) - 2.0 * R
    val = wrap(np.arctan2(V, U) / np.pi)
    d1 = 1.0 / R
    d2 = -np.pi * Rp / R ** 2
    d3 = np.pi ** 2 * (2.0 * Rp ** 2 / R ** 3 - Rpp / R ** 2)
    return Jet3(val, d1, d2, d3)


def _cosine_form(mats: np.ndarray):
    """(B, C, hypot(B, C)) of stacked M (..., 2, 2): U^2 + V^2 = |M|_F^2 / 2 + B cos 2 pi x + C sin 2 pi x."""
    a, b, c, d = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 0], mats[..., 1, 1]
    B, C = ((b * b + d * d) - (a * a + c * c)) / 2.0, a * b + c * d
    return B, C, np.hypot(B, C)


def mobius_seminorms(mats: np.ndarray, tau: float = 1.0):
    """(Holder, sup |L|, sup |S|, sup |L| on A_{rho/2}, rho) of stacked
    unimodular matrices (..., 2, 2) over the circle, in closed form.

    For M = [[a, b], [c, d]], 1/g'(x) = A + B cos 2 pi x + C sin 2 pi x
    with B = (b^2 + d^2 - a^2 - c^2)/2, C = ab + cd, r = hypot(B, C) and
    A = sqrt(1 + r^2) (`_cosine_form`).  Shifting x by the phase of (B, C),
    1/g' = A + r cos theta with theta = 2 pi x, and g' ranges over
    [1/(A + r), A + r].  So
      L g = 2 pi r sin theta / (A + r cos theta) peaks at cos theta = -r/A:
        sup |L g| = 2 pi r, also the Holder seminorm at tau = 1;
      S g = 2 pi^2 (1 - g'^2) (the chart tan(pi x) has Schwarzian 2 pi^2):
        sup |S g| = 2 pi^2 ((A + r)^2 - 1) = 4 pi^2 r (A + r);
      for tau < 1, with osc log g' = 2 asinh r and Lip = 2 pi r,
        min(osc, Lip d) / d^tau <= osc^{1-tau} Lip^tau, its maximum over d
        (at d = osc/Lip <= 1/pi).
    The poles of L g sit at cos theta = -A/r, Im theta = +-2V with
    cosh 2V = A/r, so rho = asinh(1/r) / (2 pi), infinite for a rotation.
    On the strip |Im theta| <= V, i.e. |Im z| <= rho/2, |L g| peaks on an
    edge (maximum modulus).  There, with c = cos Re theta, |L g|^2 / (2 pi r)^2 is
      (sinh^2 V + 1 - c^2) / ((A + r c cosh V)^2 + r^2 sinh^2 V (1 - c^2)),
    which decreases from c = -1 (its derivative there has the sign of
    -(A - r)^2) and has at most one critical point in (-1, 1) (the two
    roots multiply to cosh^2 V > 1).  So its maximum is at c = -1, not
    c = 1: 2 pi r sinh V / (A - r cosh V).  With q = r cosh V =
    sqrt(r (A + r) / 2) and A - q = (2A + r) / (2 (A + r) (A + q)), free of
    cancellation,
      sup_{A_{rho/2}} |L g| = 4 pi q (A + q) / (2A + r),
    which is 0 for a rotation (r = 0).
    """
    r = _cosine_form(mats)[2]   # 0 for a rotation
    A = np.hypot(1.0, r)
    sup_L = 2.0 * np.pi * r
    holder = (2.0 * np.arcsinh(r)) ** (1.0 - tau) * sup_L ** tau   # sup_L bit for bit at tau = 1
    q = np.sqrt(r * (A + r) / 2.0)
    with np.errstate(divide="ignore"):   # rho is infinite for a rotation
        return (holder, sup_L, 4.0 * np.pi ** 2 * r * (A + r), 4.0 * np.pi * q * (A + q) / (2.0 * A + r),
                np.arcsinh(1.0 / r) / (2.0 * np.pi))


def mobius_window_extrema(mats: np.ndarray, log_a, lo, hi):
    """(osc log g', sup |L g|, sup |S g|) over arcs [lo, hi] shorter than 1/2,
    of unimodular matrices given as M / sqrt(A), A = |M|_F^2 / 2, with
    log_a = log A kept apart, so that long products keep their digits.

    With the scaled matrix's (B, C, r), 1/g' = A (1 + r cos theta) with
    theta = 2 pi x - atan2(C, B), and 1 + r cos theta equals
    e^{-2 log_a} / (1 + r) + 2 r cos^2(theta / 2), free of cancellation.
    log g' and S g = 2 pi^2 (1 - g'^2) peak at the ends or at theta = 0, pi;
    |L g| = 2 pi r |sin theta| / (1 + r cos theta) peaks at the ends or at
    cos theta = -r, where it is 2 pi r A.
    """
    B, C, r = _cosine_form(mats)
    r = np.minimum(r, 1.0)   # 1 + an ulp after rounding
    zero = np.arctan2(C, B) / (2.0 * np.pi)   # the x of theta = 0
    ends = np.array([lo, hi]) - zero
    h = np.exp(-2.0 * log_a) / (1.0 + r) + 2.0 * r * np.cos(np.pi * ends) ** 2

    def inside(turn):
        return wrap(zero + turn - lo) <= hi - lo

    log_min = np.where(inside(0.5), -2.0 * log_a - np.log1p(r), np.log(np.min(h, axis=0)))
    log_max = np.where(inside(0.0), np.log1p(r), np.log(np.max(h, axis=0)))
    crit = np.arccos(-r) / (2.0 * np.pi)
    with np.errstate(over="ignore"):   # an infinite sup is a violation, not an error
        g1 = np.exp(-log_a - np.array([log_min, log_max]))
        sup_L = np.where(inside(crit) | inside(-crit), 2.0 * np.pi * r * np.exp(log_a),
                         np.max(2.0 * np.pi * r * np.abs(np.sin(2.0 * np.pi * ends)) / h, axis=0))
        return log_max - log_min, sup_L, 2.0 * np.pi ** 2 * np.max(np.abs(1.0 - g1 * g1), axis=0)


def mobius_value_logd(mats: np.ndarray, x):
    """Images and log derivatives of x under stacked matrices (..., 2, 2),
    whose leading shape broadcasts against x; the angle-chart action."""
    phi = np.pi * np.asarray(x, dtype=float)
    cs, sn = np.cos(phi), np.sin(phi)
    U, V = _direction_image(direction_matrices(mats), cs, sn)
    return wrap(np.arctan2(V, U) / np.pi), -np.log(U * U + V * V)


def mobius_direction_step(dirs: np.ndarray, w, out=None):
    """Images of direction vectors w, stacked on the first axis of shape
    (2, ...), under stacked direction matrices D (..., 2, 2) broadcasting
    to w[0]'s shape: w <- D w, one 2x2 matvec, not normalised.  No
    trigonometry, square root, division or log.  The image points the way
    of g(x)'s direction vector, and, D being unimodular, a unit w_0 =
    (cos pi x, sin pi x) stepped by D_1 .. D_k has |w_k|^2 = 1 / l_k'(x):
    a walk reads its log derivatives from the states' norms.

    The step is made in place: the images overwrite w, and out, an array
    (2,) + w[0].shape of w's dtype, is scratch; nothing is allocated.  With
    out None, w is copied (in the dtype of D and w) and out allocated first."""
    if out is None:
        w = np.array(w, dtype=np.result_type(dirs, w))
        out = np.empty((2,) + w.shape[1:], dtype=w.dtype)
    c, s = w
    t, u = out
    np.multiply(dirs[..., 1, 0], c, out=t)
    c *= dirs[..., 0, 0]
    c += np.multiply(dirs[..., 0, 1], s, out=u)
    s *= dirs[..., 1, 1]
    s += t
    return w


def normalise_directions(w):
    """Divide stepped complex direction vectors w (2, ...) in place by
    sqrt(w_0^2 + w_1^2), principal branch, which makes them
    +-(cos pi z, sin pi z) again, and return log(w_0^2 + w_1^2): minus the
    log derivative, at the start point, of the steps since w was last a
    unit vector."""
    q = w[0] * w[0]
    q += w[1] * w[1]
    root = np.sqrt(q)
    w[0] /= root
    w[1] /= root
    return np.log(q, out=q)


def direction(x):
    """Direction vectors (cos pi x, sin pi x) on a new first axis, complex for complex x."""
    phi = np.pi * np.asarray(x)
    return np.array((np.cos(phi), np.sin(phi)))


def direction_abs_im(w):
    """|Im z| of w = +-(cos pi z, sin pi z) from Im(w_1 conj w_0) = sinh(2 pi Im z) / 2,
    a sum of two like-signed products: full relative precision at any Im z."""
    return np.abs(np.arcsinh(2.0 * (w[1].imag * w[0].real - w[1].real * w[0].imag))) / (2.0 * np.pi)


class TrigConjugacy:
    """Analytic circle diffeomorphism with lift x + sum_k (a_k cos 2pi k x + b_k sin 2pi k x).

    The lift is global and monotone, so inverses are solved in lift
    coordinates (a linear-interpolation seed on a dense grid, then Newton
    to machine precision).  The harmonic sums are elementwise products
    summed along the harmonics, not matrix-vector products: BLAS blocks
    those by the number of points, so a point's value would depend on the
    points evaluated with it.
    """

    __slots__ = ("coeffs", "_grid_x", "_grid_lift", "_lift0")

    def __init__(self, coeffs, grid_size: int = 4096):
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
        if coeffs.shape[1] != 2:
            raise ValueError("conjugator coefficients must be (cos, sin) pairs")
        self.coeffs = coeffs
        xs = np.linspace(0.0, 1.0, grid_size + 1)
        d = self._lift_d1(xs)
        if np.min(d) <= 0.0:
            raise ValueError("conjugator lift is not strictly increasing")
        lifts = self._lift(xs)
        self._grid_x = xs
        self._grid_lift = lifts
        self._lift0 = float(lifts[0])

    def _harmonics(self, x):
        x = np.asarray(x, dtype=float)
        k = np.arange(1, self.coeffs.shape[0] + 1)
        ang = 2.0 * np.pi * np.multiply.outer(x, k)
        return k, np.cos(ang), np.sin(ang)

    def _lift(self, x):
        k, cs, sn = self._harmonics(x)
        return np.asarray(x, dtype=float) + (cs * self.coeffs[:, 0]).sum(-1) + (sn * self.coeffs[:, 1]).sum(-1)

    def _lift_d1(self, x):
        k, cs, sn = self._harmonics(x)
        w = 2.0 * np.pi * k
        return 1.0 + (sn * (-w * self.coeffs[:, 0])).sum(-1) + (cs * (w * self.coeffs[:, 1])).sum(-1)

    def _lift_d2(self, x):
        k, cs, sn = self._harmonics(x)
        w = (2.0 * np.pi * k) ** 2
        return (cs * (-w * self.coeffs[:, 0])).sum(-1) + (sn * (-w * self.coeffs[:, 1])).sum(-1)

    def _lift_d3(self, x):
        k, cs, sn = self._harmonics(x)
        w = (2.0 * np.pi * k) ** 3
        return (sn * (w * self.coeffs[:, 0])).sum(-1) + (cs * (-w * self.coeffs[:, 1])).sum(-1)

    def apply(self, x):
        return wrap(self._lift(x))

    __call__ = apply

    def jet(self, x) -> Jet3:
        return Jet3(self.apply(x), self._lift_d1(x), self._lift_d2(x), self._lift_d3(x))

    def inverse_value(self, y):
        """Solve lift(x) = y in lift coordinates; returns x mod 1.  Each point
        leaves the Newton iteration after the step at which its own residual
        is below 1e-15, so its value does not depend on the points solved
        with it."""
        y = np.asarray(y, dtype=float)
        ylift = (self._lift0 + wrap(y - self._lift0)).ravel()
        x = np.interp(ylift, self._grid_lift, self._grid_x)
        live = np.arange(x.size)
        for _ in range(30):
            xl = x[live]
            f = self._lift(xl) - ylift[live]
            x[live] = xl - f / self._lift_d1(xl)
            live = live[np.abs(f) >= 1e-15]
            if not live.size:
                break
        return wrap(x.reshape(y.shape))

    def inverse(self) -> "TrigConjugacyInverse":
        return TrigConjugacyInverse(self)

    def __repr__(self):
        return f"TrigConjugacy({self.coeffs.tolist()})"


class TrigConjugacyInverse:
    """Inverse of a TrigConjugacy, with jets from the inverse-function rule."""

    __slots__ = ("base",)

    def __init__(self, base: TrigConjugacy):
        self.base = base

    def apply(self, y):
        return self.base.inverse_value(y)

    __call__ = apply

    def jet(self, y) -> Jet3:
        x = self.base.inverse_value(y)
        c1 = self.base._lift_d1(x)
        c2 = self.base._lift_d2(x)
        c3 = self.base._lift_d3(x)
        return Jet3(x, 1.0 / c1, -c2 / c1 ** 3, (3.0 * c2 ** 2 - c1 * c3) / c1 ** 5)

    def inverse(self) -> TrigConjugacy:
        return self.base


class ConjugatedMap:
    """c o M o c^{-1}: a Mobius map conjugated by an analytic diffeomorphism."""

    __slots__ = ("mobius", "conj")

    def __init__(self, mobius: MobiusMap, conj: TrigConjugacy):
        self.mobius = mobius
        self.conj = conj

    def apply(self, x):
        return self.conj.apply(self.mobius.apply(self.conj.inverse_value(x)))

    __call__ = apply

    def jet(self, x) -> Jet3:
        ji = self.conj.inverse().jet(x)
        jm = self.mobius.jet(ji.value)
        jc = self.conj.jet(jm.value)
        return compose(jc, compose(jm, ji))

    def value_d1(self, x):
        """The value and d1 of `jet`, bit for bit: the same first-order
        factors, multiplied in the order `compose` multiplies them."""
        xi = self.conj.inverse_value(x)
        di = 1.0 / self.conj._lift_d1(xi)
        vm, dm = self.mobius.value_d1(xi)
        return self.conj.apply(vm), self.conj._lift_d1(vm) * (dm * di)

    def inverse(self) -> "ConjugatedMap":
        return ConjugatedMap(self.mobius.inverse(), self.conj)

    def __repr__(self):
        return f"ConjugatedMap({self.mobius!r}, {self.conj!r})"


class LiftedMap:
    """Lift of a circle map to the degree-k cover, on sheet j.

    If b_lift is the canonical lift of the base map, the lifted map is
    x -> (b_lift(k x) + j) / k; it commutes with rotation by 1/k, which
    is what the finite-quotient machinery detects.
    """

    __slots__ = ("base", "k", "j", "_base0")

    def __init__(self, base, k: int, j: int = 0):
        if k < 1:
            raise ValueError("cover degree must be >= 1")
        self.base = base
        self.k = int(k)
        self.j = int(j) % int(k)
        self._base0 = float(np.asarray(base.apply(0.0)))

    def _split(self, x):
        """(u, p): the base point u = wrap(k x) and the sheet p = round(k x - u)."""
        kx = self.k * np.asarray(x, dtype=float)
        u = wrap(kx)
        return u, np.round(kx - u)

    def _value(self, u, b, p):
        """The lifted value from the base value b at u = wrap(k x) and the sheet p.

        The base lift runs over [base(0), base(0) + 1) as u runs over
        [0, 1).  Within CUT_NEAR of base(0) (where b may have rounded
        onto or an ulp across it) the branch is u's: base(0) + 1 for
        u > 1/2, base(0) for u < 1/2."""
        d = np.asarray(b, dtype=float) - self._base0
        lift = self._base0 + wrap(d)
        d -= np.round(d)   # signed distance to the cut, exact near it
        near = np.abs(d) < CUT_NEAR
        if near.any():
            lift = np.where(near, self._base0 + d + (np.asarray(u) > 0.5), lift)
        return wrap((lift + p + self.j) / self.k)

    def cover_step(self):
        """(k, base map, cut, sheet offset) of the map on the cover's states
        (`StepDistribution.state`): the base point u goes to u' = base(u)
        and the sheet p to p + offset + [u' < cut], the cut being base(0)."""
        return self.k, self.base, self._base0, self.j

    def apply(self, x):
        u, p = self._split(x)
        return self._value(u, self.base.apply(u), p)

    __call__ = apply

    def jet(self, x) -> Jet3:
        """The base jet at u, taken once: its value gives the lifted value."""
        u, p = self._split(x)
        jb = self.base.jet(u)
        return Jet3(self._value(u, jb.value, p), jb.d1, self.k * jb.d2, self.k ** 2 * jb.d3)

    def value_d1(self, x):
        """The value and d1 of `jet`, bit for bit."""
        u, p = self._split(x)
        b, d1 = self.base.value_d1(u)
        return self._value(u, b, p), d1

    def inverse(self) -> "_LiftedInverse":
        return _LiftedInverse(self)

    def __repr__(self):
        return f"LiftedMap({self.base!r}, k={self.k}, j={self.j})"


class _LiftedInverse:
    __slots__ = ("fwd", "base_inv")

    def __init__(self, fwd: LiftedMap):
        self.fwd = fwd
        self.base_inv = fwd.base.inverse()

    def _solve(self, y):
        y = np.asarray(y, dtype=float)
        w = self.fwd.k * y - self.fwd.j
        u = np.asarray(self.base_inv.apply(wrap(w)), dtype=float)
        # sheet index; near lift-value integers the floor is ambiguous by
        # an ulp and the branch u landed on decides the pairing
        w_rel = w - self.fwd._base0
        q = np.floor(w_rel)
        frac = w_rel - q
        boundary = (frac < CUT_NEAR) | (frac > 1.0 - CUT_NEAR)
        p = np.where(boundary, np.round(w_rel) - (u > 0.5), q)
        return u, p

    def cover_step(self):
        """`LiftedMap.cover_step` of the inverse: base^{-1} with its cut at
        base^{-1}(0), and the sheet offset -j - [base(0) > 0] (`_solve`'s
        sheet is k y - j - base(0) rounded down)."""
        fwd = self.fwd
        return fwd.k, self.base_inv, float(np.asarray(self.base_inv.apply(0.0))), -fwd.j - (fwd._base0 > 0.0)

    def apply(self, y):
        u, p = self._solve(y)
        return wrap((u + p) / self.fwd.k)

    __call__ = apply

    def jet(self, y) -> Jet3:
        u, p = self._solve(y)
        jb = self.fwd.base.jet(u)
        c1, c2, c3 = jb.d1, jb.d2, jb.d3
        val = wrap((u + p) / self.fwd.k)
        # inverse-function derivatives of the lifted map
        return Jet3(
            val,
            1.0 / c1,
            -(self.fwd.k * c2) / c1 ** 3,
            (3.0 * (self.fwd.k * c2) ** 2 / c1 ** 5 - self.fwd.k ** 2 * c3 / c1 ** 4) / 1.0,
        )

    def value_d1(self, y):
        """The value and d1 of `jet`, bit for bit."""
        u, p = self._solve(y)
        return wrap((u + p) / self.fwd.k), 1.0 / self.fwd.base.value_d1(u)[1]

    def inverse(self) -> LiftedMap:
        return self.fwd

    def __repr__(self):
        return f"_LiftedInverse({self.fwd!r})"


class Word:
    """Composition of atomic maps, stored in application order.

    Word((f, g, h)) is the map h o g o f: f acts first.  Words expose the
    same evaluation protocol as atomic maps, so they can be nested.
    """

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        flat = []
        for f in factors:
            if isinstance(f, Word):
                flat.extend(f.factors)
            else:
                flat.append(f)
        self.factors = tuple(flat)

    def apply(self, x):
        y = wrap(x)
        for f in self.factors:
            y = f.apply(y)
        return y

    __call__ = apply

    def jet(self, x) -> Jet3:
        j = identity_jet(x)
        for f in self.factors:
            j = compose(f.jet(j.value), j)
        return j

    def value_d1(self, x):
        """The value and d1 of `jet`, read off it."""
        j = self.jet(x)
        return j.value, j.d1

    def inverse(self) -> "Word":
        return Word(tuple(f.inverse() for f in reversed(self.factors)))

    def matrix(self):
        """Exact matrix product when every factor is Mobius, else None."""
        m = np.eye(2)
        for f in self.factors:
            if not isinstance(f, MobiusMap):
                return None
            m = f.matrix @ m
        return m

    def as_mobius(self):
        m = self.matrix()
        return None if m is None else MobiusMap(m)

    def __len__(self):
        return len(self.factors)

    def __repr__(self):
        return f"Word(<{len(self.factors)} factors>)"


def eval_jet3(map_like, x) -> Jet3:
    """Third-order jet of a map or word at x (vectorized over x)."""
    j = map_like.jet(x)
    j.require_orientation()
    return j


def make_generator(matrix, conjugator=None):
    """Build a generator from four matrix entries and optional conjugator
    (cos, sin) coefficient pairs; validates invertibility, orientation,
    monotonicity of the conjugator lift, and the inverse round-trip.
    """
    mob = MobiusMap(matrix)
    if conjugator is None or len(conjugator) == 0:
        gen = mob
    else:
        gen = ConjugatedMap(mob, TrigConjugacy(conjugator))
    probe = np.linspace(0.05, 0.95, 7)
    back = gen.inverse().apply(gen.apply(probe))
    err = np.max(np.abs(wrap(back - probe + 0.5) - 0.5))
    if err > 1e-10:
        raise ValueError(f"generator inverse round-trip error {err:.2e} exceeds 1e-10")
    return gen


# ---------------------------------------------------------------------------
# linearizing chart for hyperbolic Mobius generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearChart:
    """Coordinate y around the attracting fixed point in which the
    generating hyperbolic map becomes exactly y -> alpha y.

    The chart is a Mobius change of frame followed by the angle chart,
    normalized so chart'(fixed_point) = 1; it is defined on the circle
    minus the repelling fixed point.
    """

    fixed_point: float
    repelling_point: float
    alpha: float
    P: np.ndarray
    sigma: float

    def to_chart(self, x):
        w = np.stack([np.cos(np.pi * np.asarray(x, dtype=float)), np.sin(np.pi * np.asarray(x, dtype=float))])
        pu = self.P[0, 0] * w[0] + self.P[0, 1] * w[1]
        pv = self.P[1, 0] * w[0] + self.P[1, 1] * w[1]
        return (self.sigma / np.pi) * pv / pu

    def to_chart_deriv(self, x):
        x = np.asarray(x, dtype=float)
        cs, sn = np.cos(np.pi * x), np.sin(np.pi * x)
        pu = self.P[0, 0] * cs + self.P[0, 1] * sn
        detP = self.P[0, 0] * self.P[1, 1] - self.P[0, 1] * self.P[1, 0]
        return self.sigma * detP / pu ** 2

    def from_chart(self, y):
        y = np.asarray(y, dtype=float)
        Pinv = np.linalg.inv(self.P)
        u = Pinv[0, 0] + Pinv[0, 1] * (np.pi * y / self.sigma)
        v = Pinv[1, 0] + Pinv[1, 1] * (np.pi * y / self.sigma)
        return wrap(np.arctan2(v, u) / np.pi)

    def chart_arc(self, halfwidth: float) -> Arc:
        """Circle arc corresponding to [-halfwidth, +halfwidth] in chart coords."""
        lo = self.from_chart(-halfwidth)
        hi = self.from_chart(halfwidth)
        return Arc.from_endpoints(float(lo), float(hi))


def linearizing_chart(gen) -> LinearChart:
    """Exact linearization of a hyperbolic Mobius generator.

    Raises for conjugated generators (the chart is only built for pure
    projective maps) and for elliptic or parabolic matrices.
    """
    if isinstance(gen, Word):
        mob = gen.as_mobius()
        if mob is None:
            raise ValueError("chart requires pure Mobius")
        gen = mob
    if not isinstance(gen, MobiusMap):
        raise ValueError("chart requires pure Mobius")
    if gen.classify() != "hyperbolic":
        raise ValueError("not hyperbolic")
    N = gen.direction_matrix()
    tr = N[0, 0] + N[1, 1]
    disc = np.sqrt(tr * tr - 4.0)
    lam_big = (tr + np.sign(tr) * disc) / 2.0  # |lam_big| > 1
    lam_small = (tr - np.sign(tr) * disc) / 2.0

    def eigvec(lam):
        v1 = np.array([N[0, 1], lam - N[0, 0]])
        v2 = np.array([lam - N[1, 1], N[1, 0]])
        v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
        return v / np.linalg.norm(v)

    w_att = eigvec(lam_big)   # derivative 1/lam^2 < 1 at this direction
    w_rep = eigvec(lam_small)
    P = np.linalg.inv(np.column_stack([w_att, w_rep]))
    x_att = float(wrap(np.arctan2(w_att[1], w_att[0]) / np.pi))
    x_rep = float(wrap(np.arctan2(w_rep[1], w_rep[0]) / np.pi))
    alpha = 1.0 / lam_big ** 2
    # normalize chart'(x_att) = 1
    cs, sn = np.cos(np.pi * x_att), np.sin(np.pi * x_att)
    pu = P[0, 0] * cs + P[0, 1] * sn
    detP = P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]
    sigma = pu ** 2 / detP
    chart = LinearChart(x_att, x_rep, float(alpha), P, float(sigma))
    # hygiene: the multiplier must match the derivative at the fixed point
    d_fix = float(gen.jet(x_att).d1)
    if abs(d_fix - alpha) > 1e-9 * max(1.0, abs(alpha)):
        raise AssertionError("chart multiplier disagrees with fixed-point derivative")
    return chart
