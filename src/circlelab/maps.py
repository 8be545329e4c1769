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
from scipy.interpolate import PchipInterpolator

from .circle import Arc, wrap
from .jets import Jet3, compose, identity_jet, log_derivative, schwarzian

_DET_TOL = 1e-12


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
        # entries: through the helper a scalar jet takes twice the time.
        # dtype complex serves the extension to the annulus.
        a, b, c, d = self.matrix.ravel()
        phi = np.pi * np.asarray(x, dtype=dtype)
        cs, sn = np.cos(phi), np.sin(phi)
        return d * cs + c * sn, b * cs + a * sn, cs, sn

    def apply(self, x):
        U, V, _, _ = self._uv(x)
        return wrap(np.arctan2(V, U) / np.pi)

    __call__ = apply

    def jet(self, x) -> Jet3:
        a, b, c, d = self.matrix.ravel()
        U, V, cs, sn = self._uv(x)
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

    def inverse(self) -> "MobiusMap":
        a, b, c, d = self.matrix.ravel()
        return MobiusMap([[d, -b], [-c, a]])

    # -- complex extension -----------------------------------------------

    def cval(self, z):
        """Holomorphic extension to C/Z, values reduced mod 1 in the real part."""
        U, V, _, _ = self._uv(z, complex)
        w = _c_arctan(V / U) / np.pi
        return wrap(w.real) + 1j * w.imag

    def cderiv(self, z):
        """Complex derivative of the extension (branch independent)."""
        U, V, _, _ = self._uv(z, complex)
        return 1.0 / (U * U + V * V)

    def clog_derivative(self, z):
        """(log g')' of the extension, i.e. L g continued to the annulus."""
        a, b, c, d = self.matrix.ravel()
        U, V, cs, sn = self._uv(z, complex)
        Up = c * cs - d * sn
        Vp = a * cs - b * sn
        R = U * U + V * V
        Rp = 2.0 * (U * Up + V * Vp)
        return -np.pi * Rp / R

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


def mobius_value_logd(mats: np.ndarray, x):
    """Images and log derivatives of x under stacked matrices (..., 2, 2),
    whose leading shape broadcasts against x; the angle-chart action."""
    phi = np.pi * np.asarray(x, dtype=float)
    cs, sn = np.cos(phi), np.sin(phi)
    U, V = _direction_image(direction_matrices(mats), cs, sn)
    return wrap(np.arctan2(V, U) / np.pi), -np.log(U * U + V * V)


def mobius_direction_step(dirs: np.ndarray, w):
    """Images and log derivatives of unit direction vectors
    w = (cos pi x, sin pi x), stacked on the first axis of shape (2, ...),
    under stacked direction matrices D (..., 2, 2) broadcasting against
    w[0]: w <- D w / |D w|, log g' = -log |D w|^2.  No trigonometry."""
    U, V = _direction_image(dirs, w[0], w[1])
    R = U * U + V * V
    image = np.array((U, V))
    image /= np.sqrt(R)
    return image, np.negative(np.log(R, out=R), out=R)


def direction(x):
    """Unit direction vectors (cos pi x, sin pi x), stacked on a new first axis."""
    phi = np.pi * np.asarray(x, dtype=float)
    return np.array((np.cos(phi), np.sin(phi)))


def direction_position(w):
    """The circle point x in [0, 1) of direction vectors w = (cos pi x, sin pi x)."""
    return wrap(np.arctan2(w[1], w[0]) / np.pi)


class TrigConjugacy:
    """Analytic circle diffeomorphism with lift x + sum_k (a_k cos 2pi k x + b_k sin 2pi k x).

    The lift is global and monotone, so inverses are solved in lift
    coordinates (PCHIP seed on a dense grid, then Newton to machine
    precision).
    """

    __slots__ = ("coeffs", "_grid_x", "_inv_seed", "_lift0")

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
        self._inv_seed = PchipInterpolator(lifts, xs)
        self._lift0 = float(lifts[0])

    def _harmonics(self, x):
        x = np.asarray(x, dtype=float)
        k = np.arange(1, self.coeffs.shape[0] + 1)
        ang = 2.0 * np.pi * np.multiply.outer(x, k)
        return k, np.cos(ang), np.sin(ang)

    def _lift(self, x):
        k, cs, sn = self._harmonics(x)
        return np.asarray(x, dtype=float) + cs @ self.coeffs[:, 0] + sn @ self.coeffs[:, 1]

    def _lift_d1(self, x):
        k, cs, sn = self._harmonics(x)
        w = 2.0 * np.pi * k
        return 1.0 + sn @ (-w * self.coeffs[:, 0]) + cs @ (w * self.coeffs[:, 1])

    def _lift_d2(self, x):
        k, cs, sn = self._harmonics(x)
        w = (2.0 * np.pi * k) ** 2
        return cs @ (-w * self.coeffs[:, 0]) + sn @ (-w * self.coeffs[:, 1])

    def _lift_d3(self, x):
        k, cs, sn = self._harmonics(x)
        w = (2.0 * np.pi * k) ** 3
        return sn @ (w * self.coeffs[:, 0]) + cs @ (-w * self.coeffs[:, 1])

    def apply(self, x):
        return wrap(self._lift(x))

    __call__ = apply

    def jet(self, x) -> Jet3:
        return Jet3(self.apply(x), self._lift_d1(x), self._lift_d2(x), self._lift_d3(x))

    def inverse_value(self, y):
        """Solve lift(x) = y in lift coordinates; returns x mod 1."""
        y = np.asarray(y, dtype=float)
        ylift = self._lift0 + wrap(y - self._lift0)
        x = np.clip(self._inv_seed(ylift), 0.0, 1.0)
        for _ in range(30):
            f = self._lift(x) - ylift
            x = x - f / self._lift_d1(x)
            if np.max(np.abs(f)) < 1e-15:
                break
        return wrap(x)

    def inverse(self) -> "TrigConjugacyInverse":
        return TrigConjugacyInverse(self)

    def coefficient_decay(self):
        """(sum |coef|, sum 2 pi k |coef|, max frequency) for annulus bounds."""
        k = np.arange(1, self.coeffs.shape[0] + 1)
        mags = np.abs(self.coeffs).sum(axis=1)
        return float(mags.sum()), float((2.0 * np.pi * k * mags).sum()), int(k[-1])

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

    def _lift_parts(self, x):
        x = np.asarray(x, dtype=float)
        kx = self.k * x
        u = wrap(kx)
        p = np.round(kx - u)
        b = np.asarray(self.base.apply(u), dtype=float)
        # canonical lift value in [base(0), base(0)+1), branch consistent
        # with u even when u sits an ulp below the wrap point
        b = self._base0 + wrap(b - self._base0)
        return u, p, b

    def apply(self, x):
        u, p, b = self._lift_parts(x)
        return wrap((b + p + self.j) / self.k)

    __call__ = apply

    def jet(self, x) -> Jet3:
        u, p, b = self._lift_parts(x)
        jb = self.base.jet(u)
        val = wrap((b + p + self.j) / self.k)
        return Jet3(val, jb.d1, self.k * jb.d2, self.k ** 2 * jb.d3)

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
        boundary = (frac < 1e-9) | (frac > 1.0 - 1e-9)
        p = np.where(boundary, np.round(w_rel) - (u > 0.5), q)
        return u, p

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

    def inverse(self) -> LiftedMap:
        return self.fwd


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

    def inverse(self) -> "Word":
        return Word(tuple(f.inverse() for f in reversed(self.factors)))

    def then(self, f) -> "Word":
        """Word followed by one more map (applied last)."""
        return Word(self.factors + (f,))

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


# ---------------------------------------------------------------------------
# distortion seminorms (grid suprema; honest lower bounds of the true sup)
# ---------------------------------------------------------------------------


def log_derivative_on(map_like, points):
    return np.log(eval_jet3(map_like, points).d1)


def distortion_over_points(map_like, points) -> float:
    """max over point pairs of log(g'(y)/g'(x)); >= 0."""
    ld = log_derivative_on(map_like, points)
    return float(np.max(ld) - np.min(ld))


def affine_distortion(map_like, arc: Arc, grid_size: int = 4096) -> float:
    """Affine distortion kappa(g, I) measured on a uniform grid of the arc.

    Grid maxima are lower bounds of the true supremum; refining the grid
    (n -> 2n-1 keeps grids nested) can only increase the value.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    return distortion_over_points(map_like, arc.grid(grid_size))


def holder_seminorm(map_like, tau: float, grid_size: int = 4096) -> float:
    """Grid seminorm sup |log g'(x) - log g'(y)| / dist(x, y)^tau over the circle.

    Exact over all grid pairs for grids up to 4097 points; larger grids
    use a geometric family of pair separations plus the extremal pair,
    still a lower bound of the true supremum.
    """
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau must lie in (0, 1]")
    n = int(grid_size)
    xs = np.arange(n) / n
    ld = log_derivative_on(map_like, xs)
    half = n // 2
    if n <= 4097:
        gaps = np.arange(1, half + 1)
    else:
        gaps = np.unique(np.concatenate([
            np.arange(1, 65),
            np.unique(np.round(np.geomspace(64, half, 192)).astype(int)),
        ]))
        gaps = gaps[gaps <= half]
    best = 0.0
    for k in gaps:
        diff = np.abs(np.roll(ld, -k) - ld)
        dist = min(k, n - k) / n
        best = max(best, float(diff.max()) / dist ** tau)
    # the extremal value pair at whatever separation it occurs
    i, j = int(np.argmax(ld)), int(np.argmin(ld))
    dij = abs(i - j)
    dist = min(dij, n - dij) / n
    if dist > 0:
        best = max(best, float(ld[i] - ld[j]) / dist ** tau)
    return best


def sup_abs_L(map_like, grid_size: int = 4096) -> float:
    """Grid sup of |L g| over the circle."""
    xs = np.arange(grid_size) / grid_size
    return float(np.max(np.abs(log_derivative(eval_jet3(map_like, xs)))))


def sup_abs_S(map_like, grid_size: int = 4096) -> float:
    """Grid sup of |S g| over the circle."""
    xs = np.arange(grid_size) / grid_size
    return float(np.max(np.abs(schwarzian(eval_jet3(map_like, xs)))))


# ---------------------------------------------------------------------------
# annulus of analytic extension
# ---------------------------------------------------------------------------


def rho_lower_bound(gen) -> float:
    """Certified lower bound on the annulus width of injective holomorphic
    extension of a generator.

    For pure Mobius maps this is exact: the extension through the angle
    chart is injective up to the imaginary height of the preimage of the
    ramification points +-i, computed in closed form.  Rotations extend
    to the whole cylinder (returns inf).  Conjugated generators get a
    conservative bound from the conjugator's coefficient decay.
    """
    if isinstance(gen, Word):
        mob = gen.as_mobius()
        if mob is not None:
            gen = mob
    if isinstance(gen, MobiusMap):
        a, b, c, d = gen.inverse().matrix.ravel()
        w = (a * 1j + b) / (c * 1j + d)
        if abs(w - 1j) < 1e-14:
            return np.inf
        z = _c_arctan(w) / np.pi
        return float(abs(z.imag))
    if isinstance(gen, ConjugatedMap):
        return _rho_conjugated(gen)
    raise ValueError(f"no annulus bound for maps of type {type(gen).__name__}")


def _rho_conjugated(gen: ConjugatedMap) -> float:
    """Conservative annulus bound for c o M o c^{-1} from coefficient decay.

    On A_r the trig polynomial T obeys |T(z)| <= C0 e^{2 pi K r} and
    |T'(z)| <= C1 e^{2 pi K r}; where |T'| <= 1/2 the lift x + T is
    injective, and the image/preimage annuli widen by at most |T|.
    The bound runs the chain c^{-1}, M, c and shrinks r until every
    stage stays inside its injectivity region.
    """
    C0, C1, K = gen.conj.coefficient_decay()
    rho_m = rho_lower_bound(gen.mobius)

    def drift(r):
        return C0 * np.exp(2.0 * np.pi * K * r)

    def conj_ok(r):
        return C1 * np.exp(2.0 * np.pi * K * r) < 0.5

    def feasible(r):
        r1 = r + drift(r)            # c^{-1}(A_r) is contained in A_{r1}
        if not conj_ok(r1):
            return False
        if r1 >= 0.9 * rho_m:        # Mobius stage must extend injectively
            return False
        r2 = _mobius_image_height(gen.mobius, r1)
        return conj_ok(r2 + drift(r2))

    lo, hi = 0.0, min(0.5, 0.9 * rho_m if np.isfinite(rho_m) else 0.5)
    if not feasible(hi * 1e-6):
        return 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return float(lo)


def _mobius_image_height(mob: MobiusMap, r: float) -> float:
    """max |Im| over the image of the annulus A_r under the extension (grid bound)."""
    re = np.linspace(0.0, 1.0, 97)
    im = np.array([-r, r])
    z = re[None, :] + 1j * im[:, None]
    return float(np.max(np.abs(mob.cval(z).imag)))
