"""Mobius 2-jet normalization and Schwarzian ODE reconstruction.

A diffeomorphism phi of an interval is normalized by the real-line
Mobius map A with the same value, first, and second derivative at a
mean-value point x_m (where L phi equals its interval average); the
normalized map k(y) = A^{-1}(phi(x_m + y)) - x_m satisfies k(0) = 0,
k'(0) = 1, k''(0) = 0 and has the same Schwarzian as phi (translations
and projective post-compositions leave S unchanged).

Conversely, k is recovered from its Schwarzian by the linear ODE

    u'' + (S/2) u = 0,   u(0)=0, u'(0)=1,   v(0)=1, v'(0)=0,

through k = u/v, with the Wronskian u'v - v'u = 1 conserved and the
derivative identities k' = 1/v^2, k'' = -2 v'/v^3,
k''' = S/v^2 + 6 v'^2/v^4.  Small Schwarzian and small C^1 distance
then force C^3 closeness to the identity, which the convergence check
quantifies curve by curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import Arc
from .jets import Jet3, compose, log_derivative, schwarzian
from .maps import eval_jet3
from .nearid import ck_distance_to_identity


class LineMobius:
    """Real-line Mobius map y -> (a y + b)/(c y + d); flat Schwarzian zero."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        det = a * d - b * c
        if det <= 0:
            raise ValueError("line Mobius map must be orientation-preserving")
        s = np.sqrt(det)
        self.a, self.b, self.c, self.d = a / s, b / s, c / s, d / s

    @staticmethod
    def from_2jet(x0: float, value: float, d1: float, d2: float) -> "LineMobius":
        """The unique Mobius map with prescribed 2-jet at x0:
        A(x0 + t) = value + d1 t / (1 - q t), q = d2 / (2 d1)."""
        if d1 <= 0:
            raise ValueError("prescribed derivative must be positive")
        q = d2 / (2.0 * d1)
        # A(y) with t = y - x0: (value + (d1 - q value) t) / (1 - q t)
        return LineMobius(d1 - q * value, value * (1 + q * x0) - d1 * x0,
                          -q, 1 + q * x0)

    def apply(self, y):
        y = np.asarray(y, dtype=float)
        return (self.a * y + self.b) / (self.c * y + self.d)

    __call__ = apply

    def jet(self, y) -> Jet3:
        y = np.asarray(y, dtype=float)
        w = self.c * y + self.d
        return Jet3(
            (self.a * y + self.b) / w,
            1.0 / w ** 2,
            -2.0 * self.c / w ** 3,
            6.0 * self.c ** 2 / w ** 4,
        )

    def inverse(self) -> "LineMobius":
        return LineMobius(self.d, -self.b, -self.c, self.a)

    def __repr__(self):
        return f"LineMobius({self.a}, {self.b}, {self.c}, {self.d})"


class NormalizedMap:
    """k(y) = A^{-1}(phi_lift(x_m + y)) - x_m on y in (arc - x_m).

    phi is a circle map restricted to the arc; its values are lifted to
    the real line around phi(x_m) (image arcs shorter than a half turn).
    """

    def __init__(self, phi, x_m: float, A: LineMobius):
        self.phi = phi
        self.x_m = float(x_m)
        self.A_inv = A.inverse()
        self._ref = float(np.asarray(phi.apply(self.x_m)))

    def _lift_jet(self, x) -> Jet3:
        j = eval_jet3(self.phi, np.asarray(x, dtype=float) % 1.0)
        val = np.asarray(j.value, dtype=float)
        lifted = self._ref + ((val - self._ref + 0.5) % 1.0 - 0.5)
        return Jet3(lifted, j.d1, j.d2, j.d3)

    def jet(self, y) -> Jet3:
        y = np.asarray(y, dtype=float)
        jp = self._lift_jet(self.x_m + y)
        ja = self.A_inv.jet(jp.value)
        out = compose(ja, jp)
        return Jet3(np.asarray(out.value) - self.x_m, out.d1, out.d2, out.d3)

    def apply(self, y):
        return np.asarray(self.jet(y).value)

    __call__ = apply

    def schwarzian(self, y):
        return schwarzian(self.jet(y))


@dataclass
class Normalization:
    x_m: float
    A: LineMobius
    k: NormalizedMap
    normalization_residuals: tuple     # |k(0)|, |k'(0) - 1|, |k''(0)|

    def as_dict(self):
        return {
            "x_m": self.x_m,
            "residuals": [float(v) for v in self.normalization_residuals],
        }


def mobius_normalize(phi, arc: Arc, grid_size: int = 513) -> Normalization:
    """Locate the mean-value point x_m of L phi on the arc, build the
    Mobius map with the same 2-jet there, and return the normalized map.

    x_m solves L phi(x) = (log phi'(x_+) - log phi'(x_-)) / |I| by
    bisection on the grid; when phi' is constant on the grid the
    midpoint is used (A is then affine).
    """
    xs = arc.grid(grid_size)
    j = eval_jet3(phi, xs)
    L = np.asarray(log_derivative(j), dtype=float)
    logd = np.log(np.asarray(j.d1, dtype=float))
    target = (logd[-1] - logd[0]) / arc.length
    h = L - target
    sign_change = np.nonzero(h[:-1] * h[1:] <= 0)[0]
    if len(sign_change) == 0:
        x_m = float(arc.midpoint)
    else:
        i = int(sign_change[0])
        # bisection inside the bracketing cell, in arc coordinates
        t_lo = i * arc.length / (grid_size - 1)
        t_hi = (i + 1) * arc.length / (grid_size - 1)

        def f(t):
            jt = eval_jet3(phi, (arc.left + t) % 1.0)
            return float(log_derivative(jt)) - target

        f_lo = f(t_lo)
        for _ in range(100):
            t_mid = 0.5 * (t_lo + t_hi)
            f_mid = f(t_mid)
            if f_lo * f_mid <= 0:
                t_hi = t_mid
            else:
                t_lo, f_lo = t_mid, f_mid
            if t_hi - t_lo < 1e-15:
                break
        x_m = float((arc.left + 0.5 * (t_lo + t_hi)) % 1.0)

    jm = eval_jet3(phi, x_m)
    # lift x_m's image consistently with the NormalizedMap convention
    A = LineMobius.from_2jet(x_m, float(np.asarray(jm.value)), float(np.asarray(jm.d1)),
                             float(np.asarray(jm.d2)))
    # the lift reference may shift A's value by an integer; rebuild from the
    # lifted value used by the normalized map
    k = NormalizedMap(phi, x_m, A)
    ref = k._ref
    A = LineMobius.from_2jet(x_m, ref, float(np.asarray(jm.d1)), float(np.asarray(jm.d2)))
    k = NormalizedMap(phi, x_m, A)
    j0 = k.jet(0.0)
    res = (abs(float(np.asarray(j0.value))), abs(float(np.asarray(j0.d1)) - 1.0),
           abs(float(np.asarray(j0.d2))))
    if max(res) > 1e-10:
        raise AssertionError(f"normalization residuals too large: {res}")
    return Normalization(x_m, A, k, res)


# ---------------------------------------------------------------------------
# the reconstruction ODE
# ---------------------------------------------------------------------------


class ProjectiveBlowupError(RuntimeError):
    """v vanishes inside the domain; k = u/v leaves the projective chart."""


@dataclass
class ODESolution:
    ys: np.ndarray
    u: np.ndarray
    v: np.ndarray
    up: np.ndarray
    vp: np.ndarray
    wronskian_drift: float
    richardson_error: float
    derivative_identity_error: float

    @property
    def k(self) -> np.ndarray:
        return self.u / self.v

    @property
    def sup_vp(self) -> float:
        return float(np.max(np.abs(self.vp)))


def _rk4_branch(S, y_end: float, n: int):
    """Integrate (u, u', v, v') from 0 towards y_end in n fixed RK4 steps.

    S is evaluated in two vectorized calls: on the nodes and on the
    half-step midpoints.
    """
    h = y_end / n
    ys = np.concatenate([[0.0], np.cumsum(np.full(n, h))])
    c_node = -0.5 * S(ys)
    c_mid = -0.5 * S(ys[:-1] + h / 2)
    states = np.zeros((n + 1, 4))
    states[0] = (0.0, 1.0, 1.0, 0.0)

    def f(c, s):
        u, up, v, vp = s
        return np.array([up, c * u, vp, c * v])

    s = states[0]
    for i in range(1, n + 1):
        k1 = f(c_node[i - 1], s)
        k2 = f(c_mid[i - 1], s + h / 2 * k1)
        k3 = f(c_mid[i - 1], s + h / 2 * k2)
        k4 = f(c_node[i], s + h * k3)
        s = s + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        states[i] = s
    return ys, states


def _solve_once(S, a: float, b: float, step: float, refine: int = 1):
    n_r = max(1, int(np.ceil(abs(b) / step))) * refine
    n_l = max(1, int(np.ceil(abs(a) / step))) * refine
    ys_r, st_r = _rk4_branch(S, b, n_r)
    ys_l, st_l = _rk4_branch(S, a, n_l)
    ys = np.concatenate([ys_l[::-1][:-1], ys_r])
    st = np.concatenate([st_l[::-1][:-1], st_r])
    return ys, st


def solve_and_reconstruct(S, domain: tuple, step: float = 1e-3) -> ODESolution:
    """Solve u'' + (S/2) u = 0 with the canonical initial data both ways
    from 0 and reconstruct k = u/v.

    S is a vectorized callable on [a, b] containing 0.  The Wronskian must hold to
    1e-8 across the domain; a Richardson error estimate (step halving)
    and finite-difference checks of the k-derivative identities are
    attached to the solution.
    """
    a, b = float(domain[0]), float(domain[1])
    if not (a < 0.0 < b or (a <= 0.0 <= b)):
        raise ValueError("domain must contain 0")
    if step > (b - a) / 100:
        raise ValueError("step too coarse: need at least 100 steps across the domain")
    ys, st = _solve_once(S, a, b, step)
    ys2, st2 = _solve_once(S, a, b, step, refine=2)
    u, up, v, vp = st[:, 0], st[:, 1], st[:, 2], st[:, 3]
    if np.any(v <= 0):
        raise ProjectiveBlowupError("projective blow-up inside domain: v vanishes")
    wron = up * v - vp * u
    drift = float(np.max(np.abs(wron - 1.0)))
    # Richardson: RK4 halving reduces the error 16-fold
    rich = float(np.max(np.abs(st2[::2] - st)) / 15.0)

    k = u / v
    h = ys[1] - ys[0]
    interior = slice(2, -2)

    def fd1(arr):
        d_h = (arr[2:] - arr[:-2]) / (2 * h)
        d_2h = (arr[4:] - arr[:-4]) / (4 * h)
        return (4 * d_h[1:-1] - d_2h) / 3

    def fd3(arr):
        d_h = (arr[4:] - 2 * arr[3:-1] + 2 * arr[1:-3] - arr[:-4]) / (2 * h ** 3)
        return d_h

    k1_fd = fd1(k)
    k1_true = (1.0 / v ** 2)[interior]
    k2_fd = fd1(1.0 / v ** 2)      # differentiate the exact k' identity
    k2_true = (-2.0 * vp / v ** 3)[interior]
    Svals = np.asarray(S(ys), dtype=float)
    k3_true = (Svals / v ** 2 + 6.0 * vp ** 2 / v ** 4)[2:-2]
    k3_fd = fd3(k)
    err = max(
        float(np.max(np.abs(k1_fd - k1_true))),
        float(np.max(np.abs(k2_fd - k2_true))),
        float(np.max(np.abs(k3_fd - k3_true)) / max(10.0, np.max(np.abs(k3_true)))),
    )
    return ODESolution(ys, u, v, up, vp, drift, rich, err)


# ---------------------------------------------------------------------------
# C^3 convergence verdict
# ---------------------------------------------------------------------------


@dataclass
class C3Verdict:
    ms: list
    sup_S: np.ndarray
    c1_dist: np.ndarray
    c3_dist: np.ndarray
    sup_vp: np.ndarray
    assembled_bound: np.ndarray
    verdict: str                     # "PASS" | "FAIL"

    def as_dict(self):
        return {
            "ms": list(self.ms),
            "sup_S": [float(v) for v in self.sup_S],
            "c1_dist": [float(v) for v in self.c1_dist],
            "c3_dist": [float(v) for v in self.c3_dist],
            "sup_vp": [float(v) for v in self.sup_vp],
            "assembled_bound": [float(v) for v in self.assembled_bound],
            "verdict": self.verdict,
        }


def c3_convergence_check(phi_family, arc: Arc, grid_size: int = 257,
                         ode_step: float = 1e-3) -> C3Verdict:
    """Curves of sup|S phi_m|, C^1 and C^3 distances to the identity, and
    the v' decay of the reconstruction ODE, for a family of interval
    diffeomorphisms.

    PASS when the C^3 distance is controlled by the hypothesis scales:
    final C^3 <= 10 * (final C^1 + final sup|S| + final sup|v'|), i.e.
    C^1-convergence plus uniformly vanishing Schwarzian force
    C^3-convergence.
    """
    xs = arc.grid(grid_size)
    sup_S, c1, c3, svp, bound = [], [], [], [], []
    ms = []
    for m, phi in enumerate(phi_family, start=1):
        ms.append(m)
        sup_S.append(float(np.max(np.abs(schwarzian(eval_jet3(phi, xs))))))
        c1.append(ck_distance_to_identity(phi, arc, 1, grid_size))
        c3.append(ck_distance_to_identity(phi, arc, 3, grid_size))
        norm = mobius_normalize(phi, arc, grid_size)
        a = -(norm.x_m - arc.left) % 1.0
        a = a if a <= 0 else a - 1.0
        b = arc.length + a
        sol = solve_and_reconstruct(lambda y: np.asarray(norm.k.schwarzian(y)),
                                    (a, b), ode_step)
        svp.append(sol.sup_vp)
        v_dev = float(np.max(np.abs(sol.v - 1.0)))
        # assemble a C^3 bound: k-derivative identities plus the drift of
        # the normalizing Mobius map (its 2-jet carries the C^1 data)
        V = float(np.max(1.0 / sol.v ** 2))
        k_c3 = (np.max(np.abs(sol.u / sol.v - sol.ys))
                + abs(V - 1.0) + v_dev * (2 + 3 * V)
                + 2 * sol.sup_vp * V ** 1.5
                + sup_S[-1] * V + 6 * sol.sup_vp ** 2 * V ** 2)
        a_drift = c1[-1] * (1 + arc.length) * 4 + sup_S[-1]
        bound.append(float(k_c3 * (1 + a_drift) + a_drift * (1 + c3[-1])))
    sup_S, c1, c3, svp, bound = map(np.array, (sup_S, c1, c3, svp, bound))
    final_scale = c1[-1] + sup_S[-1] + svp[-1]
    verdict = "PASS" if c3[-1] <= max(10.0 * final_scale, 1e-9) else "FAIL"
    return C3Verdict(ms, sup_S, c1, c3, svp, bound, verdict)
