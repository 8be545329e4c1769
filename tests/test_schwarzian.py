import numpy as np
import pytest

from circlelab.circle import Arc
from circlelab.maps import MobiusMap, TrigConjugacy, Word, rotation
from circlelab.schwarzian import (
    LineMobius,
    ProjectiveBlowupError,
    _rk4_branch,
    c3_convergence_check,
    mobius_normalize,
    solve_and_reconstruct,
)


class ShiftedLineMap:
    """Adapter exposing a real map on [0,1) as a circle-map protocol."""

    def __init__(self, line):
        self.line = line

    def apply(self, x):
        return np.asarray(self.line.apply(np.asarray(x, dtype=float))) % 1.0

    def jet(self, x):
        return self.line.jet(np.asarray(x, dtype=float))


# -- LineMobius ------------------------------------------------------------------

def test_line_mobius_2jet():
    A = LineMobius.from_2jet(0.3, 0.45, 1.7, -0.8)
    j = A.jet(0.3)
    assert abs(j.value - 0.45) < 1e-14
    assert abs(j.d1 - 1.7) < 1e-13
    assert abs(j.d2 + 0.8) < 1e-12
    # flat Schwarzian of a line Mobius map vanishes identically
    ys = np.linspace(-0.2, 0.6, 11)
    jj = A.jet(ys)
    S = jj.d3 / jj.d1 - 1.5 * (jj.d2 / jj.d1) ** 2
    assert np.max(np.abs(S)) < 1e-11


def test_line_mobius_inverse():
    A = LineMobius.from_2jet(0.1, 0.2, 0.9, 0.4)
    ys = np.linspace(-0.3, 0.5, 7)
    assert np.max(np.abs(A.inverse().apply(A.apply(ys)) - ys)) < 1e-12


# -- normalization -----------------------------------------------------------------

def test_normalize_identity():
    norm = mobius_normalize(Word(()), Arc(0.2, 0.3))
    ys = np.linspace(-0.1, 0.1, 21)
    assert np.max(np.abs(norm.k.apply(ys) - ys)) < 1e-12


def test_normalize_mobius_is_identity():
    # a map with S = 0 equals its own 2-jet Mobius normal form
    A = LineMobius.from_2jet(0.4, 0.42, 1.15, 0.3)
    phi = ShiftedLineMap(A)
    norm = mobius_normalize(phi, Arc(0.25, 0.3))
    ys = np.linspace(-0.12, 0.12, 41)
    assert np.max(np.abs(norm.k.apply(ys) - ys)) < 1e-10


def test_normalize_trig_map():
    phi = TrigConjugacy([[0.0, 0.01]])   # x + 0.01 sin(2 pi x)
    arc = Arc(0.2, 0.2)
    norm = mobius_normalize(phi, arc)
    assert max(norm.normalization_residuals) < 1e-10
    # Schwarzian is unchanged by the normalization at matching points
    ys = np.linspace(-0.05, 0.05, 21)
    S_k = norm.k.schwarzian(ys)
    from circlelab.maps import eval_jet3

    j = eval_jet3(phi, (norm.x_m + ys) % 1.0)
    L = j.d2 / j.d1
    S_phi = j.d3 / j.d1 - 1.5 * L ** 2
    assert np.max(np.abs(S_k - S_phi)) < 1e-9


# -- the ODE -----------------------------------------------------------------------

def test_ode_zero_schwarzian():
    sol = solve_and_reconstruct(lambda y: np.zeros_like(np.asarray(y, dtype=float)),
                                (-1.0, 1.0), 1e-3)
    assert np.max(np.abs(sol.u - sol.ys)) < 1e-12
    assert np.max(np.abs(sol.v - 1.0)) < 1e-12
    assert np.max(np.abs(sol.k - sol.ys)) < 1e-12


def test_ode_constant_schwarzian_closed_form():
    # S = 2 w^2: u = sin(w y)/w, v = cos(w y), k = tan(w y)/w
    w = 0.3
    sol = solve_and_reconstruct(lambda y: np.full_like(np.asarray(y, dtype=float), 2 * w * w),
                                (-1.0, 1.0), 1e-3)
    assert np.max(np.abs(sol.u - np.sin(w * sol.ys) / w)) <= 1e-8
    assert np.max(np.abs(sol.v - np.cos(w * sol.ys))) <= 1e-8
    assert np.max(np.abs(sol.k - np.tan(w * sol.ys) / w)) <= 1e-8
    assert sol.wronskian_drift <= 1e-8
    assert sol.derivative_identity_error <= 1e-7


def test_ode_roundtrip_from_normalization():
    phi = TrigConjugacy([[0.004, 0.01]])
    arc = Arc(0.15, 0.25)
    norm = mobius_normalize(phi, arc)
    a = -((norm.x_m - arc.left) % 1.0)
    b = arc.length + a
    sol = solve_and_reconstruct(lambda y: np.asarray(norm.k.schwarzian(y)), (a, b), 5e-4)
    k_direct = norm.k.apply(sol.ys)
    assert np.max(np.abs(sol.k - k_direct)) <= 1e-7


def test_ode_blowup_detected():
    # S = 2 w^2 with w large enough that v = cos(w y) vanishes inside
    w = 2.0
    with pytest.raises(ProjectiveBlowupError):
        solve_and_reconstruct(lambda y: np.full_like(np.asarray(y, dtype=float), 2 * w * w),
                              (-1.0, 1.0), 1e-3)


def random_trig_S():
    rng = np.random.default_rng(3)
    coef = rng.standard_normal(4) * 0.3

    def S(y):
        y = np.asarray(y, dtype=float)
        return coef[0] + coef[1] * np.sin(3 * y) + coef[2] * y + coef[3] * np.cos(2 * y)

    return S


def test_ode_wronskian_conserved():
    sol = solve_and_reconstruct(random_trig_S(), (-0.8, 0.9), 1e-3)
    assert sol.wronskian_drift <= 1e-8


def rk4_scalar_reference(S, y_end, n):
    """Reference RK4 loop calling S at every stage, one point at a time."""
    h = y_end / n
    ys = np.zeros(n + 1)
    states = np.zeros((n + 1, 4))
    states[0] = (0.0, 1.0, 1.0, 0.0)

    def f(y, s):
        u, up, v, vp = s
        c = -0.5 * S(y)
        return np.array([up, c * u, vp, c * v])

    y = 0.0
    s = states[0]
    for i in range(1, n + 1):
        k1 = f(y, s)
        k2 = f(y + h / 2, s + h / 2 * k1)
        k3 = f(y + h / 2, s + h / 2 * k2)
        k4 = f(y + h, s + h * k3)
        s = s + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        y += h
        ys[i] = y
        states[i] = s
    return ys, states


@pytest.mark.parametrize("y_end, n", [(0.9, 901), (-0.8, 800), (0.9, 1802)])
def test_rk4_vectorized_S_matches_scalar_loop(y_end, n):
    S = random_trig_S()
    ys, states = _rk4_branch(S, y_end, n)
    ys_ref, states_ref = rk4_scalar_reference(S, y_end, n)
    assert np.array_equal(ys, ys_ref)
    assert np.array_equal(states, states_ref)


# -- convergence verdict -------------------------------------------------------------

def test_c3_check_rotation_family():
    fam = [Word((rotation(1.0 / m ** 2),)) for m in range(2, 12)]
    verdict = c3_convergence_check(fam, Arc(0.3, 0.2), grid_size=129)
    assert verdict.verdict == "PASS"
    assert verdict.c3_dist[-1] < verdict.c3_dist[0]
    assert np.max(verdict.sup_S) < 1e-10


def test_c3_check_mobius_family():
    # Mobius maps converging to the identity in matrix norm
    fam = []
    for m in range(1, 10):
        t = 0.2 / m
        fam.append(MobiusMap([[np.exp(t / 2), t / 3], [0.0, np.exp(-t / 2)]]))
    verdict = c3_convergence_check(fam, Arc(0.05, 0.15), grid_size=129)
    assert verdict.verdict == "PASS"
    assert verdict.c3_dist[-1] <= 0.3 * verdict.c3_dist[0]
    # projective family in the angle chart: S is small but the C^3 decay
    # tracks the C^1 decay
    assert verdict.c3_dist[-1] <= 10 * (verdict.c1_dist[-1] + verdict.sup_S[-1] + verdict.sup_vp[-1])
