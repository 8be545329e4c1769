import mpmath
import numpy as np
import pytest
from conftest import fd_jet, mp_lifted

from circlelab.circle import Arc, circle_dist, wrap
from circlelab.jets import Jet3, log_derivative, schwarzian
from circlelab.maps import (
    ConjugatedMap,
    LiftedMap,
    MobiusMap,
    TrigConjugacy,
    Word,
    linearizing_chart,
    make_generator,
    mobius_jet,
    mobius_seminorms,
    mobius_window_extrema,
    rotation,
)

HYP = MobiusMap([[0.5, 0.0], [0.0, 2.0]])


def rand_mobius_word(rng, k, allow_rotation=True):
    gens = [MobiusMap([[1, 2], [0, 1]]), MobiusMap([[1, 0], [2, 1]])]
    if allow_rotation:
        gens.append(rotation(np.sqrt(2) - 1))
    return Word([gens[i] if s > 0 else gens[i].inverse()
                 for i, s in zip(rng.integers(0, len(gens), k), rng.choice([-1, 1], k))])


# -- make_generator ----------------------------------------------------------

def test_identity_generator_jet():
    g = make_generator([[1, 0], [0, 1]])
    xs = np.linspace(0, 0.99, 7)
    j = g.jet(xs)
    assert np.allclose(j.value, xs) and np.allclose(j.d1, 1) and np.allclose(j.d2, 0) and np.allclose(j.d3, 0)


def test_hyperbolic_generator_derivative_at_fixed_point():
    # diag(1/2, 2) acts as t -> t/4 in the affine chart; multiplier 1/4 at x = 0
    g = make_generator([[0.5, 0], [0, 2]])
    j = g.jet(0.0)
    assert abs(j.value - 0.0) < 1e-15
    assert abs(j.d1 - 0.25) < 1e-14


def test_rotation_generator_is_isometry():
    theta = 0.2718
    g = rotation(theta)
    xs = np.linspace(0, 0.95, 11)
    j = g.jet(xs)
    assert np.allclose(circle_dist(j.value, (xs + theta) % 1.0), 0, atol=1e-14)
    assert np.allclose(j.d1, 1, atol=1e-14)
    assert np.allclose(j.d2, 0, atol=1e-12)
    assert np.allclose(j.d3, 0, atol=1e-11)


def test_make_generator_rejects_bad_input():
    with pytest.raises(ValueError):
        make_generator([[1, 1], [1, 1]])            # singular
    with pytest.raises(ValueError):
        make_generator([[0, 1], [1, 0]])            # orientation-reversing
    with pytest.raises(ValueError):
        make_generator([[1, 0], [0, 1]], conjugator=[[0.0, 0.4]])  # lift not monotone


# -- eval_jet3 ---------------------------------------------------------------

def test_word_inverse_cancellation():
    rng = np.random.default_rng(3)
    w = rand_mobius_word(rng, 10)
    ww = Word(w.factors + w.inverse().factors)
    xs = rng.random(5)
    j = ww.jet(xs)
    assert np.max(circle_dist(j.value, xs)) < 1e-9
    assert np.max(np.abs(j.d1 - 1)) < 1e-9
    assert np.max(np.abs(j.d2)) < 1e-8
    assert np.max(np.abs(j.d3)) < 1e-7


def test_jets_match_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(12):
        w = rand_mobius_word(rng, int(rng.integers(1, 6)))
        x = float(rng.random())
        j = w.jet(x)
        f1, f2, f3 = fd_jet(w, x)
        assert abs(f1 - j.d1) <= 1e-5 * max(1.0, abs(j.d1))
        assert abs(f2 - j.d2) <= 1e-5 * max(1.0, abs(j.d2), abs(j.d1))
        assert abs(f3 - j.d3) <= 1e-4 * max(10.0, abs(j.d3))


def test_jets_match_finite_differences_length_10():
    rng = np.random.default_rng(29)
    for _ in range(5):
        w = rand_mobius_word(rng, 10)
        x = float(rng.random())
        j = w.jet(x)
        f1, f2, f3 = fd_jet(w, x, h1=1e-5, h3=1e-3)
        scale = max(1.0, abs(j.d1))
        assert abs(f1 - j.d1) <= 1e-5 * scale
        assert abs(f2 - j.d2) <= 1e-4 * max(1.0, abs(j.d2))
        assert abs(f3 - j.d3) <= 1e-3 * max(1.0, abs(j.d3))


# -- conjugated generators ---------------------------------------------------

def test_conjugated_generator_roundtrip_and_jets():
    conj = [[0.01, -0.02], [0.005, 0.003]]
    g = make_generator([[1, 2], [0, 1]], conjugator=conj)
    assert isinstance(g, ConjugatedMap)
    rng = np.random.default_rng(7)
    xs = rng.random(9)
    back = g.inverse().apply(g.apply(xs))
    assert np.max(circle_dist(back, xs)) < 1e-10
    x = 0.4321
    j = g.jet(x)
    f1, f2, f3 = fd_jet(g, x)
    assert abs(f1 - j.d1) <= 1e-5 * max(1.0, abs(j.d1))
    assert abs(f2 - j.d2) <= 1e-4 * max(1.0, abs(j.d2))
    assert abs(f3 - j.d3) <= 1e-3 * max(1.0, abs(j.d3))


def test_trig_conjugacy_inverse_jet():
    c = TrigConjugacy([[0.03, 0.01]])
    ci = c.inverse()
    x = 0.27
    j = ci.jet(x)
    f1, f2, f3 = fd_jet(ci, x)
    assert abs(f1 - j.d1) < 1e-6
    assert abs(f2 - j.d2) < 1e-4
    assert abs(f3 - j.d3) < 1e-2 * max(1.0, abs(j.d3))


@pytest.mark.parametrize("conj", [[[0.03, 0.01]], [[0.01, -0.02], [0.005, 0.003]],
                                  [[0.02, -0.015], [0.008, 0.006], [-0.003, 0.004]]])
def test_conjugated_values_do_not_depend_on_the_batch(conj):
    # one call on 500 points is bit for bit 500 one-point calls: the lift
    # sums its harmonics per point, and Newton stops per point
    g = make_generator([[2, 1], [1, 1]], conjugator=conj)
    c = g.conj
    xs = np.random.default_rng(3).random(500)
    for f in (c.apply, c._lift_d1, c._lift_d2, c._lift_d3, c.inverse_value, g.apply, g.inverse().apply):
        assert np.array_equal(f(xs), np.concatenate([f(xs[i:i + 1]) for i in range(len(xs))]))


# -- lifted maps -------------------------------------------------------------

def test_lifted_map_roundtrip_and_commutation():
    base = MobiusMap([[1, 2], [0, 1]])
    for k in (2, 3):
        for j in range(k):
            g = LiftedMap(base, k, j)
            xs = np.linspace(0.01, 0.99, 23)
            back = g.inverse().apply(g.apply(xs))
            assert np.max(circle_dist(back, xs)) < 1e-10
            # commutes with rotation by 1/k
            lhs = g.apply((xs + 1.0 / k) % 1.0)
            rhs = (g.apply(xs) + 1.0 / k) % 1.0
            assert np.max(circle_dist(lhs, rhs)) < 1e-12


def test_lifted_map_jets():
    g = LiftedMap(MobiusMap([[1, 0], [2, 1]]), 2, 1)
    x = 0.355
    j = g.jet(x)
    f1, f2, f3 = fd_jet(g, x)
    assert abs(f1 - j.d1) <= 1e-5 * max(1.0, abs(j.d1))
    assert abs(f2 - j.d2) <= 1e-4 * max(1.0, abs(j.d2))
    assert abs(f3 - j.d3) <= 1e-3 * max(1.0, abs(j.d3))


def _first_order_maps():
    """Mobius, conjugated and degree-2 lifted maps (over both), their inverses
    and a word, whose `value_d1` reads its jet."""
    A = make_generator([[1, 2], [0, 1]])
    C = make_generator([[1, 0], [2, 1]], [[0.01, 0.02], [0.005, -0.01]])
    maps = [A, C, LiftedMap(A, 2), LiftedMap(A, 2, 1), LiftedMap(C, 2, 1), Word([A, C])]
    return maps + [f.inverse() for f in maps]


@pytest.mark.parametrize("f", _first_order_maps(), ids=repr)
def test_value_d1_is_the_jet_bit_for_bit(f):
    # the first-order forms repeat the jets' operations in their order
    rng = np.random.default_rng(8)
    x = np.concatenate([rng.random(2000), [0.0, 0.25, 0.5, 0.75, 1.0 - 2 ** -53]])
    j = f.jet(x)
    val, d1 = f.value_d1(x)
    assert np.array_equal(val, j.value) and np.array_equal(d1, j.d1)
    v1, d1 = f.value_d1(0.3)
    assert v1 == f.jet(0.3).value and d1 == f.jet(0.3).d1


class _CountingMap:
    """A map that counts the evaluations made through it."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def apply(self, x):
        self.calls += 1
        return self.f.apply(x)

    def jet(self, x):
        self.calls += 1
        return self.f.jet(x)

    def value_d1(self, x):
        self.calls += 1
        return self.f.value_d1(x)


@pytest.mark.parametrize("base", [make_generator([[1, 2], [0, 1]]),
                                  make_generator([[1, 0], [2, 1]], [[0.01, 0.02], [0.005, -0.01]])],
                         ids=["mobius", "conjugated"])
def test_lifted_jet_takes_its_value_from_one_base_evaluation(base):
    # the lift value comes from the base jet's value, which is the base
    # map's value bit for bit, branch included at the wrap points of k x
    rng = np.random.default_rng(9)
    for k, j in ((2, 0), (2, 1), (3, 2)):
        x = np.concatenate([rng.random(500), np.arange(k + 1) / k,
                            np.nextafter(np.arange(1, k + 1) / k, 0.0), [1.0 - 2 ** -53]])
        counted = _CountingMap(base)
        g = LiftedMap(counted, k, j)
        want = LiftedMap(base, k, j).apply(x)
        for evaluate in (lambda v: g.jet(v).value, lambda v: g.value_d1(v)[0], g.apply):
            counted.calls = 0
            assert np.array_equal(evaluate(x), want)
            assert counted.calls == 1


# -- arcs ---------------------------------------------------------------------

def test_degenerate_arc_rejected():
    with pytest.raises(ValueError):
        Arc(0.3, 0.0)
    with pytest.raises(ValueError):
        Arc(0.3, 0.2).grid(1)


# -- closed-form seminorms of Mobius maps -------------------------------------

def logd_prime_and_schwarzian(m, z, lib):
    """(L g(z), S g(z)) from the matrix entries in lib's arithmetic (numpy or
    mpmath), by the jet formulas of the maps docstring: L = -pi R'/R and
    S = pi^2 (R'^2 / (2 R^2) - R''/R), R = U^2 + V^2."""
    a, b, c, d = m
    cs, sn = lib.cos(lib.pi * z), lib.sin(lib.pi * z)
    U, V, Up, Vp = d * cs + c * sn, b * cs + a * sn, c * cs - d * sn, a * cs - b * sn
    R, Rp = U * U + V * V, 2 * (U * Up + V * Vp)
    Rpp = 2 * (Up * Up + Vp * Vp) - 2 * R
    return -lib.pi * Rp / R, lib.pi ** 2 * (Rp * Rp / (2 * R * R) - Rpp / R)


def mp_circle_max(f_np, f_mp, n=1 << 18):
    """max of |f| over the circle: the float grid's best point, then a
    golden-section search at 40 digits within two cells of it."""
    xs = np.arange(n) / n
    x0 = mpmath.mpf(float(xs[np.argmax(np.abs(f_np(xs)))]))
    lo, hi = x0 - mpmath.mpf(2) / n, x0 + mpmath.mpf(2) / n
    g = (3 - mpmath.sqrt(5)) / 2
    for _ in range(150):
        m1, m2 = lo + g * (hi - lo), hi - g * (hi - lo)
        if abs(f_mp(m1)) < abs(f_mp(m2)):
            lo = m1
        else:
            hi = m2
    return abs(f_mp((lo + hi) / 2))


STIFF = [np.diag([0.01, 100.0]), np.diag([0.05, 20.0]),
         MobiusMap(np.array([[2.0, 1.0], [1.0, 1.0]]) @ [[1.0, 0.3], [0.0, 1.0]]).matrix]


@pytest.mark.parametrize("k", range(len(STIFF)), ids=["diag(0.01,100)", "diag(0.05,20)", "generic"])
def test_closed_form_seminorms_match_a_40_digit_maximisation(k):
    mat = STIFF[k]
    _, sup_L, sup_S, complex_L, closed_rho = (float(v) for v in mobius_seminorms(mat))
    with mpmath.workdps(40):
        m = [mpmath.mpf(float(v)) for v in mat.ravel()]
        # the pole of L g nearest the circle: U^2 + V^2 = 0, tan(pi z) = (i d - b) / (a - i c)
        rho = abs(mpmath.im(mpmath.atan((1j * m[3] - m[1]) / (m[0] - 1j * m[2])) / mpmath.pi))
        for closed, part, height in ((sup_L, 0, 0), (sup_S, 1, 0), (complex_L, 0, rho / 2)):
            exact = mp_circle_max(
                lambda x: logd_prime_and_schwarzian(mat.ravel(), x + 1j * float(height), np)[part],
                lambda x: logd_prime_and_schwarzian(m, x + 1j * height, mpmath)[part])
            assert abs(closed / exact - 1) <= 1e-12
        assert abs(closed_rho / rho - 1) <= 1e-14


def grid_holder(mat, tau, n=4096):
    """max over all pairs of an n-point circle grid of
    |log g'(x) - log g'(y)| / dist(x, y)^tau: a lower bound of the seminorm."""
    ld = np.log(mobius_jet(mat, np.arange(n) / n).d1)
    return max(float(np.max(np.abs(np.roll(ld, -k) - ld))) / (k / n) ** tau for k in range(1, n // 2 + 1))


@pytest.mark.parametrize("tau", [0.25, 0.5, 1.0])
def test_holder_bound_is_at_least_a_fine_grid_value(tau):
    from circlelab.configs import BUILTIN_CONFIGS, build_step_distribution

    mats = np.concatenate([mu.matrices() for mu in map(build_step_distribution, BUILTIN_CONFIGS.values())
                           if mu.matrices() is not None])
    holder, sup_L = mobius_seminorms(mats, tau)[:2]
    if tau == 1.0:
        assert np.array_equal(holder, sup_L)
    n = 4096
    for mat, bound in zip(mats, holder):
        grid = grid_holder(mat, tau, n)
        # the grid's rounding of log g', over the smallest distance 1/n
        assert bound >= grid - 4 * np.finfo(float).eps * n ** tau
        assert bound <= 2.0 * grid + 1e-12    # and not far above it


def test_rotations_have_zero_seminorms():
    mats = np.stack([rotation(0.123).matrix, rotation(0.41421356237309515).matrix, np.eye(2)])
    for tau in (0.5, 1.0):
        *values, rho = mobius_seminorms(mats, tau)
        for v in values:
            assert np.array_equal(v, np.zeros(3))
        assert np.all(np.isinf(rho))


def jet_grid_extrema(mat, lo, hi, n):
    """(osc log g', max |L g|, max |S g|) on an n-point grid of [lo, hi]:
    lower bounds of the sups."""
    j = mobius_jet(mat, np.linspace(lo, hi, n))
    ld = np.log(j.d1)
    return np.array([ld.max() - ld.min(), np.max(np.abs(log_derivative(j))), np.max(np.abs(schwarzian(j)))])


@pytest.mark.parametrize("word", ["a", "b.a", "b^-1.a", "a^-1.b^-1"])
@pytest.mark.parametrize("point", ["min g'", "max g'", "max |L|"])
def test_window_extrema_match_a_fine_jet_grid(word, point):
    # each arc puts the point where g' or |L g| peaks halfway between two
    # points of a 65-point grid, which reads low there
    gens = {"a": [[1.0, 2.0], [0.0, 1.0]], "b": [[1.0, 0.0], [2.0, 1.0]]}
    gens.update({f"{k}^-1": MobiusMap(m).inverse().matrix for k, m in list(gens.items())})
    mat = Word([MobiusMap(gens[s]) for s in word.split(".")]).matrix()
    (a, b), (c, d) = mat
    A, B, C = (a * a + b * b + c * c + d * d) / 2, (b * b + d * d - a * a - c * c) / 2, a * b + c * d
    turn = {"min g'": 0.0, "max g'": 0.5, "max |L|": np.arccos(-np.hypot(B, C) / A) / (2 * np.pi)}[point]
    half = 0.01
    mid = np.arctan2(C, B) / (2 * np.pi) + turn + half / 64
    got = np.concatenate(mobius_window_extrema((mat / np.sqrt(A))[None], np.log([A]),
                                               np.array([mid - half]), np.array([mid + half])))
    np.testing.assert_allclose(got, jet_grid_extrema(mat, mid - half, mid + half, 100_001), rtol=1e-9)
    coarse = jet_grid_extrema(mat, mid - half, mid + half, 65)
    peak = 1 if point == "max |L|" else 0
    assert coarse[peak] < got[peak] * (1 - 1e-6)


def test_window_extrema_of_a_long_product_stay_finite():
    # 700 steps of a Schottky pair: the product's derivative on a contracted
    # window falls below 1e-308, where a composed jet reads 0 and its L and
    # S NaN; the scaled matrix and the log of its scale keep them finite
    s, t = np.array([[0.2, 0.0], [0.0, 5.0]]), np.array([[2.6, 2.4], [2.4, 2.6]])
    letters = [s, np.linalg.inv(s), t, np.linalg.inv(t)]
    prod, log_a = np.eye(2), 0.0
    for k in np.random.default_rng(9).integers(0, 4, 700):
        prod = letters[k] @ prod
        scale = np.sum(prod * prod) / 2.0
        prod, log_a = prod / np.sqrt(scale), log_a + np.log(scale)
    assert log_a > 709
    (a, b), (c, d) = prod
    zero = np.arctan2(a * b + c * d, (b * b + d * d - a * a - c * c) / 2) / (2 * np.pi)
    mids = zero + np.array([0.0, 0.25, 0.5])     # theta = 0, pi / 2, pi
    osc, sup_L, sup_S = mobius_window_extrema(np.broadcast_to(prod, (3, 2, 2)), np.full(3, log_a),
                                              mids - 0.01, mids + 0.01)
    assert np.all(np.isfinite(osc)) and np.all(np.isfinite(sup_L[:2]) & np.isfinite(sup_S[:2]))
    assert sup_S[0] == pytest.approx(2 * np.pi ** 2)      # g' = 0 to float precision
    # around the repelling point (theta = pi) g' reaches e^{log_a} (1 + r):
    # osc is about 2 log_a, and sup |L| and sup |S| are past the float range
    assert osc[2] > 1.9 * log_a and np.isinf(sup_L[2]) and np.isinf(sup_S[2])


def scalar_mobius_jet(m, x):
    """The closed-form 3-jet of one matrix on its scalar entries, as
    `MobiusMap.jet` wrote it before `mobius_jet`: the stacked form's oracle."""
    a, b, c, d = m.ravel()
    phi = np.pi * np.asarray(x, dtype=float)
    cs, sn = np.cos(phi), np.sin(phi)
    U, V = d * cs + c * sn, b * cs + a * sn
    Up, Vp = c * cs - d * sn, a * cs - b * sn
    R = U * U + V * V
    Rp = 2.0 * (U * Up + V * Vp)
    Rpp = 2.0 * (Up * Up + Vp * Vp) - 2.0 * R
    return Jet3(wrap(np.arctan2(V, U) / np.pi), 1.0 / R, -np.pi * Rp / R ** 2,
                np.pi ** 2 * (2.0 * Rp ** 2 / R ** 3 - Rpp / R ** 2))


def test_mobius_jet_is_the_scalar_closed_form_bit_for_bit():
    rng = np.random.default_rng(17)
    raw = rng.normal(size=(24, 2, 2))
    raw[np.linalg.det(raw) < 0, :, 0] *= -1.0
    maps = [MobiusMap(m) for m in raw]
    x = rng.random((24, 33))
    stacked = mobius_jet(np.stack([g.matrix for g in maps])[:, None], x)
    for i, g in enumerate(maps):
        ref = scalar_mobius_jet(g.matrix, x[i])
        for field in ("value", "d1", "d2", "d3"):
            assert np.array_equal(getattr(stacked, field)[i], getattr(ref, field)), field
            assert np.array_equal(getattr(g.jet(x[i]), field), getattr(ref, field)), field
        point = float(x[i, 0])
        assert g.jet(point) == scalar_mobius_jet(g.matrix, point)


# -- linearizing chart -------------------------------------------------------

def test_chart_diagonal_case():
    ch = linearizing_chart(HYP)
    assert abs(ch.alpha - 0.25) < 1e-14
    assert abs(ch.fixed_point - 0.0) < 1e-14
    # chart is the identity germ: derivative 1 at the fixed point
    xs = np.array([1e-4, -1e-4 % 1.0])
    ys = ch.to_chart(xs)
    assert np.allclose(ys, [1e-4, -1e-4], rtol=1e-6)


def test_chart_rejects_non_hyperbolic():
    with pytest.raises(ValueError, match="not hyperbolic"):
        linearizing_chart(rotation(0.25))
    with pytest.raises(ValueError, match="pure Mobius"):
        linearizing_chart(make_generator([[0.5, 0], [0, 2]], conjugator=[[0.01, 0.0]]))


def test_chart_conjugated_hyperbolic_exact_linearization():
    R = rotation(0.2)
    H = Word((R.inverse(), HYP, R)).as_mobius()  # R o HYP o R^{-1}
    ch = linearizing_chart(H)
    ys = np.linspace(-0.01, 0.01, 41)
    conj = ch.to_chart(H.apply(ch.from_chart(ys)))
    assert np.max(np.abs(conj - 0.25 * ys)) < 1e-12


# -- analytic extension width ------------------------------------------------

def test_rho_rotation_infinite():
    assert np.isinf(mobius_seminorms(rotation(0.3).matrix)[4])


def test_rho_hyperbolic_closed_form():
    assert abs(mobius_seminorms(HYP.matrix)[4] - np.log(5.0 / 3.0) / (2 * np.pi)) < 1e-12


@pytest.mark.parametrize("matrix", [[[1, 2], [0, 1]], [[1, 0], [2, 1]]], ids=["a", "b"])
def test_lifted_values_at_the_wrap_points_match_mpmath(matrix):
    # k x a whole number or an ulp below one: base(u) rounds onto base(0) or
    # across it, and the branch must be u's
    base = MobiusMap(matrix)
    for k in (2, 3):
        x = np.arange(k + 1) / k
        x = np.concatenate([x, np.nextafter(x[1:], 0.0)])
        for j in (0, 1):
            g = LiftedMap(base, k, j)
            want = np.array([float(mp_lifted(base.matrix, k, j, v)[0]) for v in x])
            for got in (g.apply(x), g.jet(x).value, g.value_d1(x)[0]):
                assert np.max(circle_dist(got, want)) <= 4e-16, (k, j)
