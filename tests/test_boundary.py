import numpy as np
import pytest

from circlelab.boundary import (
    finite_quotient_detect,
    minimal_set_classify,
    proximality_test,
    quotient_boundary_entropy,
    semiconjugation_map,
)
from circlelab.circle import Arc, circle_dist
from circlelab.maps import LiftedMap, MobiusMap, Word, rotation
from circlelab.measure import GridMeasure, boundary_entropy, estimate_stationary_measure
from circlelab.walk import make_step_distribution

GOLDEN = 0.6180339887498949


def schottky_atoms():
    """Hyperbolic Schottky pair: attracting/repelling points at the four
    quarter points, strong contraction, four genuinely nu-null gaps.
    """
    g1 = MobiusMap([[0.2, 0.0], [0.0, 5.0]])
    R = rotation(0.25)
    g2 = Word((R.inverse(), g1, R)).as_mobius()
    return [g1, g1.inverse(), g2, g2.inverse()]


@pytest.fixture(scope="module")
def schottky_mu():
    return make_step_distribution(schottky_atoms(), [0.25] * 4, symmetric=True,
                                  names=["s", "s'", "t", "t'"])


@pytest.fixture(scope="module")
def schottky_nu(schottky_mu):
    # Monte Carlo endpoints live on the limit set, so nu-null gaps stay
    # exactly empty (transfer iteration smears ~0.5% into them through
    # the CDF interpolation)
    return estimate_stationary_measure(schottky_mu, method="monte_carlo", grid_size=4096,
                                       mc_samples=200_000, mc_steps=150, seed=9)


def schottky_gap_edge():
    """Oracle for the first-level gap: its left edge e is the rightmost
    limit point of the piece at 0, fixed point of e -> g1(e + 1/4)."""
    g1 = MobiusMap([[0.2, 0.0], [0.0, 5.0]])
    e = 0.05
    for _ in range(200):
        e = float(g1.apply(e + 0.25))
    return e


def rotations_mu():
    return make_step_distribution([rotation(GOLDEN), rotation(-GOLDEN)], [0.5, 0.5], symmetric=True)


# -- semiconjugation ----------------------------------------------------------

def test_semiconjugation_lebesgue_is_identity():
    mu = rotations_mu()
    nu = estimate_stationary_measure(mu, grid_size=1024, seed=1)
    sc = semiconjugation_map(nu, mu)
    xs = np.linspace(0, 0.999, 200)
    assert np.max(np.abs(sc.s(xs) - xs)) <= 1.0 / 1024
    assert np.max(sc.defects) <= 1.0 / 1024


def test_semiconjugation_mobius_pushforward():
    # nu = h_* Lebesgue has closed-form CDF h^{-1}(x) - h^{-1}(0); the
    # straightening map s is exactly that transport
    h = MobiusMap([[1.0, 0.4], [0.2, (1 + 0.4 * 0.2)]])
    N = 2048
    nu = GridMeasure.lebesgue(N).pushforward(h)
    hinv = h.inverse()
    xs = np.linspace(0, 0.999, 333)
    expected = (hinv.apply(xs) - float(hinv.apply(0.0))) % 1.0
    assert np.max(circle_dist(nu.cdf_at(xs), expected)) <= 2.0 / N
    # transporting a rotated copy of the same group keeps defects at grid level
    g = Word((hinv, rotation(GOLDEN), h)).as_mobius()
    mu = make_step_distribution([g, g.inverse()], [0.5, 0.5], symmetric=True)
    sc = semiconjugation_map(nu, mu)
    assert np.max(sc.defects) <= 5.0 / N


def test_semiconjugation_collapses_schottky_gaps(schottky_mu, schottky_nu):
    sc = semiconjugation_map(schottky_nu, schottky_mu)
    # the four first-level gaps sit strictly inside (quarter + [0.075, 0.175])
    for k in range(4):
        gap = Arc(k / 4 + 0.08, 0.09)
        vals = sc.s(gap.grid(50))
        assert np.max(vals) - np.min(vals) <= 2.0 / schottky_nu.N


# -- proximality --------------------------------------------------------------

def test_proximality_rotations_fail():
    res = proximality_test(rotations_mu(), epsilon=1e-3, word_length_cap=15)
    assert not res.proximal
    assert all(w is None for w in res.witnesses)
    # isometries cannot change the length at all
    assert np.allclose(res.achieved_lengths, [a.length for a in res.arcs])


def test_proximality_single_hyperbolic_geometric():
    g = MobiusMap([[0.5, 0], [0, 2]])
    mu = make_step_distribution([g], [1.0])
    arc = Arc(0.6, 0.1)  # stays away from the repelling point x = 1/2? no: contains it!
    arc = Arc(0.05, 0.1)  # safely inside the attracting basin
    eps = 1e-4
    res = proximality_test(mu, epsilon=eps, word_length_cap=40, arcs=[arc], lookahead=1)
    assert res.proximal
    k = len(res.witnesses[0])
    # contraction near the fixed point happens at rate alpha = 1/4
    k_pred = np.log(eps / arc.length) / np.log(0.25)
    assert abs(k - k_pred) <= 3


def test_proximality_schottky(schottky_mu):
    res = proximality_test(schottky_mu, epsilon=1e-4, word_length_cap=40)
    assert res.proximal
    assert max(len(w) for w in res.witnesses) <= 40


def test_proximality_sanov(sanov_mu):
    res = proximality_test(sanov_mu, epsilon=1e-4, word_length_cap=40)
    assert res.proximal


# -- minimal set --------------------------------------------------------------

def test_classify_rotations_whole_circle():
    mu = rotations_mu()
    nu = estimate_stationary_measure(mu, grid_size=2048, seed=1)
    rep = minimal_set_classify(nu)
    assert rep.kind == "whole_circle"


def test_classify_schottky_cantor_with_pingpong_gaps(schottky_nu):
    rep = minimal_set_classify(schottky_nu)
    assert rep.kind == "cantor"
    assert len(rep.gaps) >= 4
    # the four first-level gaps are (e, 1/4 - e) + k/4 for the oracle edge e
    N = schottky_nu.N
    e = schottky_gap_edge()
    found = 0
    for k in range(4):
        lo, hi = k / 4 + e, k / 4 + 0.25 - e
        for g in rep.gaps[:6]:
            if circle_dist(g.left, lo) <= 4.0 / N and circle_dist(g.right, hi) <= 4.0 / N:
                found += 1
                break
    assert found == 4


def test_schottky_gap_mass_below_tolerance(schottky_nu):
    # retreat a few grid cells from the edge accumulation points, the
    # honest resolution of the CDF representation
    e = schottky_gap_edge() + 4.0 / schottky_nu.N
    for k in range(4):
        assert float(schottky_nu.interval_mass(k / 4 + e, k / 4 + 0.25 - e)) <= 1e-3


def test_classify_gap_masses_tiny(schottky_nu):
    rep = minimal_set_classify(schottky_nu)
    assert all(m <= rep.mass_tolerance for m in rep.gap_masses)


# -- finite quotient -----------------------------------------------------------

def lifted_mu(base_atoms, k, names):
    # lift a symmetric base family: the inverse of a sheet-0 lift lives on
    # another sheet, so the symmetric support must carry actual inverses
    ups = [LiftedMap(base_atoms[i], k, 0) for i in (0, 2)]
    atoms = [ups[0], ups[0].inverse(), ups[1], ups[1].inverse()]
    return make_step_distribution(atoms, [0.25] * 4, symmetric=True, names=names)


def test_quotient_sanov_degree_one(sanov_mu):
    nu = estimate_stationary_measure(sanov_mu, grid_size=2048, seed=3)
    rep = finite_quotient_detect(nu, sanov_mu, q_max=4)
    assert rep.degree == 1


def test_quotient_lifted_two(sanov_atoms, sanov_mu):
    mu2 = lifted_mu(sanov_atoms, 2, ["a", "a'", "b", "b'"])
    nu2 = estimate_stationary_measure(mu2, grid_size=4096, seed=4)
    rep = finite_quotient_detect(nu2, mu2, q_max=4)
    assert rep.degree == 2
    # boundary entropy is invariant under the finite quotient
    base_nu = estimate_stationary_measure(sanov_mu, grid_size=4096, seed=4)
    h_base = boundary_entropy(sanov_mu, base_nu, samples=30_000, seed=5)
    h_quot, se_quot = quotient_boundary_entropy(rep, nu2, mu2, samples=30_000, seed=5)
    assert abs(h_quot - h_base.value) <= 2.5 * np.hypot(se_quot, h_base.stderr) + 0.05


def test_quotient_lifted_three_with_rotation(sanov_atoms):
    ups = [LiftedMap(sanov_atoms[i], 3, 0) for i in (0, 2)]
    atoms = [ups[0], ups[0].inverse(), ups[1], ups[1].inverse(), rotation(1 / 3), rotation(-1 / 3)]
    mu3 = make_step_distribution(atoms, [1.0 / 6] * 6, symmetric=True)
    nu3 = estimate_stationary_measure(mu3, grid_size=4096, seed=5)
    rep = finite_quotient_detect(nu3, mu3, q_max=5)
    assert rep.degree == 3
