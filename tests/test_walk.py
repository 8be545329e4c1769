import numpy as np
import pytest

from circlelab.distortion import atom_seminorms
from circlelab.maps import MobiusMap, Word, make_generator, rotation
from circlelab.walk import (
    StepDistribution,
    canonical_key,
    make_step_distribution,
    pointwise_equal,
    sample_walk,
)


def test_normalization_and_validation(sanov_atoms):
    mu = make_step_distribution(sanov_atoms[:3], [0.5, 0.25, 0.25])
    assert abs(mu.probs.sum() - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        make_step_distribution(sanov_atoms[:2], [0.5, 0.0])
    with pytest.raises(ValueError):
        make_step_distribution([], [])
    with pytest.raises(ValueError):
        # support {a, b} is not inverse-closed
        make_step_distribution([sanov_atoms[0], sanov_atoms[2]], [0.5, 0.5], symmetric=True)
    with pytest.raises(ValueError):
        # inverse-closed support but unequal weights on a pair
        make_step_distribution(sanov_atoms, [0.4, 0.2, 0.2, 0.2], symmetric=True)


def test_symmetric_support_accepted(sanov_mu):
    assert sanov_mu.symmetric
    assert list(sanov_mu.inverse_index) == [1, 0, 3, 2]


def moment_sums(mu, tau, grid_size):
    """The four moment sums sum mu(g) |.|, from the per-atom seminorm cache."""
    sem = atom_seminorms(mu, tau, grid_size)
    inv_rho = np.where(np.isinf(sem.rho), 0.0, 1.0 / sem.rho)
    return (mu.probs @ sem.holder, mu.probs @ sem.sup_L, mu.probs @ sem.sup_S,
            mu.probs @ inv_rho)


def test_moment_report_identity_atom():
    mu = make_step_distribution([MobiusMap(np.eye(2))], [1.0])
    holder, log_derivative, schwarzian, inverse_rho = moment_sums(mu, tau=1.0, grid_size=512)
    assert holder < 1e-9 and log_derivative < 1e-12
    assert schwarzian < 1e-12 and inverse_rho == 0.0


def test_moment_report_sanov_finite(sanov_mu):
    for v in moment_sums(sanov_mu, tau=1.0, grid_size=1024):
        assert np.isfinite(v) and v > 0


def test_walk_determinism(sanov_mu):
    w1 = sample_walk(sanov_mu, 200, seed=42)
    w2 = sample_walk(sanov_mu, 200, seed=42)
    assert np.array_equal(w1.steps, w2.steps)
    w3 = sample_walk(sanov_mu, 200, seed=43)
    assert not np.array_equal(w1.steps, w3.steps)


def test_zero_length_walk(sanov_mu):
    w = sample_walk(sanov_mu, 0, seed=1)
    xs = np.array([0.1, 0.7])
    assert np.allclose(w.l_word().apply(xs), xs)
    assert np.allclose(w.r_word().apply(xs), xs)


def test_atom_frequencies_binomial(sanov_mu):
    n = 10_000
    w = sample_walk(sanov_mu, n, seed=11)
    sigma = np.sqrt(0.25 * 0.75 / n)
    for j in range(4):
        freq = np.mean(w.steps == j)
        assert abs(freq - 0.25) <= 3 * sigma


def test_prefix_caches_match_recomposition(sanov_mu):
    # reference prefix products l_k = g_k ... g_1 and r_k = g_1 ... g_k from the atom matrices
    w = sample_walk(sanov_mu, 12, seed=5)
    mats = sanov_mu.matrices()
    lm = [np.eye(2)]
    rm = [np.eye(2)]
    for s in w.steps:
        lm.append(mats[s] @ lm[-1])
        rm.append(rm[-1] @ mats[s])
    xs = np.array([0.21, 0.55, 0.83])
    for n in (0, 3, 7, 12):
        assert np.allclose(MobiusMap(lm[n]).apply(xs), w.l_word(n).apply(xs), atol=1e-12)
        assert np.allclose(MobiusMap(rm[n]).apply(xs), w.r_word(n).apply(xs), atol=1e-12)


def test_canonical_key_soundness(sanov_mu):
    # equal integer matrix key <=> pointwise-equal action (random word pairs)
    rng = np.random.default_rng(2)
    atoms = sanov_mu.atoms
    for _ in range(300):
        k1, k2 = rng.integers(2, 7, size=2)
        w1 = Word([atoms[i] for i in rng.integers(0, 4, k1)])
        w2 = Word([atoms[i] for i in rng.integers(0, 4, k2)])
        same_key = canonical_key(w1) == canonical_key(w2)
        same_action = pointwise_equal(w1, w2, tol=1e-10)
        assert same_key == same_action


def test_canonical_key_free_reduction_idempotent(sanov_atoms):
    A, Ai, B, Bi = sanov_atoms
    w = Word([A, B, Bi, Ai])  # reduces to identity
    assert canonical_key(w) == canonical_key(Word([]))
    w2 = Word([A, B, Bi])     # reduces to A
    assert canonical_key(w2) == canonical_key(Word([A]))
