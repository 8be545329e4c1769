import itertools

import numpy as np
import pytest

from circlelab.convolve import (
    _ENTRY_LIMIT,
    ConvolutionBudgetError,
    _pack,
    _unpack,
    convolve_exact,
    entropy_of,
)
from circlelab.maps import MobiusMap, rotation
from circlelab.walk import make_step_distribution, sample_walk


def free_length_entropy_table(n_max, rank=2):
    """Oracle: exact H(mu^{*n}) for the simple walk on a rank-k free group
    via the reflecting word-length chain (masses are equidistributed over
    words of equal length).
    """
    up = (2 * rank - 1) / (2 * rank)
    P = np.zeros(n_max + 2)
    P[0] = 1.0
    H = [0.0]
    for _ in range(n_max):
        Q = np.zeros_like(P)
        Q[1] += P[0]
        for j in range(1, n_max + 1):
            Q[j + 1] += up * P[j]
            Q[j - 1] += (1 - up) * P[j]
        P = Q
        h = 0.0
        for j in range(n_max + 2):
            if P[j] <= 0:
                continue
            Nj = 1 if j == 0 else 2 * rank * (2 * rank - 1) ** (j - 1)
            h += -P[j] * np.log(P[j] / Nj)
        H.append(h)
    return np.array(H)


def test_entropy_of_basics():
    assert entropy_of([1.0]) == 0.0
    assert abs(entropy_of([0.25] * 4) - np.log(4)) < 1e-14
    with pytest.raises(ValueError):
        entropy_of([0.5, 0.4])


def test_convolution_trivial_horizons(sanov_mu):
    s0 = convolve_exact(sanov_mu, 0)
    assert s0.table.support_size == 1 and s0.entropies[0] == 0.0
    s1 = convolve_exact(sanov_mu, 1)
    assert s1.table.support_size == 4
    assert abs(s1.entropies[1] - np.log(4)) < 1e-12
    assert np.allclose(np.sort(s1.table.masses), 0.25)


def test_sanov_two_step_enumeration(sanov_mu):
    # oracle: enumerate all 16 two-letter words and reduce freely
    mats = sanov_mu.matrices()
    seen = {}
    for i, j in itertools.product(range(4), repeat=2):
        m = np.round(mats[i] @ mats[j]).astype(np.int64)
        m = m * (1 if (m.ravel()[np.nonzero(m.ravel())[0][0]] > 0) else -1)
        seen[tuple(m.ravel())] = seen.get(tuple(m.ravel()), 0.0) + 1 / 16
    s = convolve_exact(sanov_mu, 2)
    assert s.table.support_size == len(seen) == 13
    masses = sorted(seen.values())
    assert np.allclose(sorted(s.table.masses), masses)
    # 12 reduced words of mass 1/16 and the identity at 4/16
    h_expected = -(12 / 16) * np.log(1 / 16) - (4 / 16) * np.log(4 / 16)
    assert abs(s.entropies[2] - h_expected) < 1e-12
    assert abs(s.table.entropy() - h_expected) < 1e-12


def test_convolution_matches_length_chain_oracle(sanov_mu):
    n = 8
    s = convolve_exact(sanov_mu, n)
    H = free_length_entropy_table(n)
    assert np.max(np.abs(s.entropies - H)) < 1e-10
    # support sizes: reduced words of length <= n with matching parity
    def support(n):
        return sum(4 * 3 ** (k - 1) for k in range(n, 0, -2)) + (1 if n % 2 == 0 else 0)
    assert s.support_sizes[-1] == support(n)


def test_subadditivity(sanov_mu):
    s = convolve_exact(sanov_mu, 8)
    H = s.entropies
    for m in range(1, 8):
        for n in range(1, 9 - m):
            assert H[m + n] <= H[m] + H[n] + 1e-12


def test_masses_sum_to_one(sanov_mu):
    s = convolve_exact(sanov_mu, 6)
    assert abs(s.table.masses.sum() - 1.0) < 1e-12


def test_representative_words_are_reduced(sanov_mu):
    s = convolve_exact(sanov_mu, 5)
    inv = sanov_mu.inverse_index
    for w, ln in zip(s.table.words, s.table.lengths):
        letters = w[:ln].astype(int) - 1
        for a, b in zip(letters, letters[1:]):
            assert inv[a] != b  # no cancelling neighbors survive reduction


def test_mass_lookup_roundtrip(sanov_mu):
    s = convolve_exact(sanov_mu, 6)
    mats = np.round(sanov_mu.matrices()).astype(np.int64)
    w = sample_walk(sanov_mu, 6, seed=3)
    m = np.eye(2, dtype=np.int64)
    for k in w.steps:
        m = m @ mats[k]
    assert s.table.mass_of_matrix(m) > 0
    # an element of odd length cannot be in the support of mu^{*6}
    assert s.table.mass_of_matrix(mats[0]) == 0.0


def test_non_integer_generators_rejected():
    mu = make_step_distribution([rotation(0.3), rotation(-0.3)], [0.5, 0.5])
    with pytest.raises(ValueError, match="integer"):
        convolve_exact(mu, 3)


def test_quantized_convolution_for_rotations():
    th = 0.6180339887498949
    mu = make_step_distribution([rotation(th), rotation(-th)], [0.5, 0.5], symmetric=True)
    s = convolve_exact(mu, 10, quantized=True)
    # abelian walk: support is the lattice {k theta : |k| <= n, k = n mod 2}
    assert s.table.support_size == 11
    # entropy of the binomial distribution on 11 atoms
    from scipy.stats import binom
    p = binom.pmf(np.arange(11), 10, 0.5)
    assert abs(s.entropies[10] - entropy_of(p)) < 1e-9


def test_memory_budget_error(sanov_mu):
    with pytest.raises(ConvolutionBudgetError) as ei:
        convolve_exact(sanov_mu, 10, max_support=1000)
    assert ei.value.feasible_n < 10


def test_unit_mass_deterministic_walk():
    # single hyperbolic generator: mu^{*n} is a unit mass, H identically 0
    g = MobiusMap([[2, 1], [1, 1]])
    mu = make_step_distribution([g], [1.0])
    s = convolve_exact(mu, 6)
    assert np.allclose(s.entropies, 0.0)
    assert all(v == 1 for v in s.support_sizes)


def rotation_pair():
    th = 0.6180339887498949
    return make_step_distribution([rotation(th), rotation(-th)], [0.5, 0.5], symmetric=True)


def test_quantized_identity_mass_at_horizon_zero():
    # the quantized identity is keyed as round(I / quant), not as I
    s = convolve_exact(rotation_pair(), 0, quantized=True)
    assert s.table.mass_of_matrix(np.eye(2)) == 1.0


@pytest.mark.parametrize("quantized", [False, True])
def test_table_keys_sorted_and_each_element_finds_its_mass(sanov_mu, quantized):
    mu, n = (rotation_pair(), 10) if quantized else (sanov_mu, 8)
    t = convolve_exact(mu, n, quantized=quantized).table
    assert np.all((t.hi[1:] > t.hi[:-1]) | ((t.hi[1:] == t.hi[:-1]) & (t.lo[1:] > t.lo[:-1])))
    mats = _unpack(t.hi, t.lo)
    if quantized:
        mats = mats * t.quant
    found = np.array([t.mass_of_matrix(m) for m in mats])
    assert np.array_equal(found, t.masses)


def test_unpack_inverts_pack():
    lim = _ENTRY_LIMIT
    m = np.array([[[lim, -lim], [-lim, lim]],
                  [[-lim, lim], [0, 1]],
                  [[0, 0], [0, 0]],
                  [[0, -1], [1, 0]],
                  [[0, 0], [-lim, 7]]], dtype=np.int64)
    assert np.array_equal(_unpack(*_pack(m)), m)
    with pytest.raises(OverflowError):
        _pack(m + 1)


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("atoms, quantized, feasible", [
    # quantized entries 3^n / quant leave the packable range at n = 3
    ([MobiusMap([[3, 0], [0, 1 / 3]])], True, 2),
    # integer entries reach 1024^3 = 2^30 at n = 3
    ([MobiusMap([[1, 1024], [0, 1]]), MobiusMap([[1, 0], [1024, 1]])], False, 2),
    # 1e11 / quant does not fit in int64 at all; its cast must not slip past the check
    ([MobiusMap([[1e11, 0], [0, 1e-11]])], True, 0),
], ids=["quantized", "integer", "quantized-beyond-int64"])
def test_overflow_of_packed_keys_is_a_budget_error(atoms, quantized, feasible):
    atoms = [g for a in atoms for g in (a, a.inverse())]
    mu = make_step_distribution(atoms, [1.0] * len(atoms), symmetric=True)
    with pytest.raises(ConvolutionBudgetError) as ei:
        convolve_exact(mu, 5, quantized=quantized)
    assert ei.value.feasible_n == feasible
