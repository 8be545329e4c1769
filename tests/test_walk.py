import tracemalloc

import numpy as np
import pytest
from conftest import lifted_cut_points, mp_lifted, reference_apply_indexed

from circlelab.circle import circle_dist
from circlelab.maps import (
    LiftedMap,
    MobiusMap,
    Word,
    direction,
    direction_matrices,
    mobius_direction_step,
    mobius_seminorms,
    mobius_value_logd,
    rotation,
)
from circlelab.rng import stream
from circlelab.walk import (
    _DRAW_CHUNK,
    canonical_key,
    make_step_distribution,
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


def moment_sums(mu, tau):
    """The four moment sums sum mu(g) |.|, from the per-atom seminorms."""
    holder, sup_L, sup_S, _, rho = mobius_seminorms(mu.matrices(), tau)
    inv_rho = np.where(np.isinf(rho), 0.0, 1.0 / rho)
    return mu.probs @ holder, mu.probs @ sup_L, mu.probs @ sup_S, mu.probs @ inv_rho


def test_moment_report_identity_atom():
    mu = make_step_distribution([MobiusMap(np.eye(2))], [1.0])
    holder, log_derivative, schwarzian, inverse_rho = moment_sums(mu, tau=1.0)
    assert holder < 1e-9 and log_derivative < 1e-12
    assert schwarzian < 1e-12 and inverse_rho == 0.0


def test_moment_report_sanov_finite(sanov_mu):
    for v in moment_sums(sanov_mu, tau=1.0):
        assert np.isfinite(v) and v > 0


def test_walk_determinism(sanov_mu):
    w1 = sample_walk(sanov_mu, 200, seed=42)
    w2 = sample_walk(sanov_mu, 200, seed=42)
    assert np.array_equal(w1.steps, w2.steps)
    w3 = sample_walk(sanov_mu, 200, seed=43)
    assert not np.array_equal(w1.steps, w3.steps)
    assert sample_walk(sanov_mu, 0, seed=1).steps.shape == (0,)


def test_atom_frequencies_binomial(sanov_mu):
    n = 10_000
    w = sample_walk(sanov_mu, n, seed=11)
    sigma = np.sqrt(0.25 * 0.75 / n)
    for j in range(4):
        freq = np.mean(w.steps == j)
        assert abs(freq - 0.25) <= 3 * sigma


PROBES = np.array([0.137, 0.391, 0.823])


def test_canonical_key_soundness(sanov_mu):
    # equal integer matrix key <=> pointwise-equal action (random word pairs)
    rng = np.random.default_rng(2)
    atoms = sanov_mu.atoms
    for _ in range(300):
        k1, k2 = rng.integers(2, 7, size=2)
        w1 = Word([atoms[i] for i in rng.integers(0, 4, k1)])
        w2 = Word([atoms[i] for i in rng.integers(0, 4, k2)])
        same_key = canonical_key(w1) == canonical_key(w2)
        same_action = bool(np.all(circle_dist(w1.apply(PROBES), w2.apply(PROBES)) <= 1e-10))
        assert same_key == same_action


def test_canonical_key_free_reduction_idempotent(sanov_atoms):
    A, Ai, B, Bi = sanov_atoms
    w = Word([A, B, Bi, Ai])  # reduces to identity
    assert canonical_key(w) == canonical_key(Word([]))
    w2 = Word([A, B, Bi])     # reduces to A
    assert canonical_key(w2) == canonical_key(Word([A]))


# -- the stepping kernel -------------------------------------------------------


def _indices_and_points(mu, shape, seed):
    rng = np.random.default_rng(seed)
    return mu.sample_indices(rng, shape), rng.random(shape)


def test_step_matches_atom_jets_on_mobius_families(sanov_mu, sanov_atoms):
    idx, x = _indices_and_points(sanov_mu, 20_000, 1)
    val, logd = sanov_mu.step(idx, x)
    ref_val, ref_d1 = reference_apply_indexed(sanov_mu, idx, x, want_d1=True)
    assert np.array_equal(val, ref_val)
    assert np.max(np.abs(logd - np.log(ref_d1))) <= 1e-15
    # a word atom steps through its product matrix, not factor by factor
    A, Ai, B, Bi = sanov_atoms
    mu = make_step_distribution([A, Bi, Word((A, B)), Word((Bi, Ai))], [0.25] * 4)
    idx, x = _indices_and_points(mu, 20_000, 2)
    val, logd = mu.step(idx, x)
    ref_val, ref_d1 = reference_apply_indexed(mu, idx, x, want_d1=True)
    single = idx < 2
    assert np.array_equal(val[single], ref_val[single])
    assert np.max(np.abs(logd[single] - np.log(ref_d1[single]))) <= 1e-15
    assert np.max(np.abs((val - ref_val + 0.5) % 1.0 - 0.5)) <= 4e-15
    assert np.max(np.abs(logd - np.log(ref_d1))) <= 1e-14


@pytest.mark.parametrize("family", ["conjugated_mu", "lifted_mu"])
def test_step_matches_atom_jets_on_other_families(family, request):
    mu = request.getfixturevalue(family)
    assert mu.matrices() is None
    idx, x = _indices_and_points(mu, 5_000, 3)
    val, logd = mu.step(idx, x)
    ref_val, ref_d1 = reference_apply_indexed(mu, idx, x, want_d1=True)
    assert np.array_equal(val, ref_val)
    assert np.array_equal(logd, np.log(ref_d1))
    assert np.array_equal(val, reference_apply_indexed(mu, idx, x))   # apply and jet agree


@pytest.mark.parametrize("family", ["sanov_mu", "conjugated_mu"])
def test_step_broadcasts_indices_over_stacked_points(family, request):
    mu = request.getfixturevalue(family)
    idx, _ = _indices_and_points(mu, 500, 4)
    x = np.random.default_rng(5).random((3, 500))
    val, logd = mu.step(idx, x)
    assert val.shape == logd.shape == (3, 500)
    for row in range(3):
        v, ld = mu.step(idx, x[row])
        assert np.array_equal(val[row], v) and np.array_equal(logd[row], ld)


def _random_sl2(rng, n):
    """n random unimodular matrices k diag(s, 1/s) k' with rotations k, k'
    and s up to e^2."""
    def rot(t):
        c, s = np.cos(t), np.sin(t)
        return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    s = np.exp(rng.uniform(0.0, 2.0, n))
    diag = np.zeros((n, 2, 2))
    diag[:, 0, 0], diag[:, 1, 1] = s, 1.0 / s
    return rot(rng.uniform(0.0, np.pi, n)) @ diag @ rot(rng.uniform(0.0, np.pi, n))


def test_direction_step_matches_the_position_step():
    # points at and next to 0, 1/2 and 1, each under 200 matrices, then
    # random points: the unnormalised image points at g(x), and its norm
    # gives log g'(x)
    rng = np.random.default_rng(6)
    near = [0.0, 5e-324, 1e-17, 1e-9, 0.5 - 1e-12, 0.5, 0.5 + 1e-12, 1 - 1e-9, 1 - 2.0 ** -53]
    x = np.concatenate([np.repeat(near, 200), rng.random(4000)])
    mats = _random_sl2(rng, x.size)
    val, logd = mobius_value_logd(mats, x)
    w0 = direction(x)
    w = mobius_direction_step(direction_matrices(mats), w0)
    eps = np.finfo(float).eps
    assert w is not w0 and np.array_equal(w0, direction(x))   # without out, a copy
    assert np.max(circle_dist(np.arctan2(w[1], w[0]) / np.pi, val)) <= 4 * eps   # the position, up to wrap
    ld = -np.log(w[0] * w[0] + w[1] * w[1])
    assert np.max(np.abs(ld - logd) / np.maximum(1.0, np.abs(logd))) <= 4 * eps
    assert np.max(np.abs(np.hypot(w[0], w[1]) - 1.0)) > 1.0   # not normalised


def test_step_state_matches_step_on_mobius_families(sanov_mu):
    # a pure Mobius family steps direction vectors: positions within an ulp
    # or two, log derivatives read from the norm within a few ulps
    idx, x = _indices_and_points(sanov_mu, 5_000, 7)
    val, logd = sanov_mu.step(idx, x)
    s = sanov_mu.step_state(idx, sanov_mu.state(x))
    eps = np.finfo(float).eps
    assert s.shape == (3, x.size) and not s[2].any()   # vector and exponent; no rescale
    assert np.max(circle_dist(sanov_mu.position(s), val)) <= 4 * eps
    ld = sanov_mu.log_derivative(s)
    assert np.max(np.abs(ld - logd) / np.maximum(1.0, np.abs(logd))) <= 4 * eps


@pytest.mark.parametrize("shape", [(5_000,), (3, 2_000), (2, 1)])
def test_step_state_in_place_is_the_allocating_step(sanov_mu, shape):
    # in the buffers of `state_buffers` the step overwrites the states, bit
    # for bit the allocating step's, and positions and log derivatives read
    # through the buffers are the allocating reads
    rng = np.random.default_rng(11)
    idx, x = sanov_mu.sample_indices(rng, shape[-1]), rng.random(shape)
    want_s = sanov_mu.step_state(idx, sanov_mu.state(x))
    s = sanov_mu.state(x)
    buffers = sanov_mu.state_buffers(s)
    pos, ld = np.empty(shape), np.empty(shape)
    for _ in range(2):   # the buffers are reused
        assert sanov_mu.step_state(idx, s, buffers) is s
        assert np.array_equal(s, want_s)
        assert sanov_mu.position(s, pos, buffers) is pos and np.array_equal(pos, sanov_mu.position(want_s))
        assert sanov_mu.log_derivative(s, ld, buffers) is ld
        assert np.array_equal(ld, sanov_mu.log_derivative(want_s))
        want_s = sanov_mu.step_state(idx, want_s)


@pytest.mark.parametrize("family", ["conjugated_mu", "lifted_mu"])
def test_step_on_other_families_is_the_atom_jets_bit_for_bit(family, request):
    # the grouped fallback reads first-order values and log derivatives,
    # bit for bit the jets' value and log d1
    mu = request.getfixturevalue(family)
    idx, x = _indices_and_points(mu, 5_000, 3)
    val, logd = mu.step(idx, x)
    ref_val, ref_d1 = reference_apply_indexed(mu, idx, x, want_d1=True)
    assert np.array_equal(val, ref_val) and np.array_equal(logd, np.log(ref_d1))


@pytest.mark.parametrize("family", ["conjugated_mu", "mixed_mu"])
def test_step_state_is_step_on_other_families(family, request):
    # other families step positions and sum log g': bit for bit what step gives
    mu = request.getfixturevalue(family)
    idx, x = _indices_and_points(mu, 5_000, 7)
    val, logd = mu.step(idx, x)
    val2, logd2 = mu.step(idx, val)
    s = mu.step_state(idx, mu.state(x))
    assert s.shape == (2, x.size)
    assert np.array_equal(mu.position(s), val) and np.array_equal(mu.log_derivative(s), logd)
    s = mu.step_state(idx, s)
    assert np.array_equal(mu.position(s), val2) and np.array_equal(mu.log_derivative(s), logd + logd2)
    assert mu.state_buffers(s) is None   # their steps allocate
    mu.rescale(s)   # and are never rescaled
    assert np.array_equal(mu.position(s), val2)


@pytest.mark.parametrize("k", [2, 3])
def test_cover_states_match_mpmath(k):
    # forward and inverse lifts of a and b, at random points and at and an
    # ulp either side of every cut; b fixes 0, so its cuts lie on the base
    # point's own zero
    mats = [MobiusMap([[1, 2], [0, 1]]).matrix, MobiusMap([[1, 0], [2, 1]]).matrix]
    ups = [LiftedMap(MobiusMap(m), k, j) for m, j in zip(mats, (0, 1))]
    atoms = [ups[0], ups[0].inverse(), ups[1], ups[1].inverse()]
    mu = make_step_distribution(atoms, [0.25] * 4)
    assert mu.matrices() is None
    rng = np.random.default_rng(k)
    cut_mats = mats + [MobiusMap(m).inverse().matrix for m in mats]
    x = np.concatenate([rng.random(300)] + [lifted_cut_points(m, k) for m in cut_mats])
    s = mu.state(x)
    assert s.shape == (4, x.size) and np.max(circle_dist(mu.position(s), x)) <= 2e-16
    for a, atom in enumerate(atoms):
        w = mu.step_state(np.full(x.size, a), s)
        ref = [mp_lifted(mats[a // 2], k, (0, 1)[a // 2], v, inverse=a % 2 == 1) for v in x]
        assert np.max(circle_dist(mu.position(w), np.array([float(v) for v, _ in ref]))) <= 2e-15, a
        assert np.max(np.abs(mu.log_derivative(w) - np.array([float(d) for _, d in ref]))) <= 1e-14, a


@pytest.mark.parametrize("shape", [(5_000,), (3, 2_000)])
def test_cover_step_in_place_is_the_allocating_step(lifted_mu, shape):
    rng = np.random.default_rng(12)
    idx, x = lifted_mu.sample_indices(rng, shape[-1]), rng.random(shape)
    want_s = lifted_mu.step_state(idx, lifted_mu.state(x))
    s = lifted_mu.state(x)
    buffers = lifted_mu.state_buffers(s)
    pos, ld = np.empty(shape), np.empty(shape)
    for _ in range(2):   # the buffers are reused
        assert lifted_mu.step_state(idx, s, buffers) is s
        assert np.array_equal(s, want_s)
        assert lifted_mu.position(s, pos, buffers) is pos
        assert np.array_equal(pos, lifted_mu.position(want_s))
        assert lifted_mu.log_derivative(s, ld, buffers) is ld
        assert np.array_equal(ld, lifted_mu.log_derivative(want_s))
        want_s = lifted_mu.step_state(idx, want_s)


@pytest.mark.parametrize("family", ["sanov_mu", "lifted_mu"])
def test_a_rescale_leaves_positions_bit_for_bit(family, request):
    # a rescale scales each vector by a power of two: the positions, a
    # cover's sheets and every later step are bit for bit the same, and
    # the log derivatives move by an ulp or two
    mu = request.getfixturevalue(family)
    rng = np.random.default_rng(14)
    x = np.concatenate([rng.random(2_000), [0.0, 0.5, 1e-300, 1.0 - 2.0 ** -53]])
    idx = [mu.sample_indices(rng, x.size) for _ in range(40)]
    s = mu.state(x)
    for i in idx[:20]:
        s = mu.step_state(i, s)   # without buffers: no rescale
    assert not s[-1].any()
    r = s.copy()
    mu.rescale(r)
    assert r[-1].max() > 5
    eps = np.finfo(float).eps
    for i in [None] + idx[20:]:
        if i is not None:
            s, r = mu.step_state(i, s), mu.step_state(i, r)
        assert np.array_equal(np.ldexp(r[:2], r[-1].astype(int)), s[:2])
        assert np.array_equal(r[2:-1], s[2:-1])   # a cover's sheets
        assert np.array_equal(mu.position(r), mu.position(s))
        ld = mu.log_derivative(s)
        assert np.max(np.abs(mu.log_derivative(r) - ld) / np.maximum(1.0, np.abs(ld))) <= 4 * eps


def check_state_steps_are_bare(mu, monkeypatch):
    """A Mobius or cover step is one matvec (and a cover's carry): no cos,
    sin, sqrt, log or divide, and no allocation, rescales included (every
    other step rescales here); positions call no cos or sin either."""
    rng = np.random.default_rng(13)
    s = mu.state(rng.random(1_000))
    buffers = mu.state_buffers(s)
    idx = [mu.sample_indices(rng, 1_000) for _ in range(6)]
    monkeypatch.setattr(mu, "rescale_steps", 2)
    buffers.until_rescale = 2

    def banned(*args, **kwargs):
        raise AssertionError("a banned call in a state step")

    for name in ("cos", "sin"):
        monkeypatch.setattr(np, name, banned)
    mu.step_state(idx[0], s, buffers)   # numpy's first calls may allocate caches
    with monkeypatch.context() as m:
        for name in ("sqrt", "log", "divide"):
            m.setattr(np, name, banned)
        tracemalloc.start()
        try:
            for i in idx[1:]:
                mu.step_state(i, s, buffers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4_000, peak   # a row of the states is 8 000 bytes
    assert s[-1].any()   # the rescales ran
    mu.position(s, np.empty(1_000), buffers)


def test_a_cover_step_calls_no_cos_or_sin(lifted_mu, monkeypatch):
    check_state_steps_are_bare(lifted_mu, monkeypatch)


def test_a_mobius_step_calls_no_root_log_or_division(sanov_mu, monkeypatch):
    check_state_steps_are_bare(sanov_mu, monkeypatch)


def test_matrices_are_cached_and_read_only(sanov_mu, conjugated_mu):
    mats = sanov_mu.matrices()
    assert mats is sanov_mu.matrices()
    assert not mats.flags.writeable
    with pytest.raises(ValueError):
        mats[0, 0, 0] = 2.0
    assert conjugated_mu.matrices() is None


class _Uniforms:
    """Stands in for a Generator whose draws return chosen uniforms in C
    order: random(size) all of them, random(out=) the next out.size."""

    def __init__(self, u):
        self.u, self.flat, self.used = u, np.ravel(u), 0

    def random(self, size=None, out=None):
        if out is None:
            return self.u if size is None else np.reshape(self.u, size)
        out[...] = self.flat[self.used:self.used + out.size].reshape(out.shape)
        self.used += out.size
        return out


def _searchsorted_draw(mu, u):
    """The searchsorted draw that `sample_indices` reproduces on both branches."""
    return np.searchsorted(np.cumsum(mu.probs), u, side="right").clip(0, len(mu) - 1)


def _edge_uniforms(mu):
    """0, nextafter(1, 0), each cumulative weight and its two float neighbours."""
    cum = np.cumsum(mu.probs)
    return np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cum,
                           np.nextafter(cum, 0.0), np.nextafter(cum, 2.0).clip(0.0, np.nextafter(1.0, 0.0))])


@pytest.mark.parametrize("compare_atoms", [12, 0], ids=["comparisons", "searchsorted"])
@pytest.mark.parametrize("weights", ["uniform", "skewed"])
@pytest.mark.parametrize("n", range(1, 13))
def test_sample_indices_equal_the_searchsorted_draw(n, weights, compare_atoms, monkeypatch):
    import circlelab.walk

    monkeypatch.setattr(circlelab.walk, "_COMPARE_ATOMS", compare_atoms)
    probs = [1.0] * n if weights == "uniform" else np.arange(1, n + 1) ** 2 * 0.1
    mu = make_step_distribution([rotation(0.07 * j) for j in range(n)], probs)
    if (n, weights) == (7, "uniform"):
        assert np.cumsum(mu.probs)[-1] < 1.0    # u may reach the last weight: the clip acts
    u = np.concatenate([_edge_uniforms(mu), np.random.default_rng(n).random(64)])
    for v in u:
        got = mu.sample_indices(_Uniforms(float(v)), None)
        assert np.ndim(got) == 0 and int(got) == int(_searchsorted_draw(mu, float(v)))
    for size in (len(u), (2, len(u))):
        uu = np.reshape(np.concatenate([u, u[::-1]])[:np.prod(size)], size)
        got = mu.sample_indices(_Uniforms(uu), size)
        want = _searchsorted_draw(mu, uu)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def test_sample_indices_property(monkeypatch):
    import circlelab.walk
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=12),
           st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=16))
    def check(probs, u):
        mu = make_step_distribution([rotation(0.07 * j) for j in range(len(probs))], probs)
        u = np.concatenate([np.array(u), _edge_uniforms(mu)])
        want = _searchsorted_draw(mu, u)
        for compare_atoms in (12, 0):
            monkeypatch.setattr(circlelab.walk, "_COMPARE_ATOMS", compare_atoms)
            assert np.array_equal(mu.sample_indices(_Uniforms(u), len(u)), want)

    check()


@pytest.mark.parametrize("size", [None, 1, _DRAW_CHUNK - 1, _DRAW_CHUNK, _DRAW_CHUNK + 1, 3 * _DRAW_CHUNK + 5,
                                  (3, 5000), (2, 3, 3000)])
@pytest.mark.parametrize("weights", [[0.3, 0.3, 0.2, 0.2], [0.5, 0.5], [1.0]])
def test_sample_indices_consume_the_stream_as_one_draw(size, weights):
    # drawn in chunks into one buffer, the indices are the searchsorted
    # draw of one random(size) call, and the stream continues from the
    # same place
    mu = make_step_distribution([rotation(0.07 * j) for j in range(len(weights))], weights)
    rng, ref = stream(3, 1), stream(3, 1)
    got = mu.sample_indices(rng, size)
    want = _searchsorted_draw(mu, ref.random(size))
    assert got.dtype == np.intp and np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    assert rng.random() == ref.random()
