import json
import warnings
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest
from conftest import (EPS, ROUNDING_ULPS, assert_reductions_are_the_history_definitions,
                      position_rounding_bound)

from circlelab.circle import Arc
from circlelab.distortion import (
    LOG_C1_FLOOR,
    DecayReport,
    PoleInDiskError,
    PrefixScan,
    interval_mass_decay,
    verify_complex_distortion,
    verify_real_distortion,
    walk_constants,
)
from circlelab.maps import (MobiusMap, Word, direction, direction_abs_im, direction_matrices,
                            mobius_seminorms, normalise_directions, rotation)
from circlelab.measure import GridMeasure, estimate_stationary_measure, lyapunov_exponent
from circlelab.walk import make_step_distribution, sample_walk, sample_walks

HYP = MobiusMap([[0.5, 0], [0, 2]])


@pytest.fixture(scope="module")
def sanov_nu(sanov_mu):
    return estimate_stationary_measure(sanov_mu, grid_size=4096, seed=3)


@pytest.fixture(scope="module")
def sanov_lambda(sanov_mu, sanov_nu):
    return lyapunov_exponent(sanov_mu, sanov_nu, n_steps=3000, trajectories=40,
                             integral_samples=20_000, seed=5).value


def sanov_J(nu):
    return Arc.from_endpoints(float(nu.quantile(0.30)), float(nu.quantile(0.40)))


# -- constants -----------------------------------------------------------------

def test_identity_walk_constants():
    mu = make_step_distribution([MobiusMap(np.eye(2))], [1.0])
    walk = sample_walk(mu, 50, seed=1)
    nu = GridMeasure.lebesgue(1024)
    rep = walk_constants(walk, nu, lam=-1e-6, h_nu=0.0, eps=0.1,
                         J=Arc(0.2, 0.1), x=0.3, tau=1.0, horizon=50)
    assert abs(rep.C2 - 1.0) < 1e-4
    assert rep.C3 < 1e-9 and rep.C4_log < 1e-12 and rep.C4_schwarzian < 1e-12
    r = rep.radius_real(0.5)
    assert np.isinf(r) or r > 100  # distortion-free up to float noise


def test_constants_require_negative_exponent(sanov_mu, sanov_nu):
    walk = sample_walk(sanov_mu, 10, seed=1)
    with pytest.raises(ValueError, match="negative exponent"):
        walk_constants(walk, sanov_nu, lam=0.0, h_nu=0.5, eps=0.1,
                       J=sanov_J(sanov_nu), x=0.3, horizon=10)


def test_repeated_hyperbolic_c2_closed_form():
    mu = make_step_distribution([HYP], [1.0])
    walk = sample_walk(mu, 60, seed=1)
    nu = estimate_stationary_measure(mu, grid_size=1024, seed=1)
    lam = np.log(0.25)
    rep = walk_constants(walk, nu, lam=lam, h_nu=0.0, eps=0.1,
                         J=Arc(0.99, 0.02), x=0.0, tau=1.0, horizon=60)
    # l_n'(0) = alpha^n sits exactly on the geometric envelopes: C2 = 1
    assert abs(rep.C2 - 1.0) < 1e-9


def test_sanov_constants_finite_with_small_tail(sanov_mu, sanov_nu, sanov_lambda):
    walk = sample_walk(sanov_mu, 200, seed=7)
    rep = walk_constants(walk, sanov_nu, lam=sanov_lambda, h_nu=0.55, eps=0.1,
                         J=sanov_J(sanov_nu), x=0.3, tau=1.0, horizon=200)
    for v in (rep.C1, rep.C2, rep.C3, rep.C4_log, rep.C4_schwarzian, rep.C5, rep.C3_complex):
        assert np.isfinite(v) and v >= 0
    assert np.isfinite(rep.log_C1)
    assert rep.C3_tail < 0.01 * rep.C3
    assert rep.C4_log_tail < 0.01 * rep.C4_log


def test_c3_c4_partial_sums_cauchy(sanov_mu, sanov_nu, sanov_lambda):
    walk = sample_walk(sanov_mu, 160, seed=11)
    kw = dict(nu=sanov_nu, lam=sanov_lambda, h_nu=0.55, eps=0.1,
              J=sanov_J(sanov_nu), x=0.3, tau=1.0)
    r80 = walk_constants(walk, horizon=80, **kw)
    r160 = walk_constants(walk, horizon=160, **kw)
    # geometric tails: the horizon-80 truncation already carries the sum
    # equal atom seminorms saturate the bound, so allow float-sum noise
    slack = 1e-12 * r80.C3
    assert abs(r160.C3 - r80.C3) <= r80.C3_tail + slack
    assert abs(r160.C4_log - r80.C4_log) <= r80.C4_log_tail + slack
    assert abs(r160.C4_schwarzian - r80.C4_schwarzian) <= r80.C4_schwarzian_tail + slack


def test_radius_monotone_in_kappa(sanov_mu, sanov_nu, sanov_lambda):
    walk = sample_walk(sanov_mu, 100, seed=13)
    rep = walk_constants(walk, sanov_nu, lam=sanov_lambda, h_nu=0.55, eps=0.1,
                         J=sanov_J(sanov_nu), x=0.3, tau=1.0, horizon=100)
    ks = np.linspace(0.05, 0.95, 19)
    rs = [rep.radius_real(k) for k in ks]
    assert all(b > a for a, b in zip(rs, rs[1:]))


def test_word_atoms_get_their_product_matrix_closed_form():
    # a word atom's seminorms are those of its product matrix, so the
    # complex constants of a family with word atoms are finite
    from circlelab.configs import build_step_distribution

    mu = build_step_distribution({
        "generators": {"a": {"matrix": [[1, 2], [0, 1]]}, "b": {"matrix": [[1, 0], [2, 1]]}},
        "mu": {"atoms": [["a.b", 0.25], ["b^-1.a^-1", 0.25], ["b", 0.25], ["b^-1", 0.25]]}})
    assert isinstance(mu.atoms[0], Word)
    values = mobius_seminorms(mu.matrices())
    for k, atom in enumerate(mu.atoms):
        mob = atom.as_mobius() if isinstance(atom, Word) else atom
        np.testing.assert_allclose([v[k] for v in values], mobius_seminorms(mob.matrix), rtol=1e-12)
    nu = estimate_stationary_measure(mu, grid_size=2048, seed=1)
    lam = lyapunov_exponent(mu, nu, n_steps=1000, trajectories=16, integral_samples=5000, seed=1).value
    rep = walk_constants(sample_walks(mu, 40, 3, 4), nu, lam, h_nu=0.5, eps=0.1, J=sanov_J(nu),
                         x=0.3, tau=1.0)
    assert np.all(np.isfinite(rep.C3_complex)) and np.all(rep.C3_complex > 0)
    assert np.all(np.isfinite(rep.r_complex)) and np.all(rep.r_complex > 0)
    # the C3_complex bound takes part, not the pole bound alone
    assert np.all(rep.r_complex < rep.C5 / (2.0 * np.exp(rep.kappa_reference) * rep.C2))


# -- real-lemma verification ----------------------------------------------------

def test_verify_real_identity_walk():
    mu = make_step_distribution([MobiusMap(np.eye(2))], [1.0])
    walk = sample_walk(mu, 30, seed=1)
    nu = GridMeasure.lebesgue(1024)
    rep_c = walk_constants(walk, nu, lam=-1e-6, h_nu=0.0, eps=0.1,
                           J=Arc(0.2, 0.1), x=0.3, horizon=30)
    rep = verify_real_distortion(walk, rep_c, kappa=0.5, x=0.3, N=30)
    assert rep.ok
    assert rep.max_kappa_measured < 1e-10


def test_verify_real_repeated_hyperbolic():
    mu = make_step_distribution([HYP], [1.0])
    walk = sample_walk(mu, 80, seed=1)
    nu = estimate_stationary_measure(mu, grid_size=1024, seed=1)
    rep_c = walk_constants(walk, nu, lam=np.log(0.25), h_nu=0.0, eps=0.1,
                           J=Arc(0.99, 0.02), x=0.0, horizon=80)
    rep = verify_real_distortion(walk, rep_c, kappa=0.5, x=0.0, N=80)
    assert rep.ok
    assert rep.max_kappa_measured <= 0.5


def test_verify_real_sanov_seeds(sanov_mu, sanov_nu, sanov_lambda):
    for seed in (1, 2, 3):
        walk = sample_walk(sanov_mu, 200, seed=seed)
        rep_c = walk_constants(walk, sanov_nu, lam=sanov_lambda, h_nu=0.55, eps=0.1,
                               J=sanov_J(sanov_nu), x=0.3, tau=1.0, horizon=200)
        rep = verify_real_distortion(walk, rep_c, kappa=0.5, x=0.3, N=200)
        assert rep.ok, rep.violations[:3]


# a Schottky pair with lambda about -1.36: along its walks l_n' falls below
# 1e-308 after about 520 steps
LONG_SCHOTTKY = {
    "scenario": "distortion", "seed": 9, "grid_size": 4096, "samples": 20000, "lyapunov_steps": 1000,
    "n_walks": 8, "horizon_real": 700, "horizon_complex": 100,
    "generators": {"s": {"matrix": [[0.2, 0.0], [0.0, 5.0]]}, "t": {"matrix": [[2.6, 2.4], [2.4, 2.6]]}},
    "mu": {"atoms": [["s", 0.25], ["s^-1", 0.25], ["t", 0.25], ["t^-1", 0.25]], "symmetric": True},
}


def test_a_long_scan_with_a_stiff_atom_rescales_cleanly():
    # diag(1e3, 1e-3) moves log2 |w| by up to 10 a step, so the states
    # rescale every 24 steps, 83 times in 2 000; without the rescales the
    # norms overflow (|log l_n'| reaches 5 000).  The rotations keep the
    # directions off the atom's axes.  The test keeps its own per-step sum
    # of -log |D w|^2 + log |w|^2, its w scaled by a power of two at every
    # step: the same products, bit for bit (a unit w's roundings would be
    # amplified by the stiff steps)
    stiff = MobiusMap([[1e3, 0.0], [0.0, 1e-3]])
    mu = make_step_distribution([stiff, stiff.inverse(), rotation(0.41421356237309515),
                                 rotation(-0.41421356237309515)], [0.25] * 4)
    assert mu.rescale_steps == 24
    n = 2_000
    walks = sample_walks(mu, n, 3, 8)
    with np.errstate(all="raise"):
        pos, logd, _ = PrefixScan(mu, walks.steps, 0.3, (0.2, 0.4), GridMeasure.lebesgue(1024)).history()
        dirs = direction_matrices(mu.matrices())
        w, ref = direction(np.full(8, 0.3)), np.zeros((8, n + 1))
        for k in range(n):
            d = dirs[walks.steps[:, k]]
            w = np.ldexp(w, -np.frexp(np.maximum(np.abs(w[0]), np.abs(w[1])))[1])
            r = w[0] * w[0] + w[1] * w[1]
            w = np.array([d[:, 0, 0] * w[0] + d[:, 0, 1] * w[1], d[:, 1, 0] * w[0] + d[:, 1, 1] * w[1]])
            ref[:, k + 1] = ref[:, k] - np.log(w[0] * w[0] + w[1] * w[1]) + np.log(r)
    assert np.max(np.abs(ref)) > 5_000
    assert np.all(np.abs(logd - ref) <= 1e-12 * np.arange(n + 1) * np.maximum(1.0, np.abs(ref)))
    x = np.arctan2(w[1], w[0]) / np.pi
    assert np.array_equal(pos, x - np.floor(x))


@pytest.mark.parametrize("horizon", [700, 1200])
def test_long_schottky_walks_check_clean_and_warning_free(horizon, tmp_path, monkeypatch):
    # composed 3-jets read l_n' below 1e-308 as 0 and reported 29
    # log_derivative violations with measured = inf, and max_L, max_S NaN;
    # past horizon 1050 the C5 terms overflowed with a RuntimeWarning
    from circlelab import experiments
    from circlelab.cli import run_experiment

    reports = []

    def recording(*args, **kwargs):
        reports.append(verify_real_distortion(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(experiments, "verify_real_distortion", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_experiment({**LONG_SCHOTTKY, "horizon_real": horizon}, out_dir=tmp_path) == 0
    assert json.loads((tmp_path / "report.json").read_text())["results"]["real_violations"] == 0
    (rep,) = reports
    assert rep.horizon == horizon and rep.ok
    assert np.all(np.isfinite(rep.max_L_measured)) and np.all(np.isfinite(rep.max_S_measured))


def test_verify_real_requires_matching_horizon(sanov_mu, sanov_nu, sanov_lambda):
    walk = sample_walk(sanov_mu, 100, seed=1)
    rep_c = walk_constants(walk, sanov_nu, lam=sanov_lambda, h_nu=0.55, eps=0.1,
                           J=sanov_J(sanov_nu), x=0.3, horizon=50)
    with pytest.raises(ValueError, match="horizon"):
        verify_real_distortion(walk, rep_c, kappa=0.5, x=0.3, N=100)


# -- complex-lemma verification ---------------------------------------------------

def test_verify_complex_identity_walk():
    mu = make_step_distribution([MobiusMap(np.eye(2))], [1.0])
    walk = sample_walk(mu, 20, seed=1)
    nu = GridMeasure.lebesgue(1024)
    rep_c = walk_constants(walk, nu, lam=-1e-6, h_nu=0.0, eps=0.1,
                           J=Arc(0.2, 0.1), x=0.3, horizon=20)
    rep = verify_complex_distortion(walk, rep_c, kappa=0.5, x=0.3, N=20)
    assert rep.ok and rep.max_kappa_measured < 1e-10


def test_verify_complex_repeated_hyperbolic_disks_shrink():
    mu = make_step_distribution([HYP], [1.0])
    walk = sample_walk(mu, 40, seed=1)
    nu = estimate_stationary_measure(mu, grid_size=1024, seed=1)
    rep_c = walk_constants(walk, nu, lam=np.log(0.25), h_nu=0.0, eps=0.1,
                           J=Arc(0.99, 0.02), x=0.0, horizon=40)
    rep = verify_complex_distortion(walk, rep_c, kappa=0.5, x=0.0, N=40)
    assert rep.ok
    assert rep.max_im_excess < 1.0


def test_verify_complex_sanov_seeds(sanov_mu, sanov_nu, sanov_lambda):
    for seed in (1, 2):
        walk = sample_walk(sanov_mu, 100, seed=seed)
        rep_c = walk_constants(walk, sanov_nu, lam=sanov_lambda, h_nu=0.55, eps=0.1,
                               J=sanov_J(sanov_nu), x=0.3, tau=1.0, horizon=100)
        rep = verify_complex_distortion(walk, rep_c, kappa=0.5, x=0.3, N=100)
        assert rep.ok, rep.violations[:3]


def reference_complex_check(walk, constants, kappa, x, N, disk_grid=(64, 16)):
    """The `cval`/`cderiv` loop that `verify_complex_distortion`'s direction
    states replaced, kept as its oracle: (max kappa, max Im excess, the
    (n, kind) of each violation)."""
    mu = walk.distribution
    r = constants.radius_complex(kappa)
    r = r if np.isfinite(r) else 0.05
    th = np.linspace(0.0, 2 * np.pi, disk_grid[0], endpoint=False)
    rad = np.linspace(0.0, 1.0, disk_grid[1] + 1)[1:]
    z = np.concatenate([[complex(x)], x + (r * rad[:, None] * np.exp(1j * th[None, :])).ravel()])
    logd = np.zeros(len(z))
    max_k = max_excess = 0.0
    violations = []
    for n in range(1, N + 1):
        atom = MobiusMap(mu.matrices()[walk.steps[n - 1]])
        logd += np.log(np.abs(atom.cderiv(z)))
        z = atom.cval(z)
        kap = float(np.max(logd) - np.min(logd))
        max_k = max(max_k, kap)
        if kap > kappa * (1 + 1e-9) + 1e-12:
            violations.append((n, "complex_affine"))
        im_bound = constants.C5 * np.exp(constants.lam * n / 2.0)
        im_max = float(np.max(np.abs(z.imag)))
        max_excess = max(max_excess, im_max / im_bound)
        if im_max > im_bound * (1 + 1e-9) + 1e-15:
            violations.append((n, "annulus"))
    return max_k, max_excess, violations


@pytest.fixture(scope="module")
def schottky_walk_data():
    from circlelab.configs import build_step_distribution, builtin_config

    mu = build_step_distribution(builtin_config("schottky"))
    nu = estimate_stationary_measure(mu, "monte_carlo", 1024, mc_samples=20_000, mc_steps=60, seed=9)
    lam = lyapunov_exponent(mu, nu, n_steps=500, trajectories=16, integral_samples=5_000, seed=9).value
    return mu, nu, lam


def _mp_tan_step(mat, t):
    """t = tan(pi z) -> (a t + b) / (c t + d), the matrix [[a, b], [c, d]] in
    the tan chart, with |g'(z)| = |det (1 + t^2) / ((1 + t'^2) (c t + d)^2)|,
    in mpmath's precision: an oracle that shares no formula with the states."""
    import mpmath as mp

    (a, b), (c, d) = (map(mp.mpf, row) for row in mat.tolist())
    q = c * t + d
    image = (a * t + b) / q
    return image, abs((a * d - b * c) * (1 + t * t) / ((1 + image * image) * q * q))


def _mp_abs_im(t):
    """|Im z| of t = tan(pi z): 2 Im t / (1 + |t|^2) = tanh(2 pi Im z)."""
    import mpmath as mp

    return abs(mp.atanh(2 * t.imag / (1 + abs(t) ** 2))) / (2 * mp.pi)


def _mp_max_im_excess(walk, constants, z0):
    """max over n of max |Im l_n(z0)| / (C5 e^{lam n / 2}), at 40 digits."""
    import mpmath as mp

    mats = walk.distribution.matrices()
    with mp.workdps(40):
        ts = [mp.tan(mp.pi * mp.mpc(v.real, v.imag)) for v in z0]
        excess = mp.mpf(0)
        for n, k in enumerate(walk.steps, 1):
            ts = [_mp_tan_step(mats[k], t)[0] for t in ts]
            bound = constants.C5 * mp.exp(mp.mpf(constants.lam) * n / 2)
            excess = max(excess, max(_mp_abs_im(t) for t in ts) / bound)
        return float(excess)


def walk_data(family, request):
    """(mu, nu, lam) of the sanov or schottky family."""
    if family == "sanov":
        return tuple(request.getfixturevalue(f) for f in ("sanov_mu", "sanov_nu", "sanov_lambda"))
    return request.getfixturevalue("schottky_walk_data")


@pytest.mark.parametrize("family", ["sanov", "schottky"])
def test_complex_check_matches_the_cval_loop(family, request):
    mu, nu, lam = walk_data(family, request)
    kinds = set()
    for seed in (1, 2, 3):
        walk = sample_walk(mu, 100, seed=seed)
        consts = walk_constants(walk, nu, lam=lam, h_nu=0.55, eps=0.1, J=sanov_J(nu),
                                x=0.3, tau=1.0, horizon=100)
        # the constants as computed, then with a wider disk in a 16x tighter
        # annulus, then with a disk too wide for kappa: violations to compare
        for c, kappa in ((consts, 0.5), (replace(consts, C2=consts.C2 / 16, C5=consts.C5 / 16), 0.5),
                         (replace(consts, C3_complex=consts.C3_complex * 1e-3,
                                  C3_complex_tail=consts.C3_complex_tail * 1e-3), 0.02)):
            rep = verify_complex_distortion(walk, c, kappa=kappa, x=0.3, N=100)
            max_k, max_excess, violations = reference_complex_check(walk, c, kappa, 0.3, 100)
            assert [(v.n, v.kind) for v in rep.violations] == violations
            kinds.update(kind for _, kind in violations)
            # kappa is the difference of two sums of 100 log derivatives, each
            # rounded differently by the two loops: ROUNDING_ULPS per term
            kappa_floor = 2 * 100 * ROUNDING_ULPS * EPS
            assert abs(rep.max_kappa_measured - max_k) <= max(1e-12 * max_k, kappa_floor)
            if family == "sanov" and c is consts:
                assert abs(rep.max_im_excess - max_excess) <= 1e-12 * max_excess
        # on Schottky walks the cval loop's Im z is itself off, by 1.3e-9 of
        # the excess on seed 3: there the oracle is a 40-digit tan-chart walk
        # of a coarser circle, which the states must match to 1e-12 everywhere
        th = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
        z0 = 0.3 + consts.radius_complex(0.5) * np.exp(1j * th)
        rep = verify_complex_distortion(walk, consts, kappa=0.5, x=0.3, N=100, ring=8)
        exact = _mp_max_im_excess(walk, consts, z0)
        assert abs(rep.max_im_excess - exact) <= 1e-12 * exact
    assert kinds == {"annulus", "complex_affine"}


def disk_reference(walks, constants, kappa, x, N):
    """The polar disk that the boundary circle replaced: its centre and 16
    rings of 64 angles, stepped as direction states; per walk (max kappa,
    max Im excess)."""
    mu = walks.distribution
    r = constants.radius_complex(kappa)
    th = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    rad = np.linspace(0.0, 1.0, 17)[1:]
    disk = (r[:, None, None] * rad[:, None] * np.exp(1j * th)).reshape(len(r), -1)
    w = mu.state(np.concatenate([np.full((len(r), 1), complex(x)), x + disk], axis=1))
    logd = np.zeros(w.shape[1:])
    max_k, max_excess = np.zeros(len(r)), np.zeros(len(r))
    for n in range(1, N + 1):
        w = mu.step_state(walks.steps[:, n - 1, None], w)
        logd -= normalise_directions(w).real
        np.maximum(max_k, np.max(logd, axis=1) - np.min(logd, axis=1), out=max_k)
        bound = constants.C5 * np.exp(constants.lam * n / 2.0)
        np.maximum(max_excess, np.max(direction_abs_im(w), axis=1) / bound, out=max_excess)
    return max_k, max_excess


@pytest.mark.parametrize("family", ["sanov", "schottky"])
def test_the_boundary_circle_carries_the_disk_extremes(family, request):
    # log |l_n'| and Im l_n are harmonic on the disk, so the circle's
    # maxima are the whole disk's
    mu, nu, lam = walk_data(family, request)
    walks = sample_walks(mu, 100, 3, 4)
    for x in (0.0, 0.3, 0.71):
        consts = walk_constants(walks, nu, lam=lam, h_nu=0.55, eps=0.1, J=sanov_J(nu), x=x, horizon=100)
        rep = verify_complex_distortion(walks, consts, kappa=0.5, x=x, N=100)
        max_k, max_excess = disk_reference(walks, consts, 0.5, x, 100)
        np.testing.assert_allclose(rep.max_kappa_measured, max_k, rtol=1e-12, atol=0)
        np.testing.assert_allclose(rep.max_im_excess, max_excess, rtol=1e-12, atol=0)


def test_direction_abs_im_is_exact_down_to_tiny_heights():
    y = np.logspace(-30, -1, 59)
    x = np.linspace(0.0, 1.0, 59, endpoint=False) + 0.013
    for sign in (1.0, -1.0):
        z = x + 1j * sign * y
        for w in (direction(z), -direction(z)):
            assert np.max(np.abs(direction_abs_im(w) - y) / y) <= 1e-14


def test_complex_states_track_a_60_digit_trajectory(sanov_mu):
    import mpmath as mp

    walk = sample_walk(sanov_mu, 60, seed=8)
    rng = np.random.default_rng(8)
    z0 = rng.random(200) + 1j * np.logspace(-6, -2, 200) * rng.choice([-1.0, 1.0], 200)
    w = sanov_mu.state(z0)
    logd = np.zeros(200)
    for k in walk.steps:
        w = sanov_mu.step_state(k, w)
        logd -= normalise_directions(w).real
    im = direction_abs_im(w)
    assert np.min(im) < 1e-20       # down where the cval loop loses Im z
    mats = sanov_mu.matrices()
    with mp.workdps(60):
        for i in range(200):
            t, log_d = mp.tan(mp.pi * mp.mpc(z0[i].real, z0[i].imag)), mp.mpf(0)
            for k in walk.steps:
                t, d = _mp_tan_step(mats[k], t)
                log_d += mp.log(d)
            exact = _mp_abs_im(t)
            assert abs(im[i] - exact) <= 1e-12 * exact
            assert abs(logd[i] - log_d) <= 1e-12 * abs(log_d)


def test_real_and_complex_agree_on_diameter(sanov_mu, sanov_nu, sanov_lambda):
    # the complex derivative restricted to the real diameter is the real
    # derivative: both distortion measurements coincide to float precision
    walk = sample_walk(sanov_mu, 60, seed=4)
    rep_c = walk_constants(walk, sanov_nu, lam=sanov_lambda, h_nu=0.55, eps=0.1,
                           J=sanov_J(sanov_nu), x=0.3, tau=1.0, horizon=60)
    r = rep_c.radius_complex(0.5)
    xs = (0.3 + np.linspace(-r, r, 17)) % 1.0
    zs = xs.astype(complex)
    logd_r = np.zeros(17)
    logd_c = np.zeros(17)
    pos = xs.copy()
    posz = zs.copy()
    for k in walk.steps:
        atom = sanov_mu.atoms[k]
        j = atom.jet(pos)
        logd_r += np.log(np.asarray(j.d1, dtype=float))
        pos = np.asarray(j.value, dtype=float)
        logd_c += np.log(np.abs(atom.cderiv(posz)))
        posz = atom.cval(posz)
    assert np.max(np.abs(logd_r - logd_c)) < 1e-9


# -- interval mass decay ----------------------------------------------------------

def test_decay_identity_walk_constant():
    mu = make_step_distribution([MobiusMap(np.eye(2))], [1.0])
    walk = sample_walk(mu, 30, seed=1)
    nu = GridMeasure.lebesgue(1024)
    rep = interval_mass_decay(walk, nu, Arc(0.2, 0.1), h_nu=0.0, eps=0.0, N=30)
    assert np.allclose(rep.values, 0.1, atol=1e-12)
    assert rep.positive


def test_decay_rotations_flat():
    th = 0.6180339887498949
    mu = make_step_distribution([rotation(th), rotation(-th)], [0.5, 0.5], symmetric=True)
    nu = GridMeasure.lebesgue(2048)
    walk = sample_walk(mu, 50, seed=2)
    rep = interval_mass_decay(walk, nu, Arc(0.1, 0.2), h_nu=0.0, eps=0.0, N=50)
    assert np.max(np.abs(rep.values - 0.2)) < 1e-6


def test_decay_sanov_positive(sanov_mu, sanov_nu):
    hits = 0
    for seed in range(10):
        walk = sample_walk(sanov_mu, 100, seed=seed)
        rep = interval_mass_decay(walk, sanov_nu, sanov_J(sanov_nu),
                                  h_nu=0.55, eps=0.1, N=100)
        hits += rep.positive
    assert hits >= 9


@pytest.mark.parametrize("c1", [2.0016e-286, 1.5442e-282, 6.3815e-280])
def test_decay_collapsed_mass_is_not_positive(c1):
    # finite C1 terms of masses that collapsed to the scan's 1e-300 floor,
    # as a scan that read a near-full arc as a tiny one once recorded them
    rep = DecayReport(np.arange(4), np.log([0.1, 0.07, c1, 0.05]))
    assert np.all(np.isfinite(rep.log_values))
    assert rep.log_c1 == np.log(c1) < LOG_C1_FLOOR
    assert not rep.positive


def test_decay_floor_passes_small_honest_masses():
    assert DecayReport(np.arange(3), np.log([0.1, 1e-99, 0.05])).positive
    assert not DecayReport(np.arange(3), np.array([np.log(0.1), -np.inf, np.log(0.05)])).positive


# -- batches of walks ---------------------------------------------------------------

def report_row(rep, k=None):
    """A report's fields but its violations; with k, each array field at row k."""
    row = {f.name: getattr(rep, f.name) for f in fields(rep) if f.name != "violations"}
    return row if k is None else {name: v[k] if isinstance(v, np.ndarray) else v for name, v in row.items()}


def violation_rows(rep, walk=None):
    return [(v.walk if walk is None else walk, v.n, v.kind, v.measured, v.bound) for v in rep.violations]


# each check as computed, then with the constants of the odd walks tightened
# (s = 16, t = 1e-3 there, 1 on the even walks): violations of every kind
REAL_CASES = [
    (lambda c, s, t: c, 0.5),
    (lambda c, s, t: replace(c, C3=c.C3 * t, C4_log=c.C4_log * t, C4_schwarzian=c.C4_schwarzian * t), 0.5),
]
COMPLEX_CASES = [
    (lambda c, s, t: c, 0.5),
    (lambda c, s, t: replace(c, C2=c.C2 / s, C5=c.C5 / s), 0.5),
    (lambda c, s, t: replace(c, C3_complex=c.C3_complex * t, C3_complex_tail=c.C3_complex_tail * t), 0.02),
]


@pytest.mark.parametrize("family", ["sanov", "schottky"])
def test_batch_rows_equal_one_walk_calls(family, request):
    mu, nu, lam = walk_data(family, request)
    J, n_walks = sanov_J(nu), 4
    walks = sample_walks(mu, 100, 3, n_walks)
    ones = [sample_walk(mu, 100, 3, k) for k in range(n_walks)]
    kw = dict(nu=nu, lam=lam, h_nu=0.55, eps=0.1, J=J, x=0.3, tau=1.0, horizon=100)
    consts = walk_constants(walks, **kw)
    one_consts = [walk_constants(w, **kw) for w in ones]
    for k, one in enumerate(one_consts):
        assert np.array_equal(walks.steps[k], ones[k].steps)
        assert all(isinstance(v, (int, float)) for v in report_row(one).values())
        assert report_row(consts, k) == report_row(one)
    odd = np.arange(n_walks) % 2 == 1
    s, t = np.where(odd, 16.0, 1.0), np.where(odd, 1e-3, 1.0)
    kinds = set()
    for verify, cases in ((verify_real_distortion, REAL_CASES), (verify_complex_distortion, COMPLEX_CASES)):
        for i, (tighten, kappa) in enumerate(cases):
            rep = verify(walks, tighten(consts, s, t), kappa=kappa, x=0.3, N=100)
            one_reps = [verify(w, tighten(c, s[k], t[k]), kappa=kappa, x=0.3, N=100)
                        for k, (w, c) in enumerate(zip(ones, one_consts))]
            for k, one in enumerate(one_reps):
                assert all(isinstance(v, (int, float)) for v in report_row(one).values())
                assert report_row(rep, k) == report_row(one)
            assert violation_rows(rep) == [v for k, one in enumerate(one_reps) for v in violation_rows(one, k)]
            # only the tightened walks violate, and each tightened case does
            assert {v.walk for v in rep.violations} <= ({1, 3} if i else set())
            assert bool(rep.violations) == bool(i)
            kinds.update(v.kind for v in rep.violations)
    assert kinds == {"affine", "log_derivative", "schwarzian", "complex_affine", "annulus"}
    decay = interval_mass_decay(walks, nu, J, h_nu=0.55, eps=0.1, N=60)
    for k, w in enumerate(ones):
        one = interval_mass_decay(w, nu, J, h_nu=0.55, eps=0.1, N=60)
        assert np.array_equal(decay.log_values[k], one.log_values)
        assert decay.log_c1[k] == one.log_c1 and decay.positive[k] == one.positive
        assert isinstance(one.log_c1, float) and isinstance(one.positive, bool)


def test_a_pole_in_one_walk_fails_the_whole_batch(sanov_mu, sanov_nu, sanov_lambda):
    kw = dict(nu=sanov_nu, lam=sanov_lambda, h_nu=0.55, eps=0.1, J=sanov_J(sanov_nu),
              x=0.3, tau=1.0, horizon=50)
    wide = np.array([1.0, 1e4, 1.0])

    def widened(c, f):
        # a disk about f times wider: past the next map's singular annulus
        return replace(c, C5=c.C5 * f, C3_complex=c.C3_complex / f, C3_complex_tail=c.C3_complex_tail / f)

    for k in range(3):
        walk = sample_walk(sanov_mu, 50, 5, k)
        consts = widened(walk_constants(walk, **kw), wide[k])
        if k == 1:
            with pytest.raises(PoleInDiskError, match="step 1:"):
                verify_complex_distortion(walk, consts, kappa=0.5, x=0.3, N=50)
        else:
            assert verify_complex_distortion(walk, consts, kappa=0.5, x=0.3, N=50).ok
    walks = sample_walks(sanov_mu, 50, 5, 3)
    with pytest.raises(PoleInDiskError, match="walk 1, step 1:"):
        verify_complex_distortion(walks, widened(walk_constants(walks, **kw), wide), kappa=0.5, x=0.3, N=50)


# -- the prefix scan ----------------------------------------------------------------

class ReferenceArcTracker:
    """The scalar arc tracker that the prefix scan replaced, kept as its oracle.

    Image of an arc along a walk, with a log-length fallback: once the
    image is shorter than ~1e-9 the arc is tracked as (midpoint, log
    length), growing the length by the midpoint derivative.
    """

    _SWITCH = 1e-9

    def __init__(self, arc: Arc):
        self.lo = float(arc.left)
        self.hi = float(arc.right)
        self.mid = float(arc.midpoint)
        self.log_len = float(np.log(arc.length))
        self.tiny = False

    def step(self, atom):
        if not self.tiny:
            self.lo = float(np.asarray(atom.apply(self.lo)))
            self.hi = float(np.asarray(atom.apply(self.hi)))
            length = (self.hi - self.lo) % 1.0
            self.mid = (self.lo + 0.5 * length) % 1.0
            if length < self._SWITCH:
                self.tiny = True
                self.log_len = float(np.log(max(length, 1e-300)))
            else:
                self.log_len = float(np.log(length))
        else:
            j = atom.jet(self.mid)
            self.mid = float(np.asarray(j.value))
            self.log_len += float(np.log(np.asarray(j.d1)))

    def log_mass(self, nu: GridMeasure) -> float:
        if not self.tiny:
            m = float(nu.interval_mass(self.lo, self.hi))
            if m > 0.0:
                return float(np.log(m))
        dens = nu.cell_density(self.mid)
        if dens <= 0.0:
            return -np.inf
        return self.log_len + float(np.log(dens))


def scan_log_mass(mu, steps, x, J, nu):
    """log nu(l_k J), k = 0..n, along one walk's steps, from the scan's history."""
    return PrefixScan(mu, steps[None, :], x, (J.left, J.right), nu).history()[2][0]


def reference_c1_terms(walk, nu, J, h_nu, eps, N):
    """C1 terms by the scalar per-step loop; also the first tiny step and,
    per term, how far a scan that rounds positions differently may be from
    it: `position_rounding_bound` while the arc has endpoints, then that
    bound at the switch plus one log derivative's rounding per step."""
    tracker = ReferenceArcTracker(J)
    terms = [float(np.log(nu.arc_mass(J)))]
    bounds = [position_rounding_bound(nu, J.left, J.right, nu.arc_mass(J))]
    first_tiny = None
    for n in range(1, N + 1):
        was_tiny = tracker.tiny
        tracker.step(walk.distribution.atoms[walk.steps[n - 1]])
        if tracker.tiny and first_tiny is None:
            first_tiny = n
        log_mass = tracker.log_mass(nu)
        terms.append(log_mass + (h_nu + eps) * n)
        bounds.append(bounds[-1] + ROUNDING_ULPS * EPS if was_tiny else
                      position_rounding_bound(nu, tracker.lo, tracker.hi, np.exp(log_mass)))
    return np.array(terms), first_tiny, np.array(bounds)


def _hyp_case():
    mu = make_step_distribution([HYP], [1.0])
    return (sample_walk(mu, 60, seed=1), estimate_stationary_measure(mu, grid_size=1024, seed=1),
            Arc(0.99, 0.02))


@pytest.mark.parametrize("case", ["hyp", "sanov_suite_walk"])
def test_scan_c1_terms_match_scalar_tracker_through_tiny_arcs(case, request):
    if case == "hyp":
        walk, nu, J = _hyp_case()
    else:
        # walk 0 of the distortion scenario at seed 7 on the free pair
        sanov_mu = request.getfixturevalue("sanov_mu")
        nu = request.getfixturevalue("sanov_nu")
        walk, J = sample_walk(sanov_mu, 200, 7, 0), sanov_J(nu)
    N = len(walk.steps)
    ref, first_tiny, bound = reference_c1_terms(walk, nu, J, 0.55, 0.1, N)
    assert first_tiny is not None and first_tiny < N   # the arc passes 1e-9 mid-walk
    assert J.length > 1e-9
    log_mass = scan_log_mass(walk.distribution, walk.steps, J.midpoint, J, nu)
    got = log_mass + (0.55 + 0.1) * np.arange(N + 1)
    assert got.shape == (N + 1,)
    assert np.all(np.abs(got - ref) <= bound), np.max(np.abs(got - ref) / bound)


@pytest.mark.parametrize("walk_index, first_full", [(5, 63), (6, 69), (10, 81)])
def test_an_image_covering_the_circle_keeps_its_mass(sanov_mu, sanov_nu, walk_index, first_full):
    # walks 5, 6 and 10 of the distortion scenario at seed 7 on the free pair:
    # from step first_full on, the image of J is the whole circle but for a
    # complement below float resolution.  Read as wrap(hi - lo) it was a tiny
    # arc, and log nu(l_k J) fell from about 0 to the log 1e-300 floor in one
    # step; tracked by its complement, the mass stays near 1
    walk, J = sample_walk(sanov_mu, 200, 7, walk_index), sanov_J(sanov_nu)
    log_mass = scan_log_mass(sanov_mu, walk.steps, 0.3, J, sanov_nu)
    assert np.all(np.isfinite(log_mass))
    full = log_mass[:-1] > -1e-9      # images holding all but 1e-9 of the mass
    assert full[first_full - 1]
    assert np.all(log_mass[1:][full] > np.log(0.5))


def test_a_strongly_contracting_atom_makes_a_tiny_arc():
    # diag(1e-5, 1e5) maps the half circle around its attracting point 0
    # onto an arc of length 2 arctan(1e-10) / pi = 2e-10 / pi (to 1e-20),
    # below 1e-9 but not a complement; its mass under Lebesgue measure is
    # that length
    mu = make_step_distribution([MobiusMap([[1e-5, 0.0], [0.0, 1e5]])], [1.0])
    _, _, log_mass = PrefixScan(mu, np.zeros((1, 1), dtype=int), 0.0, (0.75, 0.25),
                                GridMeasure.lebesgue(1024)).history()
    assert log_mass[0, 0] == pytest.approx(np.log(0.5))
    assert log_mass[0, 1] == pytest.approx(np.log(2e-10 / np.pi), rel=1e-12, abs=0.0)


def test_the_scan_refuses_a_family_that_is_not_pure_mobius(conjugated_mu):
    with pytest.raises(ValueError, match="pure Mobius"):
        PrefixScan(conjugated_mu, np.zeros((1, 3), dtype=int), 0.3, (0.2, 0.3), GridMeasure.lebesgue(1024))
    # the constants take their seminorms from the matrices behind the scan's refusal
    with pytest.raises(ValueError, match="pure Mobius"):
        walk_constants(sample_walk(conjugated_mu, 3, seed=1), GridMeasure.lebesgue(1024), lam=-0.5,
                       h_nu=0.5, eps=0.1, J=Arc(0.2, 0.1), x=0.3)


def exact_log_masses(mu, steps, lo, hi, nu, dps=160):
    """log nu(l_k J) and |l_k J| for k = 0..n at dps digits: the ends of
    J = (lo, hi) stepped as direction vectors by the atoms' direction
    matrices, positions by atan2, the mass the difference of nu's
    piecewise-linear CDF (its float knots taken exactly) at the ends."""
    N = nu.N
    cdf = [mpmath.mpf(float(c)) for c in nu.cdf]

    def lifted_cdf(y):
        f = mpmath.floor(y)
        j = int(mpmath.floor((y - f) * N))
        return f + cdf[j] + (cdf[j + 1] - cdf[j]) * ((y - f) * N - j)

    with mpmath.workdps(dps):
        dirs = [[[mpmath.mpf(float(v)) for v in row] for row in d]
                for d in direction_matrices(mu.matrices())]
        ends = [(mpmath.cospi(mpmath.mpf(e)), mpmath.sinpi(mpmath.mpf(e))) for e in (lo, hi)]
        log_mass, length = [], []
        for k in range(len(steps) + 1):
            if k:
                D = dirs[steps[k - 1]]
                ends = [(D[0][0] * c + D[0][1] * s, D[1][0] * c + D[1][1] * s) for c, s in ends]
            x_lo, x_hi = (mpmath.atan2(s, c) / mpmath.pi for c, s in ends)
            span = (x_hi - x_lo) - mpmath.floor(x_hi - x_lo)
            length.append(float(span))
            log_mass.append(float(mpmath.log(lifted_cdf(x_lo + span) - lifted_cdf(x_lo))))
    return np.array(log_mass), np.array(length)


@pytest.mark.parametrize("walk_index", [0, 1, 11])
def test_tiny_arc_log_masses_match_a_high_precision_evaluation(sanov_mu, sanov_nu, walk_index):
    # walks 0, 1 and 11 of the distortion scenario at seed 7 on the free
    # pair: below 1e-9 the scan's length comes from log derivatives alone,
    # with none of the ~1e-7 relative error of a length read from two float
    # ends at the 1e-9 switch
    walk, J = sample_walk(sanov_mu, 200, 7, walk_index), sanov_J(sanov_nu)
    got = scan_log_mass(sanov_mu, walk.steps, 0.3, J, sanov_nu)
    exact, length = exact_log_masses(sanov_mu, walk.steps, J.left, J.right, sanov_nu)
    tiny = np.minimum(length, 1.0 - length) < 1e-9
    assert tiny.sum() > 100
    assert np.max(np.abs(got[tiny] - exact[tiny])) <= 1e-12


def test_scan_rows_are_independent_of_the_batch(sanov_mu, sanov_nu, sanov_lambda):
    # the rows' arcs pass 1e-9 at different steps (16 to 69), so the batch
    # mixes rows on either side of the switch
    steps = np.stack([sample_walk(sanov_mu, 200, 7, k).steps for k in range(8)])
    J = sanov_J(sanov_nu)
    sums = [(w, sanov_lambda / 2.0) for w in mobius_seminorms(sanov_mu.matrices())[:3]]
    batch = PrefixScan(sanov_mu, steps, 0.3, (J.left, J.right), sanov_nu)
    batch_history, batch_run = batch.history(), batch.constants(sanov_lambda, 0.65, sums)
    for k in range(8):
        one = PrefixScan(sanov_mu, steps[k:k + 1], 0.3, (J.left, J.right), sanov_nu)
        for field, b, o in zip(("pos", "logd", "log_mass"), batch_history, one.history()):
            assert np.array_equal(b[k:k + 1], o), field
        one_run = one.constants(sanov_lambda, 0.65, sums)
        for field in ("pos", "logd", "log_c1", "c2"):
            assert np.array_equal(getattr(batch_run, field)[k:k + 1], getattr(one_run, field)), field
        for b, o in zip(batch_run.sums, one_run.sums):
            assert np.array_equal(b[k:k + 1], o)


@pytest.mark.parametrize("x, arc", [(0.3, None), (0.95, (0.9, 0.05)), (0.5, (0.25, 0.75))])
def test_running_reductions_are_the_history_definitions(sanov_mu, sanov_nu, sanov_lambda, x, arc):
    # the walks of the batch test (arcs passing 1e-9 mid-walk) from three
    # starts; every reduction equals its definition bit for bit
    steps = np.stack([sample_walk(sanov_mu, 200, 7, k).steps for k in range(8)])
    if arc is None:
        J = sanov_J(sanov_nu)
        arc = (J.left, J.right)
    holder, sup_L, sup_S, complex_L = mobius_seminorms(sanov_mu.matrices(), 0.5)[:4]
    sums = [(holder, sanov_lambda * 0.25), (sup_L, sanov_lambda / 2.0), (sup_S, sanov_lambda),
            (complex_L, sanov_lambda / 2.0)]
    assert_reductions_are_the_history_definitions(PrefixScan(sanov_mu, steps, x, arc, sanov_nu), steps,
                                                  sanov_lambda, 0.65, sums)
