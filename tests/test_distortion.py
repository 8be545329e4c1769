import numpy as np
import pytest
from conftest import EPS, ROUNDING_ULPS, position_rounding_bound

from circlelab.circle import Arc
from circlelab.distortion import (
    LOG_C1_FLOOR,
    DecayReport,
    PoleInDiskError,
    atom_seminorms,
    interval_mass_decay,
    prefix_scan,
    verify_complex_distortion,
    verify_real_distortion,
    walk_constants,
)
from circlelab.maps import MobiusMap, make_generator, rotation
from circlelab.measure import GridMeasure, estimate_stationary_measure, lyapunov_exponent
from circlelab.walk import make_step_distribution, sample_walk

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


def _conjugated_hyp_case():
    mu = make_step_distribution([make_generator([[0.5, 0], [0, 2]], [[0.01, 0.02]])], [1.0])
    return sample_walk(mu, 60, seed=1), GridMeasure.lebesgue(1024), Arc(0.99, 0.02)


@pytest.mark.parametrize("case", ["hyp", "conjugated_hyp", "sanov_suite_walk"])
def test_scan_c1_terms_match_scalar_tracker_through_tiny_arcs(case, request):
    if case == "hyp":
        walk, nu, J = _hyp_case()
    elif case == "conjugated_hyp":
        walk, nu, J = _conjugated_hyp_case()
    else:
        # walk 0 of the distortion scenario at seed 7 on the free pair
        sanov_mu = request.getfixturevalue("sanov_mu")
        nu = request.getfixturevalue("sanov_nu")
        walk, J = sample_walk(sanov_mu, 200, 7, 0), sanov_J(nu)
    N = len(walk.steps)
    ref, first_tiny, bound = reference_c1_terms(walk, nu, J, 0.55, 0.1, N)
    assert first_tiny is not None and first_tiny < N   # the arc passes 1e-9 mid-walk
    assert J.length > 1e-9
    scan = prefix_scan(walk.distribution, walk.steps[None, :], J.midpoint, (J.left, J.right), nu)
    got = scan.c1_terms(0.55, 0.1)[0]
    assert got.shape == (N + 1,)
    if case == "conjugated_hyp":
        # a family that is not pure Mobius is stepped by positions, as the tracker steps it
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
    else:
        assert np.all(np.abs(got - ref) <= bound), np.max(np.abs(got - ref) / bound)


@pytest.mark.parametrize("walk_index, first_full", [(5, 63), (6, 69), (10, 81)])
def test_an_image_covering_the_circle_keeps_its_mass(sanov_mu, sanov_nu, walk_index, first_full):
    # walks 5, 6 and 10 of the distortion scenario at seed 7 on the free pair:
    # from step first_full on, the image of J is the whole circle but for a
    # complement below float resolution.  Read as wrap(hi - lo) it was a tiny
    # arc, and log nu(l_k J) fell from about 0 to the log 1e-300 floor in one
    # step; tracked by its complement, the mass stays near 1
    walk, J = sample_walk(sanov_mu, 200, 7, walk_index), sanov_J(sanov_nu)
    log_mass = prefix_scan(sanov_mu, walk.steps[None, :], 0.3, (J.left, J.right), sanov_nu).log_mass[0]
    assert np.all(np.isfinite(log_mass))
    full = log_mass[:-1] > -1e-9      # images holding all but 1e-9 of the mass
    assert full[first_full - 1]
    assert np.all(log_mass[1:][full] > np.log(0.5))


def test_a_strongly_contracting_atom_makes_a_tiny_arc():
    # diag(1e-5, 1e5) has sigma^2 = 1e10: it maps the half circle around its
    # attracting point 0 onto an arc of length 2e-10 / pi, below 1e-9 but not
    # a complement; its mass under Lebesgue measure is that length
    mu = make_step_distribution([MobiusMap([[1e-5, 0.0], [0.0, 1e5]])], [1.0])
    assert mu.log_shrink_bound() == pytest.approx(np.log(1e10))
    scan = prefix_scan(mu, np.zeros((1, 1), dtype=int), 0.0, (0.75, 0.25), GridMeasure.lebesgue(1024))
    assert scan.log_mass[0, 0] == pytest.approx(np.log(0.5))
    assert scan.log_mass[0, 1] == pytest.approx(np.log(2e-10 / np.pi), abs=1e-6)


def test_scan_rows_are_independent_of_the_batch(sanov_mu, sanov_nu, sanov_lambda):
    # the rows' arcs pass 1e-9 at different steps (16 to 69), so the batch
    # mixes rows on either side of the switch
    steps = np.stack([sample_walk(sanov_mu, 200, 7, k).steps for k in range(8)])
    J = sanov_J(sanov_nu)
    sem = atom_seminorms(sanov_mu)
    batch = prefix_scan(sanov_mu, steps, 0.3, (J.left, J.right), sanov_nu)
    for k in range(8):
        one = prefix_scan(sanov_mu, steps[k:k + 1], 0.3, (J.left, J.right), sanov_nu)
        for field in ("pos", "logd", "log_mass"):
            assert np.array_equal(getattr(batch, field)[k:k + 1], getattr(one, field)), field
        assert np.array_equal(batch.c2(sanov_lambda)[k:k + 1], one.c2(sanov_lambda))
        for weights in (sem.holder, sem.sup_L, sem.sup_S):
            assert np.array_equal(batch.step_sum(weights, sanov_lambda / 2.0)[k:k + 1],
                                  one.step_sum(weights, sanov_lambda / 2.0))
