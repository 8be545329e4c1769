import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from conftest import (EPS, ROUNDING_ULPS, assert_reductions_are_the_history_definitions,
                      position_rounding_bound)

from circlelab import experiments
from circlelab.circle import Arc, circle_dist
from circlelab.cli import run_experiment
from circlelab.configs import builtin_config
from circlelab.distortion import PrefixScan
from circlelab.maps import (MobiusMap, Word, eval_jet3, linearizing_chart, mobius_seminorms,
                            mobius_value_logd, rotation)
from circlelab.measure import estimate_stationary_measure, lyapunov_exponent
from circlelab.nearid import (
    DistortionWindowError,
    EndgameViolation,
    NearIdentityReport,
    _chart_eval,
    chart_preimages,
    ck_distances,
    endgame_estimates,
    kappa_m_solve,
    search_near_identity_pairs,
)
from circlelab.walk import make_step_distribution


def dense_l(alpha=0.85):
    s = np.sqrt(alpha)
    return MobiusMap([[s, 0.0], [0.0, 1.0 / s]])


@pytest.fixture(scope="module")
def dense_setup():
    # weakly hyperbolic l plus an irrational rotation; weights lean on the
    # rotation so kappa_m stays solvable down to m = 5
    l = dense_l()
    R = rotation(np.sqrt(2) - 1)
    mu = make_step_distribution([l, l.inverse(), R, R.inverse()], [0.3, 0.3, 0.2, 0.2],
                                symmetric=True, names=["l", "l'", "r", "r'"])
    nu = estimate_stationary_measure(mu, grid_size=2048, seed=2)
    lam = lyapunov_exponent(mu, nu, n_steps=3000, trajectories=32,
                            integral_samples=20_000, seed=3).value
    return mu, l, nu, lam


@pytest.fixture(scope="module")
def dense_reports(dense_setup):
    # one search per m draws its own stream, so any m_range gives these reports
    mu, l, nu, lam = dense_setup
    return search_near_identity_pairs(
        mu, l, eta=0.02, m_range=range(5, 13), nu=nu, lam=lam, h_nu=0.05,
        samples=8192, seed=7)


# -- kappa_m solver ------------------------------------------------------------

def test_kappa_small_gap_asymptotics():
    k = kappa_m_solve(1e-6, tau=1.0)
    assert abs(k - 1e-6) < 1e-9


def test_kappa_boundary_rejected():
    with pytest.raises(DistortionWindowError):
        kappa_m_solve(np.exp(-1.0), tau=1.0)


def test_kappa_root_matches_bisection_oracle():
    gap, tau = 0.1, 1.0
    lo, hi = 1e-12, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid * np.exp(-mid) < gap:
            lo = mid
        else:
            hi = mid
    k = kappa_m_solve(gap, tau)
    assert abs(k - 0.5 * (lo + hi)) < 1e-10
    assert abs(k * np.exp(-k) - gap) <= 1e-12


def test_kappa_matches_mpmath_root():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for tau in (1.0, 0.9, 0.5, 0.25):
            power = mpmath.mpf(1.0 / tau)   # the exponent as the solver rounds it
            for gap in (1e-12, 1e-8, 1e-5, 1e-3, 0.01, 0.1, 0.2, 0.3):
                k = kappa_m_solve(gap, tau)
                exact = mpmath.findroot(lambda x: x ** power * mpmath.exp(-x) - gap, k)
                assert abs(k - exact) <= 1e-15 * exact, (gap, tau)


def test_kappa_returns_smaller_root():
    # below the maximizer 1/tau, where kappa^{1/tau} e^{-kappa} increases
    for tau, gap in ((1.0, 0.2), (0.5, 0.3), (0.5, 0.5)):
        k = kappa_m_solve(gap, tau)
        assert 0 < k < 1.0 / tau


def test_kappa_residual_precision():
    for gap in (1e-4, 0.01, 0.3):
        k = kappa_m_solve(gap, 1.0)
        assert abs(k * np.exp(-k) - gap) <= 1e-12


# -- ck distance ----------------------------------------------------------------

def test_ck_identity_word():
    w = Word(())
    assert ck_distances(w, Arc(0.1, 0.2))[2] == 0.0


def test_ck_cancelling_word():
    g = MobiusMap([[1, 2], [0, 1]])
    w = Word((g, rotation(0.3), rotation(0.3).inverse(), g.inverse()))
    assert ck_distances(w, Arc(0.1, 0.2))[2] < 1e-9


def test_ck_small_rotation_exact():
    w = Word((rotation(1e-4),))
    assert abs(ck_distances(w, Arc(0.3, 0.1))[0] - 1e-4) < 1e-12


def reference_ck_distance(map_like, arc, k, grid_size=129):
    """The per-order computation `ck_distances` replaced: one jet per k."""
    xs = arc.grid(grid_size)
    j = eval_jet3(map_like, xs)
    parts = [np.max(circle_dist(j.value, xs)), np.max(np.abs(j.d1 - 1.0))]
    if k >= 2:
        parts.append(np.max(np.abs(j.d2)))
    if k >= 3:
        parts.append(np.max(np.abs(j.d3)))
    return float(max(parts))


def test_ck_distances_equal_the_per_order_computation(dense_reports):
    g = MobiusMap([[1, 2], [0, 1]])
    maps = [(Word((rotation(1e-4),)), Arc(0.3, 0.1)), (Word((g, rotation(0.3))), Arc(0.1, 0.2))]
    for r in dense_reports[0]:
        phi = Word(r.g_word.factors + r.h_word.inverse().factors)
        half = r.chart.chart_arc(r.eta / 2)
        maps.append((phi, half))
        # the search evaluates phi through its product matrix
        assert r.ck_distances == tuple(reference_ck_distance(phi.as_mobius(), half, k) for k in (1, 2, 3))
    for phi, arc in maps:
        for n in (33, 129):
            ref = tuple(reference_ck_distance(phi, arc, k, n) for k in (1, 2, 3))
            assert ck_distances(phi, arc, n) == ref
            assert ck_distances(phi, arc, n, jet=eval_jet3(phi, arc.grid(n))) == ref


def test_product_matrix_jets_match_the_factor_jets(dense_reports):
    # the search and the endgame evaluate g_m, h_m, h_m^{-1} and phi through
    # their product matrices; factor by factor they agree to 1e-12 relative
    # to each order's sup on the grid (observed: 3.4e-13, phi's d3)
    checked = 0
    for r in dense_reports[0]:
        xs = r.chart.chart_arc(r.eta).grid(129)
        h_inv = r.h_word.inverse()
        phi = Word(r.g_word.factors + h_inv.factors)
        g_xs = np.asarray(r.g_word.apply(xs))
        for word, points, mob in ((r.g_word, xs, r.g_word.as_mobius()),
                                  (r.h_word, xs, r.h_word.as_mobius()),
                                  (h_inv, g_xs, r.h_word.as_mobius().inverse()),
                                  (phi, xs, phi.as_mobius())):
            factors, product = word.jet(points), mob.jet(points)
            assert np.max(circle_dist(factors.value, product.value)) <= 1e-12
            for order in ("d1", "d2", "d3"):
                ref, got = getattr(factors, order), getattr(product, order)
                assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref))), order
            checked += 1
    assert checked == 4 * len(dense_reports[0]) >= 32


# -- the search -------------------------------------------------------------------

def test_search_dense_finds_pairs(dense_reports):
    reports, misses = dense_reports
    found_m = {r.m for r in reports}
    assert found_m == set(range(5, 13)), f"misses: {[(x.m, x.reason) for x in misses]}"
    for r in reports:
        assert r.pair_keys[0] != r.pair_keys[1]
        assert r.derivative_gap <= 1.0 / r.m + 1e-12
        assert r.kappa_g_measured <= r.kappa_m * (1 + 1e-6)
        assert r.kappa_h_measured <= r.kappa_m * (1 + 1e-6)
        assert r.ck_distances[0] > 0


def test_search_sanov_discrete_no_near_identity(sanov_mu, sanov_atoms):
    nu = estimate_stationary_measure(sanov_mu, grid_size=2048, seed=3)
    l = Word((sanov_atoms[2], sanov_atoms[0])).as_mobius()   # hyperbolic A B
    reports, misses = search_near_identity_pairs(
        sanov_mu, l, eta=0.05, m_range=range(5, 9), nu=nu, lam=-0.64, h_nu=0.55,
        samples=3000, seed=11)
    for r in reports:
        assert r.ck_distances[0] > 1e-3
    assert len(reports) + len(misses) == 4


def test_search_degenerate_singleton(dense_setup):
    mu, l, nu, lam = dense_setup
    reports, misses = search_near_identity_pairs(
        mu, l, eta=0.02, m_range=[1], nu=nu, lam=lam, h_nu=0.05,
        samples=1, seed=1)
    assert reports == []
    assert len(misses) == 1


def test_prefix_scan_reproduces_the_inline_search_scan(dense_setup):
    # the vectorized loop the pair search ran before the prefix scan, kept
    # as the reference.  It steps positions, the scan direction vectors:
    # the step sums must come out bit for bit the same, the positions and
    # log derivatives within their rounding, and log C1 within
    # `position_rounding_bound` of its terms
    mu, l, nu, lam = dense_setup
    chart = linearizing_chart(l)
    mats = mu.matrices()
    holder, sup_L = mobius_seminorms(mats)[:2]
    samples, n, m, h_nu, eps = 512, 24, 12, 0.05, 0.1
    steps = mu.sample_indices(np.random.default_rng(5), (samples, n))
    arc_lo = float(chart.from_chart(-0.02 * chart.alpha ** (2 * m)))
    arc_hi = float(chart.from_chart(0.02 * chart.alpha ** (2 * m)))
    pos = np.full(samples, chart.fixed_point)
    logd = np.zeros(samples)
    lo = np.full(samples, arc_lo)
    hi = np.full(samples, arc_hi)
    C2 = np.ones(samples)
    C3 = np.zeros(samples)
    C4 = np.zeros(samples)
    logC1 = np.log(np.maximum(nu.interval_mass(arc_lo, arc_hi), 1e-300)) * np.ones(samples)
    c1_bound = position_rounding_bound(nu, lo, hi, nu.interval_mass(lo, hi))
    for k in range(n):
        idx = steps[:, k]
        pos, ld = mobius_value_logd(mats[idx], pos)
        logd += ld
        lo, _ = mobius_value_logd(mats[idx], lo)
        hi, _ = mobius_value_logd(mats[idx], hi)
        kk = k + 1
        C2 = np.maximum(C2, np.maximum(np.exp(logd - kk * lam / 2.0),
                                       np.exp(3.0 * kk * lam / 2.0 - logd)))
        C3 += holder[idx] * np.exp(lam * 1.0 / 2.0 * k)
        C4 += sup_L[idx] * np.exp(lam / 2.0 * k)
        mass = np.maximum(nu.interval_mass(lo, hi), 1e-300)
        logC1 = np.minimum(logC1, np.log(mass) + (h_nu + eps) * kk)
        c1_bound = np.maximum(c1_bound, position_rounding_bound(nu, lo, hi, mass))

    run = PrefixScan(mu, steps, chart.fixed_point, (arc_lo, arc_hi), nu).constants(
        lam, h_nu + eps, [(holder, lam * 1.0 / 2.0), (sup_L, lam / 2.0)])
    logd_bound = ROUNDING_ULPS * EPS * n
    assert np.max(circle_dist(run.pos, pos)) <= ROUNDING_ULPS * EPS
    assert np.max(np.abs(run.logd - logd)) <= logd_bound
    np.testing.assert_allclose(run.c2, C2, rtol=2 * logd_bound, atol=0)
    assert np.array_equal(run.sums[0], C3)
    assert np.array_equal(run.sums[1], C4)
    assert np.all(np.abs(run.log_c1 - logC1) <= c1_bound)


def test_running_reductions_are_the_history_definitions_on_the_search(dense_setup):
    # the search's scan at m = 12 and at m = 20 (the benchmark's largest
    # arc-shrink), its C3 and C4 step sums: bit for bit the definitions
    mu, l, nu, lam = dense_setup
    chart = linearizing_chart(l)
    holder, sup_L = mobius_seminorms(mu.matrices())[:2]
    sums = [(holder, lam * 1.0 / 2.0), (sup_L, lam / 2.0)]
    for m in (12, 20):
        steps = mu.sample_indices(np.random.default_rng(m), (512, 2 * m))
        arc = tuple(float(chart.from_chart(s * 0.02 * chart.alpha ** (2 * m))) for s in (-1, 1))
        assert_reductions_are_the_history_definitions(PrefixScan(mu, steps, chart.fixed_point, arc, nu),
                                                      steps, lam, 0.05 + 0.1, sums)


# the benchmark's search size: one m at 6144 walks of 40 steps
_SAMPLES, _M = 6144, 20
_STEPS_BYTES = _SAMPLES * 2 * _M * 8     # the drawn (samples, n) intp steps
# above the steps, the scan's buffers (states, gathered matrices, U/V/R,
# the mass scratch, the running reductions) and the search's per-walk
# arrays peaked at 40 floats per walk (numpy 2.4, Python 3.11); the budget
# is 50, a 25 % margin, and one (samples, n + 1) history adds 41
_PEAK_MARGIN = _SAMPLES * 50 * 8


def test_one_search_m_keeps_no_history(dense_setup):
    mu, l, nu, lam = dense_setup
    tracemalloc.start()
    try:
        search_near_identity_pairs(mu, l, eta=0.02, m_range=[_M], nu=nu, lam=lam, h_nu=0.05,
                                   samples=_SAMPLES, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _STEPS_BYTES < peak <= _STEPS_BYTES + _PEAK_MARGIN, peak


# -- endgame ---------------------------------------------------------------------

def bisection_preimage(word, chart, y_target, lo, hi):
    """The bisection `chart_preimages` replaced, kept as its oracle."""
    def f(y):
        return float(_chart_eval(word, chart, np.array([y]))[0]) - y_target
    a, b = lo, hi
    fa = f(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fa * fm <= 0:
            b = mid
        else:
            a, fa = mid, fm
        if b - a < 1e-14:
            break
    return 0.5 * (a + b)


def test_chart_preimages_match_the_bisection(dense_reports):
    checked = 0
    for r in dense_reports[0]:
        ends = np.array([-r.eta, r.eta])
        gI, hI = _chart_eval(r.g_word, r.chart, ends), _chart_eval(r.h_word, r.chart, ends)
        J = (max(gI[0], hI[0]), min(gI[1], hI[1]))
        for word, image in ((r.g_word, gI), (r.h_word, hI)):
            targets = np.concatenate([J, np.linspace(image[0], image[1], 7)[1:-1]])
            pre = chart_preimages(word, r.chart, image, targets, r.eta)
            ref = [bisection_preimage(word, r.chart, t, -r.eta, r.eta) for t in targets]
            assert np.max(np.abs(pre - ref)) <= 1e-13
            assert np.all(np.abs(pre) <= r.eta)
            checked += 1
    assert checked == 2 * len(dense_reports[0]) >= 16


def test_chart_preimage_outside_the_image_is_a_violation(dense_reports):
    r = dense_reports[0][0]
    gI = _chart_eval(r.g_word, r.chart, np.array([-r.eta, r.eta]))
    width = gI[1] - gI[0]
    for target in (gI[1] + 1e-3 * width, gI[0] - 1e-3 * width):
        with pytest.raises(EndgameViolation, match="escapes"):
            chart_preimages(r.g_word, r.chart, gI, [0.5 * (gI[0] + gI[1]), target], r.eta)


def test_endgame_on_dense_pair(dense_reports):
    reports = [r for r in dense_reports[0] if r.m == 10]
    assert reports
    rep = endgame_estimates(reports[0])
    assert rep.sandwich_ok
    assert rep.overlap_fraction_g >= reports[0].c_m
    assert rep.sup_log_phi_prime <= rep.log_phi_bound
    assert rep.ls_formula_error <= 1e-9
    assert not rep.ratio_check_skipped


def test_endgame_identical_pair_trivial(dense_reports):
    r = next(r for r in dense_reports[0] if r.m == 8)
    twin = NearIdentityReport(
        m=r.m, walk_length=r.walk_length, pair_keys=(r.pair_keys[0], r.pair_keys[0]),
        kappa_m=r.kappa_m, c_m=r.c_m, ck_distances=(0, 0, 0),
        bucket_count=r.bucket_count, bucket_occupancy=r.bucket_occupancy,
        derivative_gap=0.0, kappa_g_measured=r.kappa_g_measured,
        kappa_h_measured=r.kappa_g_measured,
        g_word=r.g_word, h_word=r.g_word, chart=r.chart, eta=r.eta)
    rep = endgame_estimates(twin)
    assert rep.sup_log_phi_prime < 1e-9
    assert rep.overlap_fraction_g > 0.99


def test_endgame_condition2_violation_skips_ratio_check(dense_setup, dense_reports):
    l = dense_setup[1]
    r = next(r for r in dense_reports[0] if r.m == 8)
    # replace h by h o l^3: the fixed-point derivatives now differ by
    # 3 |log alpha| >> 1/m, a tenfold condition-2 violation
    h_bad = Word((l,) * 3 + r.h_word.factors)
    bad = NearIdentityReport(
        m=r.m, walk_length=r.walk_length, pair_keys=r.pair_keys,
        kappa_m=r.kappa_m, c_m=r.c_m, ck_distances=r.ck_distances,
        bucket_count=r.bucket_count, bucket_occupancy=r.bucket_occupancy,
        derivative_gap=3 * abs(np.log(0.85)), kappa_g_measured=r.kappa_g_measured,
        kappa_h_measured=r.kappa_h_measured,
        g_word=r.g_word, h_word=h_bad, chart=r.chart, eta=r.eta)
    rep = endgame_estimates(bad, condition2_violated=True)
    assert rep.ratio_check_skipped
    assert rep.sandwich_ok


@pytest.mark.parametrize("worse", [None, {"ls_formula_error": 1e-6},
                                   {"sup_log_phi_prime": 1e3}, {"overlap_fraction_h": 0.0}])
def test_endgame_invariant_records_its_worst_margins(tmp_path, monkeypatch, worse):
    estimate = experiments.endgame_estimates
    if worse is not None:
        # a margin past its bound must fail the invariant, not only raise
        monkeypatch.setattr(experiments, "endgame_estimates",
                            lambda r: dataclasses.replace(estimate(r), **worse))
    cfg = {**builtin_config("dense"), "samples": 2048, "search_seeds": 1, "m_min": 5, "m_max": 6}
    code = run_experiment(cfg, out_dir=tmp_path / "out")
    inv = json.loads((tmp_path / "out" / "report.json").read_text())["invariants"][0]
    assert inv["name"] == "endgame_inequalities"
    detail = inv["detail"]
    assert detail["checked"] == 2
    assert set(detail) == {"checked", "min_overlap_over_c_m", "max_log_phi_over_bound",
                           "max_ls_formula_error"}
    assert inv["ok"] == (worse is None) and code == (0 if worse is None else 2)
    if worse is None:
        assert detail["min_overlap_over_c_m"] > 1 and detail["max_log_phi_over_bound"] < 1
        assert detail["max_ls_formula_error"] < 1e-9


def test_endgame_invariant_without_pairs_records_no_margins(tmp_path):
    cfg = {**builtin_config("dense"), "samples": 16, "search_seeds": 1, "m_min": 5, "m_max": 5,
           "expectation": "discrete"}
    run_experiment(cfg, out_dir=tmp_path / "out")
    inv = json.loads((tmp_path / "out" / "report.json").read_text())["invariants"][0]
    assert inv == {"name": "endgame_inequalities", "ok": True, "detail": {"checked": 0}}
