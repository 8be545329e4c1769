"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion prints a single PASS/FAIL line (run with -s to stream
them).  Shared heavy artifacts (the free-pair stationary measure at
grid 8192, its Lyapunov exponent, the exact convolution to n = 14) are
module-scoped fixtures, so the suite stays within its runtime budgets.
"""

import numpy as np
import pytest

from circlelab.circle import Arc
from circlelab.configs import build_projected_base, build_step_distribution, builtin_config
from circlelab.boundary import finite_quotient_detect, quotient_boundary_entropy
from circlelab.distortion import verify_complex_distortion, verify_real_distortion, walk_constants
from circlelab.jets import log_and_schwarzian
from circlelab.maps import MobiusMap, Word, rotation
from circlelab.measure import (
    asymptotic_entropy,
    boundary_entropy,
    entropy_gap_report,
    estimate_stationary_measure,
    lyapunov_exponent,
    stationarity_residual,
)
from circlelab.nearid import (
    DistortionWindowError,
    brute_force_min_c1,
    kappa_m_solve,
    search_near_identity_pairs,
)
from circlelab.schwarzian import mobius_normalize, solve_and_reconstruct
from circlelab.walk import sample_walks
from circlelab.cli import run_experiment

H_FREE_2 = 0.5 * np.log(3.0)          # simple walk on the rank-2 free group


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {name} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def sanov_cfg():
    return builtin_config("sanov")


@pytest.fixture(scope="module")
def mu(sanov_cfg):
    return build_step_distribution(sanov_cfg)


@pytest.fixture(scope="module")
def nu(mu):
    return estimate_stationary_measure(mu, grid_size=8192, seed=7)


@pytest.fixture(scope="module")
def ae14(mu):
    return asymptotic_entropy(mu, 14, sbm_samples=2000, seed=7)


@pytest.fixture(scope="module")
def lam(mu, nu):
    return lyapunov_exponent(mu, nu, n_steps=10_000, trajectories=100,
                             integral_samples=100_000, seed=7)


def test_criterion_1_free_group_entropy(ae14):
    err = abs(ae14.value - H_FREE_2)
    report(1, "free-group entropy at n_max=14", err <= 0.02,
           f"h={ae14.value:.4f} target={H_FREE_2:.4f} err={err:.4f}")


def test_criterion_2_poisson_boundary_consistency(mu, nu, ae14):
    be = boundary_entropy(mu, nu, samples=100_000, delta_cells=8, seed=7)
    rep = entropy_gap_report(boundary=be, asymptotic=ae14)
    ok = rep.ratio is not None and 0.8 <= rep.ratio <= 1.2
    report(2, "entropy-gap ratio on the free pair", ok,
           f"h={rep.h_asymptotic:.4f} h_nu={rep.h_boundary:.4f} ratio={rep.ratio:.4f}")


def test_criterion_3_baxendale_negativity(mu, nu, lam):
    vals = [lam.value]
    sigmas = [lam.agreement_sigma]
    for s in range(1, 10):
        est = lyapunov_exponent(mu, nu, n_steps=10_000, trajectories=100,
                                integral_samples=100_000, seed=7 + s)
        vals.append(est.value)
        sigmas.append(est.agreement_sigma)
    vals = np.array(vals)
    spread = float(vals.max() - vals.min())
    ok = bool(np.all(vals <= -0.1) and max(sigmas) <= 3.0 and spread <= 0.02)
    report(3, "Lyapunov exponent negative and reproducible", ok,
           f"lambda={vals.mean():.4f} spread={spread:.4f} max_sigma={max(sigmas):.2f}")


def test_criterion_4_stationarity(mu, nu):
    rot_cfg = builtin_config("rotations")
    rot_mu = build_step_distribution(rot_cfg)
    rot_nu = estimate_stationary_measure(rot_mu, grid_size=8192, seed=3)
    res_s = stationarity_residual(mu, nu)
    res_r = stationarity_residual(rot_mu, rot_nu)
    nu_mc = estimate_stationary_measure(mu, "monte_carlo", 8192,
                                        mc_samples=400_000, mc_steps=300, seed=7)
    ks_s = float(np.max(np.abs(nu.cdf - nu_mc.cdf)))
    rot_mc = estimate_stationary_measure(rot_mu, "monte_carlo", 8192,
                                         mc_samples=400_000, mc_steps=65_536, seed=3)
    ks_r = float(np.max(np.abs(rot_nu.cdf - rot_mc.cdf)))
    ok = res_s <= 1e-3 and res_r <= 1e-3 and ks_s <= 5e-3 and ks_r <= 5e-3
    report(4, "stationarity residuals and method agreement", ok,
           f"residuals=({res_s:.1e}, {res_r:.1e}) KS=({ks_s:.4f}, {ks_r:.4f})")


def test_criterion_5_distortion_lemmas(mu, nu, lam):
    be = boundary_entropy(mu, nu, samples=50_000, seed=7)
    J = Arc.from_endpoints(float(nu.quantile(0.30)), float(nu.quantile(0.40)))
    walks = sample_walks(mu, 200, 7, 100)
    consts = walk_constants(walks, nu, lam.value, be.value, 0.1, J, 0.3, 1.0, 200,
                            kappa_reference=0.5)
    r = verify_real_distortion(walks, consts, 0.5, 0.3, 200)
    c = verify_complex_distortion(walks, consts, 0.5, 0.3, 100)
    real_viol, cx_viol = len(r.violations), len(c.violations)
    max_kappa = float(max(np.max(r.max_kappa_measured), np.max(c.max_kappa_measured)))
    ok = real_viol == 0 and cx_viol == 0
    report(5, "distortion lemmas over 100 seeds", ok,
           f"violations=({real_viol}, {cx_viol}) max_kappa={max_kappa:.4f} (bound 0.5)")


def test_criterion_6_cocycle_exactness():
    rng = np.random.default_rng(42)
    gens = [MobiusMap([[1, 2], [0, 1]]), MobiusMap([[1, 0], [2, 1]]),
            rotation(np.sqrt(2) - 1)]

    def rand_word(k):
        return Word([gens[i] if s > 0 else gens[i].inverse()
                     for i, s in zip(rng.integers(0, 3, k), rng.choice([-1, 1], k))])

    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 21))
        split = int(rng.integers(1, k))
        letters = rand_word(k)
        v = Word(letters.factors[:split])
        u = Word(letters.factors[split:])
        x = rng.random()
        jv = v.jet(x)
        ju = u.jet(float(np.asarray(jv.value)))
        jw = letters.jet(x)
        Lu, Su = log_and_schwarzian(ju)
        Lv, Sv = log_and_schwarzian(jv)
        Lw, Sw = log_and_schwarzian(jw)
        errL = abs(Lw - (Lu * jv.d1 + Lv)) / max(1.0, abs(Lw))
        errS = abs(Sw - (Su * jv.d1 ** 2 + Sv)) / max(1.0, abs(Sw))
        worst = max(worst, float(errL), float(errS))
    report(6, "L and S composition cocycles on 1000 words", worst <= 1e-9,
           f"worst relative error {worst:.2e}")


def test_criterion_7_schwarzian_ode():
    w = 0.3
    sol = solve_and_reconstruct(
        lambda y: np.full_like(np.asarray(y, dtype=float), 2 * w * w), (-1.0, 1.0), 1e-3)
    err_closed = max(
        float(np.max(np.abs(sol.u - np.sin(w * sol.ys) / w))),
        float(np.max(np.abs(sol.v - np.cos(w * sol.ys)))),
        float(np.max(np.abs(sol.k - np.tan(w * sol.ys) / w))),
    )
    from circlelab.maps import TrigConjugacy

    phi = TrigConjugacy([[0.004, 0.01]])
    arc = Arc(0.15, 0.25)
    norm = mobius_normalize(phi, arc)
    a = -((norm.x_m - arc.left) % 1.0)
    sol2 = solve_and_reconstruct(lambda y: np.asarray(norm.k.schwarzian(y)),
                                 (a, arc.length + a), 5e-4)
    roundtrip = float(np.max(np.abs(sol2.k - norm.k.apply(sol2.ys))))
    ok = err_closed <= 1e-8 and sol.wronskian_drift <= 1e-8 and roundtrip <= 1e-7
    report(7, "Schwarzian ODE closed form and round trip", ok,
           f"closed={err_closed:.2e} wronskian={sol.wronskian_drift:.2e} roundtrip={roundtrip:.2e}")


def test_criterion_8_kappa_solver():
    residuals = []
    roots = []
    for gap, tau in ((1e-6, 1.0), (0.01, 1.0), (0.1, 1.0), (0.3, 1.0)):
        k = kappa_m_solve(gap, tau)
        residuals.append(abs(k * np.exp(-k) - gap))
        roots.append(k < tau)       # tau = 1: the maximizer equals tau
    rejected = False
    try:
        kappa_m_solve(np.exp(-1.0), 1.0)
    except DistortionWindowError:
        rejected = True
    ok = max(residuals) <= 1e-12 and all(roots) and rejected
    report(8, "kappa_m solver precision and root choice", ok,
           f"max residual {max(residuals):.1e}, boundary rejected: {rejected}")


def test_criterion_9_near_identity_dichotomy(mu, nu):
    cfg = builtin_config("dense")
    dmu = build_step_distribution(cfg)
    dnu = estimate_stationary_measure(dmu, grid_size=2048, seed=11)
    dlam = lyapunov_exponent(dmu, dnu, n_steps=3000, trajectories=32,
                             integral_samples=20_000, seed=11)
    from circlelab.configs import build_generators

    l_gen = build_generators(cfg)["l"]
    m_range = range(5, 21)
    per_m = {m: [] for m in m_range}
    for s in range(11):
        reports, _ = search_near_identity_pairs(
            dmu, l_gen, eta=cfg["eta"], m_range=m_range, nu=dnu, lam=dlam.value,
            h_nu=0.05, samples=cfg["samples"], seed=11 + s)
        for r in reports:
            per_m[r.m].append(r.ck_distances[0])
    all_found = all(len(per_m[m]) > 0 for m in m_range)
    med5 = float(np.median(per_m[5])) if per_m[5] else np.nan
    med20 = float(np.median(per_m[20])) if per_m[20] else np.nan
    dense_ok = all_found and med20 <= med5 / 2.0

    # discrete side: brute force over all reduced words of length <= 8 on
    # the ping-pong covering arcs of the free pair
    t = np.arctan(np.array([1 / 3, 1.0, 3.0])) / np.pi
    arcs = [Arc.from_endpoints(t[0], t[1]), Arc.from_endpoints(t[1], t[2]),
            Arc.from_endpoints(1 - t[2], 1 - t[1]), Arc.from_endpoints(1 - t[1], 1 - t[0])]
    min_c1, word = brute_force_min_c1(mu, arcs, max_len=8)
    l_hyp = Word((mu.atoms[0], mu.atoms[2])).as_mobius()     # hyperbolic a b
    sreports, smisses = search_near_identity_pairs(
        mu, l_hyp, eta=0.05, m_range=m_range, nu=nu, lam=-0.64, h_nu=0.55,
        samples=3000, seed=11)
    emitted = [r.ck_distances[0] for r in sreports]
    discrete_ok = min_c1 > 1e-3 and all(v > 1e-3 for v in emitted)
    ok = dense_ok and discrete_ok
    report(9, "near-identity dichotomy", ok,
           f"dense: all_m={all_found} med5={med5:.4f} med20={med20:.4f}; "
           f"sanov: brute_min={min_c1:.4f} emitted={len(emitted)}")


def test_criterion_10_finite_quotient(mu, nu):
    cfg2 = builtin_config("lifted-2")
    mu2 = build_step_distribution(cfg2)
    nu2 = estimate_stationary_measure(mu2, grid_size=4096, seed=5)
    quo2 = finite_quotient_detect(nu2, mu2, q_max=4)
    quo_base = finite_quotient_detect(nu, mu, q_max=4)
    base_mu = build_projected_base(cfg2)
    base_nu = estimate_stationary_measure(base_mu, grid_size=4096, seed=5)
    rep1 = finite_quotient_detect(base_nu, base_mu, q_max=1)
    h_q, se_q = quotient_boundary_entropy(quo2, nu2, mu2, samples=50_000, seed=5)
    h_b, se_b = quotient_boundary_entropy(rep1, base_nu, base_mu, samples=50_000, seed=6)
    gap = abs(h_q - h_b)
    sig = float(np.hypot(se_q, se_b))
    ok = quo2.degree == 2 and quo_base.degree == 1 and gap <= 2.0 * sig
    report(10, "finite quotient detection and entropy invariance", ok,
           f"degrees=({quo2.degree}, {quo_base.degree}) gap={gap:.4f} ({gap / sig:.2f} sigma)")


def test_criterion_11_determinism(tmp_path):
    cfg = {
        "scenario": "distortion",
        "seed": 4,
        "grid_size": 2048,
        "samples": 10_000,
        "n_walks": 16,
        "horizon_real": 60,
        "horizon_complex": 30,
        "kappa": 0.5,
        "lyapunov_steps": 500,
        "generators": {"a": {"matrix": [[1, 2], [0, 1]]}, "b": {"matrix": [[1, 0], [2, 1]]}},
        "mu": {"atoms": [["a", 0.25], ["a^-1", 0.25], ["b", 0.25], ["b^-1", 0.25]],
               "symmetric": True},
    }
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    c1 = run_experiment(dict(cfg), workers=1, out_dir=out1)
    c8 = run_experiment(dict(cfg), workers=8, out_dir=out8)
    same = all((out1 / n).read_bytes() == (out8 / n).read_bytes()
               for n in ("report.json", "constants.csv"))
    ok = c1 == 0 and c8 == 0 and same
    report(11, "byte-identical reports at 1 and 8 workers", ok,
           f"exit=({c1},{c8}) identical={same}")
