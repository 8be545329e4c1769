"""Named experiment scenarios binding the estimators together.

Each scenario consumes a parsed config, produces a JSON-able result
dict plus CSV side files, and appends invariant records that the CLI's
`verify` can re-check.  All randomness flows through (seed, stream)
addresses, so reports are byte-identical for a fixed (config, seed)
regardless of worker count.
"""

from __future__ import annotations

import numpy as np

from .boundary import (
    finite_quotient_detect,
    minimal_set_classify,
    proximality_test,
    quotient_boundary_entropy,
    semiconjugation_map,
)
from .circle import Arc
from .configs import ConfigError, build_l_generator, build_step_distribution
from .distortion import interval_mass_decay, verify_complex_distortion, verify_real_distortion, walk_constants
from .maps import MobiusMap
from .convolve import convolve_exact
from .measure import (
    GridMeasure,
    asymptotic_entropy,
    boundary_entropy,
    dirac_convergence_probe,
    entropy_gap_report,
    estimate_stationary_measure,
    lyapunov_exponent,
)
from .nearid import brute_force_min_c1, endgame_estimates, search_near_identity_pairs
from .parallel import pmap
from .reports import invariant, write_convolution_csv, write_csv, write_walk_csv
from .schwarzian import c3_convergence_check, mobius_normalize, solve_and_reconstruct
from .walk import sample_walk


def _nu_csv(out_dir, nu: GridMeasure, name="nu_cdf.csv"):
    write_csv(out_dir, name, ["x", "cdf"], zip(nu.grid, nu.cdf))


def default_epsilon(h: float, h_nu: float) -> float:
    """eps below the entropy gap when one exists, else the 0.1 fallback."""
    gap = h - h_nu
    return gap / 2.0 if gap > 0.02 else 0.1


def _require_mobius(cfg, mu, scenario: str):
    """ConfigError naming the keys that make the family non-Mobius."""
    if mu.matrices() is None:
        keys = [f"generators.{n}.conjugator" for n, g in cfg["generators"].items() if g.get("conjugator")]
        if cfg.get("lift"):
            keys.append("lift")
        raise ConfigError(f"the {scenario} scenario needs a pure Mobius family, but {', '.join(keys)} is set")


def _choice(cfg, key: str, allowed: tuple):
    """cfg[key], which must be one of allowed; allowed[0] when key is absent."""
    value = cfg.get(key, allowed[0])
    if value not in allowed:
        raise ConfigError(f"'{key}' must be one of {', '.join(allowed)}, got {value!r}")
    return value


_METHODS = ("transfer_iteration", "transfer", "monte_carlo", "both")


def scenario_stationary(cfg, seed, workers, out_dir):
    method = _choice(cfg, "method", _METHODS)
    mu = build_step_distribution(cfg)
    N = int(cfg.get("grid_size", 8192))
    tol = float(cfg.get("tol", 1e-3))
    results = {}
    invs = []
    nu_t = nu_mc = None
    if method in ("transfer_iteration", "transfer", "both"):
        nu_t = estimate_stationary_measure(mu, "transfer_iteration", N, tol=tol, seed=seed)
        results["transfer"] = nu_t.info.__dict__.copy()
        invs.append(invariant("stationarity_residual_transfer", nu_t.info.residual <= tol,
                              residual=nu_t.info.residual, tol=tol))
        _nu_csv(out_dir, nu_t)
    if method in ("monte_carlo", "both"):
        nu_mc = estimate_stationary_measure(
            mu, "monte_carlo", N,
            mc_samples=int(cfg.get("mc_samples", 200_000)),
            mc_steps=int(cfg.get("mc_steps", 300)), seed=seed)
        results["monte_carlo"] = nu_mc.info.__dict__.copy()
        _nu_csv(out_dir, nu_mc, "nu_cdf_mc.csv")
    if nu_t is not None and nu_mc is not None:
        ks = float(np.max(np.abs(nu_t.cdf - nu_mc.cdf)))
        bound = 2.0 * (1.0 / N + 1.36 / np.sqrt(results["monte_carlo"]["samples"]))
        results["kolmogorov_between_methods"] = ks
        invs.append(invariant("stationary_methods_agree", ks <= bound, ks=ks, bound=bound))
    return results, invs


def _shared_measure(cfg, mu, seed):
    """nu by Monte Carlo when method is monte_carlo, else by transfer iteration."""
    N = int(cfg.get("grid_size", 8192))
    if _choice(cfg, "method", _METHODS) == "monte_carlo":
        return estimate_stationary_measure(
            mu, "monte_carlo", N, mc_samples=int(cfg.get("mc_samples", 200_000)),
            mc_steps=int(cfg.get("mc_steps", 300)), seed=seed)
    return estimate_stationary_measure(mu, "transfer_iteration", N, seed=seed)


def scenario_lyapunov(cfg, seed, workers, out_dir):
    mu = build_step_distribution(cfg)
    nu = _shared_measure(cfg, mu, seed)
    n_steps = int(cfg.get("n_steps", 10_000))
    traj = int(cfg.get("trajectories", 100))
    n_seeds = int(cfg.get("n_seeds", 1))
    ints = int(cfg.get("integral_samples", 100_000))

    def one(s):
        est = lyapunov_exponent(mu, nu, n_steps=n_steps, trajectories=traj,
                                integral_samples=ints, seed=seed + s)
        return est

    ests = pmap(one, range(n_seeds), workers)
    vals = np.array([e.value for e in ests])
    results = {
        "estimates": [e.as_dict() for e in ests],
        "value": float(vals[0]),
        "spread": float(vals.max() - vals.min()),
    }
    invs = [invariant("lyapunov_estimators_agree",
                      all(e.agreement_sigma <= 3.0 for e in ests),
                      sigmas=[e.agreement_sigma for e in ests])]
    if n_seeds > 1:
        invs.append(invariant("lyapunov_reproducible", results["spread"] <= 0.02,
                              spread=results["spread"]))
    write_csv(out_dir, "lyapunov.csv", ["seed", "pathwise", "stderr", "integral", "integral_stderr"],
              [(seed + i, e.value, e.stderr, e.integral, e.integral_stderr) for i, e in enumerate(ests)])
    return results, invs


def scenario_entropy_gap(cfg, seed, workers, out_dir):
    mu = build_step_distribution(cfg)
    N = int(cfg.get("grid_size", 8192))
    n_max = int(cfg.get("n_max", 12))
    quantized = bool(cfg.get("quantized", False))
    nu = estimate_stationary_measure(mu, grid_size=N, seed=seed)
    be = boundary_entropy(mu, nu, samples=int(cfg.get("samples", 100_000)),
                          delta_cells=int(cfg.get("delta_cells", 8)), seed=seed)
    ae = asymptotic_entropy(mu, n_max, seed=seed, quantized=quantized)
    rep = entropy_gap_report(mu, boundary=be, asymptotic=ae)
    write_csv(out_dir, "entropy_table.csv", ["n", "H", "support"],
              zip(range(len(ae.entropies)), ae.entropies, ae.support_sizes))
    _nu_csv(out_dir, nu)
    series = convolve_exact(mu, min(n_max, 6), quantized=quantized, words=True)
    write_convolution_csv(out_dir, "convolution.csv", series.table, mu.names)
    invs = [
        invariant("entropy_inequality", rep.inequality_ok,
                  h=rep.h_asymptotic, h_nu=rep.h_boundary),
        invariant("sbm_consistent", ae.sbm_consistent,
                  sbm_mean=ae.sbm_mean, target=ae.sbm_target, stderr=ae.sbm_stderr),
    ]
    results = {"entropy_gap": rep.as_dict(), "asymptotic": ae.as_dict()}
    return results, invs


def scenario_boundary(cfg, seed, workers, out_dir):
    mu = build_step_distribution(cfg)
    nu = _shared_measure(cfg, mu, seed)
    sc = semiconjugation_map(nu, mu)
    prox = proximality_test(mu, float(cfg.get("epsilon", 1e-4)),
                            int(cfg.get("word_length_cap", 40)))
    cls = minimal_set_classify(nu, mass_tolerance=float(cfg.get("gap_mass_tolerance", 1e-3)))
    quo = finite_quotient_detect(nu, mu, int(cfg.get("q_max", 4)))
    results = {
        "semiconjugation": sc.as_dict(),
        "proximality": prox.as_dict(),
        "minimal_set": cls.as_dict(),
        "quotient": quo.as_dict(),
    }
    # the transport defect cannot resolve below the heaviest CDF cell:
    # concentrated measures keep a mass-scale term beyond the 5/N grid term
    defect_bound = 5.0 / nu.N + 2.0 * nu.max_cell_mass
    invs = [invariant("equivariance_defect", bool(np.all(sc.defects <= defect_bound)),
                      defects=list(sc.defects), bound=defect_bound)]
    if "lift" in cfg:
        degree = int(cfg["lift"]["degree"])
        invs.append(invariant("quotient_degree_detected", quo.degree == degree,
                              detected=quo.degree, expected=degree))
        from .configs import build_projected_base

        # compare through the same straightened-window estimator on both
        # sides, so the finite-window bias cancels in the difference
        base_mu = build_projected_base(cfg)
        base_nu = estimate_stationary_measure(base_mu, grid_size=nu.N, seed=seed)
        base_quo = finite_quotient_detect(base_nu, base_mu, q_max=1)
        samples = int(cfg.get("samples", 50_000))
        h_quot, se_quot = quotient_boundary_entropy(quo, nu, mu, samples=samples, seed=seed)
        h_base, se_base = quotient_boundary_entropy(base_quo, base_nu, base_mu,
                                                    samples=samples, seed=seed + 1)
        tol = 2.0 * float(np.hypot(se_quot, se_base))
        results["quotient_entropy"] = {"base": h_base, "base_stderr": se_base,
                                       "quotient": h_quot, "quotient_stderr": se_quot}
        invs.append(invariant("quotient_entropy_invariant",
                              abs(h_quot - h_base) <= tol,
                              base=h_base, quotient=h_quot, tol=tol))
    write_csv(out_dir, "gap_report.csv", ["left", "length", "mass"],
              [(g.left, g.length, m) for g, m in zip(cls.gaps, cls.gap_masses)])
    probe = dirac_convergence_probe(mu, nu, horizon=int(cfg.get("probe_horizon", 50)),
                                    trials=int(cfg.get("probe_trials", 10)), seed=seed)
    results["dirac_probe"] = probe.as_dict()
    write_csv(out_dir, "dirac_probe.csv", ["n", "median_width"],
              zip(probe.ns, probe.median_width))
    return results, invs


def scenario_distortion(cfg, seed, workers, out_dir):
    mu = build_step_distribution(cfg)
    _require_mobius(cfg, mu, "distortion")
    h_hint = cfg.get("h_hint")
    if "h_hint" in cfg and type(h_hint) not in (int, float):
        raise ConfigError(f"'h_hint' must be a number, got {h_hint!r}")
    N = int(cfg.get("grid_size", 8192))
    nu = estimate_stationary_measure(mu, grid_size=N, seed=seed)
    lam_est = lyapunov_exponent(mu, nu, n_steps=int(cfg.get("lyapunov_steps", 5000)),
                                trajectories=48, integral_samples=50_000, seed=seed)
    be = boundary_entropy(mu, nu, samples=int(cfg.get("samples", 50_000)), seed=seed)
    lam, h_nu = lam_est.value, be.value
    kappa = float(cfg.get("kappa", 0.5))
    tau = float(cfg.get("tau", 1.0))
    x = float(cfg.get("x", 0.3))
    n_walks = int(cfg.get("n_walks", 100))
    N_real = int(cfg.get("horizon_real", 200))
    N_cx = int(cfg.get("horizon_complex", 100))
    J = Arc.from_endpoints(float(nu.quantile(0.30)), float(nu.quantile(0.40)))
    eps = default_epsilon(h_nu + 0.2 if h_hint is None else float(h_hint), h_nu)

    def one(k):
        walk = sample_walk(mu, N_real, seed, k)
        consts = walk_constants(walk, nu, lam, h_nu, eps, J, x, tau, N_real,
                                kappa_reference=kappa)
        real = verify_real_distortion(walk, consts, kappa, x, N_real)
        cx = verify_complex_distortion(walk, consts, kappa, x, N_cx)
        decay = interval_mass_decay(walk, nu, J, h_nu, eps, min(N_real, 100))
        return consts, real, cx, decay

    rows = pmap(one, range(n_walks), workers)
    write_walk_csv(out_dir, "walk_0.csv", sample_walk(mu, N_real, seed, 0))
    real_viol = sum(len(r[1].violations) for r in rows)
    cx_viol = sum(len(r[2].violations) for r in rows)
    positive = sum(r[3].positive for r in rows)
    results = {
        "lyapunov": lam_est.as_dict(),
        "boundary_entropy": be.as_dict(),
        "epsilon": eps,
        "walks": n_walks,
        "real_violations": real_viol,
        "complex_violations": cx_viol,
        "decay_positive_fraction": positive / n_walks,
        "max_kappa_real": max(r[1].max_kappa_measured for r in rows),
        "max_kappa_complex": max(r[2].max_kappa_measured for r in rows),
    }
    invs = [
        invariant("real_distortion_no_violations", real_viol == 0, violations=real_viol),
        invariant("complex_distortion_no_violations", cx_viol == 0, violations=cx_viol),
        invariant("mass_decay_positive", positive >= 0.95 * n_walks,
                  positive=positive, walks=n_walks),
    ]
    write_csv(out_dir, "constants.csv",
              ["walk", "C1", "C2", "C3", "C4_log", "C4_schwarzian", "C5", "r_real", "r_complex"],
              [(k, r[0].C1, r[0].C2, r[0].C3, r[0].C4_log, r[0].C4_schwarzian,
                r[0].C5, r[0].r_real, r[0].r_complex) for k, r in enumerate(rows)])
    return results, invs


def scenario_near_identity(cfg, seed, workers, out_dir):
    mode = _choice(cfg, "expectation", ("dense", "discrete"))
    mu = build_step_distribution(cfg)
    _require_mobius(cfg, mu, "near-identity")
    l_gen = build_l_generator(cfg)
    N = int(cfg.get("grid_size", 2048))
    nu = estimate_stationary_measure(mu, grid_size=N, seed=seed)
    lam_est = lyapunov_exponent(mu, nu, n_steps=3000, trajectories=32,
                                integral_samples=20_000, seed=seed)
    lam = lam_est.value
    if lam >= 0:
        raise ValueError("near-identity search requires a negative Lyapunov exponent")
    m_range = range(int(cfg.get("m_min", 5)), int(cfg.get("m_max", 20)) + 1)
    eta = float(cfg.get("eta", 0.02))
    n_seeds = int(cfg.get("search_seeds", 11))

    def one(s):
        return search_near_identity_pairs(
            mu, l_gen, eta=eta, m_range=m_range, nu=nu, lam=lam,
            h_nu=float(cfg.get("h_nu_hint", 0.05)),
            samples=int(cfg.get("samples", 16_384)),
            length_factor=float(cfg.get("length_factor", 2.0)),
            seed=seed + s)

    searches = pmap(one, range(n_seeds), workers)
    per_m = {m: [] for m in m_range}
    miss_count = {m: 0 for m in m_range}
    records = []
    for s, (reports, misses) in enumerate(searches):
        for r in reports:
            per_m[r.m].append(r)
            rec = r.as_dict()
            rec["seed"] = seed + s
            records.append(rec)
        for x in misses:
            miss_count[x.m] += 1
    summary_rows = []
    medians = {}
    for m in m_range:
        reps = per_m[m]
        if reps:
            c1 = float(np.median([r.ck_distances[0] for r in reps]))
            c2 = float(np.median([r.ck_distances[1] for r in reps]))
            c3 = float(np.median([r.ck_distances[2] for r in reps]))
            medians[m] = c1
        else:
            c1 = c2 = c3 = float("nan")
        summary_rows.append((m, len(reps), c1, c2, c3))
    write_csv(out_dir, "near_identity_summary.csv",
              ["m", "pairs_found", "median_C1", "median_C2", "median_C3"], summary_rows)

    endgame_ok = True
    endgame_count = 0
    for reports, _ in searches[:1]:
        for r in reports:
            endgame_estimates(r)
            endgame_count += 1
    results = {
        "lyapunov": lam_est.as_dict(),
        "pairs_per_m": {int(m): len(per_m[m]) for m in m_range},
        "misses_per_m": {int(m): miss_count[m] for m in m_range},
        "median_c1": {int(m): medians.get(m, float("nan")) for m in m_range},
        "reports": records,
        "endgame_checked": endgame_count,
    }
    invs = [invariant("endgame_inequalities", endgame_ok, checked=endgame_count)]
    if mode == "dense":
        all_found = all(len(per_m[m]) > 0 for m in m_range)
        invs.append(invariant("pairs_found_all_m", all_found,
                              pairs={int(m): len(per_m[m]) for m in m_range}))
        if all_found:
            lo_m, hi_m = min(m_range), max(m_range)
            invs.append(invariant("c1_median_decreasing",
                                  medians[hi_m] <= medians[lo_m] / 2.0,
                                  first=medians[lo_m], last=medians[hi_m]))
    elif mode == "discrete":
        floor = float(cfg.get("discreteness_floor", 1e-3))
        emitted = [r.ck_distances[0] for m in m_range for r in per_m[m]]
        ok = all(v > floor for v in emitted)
        invs.append(invariant("no_pair_below_discreteness_floor", ok,
                              emitted=len(emitted), floor=floor))
        bf_len = int(cfg.get("brute_force_length", 0))
        if bf_len > 0:
            arcs = [Arc(a, b) for a, b in cfg.get(
                "limit_arcs", [[0.1024, 0.1476], [0.25, 0.1476], [0.6024, 0.1476], [0.75, 0.1476]])]
            min_c1, word = brute_force_min_c1(mu, arcs, bf_len)
            results["brute_force_min_c1"] = min_c1
            invs.append(invariant("brute_force_discreteness", min_c1 > floor,
                                  min_c1=min_c1, floor=floor, word_length=len(word)))
    return results, invs


def scenario_schwarzian(cfg, seed, workers, out_dir):
    omega = float(cfg.get("omega", 0.3))
    step = float(cfg.get("step", 1e-3))
    sol = solve_and_reconstruct(
        lambda y: np.full_like(np.asarray(y, dtype=float), 2 * omega * omega),
        (-1.0, 1.0), step)
    err_u = float(np.max(np.abs(sol.u - np.sin(omega * sol.ys) / omega)))
    err_k = float(np.max(np.abs(sol.k - np.tan(omega * sol.ys) / omega)))
    from .maps import TrigConjugacy

    phi = TrigConjugacy([[0.004, 0.01]])
    arc = Arc(0.15, 0.25)
    norm = mobius_normalize(phi, arc)
    a = -((norm.x_m - arc.left) % 1.0)
    sol2 = solve_and_reconstruct(lambda y: np.asarray(norm.k.schwarzian(y)),
                                 (a, arc.length + a), step / 2)
    roundtrip = float(np.max(np.abs(sol2.k - norm.k.apply(sol2.ys))))
    fam = [MobiusMap([[np.exp(0.1 / m), 0.07 / m], [0.0, np.exp(-0.1 / m)]])
           for m in range(1, int(cfg.get("family_size", 10)) + 1)]
    verdict = c3_convergence_check(fam, Arc(0.05, 0.15), grid_size=129, ode_step=step)
    write_csv(out_dir, "curves.csv", ["m", "sup_S", "c1_dist", "c3_dist", "sup_v_prime"],
              zip(verdict.ms, verdict.sup_S, verdict.c1_dist, verdict.c3_dist, verdict.sup_vp))
    results = {
        "closed_form_error_u": err_u,
        "closed_form_error_k": err_k,
        "wronskian_drift": sol.wronskian_drift,
        "roundtrip_error": roundtrip,
        "c3_verdict": verdict.as_dict(),
    }
    invs = [
        invariant("ode_closed_form", err_u <= 1e-8 and err_k <= 1e-8,
                  err_u=err_u, err_k=err_k),
        invariant("wronskian_conserved", sol.wronskian_drift <= 1e-8,
                  drift=sol.wronskian_drift),
        invariant("normalize_reconstruct_roundtrip", roundtrip <= 1e-7, error=roundtrip),
        invariant("c3_convergence", verdict.verdict == "PASS"),
    ]
    return results, invs


def scenario_full(cfg, seed, workers, out_dir):
    results = {}
    invs = []
    for name, fn in [("stationary", scenario_stationary),
                     ("lyapunov", scenario_lyapunov),
                     ("entropy-gap", scenario_entropy_gap),
                     ("boundary", scenario_boundary),
                     ("distortion", scenario_distortion),
                     ("schwarzian", scenario_schwarzian)]:
        sub, sub_invs = fn(cfg, seed, workers, out_dir)
        results[name] = sub
        invs.extend(sub_invs)
    return results, invs


SCENARIOS = {
    "stationary": scenario_stationary,
    "lyapunov": scenario_lyapunov,
    "entropy-gap": scenario_entropy_gap,
    "boundary": scenario_boundary,
    "distortion": scenario_distortion,
    "near-identity": scenario_near_identity,
    "schwarzian": scenario_schwarzian,
    "full-theorem-suite": scenario_full,
}
