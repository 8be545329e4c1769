"""Named experiment scenarios binding the estimators together.

Each scenario takes the raw config, which the builders read, and its
values from `configs.parse_config`, which hold every other key typed and
with its default, plus `measures`: the transfer-iteration stationary
measures of the config's family already estimated in this run, by grid
size, so the parts of full-theorem-suite iterate each one once.  It
produces a JSON-able result dict plus CSV side files, and appends
invariant records that the CLI's `verify` can re-check.  All randomness
flows through (seed, stream) addresses, so a fixed (config, seed) gives
byte-identical reports.  Work units (Lyapunov seeds, distortion walks,
search seeds) run one after another in the caller's thread.
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
from .circle import Arc, wrap
from .configs import SUITE_PARTS, ConfigError, build_l_generator, build_step_distribution
from .distortion import (LOG_C1_FLOOR, interval_mass_decay, verify_complex_distortion,
                         verify_real_distortion, walk_constants)
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
    require_stationary,
)
from .nearid import ENDGAME_TOL, brute_force_min_c1, endgame_estimates, search_near_identity_pairs
from .reports import invariant, write_convolution_csv, write_csv, write_walk_csv
from .schwarzian import c3_convergence_check, mobius_normalize, solve_and_reconstruct
from .walk import sample_walk


def pmap(fn, items, workers=1):
    """[fn(x) for x in items], workers ignored: kept only as the name that
    perfbench/tracing.py wraps for its `parallel.*` spans."""
    return [fn(x) for x in items]


def _nu_csv(out_dir, nu: GridMeasure, name="nu_cdf.csv"):
    write_csv(out_dir, name, ["x", "cdf"], zip(nu.grid, nu.cdf))


def default_epsilon(h: float, h_nu: float) -> float:
    """eps below the entropy gap when one exists, else the 0.1 fallback."""
    gap = h - h_nu
    return gap / 2.0 if gap > 0.02 else 0.1


def _transfer_measure(measures: dict, mu, grid_size: int, tol: float = 1e-3) -> GridMeasure:
    """The transfer-iteration nu of the config's family mu on grid_size
    cells, estimated on the run's first request and checked against each
    request's tol."""
    if grid_size not in measures:
        measures[grid_size] = estimate_stationary_measure(mu, "transfer_iteration", grid_size, tol=tol)
    nu = measures[grid_size]
    require_stationary(nu, tol)
    return nu


def _require_mobius(p, mu, scenario: str):
    """ConfigError naming the keys that make the family non-Mobius."""
    if mu.matrices() is None:
        keys = [f"generators.{n}.conjugator" for n, g in p["generators"].items() if g.get("conjugator")]
        if p["lift"]:
            keys.append("lift")
        raise ConfigError(f"the {scenario} scenario needs a pure Mobius family, but {', '.join(keys)} is set")


def scenario_stationary(cfg, p, seed, out_dir, measures):
    mu = build_step_distribution(cfg)
    N, tol = p["grid_size"], p["tol"]
    results = {}
    invs = []
    nu_t = nu_mc = None
    if p["method"] in ("transfer_iteration", "transfer", "both"):
        nu_t = _transfer_measure(measures, mu, N, tol)
        results["transfer"] = nu_t.info.__dict__.copy()
        invs.append(invariant("stationarity_residual_transfer", nu_t.info.residual <= tol,
                              residual=nu_t.info.residual, tol=tol))
        _nu_csv(out_dir, nu_t)
    if p["method"] in ("monte_carlo", "both"):
        nu_mc = estimate_stationary_measure(
            mu, "monte_carlo", N, mc_samples=p["mc_samples"], mc_steps=p["mc_steps"], seed=seed)
        results["monte_carlo"] = nu_mc.info.__dict__.copy()
        _nu_csv(out_dir, nu_mc, "nu_cdf_mc.csv")
    if nu_t is not None and nu_mc is not None:
        ks = float(np.max(np.abs(nu_t.cdf - nu_mc.cdf)))
        bound = 2.0 * (1.0 / N + 1.36 / np.sqrt(results["monte_carlo"]["samples"]))
        results["kolmogorov_between_methods"] = ks
        invs.append(invariant("stationary_methods_agree", ks <= bound, ks=ks, bound=bound))
    return results, invs


def _shared_measure(p, mu, seed, measures):
    """nu by Monte Carlo when method is monte_carlo, else by transfer iteration."""
    if p["method"] == "monte_carlo":
        return estimate_stationary_measure(
            mu, "monte_carlo", p["grid_size"], mc_samples=p["mc_samples"],
            mc_steps=p["mc_steps"], seed=seed)
    return _transfer_measure(measures, mu, p["grid_size"])


def scenario_lyapunov(cfg, p, seed, out_dir, measures):
    mu = build_step_distribution(cfg)
    nu = _shared_measure(p, mu, seed, measures)

    def one(s):
        return lyapunov_exponent(mu, nu, n_steps=p["n_steps"], trajectories=p["trajectories"],
                                 integral_samples=p["integral_samples"], seed=seed + s)

    ests = pmap(one, range(p["n_seeds"]))
    vals = np.array([e.value for e in ests])
    results = {
        "estimates": [e.as_dict() for e in ests],
        "value": float(vals[0]),
        "spread": float(vals.max() - vals.min()),
    }
    invs = [invariant("lyapunov_estimators_agree",
                      all(e.agreement_sigma <= 3.0 for e in ests),
                      sigmas=[e.agreement_sigma for e in ests])]
    if p["n_seeds"] > 1:
        invs.append(invariant("lyapunov_reproducible", results["spread"] <= 0.02,
                              spread=results["spread"]))
    write_csv(out_dir, "lyapunov.csv", ["seed", "pathwise", "stderr", "integral", "integral_stderr"],
              [(seed + i, e.value, e.stderr, e.integral, e.integral_stderr) for i, e in enumerate(ests)])
    return results, invs


def scenario_entropy_gap(cfg, p, seed, out_dir, measures):
    mu = build_step_distribution(cfg)
    n_max = p["n_max"]
    quantized = p["quantized"]
    nu = _transfer_measure(measures, mu, p["grid_size"])
    be = boundary_entropy(mu, nu, samples=p["samples"], delta_cells=p["delta_cells"], seed=seed)
    ae = asymptotic_entropy(mu, n_max, seed=seed, quantized=quantized)
    rep = entropy_gap_report(boundary=be, asymptotic=ae)
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


def scenario_boundary(cfg, p, seed, out_dir, measures):
    mu = build_step_distribution(cfg)
    nu = _shared_measure(p, mu, seed, measures)
    sc = semiconjugation_map(nu, mu)
    prox = proximality_test(mu, p["epsilon"], p["word_length_cap"])
    cls = minimal_set_classify(nu, mass_tolerance=p["gap_mass_tolerance"])
    quo = finite_quotient_detect(nu, mu, p["q_max"])
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
    if p["lift"]:
        degree = p["lift"]["degree"]
        invs.append(invariant("quotient_degree_detected", quo.degree == degree,
                              detected=quo.degree, expected=degree))
        from .configs import build_projected_base

        # compare through the same straightened-window estimator on both
        # sides, so the finite-window bias cancels in the difference
        base_mu = build_projected_base(cfg)
        base_nu = estimate_stationary_measure(base_mu, grid_size=nu.N, seed=seed)
        base_quo = finite_quotient_detect(base_nu, base_mu, q_max=1)
        samples = p["samples"]
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
    probe = dirac_convergence_probe(mu, nu, horizon=p["probe_horizon"],
                                    trials=p["probe_trials"], seed=seed)
    results["dirac_probe"] = probe.as_dict()
    write_csv(out_dir, "dirac_probe.csv", ["n", "median_width"],
              zip(probe.ns, probe.median_width))
    return results, invs


def scenario_distortion(cfg, p, seed, out_dir, measures):
    mu = build_step_distribution(cfg)
    _require_mobius(p, mu, "distortion")
    nu = _transfer_measure(measures, mu, p["grid_size"])
    lam_est = lyapunov_exponent(mu, nu, n_steps=p["lyapunov_steps"],
                                trajectories=48, integral_samples=50_000, seed=seed)
    be = boundary_entropy(mu, nu, samples=p["samples"], seed=seed)
    lam, h_nu = lam_est.value, be.value
    kappa, tau, x = p["kappa"], p["tau"], p["x"]
    n_walks = p["n_walks"]
    N_real = p["horizon_real"]
    N_cx = p["horizon_complex"]
    J = Arc.from_endpoints(float(nu.quantile(0.30)), float(nu.quantile(0.40)))
    eps = default_epsilon(h_nu + 0.2 if p["h_hint"] is None else p["h_hint"], h_nu)

    def one(k):
        walk = sample_walk(mu, N_real, seed, k)
        consts = walk_constants(walk, nu, lam, h_nu, eps, J, x, tau, N_real,
                                kappa_reference=kappa)
        real = verify_real_distortion(walk, consts, kappa, x, N_real)
        cx = verify_complex_distortion(walk, consts, kappa, x, N_cx)
        decay = interval_mass_decay(walk, nu, J, h_nu, eps, min(N_real, 100))
        return consts, real, cx, decay

    rows = pmap(one, range(n_walks))
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
                  positive=positive, walks=n_walks, log_c1_floor=LOG_C1_FLOOR,
                  min_log_c1=float(np.min([r[3].log_c1 for r in rows]))),
    ]
    write_csv(out_dir, "constants.csv",
              ["walk", "C1", "C2", "C3", "C4_log", "C4_schwarzian", "C5", "r_real", "r_complex"],
              [(k, r[0].C1, r[0].C2, r[0].C3, r[0].C4_log, r[0].C4_schwarzian,
                r[0].C5, r[0].r_real, r[0].r_complex) for k, r in enumerate(rows)])
    return results, invs


def scenario_near_identity(cfg, p, seed, out_dir, measures):
    mode = p["expectation"]
    mu = build_step_distribution(cfg)
    _require_mobius(p, mu, "near-identity")
    l_gen = build_l_generator(cfg)
    nu = _transfer_measure(measures, mu, p["grid_size"])
    lam_est = lyapunov_exponent(mu, nu, n_steps=3000, trajectories=32,
                                integral_samples=20_000, seed=seed)
    lam = lam_est.value
    if lam >= 0:
        raise ValueError("near-identity search requires a negative Lyapunov exponent")
    m_range = range(p["m_min"], p["m_max"] + 1)

    def one(s):
        return search_near_identity_pairs(
            mu, l_gen, eta=p["eta"], m_range=m_range, nu=nu, lam=lam, h_nu=p["h_nu_hint"],
            samples=p["samples"], length_factor=p["length_factor"], seed=seed + s)

    searches = pmap(one, range(p["search_seeds"]))
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

    # the endgame inequalities on the first seed's pairs, as worst margins:
    # overlap fraction over c_m (>= 1), sup |log phi'| over its bound (<= 1)
    # and the L/S composition formula error (<= ENDGAME_TOL)
    endgames = [(r, endgame_estimates(r)) for reports, _ in searches[:1] for r in reports]
    endgame = {"checked": len(endgames)}
    if endgames:
        endgame.update(
            min_overlap_over_c_m=min(min(e.overlap_fraction_g, e.overlap_fraction_h) / r.c_m
                                     for r, e in endgames),
            max_log_phi_over_bound=max(e.sup_log_phi_prime / e.log_phi_bound for _, e in endgames),
            max_ls_formula_error=max(e.ls_formula_error for _, e in endgames))
    endgame_ok = not endgames or (endgame["min_overlap_over_c_m"] >= 1 - ENDGAME_TOL
                                  and endgame["max_log_phi_over_bound"] <= 1 + ENDGAME_TOL
                                  and endgame["max_ls_formula_error"] <= ENDGAME_TOL)
    results = {
        "lyapunov": lam_est.as_dict(),
        "pairs_per_m": {int(m): len(per_m[m]) for m in m_range},
        "misses_per_m": {int(m): miss_count[m] for m in m_range},
        "median_c1": {int(m): medians.get(m, float("nan")) for m in m_range},
        "reports": records,
        "endgame_checked": len(endgames),
    }
    invs = [invariant("endgame_inequalities", endgame_ok, **endgame)]
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
        floor = p["discreteness_floor"]
        emitted = [r.ck_distances[0] for m in m_range for r in per_m[m]]
        ok = all(v > floor for v in emitted)
        invs.append(invariant("no_pair_below_discreteness_floor", ok,
                              emitted=len(emitted), floor=floor))
        bf_len = p["brute_force_length"]
        if bf_len > 0:
            arcs = [Arc(a, b) for a, b in p["limit_arcs"]]
            min_c1, word = brute_force_min_c1(mu, arcs, bf_len)
            results["brute_force_min_c1"] = min_c1
            invs.append(invariant("brute_force_discreteness", min_c1 > floor,
                                  min_c1=min_c1, floor=floor, word_length=len(word)))
    return results, invs


def scenario_schwarzian(cfg, p, seed, out_dir, measures):
    omega = p["omega"]
    step = p["step"]
    sol = solve_and_reconstruct(
        lambda y: np.full_like(np.asarray(y, dtype=float), 2 * omega * omega),
        (-1.0, 1.0), step)
    err_u = float(np.max(np.abs(sol.u - np.sin(omega * sol.ys) / omega)))
    err_k = float(np.max(np.abs(sol.k - np.tan(omega * sol.ys) / omega)))
    from .maps import TrigConjugacy

    phi = TrigConjugacy([[0.004, 0.01]])
    arc = Arc(0.15, 0.25)
    norm = mobius_normalize(phi, arc)
    a = -float(wrap(norm.x_m - arc.left))
    sol2 = solve_and_reconstruct(lambda y: np.asarray(norm.k.schwarzian(y)),
                                 (a, arc.length + a), step / 2)
    roundtrip = float(np.max(np.abs(sol2.k - norm.k.apply(sol2.ys))))
    fam = [MobiusMap([[np.exp(0.1 / m), 0.07 / m], [0.0, np.exp(-0.1 / m)]])
           for m in range(1, p["family_size"] + 1)]
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


def scenario_full(cfg, p, seed, out_dir, measures):
    """The six parts in turn, each with its own values p[part]."""
    results = {}
    invs = []
    for part in SUITE_PARTS:
        results[part], sub_invs = SCENARIOS[part](cfg, p[part], seed, out_dir, measures)
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
