"""Near-identity pigeonhole search and the endgame estimates.

Around a hyperbolic element l, exactly linearized by a chart y with
l = (y -> alpha y), the search samples walk endpoints w = l_n, keeps the
set G_m of walks whose distortion constants pass percentile thresholds,
buckets them by the log derivative at the fixed point into intervals of
width 1/m, and looks inside the fullest bucket for two elements whose
images of the tiny interval I_{2m} = alpha^{2m} I intersect.  A hit
yields the pair g_m = w_g o l^m, h_m = w_h o l^m satisfying

    1. kappa(g_m, I), kappa(h_m, I) <= kappa_m  (distortion condition),
    2. |log g_m'(0) / h_m'(0)| <= 1/m,
    3. g_m(I_m) and h_m(I_m) intersect,

and phi_m = h_m^{-1} o g_m is then close to the identity on the inner
half of I, quantitatively via c_m = e^{-2 kappa_m - 1/m} (1 - alpha^m).
Misses are legitimate outcomes: for discrete groups the images
eventually never intersect.

C1..C3 come from one batched `distortion.PrefixScan` of the whole sample
per m, reduced as it runs (a running minimum of the C1 terms, a running
maximum for C2, a running step sum for C3): a search keeps the sample's
steps, its buffers and one value per walk and constant, never a
(samples, n + 1) history.  The steps are drawn in uint8 chunks by
`StepDistribution.sample_indices`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circle import Arc, circle_dist, wrap
from .distortion import PrefixScan
from .jets import log_derivative, schwarzian
from .maps import (LinearChart, MobiusMap, Word, eval_jet3, linearizing_chart, mobius_seminorms,
                   mobius_value_logd)
from .measure import GridMeasure
from .rng import stream
from .walk import StepDistribution, canonical_key

_TAG_SEARCH = 0x4E454152
# the search's Holder exponent (at tau = 1 the Holder seminorm is sup |L|,
# so its C3 is also C4), the epsilon of its C1, and the quantiles of its
# thresholds: the largest _C2_QUANTILE of C2 and C3 kept, the smallest
# _C1_QUANTILE of C1 dropped
_TAU = 1.0
_EPS = 0.1
_C2_QUANTILE = 0.9
_C1_QUANTILE = 0.1
ENDGAME_TOL = 1e-9       # relative slack of the endgame bounds; the L/S formulas' error bound


class DistortionWindowError(ValueError):
    """The interval is too large for distortion control at this tau."""


def kappa_m_solve(gap: float, tau: float = 1.0) -> float:
    """Smaller positive root of kappa^{1/tau} e^{-kappa} = gap.

    The left side increases up to its maximum at kappa = 1/tau, so a
    solution below the maximizer exists iff gap^tau < 1/(tau e),
    strictly (enforced with a 1e-9 margin); the root is polished to
    residual <= 1e-12.
    """
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau must lie in (0, 1]")
    if gap <= 0.0:
        raise ValueError("gap must be positive")
    peak = 1.0 / tau
    max_val = peak ** (1.0 / tau) * np.exp(-peak)
    if gap >= max_val * (1.0 - 1e-9):
        raise DistortionWindowError(
            f"interval too large for distortion control: gap^tau = {gap ** tau:.6g} "
            f"is not strictly below 1/(tau e) = {1.0 / (tau * np.e):.6g}"
        )

    def f(k):
        return (1.0 / tau) * np.log(k) - k - np.log(gap)

    lo = min(gap ** tau, peak * 0.5)
    while f(lo) > 0:
        lo *= 0.5
        if lo < 1e-300:
            raise RuntimeError("bracketing failed")
    hi = peak   # bisection on f(lo) <= 0 < f(hi), to brentq's tolerance
    while hi - lo > 1e-15 + 8.9e-16 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if f(mid) > 0 else (mid, hi)
    k = 0.5 * (lo + hi)
    # Newton polish on the original equation
    for _ in range(4):
        val = k ** (1.0 / tau) * np.exp(-k)
        dval = val * (1.0 / (tau * k) - 1.0)
        k = k - (val - gap) / dval
    assert abs(k ** (1.0 / tau) * np.exp(-k) - gap) <= 1e-12 * max(1.0, gap)
    return float(k)


def ck_distances(map_like, arc: Arc, grid_size: int = 129, jet=None) -> tuple:
    """(C1, C2, C3) distances to the identity over the arc grid, from one jet:
    C1 = max(dist(phi(x), x), |phi' - 1|), and Ck adds |phi^(k)|.

    `jet`, when given, is map_like's 3-jet on `arc.grid(grid_size)`,
    already evaluated by the caller; it is not evaluated again.
    """
    xs = arc.grid(grid_size)
    j = eval_jet3(map_like, xs) if jet is None else jet
    c1 = max(np.max(circle_dist(j.value, xs)), np.max(np.abs(j.d1 - 1.0)))
    c2 = max(c1, np.max(np.abs(j.d2)))
    return float(c1), float(c2), float(max(c2, np.max(np.abs(j.d3))))


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------


@dataclass
class NearIdentityReport:
    m: int
    walk_length: int
    pair_keys: tuple                  # canonical element keys (distinct)
    kappa_m: float
    c_m: float
    ck_distances: tuple               # (C1, C2, C3) sups on the half interval
    bucket_count: int
    bucket_occupancy: int
    derivative_gap: float             # |log g_m'(0)/h_m'(0)| in chart frame
    kappa_g_measured: float
    kappa_h_measured: float
    g_word: Word = field(repr=False, default=None)
    h_word: Word = field(repr=False, default=None)
    chart: LinearChart = field(repr=False, default=None)
    eta: float = 0.0

    def as_dict(self):
        return {
            "m": self.m,
            "walk_length": self.walk_length,
            "kappa_m": self.kappa_m,
            "c_m": self.c_m,
            "ck_distances": [float(v) for v in self.ck_distances],
            "bucket_count": self.bucket_count,
            "bucket_occupancy": self.bucket_occupancy,
            "derivative_gap": self.derivative_gap,
            "kappa_g_measured": self.kappa_g_measured,
            "kappa_h_measured": self.kappa_h_measured,
            "eta": self.eta,
        }


@dataclass
class SearchMiss:
    m: int
    walk_length: int
    reason: str
    bucket_count: int = 0
    bucket_occupancy: int = 0


def _chart_log_deriv(chart: LinearChart, x):
    return np.log(np.asarray(chart.to_chart_deriv(x), dtype=float))


def chart_frame_log_derivative(word_mat: np.ndarray, chart: LinearChart, x):
    """log (chart o w o chart^{-1})'(chart(x)) for a word matrix."""
    val, logd = mobius_value_logd(word_mat, x)
    return logd + _chart_log_deriv(chart, val) - _chart_log_deriv(chart, x)


def chart_distortion(word: Word, chart: LinearChart, y_lo: float, y_hi: float) -> float:
    """Affine distortion of a pure Mobius word over [y_lo, y_hi] in chart
    coordinates, from the jet of its product matrix at the two ends: in the
    chart frame the word is a line Mobius map, whose log derivative is monotone."""
    xs = chart.from_chart(np.array([y_lo, y_hi]))
    j = word.as_mobius().jet(xs)
    ld = np.log(j.d1) + _chart_log_deriv(chart, np.asarray(j.value, dtype=float)) - _chart_log_deriv(chart, xs)
    return float(abs(ld[1] - ld[0]))


def search_near_identity_pairs(
    mu: StepDistribution,
    l_gen: MobiusMap,
    eta: float,
    m_range,
    nu: GridMeasure,
    lam: float,
    h_nu: float,
    samples: int = 8192,
    length_factor: float = 2.0,
    seed: int = 0,
):
    """Run the bucket-and-pigeonhole search for each m in m_range.

    Walk length grows as n = ceil(length_factor * m).  Thresholds for
    the constants are percentiles of the sampled batch itself (largest
    _C2_QUANTILE kept for C2/C3, smallest _C1_QUANTILE dropped for C1),
    guaranteeing a nonempty candidate set G_m.  Returns (reports, misses).
    """
    if lam >= 0:
        raise ValueError("search requires a negative Lyapunov exponent")
    chart = linearizing_chart(l_gen)
    alpha = chart.alpha
    mats = mu.matrices()
    if mats is None:
        raise ValueError("the pair search requires a pure Mobius family")
    holder = mobius_seminorms(mats, _TAU)[0]
    x_star = chart.fixed_point

    reports = []
    misses = []
    for m in m_range:
        n = int(np.ceil(length_factor * m))
        rng = stream(seed, _TAG_SEARCH, m)
        steps = mu.sample_indices(rng, (samples, n))

        # prefix scan at the fixed point and along the arc I_{2m}, reduced as it runs
        half_2m = eta * alpha ** (2 * m)
        arc_lo = float(chart.from_chart(-half_2m))
        arc_hi = float(chart.from_chart(half_2m))
        run = PrefixScan(mu, steps, x_star, (arc_lo, arc_hi), nu).constants(
            lam, h_nu + _EPS, [(holder, lam * _TAU / 2.0)])
        pos, logd, C2, (C3,) = run.pos, run.logd, run.c2, run.sums
        # an empty window counts as mass 1e-300, keeping the quantile finite
        logC1 = np.maximum(run.log_c1, np.log(1e-300))

        c2_thr = float(np.quantile(C2, _C2_QUANTILE))
        c3_thr = float(np.quantile(C3, _C2_QUANTILE))
        c1_thr = float(np.quantile(logC1, _C1_QUANTILE))
        keep = (C2 <= c2_thr) & (C3 <= c3_thr) & (logC1 >= c1_thr)

        gap = 2.0 * eta * alpha ** m * c2_thr * c3_thr ** (1.0 / _TAU)
        try:
            kappa_m = kappa_m_solve(gap, _TAU)
        except DistortionWindowError:
            misses.append(SearchMiss(m, n, "interval too large for distortion control"))
            continue

        # bucket the chart-frame log derivative into width-1/m intervals
        chart_corr = _chart_log_deriv(chart, pos) - _chart_log_deriv(chart, np.full(samples, x_star))
        logd_chart = logd + chart_corr
        sel = np.nonzero(keep)[0]
        if len(sel) < 2:
            misses.append(SearchMiss(m, n, "candidate set too small"))
            continue
        corr_span = float(np.max(np.abs(chart_corr[sel])))
        lo_edge = 3.0 * lam * n / 2.0 - np.log(c2_thr) - corr_span
        n_buckets = int(m * np.ceil(abs(lam) * n + 2.0 * np.log(max(c2_thr, 1.0)) + 2.0 * corr_span + 1e-12))
        n_buckets = max(n_buckets, 1)
        bucket = np.clip(((logd_chart[sel] - lo_edge) * m).astype(int), 0, max(n_buckets - 1, 0))
        counts = np.bincount(bucket, minlength=n_buckets)
        k_best = int(np.argmax(counts))          # ties: lowest index
        in_bucket = sel[bucket == k_best]
        occupancy = len(in_bucket)

        # word matrices of the bucket's walks; dedupe identical group
        # elements (quantized matrix keys)
        Wn = np.broadcast_to(np.eye(2), (occupancy, 2, 2)).copy()
        for idx in steps[in_bucket].T:
            Wn = mats[idx] @ Wn
        lead = np.where(np.abs(Wn[:, 0, 0]) > 1e-12, Wn[:, 0, 0],
                        np.where(np.abs(Wn[:, 0, 1]) > 1e-12, Wn[:, 0, 1], Wn[:, 1, 0]))
        Wq = np.round(Wn * np.where(lead < 0, -1.0, 1.0)[:, None, None] / 1e-9).astype(np.int64)
        _, uniq = np.unique(Wq.reshape(len(Wn), -1), axis=0, return_index=True)
        uniq = np.sort(uniq)
        in_bucket, Wn = in_bucket[uniq], Wn[uniq]
        if len(in_bucket) < 2:
            misses.append(SearchMiss(m, n, "no two distinct elements in the fullest bucket",
                                     n_buckets, occupancy))
            continue

        # sweep for intersecting images of I_{2m}: neighbours in
        # left-endpoint order, the first intersecting pair wins
        lefts, _ = mobius_value_logd(Wn, np.full(len(in_bucket), arc_lo))
        rights, _ = mobius_value_logd(Wn, np.full(len(in_bucket), arc_hi))
        order = np.argsort(lefts, kind="stable")
        first, second = order[:-1], order[1:]
        hits = np.nonzero(wrap(lefts[second] - lefts[first]) <= wrap(rights - lefts)[first])[0]
        if not hits.size:
            misses.append(SearchMiss(m, n, "no intersecting images in the fullest bucket",
                                     n_buckets, occupancy))
            continue

        ig, ih = in_bucket[first[hits[0]]], in_bucket[second[hits[0]]]
        g_bar = Word(tuple(mu.atoms[s] for s in steps[ig]))
        h_bar = Word(tuple(mu.atoms[s] for s in steps[ih]))
        g_word = Word((l_gen,) * m + g_bar.factors)   # g_m = g_bar o l^m
        h_word = Word((l_gen,) * m + h_bar.factors)
        dgap = float(abs(logd_chart[ig] - logd_chart[ih]))
        kap_g = chart_distortion(g_word, chart, -eta, eta)
        kap_h = chart_distortion(h_word, chart, -eta, eta)
        phi = Word(g_word.factors + h_word.inverse().factors)   # h^{-1} o g
        half = chart.chart_arc(eta / 2)
        cks = ck_distances(phi.as_mobius(), half)
        c_m = float(np.exp(-2.0 * kappa_m - 1.0 / m) * (1.0 - alpha ** m))
        reports.append(NearIdentityReport(
            m=m, walk_length=n,
            pair_keys=(canonical_key(g_word), canonical_key(h_word)),
            kappa_m=float(kappa_m), c_m=c_m, ck_distances=cks,
            bucket_count=n_buckets, bucket_occupancy=occupancy,
            derivative_gap=dgap,
            kappa_g_measured=kap_g, kappa_h_measured=kap_h,
            g_word=g_word, h_word=h_word, chart=chart, eta=eta,
        ))
    return reports, misses


def brute_force_min_c1(mu: StepDistribution, arcs, max_len: int, grid_size: int = 33):
    """Minimum over all nontrivial reduced words of length <= max_len and
    over the given arcs of the C^1 distance to the identity on that arc.

    The oracle for discreteness: a strongly locally discrete group keeps
    this minimum bounded away from zero on a covering of its limit set.
    Words are enumerated by depth-first search with incremental value and
    derivative arrays shared across prefixes.
    """
    points = np.concatenate([arc.grid(grid_size) for arc in arcs])
    inv = mu.inverse_index
    best = {"value": np.inf, "word": None}

    def visit(vals, d1, word):
        per_point = np.maximum(circle_dist(vals, points), np.abs(d1 - 1.0))
        c1 = float(np.min(np.max(per_point.reshape(len(arcs), grid_size), axis=1)))
        if c1 < best["value"]:
            best["value"] = c1
            best["word"] = tuple(word)

    def rec(vals, d1, last, depth, word):
        for j in range(len(mu.atoms)):
            if last >= 0 and inv[last] == j:
                continue
            jet = mu.atoms[j].jet(vals)
            nv = np.asarray(jet.value, dtype=float)
            nd = d1 * np.asarray(jet.d1, dtype=float)
            word.append(j)
            visit(nv, nd, word)
            if depth + 1 < max_len:
                rec(nv, nd, j, depth + 1, word)
            word.pop()

    rec(points.copy(), np.ones_like(points), -1, 0, [])
    return best["value"], best["word"]


# ---------------------------------------------------------------------------
# endgame estimates
# ---------------------------------------------------------------------------


class EndgameViolation(AssertionError):
    """An inequality that is a theorem under conditions 1-3 failed; this
    indicates an implementation bug, not a legitimate miss."""


@dataclass
class EndgameReport:
    m: int
    sandwich_ok: bool
    overlap_fraction_g: float     # (beta - alpha) / (2 eta), must be >= c_m
    overlap_fraction_h: float
    sup_log_phi_prime: float
    log_phi_bound: float          # 2 kappa_m + 1/m
    ls_formula_error: float
    ratio_check_skipped: bool

    def as_dict(self):
        return self.__dict__.copy()


def _chart_eval(word: Word | MobiusMap, chart: LinearChart, ys):
    return np.asarray(chart.to_chart(word.apply(chart.from_chart(ys))), dtype=float)


def chart_preimages(word: Word | MobiusMap, chart: LinearChart, image, targets, eta: float):
    """Chart-frame preimages under the word of targets in image = (word(-eta),
    word(eta)): one evaluation of the inverse word, clipped to [-eta, eta].
    A target outside image is a violation."""
    lo, hi = image
    targets = np.asarray(targets, dtype=float)
    if np.any((lo - targets) * (hi - targets) > 0):
        raise EndgameViolation("overlap preimage escapes the interval")
    return np.clip(_chart_eval(word.inverse(), chart, targets), -eta, eta)


def endgame_estimates(report: NearIdentityReport, pairs: int = 100,
                      condition2_violated: bool = False) -> EndgameReport:
    """Verify the endgame inequalities for one emitted pair.

    Checks, in the chart frame on I = [-eta, eta]: the distortion
    sandwich at `pairs` random interval pairs, the overlap lower bounds
    beta - alpha >= 2 eta c_m (same for delta - gamma), the derivative
    ratio bound sup |log phi'| <= 2 kappa_m + 1/m on the overlap
    preimage, and the L/S composition formulas for phi against direct
    jets.  These are theorems given conditions 1-3; any failure raises.
    The pure Mobius words g_m, h_m, h_m^{-1} and phi are evaluated through
    their product matrices, one jet each.
    """
    chart = report.chart
    eta = report.eta
    m = report.m
    g, h = report.g_word.as_mobius(), report.h_word.as_mobius()
    kap = report.kappa_m
    rng = np.random.default_rng(1234 + m)

    # sandwich: e^{-kap} g'(0) (y - x) <= g(y) - g(x) <= e^{kap} g'(0) (y - x)
    xs = rng.uniform(-eta, eta, size=(pairs, 2))
    xs.sort(axis=1)
    ok = True
    for word in (g, h):
        gy = _chart_eval(word, chart, xs[:, 1])
        gx = _chart_eval(word, chart, xs[:, 0])
        d0 = float(np.exp(chart_frame_log_derivative(word.matrix[None], chart,
                                                     np.array([chart.fixed_point]))[0]))
        lhs = np.exp(-kap) * d0 * (xs[:, 1] - xs[:, 0])
        rhs = np.exp(kap) * d0 * (xs[:, 1] - xs[:, 0])
        diff = gy - gx
        ok &= bool(np.all(diff >= lhs * (1 - ENDGAME_TOL) - 1e-15) and np.all(diff <= rhs * (1 + ENDGAME_TOL) + 1e-15))
    if not ok:
        raise EndgameViolation("distortion sandwich failed")

    # overlap interval J = g(I) cap h(I) and its preimages
    ends = np.array([-eta, eta])
    gI, hI = _chart_eval(g, chart, ends), _chart_eval(h, chart, ends)
    J = (max(gI[0], hI[0]), min(gI[1], hI[1]))
    if J[1] <= J[0]:
        raise EndgameViolation("images of I do not overlap")
    alpha_m, beta_m = chart_preimages(g, chart, gI, J, eta)
    gamma_m, delta_m = chart_preimages(h, chart, hI, J, eta)
    frac_g = (beta_m - alpha_m) / (2 * eta)
    frac_h = (delta_m - gamma_m) / (2 * eta)
    c_m = report.c_m
    # the c_m bound uses condition 2: not enforced when that fails
    if not condition2_violated and min(frac_g, frac_h) < c_m * (1 - ENDGAME_TOL):
        raise EndgameViolation(
            f"overlap fractions {frac_g:.4f}/{frac_h:.4f} below c_m = {c_m:.4f}")

    # derivative ratio bound on the overlap preimage
    ys = np.linspace(alpha_m, beta_m, 101)
    xs_c = chart.from_chart(ys)
    jg = g.jet(xs_c)
    jphi = Word(report.g_word.factors + report.h_word.inverse().factors).as_mobius().jet(xs_c)
    ld = (np.log(jphi.d1)
          + _chart_log_deriv(chart, np.asarray(jphi.value, dtype=float))
          - _chart_log_deriv(chart, xs_c))
    sup_log = float(np.max(np.abs(ld)))
    bound = 2 * kap + 1.0 / m
    skipped = bool(condition2_violated)
    if not skipped and sup_log > bound * (1 + ENDGAME_TOL):
        raise EndgameViolation(f"|log phi'| = {sup_log:.4f} exceeds {bound:.4f}")

    # L phi = L g - (g'/h'(h^{-1} g)) (L h)(h^{-1} g);  S likewise with squares
    jh_at = h.inverse().jet(np.asarray(jg.value, dtype=float))     # h^{-1}(g(x))
    jh = h.jet(np.asarray(jh_at.value, dtype=float))
    ratio = jg.d1 / jh.d1
    L_pred = log_derivative(jg) - ratio * log_derivative(jh)
    S_pred = schwarzian(jg) - ratio ** 2 * schwarzian(jh)
    Lphi = log_derivative(jphi)
    Sphi = schwarzian(jphi)
    err = max(
        float(np.max(np.abs(Lphi - L_pred)) / max(1.0, np.max(np.abs(Lphi)))),
        float(np.max(np.abs(Sphi - S_pred)) / max(1.0, np.max(np.abs(Sphi)))),
    )
    if err > ENDGAME_TOL:
        raise EndgameViolation(f"L/S composition formulas mismatch: {err:.2e}")

    return EndgameReport(m, True, float(frac_g), float(frac_h), sup_log, float(bound),
                         err, skipped)
