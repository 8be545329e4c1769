"""Distortion constants along walks and verification of the control lemmas.

For a seeded walk l_n = g_n ... g_1 with negative Lyapunov exponent, the
constants below quantify how well the compositions behave near a point:

    C1(eps, J) = inf_n  nu(l_n J) e^{(h_nu + eps) n}          (mass decay)
    C2(x)      = smallest C with e^{3 n lam/2}/C <= l_n'(x) <= C e^{n lam/2}
    C3         = sum_n |log g'_{n+1}|_tau e^{n lam tau / 2}   (Holder data)
    C4         = sum_n |L g_{n+1}|_inf e^{n lam / 2}          (log-derivative)
                 resp. sum_n |S g_{n+1}|_inf e^{n lam}        (Schwarzian)
    C5         = inf_n rho(g_n) e^{-(n-1) lam / 2}            (analytic width)

C1..C4 are defined once, by `PrefixScan` over a batch of walks of a
pure Mobius family: the near-identity search scans its whole sample.
The scan steps every walk in place and hands each step's log l_k' and
log nu(l_k J) to its consumer, which reduces them as the scan runs
(running minima, maxima and step sums for the constants) or collects
them (the decay terms); no consumer keeps a history it does not read.
`walk_constants`, the two verifiers and `interval_mass_decay` take a walk
whose steps are one walk or a (walks, n) batch, and run every row at once;
a row's values do not depend on the batch it was run in.  A batch gets
per-walk arrays in its report and violations ordered by (walk, n), a
single walk gets floats.

Sums and infima over an infinite future are truncated at the walk
horizon with explicit geometric tail bounds attached (ratios
e^{lam tau/2}, e^{lam/2}, e^{lam}).  From these, closed-form radii

    r_real    = kappa^{1/tau} e^{-kappa} / (C2 C3^{1/tau})
    r_complex = min( C5 / (2 e^kappa C2),  kappa / (2 e^kappa C2 C3cx) )

bound the interval (resp. disk) on which every l_n keeps affine
distortion below kappa; the verifiers measure exactly that, step by
step, and report violations (there should be none when the constants
were computed over at least the verification horizon).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .circle import Arc, wrap
from .maps import direction_abs_im, mobius_seminorms, mobius_window_extrema
from .measure import GridMeasure
from .walk import StepDistribution, WalkTrajectory


_TINY_ARC = 1e-9
_LOG_SIN_TINY = float(np.log(np.pi * _TINY_ARC))   # log sin(pi l) at l = _TINY_ARC, to 2e-18
# a walk's C1 below e^LOG_C1_FLOOR is a collapsed mass, not a positive one:
# the scan floors log masses at log 1e-300, which reads as C1 near 1e-280
LOG_C1_FLOOR = float(np.log(1e-100))


class PrefixScan:
    """The prefix scan of l_k = g_k ... g_1, k = 0..n, along each row of a
    (batch, n) step array of a pure Mobius family (a ValueError otherwise):
    the point x and the arc J = (lo, hi) pushed along every row.  Every
    value of a row is computed from that row alone, so it does not depend
    on the batch the row was scanned in.

    Iterating runs the scan and yields k = 0..n.  At k, `logd` holds
    log l_k'(x) and `log_mass` log nu(l_k J) (-inf on an empty window),
    each of shape (batch,), and `step` the atoms of g_k (k >= 1), read
    from the steps' column k - 1 into one contiguous row.  They live in
    buffers allocated once per scan, which step k + 1 overwrites, so a
    consumer reduces them as the scan runs: `constants` keeps running
    C1..C4 reductions, `history` collects every k.  After the last step,
    `position()` is l_n(x).  A step allocates nothing unless some row's
    arc is tiny or its window flat (below).

    x, lo and hi are stepped in place as direction states
    w = (cos pi y, sin pi y) by `mu.step_state`.  A unimodular D keeps
    D w_lo x D w_hi = w_lo x w_hi = +-sin(pi |l_k J|) and divides each
    state by |D w| = e^{-log g'/2}, so L = log sin(pi |l_k J|) gains
    (log g'(lo) + log g'(hi)) / 2 per step, exactly.  The cross product
    keeps its sign (+ when hi >= lo); that sign times w_lo . w_hi is
    cos(pi |l_k J|), negative when the image is the circle but for a short
    complement.

    Each step reads every row by one rule.  Below L = log(pi 1e-9), where
    the ends are no longer float-distinguishable, the nu-mass is the CDF
    density at the middle of the short gap between the ends times e^L / pi,
    in the log domain (1 minus that for a complement).  Otherwise it is the
    CDF difference of the ends, or the density times wrap(hi - lo) where
    that difference is not positive (a flat or under-resolved cell).
    Positions are formed (by arctan2) only where they are read.
    """

    def __init__(self, mu: StepDistribution, steps, x: float, arc, nu: GridMeasure):
        if mu.matrices() is None:
            raise ValueError("the prefix scan requires a pure Mobius family")
        steps = np.asarray(steps)
        if steps.size and (steps.min() < 0 or steps.max() >= len(mu)):
            raise IndexError("atom index out of range")
        self.batch, self.n = steps.shape
        self.steps, self.step = steps, np.empty(self.batch, dtype=np.intp)
        self.mu, self.nu, self.x, self.arc = mu, nu, float(x), (float(arc[0]), float(arc[1]))
        self.logd, self.log_mass = np.empty((2, self.batch))
        self._w = None

    def __iter__(self):
        mu, nu, batch = self.mu, self.nu, self.batch
        lo, hi = self.arc
        w = self._w = np.repeat(mu.state([self.x, lo, hi])[:, :, None], batch, axis=2)   # x, lo, hi
        buffers = mu.state_buffers(w)
        sign = 1.0 if hi >= lo else -1.0
        L = np.full(batch, np.log(np.sin(np.pi * max(wrap(hi - lo), 1e-300))))
        ends, scratch = np.empty((2, 2, batch))
        ends[0], ends[1] = lo, hi
        mass, half = np.empty((2, batch))
        tiny, flat = np.empty((2, batch), dtype=bool)
        interval_mass = nu.interval_mass_into(batch)
        logd, log_mass = self.logd, self.log_mass
        logd.fill(0.0)
        for k in range(self.n + 1):
            # log of a zero density is -inf; a window mass that is not positive
            # is logged with its row and then overwritten by the fallback below
            with np.errstate(divide="ignore", invalid="ignore"):
                if k:
                    np.copyto(self.step, self.steps[:, k - 1])
                    _, ld = mu.step_state(self.step, w, buffers)
                    logd += ld[0]
                    L += np.multiply(0.5, np.add(ld[1], ld[2], out=half), out=half)
                n_tiny = np.count_nonzero(np.less(L, _LOG_SIN_TINY, out=tiny))
                if n_tiny < batch:
                    if k:   # mu.position(w[:, 1:]), in place
                        np.arctan2(w[1, 1:], w[0, 1:], out=ends)
                        ends /= np.pi
                        ends -= np.floor(ends, out=scratch)
                    np.log(interval_mass(ends[0], ends[1], mass), out=log_mass)
                    if np.less_equal(mass, 0.0, out=flat).any():
                        rows = np.flatnonzero(flat & ~tiny)
                        span = wrap(ends[1, rows] - ends[0, rows])
                        log_mass[rows] = (np.log(np.maximum(span, 1e-300))
                                          + np.log(nu.cell_density(wrap(ends[0, rows] + 0.5 * span))))
                if n_tiny:
                    # read on every row, kept on the tiny ones
                    dot = w[0, 1] * w[0, 2] + w[1, 1] * w[1, 2]
                    mid = mu.position(w[:, 1] + np.copysign(1.0, dot) * w[:, 2])
                    lm = L + np.log(nu.cell_density(mid) / np.pi)
                    comp = sign * dot < 0.0
                    if comp.any():
                        lm = np.where(comp, np.log1p(-np.minimum(np.exp(lm), 1.0)), lm)
                    np.copyto(log_mass, lm, where=tiny)
            yield k

    def position(self) -> np.ndarray:
        """l_n(x) per row, once the scan has run."""
        return self.mu.position(self._w[:, 0]) if self.n else np.full(self.batch, self.x)

    def constants(self, lam: float, c1_rate: float, sums=()) -> "ScanConstants":
        """Run the scan, reducing as it goes: a running minimum of the C1
        terms log nu(l_k J) + c1_rate k, running maxima of C2's two sides
        and, for each (weights, rate) of sums, the step sum
        sum_{k<n} weights[g_{k+1}] e^{rate k} added in step order.  Every
        reduction is, bit for bit, its definition over the histories."""
        t = np.empty(self.batch)
        log_c1 = np.full(self.batch, np.inf)
        upper, lower = np.full((2, self.batch), -np.inf)
        totals = [np.zeros(self.batch) for _ in sums]
        factors = [np.exp(rate * np.arange(self.n)) for _, rate in sums]
        for k in self:
            np.minimum(log_c1, np.add(self.log_mass, c1_rate * k, out=t), out=log_c1)
            np.maximum(upper, np.exp(np.subtract(self.logd, k * lam / 2.0, out=t), out=t), out=upper)
            np.maximum(lower, np.exp(np.subtract(3.0 * k * lam / 2.0, self.logd, out=t), out=t), out=lower)
            if k:
                for total, (weights, _), e in zip(totals, sums, factors):
                    np.take(weights, self.step, out=t, mode="clip")
                    t *= e[k - 1]
                    total += t
        return ScanConstants(self.position(), self.logd.copy(), log_c1, np.maximum(upper, lower), totals)

    def history(self):
        """Run the scan and collect it: (l_n(x), log l_k'(x), log nu(l_k J)),
        the last two of shape (batch, n + 1)."""
        logd, log_mass = np.empty((2, self.n + 1, self.batch))
        for k in self:
            logd[k], log_mass[k] = self.logd, self.log_mass
        return self.position(), logd.T, log_mass.T


@dataclass(frozen=True)
class ScanConstants:
    """The running reductions of `PrefixScan.constants`, one value per row."""

    pos: np.ndarray          # l_n(x)
    logd: np.ndarray         # log l_n'(x)
    log_c1: np.ndarray       # min_k log nu(l_k J) + c1_rate k: log C1 at c1_rate = h_nu + eps
    c2: np.ndarray           # smallest C with e^{3 k lam/2}/C <= l_k'(x) <= C e^{k lam/2}, k <= n
    sums: list               # per (weights, rate): C3 from the Holder seminorms at lam tau/2,
                             # C4 from sup |L| at lam/2 or sup |S| at lam, the complex C3 from
                             # sup |L| on annuli at lam/2


@dataclass
class ConstantsReport:
    """Empirical walk constants at a fixed horizon, with tail bounds."""

    C1: float
    log_C1: float
    C2: float
    C3: float
    C3_tail: float
    C4_log: float
    C4_log_tail: float
    C4_schwarzian: float
    C4_schwarzian_tail: float
    C5: float
    C3_complex: float
    C3_complex_tail: float
    r_real: float
    r_complex: float
    horizon: int
    tau: float
    kappa_reference: float
    lam: float
    x: float

    def radius_real(self, kappa: float):
        c3 = np.asarray(self.C3 + self.C3_tail)
        with np.errstate(divide="ignore"):
            r = kappa ** (1.0 / self.tau) * np.exp(-kappa) / (self.C2 * c3 ** (1.0 / self.tau))
        return np.where(c3 > 0.0, r, np.inf)[()]

    def radius_complex(self, kappa: float):
        c3 = np.asarray(self.C3_complex + self.C3_complex_tail)
        bound_pole = self.C5 / (2.0 * np.exp(kappa) * self.C2)
        with np.errstate(divide="ignore"):
            bound_c3 = kappa / (2.0 * np.exp(kappa) * self.C2 * c3)
        return np.where(c3 > 0.0, np.minimum(bound_pole, bound_c3), bound_pole)[()]


def _rows(walk: WalkTrajectory) -> np.ndarray:
    """A walk's steps as (walks, n) rows: a single walk is a batch of one."""
    return np.atleast_2d(walk.steps)


def _per_walk(walk: WalkTrajectory, report):
    """report as it is for a batch; for a single walk, with each per-walk
    array field replaced by its one float."""
    if np.ndim(walk.steps) == 2:
        return report
    return replace(report, **{f.name: float(getattr(report, f.name)[0]) for f in fields(report)
                              if isinstance(getattr(report, f.name), np.ndarray)})


def walk_constants(
    walk: WalkTrajectory,
    nu: GridMeasure,
    lam: float,
    h_nu: float,
    eps: float,
    J: Arc,
    x: float,
    tau: float = 1.0,
    horizon: int | None = None,
    kappa_reference: float = 0.5,
) -> ConstantsReport:
    """Compute every constant over n <= horizon exactly as its defining
    inf/sum, with geometric tail bounds for the truncated sums, for every
    walk of the batch from the running reductions of one `PrefixScan`.
    """
    if lam >= 0:
        raise ValueError("constants require negative exponent")
    mu = walk.distribution
    rows = _rows(walk)
    horizon = rows.shape[1] if horizon is None else min(horizon, rows.shape[1])
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if nu.arc_mass(J) <= 0:
        raise ValueError("C1 needs nu(J) > 0")
    steps = rows[:, :horizon]
    x = float(wrap(x))
    scan = PrefixScan(mu, steps, x, (J.left, J.right), nu)   # a ValueError unless pure Mobius
    holder, sup_L, sup_S, complex_L, rho = mobius_seminorms(mu.matrices(), tau)
    sums = ((holder, lam * tau / 2.0), (sup_L, lam / 2.0), (sup_S, lam), (complex_L, lam / 2.0))
    run = scan.constants(lam, h_nu + eps, sums)
    log_C1 = run.log_c1
    C3, C4l, C4s, C3cx = run.sums
    C3_tail, C4l_tail, C4s_tail, C3cx_tail = (
        float(np.max(weights) * np.exp(rate * horizon) / (1 - np.exp(rate))) for weights, rate in sums)
    with np.errstate(over="ignore"):   # an infinite term is never the minimum
        C5 = np.min(rho[steps] * np.exp(-lam / 2.0 * np.arange(horizon)), axis=1)

    rep = ConstantsReport(
        C1=np.where(np.isfinite(log_C1), np.exp(log_C1), 0.0), log_C1=log_C1, C2=run.c2,
        C3=C3, C3_tail=C3_tail,
        C4_log=C4l, C4_log_tail=C4l_tail,
        C4_schwarzian=C4s, C4_schwarzian_tail=C4s_tail,
        C5=C5,
        C3_complex=C3cx, C3_complex_tail=C3cx_tail,
        r_real=np.nan, r_complex=np.nan,
        horizon=horizon, tau=tau, kappa_reference=kappa_reference,
        lam=lam, x=x,
    )
    rep.r_real = rep.radius_real(kappa_reference)
    rep.r_complex = rep.radius_complex(kappa_reference)
    return _per_walk(walk, rep)


# ---------------------------------------------------------------------------
# lemma verification
# ---------------------------------------------------------------------------


@dataclass
class DistortionViolation:
    walk: int        # row of the batch; 0 for a single walk
    n: int
    kind: str
    measured: float
    bound: float


_SLACK = 1e-9


def _record(violations: list, n: int, kind: str, measured, bound, floor: float = 1e-12):
    """Append a violation at step n for each walk whose measured value
    exceeds its bound by more than the relative slack and the floor."""
    bound = np.broadcast_to(bound, measured.shape)
    violations.extend(DistortionViolation(int(w), n, kind, float(measured[w]), float(bound[w]))
                      for w in np.flatnonzero(measured > bound * (1 + _SLACK) + floor))


@dataclass
class DistortionReport:
    kappa: float
    radius: float
    horizon: int
    max_kappa_measured: float
    max_L_measured: float
    max_S_measured: float
    L_bound: float
    S_bound: float
    violations: list

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0


def verify_real_distortion(
    walk: WalkTrajectory,
    constants: ConstantsReport,
    kappa: float,
    x: float,
    N: int,
) -> DistortionReport:
    """Check, for every n <= N, on [x - r, x + r]: affine distortion <= kappa,
    |L l_n| and |S l_n| below their stated bounds, read exactly by
    `mobius_window_extrema` from l_n's product matrix, rescaled at each step
    to |P|_F^2 = 2 with the log of the scale apart.  Requires constants
    computed over a horizon >= N.  Pure Mobius steps only."""
    if constants.horizon < N:
        raise ValueError("constants were computed over a shorter horizon than the verification")
    mats = walk.distribution.matrices()
    if mats is None:
        raise ValueError("real verification requires pure Mobius steps")
    steps = _rows(walk)
    r = np.asarray(constants.radius_real(kappa))
    # a distortion-free family has an infinite radius: any window works
    r = np.full(len(steps), np.minimum(np.where(np.isfinite(r), r, 0.25), 0.249))
    L_bound = constants.C2 * (constants.C4_log + constants.C4_log_tail) * np.exp(kappa)
    S_bound = constants.C2 ** 2 * (constants.C4_schwarzian + constants.C4_schwarzian_tail) * np.exp(2 * kappa)
    prod = np.broadcast_to(np.eye(2), (len(steps), 2, 2))   # l_n's matrix is e^{log_a / 2} prod
    log_a = np.zeros(len(steps))
    max_k, max_L, max_S = np.zeros((3, len(steps)))
    violations = []
    for n in range(1, N + 1):
        prod = np.take(mats, steps[:, n - 1], axis=0) @ prod
        scale = np.einsum("kij,kij->k", prod, prod) / 2.0
        prod /= np.sqrt(scale)[:, None, None]
        log_a += np.log(scale)
        kap, Ln, Sn = mobius_window_extrema(prod, log_a, float(x) - r, float(x) + r)
        for worst, value in ((max_k, kap), (max_L, Ln), (max_S, Sn)):
            np.maximum(worst, value, out=worst)
        _record(violations, n, "affine", kap, kappa)
        _record(violations, n, "log_derivative", Ln, L_bound)
        _record(violations, n, "schwarzian", Sn, S_bound)
    violations.sort(key=lambda v: v.walk)
    return _per_walk(walk, DistortionReport(kappa, r, N, max_k, max_L, max_S,
                                            L_bound, S_bound, violations))


@dataclass
class ComplexDistortionReport:
    kappa: float
    radius: float
    horizon: int
    max_kappa_measured: float
    max_im_excess: float         # worst Im(image) relative to the annulus bound
    violations: list

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0


class PoleInDiskError(RuntimeError):
    """A step's singularity entered the tracked disk image; the constants
    were computed over too small a horizon for this verification."""


def verify_complex_distortion(
    walk: WalkTrajectory,
    constants: ConstantsReport,
    kappa: float,
    x: float,
    N: int,
    ring: int = 64,
) -> ComplexDistortionReport:
    """Push `ring` points of the circle bounding D(x, r) through the complex
    extensions of the steps; check the distortion stays below kappa and the
    images stay in the shrinking annuli A_{C5 e^{lam n / 2}}.  While no pole
    enters the disk (`PoleInDiskError`), log |l_n'| and Im l_n are harmonic
    on it, so the circle carries their extremes.  Pure Mobius steps only.
    Points are carried as `mu.state`s w = (cos pi z, sin pi z), one row per
    walk; log |g'| is the real part of `step_state`'s log g', |Im z| is
    `direction_abs_im(w)`.
    """
    if constants.horizon < N:
        raise ValueError("constants were computed over a shorter horizon than the verification")
    mu = walk.distribution
    if mu.matrices() is None:
        raise ValueError("complex verification requires pure Mobius steps")
    rho = mobius_seminorms(mu.matrices())[4]
    steps = _rows(walk)
    r = np.asarray(constants.radius_complex(kappa))
    # a distortion-free family has an infinite radius: any small disk works
    r = np.full(len(steps), np.where(np.isfinite(r), r, 0.05))
    z = float(x) + r[:, None] * np.exp(1j * np.linspace(0.0, 2 * np.pi, ring, endpoint=False))
    w, im_max = mu.state(z), np.max(np.abs(z.imag), axis=1)
    logd = np.zeros(z.shape)
    max_k, max_im_excess = np.zeros(len(r)), np.zeros(len(r))
    violations = []
    for n in range(1, N + 1):
        k = steps[:, n - 1]
        pole = np.flatnonzero(im_max >= rho[k])
        if pole.size:
            b = pole[0]
            raise PoleInDiskError(
                f"walk {b}, step {n}: disk image reaches the singular annulus of the next map "
                f"(|Im| = {im_max[b]:.3e} >= rho = {rho[k[b]]:.3e})"
            )
        w, ld = mu.step_state(k[:, None], w)
        logd += ld.real
        kap = np.max(logd, axis=1) - np.min(logd, axis=1)
        np.maximum(max_k, kap, out=max_k)
        _record(violations, n, "complex_affine", kap, kappa)
        im_bound = constants.C5 * np.exp(constants.lam * n / 2.0)
        im_max = np.max(direction_abs_im(w), axis=1)
        np.maximum(max_im_excess, im_max / im_bound, out=max_im_excess)
        _record(violations, n, "annulus", im_max, im_bound, floor=1e-15)
    violations.sort(key=lambda v: v.walk)
    return _per_walk(walk, ComplexDistortionReport(kappa, r, N, max_k, max_im_excess, violations))


# ---------------------------------------------------------------------------
# interval mass decay (empirical C1)
# ---------------------------------------------------------------------------


@dataclass
class DecayReport:
    ns: np.ndarray
    log_values: np.ndarray       # log( nu(l_n J) e^{(h_nu+eps) n} ), one row per walk of a batch

    @property
    def values(self) -> np.ndarray:
        return np.exp(self.log_values)

    @property
    def log_c1(self):
        """log of the empirical C1, the infimum of the values (per walk of a batch)."""
        c1 = np.min(self.log_values, axis=-1)
        return c1 if c1.ndim else float(c1)

    @property
    def positive(self):
        """Every term finite and C1 above e^LOG_C1_FLOOR (per walk of a batch)."""
        ok = np.all(np.isfinite(self.log_values), axis=-1) & (self.log_c1 > LOG_C1_FLOOR)
        return ok if ok.ndim else bool(ok)


def interval_mass_decay(
    walk: WalkTrajectory,
    nu: GridMeasure,
    J: Arc,
    h_nu: float,
    eps: float,
    N: int,
) -> DecayReport:
    """Per-n values nu(l_n J) e^{(h_nu+eps) n}, the C1 terms of the prefix
    scan of every walk, whose running infimum (the empirical C1) should
    stay positive and stabilize.
    """
    if nu.arc_mass(J) <= 0:
        raise ValueError("nu(J) must be positive")
    _, _, log_mass = PrefixScan(walk.distribution, _rows(walk)[:, :N], J.midpoint, (J.left, J.right),
                                nu).history()
    log_vals = log_mass + (h_nu + eps) * np.arange(log_mass.shape[1])
    return DecayReport(np.arange(log_vals.shape[1]), log_vals if np.ndim(walk.steps) == 2 else log_vals[0])
