"""Distortion constants along walks and verification of the control lemmas.

For a seeded walk l_n = g_n ... g_1 with negative Lyapunov exponent, the
constants below quantify how well the compositions behave near a point:

    C1(eps, J) = inf_n  nu(l_n J) e^{(h_nu + eps) n}          (mass decay)
    C2(x)      = smallest C with e^{3 n lam/2}/C <= l_n'(x) <= C e^{n lam/2}
    C3         = sum_n |log g'_{n+1}|_tau e^{n lam tau / 2}   (Holder data)
    C4         = sum_n |L g_{n+1}|_inf e^{n lam / 2}          (log-derivative)
                 resp. sum_n |S g_{n+1}|_inf e^{n lam}        (Schwarzian)
    C5         = inf_n rho(g_n) e^{-(n-1) lam / 2}            (analytic width)

C1..C4 are defined once, by `prefix_scan` over a batch of walks:
`walk_constants` and `interval_mass_decay` scan one walk, the
near-identity search scans its whole sample.

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

from dataclasses import dataclass

import numpy as np

from .circle import Arc, wrap
from .jets import compose, identity_jet, log_derivative, schwarzian
from .maps import MobiusMap, holder_seminorm, rho_lower_bound, sup_abs_L, sup_abs_S
from .measure import GridMeasure
from .walk import StepDistribution, WalkTrajectory


@dataclass(frozen=True)
class AtomSeminorms:
    """Per-atom seminorms of a step distribution, used by the constants."""

    tau: float
    holder: np.ndarray        # |log g'|_tau, global grid seminorm
    sup_L: np.ndarray
    sup_S: np.ndarray
    rho: np.ndarray
    complex_L: np.ndarray     # sup |(log g')'| on the half-annulus A_{rho/2}


def atom_seminorms(mu: StepDistribution, tau: float = 1.0, grid_size: int = 2048) -> AtomSeminorms:
    cache = mu.seminorm_cache
    key = (tau, grid_size)
    if key not in cache:
        hold, supl, sups, rho, cl = [], [], [], [], []
        for a in mu.atoms:
            hold.append(holder_seminorm(a, tau, grid_size))
            supl.append(sup_abs_L(a, grid_size))
            sups.append(sup_abs_S(a, grid_size))
            r = rho_lower_bound(a)
            rho.append(r)
            cl.append(_complex_L_sup(a, r))
        cache[key] = AtomSeminorms(tau, np.array(hold), np.array(supl), np.array(sups),
                                   np.array(rho), np.array(cl))
    return cache[key]


def _complex_L_sup(atom, rho: float) -> float:
    """Grid sup of |(log g')'| over the half-annulus A_{rho/2} (Mobius only)."""
    if not isinstance(atom, MobiusMap):
        return np.nan
    if np.isinf(rho):
        # rotations: log g' vanishes identically on every annulus
        return float(np.max(np.abs(atom.clog_derivative(np.linspace(0, 1, 33)))))
    re = np.linspace(0.0, 1.0, 129)
    im = np.linspace(-rho / 2, rho / 2, 9)
    z = re[None, :] + 1j * im[:, None]
    return float(np.max(np.abs(atom.clog_derivative(z))))


_TINY_ARC = 1e-9
# a walk's C1 below e^LOG_C1_FLOOR is a collapsed mass, not a positive one:
# the scan floors log masses at log 1e-300, which reads as C1 near 1e-280
LOG_C1_FLOOR = float(np.log(1e-100))


@dataclass(frozen=True)
class PrefixScan:
    """Prefix data of l_k = g_k ... g_1, k = 0..n, along each row of a step
    array.  Every value of a row is computed from that row alone, so it
    does not depend on the batch the row was scanned in.
    """

    steps: np.ndarray        # (batch, n) atom indices
    pos: np.ndarray          # l_n(x), shape (batch,)
    logd: np.ndarray         # log l_k'(x), shape (batch, n + 1)
    log_mass: np.ndarray     # log nu(l_k J), shape (batch, n + 1); -inf on an empty window

    def c1_terms(self, h_nu: float, eps: float) -> np.ndarray:
        """log nu(l_k J) + (h_nu + eps) k; log C1 is their row minimum."""
        return self.log_mass + (h_nu + eps) * np.arange(self.log_mass.shape[1])

    def c2(self, lam: float) -> np.ndarray:
        """Smallest C with e^{3 k lam/2}/C <= l_k'(x) <= C e^{k lam/2} for k <= n."""
        k = np.arange(self.logd.shape[1])
        upper = np.max(np.exp(self.logd - k * lam / 2.0), axis=1)
        lower = np.max(np.exp(3.0 * k * lam / 2.0 - self.logd), axis=1)
        return np.maximum(upper, lower)

    def step_sum(self, weights: np.ndarray, rate: float) -> np.ndarray:
        """sum_{k<n} weights[g_{k+1}] e^{rate k}, added in step order: C3 from
        the Holder seminorms at rate lam tau/2, C4 from sup |L| at lam/2 or
        sup |S| at lam, the complex C3 from sup |L| on annuli at lam/2."""
        terms = weights[self.steps]
        terms *= np.exp(rate * np.arange(self.steps.shape[1]))
        return np.cumsum(terms, axis=1, out=terms)[:, -1].copy()   # a view would pin terms


def prefix_scan(mu: StepDistribution, steps, x: float, arc, nu: GridMeasure) -> PrefixScan:
    """Push the point x and the arc J = (lo, hi) along every row of steps.

    Points are stepped as `mu`'s scan states by `mu.step_state`: for a pure
    Mobius family, unit direction vectors (cos pi x, sin pi x), one matrix
    product and a renormalization per step; for other families, positions,
    stepped as `mu.step` steps them.  A position is formed from a direction
    (by arctan2) only where it is read: the arc ends at every step while
    some row reads its mass between them, the tracked midpoints once some
    row tracks one, and x once, after the last step.

    The arc is tracked by its endpoints until its image is shorter than
    1e-9, where they are no longer float-distinguishable; from there by
    (midpoint, log length), the length growing by the midpoint derivative
    (the curvature correction is O(|L g| * length), far below float noise).
    An image that expands to nearly the whole circle is tracked the same
    way by its complement, with mass 1 - density * length.  One step
    shrinks a length by at most exp(`mu.log_shrink_bound()`), so a row at
    least max(1/2, 1e-9 exp(bound)) long whose next image looks shorter
    than 1e-9, either way round, has a complement that short; in a family
    whose bound rules that out (an atom with sigma^2 > 5e8) such an image
    is read as a tiny arc.  The nu-mass of a tracked window, or of one
    whose endpoints share a flat or under-resolved cell, is the local CDF
    density times the length, taken in the log domain, so deep-contracted
    windows keep honest positive masses.

    The histories are built step-major, (n + 1, batch), so each step
    writes whole contiguous rows; `PrefixScan` gets their transposes.
    """
    steps = np.asarray(steps)
    batch, n = steps.shape
    # states of x, lo, hi and the tracked midpoint, at 0 until a row tracks one
    w = np.repeat(mu.state([x, arc[0], arc[1], 0.0])[:, :, None], batch, axis=2)
    lo, hi = np.full(batch, float(arc[0])), np.full(batch, float(arc[1]))
    floor = max(0.5, _TINY_ARC * np.exp(mu.log_shrink_bound()))
    logd = np.zeros((n + 1, batch))
    log_mass = np.empty((n + 1, batch))
    tracked = np.zeros(batch, dtype=bool)   # followed by (midpoint, log length)
    comp = np.zeros(batch, dtype=bool)      # ... of its complement
    long = np.zeros(batch, dtype=bool)      # at least floor long at the last step read
    mid = np.zeros(batch)
    log_len = np.zeros(batch)
    # log of a zero density is -inf; a window mass that is not positive is
    # logged with its row and then overwritten by the fallback below
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n + 1):
            if k:
                # the midpoints ride along once some row tracks them
                carry = 4 if tracked.any() else 3
                w[:, :carry], ld = mu.step_state(steps[:, k - 1], w[:, :carry])
                np.add(logd[k - 1], ld[0], out=logd[k])
                if carry == 4:
                    log_len += ld[3]
                    mid = mu.position(w[:, 3])
            ends = ~tracked      # rows whose mass is read between the endpoints
            if ends.any():
                if k:
                    lo, hi = mu.position(w[:, 1:3])
                length = wrap(hi - lo)
                # a row that was at least floor long is still at least 1e-9
                # long, so an image that looks shorter than 1e-9, either way
                # round, is the circle but for a complement that short
                flip = long & (np.minimum(length, 1.0 - length) < _TINY_ARC) if long.any() else long
                new = ends & (flip | (length < _TINY_ARC))
                long = length >= floor
                mass = nu.interval_mass(lo, hi)
                np.log(mass, out=log_mass[k])
                ends &= ~new & (mass > 0.0)
            f = np.nonzero(~ends)[0]      # rows read by (midpoint, log length)
            if f.size:
                s = f[~tracked[f]]        # new rows, and rows of no positive mass
                if s.size:
                    fl = flip[s]
                    span = np.where(fl, np.minimum(length[s], 1.0 - length[s]), length[s])
                    mid[s] = wrap(np.where(fl, hi[s], lo[s]) + 0.5 * span)
                    log_len[s] = np.log(np.maximum(span, 1e-300))
                    start = s[new[s]]
                    w[:, 3, start] = mu.state(mid[start])
                    tracked[start], comp[start] = True, flip[start]
                lm = log_len[f] + np.log(nu.cell_density(mid[f]))
                log_mass[k, f] = np.where(comp[f], np.log1p(-np.minimum(np.exp(lm), 1.0)), lm)
    pos = mu.position(w[:, 0]) if n else np.full(batch, float(x))
    return PrefixScan(steps, pos, logd.T, log_mass.T)


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

    def radius_real(self, kappa: float) -> float:
        c3 = self.C3 + self.C3_tail
        if c3 <= 0.0:
            return np.inf
        return kappa ** (1.0 / self.tau) * np.exp(-kappa) / (self.C2 * c3 ** (1.0 / self.tau))

    def radius_complex(self, kappa: float) -> float:
        c3 = self.C3_complex + self.C3_complex_tail
        bound_pole = self.C5 / (2.0 * np.exp(kappa) * self.C2)
        if c3 <= 0.0:
            return bound_pole
        return min(bound_pole, kappa / (2.0 * np.exp(kappa) * self.C2 * c3))


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
    seminorm_grid: int = 2048,
) -> ConstantsReport:
    """Compute every constant over n <= horizon exactly as its defining
    inf/sum, with geometric tail bounds for the truncated sums.
    """
    if lam >= 0:
        raise ValueError("constants require negative exponent")
    mu = walk.distribution
    horizon = len(walk.steps) if horizon is None else min(horizon, len(walk.steps))
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if nu.arc_mass(J) <= 0:
        raise ValueError("C1 needs nu(J) > 0")
    sem = atom_seminorms(mu, tau, seminorm_grid)
    steps = walk.steps[:horizon]
    x = float(wrap(x))
    scan = prefix_scan(mu, steps[None, :], x, (J.left, J.right), nu)
    log_C1 = float(np.min(scan.c1_terms(h_nu, eps)))
    C1 = float(np.exp(log_C1)) if np.isfinite(log_C1) else 0.0
    C2 = float(scan.c2(lam)[0])

    def with_tail(weights, rate):
        return (float(scan.step_sum(weights, rate)[0]),
                float(np.max(weights) * np.exp(rate * horizon) / (1 - np.exp(rate))))

    C3, C3_tail = with_tail(sem.holder, lam * tau / 2.0)
    C4l, C4l_tail = with_tail(sem.sup_L, lam / 2.0)
    C4s, C4s_tail = with_tail(sem.sup_S, lam)
    C3cx, C3cx_tail = with_tail(sem.complex_L, lam / 2.0)   # NaN for non-Mobius atoms
    C5 = float(np.min(sem.rho[steps] * np.exp(-lam / 2.0 * np.arange(horizon))))

    rep = ConstantsReport(
        C1=C1, log_C1=log_C1, C2=C2,
        C3=C3, C3_tail=C3_tail,
        C4_log=C4l, C4_log_tail=C4l_tail,
        C4_schwarzian=C4s, C4_schwarzian_tail=C4s_tail,
        C5=C5, C3_complex=C3cx, C3_complex_tail=C3cx_tail,
        r_real=np.nan, r_complex=np.nan,
        horizon=horizon, tau=tau, kappa_reference=kappa_reference,
        lam=lam, x=x,
    )
    rep.r_real = float(rep.radius_real(kappa_reference))
    rep.r_complex = float(rep.radius_complex(kappa_reference)) if not np.isnan(C3cx) else np.nan
    return rep


# ---------------------------------------------------------------------------
# lemma verification
# ---------------------------------------------------------------------------


@dataclass
class DistortionViolation:
    n: int
    kind: str
    measured: float
    bound: float


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


_SLACK = 1e-9


def verify_real_distortion(
    walk: WalkTrajectory,
    constants: ConstantsReport,
    kappa: float,
    x: float,
    N: int,
    grid_size: int = 65,
) -> DistortionReport:
    """Track jets of l_n on [x - r, x + r] and check, for every n <= N:
    affine distortion <= kappa, |L l_n| and |S l_n| below their stated
    bounds.  Requires constants computed over a horizon >= N.
    """
    if constants.horizon < N:
        raise ValueError("constants were computed over a shorter horizon than the verification")
    mu = walk.distribution
    r = constants.radius_real(kappa)
    if not np.isfinite(r):
        r = 0.25  # distortion-free family: any window works
    r = min(r, 0.249)
    xs = wrap(float(x) + np.linspace(-r, r, grid_size))
    jets = identity_jet(xs)
    L_bound = constants.C2 * (constants.C4_log + constants.C4_log_tail) * np.exp(kappa)
    S_bound = constants.C2 ** 2 * (constants.C4_schwarzian + constants.C4_schwarzian_tail) * np.exp(2 * kappa)
    logd = np.zeros(grid_size)
    violations = []
    max_k = max_L = max_S = 0.0
    for n in range(1, N + 1):
        atom = mu.atoms[walk.steps[n - 1]]
        step_jet = atom.jet(jets.value)
        jets = compose(step_jet, jets)
        logd += np.log(np.asarray(step_jet.d1, dtype=float))
        kap = float(np.max(logd) - np.min(logd))
        Ln = float(np.max(np.abs(log_derivative(jets))))
        Sn = float(np.max(np.abs(schwarzian(jets))))
        max_k, max_L, max_S = max(max_k, kap), max(max_L, Ln), max(max_S, Sn)
        if kap > kappa * (1 + _SLACK) + 1e-12:
            violations.append(DistortionViolation(n, "affine", kap, kappa))
        if Ln > L_bound * (1 + _SLACK) + 1e-12:
            violations.append(DistortionViolation(n, "log_derivative", Ln, L_bound))
        if Sn > S_bound * (1 + _SLACK) + 1e-12:
            violations.append(DistortionViolation(n, "schwarzian", Sn, S_bound))
    return DistortionReport(kappa, float(r), N, max_k, max_L, max_S,
                            float(L_bound), float(S_bound), violations)


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
    disk_grid: tuple = (64, 16),
) -> ComplexDistortionReport:
    """Push a polar grid of D(x, r) through the complex extensions of the
    steps; check the distortion stays below kappa and the images stay in
    the shrinking annuli A_{C5 e^{lam n / 2}}.  Pure Mobius steps only.
    """
    if constants.horizon < N:
        raise ValueError("constants were computed over a shorter horizon than the verification")
    mu = walk.distribution
    mats = mu.matrices()
    if mats is None:
        raise ValueError("complex verification requires pure Mobius steps")
    atoms = [a if isinstance(a, MobiusMap) else MobiusMap(m) for a, m in zip(mu.atoms, mats)]
    sem = atom_seminorms(mu, constants.tau)
    r = constants.radius_complex(kappa)
    if not np.isfinite(r):
        r = 0.05  # distortion-free family: any small disk works
    n_th, n_rad = disk_grid
    th = np.linspace(0.0, 2 * np.pi, n_th, endpoint=False)
    rad = np.linspace(0.0, 1.0, n_rad + 1)[1:]
    z = (float(x) + (r * rad[:, None] * np.exp(1j * th[None, :])).ravel()).astype(complex)
    z = np.concatenate([[complex(x)], z])
    logd = np.zeros(len(z))
    violations = []
    max_k = 0.0
    max_im_excess = 0.0
    for n in range(1, N + 1):
        k = walk.steps[n - 1]
        atom = atoms[k]
        rho_step = sem.rho[k]
        if np.max(np.abs(z.imag)) >= rho_step:
            raise PoleInDiskError(
                f"step {n}: disk image reaches the singular annulus of the next map "
                f"(|Im| = {np.max(np.abs(z.imag)):.3e} >= rho = {rho_step:.3e})"
            )
        d = atom.cderiv(z)
        logd += np.log(np.abs(d))
        z = atom.cval(z)
        kap = float(np.max(logd) - np.min(logd))
        max_k = max(max_k, kap)
        if kap > kappa * (1 + _SLACK) + 1e-12:
            violations.append(DistortionViolation(n, "complex_affine", kap, kappa))
        im_bound = constants.C5 * np.exp(constants.lam * n / 2.0)
        im_max = float(np.max(np.abs(z.imag)))
        max_im_excess = max(max_im_excess, im_max / im_bound)
        if im_max > im_bound * (1 + _SLACK) + 1e-15:
            violations.append(DistortionViolation(n, "annulus", im_max, im_bound))
    return ComplexDistortionReport(kappa, float(r), N, max_k, max_im_excess, violations)


# ---------------------------------------------------------------------------
# interval mass decay (empirical C1)
# ---------------------------------------------------------------------------


@dataclass
class DecayReport:
    ns: np.ndarray
    log_values: np.ndarray       # log( nu(l_n J) e^{(h_nu+eps) n} )

    @property
    def values(self) -> np.ndarray:
        return np.exp(self.log_values)

    @property
    def log_c1(self) -> float:
        """log of the empirical C1, the infimum of the values."""
        return float(np.min(self.log_values))

    @property
    def positive(self) -> bool:
        """Every term finite and C1 above e^LOG_C1_FLOOR."""
        return bool(np.all(np.isfinite(self.log_values))) and self.log_c1 > LOG_C1_FLOOR


def interval_mass_decay(
    walk: WalkTrajectory,
    nu: GridMeasure,
    J: Arc,
    h_nu: float,
    eps: float,
    N: int,
) -> DecayReport:
    """Per-n values nu(l_n J) e^{(h_nu+eps) n}, the C1 terms of the prefix
    scan, whose running infimum (the empirical C1) should stay positive and
    stabilize.
    """
    if nu.arc_mass(J) <= 0:
        raise ValueError("nu(J) must be positive")
    scan = prefix_scan(walk.distribution, walk.steps[None, :N], J.midpoint, (J.left, J.right), nu)
    log_vals = scan.c1_terms(h_nu, eps)[0]
    return DecayReport(np.arange(log_vals.size), log_vals)
