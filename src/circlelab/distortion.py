"""Distortion constants along walks and verification of the control lemmas.

For a seeded walk l_n = g_n ... g_1 with negative Lyapunov exponent, the
constants below quantify how well the compositions behave near a point:

    C1(eps, J) = inf_n  nu(l_n J) e^{(h_nu + eps) n}          (mass decay)
    C2(x)      = smallest C with e^{3 n lam/2}/C <= l_n'(x) <= C e^{n lam/2}
    C3         = sum_n |log g'_{n+1}|_tau e^{n lam tau / 2}   (Holder data)
    C4         = sum_n |L g_{n+1}|_inf e^{n lam / 2}          (log-derivative)
                 resp. sum_n |S g_{n+1}|_inf e^{n lam}        (Schwarzian)
    C5         = inf_n rho(g_n) e^{-(n-1) lam / 2}            (analytic width)

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

from dataclasses import dataclass, field

import numpy as np

from .circle import Arc
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


class _ArcTracker:
    """Image of an arc along a walk, with a log-length fallback.

    Once the image is shorter than ~1e-9 the two endpoints are no longer
    float-distinguishable; from there the arc is tracked as (midpoint,
    log length), growing the length by the midpoint derivative (the
    curvature correction is O(|L g| * length), far below float noise).
    nu-masses are evaluated against the local CDF density in the same
    log domain, so deep-contracted windows keep honest positive masses.
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
        """log nu(image arc); -inf when the window carries no mass."""
        if not self.tiny:
            m = float(nu.interval_mass(self.lo, self.hi))
            if m > 0.0:
                return float(np.log(m))
            # endpoints inside one flat or under-resolved cell: fall through
        dens = nu.cell_density(self.mid)
        if dens <= 0.0:
            return -np.inf
        return self.log_len + float(np.log(dens))


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
    extras: dict = field(default_factory=dict)

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

    def as_dict(self):
        d = {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
             for k, v in self.__dict__.items() if k != "extras"}
        return d


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

    # prefix data at x and at the arc image
    pos = float(x) % 1.0
    logd = 0.0
    tracker = _ArcTracker(J)
    C2 = 1.0
    log_C1 = float(np.log(nu.arc_mass(J)))
    ns = np.arange(horizon + 1)
    for n in range(1, horizon + 1):
        atom = mu.atoms[steps[n - 1]]
        jx = atom.jet(pos)
        pos = float(np.asarray(jx.value))
        logd += float(np.log(np.asarray(jx.d1)))
        tracker.step(atom)
        C2 = max(C2, np.exp(logd - n * lam / 2.0), np.exp(3.0 * n * lam / 2.0 - logd))
        log_C1 = min(log_C1, tracker.log_mass(nu) + (h_nu + eps) * n)
    C1 = float(np.exp(log_C1)) if np.isfinite(log_C1) else 0.0

    w_hold = sem.holder[steps]
    w_supL = sem.sup_L[steps]
    w_supS = sem.sup_S[steps]
    w_rho = sem.rho[steps]
    w_cl = sem.complex_L[steps]
    decay = np.exp(lam * tau / 2.0 * ns[:-1])
    C3 = float(np.sum(w_hold * decay))
    C3_tail = float(np.max(sem.holder) * np.exp(lam * tau / 2.0 * horizon) / (1 - np.exp(lam * tau / 2.0)))
    C4l = float(np.sum(w_supL * np.exp(lam / 2.0 * ns[:-1])))
    C4l_tail = float(np.max(sem.sup_L) * np.exp(lam / 2.0 * horizon) / (1 - np.exp(lam / 2.0)))
    C4s = float(np.sum(w_supS * np.exp(lam * ns[:-1])))
    C4s_tail = float(np.max(sem.sup_S) * np.exp(lam * horizon) / (1 - np.exp(lam)))
    C5 = float(np.min(w_rho * np.exp(-lam / 2.0 * ns[:-1])))
    if np.any(np.isnan(w_cl)):
        C3cx = C3cx_tail = np.nan
    else:
        C3cx = float(np.sum(w_cl * np.exp(lam / 2.0 * ns[:-1])))
        C3cx_tail = float(np.max(sem.complex_L) * np.exp(lam / 2.0 * horizon) / (1 - np.exp(lam / 2.0)))

    rep = ConstantsReport(
        C1=C1, log_C1=float(log_C1), C2=float(C2),
        C3=C3, C3_tail=C3_tail,
        C4_log=C4l, C4_log_tail=C4l_tail,
        C4_schwarzian=C4s, C4_schwarzian_tail=C4s_tail,
        C5=C5, C3_complex=C3cx, C3_complex_tail=C3cx_tail,
        r_real=np.nan, r_complex=np.nan,
        horizon=horizon, tau=tau, kappa_reference=kappa_reference,
        lam=lam, x=float(x) % 1.0,
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

    def as_dict(self):
        d = {k: v for k, v in self.__dict__.items() if k != "violations"}
        d["violations"] = [v.__dict__ for v in self.violations]
        d["ok"] = self.ok
        return d


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
    xs = (float(x) + np.linspace(-r, r, grid_size)) % 1.0
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

    def as_dict(self):
        d = {k: v for k, v in self.__dict__.items() if k != "violations"}
        d["violations"] = [v.__dict__ for v in self.violations]
        d["ok"] = self.ok
        return d


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
    positive: bool

    @property
    def values(self) -> np.ndarray:
        return np.exp(self.log_values)

    @property
    def running_inf(self) -> np.ndarray:
        return np.exp(np.minimum.accumulate(self.log_values))

    @property
    def empirical_C1(self) -> float:
        return float(np.exp(np.min(self.log_values)))

    def as_dict(self):
        return {
            "ns": [int(v) for v in self.ns],
            "log_values": [float(v) for v in self.log_values],
            "positive": self.positive,
        }


def interval_mass_decay(
    walk: WalkTrajectory,
    nu: GridMeasure,
    J: Arc,
    h_nu: float,
    eps: float,
    N: int,
) -> DecayReport:
    """Per-n values nu(l_n J) e^{(h_nu+eps) n} and their running infimum
    (the empirical C1), which should stay positive and stabilize.
    """
    if nu.arc_mass(J) <= 0:
        raise ValueError("nu(J) must be positive")
    mu = walk.distribution
    tracker = _ArcTracker(J)
    log_vals = [float(np.log(nu.arc_mass(J)))]
    for n in range(1, N + 1):
        atom = mu.atoms[walk.steps[n - 1]]
        tracker.step(atom)
        log_vals.append(tracker.log_mass(nu) + (h_nu + eps) * n)
    log_vals = np.array(log_vals)
    return DecayReport(np.arange(N + 1), log_vals, bool(np.all(np.isfinite(log_vals))))
