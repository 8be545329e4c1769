"""Stationary measures, Lyapunov exponents, and the entropy estimators.

A circle probability measure is stored as its CDF on a uniform grid
(monotone, pinned at 0 and 1).  Stationary measures are produced either
by iterating the averaged pushforward operator on the CDF (transfer
iteration) or by Monte Carlo over walk endpoints; both are exposed and
cross-checked.  On top of the measure sit the three numbers the theory
revolves around: the Lyapunov exponent lambda, the boundary entropy
h_nu (mean negative log Radon-Nikodym derivative of one step), and the
asymptotic entropy h = lim H(mu^{*n})/n, estimated from exact
convolution powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circle import Arc, lift_steps, unwrap_increasing, wrap
from .convolve import convolve_exact
from .maps import MobiusMap
from .rng import stream
from .walk import StepDistribution

_TAG_STATIONARY = 0x53544154
_TAG_LYAPUNOV = 0x4C594150
_TAG_BOUNDARY = 0x424E4452
_TAG_SBM = 0x53424D31
_TAG_DIRAC = 0x44495243
_LYAPUNOV_BLOCK = 256
# one-cell advances of `GridMeasure._cdf_index` before it searches the rest: on
# 100 000 draws from sanov's nu (N = 8192) 1, 2 and 3 left 4.7, 2.3 and 1.6 % and
# took 3.1, 3.1 and 3.3 ms, against 11.9 ms for searchsorted (numpy 2.4, 2-core x86)
_CDF_PROBES = 2
_EPS = np.finfo(float).eps


class StationarityError(RuntimeError):
    def __init__(self, residual, message):
        super().__init__(message)
        self.residual = residual


class MeasureGapError(RuntimeError):
    """A Radon-Nikodym window carries no measure (legitimate inside Cantor gaps)."""


class EstimatorDisagreement(RuntimeError):
    """Two independent estimators of the same quantity differ beyond tolerance."""


def uniform_cells(grid, values):
    """What `uniform_lookup_into` reads of a table of values on a uniform
    grid of [0, 1] (grid[i] within an ulp of i / N): the grid and the cell
    slopes, each padded by a flat cell at +inf, and the values."""
    return np.append(grid, np.inf), np.append(np.diff(values) / np.diff(grid), 0.0), values


def uniform_lookup_into(cells, x, out, j, moved):
    """np.interp(x, grid, values) of a table's `uniform_cells` for x in
    [0, 1], bit for bit, written into out, its cell found in O(1):
    floor(xN), moved by one where that rounds across a grid point.  j
    (intp) and moved (bool) are scratch of x's shape, and x is overwritten;
    nothing is allocated."""
    g, slopes, values = cells
    # the indices are in range; mode "raise" would buffer each take
    np.copyto(j, np.multiply(x, len(g) - 2, out=out), casting="unsafe")
    j -= np.greater(g.take(j, out=out, mode="clip"), x, out=moved)
    j += np.less_equal(g[1:].take(j, out=out, mode="clip"), x, out=moved)
    x -= g.take(j, out=out, mode="clip")
    np.multiply(slopes.take(j, out=out, mode="clip"), x, out=out)
    out += values.take(j, out=x, mode="clip")
    return out


class GridMeasure:
    """Circle probability measure as a monotone CDF on an N-point grid."""

    def __init__(self, cdf, atom_tolerance: float = 0.05):
        cdf = np.asarray(cdf, dtype=float)
        if cdf.ndim != 1 or len(cdf) < 2:
            raise ValueError("cdf must be a 1-d array of at least 2 values")
        _require_cdfs(cdf, np.empty(len(cdf) - 1), np.empty(len(cdf) - 1, dtype=bool))
        self.cdf = np.maximum.accumulate(np.clip(cdf, 0.0, 1.0))
        self.cdf[0] = 0.0
        self.cdf[-1] = 1.0
        self.N = len(cdf) - 1
        self.grid = np.arange(self.N + 1) / self.N
        self.atom_tolerance = atom_tolerance

    # -- mass queries -------------------------------------------------------

    @property
    def max_cell_mass(self) -> float:
        return float(np.max(np.diff(self.cdf)))

    @property
    def atom_warning(self) -> bool:
        """True when some grid cell carries more mass than atom_tolerance.

        The measures of interest are atomless; a heavy cell signals either
        an atom (elementary input) or an under-resolved grid.  Reported,
        never silently accepted.
        """
        return self.max_cell_mass > self.atom_tolerance

    @cached_property
    def _cells(self):
        # built on first query, since most pushforward measures are never queried
        return uniform_cells(self.grid, self.cdf)

    def _interp_into(self, x, out, j, moved):
        """np.interp(x, grid, cdf) for x in [0, 1], bit for bit (`uniform_lookup_into`)."""
        return uniform_lookup_into(self._cells, x, out, j, moved)

    def cdf_at(self, x):
        """np.interp(wrap(x), grid, cdf) bit for bit."""
        x = np.asarray(wrap(x))   # a new array, which the lookup overwrites
        return self._interp_into(x, np.empty_like(x), np.empty(x.shape, np.intp),
                                 np.empty(x.shape, bool))[()]

    def cdf_lifted(self, y):
        y = np.asarray(y, dtype=float)
        return np.floor(y) + self.cdf_at(y)

    def interval_mass(self, lo, hi):
        """Mass of the positively oriented arc from lo to hi:
        cdf_lifted(lo + wrap(hi - lo)) - cdf_lifted(lo)."""
        shape = np.broadcast_shapes(np.shape(lo), np.shape(hi))
        return self.interval_mass_into(shape)(lo, hi, np.empty(shape))[()]

    def interval_mass_into(self, shape):
        """A function (lo, hi, out) that writes `interval_mass(lo, hi)` into
        out, for lo, hi and out of the given shape.  Its scratch arrays are
        allocated here, once, so that a per-step loop allocates nothing; it
        returns out."""
        y, lifted, t = (np.empty(shape) for _ in range(3))
        j, moved = np.empty(shape, dtype=np.intp), np.empty(shape, dtype=bool)

        def cdf_lifted(into):
            # floor(y) + cdf_at(y), cdf_at reading wrap(y) = y - floor(y); y is overwritten
            np.floor(y, out=into)
            np.subtract(y, into, out=y)
            return np.add(into, self._interp_into(y, t, j, moved), out=into)

        def interval_mass(lo, hi, out):
            np.subtract(hi, lo, out=y)   # y = lo + wrap(hi - lo)
            np.subtract(y, np.floor(y, out=t), out=y)
            np.add(y, lo, out=y)
            cdf_lifted(lifted)
            np.copyto(y, lo)
            return np.subtract(lifted, cdf_lifted(out), out=out)

        return interval_mass

    def arc_mass(self, arc: Arc):
        return float(self.cdf_lifted(arc.left + arc.length) - self.cdf_lifted(arc.left))

    def cell_density(self, x):
        """Density of the piecewise-linear CDF on the cell containing x."""
        i = np.minimum((wrap(x) * self.N).astype(int), self.N - 1)
        return (self.cdf[i + 1] - self.cdf[i]) * self.N

    @cached_property
    def _bucket_starts(self):
        """Per u-bucket b = floor(u N) (`_cdf_index`), a lower bound on the
        bucket's searchsorted(cdf, u, "left"): its value at b / N moved down
        by 4 ulps, more than floor(u N) can round across."""
        return np.searchsorted(self.cdf, np.arange(self.N) / self.N * (1.0 - 4 * _EPS), "left")

    def _cdf_index(self, u):
        """searchsorted(cdf, u, "left") for u in [0, 1], index for index,
        without a binary search for most u: the index starts at u's
        bucket's lower bound (`_bucket_starts`) and advances by one where
        cdf[index] < u, _CDF_PROBES times, vectorised; only the u still
        short of their index are searched."""
        shape, u = np.shape(u), np.ravel(u)
        b = np.multiply(u, self.N).astype(np.intp)
        idx = self._bucket_starts.take(np.minimum(b, self.N - 1, out=b))
        short, c = np.empty(idx.shape, bool), np.empty(idx.shape)
        for _ in range(_CDF_PROBES):
            idx += np.less(self.cdf.take(idx, out=c), u, out=short)
        rest = np.flatnonzero(np.less(self.cdf.take(idx, out=c), u, out=short))
        idx[rest] = np.searchsorted(self.cdf, u[rest], "left")
        return idx.reshape(shape)

    def quantile(self, u):
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        idx = np.clip(self._cdf_index(u), 1, self.N)
        c0 = self.cdf[idx - 1]
        c1 = self.cdf[idx]
        w = np.where(c1 > c0, (u - c0) / np.where(c1 > c0, c1 - c0, 1.0), 0.0)
        return wrap(self.grid[idx - 1] + np.clip(w, 0.0, 1.0) / self.N)

    def sample(self, rng: np.random.Generator, size):
        return self.quantile(rng.random(size))

    # -- constructions ------------------------------------------------------

    @staticmethod
    def lebesgue(N: int) -> "GridMeasure":
        return GridMeasure(np.arange(N + 1) / N)

    @staticmethod
    def from_samples(xs, N: int) -> "GridMeasure":
        xs = np.sort(wrap(xs))
        grid = np.arange(N + 1) / N
        cdf = np.searchsorted(xs, grid, side="right") / len(xs)
        cdf[0] = 0.0
        cdf[-1] = 1.0
        return GridMeasure(cdf)

    def pushforward(self, map_like) -> "GridMeasure":
        """Image measure under an orientation-preserving circle map."""
        return self.pushforward_from_preimages(map_like.inverse().apply(self.grid))

    def pushforward_from_preimages(self, preimages) -> "GridMeasure":
        """Image measure under the map sending preimages[i] to grid[i]."""
        pre = np.array(preimages, dtype=float)
        out = np.empty_like(pre)
        return GridMeasure(self._push_into(pre, out, np.empty_like(pre),
                                           np.empty(pre.shape, np.intp), np.empty(pre.shape, bool)))

    def _push_into(self, pre, out, fl, j, moved):
        """The CDFs of the image measures under the maps sending each row of
        pre (..., N+1) to the grid, written into out: the preimages lifted
        to a monotone sequence (`unwrap_increasing`), their lifted CDF
        values less the first, the ends pinned, clipped to [0, 1] and made
        nondecreasing (a running maximum, taken only on the rows that
        decrease, since it leaves the others as they are).  pre is
        overwritten; fl (float), j (intp) and moved (bool) are scratch of
        its shape, and nothing of that shape is allocated."""
        d = fl[..., 1:]   # ylift = v[0] + cumsum(lifted diff(v)), into pre
        np.subtract(pre[..., 1:], pre[..., :-1], out=d)
        np.cumsum(lift_steps(d, out[..., 1:]), axis=-1, out=d)
        np.add(pre[..., :1], d, out=pre[..., 1:])
        pre -= np.floor(pre, out=fl)   # cdf_lifted(ylift) = floor + cdf_at(wrap)
        self._interp_into(pre, out, j, moved)
        out += fl
        first = fl[..., :1]
        np.copyto(first, out[..., :1])
        out -= first
        out[..., 0] = 0.0
        out[..., -1] = 1.0
        np.clip(out, 0.0, 1.0, out=out)
        for r in np.argwhere(np.less(out[..., 1:], out[..., :-1], out=moved[..., 1:]).any(axis=-1)):
            row = out[tuple(r)]
            np.maximum.accumulate(row, out=row)
        return out


def _require_cdfs(cdf, diffs, below):
    """ValueError unless every row of cdf (..., N+1) is pinned at 0 and 1
    and nondecreasing, to 1e-12: GridMeasure's checks, on a batch at once.
    diffs (float) and below (bool), shaped (..., N), are scratch."""
    if np.any(np.abs(cdf[..., 0]) > 1e-12) or np.any(np.abs(cdf[..., -1] - 1.0) > 1e-12):
        raise ValueError("cdf endpoints must be pinned at 0 and 1")
    np.subtract(cdf[..., 1:], cdf[..., :-1], out=diffs)
    if np.less(diffs, -1e-12, out=below).any():
        raise ValueError("cdf must be nondecreasing")


# ---------------------------------------------------------------------------
# stationary measure
# ---------------------------------------------------------------------------


@dataclass
class StationaryInfo:
    method: str
    residual: float
    iterations: int
    grid_size: int
    samples: int = 0
    max_cell_mass: float = 0.0
    atom_warning: bool = False


def _rotation_angles(mu: StepDistribution):
    """Rotation amounts when every atom is a rigid rotation, else None."""
    angles = []
    for a in mu.atoms:
        if not isinstance(a, MobiusMap):
            return None
        m = a.matrix
        if not (np.allclose(m @ m.T, np.eye(2), atol=1e-12)):
            return None
        angles.append(float(np.asarray(a.apply(0.0))))
    return np.array(angles)


def _transfer_cells(mu: StepDistribution, nu: GridMeasure):
    """What `nu.cdf_lifted(y)` reads of each atom inverse's lifted grid
    preimages y, for any CDF on nu's grid: (floor(y), the cells j of
    wrap(y), wrap(y) - grid[j]).  y is fixed, so each transfer step is
    gathers from these."""
    cells = []
    for a in mu.atoms:
        y = unwrap_increasing(np.asarray(a.inverse().apply(nu.grid), dtype=float))
        fl = np.floor(y)
        x = y - fl
        j = np.empty(x.shape, np.intp)   # the lookup's cells, its other output discarded
        nu._interp_into(x.copy(), np.empty_like(x), j, np.empty(x.shape, bool))
        cells.append((fl, j, x - nu._cells[0][j]))
    return cells


def _transfer_apply(mu: StepDistribution, cdf: np.ndarray, cells) -> np.ndarray:
    """One application of the averaged pushforward operator to the CDF on
    the grid of `cells`: each lifted value is `cdf_lifted`'s, bit for bit."""
    N = len(cdf) - 1
    slopes = np.append(np.diff(cdf) / np.diff(np.arange(N + 1) / N), 0.0)
    out, lifted, t = np.zeros_like(cdf), np.empty_like(cdf), np.empty_like(cdf)
    for p, (fl, j, dx) in zip(mu.probs, cells):
        np.multiply(slopes.take(j, out=lifted), dx, out=lifted)   # fl + (slope * dx + cdf)
        lifted += cdf.take(j, out=t)
        lifted += fl
        lifted -= lifted[0]
        lifted *= p
        out += lifted
    out[0] = 0.0
    out[-1] = 1.0
    return out


def stationarity_residual(mu: StepDistribution, nu: GridMeasure) -> float:
    """sup_x |F(x) - sum_g mu(g) (g nu)([0, x])| on the grid."""
    return float(np.max(np.abs(_transfer_apply(mu, nu.cdf, _transfer_cells(mu, nu)) - nu.cdf)))


def estimate_stationary_measure(
    mu: StepDistribution,
    method: str = "transfer_iteration",
    grid_size: int = 8192,
    tol: float = 1e-3,
    max_iterations: int = 2000,
    stop_residual: float = 1e-10,
    mc_samples: int = 200_000,
    mc_steps: int = 300,
    seed: int = 0,
    atom_tolerance: float = 0.05,
) -> GridMeasure:
    """Estimate the mu-stationary measure on an N-point CDF grid.

    transfer_iteration: iterate the averaged pushforward of the CDF with
    monotone re-interpolation until the update is below stop_residual.
    monte_carlo: empirical law of walk endpoints after mc_steps steps.
    Either way the stationarity residual is measured with the same
    discrete operator and must come out below tol.
    """
    if grid_size < 256:
        raise ValueError("grid_size must be >= 256")
    leb = GridMeasure.lebesgue(grid_size)
    cells = _transfer_cells(mu, leb)

    if method == "transfer_iteration":
        cdf = leb.cdf
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            new = _transfer_apply(mu, cdf, cells)
            new = np.maximum.accumulate(np.clip(new, 0.0, 1.0))
            new[0] = 0.0
            new[-1] = 1.0
            delta = float(np.max(np.abs(new - cdf)))
            cdf = new
            if delta < stop_residual:
                break
        nu = GridMeasure(cdf, atom_tolerance)
        samples = 0
    elif method == "monte_carlo":
        rng = stream(seed, _TAG_STATIONARY)
        x = rng.random(mc_samples)
        angles = _rotation_angles(mu)
        if angles is not None:
            # commuting isometries: the endpoint law only depends on the
            # atom counts, so sample those directly (same distribution,
            # O(samples) instead of O(samples * steps))
            counts = rng.multinomial(mc_steps, mu.probs, size=mc_samples)
            x = wrap(x + counts @ angles)
        else:
            s = mu.state(x)
            buffers = mu.state_buffers(s)
            for _ in range(mc_steps):
                s = mu.step_state(mu.sample_indices(rng, mc_samples), s, buffers)
            x = mu.position(s)
        nu = GridMeasure.from_samples(x, grid_size)
        nu.atom_tolerance = atom_tolerance
        iterations = mc_steps
        samples = mc_samples
    else:
        raise ValueError(f"unknown method {method!r}")

    residual = float(np.max(np.abs(_transfer_apply(mu, nu.cdf, cells) - nu.cdf)))
    nu.info = StationaryInfo(method, residual, iterations, grid_size, samples,
                             nu.max_cell_mass, nu.atom_warning)
    if method == "transfer_iteration":
        require_stationary(nu, tol)
    return nu


def require_stationary(nu: GridMeasure, tol: float) -> None:
    """StationarityError when the recorded residual of nu exceeds tol."""
    info = nu.info
    if info.residual > tol:
        raise StationarityError(
            info.residual,
            f"stationarity residual {info.residual:.3e} exceeds tol {tol:.1e} after "
            f"{info.iterations} iterations (elementary input or insufficient grid?)",
        )


# ---------------------------------------------------------------------------
# Lyapunov exponent
# ---------------------------------------------------------------------------


@dataclass
class LyapunovEstimate:
    value: float            # pathwise slope (primary estimate)
    stderr: float
    integral: float         # Monte Carlo of log g' against mu x nu
    integral_stderr: float
    agreement_sigma: float
    n_steps: int
    trajectories: int

    def as_dict(self):
        return self.__dict__.copy()


def lyapunov_exponent(
    mu: StepDistribution,
    nu: GridMeasure,
    n_steps: int = 10_000,
    trajectories: int = 100,
    integral_samples: int = 100_000,
    seed: int = 0,
) -> LyapunovEstimate:
    """lambda = int log g'(x) dmu(g) dnu(x), two ways.

    The integral estimator samples (g, x) from mu x nu directly; the
    pathwise estimator averages (1/n) log l_n'(x) over walks of `mu.state`s,
    each read once, at the end of its walk (`log_derivative`).
    They must agree within 3 combined sigma (hard error beyond 5).
    """
    rng_i = stream(seed, _TAG_LYAPUNOV, 1)
    x = nu.sample(rng_i, integral_samples)
    _, logs = mu.step(mu.sample_indices(rng_i, integral_samples), x)
    lam_int = float(logs.mean())
    se_int = float(logs.std(ddof=1) / np.sqrt(len(logs)))

    rng_p = stream(seed, _TAG_LYAPUNOV, 2)
    s = mu.state(nu.sample(rng_p, trajectories))
    buffers = mu.state_buffers(s)
    # indices drawn in blocks of steps: the same draws, in the same order, as
    # one draw per step; the block bounds the index array's memory
    for start in range(0, n_steps, _LYAPUNOV_BLOCK):
        for idx in mu.sample_indices(rng_p, (min(_LYAPUNOV_BLOCK, n_steps - start), trajectories)):
            s = mu.step_state(idx, s, buffers)
    slopes = mu.log_derivative(s) / n_steps
    lam_path = float(slopes.mean())
    se_path = float(slopes.std(ddof=1) / np.sqrt(trajectories)) if trajectories > 1 else 0.0

    # absolute floor keeps near-deterministic cases (zero-variance
    # integrands, grid-resolution effects) from tripping the z-test
    combined = float(max(np.hypot(se_int, se_path), 2e-4 * max(1.0, abs(lam_path))))
    z = abs(lam_int - lam_path) / combined
    if z > 5.0:
        raise EstimatorDisagreement(
            f"lyapunov estimators disagree: integral {lam_int:.4f}+-{se_int:.4f} vs "
            f"pathwise {lam_path:.4f}+-{se_path:.4f} ({z:.1f} sigma); bad nu?"
        )
    return LyapunovEstimate(lam_path, se_path, lam_int, se_int, float(z), n_steps, trajectories)


# ---------------------------------------------------------------------------
# Radon-Nikodym windows and boundary entropy
# ---------------------------------------------------------------------------


def rn_derivative(g, nu: GridMeasure, x: float, delta_cells: int = 8) -> float:
    """Window surrogate nu(g[x-d, x+d]) / nu([x-d, x+d]) for d(g^{-1}nu)/dnu at x."""
    if delta_cells < 2:
        raise ValueError("delta must span at least 2 grid cells")
    d = delta_cells / nu.N
    den = float(nu.interval_mass(x - d, x + d))
    lo = float(np.asarray(g.apply(x - d)))
    hi = float(np.asarray(g.apply(x + d)))
    num = float(nu.interval_mass(lo, hi))
    if den <= 0.0 or num <= 0.0:
        raise MeasureGapError("measure gap: window carries no mass")
    return num / den


@dataclass
class BoundaryEntropyEstimate:
    value: float
    stderr: float
    delta_cells: int
    refined_value: float      # same estimator at delta/2
    refined_stderr: float
    gap_fraction: float
    samples: int

    @property
    def refinement_consistent(self) -> bool:
        tol = 2.0 * np.hypot(self.stderr, self.refined_stderr)
        return abs(self.value - self.refined_value) <= max(tol, 1e-12)

    def as_dict(self):
        d = self.__dict__.copy()
        d["refinement_consistent"] = self.refinement_consistent
        return d


def boundary_entropy(
    mu: StepDistribution,
    nu: GridMeasure,
    samples: int = 100_000,
    delta_cells: int = 8,
    seed: int = 0,
) -> BoundaryEntropyEstimate:
    """h_nu = -E log d(g^{-1}nu)/dnu over (g, x) ~ mu x nu, window surrogate.

    Samples landing in measure gaps are discarded and counted; more than
    10% gap hits raises (use a larger window).
    """
    rng = stream(seed, _TAG_BOUNDARY)
    x = nu.sample(rng, samples)
    idx = mu.sample_indices(rng, samples)

    def estimate(cells):
        d = cells / nu.N
        den = nu.interval_mass(x - d, x + d)
        (lo, hi), _ = mu.step(idx, np.stack([wrap(x - d), wrap(x + d)]))
        num = nu.interval_mass(lo, hi)
        ok = (num > 0) & (den > 0)
        vals = -np.log(num[ok] / den[ok])
        return vals, 1.0 - ok.mean()

    vals, gap_frac = estimate(delta_cells)
    if gap_frac > 0.10:
        raise MeasureGapError(
            f"{gap_frac:.1%} of samples hit measure gaps; increase delta (currently {delta_cells} cells)"
        )
    half_cells = max(2, delta_cells // 2)
    vals_h, _ = estimate(half_cells)
    return BoundaryEntropyEstimate(
        float(vals.mean()),
        float(vals.std(ddof=1) / np.sqrt(len(vals))),
        delta_cells,
        float(vals_h.mean()),
        float(vals_h.std(ddof=1) / np.sqrt(len(vals_h))),
        float(gap_frac),
        int(len(vals)),
    )


# ---------------------------------------------------------------------------
# asymptotic entropy
# ---------------------------------------------------------------------------


@dataclass
class AsymptoticEntropyEstimate:
    value: float                 # extrapolated first-difference estimate
    plain_difference: float      # H(mu^{*n}) - H(mu^{*(n-1)}) at n = n_max
    n_max: int
    entropies: np.ndarray        # H(mu^{*k}), k = 0..n_max
    support_sizes: np.ndarray
    fit_window: tuple
    fit_powers: tuple
    sbm_mean: float              # mean of -(1/n) log mu^{*n}(r_n)
    sbm_stderr: float
    sbm_target: float            # H(mu^{*n})/n, the exact expectation
    sbm_samples: int

    @property
    def sbm_consistent(self) -> bool:
        return abs(self.sbm_mean - self.sbm_target) <= 3.0 * max(self.sbm_stderr, 1e-15)

    def as_dict(self):
        d = {k: v for k, v in self.__dict__.items() if not isinstance(v, np.ndarray)}
        d["entropies"] = [float(v) for v in self.entropies]
        d["support_sizes"] = [int(v) for v in self.support_sizes]
        d["sbm_consistent"] = self.sbm_consistent
        return d


def extrapolate_entropy_differences(entropies: np.ndarray, n_max: int):
    """Extrapolate dH_n = H_n - H_{n-1} -> h with a least-squares fit.

    First differences of a subadditive sequence approach the limit like
    h + a/n + b/n^{3/2} + c/n^2 (the fractional power carries the local
    CLT correction of the word-length distribution); fitting the tail of
    the difference sequence removes the bias that a bare last difference
    would keep.
    """
    diffs = np.diff(entropies)
    ns = np.arange(1, n_max + 1)
    window = ns[ns >= 3]
    if len(window) >= 6:
        powers = (1.0, 1.5, 2.0)
    elif len(window) >= 4:
        powers = (1.0, 1.5)
    elif len(window) >= 2:
        powers = (1.0,)
    else:
        return float(diffs[-1]), (n_max, n_max), ()
    d = diffs[window - 1]
    A = np.column_stack([np.ones(len(window))] + [window ** (-p) for p in powers])
    coef, *_ = np.linalg.lstsq(A, d, rcond=None)
    return float(coef[0]), (int(window[0]), int(window[-1])), powers


def asymptotic_entropy(
    mu: StepDistribution,
    n_max: int,
    sbm_samples: int = 2000,
    seed: int = 0,
    quantized: bool = False,
    max_support: int = 40_000_000,
) -> AsymptoticEntropyEstimate:
    """h(G, mu) from exact convolution powers up to n_max.

    Returns the extrapolated first-difference estimate together with the
    full H(mu^{*n}) table and a sampled Shannon-McMillan-Breiman
    diagnostic: the mean of -(1/n) log mu^{*n}(r_n), whose exact
    expectation is H(mu^{*n})/n, must agree within 3 sigma.
    """
    series = convolve_exact(mu, n_max, max_support=max_support, quantized=quantized, words=False)
    h_fit, window, powers = extrapolate_entropy_differences(series.entropies, n_max)
    plain = float(series.entropies[-1] - series.entropies[-2]) if n_max >= 1 else 0.0

    mats = mu.matrices()
    rng = stream(seed, _TAG_SBM)
    if series.quantized:
        cur = np.broadcast_to(np.eye(2), (sbm_samples, 2, 2)).copy()
    else:
        mats = np.round(mats).astype(np.int64)
        cur = np.broadcast_to(np.eye(2, dtype=np.int64), (sbm_samples, 2, 2)).copy()
    for _ in range(n_max):
        idx = mu.sample_indices(rng, sbm_samples)
        cur = cur @ mats[idx]
    vals = series.table.masses_of_matrices(cur)
    if np.any(vals <= 0):
        raise AssertionError("sampled walk endpoint missing from the exact convolution support")
    logs = -np.log(vals) / n_max
    return AsymptoticEntropyEstimate(
        value=max(h_fit, 0.0),
        plain_difference=plain,
        n_max=n_max,
        entropies=series.entropies,
        support_sizes=series.support_sizes,
        fit_window=window,
        fit_powers=tuple(powers),
        sbm_mean=float(logs.mean()),
        sbm_stderr=float(logs.std(ddof=1) / np.sqrt(sbm_samples)),
        sbm_target=float(series.entropies[-1] / n_max),
        sbm_samples=sbm_samples,
    )


# ---------------------------------------------------------------------------
# the entropy-gap report
# ---------------------------------------------------------------------------


@dataclass
class EntropyReport:
    h_asymptotic: float
    h_asymptotic_stderr: float      # extrapolation spread, not statistical
    h_boundary: float
    h_boundary_stderr: float
    n_used: int
    boundary_samples: int
    ratio: float | None
    ratio_stderr: float | None
    poisson_consistent: bool | None
    ratio_undefined: bool
    inequality_ok: bool              # 0 <= h_nu <= h + 2 sigma

    def as_dict(self):
        return self.__dict__.copy()


def entropy_gap_report(
    boundary: BoundaryEntropyEstimate,
    asymptotic: AsymptoticEntropyEstimate,
    tol: float = 0.2,
) -> EntropyReport:
    """Bundle h, h_nu, and their ratio; the Poisson-boundary criterion
    holds exactly when the ratio is 1, flagged within +-tol.
    """
    # spread between the fitted estimate and the plain difference is the
    # honest systematic scale of the extrapolation
    h_se = abs(asymptotic.value - asymptotic.plain_difference) / 2.0
    h = asymptotic.value
    h_nu = boundary.value
    undefined = h <= max(3.0 * h_se, 1e-3)
    if undefined:
        ratio = ratio_se = None
        consistent = None
    else:
        ratio = h_nu / h
        ratio_se = abs(ratio) * float(np.hypot(boundary.stderr / max(h_nu, 1e-12), h_se / h))
        consistent = bool(1.0 - tol <= ratio <= 1.0 + tol)
    ineq = (h_nu >= -2.0 * boundary.stderr) and (h_nu <= h + 2.0 * np.hypot(boundary.stderr, h_se))
    return EntropyReport(
        h_asymptotic=h,
        h_asymptotic_stderr=h_se,
        h_boundary=h_nu,
        h_boundary_stderr=boundary.stderr,
        n_used=asymptotic.n_max,
        boundary_samples=boundary.samples,
        ratio=ratio,
        ratio_stderr=ratio_se,
        poisson_consistent=consistent,
        ratio_undefined=undefined,
        inequality_ok=bool(ineq),
    )


# ---------------------------------------------------------------------------
# weak-convergence probe
# ---------------------------------------------------------------------------


@dataclass
class ConcentrationCurve:
    ns: np.ndarray
    median_width: np.ndarray     # median over trials of the smallest arc with `quantile` mass
    quantile: float
    trials: int

    def as_dict(self):
        return {
            "ns": [int(v) for v in self.ns],
            "median_width": [float(v) for v in self.median_width],
            "quantile": self.quantile,
            "trials": self.trials,
        }


def _least_gap(ext, cq, gap, hit):
    """The least index gap D in [0, N] with ext[i + D] >= cq[i] for some i,
    for ext (2N+1,) nondecreasing and cq (N+1,).  The predicate is monotone
    in D and holds at D = N when cq <= ext[:N+1] + 1, so it is galloped
    from the guess gap (the row's D at the previous step), then bisected:
    O(N log |D - gap|) compares instead of searchsorted's O(N log N).  hit
    (bool, N+1) is scratch."""
    n = len(cq) - 1

    def meets(d):
        return np.greater_equal(ext[d:d + n + 1], cq, out=hit).any()

    # gallop until lo fails (or is -1) and hi meets (or is N), then bisect
    if meets(gap):
        hi, lo, step = gap, gap - 1, 1
        while lo >= 0 and meets(lo):
            hi, step = lo, 2 * step
            lo = hi - step
        lo = max(lo, -1)
    else:
        lo, hi, step = gap, min(gap + 1, n), 1
        while hi < n and not meets(hi):
            lo, step = hi, 2 * step
            hi = min(lo + step, n)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if meets(mid) else (mid, hi)
    return hi


def _arc_widths(ext, q, xg, gaps, widths, cq, hit, w):
    """The smallest width of an arc carrying q in (0, 1] for each CDF row
    ext[t, :N+1] of ext (rows, 2N+1), whose tail ext[t, N+1:] is written
    here as the row's CDF[1:] + 1: from grid[i] the arc reaches xg[idx_i],
    idx_i the first j with ext[j] >= CDF[i] + q.  idx_i - i is least, D,
    exactly at the i with ext[i + D] >= CDF[i] + q, and one index farther
    adds 1/N to a width, so the minimum over those i is the same float as
    the minimum over every i.  gaps (rows,) holds each row's previous D
    and is updated; widths (rows,) receives the widths; cq, hit (bool) and
    w, shaped (N+1,), are scratch."""
    n = len(cq) - 1
    np.add(ext[:, 1:n + 1], 1.0, out=ext[:, n + 1:])
    for t in range(len(gaps)):
        np.add(ext[t, :n + 1], q, out=cq)
        d = gaps[t] = _least_gap(ext[t], cq, gaps[t], hit)
        np.greater_equal(ext[t, d:d + n + 1], cq, out=hit)
        np.subtract(xg[d:d + n + 1], xg[:n + 1], out=w)
        widths[t] = np.minimum.reduce(w, where=hit, initial=np.inf)


def _median_rows(a):
    """np.median(a, axis=0), bit for bit, from a sort (np.median imports numpy.ma)."""
    s = np.sort(a, axis=0)
    m = len(s) // 2
    return s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2.0


def dirac_convergence_probe(
    mu: StepDistribution,
    nu: GridMeasure,
    horizon: int = 50,
    trials: int = 20,
    quantile: float = 0.99,
    seed: int = 0,
) -> ConcentrationCurve:
    """Concentration of r_n nu: per n, the median over seeded trials of the
    smallest arc carrying `quantile` (in (0, 1]) of the pushed-forward mass.

    r_n = g_1 ... g_n grows on the inside, so its grid preimages obey
    r_n^{-1}(grid) = g_n^{-1}(r_{n-1}^{-1}(grid)): one atom inverse per step.
    Trial t draws its `horizon` indices at once from its own stream, the
    same indices as one draw per step, and every trial is stepped at once,
    as one row of a (trials, N+1) array.  A pure Mobius or cover family
    steps the rows as states (`StepDistribution.step_state`: direction
    vectors, and for a cover the sheet) by the inverse atoms, and reads
    positions by arctan2 alone.  Another family (conjugated, or lifts mixed
    with plain atoms) applies each row's inverse atom to that row alone:
    the temporaries of a several-row gather are large enough for the
    allocator to map and unmap them at every step (about 12 000 page
    faults per call on the lifted free pair, against 600 row by row).
    Each row's pushed CDF is built in place by
    `pushforward_from_preimages`' own body, and its smallest arc by a
    galloping search for the least index gap from the row's previous one
    (`_arc_widths`).  Nothing of a row's size is allocated per step on
    the state path.
    """
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {quantile}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    N = nu.N
    steps = np.stack([mu.sample_indices(stream(seed, _TAG_DIRAC, t), horizon) for t in range(trials)])
    inv_mu = StepDistribution([a.inverse() for a in mu.atoms], mu.probs)
    xg = np.concatenate([nu.grid, nu.grid[1:] + 1.0])
    s = np.repeat(inv_mu.state(wrap(nu.grid))[:, None], trials, axis=1)
    buffers = inv_mu.state_buffers(s, (trials, 1))   # one atom per row
    # the preimages and the push's scratch; a state step's scratch rows,
    # which are free between steps, where there are states
    fl, pre = np.empty((2, trials, N + 1)) if buffers is None else buffers.scratch[:2]
    j, moved = np.empty((trials, N + 1), np.intp), np.empty((trials, N + 1), bool)
    ext = np.empty((trials, 2 * N + 1))
    cdf = ext[:, :N + 1]
    cq, hit, w = np.empty(N + 1), np.empty(N + 1, bool), np.empty(N + 1)
    widths = np.empty((trials, horizon + 1))
    gaps = np.full(trials, N)

    cdf[...] = nu.cdf
    _arc_widths(ext, quantile, xg, gaps, widths[:, 0], cq, hit, w)
    for n in range(1, horizon + 1):
        if buffers is not None:
            inv_mu.step_state(steps[:, n - 1:n], s, buffers)
            inv_mu.position(s, pre, buffers)   # fl is its scratch
        else:
            for t, a in enumerate(steps[:, n - 1]):
                s[0, t] = inv_mu.atoms[a].apply(s[0, t])
            np.copyto(pre, s[0])
        nu._push_into(pre, cdf, fl, j, moved)
        _require_cdfs(cdf, fl[:, 1:], moved[:, 1:])
        _arc_widths(ext, quantile, xg, gaps, widths[:, n], cq, hit, w)
    return ConcentrationCurve(np.arange(horizon + 1), _median_rows(widths), quantile, trials)
