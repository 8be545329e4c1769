"""Semi-conjugation, proximality, minimal-set classification, quotients.

The stationary CDF x -> nu([0, x]) is a monotone degree-one circle map s
collapsing every nu-null gap; it intertwines the action with an induced
minimal action m_g, realized here implicitly by monotone transport
through s (never symbolically).  On top of s sit three diagnostics: a
greedy proximality search (can arcs be shrunk arbitrarily?), a minimal
set classifier (whole circle vs Cantor, decided by nu-null gaps), and a
finite-quotient detector that looks for the largest rotational symmetry
of the straightened action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import Arc, circle_dist, unwrap_increasing, wrap
from .measure import GridMeasure, uniform_cells, uniform_lookup_into
from .walk import StepDistribution


# ---------------------------------------------------------------------------
# semi-conjugation
# ---------------------------------------------------------------------------


@dataclass
class Semiconjugation:
    """s(x) = nu([0, x]) together with the transported generator actions.

    The induced map of a generator g is m_g = s o g o s^{-1}, evaluated
    through the CDF and its generalized inverse on a grid; the
    equivariance defect sup_x dist(s(g x), m_g(s x)) per generator is the
    grid-level certificate that s really intertwines the actions.  Each m_g
    is kept as its values on the straight grid, lifted to a monotone
    sequence once, in the form `uniform_lookup_into` reads.
    """

    nu: GridMeasure
    induced: list                # per generator: `uniform_cells` of lifted m_g on the straight grid
    defects: np.ndarray          # per generator equivariance defect
    generator_names: tuple

    def s(self, x):
        return self.nu.cdf_at(x)

    def induced_map(self, gen_index: int, u):
        return wrap(_lift_at(self.induced[gen_index], wrap(u)))

    def as_dict(self):
        return {
            "defects": {n: float(d) for n, d in zip(self.generator_names, self.defects)},
            "grid_size": self.nu.N,
        }


def semiconjugation_map(nu: GridMeasure, mu: StepDistribution | None = None) -> Semiconjugation:
    """Build s from the CDF; when a step distribution is supplied, also
    transport each generator and report equivariance defects.
    """
    induced, defects, names = [], [], ()
    if mu is not None:
        names = mu.names
        ugrid = np.linspace(0.0, 1.0, nu.N + 1)
        xs = nu.quantile(ugrid)
        sample_x = np.arange(nu.N) / nu.N
        sx = nu.cdf_at(sample_x)
        for atom in mu.atoms:
            m_vals = nu.cdf_at(np.asarray(atom.apply(xs), dtype=float))
            induced.append(uniform_cells(ugrid, unwrap_increasing(m_vals)))
            # defect on the original grid
            s_gx = nu.cdf_at(np.asarray(atom.apply(sample_x), dtype=float))
            defects.append(float(np.max(circle_dist(s_gx, wrap(_lift_at(induced[-1], sx))))))
    return Semiconjugation(nu, induced, np.asarray(defects), names)


def _lift_at(cells, u):
    """A lifted m_g's `uniform_cells` read at u in [0, 1]: np.interp on its
    straight-grid values, bit for bit."""
    x = np.array(u, dtype=float)   # a new array, which the lookup overwrites
    return uniform_lookup_into(cells, x, np.empty_like(x), np.empty(x.shape, np.intp), np.empty(x.shape, bool))


# ---------------------------------------------------------------------------
# proximality
# ---------------------------------------------------------------------------


@dataclass
class ProximalityResult:
    proximal: bool
    witnesses: list              # per test arc: list of atom indices or None
    achieved_lengths: np.ndarray
    arcs: list
    epsilon: float
    cap: int

    def as_dict(self):
        return {
            "proximal": self.proximal,
            "witness_lengths": [len(w) if w is not None else None for w in self.witnesses],
            "achieved_lengths": [float(v) for v in self.achieved_lengths],
            "epsilon": self.epsilon,
            "cap": self.cap,
        }


def default_test_arcs(count: int = 8, length: float = 0.11):
    return [Arc(float(wrap(j / count + 0.013)), length) for j in range(count)]


def proximality_test(
    mu: StepDistribution,
    epsilon: float,
    word_length_cap: int = 40,
    arcs=None,
    lookahead: int = 2,
) -> ProximalityResult:
    """Greedy contraction search: for each test arc, find a word of length
    <= cap mapping it to an arc shorter than epsilon.

    At every step the candidate continuations of depth <= lookahead are
    scored by image length and the best single letter is applied.
    Failure (with the minimum achieved length) is a legitimate outcome:
    isometric families cannot contract anything.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    arcs = default_test_arcs() if arcs is None else arcs
    n_atoms = len(mu.atoms)
    witnesses = []
    achieved = []
    for arc in arcs:
        word: list[int] = []
        lo, hi = arc.left, arc.right
        best_len = arc.length
        while len(word) < word_length_cap and best_len >= epsilon:
            # choose the first letter of the best continuation of depth <= lookahead
            best = None
            stack = [((), lo, hi)]
            for _ in range(lookahead):
                nxt = []
                for prefix, a, b in stack:
                    for j in range(n_atoms):
                        g = mu.atoms[j]
                        ga = float(np.asarray(g.apply(a)))
                        gb = float(np.asarray(g.apply(b)))
                        ln = float(wrap(gb - ga))
                        cand = (prefix + (j,), ga, gb)
                        nxt.append(cand)
                        if best is None or ln < best[1]:
                            best = (cand[0], ln)
                stack = nxt
            step = best[0][0]
            g = mu.atoms[step]
            lo = float(np.asarray(g.apply(lo)))
            hi = float(np.asarray(g.apply(hi)))
            word.append(step)
            new_len = float(wrap(hi - lo))
            if new_len >= best_len:
                # no continuation contracts: greedy has stalled
                if best[1] >= best_len:
                    break
            best_len = min(best_len, new_len)
        cur_len = float(wrap(hi - lo))
        achieved.append(min(best_len, cur_len))
        witnesses.append(list(word) if cur_len < epsilon else None)
    achieved = np.asarray(achieved)
    return ProximalityResult(
        proximal=bool(all(w is not None for w in witnesses)),
        witnesses=witnesses,
        achieved_lengths=achieved,
        arcs=list(arcs),
        epsilon=epsilon,
        cap=word_length_cap,
    )


# ---------------------------------------------------------------------------
# minimal-set classification
# ---------------------------------------------------------------------------


@dataclass
class MinimalSetReport:
    kind: str                    # "whole_circle" | "cantor"
    gaps: list                   # maximal near-null gaps, largest first
    gap_masses: list
    min_gap_length: float
    mass_tolerance: float

    def as_dict(self):
        return {
            "kind": self.kind,
            "gaps": [(float(a.left), float(a.length)) for a in self.gaps],
            "gap_masses": [float(v) for v in self.gap_masses],
            "min_gap_length": self.min_gap_length,
            "mass_tolerance": self.mass_tolerance,
        }


def _light_windows(nu: GridMeasure, mass_tolerance: float):
    """(csum, widths): the cumulative cell masses over two turns, and the
    widest window from each cell carrying less than mass_tolerance, the
    least w <= N with w = N or csum[i + w + 1] - csum[i] >= mass_tolerance.
    The rounded difference is nondecreasing in w, so w is bisected for
    every cell i at once on that predicate, between lo (light, or -1) and
    widths."""
    N = nu.N
    cell = np.diff(nu.cdf)
    csum = np.concatenate([[0.0], np.cumsum(np.concatenate([cell, cell]))])
    lo, widths = np.full(N, -1), np.full(N, N)
    live = np.arange(N)
    while live.size:
        mid = (lo[live] + widths[live]) // 2
        heavy = csum[live + mid + 1] - csum[live] >= mass_tolerance
        widths[live[heavy]], lo[live[~heavy]] = mid[heavy], mid[~heavy]
        live = live[widths[live] - lo[live] > 1]
    return csum, widths


def minimal_set_classify(
    nu: GridMeasure,
    min_gap_cells: int = 10,
    mass_tolerance: float = 1e-3,
    max_gaps: int = 16,
) -> MinimalSetReport:
    """Classify the support of nu: Cantor when some arc longer than
    min_gap_cells grid cells carries less than mass_tolerance of measure.

    The reported gaps are the maximal such arcs (two-pointer sweep over
    the periodically extended CDF), largest first.
    """
    N = nu.N
    csum, widths = _light_windows(nu, mass_tolerance)
    gaps = []
    masses = []
    used = np.zeros(N, dtype=bool)
    for i in np.argsort(widths)[::-1]:
        w = int(widths[i])
        if w <= min_gap_cells:
            break
        if used[np.arange(i, i + w) % N].any():
            continue
        used[np.arange(i, i + w) % N] = True
        gaps.append(Arc(i / N, w / N))
        masses.append(float(csum[i + w] - csum[i]))
        if len(gaps) >= max_gaps:
            break
    kind = "cantor" if gaps else "whole_circle"
    return MinimalSetReport(kind, gaps, masses, min_gap_cells / N, mass_tolerance)


# ---------------------------------------------------------------------------
# finite quotient
# ---------------------------------------------------------------------------


@dataclass
class QuotientReport:
    degree: int
    commutation_defects: dict    # q -> defect of rotation-by-1/q in straightened coords
    tolerance: float

    def as_dict(self):
        return {
            "degree": self.degree,
            "commutation_defects": {int(q): float(d) for q, d in self.commutation_defects.items()},
            "tolerance": self.tolerance,
        }


def finite_quotient_detect(
    sc: Semiconjugation,
    q_max: int,
    tolerance: float = 2e-2,
) -> QuotientReport:
    """Largest q <= q_max such that rotation by 1/q commutes with every
    straightened generator action of sc (`semiconjugation_map(nu, mu)`)
    within tolerance; d = 1 means the straightened action is already
    proximal-compatible.

    The straightened action of g is m_g = s o g o s^{-1} on the CDF
    coordinate, where nu becomes Lebesgue; the candidate symmetry is the
    exact rotation u -> u + 1/q there.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    M = 2048
    ugrid = np.arange(M) / M
    straightened = [sc.induced_map(k, ugrid) for k in range(len(sc.induced))]
    defects = {}
    degree = 1
    for q in range(q_max, 0, -1):
        worst = 0.0
        for k in range(len(sc.induced)):
            lhs = sc.induced_map(k, wrap(ugrid + 1.0 / q))
            rhs = wrap(straightened[k] + 1.0 / q)
            worst = max(worst, float(np.max(circle_dist(lhs, rhs))))
        defects[q] = worst
        if worst <= tolerance:
            degree = q
            break
    return QuotientReport(degree, defects, tolerance)


def quotient_boundary_entropy(
    report: QuotientReport,
    sc: Semiconjugation,
    mu: StepDistribution,
    samples: int = 50_000,
    delta: float | None = None,
    seed: int = 0,
) -> tuple[float, float]:
    """Boundary entropy of the degree-d quotient action of mu, straightened
    by sc (`semiconjugation_map(nu, mu)`).

    In the straightened coordinate the quotient measure is Lebesgue on a
    circle of circumference 1/d rescaled to 1, and the quotient maps are
    u -> d * m_g(u/d) mod 1; the Radon-Nikodym windows become plain arc
    length ratios.  The default window spans 8 grid cells of the cover's
    straightened coordinate regardless of the degree, so estimates at
    different degrees share their finite-window bias.
    """
    from .rng import stream

    d = report.degree
    if delta is None:
        delta = 8.0 * d / sc.nu.N
    rng = stream(seed, 0x51554F54)
    u = rng.random(samples)
    idx = mu.sample_indices(rng, samples)
    vals = np.empty(samples)
    for k in range(len(mu.atoms)):
        sel = idx == k
        if not np.any(sel):
            continue
        lo = wrap(d * sc.induced_map(k, (u[sel] - delta) / d))
        hi = wrap(d * sc.induced_map(k, (u[sel] + delta) / d))
        num = wrap(hi - lo)
        vals[sel] = -np.log(num / (2 * delta))
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(samples))
