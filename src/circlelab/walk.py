"""Step distributions and seeded random walks on a generator family.

A step distribution mu is a finite list of atoms (maps or words) with
positive weights.  Walks are sampled from counter-based streams, so a
(seed, index) pair pins the whole trajectory.  Both composition orders
are exposed: r_n = g_1 ... g_n (new letters multiply on the right) and
l_n = g_n ... g_1 (new letters act last).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import circle_dist
from .maps import MobiusMap, Word
from .rng import stream

_FINGERPRINT_POINTS = np.array([0.137, 0.391, 0.823])


def canonical_key(map_like, quant: float = 1e-9):
    """Hashable group-element key.

    Pure Mobius maps get their sign-normalized matrix: exact integer
    entries when unimodular-integer, else entries quantized to `quant`.
    Other map types get a quantized action fingerprint (values and log
    derivatives at three fixed probe points).
    """
    m = None
    if isinstance(map_like, MobiusMap):
        m = map_like.matrix
    elif isinstance(map_like, Word):
        m = map_like.matrix()
    if m is not None:
        flat = m.ravel().copy()
        lead = flat[np.nonzero(np.abs(flat) > quant)[0]]
        if lead.size and lead[0] < 0:
            flat = -flat
        ints = np.round(flat)
        if np.max(np.abs(flat - ints)) <= 1e-9 * max(1.0, np.max(np.abs(flat))):
            return ("m", tuple(int(v) for v in ints))
        return ("q", tuple(int(v) for v in np.round(flat / quant)))
    j = map_like.jet(_FINGERPRINT_POINTS)
    vals = np.concatenate([np.asarray(j.value), np.log(np.asarray(j.d1))])
    return ("f", tuple(int(v) for v in np.round(vals / quant)))


class StepDistribution:
    """Finitely supported probability measure on a generator family."""

    def __init__(self, atoms, probs, symmetric: bool = False, names=None):
        if len(atoms) == 0:
            raise ValueError("empty atom list")
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (len(atoms),):
            raise ValueError("one weight per atom required")
        if np.any(probs <= 0):
            raise ValueError("atom weights must be strictly positive")
        self.atoms = tuple(atoms)
        self.probs = probs / probs.sum()
        self.names = tuple(names) if names is not None else tuple(f"g{i}" for i in range(len(atoms)))
        self.symmetric = bool(symmetric)

        keys = [canonical_key(a) for a in self.atoms]
        inv_keys = [canonical_key(a.inverse()) for a in self.atoms]
        lookup = {}
        for i, k in enumerate(keys):
            lookup.setdefault(k, i)
        self.inverse_index = np.array([lookup.get(k, -1) for k in inv_keys], dtype=int)
        if self.symmetric:
            for i, j in enumerate(self.inverse_index):
                if j < 0 or abs(self.probs[i] - self.probs[j]) > 1e-12:
                    raise ValueError("symmetry flag set but support is not inverse-closed with equal weights")

        self._cum = np.cumsum(self.probs)
        # per-atom seminorms by (tau, grid_size), filled by distortion.atom_seminorms
        self.seminorm_cache = {}

    def __len__(self):
        return len(self.atoms)

    def sample_indices(self, rng: np.random.Generator, size) -> np.ndarray:
        u = rng.random(size)
        return np.searchsorted(self._cum, u, side="right").clip(0, len(self.atoms) - 1)

    def matrices(self):
        """Stacked atom matrices when the family is pure Mobius, else None."""
        mats = []
        for a in self.atoms:
            if isinstance(a, MobiusMap):
                mats.append(a.matrix)
            elif isinstance(a, Word):
                m = a.matrix()
                if m is None:
                    return None
                mats.append(m)
            else:
                return None
        return np.stack(mats)


def make_step_distribution(atoms, probs, symmetric: bool = False, names=None) -> StepDistribution:
    return StepDistribution(atoms, probs, symmetric=symmetric, names=names)


@dataclass
class WalkTrajectory:
    """A seeded walk: the atom indices of its steps, composed on demand as words."""

    distribution: StepDistribution
    seed: int
    steps: np.ndarray

    def __len__(self):
        return len(self.steps)

    def l_word(self, n: int | None = None) -> Word:
        """l_n = g_n ... g_1 (g_1 applied first)."""
        n = len(self.steps) if n is None else n
        return Word(tuple(self.distribution.atoms[k] for k in self.steps[:n]))

    def r_word(self, n: int | None = None) -> Word:
        """r_n = g_1 ... g_n (g_n applied first)."""
        n = len(self.steps) if n is None else n
        return Word(tuple(self.distribution.atoms[k] for k in self.steps[:n][::-1]))


def sample_walk(mu: StepDistribution, n: int, seed: int, *path: int) -> WalkTrajectory:
    """n i.i.d. steps from mu on the stream addressed by (seed, *path)."""
    if n < 0:
        raise ValueError("walk length must be >= 0")
    rng = stream(seed, 0x57414C4B, *path)  # 'WALK' tag keeps walk streams apart
    steps = mu.sample_indices(rng, n)
    return WalkTrajectory(mu, seed, steps)


def pointwise_equal(map_a, map_b, tol: float = 1e-10, points=_FINGERPRINT_POINTS) -> bool:
    """Whether two maps act identically on the probe points (up to tol)."""
    return bool(np.all(circle_dist(map_a.apply(points), map_b.apply(points)) <= tol))
