"""Step distributions and seeded random walks on a generator family.

A step distribution mu is a finite list of atoms (maps or words) with
positive weights.  Walks are sampled from counter-based streams, so a
(seed, index) pair pins the whole trajectory.  The estimators read a
walk in both composition orders: r_n = g_1 ... g_n (new letters
multiply on the right; the entropies and the Dirac probe) and
l_n = g_n ... g_1 (new letters act last; the distortion scan).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import (
    MobiusMap,
    Word,
    direction,
    direction_matrices,
    direction_position,
    mobius_direction_step,
    mobius_value_logd,
)
from .rng import stream

_FINGERPRINT_POINTS = np.array([0.137, 0.391, 0.823])
# most atoms `sample_indices` draws by comparisons: on 400 000 draws (numpy 2.4,
# 2-core x86) they took 0.17 of searchsorted's time at 4 atoms, 0.6 at 32, 1 at 64
_COMPARE_ATOMS = 32
# uniforms `sample_indices` draws and compares at a time, so that a chunk
# and its masks stay in cache: over the 16 draws of one near-identity
# search (6144 x 10..40, numpy 2.4, 2-core x86) chunks of 2048, 4096, 8192
# and 15000 took 35, 26, 22 and 24 ms, about 20 of them Philox's
_DRAW_CHUNK = 8192


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
        mats = [a.matrix if isinstance(a, MobiusMap) else a.matrix() if isinstance(a, Word) else None
                for a in self.atoms]
        self._mats = None if any(m is None for m in mats) else np.stack(mats)
        self._dirs = None
        if self._mats is not None:
            self._mats.flags.writeable = False
            self._dirs = np.ascontiguousarray(direction_matrices(self._mats))

    def __len__(self):
        return len(self.atoms)

    def sample_indices(self, rng: np.random.Generator, size) -> np.ndarray:
        """searchsorted(cum, u, side="right").clip(0, n - 1) for u = rng.random(size),
        as intp.  Up to _COMPARE_ATOMS atoms it is counted as
        sum_{j < n-1} (u >= cum[j]) in uint8, a chunk at a time: u is drawn
        _DRAW_CHUNK at a time into one buffer by `random(out=)`, in C order,
        so the stream is consumed as by one draw of the whole size."""
        if len(self.atoms) > _COMPARE_ATOMS:
            u = rng.random(size)
            return np.searchsorted(self._cum, u, side="right").clip(0, len(self.atoms) - 1)
        idx = np.empty(() if size is None else size, dtype=np.intp)
        flat = idx.reshape(-1)
        u_buf = np.empty(min(flat.size, _DRAW_CHUNK))
        ge_buf, count_buf = np.empty(len(u_buf), dtype=bool), np.empty(len(u_buf), dtype=np.uint8)
        for start in range(0, flat.size, _DRAW_CHUNK):
            u = rng.random(out=u_buf[:flat.size - start])
            ge, count = ge_buf[:len(u)], count_buf[:len(u)]
            count.fill(0)
            for c in self._cum[:-1]:
                count += np.greater_equal(u, c, out=ge)
            flat[start:start + len(u)] = count
        return idx[()]

    def matrices(self):
        """Stacked atom matrices (read-only) when the family is pure Mobius, else None."""
        return self._mats

    def step(self, idx, x):
        """(g_idx(x), log g_idx'(x)) for atom indices idx broadcasting against x,
        for one-shot callers (per-step loops step `state`s).  Pure Mobius
        families act through their stacked matrices, other families through
        each atom's jet on the points that drew it."""
        x = np.asarray(x, dtype=float)
        if self._mats is not None:
            # np.take gathers like self._mats[idx], in a tenth of the time
            return mobius_value_logd(np.take(self._mats, idx, axis=0), x)
        idx = np.broadcast_to(idx, x.shape)
        val, logd = np.empty_like(x), np.empty_like(x)
        for j, atom in enumerate(self.atoms):
            sel = idx == j
            if sel.any():
                v, d1 = atom.value_d1(x[sel])
                val[sel], logd[sel] = v, np.log(d1)
        return val, logd

    # -- states: what every per-step loop steps ---------------------------

    def state(self, x):
        """The points x as states, stacked on a new first axis: direction
        vectors (cos pi x, sin pi x) for a pure Mobius family, complex ones
        for complex x, the positions themselves for other families."""
        return direction(x) if self._dirs is not None else np.asarray(x, dtype=float)[None].copy()

    def state_buffers(self, s, index_shape=None):
        """Buffers for in-place `step_state(idx, s, out)` calls on states
        shaped like s, with idx of index_shape, broadcasting against s[0]
        (by default one index per entry of s's last axis); None for a
        family that steps positions (its steps allocate)."""
        if self._dirs is None:
            return None
        index_shape = s.shape[-1:] if index_shape is None else index_shape
        return np.empty(tuple(index_shape) + (2, 2)), np.empty((3,) + s.shape[1:])

    def step_state(self, idx, s, out=None):
        """`step` on states: (image states, log g_idx'), idx broadcasting
        against s[0].  Pure Mobius families act on directions by their
        direction matrices, with no trigonometry (log g' complex on complex
        ones); other families step positions through `step`.  With
        out = `state_buffers(s, idx.shape)` (not None), a Mobius step is made in
        place: the images overwrite s and log g' is a view of out, both
        valid until the next step in the same buffers; nothing is
        allocated, and idx is not range-checked."""
        if self._dirs is not None:
            dirs, uvr = (None, None) if out is None else out
            # np.take gathers like self._dirs[idx]; into dirs, mode "raise" would buffer it
            dirs = np.take(self._dirs, idx, axis=0, out=dirs, mode="raise" if out is None else "clip")
            return mobius_direction_step(dirs, s, uvr)
        val, logd = self.step(idx, s[0])
        return val[None], logd

    def position(self, s):
        """The points in [0, 1) of real states s."""
        return direction_position(s) if self._dirs is not None else s[0].copy()


def make_step_distribution(atoms, probs, symmetric: bool = False, names=None) -> StepDistribution:
    return StepDistribution(atoms, probs, symmetric=symmetric, names=names)


@dataclass
class WalkTrajectory:
    """A seeded walk: the atom indices of its steps, which the estimators
    step through `StepDistribution.step_state`.  steps may also be a
    (walks, n) batch, one walk per row, which the distortion checks take
    whole."""

    distribution: StepDistribution
    seed: int
    steps: np.ndarray

    def __len__(self):
        return len(self.steps)


def sample_walk(mu: StepDistribution, n: int, seed: int, *path: int) -> WalkTrajectory:
    """n i.i.d. steps from mu on the stream addressed by (seed, *path)."""
    if n < 0:
        raise ValueError("walk length must be >= 0")
    rng = stream(seed, 0x57414C4B, *path)  # 'WALK' tag keeps walk streams apart
    steps = mu.sample_indices(rng, n)
    return WalkTrajectory(mu, seed, steps)


def sample_walks(mu: StepDistribution, n: int, seed: int, count: int) -> WalkTrajectory:
    """count walks of n steps as one batch: row k is sample_walk(mu, n, seed, k).steps."""
    return WalkTrajectory(mu, seed, np.stack([sample_walk(mu, n, seed, k).steps for k in range(count)]))
