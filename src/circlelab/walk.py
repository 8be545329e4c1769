"""Step distributions and seeded random walks on a generator family.

A step distribution mu is a finite list of atoms (maps or words) with
positive weights.  Walks are sampled from counter-based streams, so a
(seed, index) pair pins the whole trajectory.  The estimators read a
walk in both composition orders: r_n = g_1 ... g_n (new letters
multiply on the right; the entropies and the Dirac probe) and
l_n = g_n ... g_1 (new letters act last; the distortion scan).

Every per-step loop steps states (`state`, `step_state`, `position`,
`log_derivative`).  A pure Mobius family's state is a direction vector,
(cos pi x, sin pi x) at the start, and a step is one 2x2 matvec by the
atom's direction matrix, w <- D w, with no normalisation.  The point is
read by arctan2, which ignores the norm, and since every D is unimodular
the log derivative of all steps so far is -log |w|^2: loops read it where
they use it, not at every step.  Each state carries a power-of-two
exponent e, its vector standing for 2^e w; every `rescale_steps` steps
`rescale` moves the vectors' binary exponents into e, exactly, so that no
norm overflows or underflows.  A cover family (each atom the lift to one
degree-k cover of a Mobius map, or its inverse) keeps the base point
u = wrap(k x) as a direction vector and the sheet p = k x - u as a float
integer: a step is the base map's direction step plus an integer carry,
and the point is wrap((u + p) / k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import wrap
from .maps import (
    CUT_NEAR,
    MobiusMap,
    Word,
    direction,
    direction_matrices,
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
# |sin pi (cut - u')| below which a cover step's new base point u' is taken
# to lie at its atom's cut (`LiftedMap._value`'s CUT_NEAR turns)
_SIN_CUT_NEAR = np.sin(np.pi * CUT_NEAR)
# log2 of how far a direction vector's norm may drift between two rescales:
# its square, and the products of two of them, stay normal floats
_RESCALE_BITS = 240
_LOG4 = np.log(4.0)


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
        # direction matrices of the atoms (Mobius) or of their base maps (cover, of degree _k)
        self._dirs = self._k = None
        if self._mats is not None:
            self._mats.flags.writeable = False
            self._dirs = np.ascontiguousarray(direction_matrices(self._mats))
        else:
            steps = [a.cover_step() if hasattr(a, "cover_step") else None for a in self.atoms]
            if all(st is not None and isinstance(st[1], MobiusMap) for st in steps) and \
                    len({st[0] for st in steps}) == 1:
                self._k = steps[0][0]
                self._dirs = np.ascontiguousarray(direction_matrices(np.stack([st[1].matrix for st in steps])))
                cuts = np.array([st[2] for st in steps])
                # per atom: the cut's direction, and offset + 1, the carry when u' lies below the cut
                self._cuts = np.column_stack([direction(cuts).T, [st[3] + 1.0 for st in steps]])
                # at the cut, the carry is offset + [old u > 1/2] + round(cut - u'), which is
                # 0 when u' is on the cut's side of the circle's zero, else this
                self._cut_turn = np.where(cuts > 0.5, 1.0, -1.0)
        # steps between rescales: one step moves log2 |w| by at most log2 of an
        # atom's operator norm, the larger singular value of a unimodular D =
        # [[a, b], [c, d]], (|(a + d, b - c)| + |(a - d, b + c)|) / 2 (the smaller
        # is its inverse); in closed form, as LAPACK's svd would add a megabyte
        # of code pages to a run's peak RSS
        self.rescale_steps = None
        if self._dirs is not None:
            (a, b), (c, d) = np.moveaxis(self._dirs, (-2, -1), (0, 1))
            drift = np.log2(np.max(np.hypot(a + d, b - c) + np.hypot(a - d, b + c)) / 2.0)
            self.rescale_steps = max(1, int(_RESCALE_BITS / drift)) if drift > 0 else 2 ** 62

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
        """The points x as states, stacked on a new first axis.  A pure
        Mobius family's state is the direction vector (cos pi x, sin pi x)
        (complex for complex x) and an exponent e; a cover family's is the
        base point's direction vector, the sheet and e,
        (cos pi u, sin pi u, p, e) with u = wrap(k x) and p = round(k x - u).
        Steps leave the vector unnormalised, its true value being
        2^e times the stored one (`rescale`).  Other families' state is the
        position and the log derivative of the steps so far, (x, 0)."""
        if self._k is not None:
            kx = self._k * np.asarray(x, dtype=float)
            u = wrap(kx)
            return np.concatenate([direction(u), np.round(kx - u)[None], np.zeros_like(u)[None]])
        if self._dirs is None:
            x = np.asarray(x, dtype=float)
            return np.stack([x, np.zeros_like(x)])
        w = direction(x)
        return np.concatenate([w, np.zeros_like(w[:1])])

    def state_buffers(self, s, index_shape=None) -> "StateBuffers | None":
        """Buffers for in-place `step_state(idx, s, out)`, `position(s, out,
        buffers)` and `log_derivative(s, out, buffers)` calls on states
        shaped like s, with idx of index_shape, broadcasting against s[0]
        (by default one index per entry of s's last axis); None for a
        family that steps positions (its steps allocate).  They count the
        steps made in them, for `step_state`'s rescales, so they serve one
        array of states."""
        if self._dirs is None:
            return None
        index_shape = s.shape[-1:] if index_shape is None else tuple(index_shape)
        cover = self._k is not None
        return StateBuffers(np.empty(index_shape + (2, 2)), np.empty((2 + cover,) + s.shape[1:], s.dtype),
                            np.empty(index_shape + (3,)) if cover else None,
                            np.empty((2,) + s.shape[1:], bool) if cover else None,
                            self.rescale_steps)

    def step_state(self, idx, s, out=None):
        """`step` on states: the image states, idx broadcasting against
        s[0].  Pure Mobius families step directions by their direction
        matrices, unnormalised (`maps.mobius_direction_step`: one matvec,
        no trigonometry, square root, division or log; complex directions
        too); cover families step their base point's direction the same way
        and carry the sheet over (`_carry`); other families step positions
        through `step` and add log g' to the state's sum.  With out =
        `state_buffers(s, idx.shape)` (not None), a Mobius or cover step is
        made in place, overwriting s, and allocates nothing; idx is not
        range-checked.  Every `rescale_steps`-th step in the same buffers
        ends with a `rescale`, so that no direction vector's norm leaves
        about 2^+-240; a step without buffers never rescales."""
        if self._dirs is None:
            val, logd = self.step(idx, s[0])
            return np.stack([val, s[1] + logd])
        # take gathers like self._dirs[idx]; into dirs, mode "raise" would buffer it
        mode = "raise" if out is None else "clip"
        if out is None:
            s, out = s.copy(), self.state_buffers(s, np.shape(idx))
            out.until_rescale = 0   # counts down past zero: no rescale
        dirs = self._dirs.take(idx, axis=0, out=out.dirs, mode=mode)
        if self._k is not None:
            self._cuts.take(idx, axis=0, out=out.cuts, mode="clip")
            np.signbit(np.multiply(s[0], s[1], out=out.scratch[0]), out=out.flags[0])   # old u past 1/2
        mobius_direction_step(dirs, s[:2], out.scratch[:2])
        if self._k is not None:
            self._carry(idx, s, out)
        out.until_rescale -= 1
        if out.until_rescale == 0:
            self.rescale(s, out)
            out.until_rescale = self.rescale_steps
        return s

    def _carry(self, idx, s, buffers):
        """Add each stepped cover state's sheet carry to s[2].  The new base
        point u' is on the side of w = s[:2]'s sign bit (`position`), so
        sin pi (cut - u') has the sign of its cross product with the cut's
        direction times w's sine, and u' lies below the cut where that is
        not negative (also where w's sine is a zero).  Where
        |sin pi (cut - u')| = |cross| / |w| is below _SIN_CUT_NEAR the
        branch is the old base point's, as in `LiftedMap._value`: the carry
        is offset + [old u > 1/2] + m, with m = round(cut - u') from whether
        u' and the cut are on one side of the circle's zero."""
        c, sn, p = s[:3]
        cuts, (past_half, below) = buffers.cuts, buffers.flags
        cross, key, t = buffers.scratch
        np.multiply(c, cuts[..., 1], out=cross)
        cross -= np.multiply(sn, cuts[..., 0], out=key)
        np.signbit(np.multiply(cross, sn, out=key), out=below)   # u' at or past the cut
        p += cuts[..., 2]
        np.copyto(key, below)   # a casting ufunc would buffer below
        p -= key
        # cross^2 - _SIN_CUT_NEAR^2 |w|^2, negative within the band
        np.multiply(c, c, out=key)
        key += np.multiply(sn, sn, out=t)
        key *= _SIN_CUT_NEAR ** 2
        np.subtract(np.multiply(cross, cross, out=t), key, out=t)
        if t.min() < 0.0:
            at = np.nonzero(t < 0.0)
            a = np.broadcast_to(idx, p.shape)[at]
            dot = (c[at] * self._cuts[a, 0] + sn[at] * self._cuts[a, 1]) * np.where(np.signbit(sn[at]), -1.0, 1.0)
            turn = np.where(dot > 0.0, 0.0, self._cut_turn[a])
            p[at] += past_half[at] + turn - 1.0 + below[at]

    def rescale(self, s, buffers=None):
        """Scale each real state's direction vector in place by the power of
        two 2^-m that brings its larger entry into [1/2, 1), by np.ldexp,
        and add m to its exponent.  The scaling is exact, so positions,
        signs and carries are bit for bit the same afterwards; complex
        states, which their callers normalise, and other families' states
        are left alone.  buffers (`state_buffers(s, ...)`) give the scratch."""
        if self._dirs is None or np.iscomplexobj(s):
            return
        buffers = self.state_buffers(s) if buffers is None else buffers
        big, other = buffers.scratch[:2]
        np.maximum(np.abs(s[0], out=big), np.abs(s[1], out=other), out=big)
        m = other.view(np.intc)[..., ::2]   # the powers of two, in half of each word of other
        np.frexp(big, out=(big, m))
        np.copyto(big, m)   # a casting ufunc would buffer m
        s[-1] += big
        np.negative(m, out=m)
        np.ldexp(s[0], m, out=s[0])
        np.ldexp(s[1], m, out=s[1])

    def log_derivative(self, s, out=None, buffers=None):
        """log l'(x) of the steps l made since `state(x)`, per state: read as
        -log |2^e w|^2 = -log |w|^2 - e log 4 from a direction vector w
        (complex on complex states, whose real part is log |l'(z)|), or the
        sum a position state keeps.  Written into out (s[0]'s shape) when
        given; with buffers = `state_buffers(s, ...)` as scratch it
        allocates nothing."""
        if self._dirs is None:
            if out is None:
                return s[1].copy()
            np.copyto(out, s[1])
            return out
        scratch = None if buffers is None else buffers.scratch[0]
        out = np.multiply(s[0], s[0], out=out)
        out += np.multiply(s[1], s[1], out=scratch)
        np.log(out, out=out)
        return np.subtract(np.multiply(s[-1], -_LOG4, out=scratch), out, out=out)

    def position(self, s, out=None, buffers=None):
        """The points in [0, 1) of real states s.  A Mobius or cover family
        writes them into out (s[0]'s shape) when given, and with buffers =
        `state_buffers(s, ...)` as scratch allocates nothing.  A direction
        is read by arctan2, whatever its norm.  A cover state's base point
        is u = x + signbit(x), x = arctan2(w_1, w_0) / pi, so u lies in
        [0, 1] on the side of the circle's zero that w's sign bit gives,
        and the point is wrap((u + p mod k) / k)."""
        if self._dirs is None:
            return s[0].copy()
        scratch = None if buffers is None else buffers.scratch[0]
        out = np.arctan2(s[1], s[0], out=out)
        out /= np.pi
        if self._k is not None:
            # a casting ufunc would buffer the sign bits
            scratch = np.empty_like(out) if scratch is None else scratch
            np.copyto(scratch, np.signbit(out, out=None if buffers is None else buffers.flags[0]))
            out += scratch
            sheet = np.floor(np.divide(s[2], self._k, out=scratch), out=scratch)
            sheet *= -self._k
            out += np.add(sheet, s[2], out=sheet)
            out /= self._k
        out -= np.floor(out, out=scratch)
        return out


@dataclass
class StateBuffers:
    """What in-place state steps write (`StepDistribution.state_buffers`).
    scratch and flags are free between calls."""

    dirs: np.ndarray               # the gathered direction matrices, index shape + (2, 2)
    scratch: np.ndarray            # (2, or 3 for a cover) + point shape, in the states' dtype
    cuts: np.ndarray | None        # cover: the gathered cuts and carries, index shape + (3,)
    flags: np.ndarray | None       # cover: bool (2,) + point shape
    until_rescale: int             # steps left before `step_state` rescales


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
