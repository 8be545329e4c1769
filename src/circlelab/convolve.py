"""Exact convolution powers mu^{*n} on canonical group elements.

Group elements are keyed by their sign-normalized matrix (projective
sign quotient), packed into two int64 arrays (hi, lo).  For integer
unimodular generator families the keys are exact and are the whole
state (each step unpacks the matrices from them); for bounded real
families an explicitly opt-in quantized mode rounds matrix entries to a
fixed resolution and also keeps the float matrices.  Each convolution
step is a vectorized multiply / sort / segment-sum that leaves the keys
sorted and unique, so the last step's arrays are the table; horizons
around n = 14 on four-atom free families (supports of several million
reduced words) stay within seconds and a couple of GB.

Alongside the matrix key the table tracks one freely reduced
representative word per element (letters are atom indices; appending an
atom cancels against the last letter when it is that atom's inverse).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .walk import StepDistribution

_OFF = np.int64(1) << np.int64(30)
_ENTRY_LIMIT = int(_OFF) - 1


class ConvolutionBudgetError(RuntimeError):
    """Raised when the support would exceed the memory budget."""

    def __init__(self, feasible_n: int, message: str):
        super().__init__(message)
        self.feasible_n = feasible_n


def _pack(mats: np.ndarray):
    """Pack sign-normalized int64 matrices into lexicographic (hi, lo) keys."""
    flat = mats.reshape(-1, 4)
    # max/min rather than abs: abs(int64 min), the cast of an out-of-range float, stays negative
    if flat.max() > _ENTRY_LIMIT or flat.min() < -_ENTRY_LIMIT:
        raise OverflowError("matrix entries exceed the packable range")
    a, b, c, d = (flat[:, k] + _OFF for k in range(4))
    hi = (a << np.int64(32)) | b
    lo = (c << np.int64(32)) | d
    return hi, lo


def _unpack(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The int64 matrices whose keys are (hi, lo); the inverse of `_pack`."""
    mask = (np.int64(1) << np.int64(32)) - 1
    flat = np.stack([hi >> np.int64(32), hi & mask, lo >> np.int64(32), lo & mask], axis=-1)
    return (flat - _OFF).reshape(-1, 2, 2)


def _keys(mats: np.ndarray, quant: float | None):
    """Sign-normalized packed keys of stacked matrices; real entries round in units of quant (or 1)."""
    if quant is not None:
        mats = mats / quant
    if mats.dtype != np.int64:
        mats = np.round(mats).astype(np.int64)
    flat = mats.reshape(-1, 4)
    lead = np.where(flat[:, 0] != 0, flat[:, 0],
                    np.where(flat[:, 1] != 0, flat[:, 1],
                             np.where(flat[:, 2] != 0, flat[:, 2], flat[:, 3])))
    return _pack(mats * np.where(lead < 0, -1, 1)[:, None, None])


def _integer_matrices(mu: StepDistribution) -> np.ndarray:
    mats = mu.matrices()
    if mats is None:
        raise ValueError("exact convolution requires integer matrices")
    ints = np.round(mats)
    if np.max(np.abs(mats - ints)) > 1e-9:
        raise ValueError("exact convolution requires integer matrices")
    return ints.astype(np.int64)


@dataclass
class ConvolutionTable:
    """The measure mu^{*n}: packed keys (sorted by (hi, lo), unique), masses, representative words."""

    n: int
    hi: np.ndarray
    lo: np.ndarray
    masses: np.ndarray
    words: np.ndarray      # (support, n) uint8 letters, 1-based atom indices
    lengths: np.ndarray
    quant: float | None = None   # key resolution in quantized mode

    @property
    def support_size(self) -> int:
        return len(self.masses)

    def entropy(self) -> float:
        return entropy_of(self.masses)

    def mass_of_matrix(self, matrix) -> float:
        """Mass of the element given by its matrix (0.0 if absent).

        Integer tables take integer matrices; quantized tables accept the
        real matrix and apply the table's own key resolution.
        """
        hi, lo = _keys(np.asarray(matrix).reshape(1, 2, 2), self.quant)
        left = np.searchsorted(self.hi, hi[0], side="left")
        right = np.searchsorted(self.hi, hi[0], side="right")
        if left == right:
            return 0.0
        k = left + np.searchsorted(self.lo[left:right], lo[0], side="left")
        if k < right and self.lo[k] == lo[0]:
            return float(self.masses[k])
        return 0.0

    def word_strings(self, names, limit: int | None = None):
        """(reduced word, mass) rows; words rendered with atom names."""
        count = self.support_size if limit is None else min(limit, self.support_size)
        order = np.argsort(self.masses)[::-1][:count]
        rows = []
        for i in order:
            letters = self.words[i, : self.lengths[i]]
            rows.append(("." .join(names[l - 1] for l in letters) or "id", float(self.masses[i])))
        return rows


def entropy_of(masses) -> float:
    """Shannon entropy (nats) of a probability vector."""
    p = np.asarray(masses, dtype=float)
    p = p[p > 0]
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"masses sum to {total}, not a probability vector")
    return float(-(p * np.log(p)).sum())


@dataclass
class ConvolutionSeries:
    """Entropies and support sizes of mu^{*k} for k = 0..n, plus the final table."""

    n: int
    entropies: np.ndarray
    support_sizes: np.ndarray
    table: ConvolutionTable
    quantized: bool


def convolve_exact(mu: StepDistribution, n: int, max_support: int = 40_000_000,
                   quantized: bool = False, quant: float = 1e-8) -> ConvolutionSeries:
    """Exact distribution of mu^{*k} for all k <= n.

    With quantized=True, real matrices are admitted and keyed at
    resolution `quant` (documented approximation for bounded families
    such as rotation groups); otherwise non-integer generators are
    rejected.
    """
    if n < 0:
        raise ValueError("horizon must be >= 0")
    if quantized:
        atoms = mu.matrices()
        if atoms is None:
            raise ValueError("convolution requires a matrix generator family")
    else:
        atoms = _integer_matrices(mu)
        quant = None

    n_atoms = len(mu)
    inv_letter = mu.inverse_index  # -1 when the inverse is not an atom

    # state: sorted unique keys, masses, words (and float matrices when quantized)
    cur_f = np.eye(2)[None, :, :]
    hi, lo = _keys(cur_f, quant)
    masses = np.array([1.0])
    width = max(n, 1)
    words = np.zeros((1, width), dtype=np.uint8)
    lengths = np.zeros(1, dtype=np.int32)

    entropies = [0.0]
    support_sizes = [1]

    for step in range(1, n + 1):
        m = len(masses)
        if 4 * m > max_support or n_atoms * m > max_support:
            raise ConvolutionBudgetError(
                step - 1,
                f"support would exceed budget at n={step}; largest feasible horizon is {step - 1}",
            )
        cur = cur_f if quantized else _unpack(hi, lo)
        cand_mass = []
        cand_hi = []
        cand_lo = []
        cand_words = []
        cand_lens = []
        cand_mats_f = []
        for j in range(n_atoms):
            prod = cur @ atoms[j]
            try:
                hi_j, lo_j = _keys(prod, quant)
            except OverflowError:
                raise ConvolutionBudgetError(
                    step - 1,
                    f"matrix entries overflow the packed keys at n={step}; "
                    f"largest feasible horizon is {step - 1}",
                ) from None
            cand_hi.append(hi_j)
            cand_lo.append(lo_j)
            if quantized:
                cand_mats_f.append(prod)
            cand_mass.append(masses * mu.probs[j])
            w = words.copy()
            ln = lengths.copy()
            if inv_letter[j] >= 0:
                last = np.zeros(m, dtype=np.uint8)
                has = ln > 0
                last[has] = w[np.nonzero(has)[0], ln[has] - 1]
                cancel = has & (last == inv_letter[j] + 1)
            else:
                cancel = np.zeros(m, dtype=bool)
            idx_c = np.nonzero(cancel)[0]
            w[idx_c, ln[idx_c] - 1] = 0
            ln_new = ln - 1 * cancel
            idx_a = np.nonzero(~cancel)[0]
            w[idx_a, ln[idx_a]] = j + 1
            ln_new = ln_new + 1 * (~cancel)
            cand_words.append(w)
            cand_lens.append(ln_new)

        hi = np.concatenate(cand_hi)
        lo = np.concatenate(cand_lo)
        mass = np.concatenate(cand_mass)
        wds = np.concatenate(cand_words)
        lns = np.concatenate(cand_lens)

        order = np.lexsort((lo, hi))
        hi, lo, mass, wds, lns = hi[order], lo[order], mass[order], wds[order], lns[order]
        new_group = np.empty(len(hi), dtype=bool)
        new_group[0] = True
        new_group[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
        starts = np.nonzero(new_group)[0]
        hi = hi[starts]
        lo = lo[starts]
        masses = np.add.reduceat(mass, starts)
        words = wds[starts]
        lengths = lns[starts]
        if quantized:
            cur_f = np.concatenate(cand_mats_f)[order[starts]]

        entropies.append(entropy_of(masses))
        support_sizes.append(len(masses))

    table = ConvolutionTable(n, hi, lo, masses, words, lengths, quant)
    return ConvolutionSeries(n, np.array(entropies), np.array(support_sizes), table, quantized)
