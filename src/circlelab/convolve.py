"""Exact convolution powers mu^{*n} on canonical group elements.

Group elements are keyed by their sign-normalized matrix (projective
sign quotient), packed into two int64 arrays (hi, lo).  For integer
unimodular generator families the keys are exact and are the whole
state (each step reads the matrix entries from them); for bounded real
families an explicitly opt-in quantized mode rounds matrix entries to a
fixed resolution and also keeps the float matrices.  Each convolution
step is a vectorized multiply / value-sort / segment-sum that leaves the
keys sorted and unique, so the last step's arrays are the table.  The
sort is `np.lexsort((lo, hi))`'s permutation, built from `np.sort` passes
over the keys' 32-bit halves (`_key_order`), so each element's mass is
summed in the same order as lexsort's.  A step's peak holds about 42
bytes per candidate (support times atom count): keys, three sort
buffers, and the masses, which are formed only after the sort.  Sanov's
pair at n = 14 (7.17 M elements) takes 2.4-2.9 s and peaks at 470 MB
RSS in-process on a 2-core x86 host; n = 15 takes 12 s and 1.24 GB.

On request (`words=True`) the table also tracks one freely reduced
representative word per element (letters are atom indices; appending an
atom cancels against the last letter when it is that atom's inverse).
Only the convolution CSV reads them, so they are off by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .walk import StepDistribution

_OFF = np.int64(1) << np.int64(30)
_ENTRY_LIMIT = int(_OFF) - 1
_HALF_MASK = (np.int64(1) << np.int64(32)) - 1


class ConvolutionBudgetError(RuntimeError):
    """Raised when the support would exceed the memory budget."""

    def __init__(self, feasible_n: int, message: str):
        super().__init__(message)
        self.feasible_n = feasible_n


def _entries(hi: np.ndarray, lo: np.ndarray) -> list:
    """The entries (a, b, c, d) of the int64 matrices whose keys are (hi, lo)."""
    return [(key >> np.int64(32) if k == 0 else key & _HALF_MASK) - _OFF
            for key in (hi, lo) for k in (0, 1)]


def _normalize_signs(entries):
    """Negate, in place, the int64 matrices with entries (a, b, c, d) whose
    first nonzero entry is negative; returns the entries."""
    a, b, c, d = entries
    negative = np.where(a != 0, a < 0, np.where(b != 0, b < 0, np.where(c != 0, c < 0, d < 0)))
    for e in entries:
        np.negative(e, out=e, where=negative)
    return entries


def _pack_into(entries, hi: np.ndarray, lo: np.ndarray):
    """Write to hi and lo the lexicographic keys of the int64 matrices with
    entries (a, b, c, d); the entries are overwritten."""
    # max/min rather than abs: abs(int64 min), the cast of an out-of-range float, stays negative
    if max(e.max() for e in entries) > _ENTRY_LIMIT or min(e.min() for e in entries) < -_ENTRY_LIMIT:
        raise OverflowError("matrix entries exceed the packable range")
    a, b, c, d = (np.add(e, _OFF, out=e) for e in entries)
    np.bitwise_or(np.left_shift(a, 32, out=a), b, out=hi)
    np.bitwise_or(np.left_shift(c, 32, out=c), d, out=lo)


def _keys(mats: np.ndarray, quant: float | None):
    """Sign-normalized packed keys of stacked matrices; real entries round in units of quant (or 1)."""
    if quant is not None:
        mats = mats / quant
    if mats.dtype != np.int64:
        mats = np.round(mats)
    hi, lo = np.empty((2, mats.size // 4), dtype=np.int64)
    _pack_into(_normalize_signs([e.astype(np.int64) for e in mats.reshape(-1, 4).T]), hi, lo)
    return hi, lo


def _key_order(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """`np.lexsort((lo, hi))` of packed keys, as value sorts of uint64 words.

    The keys' 32-bit halves are sorted least significant first (d, c, b,
    a).  A pass sorts (half - min) << index_bits | position with `np.sort`
    and reads its permutation from the low bits: the position breaks ties,
    so each pass is stable and the passes compose to lexsort's permutation.
    Neighbouring halves share a pass while their widths and the index bits
    fit in 64; a half is below 2**31, so one always fits on its own.  The
    halves are gathered into the order so far in one reused scratch buffer
    (`np.take` with mode="clip", a no-op on in-range positions: the
    default mode writes `out=` through a temporary).
    """
    index_bits = (len(hi) - 1).bit_length()
    keys = (lo.view(np.uint64), hi.view(np.uint64))   # packed keys are nonnegative
    scratch = np.empty(len(hi), dtype=np.uint64)

    def half(k, order):   # k = 0..3 for d, c, b, a, in scratch, gathered by order
        key = keys[k // 2] if order is None else np.take(keys[k // 2], order.view(np.int64),
                                                         out=scratch, mode="clip")
        return (np.bitwise_and(key, np.uint64(_HALF_MASK), out=scratch) if k % 2 == 0
                else np.right_shift(key, np.uint64(32), out=scratch))

    bounds = [(int(h.min()), int(h.max())) for h in (half(k, None) for k in range(4))]
    widths = [(top - bottom).bit_length() for bottom, top in bounds]
    passes = [[0]]
    for k in range(1, 4):
        if sum(widths[i] for i in passes[-1]) + widths[k] + index_bits <= 64:
            passes[-1].append(k)
        else:
            passes.append([k])

    order = None
    for halves in passes:
        word = np.arange(len(hi), dtype=np.uint64)
        shift = index_bits
        for k in halves:
            if not widths[k]:   # a constant half orders nothing
                continue
            h = half(k, order)
            h -= np.uint64(bounds[k][0])
            h <<= np.uint64(shift)
            word |= h
            shift += widths[k]
        word.sort()
        word &= np.uint64((1 << index_bits) - 1)
        if order is not None:   # composed in scratch; the old order's buffer is the next scratch
            word, scratch = np.take(order, word.view(np.int64), out=scratch, mode="clip"), order
        order = word
    return order.view(np.int64)


def integer_matrices(mu: StepDistribution) -> np.ndarray | None:
    """mu's atom matrices as int64 when the family is pure Mobius with
    integer entries (to 1e-9), else None."""
    mats = mu.matrices()
    if mats is None:
        return None
    ints = np.round(mats)
    return ints.astype(np.int64) if np.max(np.abs(mats - ints)) <= 1e-9 else None


def _append_letter(words: np.ndarray, lengths: np.ndarray, j: int, inv: int):
    """Reduced words times atom j: cancel the last letter when it is j's inverse, else append."""
    w = words.copy()
    cancel = np.zeros(len(lengths), dtype=bool)
    if inv >= 0:
        has = lengths > 0
        cancel[has] = w[np.nonzero(has)[0], lengths[has] - 1] == inv + 1
    idx_c = np.nonzero(cancel)[0]
    w[idx_c, lengths[idx_c] - 1] = 0
    idx_a = np.nonzero(~cancel)[0]
    w[idx_a, lengths[idx_a]] = j + 1
    return w, lengths + np.where(cancel, -1, 1).astype(lengths.dtype)


@dataclass
class ConvolutionTable:
    """The measure mu^{*n}: packed keys (sorted by (hi, lo), unique), masses,
    and, when built with words=True, representative words."""

    n: int
    hi: np.ndarray
    lo: np.ndarray
    masses: np.ndarray
    words: np.ndarray | None      # (support, n) uint8 letters, 1-based atom indices
    lengths: np.ndarray | None
    quant: float | None = None   # key resolution in quantized mode

    @property
    def support_size(self) -> int:
        return len(self.masses)

    def entropy(self) -> float:
        return entropy_of(self.masses)

    def masses_of_matrices(self, matrices) -> np.ndarray:
        """Masses of the elements given by stacked (k, 2, 2) matrices (0.0 where absent).

        Integer tables take integer matrices; quantized tables accept the
        real matrices and apply the table's own key resolution.  One
        vectorized binary search on the sorted (hi, lo) pairs.
        """
        hi, lo = _keys(np.asarray(matrices), self.quant)
        a = np.searchsorted(self.hi, hi, side="left")
        right = np.searchsorted(self.hi, hi, side="right")
        # lower bound of lo within each run [a, right) of equal hi
        b = right
        last = len(self.lo) - 1
        while np.any(a < b):
            mid = (a + b) // 2
            below = (a < b) & (self.lo[np.minimum(mid, last)] < lo)
            a = np.where(below, mid + 1, a)
            b = np.where(below, b, np.minimum(mid, b))
        k = np.minimum(a, last)
        found = (a < right) & (self.lo[k] == lo)
        return np.where(found, self.masses[k], 0.0)

    def mass_of_matrix(self, matrix) -> float:
        """Mass of the element given by its matrix (0.0 if absent)."""
        return float(self.masses_of_matrices(np.asarray(matrix).reshape(1, 2, 2))[0])

    def word_strings(self, names, limit: int | None = None):
        """(reduced word, mass) rows; words rendered with atom names."""
        if self.words is None:
            raise ValueError("representative words were not built; "
                             "pass words=True to convolve_exact")
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
                   quantized: bool = False, quant: float = 1e-8,
                   words: bool = False) -> ConvolutionSeries:
    """Exact distribution of mu^{*k} for all k <= n.

    With quantized=True, real matrices are admitted and keyed at
    resolution `quant` (documented approximation for bounded families
    such as rotation groups); otherwise non-integer generators are
    rejected.  words=True also builds one reduced representative word
    per element (`ConvolutionTable.word_strings`).
    """
    if n < 0:
        raise ValueError("horizon must be >= 0")
    if quantized:
        atoms = mu.matrices()
        if atoms is None:
            raise ValueError("convolution requires a matrix generator family")
    else:
        atoms = integer_matrices(mu)
        if atoms is None:
            raise ValueError("exact convolution requires integer matrices")
        quant = None

    n_atoms = len(mu)
    inv_letter = mu.inverse_index  # -1 when the inverse is not an atom

    # state: sorted unique keys, masses (and words, float matrices when asked for)
    cur_f = np.eye(2)[None, :, :]
    hi, lo = _keys(cur_f, quant)
    masses = np.array([1.0])
    word_arr = np.zeros((1, max(n, 1)), dtype=np.uint8) if words else None
    lengths = np.zeros(1, dtype=np.int32) if words else None

    entropies = [0.0]
    support_sizes = [1]

    for step in range(1, n + 1):
        m = len(masses)
        if n_atoms * m > max_support:
            raise ConvolutionBudgetError(
                step - 1,
                f"support would exceed budget at n={step}; largest feasible horizon is {step - 1}",
            )
        cur = cur_f if quantized else _entries(hi, lo)
        del hi, lo
        # the entries of cur @ atom j, and a scratch row
        products = None if quantized else np.empty((5, m), dtype=np.int64)
        # candidates, atom-major: candidate j * m + i is support element i times atom j
        cand_hi = np.empty(n_atoms * m, dtype=np.int64)
        cand_lo = np.empty(n_atoms * m, dtype=np.int64)
        if quantized:
            cand_f = np.empty((n_atoms * m, 2, 2))
        if words:
            cand_words = np.empty((n_atoms * m, word_arr.shape[1]), dtype=np.uint8)
            cand_lens = np.empty(n_atoms * m, dtype=lengths.dtype)
        for j in range(n_atoms):
            block = slice(j * m, (j + 1) * m)
            try:
                if quantized:
                    cand_f[block] = cur @ atoms[j]
                    cand_hi[block], cand_lo[block] = _keys(cand_f[block], quant)
                else:
                    for k in range(4):   # entry (k // 2, k % 2), as multiply-adds
                        np.multiply(cur[k & 2], atoms[j][0, k & 1], out=products[k])
                        products[k] += np.multiply(cur[(k & 2) + 1], atoms[j][1, k & 1], out=products[4])
                    _pack_into(_normalize_signs(products[:4]), cand_hi[block], cand_lo[block])
            except OverflowError:
                raise ConvolutionBudgetError(
                    step - 1,
                    f"matrix entries overflow the packed keys at n={step}; "
                    f"largest feasible horizon is {step - 1}",
                ) from None
            if words:
                cand_words[block], cand_lens[block] = _append_letter(
                    word_arr, lengths, j, inv_letter[j])
        del cur, products

        order = _key_order(cand_hi, cand_lo)
        # the candidates' masses in sorted order, m at a time to keep the temporaries small
        sorted_mass = np.empty(len(order))
        for o, out in zip(order.reshape(n_atoms, m), sorted_mass.reshape(n_atoms, m)):
            np.multiply(masses[o % m], mu.probs[o // m], out=out)
        del o, out
        hi = cand_hi[order]
        del cand_hi
        lo = cand_lo[order]
        del cand_lo
        starts = np.flatnonzero(np.concatenate(([True], (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1]))))
        if words:
            word_arr, lengths = cand_words[order[starts]], cand_lens[order[starts]]
        if quantized:
            cur_f = cand_f[order[starts]]
        del order
        hi = hi[starts]
        lo = lo[starts]
        masses = np.add.reduceat(sorted_mass, starts)
        del sorted_mass, starts

        entropies.append(entropy_of(masses))
        support_sizes.append(len(masses))

    table = ConvolutionTable(n, hi, lo, masses, word_arr, lengths, quant)
    return ConvolutionSeries(n, np.array(entropies), np.array(support_sizes), table, quantized)
