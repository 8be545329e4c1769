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
summed in the same order as lexsort's.  The elementwise work (candidate
keys, sort words, masses, runs) runs in chunks of _CHUNK elements, so a
chunk's temporaries stay in cache, and writes into buffers already spent.
Masses are formed over the order and summed a slice of whole runs at a
time into the prefixes of the candidate-sized buffers, which then shrink
in place.  A step's peak holds about 26 bytes per candidate (support
times atom count) and the chunk temporaries: the keys and the last sort
pass's word, then the sorted keys and the order, each beside the old
masses.  Sanov's pair at n = 14 (7.17 M elements) takes 1.6-1.9 s and
peaks at 283 MB RSS in-process on a 2-core x86 host; at n = 15 its keys
need three sort passes, which hold 32 bytes per key: 6.2 s and 976 MB.

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
# elements per chunk of a step's elementwise work: a chunk's temporaries stay in cache
_CHUNK = 1 << 16


class ConvolutionBudgetError(RuntimeError):
    """Raised when the support would exceed the memory budget."""

    def __init__(self, feasible_n: int, message: str):
        super().__init__(message)
        self.feasible_n = feasible_n


def _chunks(size: int):
    """Consecutive slices of at most _CHUNK elements covering [0, size)."""
    return (slice(i, min(i + _CHUNK, size)) for i in range(0, size, _CHUNK))


def _entries(hi: np.ndarray, lo: np.ndarray) -> list:
    """The entries (a, b, c, d) of the int64 matrices whose keys are (hi, lo)."""
    return [(key >> np.int64(32) if k == 0 else key & _HALF_MASK) - _OFF
            for key in (hi, lo) for k in (0, 1)]


def _normalize_signs(entries):
    """Negate, in place, the int64 matrices with entries (a, b, c, d) whose
    first nonzero entry is negative; returns the entries."""
    a, b, c, d = entries
    negative = d < 0
    for e in (c, b, a):   # e < 0, or e == 0 and the sign of the rest
        negative &= e == 0
        negative |= e < 0
    for e in entries:
        np.negative(e, out=e, where=negative)
    return entries


def _products(cur, atom: np.ndarray, out: np.ndarray):
    """The entries (a, b, c, d) of the int64 matrices with entries cur times
    atom, as multiply-adds into out[:4]; out[4] is scratch."""
    for k in range(4):   # entry (k // 2, k % 2)
        np.multiply(cur[k & 2], atom[0, k & 1], out=out[k])
        out[k] += np.multiply(cur[(k & 2) + 1], atom[1, k & 1], out=out[4])
    return out[:4]


def _no_bounds() -> list:
    """Empty [min, max] bounds of the four 32-bit key halves, for `_pack_into` to widen."""
    return [[1 << 32, -1] for _ in range(4)]


def _pack_into(entries, hi: np.ndarray, lo: np.ndarray, bounds: list):
    """Write to hi and lo the lexicographic keys of the int64 matrices with
    entries (a, b, c, d), which are overwritten, and widen bounds, the
    [min, max] of the key halves a, b, c, d (entry + 2**30) so far."""
    # max/min rather than abs: abs(int64 min), the cast of an out-of-range float, stays negative
    span = [(int(e.min()), int(e.max())) for e in entries]
    if max(top for _, top in span) > _ENTRY_LIMIT or min(bottom for bottom, _ in span) < -_ENTRY_LIMIT:
        raise OverflowError("matrix entries exceed the packable range")
    for bound, (bottom, top) in zip(bounds, span):
        bound[0] = min(bound[0], bottom + int(_OFF))
        bound[1] = max(bound[1], top + int(_OFF))
    a, b, c, d = (np.add(e, _OFF, out=e) for e in entries)
    np.bitwise_or(np.left_shift(a, 32, out=a), b, out=hi)
    np.bitwise_or(np.left_shift(c, 32, out=c), d, out=lo)


def _rounded_entries(mats: np.ndarray, quant: float | None) -> list:
    """The int64 entries (a, b, c, d) of stacked matrices, real ones rounded in units of quant (or 1)."""
    if quant is not None:
        mats = mats / quant
    if mats.dtype != np.int64:
        mats = np.round(mats)
    return [e.astype(np.int64) for e in mats.reshape(-1, 4).T]


def _keys(mats: np.ndarray, quant: float | None):
    """Sign-normalized packed keys of stacked matrices; real entries round in units of quant (or 1)."""
    hi, lo = np.empty((2, mats.size // 4), dtype=np.int64)
    _pack_into(_normalize_signs(_rounded_entries(mats, quant)), hi, lo, _no_bounds())
    return hi, lo


def _pass_layout(bounds: list, size: int):
    """The sort passes of `_key_order` for `size` keys whose halves a, b,
    c, d have [min, max] bounds: returns (bottoms, widths, passes), with
    halves numbered k = 0..3 for d, c, b, a and each pass a list of them.

    The non-constant halves go least significant first; neighbours share
    a pass while their widths and the index bits fit in 64.  A half is
    below 2**31, so one always fits on its own.
    """
    bottoms = [bounds[3 - k][0] for k in range(4)]
    widths = [(bounds[3 - k][1] - bottoms[k]).bit_length() for k in range(4)]
    index_bits = (size - 1).bit_length()
    passes = []
    for k in (k for k in range(4) if widths[k]):   # a constant half orders nothing
        if passes and sum(widths[i] for i in passes[-1]) + widths[k] + index_bits <= 64:
            passes[-1].append(k)
        else:
            passes.append([k])
    return bottoms, widths, passes


def _key_order(hi: np.ndarray, lo: np.ndarray, bounds: list):
    """`np.lexsort((lo, hi))` of packed keys as value sorts of uint64 words,
    and the keys in that order: returns (order, hi, lo), int64 arrays of
    the keys' length that own their buffers.

    bounds are the [min, max] of the key halves a, b, c, d, as from
    `_pack_into`.  A pass of `_pass_layout` sorts the word (half - min)
    << index_bits | position with `np.sort`: the position breaks ties, so
    each pass is stable and the passes compose to lexsort's permutation.
    Sorted words stay whole, their index bits made candidate indices, and
    the next pass gathers the key words through them.  One gather of the
    pass before the last's words through the last pass's index bits gives
    their halves and the order; the last pass's word gives its own, and a
    key word with a half in an earlier pass is gathered through the order.
    Spent buffers take the next words, the sorted keys and the order: two
    passes with lo's halves in the first hold 24 bytes per key, others 32.
    """
    size = len(hi)
    bottoms, widths, passes = _pass_layout(bounds, size)
    if not passes:   # all keys equal
        return np.arange(size), hi, lo
    index_bits = (size - 1).bit_length()
    index_mask = np.uint64((1 << index_bits) - 1)
    last = len(passes) - 1
    pass_of = {k: p for p, halves in enumerate(passes) for k in halves}
    shifts = {k: index_bits + sum(widths[i] for i in halves[: halves.index(k)])
              for halves in passes for k in halves}   # each half's place in its pass's word
    keys = [lo, hi]
    # the last pass that reads each key word (-1: none), and whether the readback gathers it
    reads = [max([pass_of[k] for k in (2 * w, 2 * w + 1) if k in pass_of], default=-1) for w in (0, 1)]
    held = [any(pass_of.get(k, last) < last - 1 for k in (2 * w, 2 * w + 1)) for w in (0, 1)]
    spare = [keys[w] for w in (0, 1) if reads[w] < 0]

    def take():
        return spare.pop() if spare else np.empty(size, dtype=np.int64)

    prev = None   # the sorted word of the pass before, its index bits candidate indices
    for p, halves in enumerate(passes):
        own = [keys[w] for w in (0, 1) if p == 0 and reads[w] == 0 and not held[w]]
        word = own[0] if own else take()
        out = word.view(np.uint64)
        for ch in _chunks(size):
            at = ch if prev is None else (prev.view(np.uint64)[ch] & index_mask).view(np.int64)
            gathered = {w: keys[w].view(np.uint64)[at] for w in {k // 2 for k in halves}}
            acc = np.arange(ch.start, ch.stop, dtype=np.uint64)
            for k in halves:
                h = gathered[k // 2] >> np.uint64(32) if k % 2 else gathered[k // 2] & np.uint64(_HALF_MASK)
                h -= np.uint64(bottoms[k])
                h <<= np.uint64(shifts[k])
                acc |= h
            out[ch] = acc
        spare += [keys[w] for w in (0, 1) if reads[w] == p and not held[w] and keys[w] is not word]
        out.sort()
        if p == last:
            break
        if prev is not None:   # index bits to candidate indices, the pass before's through them
            for ch in _chunks(size):
                index = prev.view(np.uint64)[(out[ch] & index_mask).view(np.int64)]
                out[ch] ^= (out[ch] ^ index) & index_mask
            spare.append(prev)
        prev = word

    both = word   # one pass: its word holds its halves and the order
    if prev is not None:   # the pass before the last's words, in the final order
        both = take()
        for ch in _chunks(size):
            np.take(prev.view(np.uint64), (out[ch] & index_mask).view(np.int64),
                    out=both.view(np.uint64)[ch], mode="clip")   # clip: out is not buffered
        spare.append(prev)

    def value(ch, k):   # half k of the sorted keys, read off the pass words
        if not widths[k]:
            return np.uint64(bottoms[k])
        h = (out if pass_of[k] == last else both.view(np.uint64))[ch] >> np.uint64(shifts[k])
        return (h & np.uint64((1 << widths[k]) - 1)) + np.uint64(bottoms[k])

    # lo into a spent buffer, hi over the last pass's word, the order over the gathered words
    sorted_keys = [take(), word if both is not word else take()]
    for ch in _chunks(size):
        order = both[ch] & np.int64(index_mask)
        for w in (0, 1):
            sorted_keys[w][ch] = (keys[w][order] if held[w] else
                                  value(ch, 2 * w + 1) << np.uint64(32) | value(ch, 2 * w))
        both[ch] = order
    return both, sorted_keys[1], sorted_keys[0]


def _runs(hi: np.ndarray, lo: np.ndarray):
    """(slice, run starts relative to its start) of consecutive slices
    covering the sorted keys hi, lo, each about _CHUNK long and cut at a
    run start, so that each holds whole runs of equal keys."""
    size, start, stop = len(hi), 0, 0
    while start < size:
        stop = min(stop + _CHUNK, size)
        end = min(stop + 1, size)   # the key at stop, if any, says whether a run starts there
        first = np.empty(end - start, dtype=bool)
        first[0] = True
        np.not_equal(hi[start + 1:end], hi[start:end - 1], out=first[1:])
        first[1:] |= lo[start + 1:end] != lo[start:end - 1]
        starts, cut = np.flatnonzero(first), stop
        if stop < size:   # the run from the last start may go on past stop
            cut, starts = start + int(starts[-1]), starts[:-1]
        if len(starts):   # else one run fills the slice, and the next one is longer
            yield slice(start, cut), starts
            start = cut


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
    positive = p > 0
    if not positive.all():
        p = p[positive]
    del positive
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"masses sum to {total}, not a probability vector")
    terms = np.log(p)
    terms *= p
    return float(-terms.sum())


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
        # candidates, atom-major: candidate j * m + i is support element i times atom j,
        # built a chunk of support elements at a time
        cand_hi = np.empty(n_atoms * m, dtype=np.int64)
        cand_lo = np.empty(n_atoms * m, dtype=np.int64)
        cand_f = np.empty((n_atoms * m, 2, 2)) if quantized else None
        scratch = np.empty((5, min(m, _CHUNK)), dtype=np.int64)
        bounds = _no_bounds()
        try:
            for ch in _chunks(m):
                cur = cur_f[ch] if quantized else _entries(hi[ch], lo[ch])
                for j in range(n_atoms):
                    block = slice(j * m + ch.start, j * m + ch.stop)
                    if quantized:
                        cand_f[block] = cur @ atoms[j]
                        entries = _rounded_entries(cand_f[block], quant)
                    else:
                        entries = _products(cur, atoms[j], scratch[:, : ch.stop - ch.start])
                    _pack_into(_normalize_signs(entries), cand_hi[block], cand_lo[block], bounds)
        except OverflowError:
            raise ConvolutionBudgetError(
                step - 1,
                f"matrix entries overflow the packed keys at n={step}; "
                f"largest feasible horizon is {step - 1}",
            ) from None
        del hi, lo, cur, entries, scratch
        if words:
            cand_words = np.empty((n_atoms * m, word_arr.shape[1]), dtype=np.uint8)
            cand_lens = np.empty(n_atoms * m, dtype=lengths.dtype)
            for j in range(n_atoms):
                block = slice(j * m, (j + 1) * m)
                cand_words[block], cand_lens[block] = _append_letter(
                    word_arr, lengths, j, inv_letter[j])

        order, hi, lo = _key_order(cand_hi, cand_lo, bounds)
        del cand_hi, cand_lo
        # the candidates' masses over their indices, summed a slice of whole runs at a time;
        # each element's key and mass go into the prefixes of hi, lo and order
        sorted_mass = order.view(np.float64)
        picked = []   # the first candidate of each element, for its word or float matrix
        count = 0
        for ch, starts in _runs(hi, lo):
            if words or quantized:
                picked.append(order[ch][starts])
            atom, element = np.divmod(order[ch], m)
            np.take(masses, element, out=sorted_mass[ch])
            sorted_mass[ch] *= mu.probs[atom]
            new = slice(count, count + len(starts))
            hi[new], lo[new] = hi[ch][starts], lo[ch][starts]
            sorted_mass[new] = np.add.reduceat(sorted_mass[ch], starts)
            count = new.stop
        del sorted_mass, masses
        # in place: the candidate-sized buffers shrink to the support.  No view
        # of them is left; refcheck would also count the references a tracer
        # or profiler holds to the arrays themselves, and raise under it
        order.resize(count, refcheck=False)
        hi.resize(count, refcheck=False)
        lo.resize(count, refcheck=False)
        masses = order.view(np.float64)
        picked = np.concatenate(picked) if picked else None
        if words:
            word_arr, lengths = cand_words[picked], cand_lens[picked]
            del cand_words, cand_lens
        if quantized:
            cur_f = cand_f[picked]
            del cand_f
        del order, picked

        entropies.append(entropy_of(masses))
        support_sizes.append(len(masses))

    table = ConvolutionTable(n, hi, lo, masses, word_arr, lengths, quant)
    return ConvolutionSeries(n, np.array(entropies), np.array(support_sizes), table, quantized)
