import cProfile
import hashlib
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from circlelab import convolve
from circlelab.convolve import (
    _CHUNK,
    _ENTRY_LIMIT,
    _HALF_MASK,
    ConvolutionBudgetError,
    _entries,
    _key_order,
    _keys,
    _no_bounds,
    _pack_into,
    _pass_layout,
    _runs,
    convolve_exact,
    entropy_of,
)
from circlelab.maps import MobiusMap, rotation
from circlelab.walk import make_step_distribution, sample_walk


def _pack(mats):
    """Packed keys of int64 matrices as they are, not sign-normalized."""
    hi, lo = np.empty((2, mats.size // 4), dtype=np.int64)
    _pack_into([e.copy() for e in mats.reshape(-1, 4).T], hi, lo, _no_bounds())
    return hi, lo


def _unpack(hi, lo):
    """The int64 matrices whose keys are (hi, lo); the inverse of `_pack`."""
    return np.stack(_entries(hi, lo), axis=-1).reshape(-1, 2, 2)


def free_length_entropy_table(n_max, rank=2):
    """Oracle: exact H(mu^{*n}) for the simple walk on a rank-k free group
    via the reflecting word-length chain (masses are equidistributed over
    words of equal length).
    """
    up = (2 * rank - 1) / (2 * rank)
    P = np.zeros(n_max + 2)
    P[0] = 1.0
    H = [0.0]
    for _ in range(n_max):
        Q = np.zeros_like(P)
        Q[1] += P[0]
        for j in range(1, n_max + 1):
            Q[j + 1] += up * P[j]
            Q[j - 1] += (1 - up) * P[j]
        P = Q
        h = 0.0
        for j in range(n_max + 2):
            if P[j] <= 0:
                continue
            Nj = 1 if j == 0 else 2 * rank * (2 * rank - 1) ** (j - 1)
            h += -P[j] * np.log(P[j] / Nj)
        H.append(h)
    return np.array(H)


def test_entropy_of_basics():
    assert entropy_of([1.0]) == 0.0
    assert abs(entropy_of([0.25] * 4) - np.log(4)) < 1e-14
    with pytest.raises(ValueError):
        entropy_of([0.5, 0.4])


def test_convolution_trivial_horizons(sanov_mu):
    s0 = convolve_exact(sanov_mu, 0)
    assert s0.table.support_size == 1 and s0.entropies[0] == 0.0
    s1 = convolve_exact(sanov_mu, 1)
    assert s1.table.support_size == 4
    assert abs(s1.entropies[1] - np.log(4)) < 1e-12
    assert np.allclose(np.sort(s1.table.masses), 0.25)


def test_sanov_two_step_enumeration(sanov_mu):
    # oracle: enumerate all 16 two-letter words and reduce freely
    mats = sanov_mu.matrices()
    seen = {}
    for i, j in itertools.product(range(4), repeat=2):
        m = np.round(mats[i] @ mats[j]).astype(np.int64)
        m = m * (1 if (m.ravel()[np.nonzero(m.ravel())[0][0]] > 0) else -1)
        seen[tuple(m.ravel())] = seen.get(tuple(m.ravel()), 0.0) + 1 / 16
    s = convolve_exact(sanov_mu, 2)
    assert s.table.support_size == len(seen) == 13
    masses = sorted(seen.values())
    assert np.allclose(sorted(s.table.masses), masses)
    # 12 reduced words of mass 1/16 and the identity at 4/16
    h_expected = -(12 / 16) * np.log(1 / 16) - (4 / 16) * np.log(4 / 16)
    assert abs(s.entropies[2] - h_expected) < 1e-12
    assert abs(entropy_of(s.table.masses) - h_expected) < 1e-12


def test_convolution_matches_length_chain_oracle(sanov_mu):
    n = 8
    s = convolve_exact(sanov_mu, n)
    H = free_length_entropy_table(n)
    assert np.max(np.abs(s.entropies - H)) < 1e-10
    # support sizes: reduced words of length <= n with matching parity
    def support(n):
        return sum(4 * 3 ** (k - 1) for k in range(n, 0, -2)) + (1 if n % 2 == 0 else 0)
    assert s.support_sizes[-1] == support(n)


def test_subadditivity(sanov_mu):
    s = convolve_exact(sanov_mu, 8)
    H = s.entropies
    for m in range(1, 8):
        for n in range(1, 9 - m):
            assert H[m + n] <= H[m] + H[n] + 1e-12


def test_masses_sum_to_one(sanov_mu):
    s = convolve_exact(sanov_mu, 6)
    assert abs(s.table.masses.sum() - 1.0) < 1e-12


def test_representative_words_are_reduced(sanov_mu):
    s = convolve_exact(sanov_mu, 5, words=True)
    inv = sanov_mu.inverse_index
    for w, ln in zip(s.table.words, s.table.lengths):
        letters = w[:ln].astype(int) - 1
        for a, b in zip(letters, letters[1:]):
            assert inv[a] != b  # no cancelling neighbors survive reduction


def test_mass_lookup_roundtrip(sanov_mu):
    s = convolve_exact(sanov_mu, 6)
    mats = np.round(sanov_mu.matrices()).astype(np.int64)
    w = sample_walk(sanov_mu, 6, seed=3)
    m = np.eye(2, dtype=np.int64)
    for k in w.steps:
        m = m @ mats[k]
    assert s.table.mass_of_matrix(m) > 0
    # an element of odd length cannot be in the support of mu^{*6}
    assert s.table.mass_of_matrix(mats[0]) == 0.0


def test_non_integer_generators_rejected():
    mu = make_step_distribution([rotation(0.3), rotation(-0.3)], [0.5, 0.5])
    with pytest.raises(ValueError, match="integer"):
        convolve_exact(mu, 3)


def test_quantized_convolution_for_rotations():
    th = 0.6180339887498949
    mu = make_step_distribution([rotation(th), rotation(-th)], [0.5, 0.5], symmetric=True)
    s = convolve_exact(mu, 10, quantized=True)
    # abelian walk: support is the lattice {k theta : |k| <= n, k = n mod 2}
    assert s.table.support_size == 11
    # entropy of the binomial distribution on 11 atoms
    p = [math.comb(10, k) / 2 ** 10 for k in range(11)]
    assert abs(s.entropies[10] - entropy_of(p)) < 1e-9


def test_memory_budget_error(sanov_mu):
    with pytest.raises(ConvolutionBudgetError) as ei:
        convolve_exact(sanov_mu, 10, max_support=1000)
    assert ei.value.feasible_n < 10


def test_unit_mass_deterministic_walk():
    # single hyperbolic generator: mu^{*n} is a unit mass, H identically 0
    g = MobiusMap([[2, 1], [1, 1]])
    mu = make_step_distribution([g], [1.0])
    s = convolve_exact(mu, 6)
    assert np.allclose(s.entropies, 0.0)
    assert all(v == 1 for v in s.support_sizes)


def rotation_pair():
    th = 0.6180339887498949
    return make_step_distribution([rotation(th), rotation(-th)], [0.5, 0.5], symmetric=True)


def test_quantized_identity_mass_at_horizon_zero():
    # the quantized identity is keyed as round(I / quant), not as I
    s = convolve_exact(rotation_pair(), 0, quantized=True)
    assert s.table.mass_of_matrix(np.eye(2)) == 1.0


@pytest.mark.parametrize("quantized", [False, True])
def test_table_keys_sorted_and_each_element_finds_its_mass(sanov_mu, quantized):
    mu, n = (rotation_pair(), 10) if quantized else (sanov_mu, 8)
    t = convolve_exact(mu, n, quantized=quantized).table
    assert np.all((t.hi[1:] > t.hi[:-1]) | ((t.hi[1:] == t.hi[:-1]) & (t.lo[1:] > t.lo[:-1])))
    mats = _unpack(t.hi, t.lo)
    if quantized:
        mats = mats * t.quant
    found = np.array([t.mass_of_matrix(m) for m in mats])
    assert np.array_equal(found, t.masses)


def test_unpack_inverts_pack():
    lim = _ENTRY_LIMIT
    m = np.array([[[lim, -lim], [-lim, lim]],
                  [[-lim, lim], [0, 1]],
                  [[0, 0], [0, 0]],
                  [[0, -1], [1, 0]],
                  [[0, 0], [-lim, 7]]], dtype=np.int64)
    assert np.array_equal(_unpack(*_pack(m)), m)
    with pytest.raises(OverflowError):
        _pack(m + 1)
    # the bounds `_pack_into` widens are those of the halves it packs
    bounds = _no_bounds()
    for rows in (m[:2], m[2:]):
        hi, lo = np.empty((2, len(rows)), dtype=np.int64)
        _pack_into([e.copy() for e in rows.reshape(-1, 4).T], hi, lo, bounds)
    assert bounds == half_bounds(*_pack(m))


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("atoms, quantized, feasible", [
    # quantized entries 3^n / quant leave the packable range at n = 3
    ([MobiusMap([[3, 0], [0, 1 / 3]])], True, 2),
    # integer entries reach 1024^3 = 2^30 at n = 3
    ([MobiusMap([[1, 1024], [0, 1]]), MobiusMap([[1, 0], [1024, 1]])], False, 2),
    # 1e11 / quant does not fit in int64 at all; its cast must not slip past the check
    ([MobiusMap([[1e11, 0], [0, 1e-11]])], True, 0),
], ids=["quantized", "integer", "quantized-beyond-int64"])
def test_overflow_of_packed_keys_is_a_budget_error(atoms, quantized, feasible):
    atoms = [g for a in atoms for g in (a, a.inverse())]
    mu = make_step_distribution(atoms, [1.0] * len(atoms), symmetric=True)
    with pytest.raises(ConvolutionBudgetError) as ei:
        convolve_exact(mu, 5, quantized=quantized)
    assert ei.value.feasible_n == feasible


def test_words_are_opt_in_and_change_nothing_else(sanov_mu):
    off = convolve_exact(sanov_mu, 8)
    on = convolve_exact(sanov_mu, 8, words=True)
    for a, b in [(off.table.hi, on.table.hi), (off.table.lo, on.table.lo),
                 (off.table.masses, on.table.masses), (off.entropies, on.entropies),
                 (off.support_sizes, on.support_sizes)]:
        assert np.array_equal(a, b)
    assert off.table.words is None and on.table.words.shape == (on.table.support_size, 8)


def test_word_strings_without_words_is_an_error(sanov_mu):
    table = convolve_exact(sanov_mu, 3).table
    with pytest.raises(ValueError, match="words were not built"):
        table.word_strings(sanov_mu.names)
    assert convolve_exact(sanov_mu, 3, words=True).table.word_strings(sanov_mu.names, 2)


def random_tied_keys(rng, count, spread):
    """Packed keys of random (not sign-normalized) matrices with entries in
    [-spread, spread]: small spreads give many exact ties."""
    return _pack(rng.integers(-spread, spread + 1, size=(count, 2, 2), dtype=np.int64))


def rotation_candidates():
    """The keys one quantized convolution step sorts: the n = 6 support of
    the rotation pair times each atom, concatenated atom-major."""
    mu = rotation_pair()
    t = convolve_exact(mu, 6, quantized=True).table
    cur = _unpack(t.hi, t.lo) * t.quant
    keys = [_keys(cur @ g, t.quant) for g in mu.matrices()]
    return np.concatenate([k[0] for k in keys]), np.concatenate([k[1] for k in keys])


def half_bounds(hi, lo):
    """[min, max] of the key halves a, b, c, d, read off the packed keys."""
    halves = [key >> 32 if high else key & _HALF_MASK for key in (hi, lo) for high in (True, False)]
    return [[int(h.min()), int(h.max())] for h in halves]


def keys_of(rng, count, a, b, c, d):
    """Packed keys of `count` matrices whose entries are drawn from the given choices
    (a list) or ranges (a (low, high) tuple, both ends included)."""
    cols = [rng.choice(np.array(e, dtype=np.int64), size=count) if isinstance(e, list)
            else rng.integers(e[0], e[1] + 1, size=count, dtype=np.int64) for e in (a, b, c, d)]
    return _pack(np.stack(cols, axis=-1).reshape(-1, 2, 2))


def key_order_case(case):
    """(hi, lo, pass layout) of a `_key_order` case; the layout is None where it is not pinned."""
    rng = np.random.default_rng(11)
    lim = _ENTRY_LIMIT
    wide = [-lim, -lim + 1, -1, 0, 1, lim - 1, lim]   # spans about 2**31 with many ties
    if case == "ties":
        return (*random_tied_keys(rng, 50_000, 3), None)
    if case in ("single", "chunk-1", "chunk", "chunk+1"):
        count = {"single": 1, "chunk-1": _CHUNK - 1, "chunk": _CHUNK, "chunk+1": _CHUNK + 1}[case]
        return (*random_tied_keys(rng, count, 3), None)
    if case == "near-limit":
        # every half spans about 2**31, so no two halves share a pass
        return (*keys_of(rng, 20_000, wide, wide, wide, wide), [[0], [1], [2], [3]])
    if case == "fills-64":
        # d and c take 31 + 16 bits beside 17 index bits: one pass of exactly 64
        return (*keys_of(rng, 1 << 17, [0, 1], [0, 1], (0, (1 << 16) - 1), wide), [[0, 1], [2, 3]])
    if case == "fills-64+1":
        # one key more needs an 18th index bit, so c no longer fits beside d
        return (*keys_of(rng, (1 << 17) + 1, [0, 1], [0, 1], (0, (1 << 16) - 1), wide),
                [[0], [1, 2, 3]])
    if case == "last-a-only":
        # c and d share a pass; b and a are too wide to share one, so a is sorted alone
        return (*keys_of(rng, 3 * _CHUNK + 5, wide, wide, (-(1 << 18), 1 << 18), (-5, 5)),
                [[0, 1], [2], [3]])
    if case == "constant":
        hi, lo = keys_of(rng, 1000, [3], [-7], [0], [1])
        return hi, lo, []
    return (*rotation_candidates(), None)


@pytest.mark.parametrize("case", ["ties", "single", "near-limit", "rotations", "chunk-1", "chunk",
                                  "chunk+1", "fills-64", "fills-64+1", "last-a-only", "constant"])
def test_key_order_is_lexsort(case):
    hi, lo, layout = key_order_case(case)
    assert len(np.unique(hi)) < len(hi) or case == "single"
    bounds = half_bounds(hi, lo)
    if layout is not None:
        assert _pass_layout(bounds, len(hi))[2] == layout
    expected = np.lexsort((lo, hi))
    order, sorted_hi, sorted_lo = _key_order(hi.copy(), lo.copy(), bounds)
    assert np.array_equal(order, expected)
    assert np.array_equal(sorted_hi, hi[expected])
    assert np.array_equal(sorted_lo, lo[expected])


def test_masses_of_matrices_is_a_lookup_of_the_keys(sanov_mu):
    t = convolve_exact(sanov_mu, 6).table
    mats = _unpack(t.hi, t.lo)
    # absent elements: same first row with another second row, and odd-length elements
    shifted = mats.copy()
    shifted[:, 1] += shifted[:, 0]
    odd = convolve_exact(sanov_mu, 5).table
    batch = np.concatenate([mats, shifted, _unpack(odd.hi, odd.lo)])
    table = dict(zip(zip(t.hi.tolist(), t.lo.tolist()), t.masses.tolist()))
    hi, lo = _keys(batch, None)
    expected = [table.get(key, 0.0) for key in zip(hi.tolist(), lo.tolist())]
    found = t.masses_of_matrices(batch)
    assert np.array_equal(found, expected)
    assert np.array_equal(found[: len(mats)], t.masses)
    assert np.all(found[2 * len(mats):] == 0.0)
    assert t.mass_of_matrix(batch[0]) == found[0]


# SHA-256 of each array's bytes (little-endian int64 / float64, uint8 and
# int32 words) at n = 10, from the kernel that built candidate masses before
# the sort and unpacked (m, 2, 2) matrices each step: rewrites of the step
# must keep every table bit for bit.
TABLE_DIGESTS = {
    "free": {
        "entropies": "99f487e2369f688ef4f886c6631ec01d0ee13cfeb82d39b2b9f500b28f053608",
        "support_sizes": "9cd9d9ae8403a84feb6abc7169b3550da5c0eae690c935f7cc4e9e4fe936f86d",
        "hi": "63352ea3ef8316077d2b7d054db312d254d3b9087266d2c8d72810949f5e0379",
        "lo": "f93b75b7784609f3c63c73ac00790ab3c21efa6d1832d31a00ce7bf0732dc1ea",
        "masses": "b9e9c2fbf569c6cc22f8d33ab786e4b40f5f9fdc6c78eb91e7c480654981c2c2",
        "words": "27a1d6345f03be89d251afa06e583d08271d2a4ab068d1dc7dccc9ccaf861d12",
        "lengths": "d9c8513332bd5b4ea429749a33734df36d073fbf01e040f8692843a0b7fd8951",
    },
    "rotations": {
        "entropies": "2847cdf57c2c7b42e3aaaeec4fae826809bf18929170ca36c7b0b15e73a98479",
        "support_sizes": "1d97575b32dcc0fbf7588bf039326fb339d5d1548a106b8158afadf40147e094",
        "hi": "6c3e34f445c2b0a926d2d5d0799ddb83ea1bdcfda9ca565658f1233863290d04",
        "lo": "4dba31859d9e5d0cd6116104ab1ea65b943606b076da27bd2bb946ee0601095f",
        "masses": "e866e3f96b8536ea5d0196ddffce07ae906c256d139275b7307498ca6d91062a",
        "words": "aa749121134016e0ae82ca2b8d357dd2b77a7ef912a61439077bce4a04d38d71",
        "lengths": "4186fa1937d609fb157760d83504e18d4918965d09bc79d8483a373ef5331061",
    },
}


@pytest.mark.parametrize("words", [False, True])
@pytest.mark.parametrize("case", ["free", "rotations"])
def test_tables_match_pinned_digests(sanov_mu, case, words):
    mu, quantized = (sanov_mu, False) if case == "free" else (rotation_pair(), True)
    s = convolve_exact(mu, 10, quantized=quantized, words=words)
    arrays = {"entropies": s.entropies, "support_sizes": s.support_sizes,
              "hi": s.table.hi, "lo": s.table.lo, "masses": s.table.masses}
    if words:
        arrays.update(words=s.table.words, lengths=s.table.lengths)
    found = {k: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for k, a in arrays.items()}
    assert found == {k: TABLE_DIGESTS[case][k] for k in arrays}


@pytest.mark.parametrize("case, quantized", [("free", False), ("free", True), ("rotations", True)])
def test_tables_do_not_depend_on_the_chunk_size(sanov_mu, case, quantized, monkeypatch):
    # 999 splits the n = 10 step's 29 524 support elements and 118 096
    # candidates into many chunks with a short last one; the free pair
    # quantized at resolution 1 keys its integer entries as they are
    monkeypatch.setattr(convolve, "_CHUNK", 999)
    mu, quant = (sanov_mu, 1.0) if case == "free" else (rotation_pair(), 1e-8)
    s = convolve_exact(mu, 10, quantized=quantized, quant=quant, words=True)
    arrays = {"entropies": s.entropies, "support_sizes": s.support_sizes, "hi": s.table.hi,
              "lo": s.table.lo, "masses": s.table.masses, "words": s.table.words,
              "lengths": s.table.lengths}
    found = {k: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for k, a in arrays.items()}
    assert found == TABLE_DIGESTS[case]


def test_budget_counts_the_candidates_of_each_atom():
    # two atoms freely generate a free semigroup: mu^{*n} has 2^n elements,
    # and step n sorts 2 * 2^(n-1) = 2^n candidates
    mu = make_step_distribution([MobiusMap([[1, 2], [0, 1]]), MobiusMap([[1, 0], [2, 1]])],
                                [0.5, 0.5])
    assert convolve_exact(mu, 6, max_support=64).support_sizes[-1] == 64
    with pytest.raises(ConvolutionBudgetError) as ei:
        convolve_exact(mu, 7, max_support=64)
    assert ei.value.feasible_n == 6


def test_convolution_memory_per_candidate(sanov_mu):
    # step 12 sorts 4 * |support of mu^{*11}| = 1 062 880 candidates in two
    # passes; the traced peak is about 29.1 bytes per candidate (24 for the
    # keys and the last pass's word, or for the sorted keys and the order,
    # 2 for the old masses, plus the chunk buffers), was 36.6 with the run
    # starts and their sums beside the sorted keys and masses, 42 with three
    # full sort buffers and unchunked temporaries, and 74.7 while candidate
    # masses were built before the sort
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        s = convolve_exact(sanov_mu, 12)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    candidates = 4 * s.support_sizes[11]
    assert candidates == 1_062_880
    assert peak / candidates < 30
    # the table's arrays hold support-sized buffers (shrunk in place), not views of candidate-sized ones
    for a in (s.table.hi, s.table.lo, s.table.masses):
        assert (a if a.base is None else a.base).nbytes == a.nbytes == 8 * s.table.support_size


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_runs_are_slices_of_whole_runs(chunk, monkeypatch):
    # runs of 1 to 4 equal keys, as a step makes, and two longer than many slices
    monkeypatch.setattr(convolve, "_CHUNK", chunk)
    rng = np.random.default_rng(8)
    lengths = np.concatenate([rng.integers(1, 5, 200), [700], rng.integers(1, 5, 200), [300]])
    keys = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    hi, lo = keys // 7, keys % 7   # sorted by (hi, lo)
    slices = list(_runs(hi, lo))
    assert [ch.start for ch, _ in slices] == [0] + [ch.stop for ch, _ in slices[:-1]]
    assert slices[-1][0].stop == len(keys)
    assert all(starts[0] == 0 for _, starts in slices)
    found = np.concatenate([ch.start + starts for ch, starts in slices])
    assert np.array_equal(found, np.flatnonzero(np.diff(keys, prepend=-1)))


@pytest.mark.parametrize("tracer", ["settrace", "profile"])
@pytest.mark.parametrize("quantized", [False, True])
def test_tables_under_a_tracer_are_the_untraced_tables(sanov_mu, tracer, quantized):
    # debuggers and coverage trace every line and read each frame's locals,
    # and profilers hold references to the arrays a step shrinks
    def run():
        return convolve_exact(sanov_mu, 7, quantized=quantized, quant=1.0, words=True)

    def trace(frame, event, arg):
        frame.f_locals
        return trace

    want = run()
    if tracer == "settrace":
        old = sys.gettrace()
        sys.settrace(trace)
        try:
            got = run()
        finally:
            sys.settrace(old)
    else:
        got = cProfile.Profile().runcall(run)
    assert np.array_equal(got.entropies, want.entropies)
    assert np.array_equal(got.support_sizes, want.support_sizes)
    for name in ("hi", "lo", "masses", "words", "lengths"):
        assert np.array_equal(getattr(got.table, name), getattr(want.table, name)), name
