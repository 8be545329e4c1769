import numpy as np
import pytest
from conftest import reference_apply_indexed

from circlelab.circle import Arc, lift_steps, unwrap_increasing, wrap
from circlelab.configs import build_step_distribution, builtin_config
from circlelab.maps import LiftedMap, MobiusMap, Word, direction, direction_matrices, rotation
from circlelab.measure import (
    _TAG_BOUNDARY,
    _TAG_DIRAC,
    _TAG_LYAPUNOV,
    _TAG_STATIONARY,
    _LYAPUNOV_BLOCK,
    GridMeasure,
    MeasureGapError,
    _arc_widths,
    _median_rows,
    _transfer_apply,
    _transfer_cells,
    asymptotic_entropy,
    boundary_entropy,
    dirac_convergence_probe,
    entropy_gap_report,
    estimate_stationary_measure,
    lyapunov_exponent,
    rn_derivative,
    stationarity_residual,
)
from circlelab.rng import stream
from circlelab.walk import make_step_distribution

GOLDEN = 0.6180339887498949
HYP = MobiusMap([[0.5, 0], [0, 2]])


def rotations_mu(theta=GOLDEN):
    return make_step_distribution([rotation(theta), rotation(-theta)], [0.5, 0.5], symmetric=True)


# -- GridMeasure --------------------------------------------------------------

def test_grid_measure_validation():
    with pytest.raises(ValueError):
        GridMeasure([0.0, 0.5, 0.9])          # endpoint not pinned
    with pytest.raises(ValueError):
        GridMeasure([0.0, 0.6, 0.4, 1.0])     # not monotone
    nu = GridMeasure.lebesgue(256)
    assert not nu.atom_warning
    assert abs(nu.max_cell_mass - 1 / 256) < 1e-15


def test_interval_mass_wraparound():
    nu = GridMeasure.lebesgue(512)
    assert abs(nu.interval_mass(0.9, 0.1) - 0.2) < 1e-12
    assert abs(nu.arc_mass(Arc(0.95, 0.3)) - 0.3) < 1e-12


@pytest.mark.parametrize("N", [256, 1000, 2048, 3000, 8192])
def test_cdf_at_is_np_interp_bit_for_bit(N):
    rng = np.random.default_rng(N)
    cdf = np.sort(rng.random(N + 1))
    cdf[N // 3: N // 3 + 40] = cdf[N // 3]            # a flat run
    cdf[N // 2: N // 2 + 3] = cdf[N // 2]
    cdf[0], cdf[-1] = 0.0, 1.0
    for nu in (GridMeasure(cdf), GridMeasure(cdf ** 20), GridMeasure.lebesgue(N)):
        g = nu.grid
        x = np.concatenate([
            rng.random(4000),                            # random points
            g, np.nextafter(g, -np.inf), np.nextafter(g, np.inf),   # grid points, +-1 ulp
            [-1e-20, -0.0, 1.0, 1.0 - 2 ** -53, -1e-300],   # x % 1 rounding to 1.0 or 0
            rng.random(2000) * 10.0 - 5.0,               # lifted values
            (N // 3 + rng.random(200) * 40) / N,         # inside the flat run
        ])
        assert np.array_equal(nu.cdf_at(x), np.interp(x % 1.0, g, nu.cdf))
        for xi in map(float, x[::97]):
            v, ref = nu.cdf_at(xi), np.interp(xi % 1.0, g, nu.cdf)
            assert isinstance(v, float) and v == ref


@pytest.mark.parametrize("N", [256, 1000, 2048, 3000])
def test_interval_mass_into_is_the_cdf_difference_bit_for_bit(N):
    # the in-place form (which interval_mass runs) writes the bits of
    # floor(y) + np.interp(y % 1, grid, cdf) differenced at y = lo + (hi - lo) % 1
    # and lo, on grids of 2^p and other sizes and at the points where the
    # cell corrections act (grid points and their neighbours, ends rounding
    # to 1.0, lifted values)
    rng = np.random.default_rng(N)
    cdf = np.sort(rng.random(N + 1))
    cdf[N // 3: N // 3 + 40] = cdf[N // 3]
    cdf[0], cdf[-1] = 0.0, 1.0
    g = np.arange(N + 1) / N
    ends = np.concatenate([rng.random(3000), g, np.nextafter(g, -np.inf), np.nextafter(g, np.inf),
                           [-1e-20, -0.0, 1.0, 1.0 - 2 ** -53, -1e-300], rng.random(1000) * 6.0 - 3.0])
    lo = rng.permutation(ends)
    hi = np.concatenate([lo[:500], lo[500:1000] + 1e-12, rng.permutation(ends)[1000:]])
    for nu in (GridMeasure(cdf), GridMeasure(cdf ** 20), GridMeasure.lebesgue(N)):

        def lifted(y):
            return np.floor(y) + np.interp(y % 1.0, g, nu.cdf)

        mass_of = nu.interval_mass_into(lo.size)
        out = np.empty(lo.size)
        for a, b in ((lo, hi), (hi, lo)):
            want = lifted(a + (b - a) % 1.0) - lifted(a)
            assert mass_of(a, b, out) is out
            assert np.array_equal(out, want) and np.array_equal(nu.interval_mass(a, b), want)
        a, b = map(float, lo[::211]), map(float, hi[::211])
        for ai, bi in zip(a, b):
            assert nu.interval_mass(ai, bi) == lifted(ai + (bi - ai) % 1.0) - lifted(ai)


def test_cdf_at_on_grid_points_where_floor_rounds_down():
    # at N = 3000, floor(grid[j] * N) is j - 1 for 156 grid points; a large
    # jump in the cell left of such a point exposes a wrong cell choice
    N = 3000
    grid = np.arange(N + 1) / N
    cells = np.nonzero(np.floor(grid * N) < np.arange(N + 1))[0]
    assert len(cells) > 100
    rng = np.random.default_rng(1)
    for j in cells[::8]:
        for a, jump in rng.random((10, 2)) * 0.5:
            nu = GridMeasure(np.concatenate([np.linspace(0.0, a, j), np.linspace(a + jump, 1.0, N + 1 - j)]))
            x = grid[j - 1: j + 2]
            assert np.array_equal(nu.cdf_at(x), np.interp(x, grid, nu.cdf))


def test_quantile_inverts_cdf():
    rng = np.random.default_rng(0)
    cdf = np.concatenate([[0], np.sort(rng.random(510)), [1]])
    nu = GridMeasure(cdf)
    u = rng.random(1000)
    x = nu.quantile(u)
    assert np.max(np.abs(nu.cdf_at(x) - u)) < 1e-9


def _cdf_of_kind(rng, N, kind):
    """A CDF on N cells: random increments, flat runs (most cells empty),
    atoms (a few cells carry almost all the mass), or the float below each
    i / N, where floor(u N) can round u up into the next bucket."""
    if kind == "edges":
        return np.concatenate([[0.0], np.nextafter(np.arange(1, N) / N, 0.0), [1.0]])
    inc = rng.random(N)
    if kind == "flat":
        inc *= rng.random(N) < 0.1
    elif kind == "atoms":
        inc += (rng.random(N) < 0.02) * 1e3
    if not inc.any():
        inc[rng.integers(N)] = 1.0
    return np.concatenate([[0.0], np.cumsum(inc) / inc.sum()])


def test_cdf_index_is_searchsorted():
    # on random CDFs, flat runs, atom-heavy CDFs and CDFs at the bucket
    # edges, and at u = 0, 1, every CDF value and its float neighbours, the
    # bucket draw is searchsorted's
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 400), st.sampled_from(["random", "flat", "atoms", "edges"]))
    def check(seed, N, kind):
        rng = np.random.default_rng(seed)
        nu = GridMeasure(_cdf_of_kind(rng, N, kind))
        c = nu.cdf
        u = np.concatenate([rng.random(2_000), [0.0, 1.0, np.nextafter(1.0, 0.0)], c,
                            np.nextafter(c, -1.0).clip(0.0, 1.0), np.nextafter(c, 2.0).clip(0.0, 1.0),
                            np.arange(N + 1) / N, np.nextafter(np.arange(N + 1) / N, 2.0).clip(0.0, 1.0)])
        assert np.array_equal(nu._cdf_index(u), np.searchsorted(c, u, "left"))
        assert np.array_equal(nu._cdf_index(u.reshape(-1, 1)), np.searchsorted(c, u, "left").reshape(-1, 1))
        assert nu._cdf_index(np.float64(u[0])) == np.searchsorted(c, u[0], "left")

    check()


def test_pushforward_by_rotation():
    nu = GridMeasure.lebesgue(512)
    out = nu.pushforward(rotation(0.37))
    assert np.max(np.abs(out.cdf - nu.cdf)) < 1e-12


# -- stationary measure -------------------------------------------------------

def test_stationary_rotations_is_lebesgue():
    nu = estimate_stationary_measure(rotations_mu(), grid_size=1024, seed=1)
    assert np.max(np.abs(nu.cdf - np.arange(1025) / 1024)) <= 1.0 / 1024
    assert nu.info.residual <= 1.0 / 1024
    assert not nu.atom_warning


def test_stationary_dirac_for_single_hyperbolic():
    mu = make_step_distribution([HYP], [1.0])
    nu = estimate_stationary_measure(mu, grid_size=512, tol=1e-3, seed=1)
    assert nu.atom_warning                      # Dirac mass at the attracting point
    # all mass concentrates at x = 0 (split across the wrap is legitimate)
    assert nu.interval_mass(0.99, 0.01) > 0.999
    assert nu.interval_mass(0.4, 0.6) < 1e-6


def test_stationary_sanov_two_methods_agree(sanov_mu):
    nu_t = estimate_stationary_measure(sanov_mu, grid_size=2048, seed=3)
    assert nu_t.info.residual <= 1e-3
    nu_mc = estimate_stationary_measure(
        sanov_mu, method="monte_carlo", grid_size=2048,
        mc_samples=60_000, mc_steps=200, seed=3,
    )
    ks = float(np.max(np.abs(nu_t.cdf - nu_mc.cdf)))
    assert ks <= 2.0 * (1.0 / 2048 + 1.36 / np.sqrt(60_000))


def test_stationarity_residual_function(sanov_mu):
    nu = estimate_stationary_measure(sanov_mu, grid_size=1024, seed=3)
    assert stationarity_residual(sanov_mu, nu) <= 1e-6
    leb = GridMeasure.lebesgue(1024)
    assert stationarity_residual(sanov_mu, leb) > 0.01


def test_transfer_step_is_the_averaged_lifted_cdf_bit_for_bit(sanov_mu, lifted_mu, conjugated_mu):
    # the transfer step reads fixed cells of the preimages; the reference
    # looks each preimage up afresh through `cdf_lifted`
    rng = np.random.default_rng(11)
    for N in (1000, 1024):
        grid = np.arange(N + 1) / N
        mass = rng.random(N) * (rng.random(N) < 0.7)
        cdf = np.concatenate([[0.0], np.cumsum(mass) / mass.sum()])
        cdf[-1] = 1.0
        for nu in (GridMeasure(cdf), GridMeasure.lebesgue(N)):
            for mu in (sanov_mu, lifted_mu, conjugated_mu):
                want = np.zeros(N + 1)
                for p, a in zip(mu.probs, mu.atoms):
                    lifted = nu.cdf_lifted(unwrap_increasing(a.inverse().apply(grid)))
                    want += p * (lifted - lifted[0])
                want[0], want[-1] = 0.0, 1.0
                got = _transfer_apply(mu, nu.cdf, _transfer_cells(mu, GridMeasure.lebesgue(N)))
                assert np.array_equal(got, want)


# -- Lyapunov -----------------------------------------------------------------

def test_lyapunov_dirac_hyperbolic():
    mu = make_step_distribution([HYP], [1.0])
    nu = estimate_stationary_measure(mu, grid_size=2048, seed=1)
    est = lyapunov_exponent(mu, nu, n_steps=200, trajectories=8, integral_samples=4000, seed=2)
    assert abs(est.value - np.log(0.25)) < 5e-3
    assert abs(est.integral - np.log(0.25)) < 5e-3


def test_lyapunov_rotations_zero():
    mu = rotations_mu()
    nu = estimate_stationary_measure(mu, grid_size=1024, seed=1)
    est = lyapunov_exponent(mu, nu, n_steps=500, trajectories=8, integral_samples=4000, seed=2)
    assert abs(est.value) < 1e-12 and abs(est.integral) < 1e-12


def test_lyapunov_sanov_negative(sanov_mu):
    nu = estimate_stationary_measure(sanov_mu, grid_size=2048, seed=3)
    est = lyapunov_exponent(sanov_mu, nu, n_steps=2000, trajectories=32, integral_samples=20_000, seed=5)
    assert est.value < -0.1
    assert est.agreement_sigma <= 3.0


# -- Radon-Nikodym windows ----------------------------------------------------

def test_rn_identity_is_one():
    nu = GridMeasure.lebesgue(1024)
    g = MobiusMap(np.eye(2))
    assert abs(rn_derivative(g, nu, 0.3, 8) - 1.0) < 1e-12


def test_rn_lebesgue_mobius_matches_derivative():
    nu = GridMeasure.lebesgue(8192)
    delta = 8 / 8192
    for x in (0.13, 0.48, 0.77):
        rn = rn_derivative(HYP, nu, x, 8)
        d1 = float(HYP.jet(x).d1)
        assert abs(rn - d1) <= 10 * delta * max(1.0, d1)


def test_rn_two_step_chain(sanov_mu):
    # log RN of l_2 = step log at x plus step log at l_1(x), up to O(delta)
    nu = estimate_stationary_measure(sanov_mu, grid_size=8192, seed=3)
    g1, g2 = sanov_mu.atoms[0], sanov_mu.atoms[2]
    l2 = Word((g1, g2))  # g2 o g1
    x = float(nu.quantile(0.37))
    lhs = np.log(rn_derivative(l2, nu, x, 8))
    rhs = np.log(rn_derivative(g1, nu, x, 8)) + np.log(rn_derivative(g2, nu, float(g1.apply(x)), 8))
    assert abs(lhs - rhs) < 0.1


def test_rn_measure_gap_error():
    # the window far from the support of a Dirac-like zone: use a synthetic gap
    cdf = np.concatenate([np.linspace(0, 0.5, 1025), np.full(2047, 0.5), np.linspace(0.5, 1, 1025)])
    gap_nu = GridMeasure(cdf)   # nu-null gap over (1/4, 3/4)
    with pytest.raises(MeasureGapError):
        rn_derivative(MobiusMap(np.eye(2)), gap_nu, 0.5, 4)


def test_boundary_entropy_rotations_zero():
    mu = rotations_mu()
    nu = estimate_stationary_measure(mu, grid_size=1024, seed=1)
    be = boundary_entropy(mu, nu, samples=4000, seed=2)
    assert abs(be.value) < 1e-10
    assert be.gap_fraction == 0.0


def test_boundary_entropy_invariant_measure_zero():
    # mu = {g, g^{-1}} with nu g-invariant: RN is 1 and h_nu vanishes
    conj = MobiusMap([[1.0, 0.3], [0.1, (1 + 0.3 * 0.1)]])
    g = Word((conj.inverse(), rotation(GOLDEN), conj)).as_mobius()
    mu = make_step_distribution([g, g.inverse()], [0.5, 0.5], symmetric=True)
    nu = GridMeasure.lebesgue(4096).pushforward(conj)
    be = boundary_entropy(mu, nu, samples=20_000, seed=4)
    assert abs(be.value) < 2e-2


# -- asymptotic entropy and the gap report -------------------------------------

def test_asymptotic_entropy_deterministic_walk():
    g = MobiusMap([[2, 1], [1, 1]])
    mu = make_step_distribution([g], [1.0])
    ae = asymptotic_entropy(mu, 8, sbm_samples=100, seed=1)
    assert ae.value == 0.0
    assert ae.sbm_mean == 0.0


def test_asymptotic_entropy_free_group_closed_form(sanov_mu):
    ae = asymptotic_entropy(sanov_mu, 12, sbm_samples=1000, seed=1)
    assert abs(ae.value - 0.5 * np.log(3)) < 0.02
    assert ae.sbm_consistent


def test_asymptotic_entropy_horizon_stability(sanov_mu):
    # estimates at n_max = 12 and n_max = 14 agree to 0.01
    a12 = asymptotic_entropy(sanov_mu, 12, sbm_samples=500, seed=1)
    a14 = asymptotic_entropy(sanov_mu, 14, sbm_samples=500, seed=1)
    assert abs(a14.value - a12.value) <= 0.01


def test_lazy_walk_entropy_inequality(sanov_atoms):
    atoms = [MobiusMap(np.eye(2))] + list(sanov_atoms)
    mu = make_step_distribution(atoms, [0.2] * 5)
    ae = asymptotic_entropy(mu, 10, sbm_samples=500, seed=1)
    assert 0.0 < ae.value < 0.5 * np.log(3)
    nu = estimate_stationary_measure(mu, grid_size=2048, seed=2)
    be = boundary_entropy(mu, nu, samples=20_000, seed=2)
    assert be.value <= ae.value + 2 * np.hypot(be.stderr, 0.02)


def test_counting_bound_from_table(sanov_mu):
    # smallest event set with mass >= 1/2 obeys log|E_n|/n >= h - 0.05
    from circlelab.convolve import convolve_exact

    n = 12
    s = convolve_exact(sanov_mu, n)
    masses = np.sort(s.table.masses)[::-1]
    k = int(np.searchsorted(np.cumsum(masses), 0.5) + 1)
    assert np.log(k) / n >= 0.5 * np.log(3) - 0.05


def test_entropy_gap_rotations_undefined():
    mu = rotations_mu()
    nu = estimate_stationary_measure(mu, grid_size=1024, seed=3)
    rep = entropy_gap_report(boundary=boundary_entropy(mu, nu, samples=4000, seed=3),
                             asymptotic=asymptotic_entropy(mu, 10, seed=3, quantized=True))
    assert rep.ratio_undefined
    assert abs(rep.h_boundary) < 1e-8
    assert rep.h_asymptotic < 0.05
    assert rep.inequality_ok


# -- weak-convergence probe -----------------------------------------------------

def test_dirac_probe_single_hyperbolic_rate():
    mu = make_step_distribution([HYP], [1.0])
    nu = GridMeasure.lebesgue(4096)
    curve = dirac_convergence_probe(mu, nu, horizon=12, trials=2, seed=1)
    w = curve.median_width
    assert np.all(w[1:] <= w[:-1] + 1e-12)
    # contraction at rate alpha = 1/4 while the arc still resolves on the grid
    valid = np.nonzero(w > 20.0 / 4096)[0]
    ratios = w[valid[4:]] / w[valid[4:] - 1]
    assert len(ratios) >= 3
    assert np.all((ratios > 0.15) & (ratios < 0.45))


def test_dirac_probe_rotations_flat():
    mu = rotations_mu()
    nu = GridMeasure.lebesgue(1024)
    curve = dirac_convergence_probe(mu, nu, horizon=10, trials=3, seed=1)
    assert np.all(curve.median_width >= 0.98)


def test_dirac_probe_sanov_contracts(sanov_mu):
    nu = estimate_stationary_measure(sanov_mu, grid_size=2048, seed=3)
    curve = dirac_convergence_probe(sanov_mu, nu, horizon=30, trials=6, seed=2)
    assert curve.median_width[-1] <= 1e-3


def _smallest_arc_width(nu_cdf: np.ndarray, grid: np.ndarray, q: float) -> float:
    """The searchsorted oracle of the probe's arc search: from each grid
    point, the first index at which the doubled CDF reaches its value + q."""
    ext = np.concatenate([nu_cdf, nu_cdf[1:] + 1.0])
    xg = np.concatenate([grid, grid[1:] + 1.0])
    idx = np.searchsorted(ext, nu_cdf + q, side="left").clip(0, len(ext) - 1)
    return float(np.min(xg[idx] - grid))


def probe_by_words(mu, nu, horizon, trials, quantile=0.99, seed=0):
    """Reference probe: rebuild the word r_n = g_1 ... g_n every step and
    push nu forward through it."""
    widths = np.zeros((trials, horizon + 1))
    for t in range(trials):
        rng = stream(seed, _TAG_DIRAC, t)
        widths[t, 0] = _smallest_arc_width(nu.cdf, nu.grid, quantile)
        word_maps = []
        for n in range(1, horizon + 1):
            word_maps.insert(0, mu.atoms[int(mu.sample_indices(rng, 1)[0])])  # g_n acts first
            pushed = nu.pushforward(Word(tuple(word_maps)))
            widths[t, n] = _smallest_arc_width(pushed.cdf, pushed.grid, quantile)
    return np.median(widths, axis=0)


def probe_by_per_step_draws(mu, nu, horizon, trials, quantile=0.99, seed=0):
    """Reference probe: the grid preimages stepped by one atom inverse per
    step, its index drawn by one `sample_indices` call per step."""
    inverses = [a.inverse() for a in mu.atoms]
    widths = np.zeros((trials, horizon + 1))
    for t in range(trials):
        rng = stream(seed, _TAG_DIRAC, t)
        widths[t, 0] = _smallest_arc_width(nu.cdf, nu.grid, quantile)
        pre = wrap(nu.grid)
        for n in range(1, horizon + 1):
            pre = inverses[int(mu.sample_indices(rng, 1)[0])].apply(pre)
            pushed = nu.pushforward_from_preimages(pre)
            widths[t, n] = _smallest_arc_width(pushed.cdf, pushed.grid, quantile)
    return np.median(widths, axis=0)


def test_dirac_probe_block_draws_equal_per_step_draws(sanov_mu):
    # the lifted family's per-step draws are checked by its word reference below
    nu = estimate_stationary_measure(sanov_mu, grid_size=1024, seed=3)
    curve = dirac_convergence_probe(sanov_mu, nu, horizon=25, trials=3, seed=4)
    assert np.array_equal(curve.median_width, probe_by_per_step_draws(sanov_mu, nu, 25, 3, seed=4))


def test_dirac_probe_matches_word_reference_lifted(sanov_atoms):
    ups = [LiftedMap(sanov_atoms[i], 2, 0) for i in (0, 2)]
    mu = make_step_distribution([ups[0], ups[0].inverse(), ups[1], ups[1].inverse()],
                                [0.25] * 4, symmetric=True)
    nu = estimate_stationary_measure(mu, grid_size=1024, seed=4)
    curve = dirac_convergence_probe(mu, nu, horizon=10, trials=3, seed=5)
    assert np.array_equal(curve.median_width, probe_by_words(mu, nu, 10, 3, seed=5))


def test_dirac_probe_matches_word_reference_mobius(sanov_mu):
    nu = estimate_stationary_measure(sanov_mu, grid_size=1024, seed=3)
    curve = dirac_convergence_probe(sanov_mu, nu, horizon=12, trials=3, seed=2)
    ref = probe_by_words(sanov_mu, nu, 12, 3, seed=2)
    assert np.max(np.abs(curve.median_width - ref)) <= 1e-12


def test_dirac_probe_matches_per_step_apply_on_a_cantor_set():
    # direction states against per-step `apply` where widths flip most
    # easily: a Monte Carlo nu of a Schottky pair, flat on most cells
    mu = build_step_distribution(builtin_config("schottky"))
    nu = estimate_stationary_measure(mu, "monte_carlo", grid_size=4096, mc_samples=50_000,
                                     mc_steps=60, seed=9)
    assert np.mean(np.diff(nu.cdf) == 0.0) > 0.9
    for seed in range(6):   # one trial: its widths are the curve
        curve = dirac_convergence_probe(mu, nu, horizon=40, trials=1, seed=seed)
        assert np.array_equal(curve.median_width, probe_by_per_step_draws(mu, nu, 40, 1, seed=seed))
    curve = dirac_convergence_probe(mu, nu, horizon=40, trials=4, seed=6)
    assert np.array_equal(curve.median_width, probe_by_per_step_draws(mu, nu, 40, 4, seed=6))


def test_dirac_probe_on_other_families_is_the_per_step_apply(conjugated_mu, mixed_mu):
    # rows of families without states are stepped one at a time by `apply`,
    # bit for bit the per-trial loop (cover families: the lifted-2 test below)
    for mu in (conjugated_mu, mixed_mu):
        nu = GridMeasure.lebesgue(512)
        curve = dirac_convergence_probe(mu, nu, horizon=8, trials=3, seed=2)
        assert np.array_equal(curve.median_width, probe_by_per_step_draws(mu, nu, 8, 3, seed=2))


def test_lifted_2_probe_is_the_per_step_apply_on_seeds_0_to_9():
    # cover states against rows stepped by `apply`, whose values at the cuts
    # are checked against mpmath (test_maps); before `apply` took the branch
    # at its cut from u, seeds 4, 6 and 8 differed here by up to 0.094
    mu = build_step_distribution(builtin_config("lifted-2"))
    nu = estimate_stationary_measure(mu, grid_size=4096)
    for seed in range(10):
        curve = dirac_convergence_probe(mu, nu, horizon=50, trials=10, seed=seed)
        assert np.array_equal(curve.median_width, probe_by_per_step_draws(mu, nu, 50, 10, seed=seed)), seed

@pytest.mark.parametrize("kwargs", [{"quantile": 0.0}, {"quantile": -0.5}, {"quantile": 1.0 + 1e-12},
                                    {"quantile": 2.0}, {"quantile": float("nan")}, {"horizon": -1},
                                    {"trials": 0}, {"trials": -3}])
def test_dirac_probe_rejects_arguments_out_of_range(kwargs):
    with pytest.raises(ValueError):
        dirac_convergence_probe(rotations_mu(), GridMeasure.lebesgue(256), **kwargs)


def test_dirac_probe_edges_of_the_ranges(sanov_mu):
    nu = GridMeasure.lebesgue(256)
    curve = dirac_convergence_probe(rotations_mu(), nu, horizon=0, trials=1, quantile=1.0)
    assert np.array_equal(curve.ns, [0]) and np.array_equal(curve.median_width, [1.0])
    curve = dirac_convergence_probe(sanov_mu, nu, horizon=6, trials=2, quantile=1.0, seed=3)
    assert np.array_equal(curve.median_width, probe_by_per_step_draws(sanov_mu, nu, 6, 2, 1.0, seed=3))


def gap_search(cdf, q, guess):
    """(width, least gap) of `_arc_widths` on one CDF row, galloped from guess."""
    N = len(cdf) - 1
    grid = np.arange(N + 1) / N
    ext = np.concatenate([cdf, np.zeros(N)])[None]
    gaps, widths = np.array([guess]), np.empty(1)
    _arc_widths(ext, q, np.concatenate([grid, grid[1:] + 1.0]), gaps, widths, np.empty(N + 1),
                np.empty(N + 1, bool), np.empty(N + 1))
    return widths[0], gaps[0]


def least_gap_oracle(cdf, q):
    ext = np.concatenate([cdf, cdf[1:] + 1.0])
    return int(np.min(np.searchsorted(ext, cdf + q, side="left") - np.arange(len(cdf))))


def test_gap_search_is_the_searchsorted_oracle():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def cdfs(draw):
        N = draw(st.integers(2, 300))
        kind = draw(st.sampled_from(["flat", "atom", "lebesgue"]))
        if kind == "lebesgue":
            return np.arange(N + 1) / N
        # cell masses, most of them zero: monotone CDFs with flat stretches
        mass = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=N, max_size=N)))
        mass[np.array(draw(st.lists(st.booleans(), min_size=N, max_size=N)))] = 0.0
        if kind == "atom":   # one cell carrying at least 0.99 of the mass
            mass[draw(st.integers(0, N - 1))] = 99.0 * max(mass.sum(), 1.0)
        if mass.sum() == 0.0:
            mass[0] = 1.0
        cdf = np.concatenate([[0.0], np.cumsum(mass) / mass.sum()])
        cdf[-1] = 1.0
        return np.maximum.accumulate(np.clip(cdf, 0.0, 1.0))

    @settings(max_examples=300, deadline=None)
    @given(cdfs(), st.sampled_from([1e-6, 0.5, 0.99, 1.0]), st.sampled_from(["0", "N", "random"]),
           st.randoms(use_true_random=False))
    def check(cdf, q, start, rnd):
        N = len(cdf) - 1
        guess = {"0": 0, "N": N, "random": rnd.randint(0, N)}[start]
        width, gap = gap_search(cdf, q, guess)
        assert width == _smallest_arc_width(cdf, np.arange(N + 1) / N, q)
        assert gap == least_gap_oracle(cdf, q)

    check()


def test_median_rows_is_np_median_bit_for_bit():
    rng = np.random.default_rng(12)
    for rows in range(1, 8):
        a = rng.random((rows, 40)) * 10.0 ** rng.integers(-12, 2, (rows, 40))
        a[:, :5] = 0.25   # ties
        assert np.array_equal(_median_rows(a), np.median(a, axis=0))


def pushed_cdf_reference(nu, preimages):
    """The pushed CDF as `pushforward_from_preimages` built it, op by op."""
    ylift = unwrap_increasing(preimages)
    vals = nu.cdf_lifted(ylift)
    vals -= vals[0]
    vals[0] = 0.0
    vals[-1] = 1.0
    return np.maximum.accumulate(np.clip(vals, 0.0, 1.0))


def test_ulp_backsteps_in_a_cluster_row_do_not_move_the_pushed_cdf():
    # r_n^{-1} of a contracting walk maps most of the grid within a few ulps of one point
    nu = GridMeasure.lebesgue(256)
    clean = np.concatenate([np.full(100, 0.3), wrap(0.3 + np.linspace(0.01, 0.99, 57)), np.full(100, 0.3)])
    ulps = np.random.default_rng(4).integers(-2, 3, clean.size) * np.spacing(0.3)
    noisy = clean + np.where(clean == 0.3, ulps, 0.0)
    assert np.count_nonzero(np.diff(noisy) < 0) > 10
    pushed = nu.pushforward_from_preimages(noisy).cdf
    assert np.allclose(pushed, nu.pushforward_from_preimages(clean).cdf, rtol=0.0, atol=1e-12)
    pre = np.stack([noisy, clean])   # the batched body, as the Dirac probe steps it
    out = np.empty_like(pre)
    nu._push_into(pre, out, np.empty_like(pre), np.empty(pre.shape, np.intp), np.empty(pre.shape, bool))
    assert np.array_equal(out[0], pushed)


def test_pushforward_is_the_unwrapped_cdf_bit_for_bit(sanov_mu, lifted_mu):
    # one body builds a single pushed CDF and the probe's batches of them
    nu = estimate_stationary_measure(sanov_mu, grid_size=1024, seed=3)
    cdf = nu.cdf ** 3
    for measure in (nu, GridMeasure(cdf / cdf[-1]), GridMeasure.lebesgue(1024)):
        rows = [wrap(measure.grid + 0.3), wrap(measure.grid * (1.0 - 1e-9)), measure.grid]
        rows += [a.inverse().apply(measure.grid) for a in sanov_mu.atoms + lifted_mu.atoms]
        want = np.array([pushed_cdf_reference(measure, r) for r in rows])
        for r, w in zip(rows, want):
            assert np.array_equal(measure.pushforward_from_preimages(r).cdf, w)
        pre = np.array(rows)
        out = np.empty_like(pre)
        measure._push_into(pre, out, np.empty_like(pre), np.empty(pre.shape, np.intp),
                           np.empty(pre.shape, bool))
        assert np.array_equal(out, want)


def push_into_reference(nu, pre):
    """(`GridMeasure._push_into`'s CDFs as it built them, with the running
    maximum over every row; the rows before that maximum)."""
    out, fl = np.empty_like(pre), np.empty_like(pre)
    j, moved = np.empty(pre.shape, np.intp), np.empty(pre.shape, bool)
    d = fl[..., 1:]
    np.subtract(pre[..., 1:], pre[..., :-1], out=d)
    np.cumsum(lift_steps(d, out[..., 1:]), axis=-1, out=d)
    np.add(pre[..., :1], d, out=pre[..., 1:])
    pre -= np.floor(pre, out=fl)
    nu._interp_into(pre, out, j, moved)
    out += fl
    first = fl[..., :1]
    np.copyto(first, out[..., :1])
    out -= first
    out[..., 0] = 0.0
    out[..., -1] = 1.0
    np.clip(out, 0.0, 1.0, out=out)
    return np.maximum.accumulate(out, axis=-1), out


def test_push_takes_the_running_maximum_only_where_a_row_decreases(sanov_mu):
    # cluster rows with ulp backsteps decrease after clipping; the others are
    # left as they are, bit for bit the running maximum over every row
    nu = estimate_stationary_measure(sanov_mu, grid_size=256, seed=3)
    rng = np.random.default_rng(6)
    clean = np.concatenate([np.full(100, 0.3), wrap(0.3 + np.linspace(0.01, 0.99, 57)), np.full(100, 0.3)])
    rows = [clean + np.where(clean == 0.3, rng.integers(-2, 3, clean.size) * np.spacing(0.3), 0.0)
            for _ in range(3)]
    rows += [clean, nu.grid] + [a.inverse().apply(nu.grid) for a in sanov_mu.atoms]
    pre = np.array(rows)
    want, before = push_into_reference(nu, pre.copy())
    down = (np.diff(before, axis=-1) < 0).any(axis=-1)
    assert 0 < np.count_nonzero(down) < len(rows)
    for r, w in zip(rows, want):   # one row at a time, as `pushforward_from_preimages`
        assert np.array_equal(nu.pushforward_from_preimages(r).cdf, w)
    ext = np.empty((len(rows), 2 * pre.shape[1] - 1))   # into a view, as the Dirac probe pushes
    out = ext[:, :pre.shape[1]]
    nu._push_into(pre, out, np.empty_like(pre), np.empty(pre.shape, np.intp), np.empty(pre.shape, bool))
    assert np.array_equal(out, want)


# -- the stepping kernel against the grouped per-atom loop it replaced ----------

def reference_lyapunov(mu, nu, n_steps, trajectories, integral_samples, seed):
    """(pathwise, integral) lambda by the grouped-jet loop, on the same streams."""
    rng_i = stream(seed, _TAG_LYAPUNOV, 1)
    x = nu.sample(rng_i, integral_samples)
    _, d1 = reference_apply_indexed(mu, mu.sample_indices(rng_i, integral_samples), x, want_d1=True)
    integral = float(np.log(d1).mean())
    rng_p = stream(seed, _TAG_LYAPUNOV, 2)
    xs = nu.sample(rng_p, trajectories)
    acc = np.zeros(trajectories)
    for _ in range(n_steps):
        xs, d1 = reference_apply_indexed(mu, mu.sample_indices(rng_p, trajectories), xs, want_d1=True)
        acc += np.log(d1)
    return float((acc / n_steps).mean()), integral


@pytest.mark.parametrize("family", ["sanov_mu", "conjugated_mu", "lifted_mu"])
def test_lyapunov_matches_the_grouped_jet_loop(family, request):
    mu = request.getfixturevalue(family)
    nu = estimate_stationary_measure(mu, grid_size=1024, seed=3)
    est = lyapunov_exponent(mu, nu, n_steps=300, trajectories=16, integral_samples=5_000, seed=5)
    path, integral = reference_lyapunov(mu, nu, 300, 16, 5_000, seed=5)
    assert abs(est.value - path) <= 1e-12 * abs(path)
    assert abs(est.integral - integral) <= 1e-12 * abs(integral)


def test_a_long_lyapunov_walk_rescales_cleanly():
    # 20 000 Schottky steps rescale the states every 103 steps; the log
    # derivatives read once from their norms agree with a per-step sum of
    # -log |D w|^2 over unit vectors w, and nothing overflows or underflows
    mu = build_step_distribution(builtin_config("schottky"))
    assert mu.rescale_steps == 103
    nu = estimate_stationary_measure(mu, "monte_carlo", 1024, mc_samples=4_000, mc_steps=40, seed=3)
    n, trajectories = 20_000, 8
    rng = stream(5, _TAG_LYAPUNOV, 2)
    x = nu.sample(rng, trajectories)
    s, w, acc = mu.state(x), direction(x), np.zeros(trajectories)
    buffers = mu.state_buffers(s)
    dirs = direction_matrices(mu.matrices())
    with np.errstate(all="raise"):
        est = lyapunov_exponent(mu, nu, n_steps=n, trajectories=trajectories, integral_samples=2_000, seed=5)
        for start in range(0, n, _LYAPUNOV_BLOCK):
            for idx in mu.sample_indices(rng, (min(_LYAPUNOV_BLOCK, n - start), trajectories)):
                mu.step_state(idx, s, buffers)
                d = dirs[idx]
                w = np.array([d[:, 0, 0] * w[0] + d[:, 0, 1] * w[1], d[:, 1, 0] * w[0] + d[:, 1, 1] * w[1]])
                r = w[0] * w[0] + w[1] * w[1]
                acc -= np.log(r)
                w /= np.sqrt(r)
        ld = mu.log_derivative(s)
    assert np.all(s[-1] > 10_000)   # the exponents carry the norms
    assert np.all(np.abs(ld - acc) <= 1e-12 * n * np.abs(acc))
    assert est.value == float((ld / n).mean())
    assert abs(est.value - acc.mean() / n) <= 1e-12 * n * abs(est.value)


@pytest.mark.parametrize("family", ["sanov_mu", "lifted_mu"])
def test_lyapunov_and_monte_carlo_peaks_do_not_grow_with_the_walk(family, request):
    # the states are stepped in place and the Lyapunov draws come in blocks
    # (two alive while the next is drawn): ten times the steps, the same peak
    import tracemalloc

    mu = request.getfixturevalue(family)
    nu = estimate_stationary_measure(mu, grid_size=1024, seed=3)

    def peak(run):
        run()   # numpy's first calls may allocate caches
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for steps in (lambda n: lyapunov_exponent(mu, nu, n_steps=n, trajectories=64, integral_samples=1_000, seed=5),
                  lambda n: estimate_stationary_measure(mu, "monte_carlo", 1024, mc_samples=2_000,
                                                        mc_steps=n // 10, seed=3)):
        short, long = peak(lambda: steps(600)), peak(lambda: steps(6_000))
        assert long <= short + 2_000, (short, long)


def test_lyapunov_block_draw_equals_per_step_draws(sanov_mu):
    rng_block, rng_steps = stream(5, _TAG_LYAPUNOV, 2), stream(5, _TAG_LYAPUNOV, 2)
    block = sanov_mu.sample_indices(rng_block, (300, 16))
    per_step = np.stack([sanov_mu.sample_indices(rng_steps, 16) for _ in range(300)])
    assert np.array_equal(block, per_step)
    assert rng_block.random() == rng_steps.random()
    # so the pathwise lambda is bit for bit the per-step state loop's (the
    # x-form loop agrees to 1e-12: test_lyapunov_matches_the_grouped_jet_loop)
    nu = estimate_stationary_measure(sanov_mu, grid_size=1024, seed=3)
    est = lyapunov_exponent(sanov_mu, nu, n_steps=300, trajectories=16, integral_samples=2_000, seed=5)
    rng_p = stream(5, _TAG_LYAPUNOV, 2)
    s = sanov_mu.state(nu.sample(rng_p, 16))
    buffers = sanov_mu.state_buffers(s)
    for _ in range(300):
        sanov_mu.step_state(sanov_mu.sample_indices(rng_p, 16), s, buffers)
    assert est.value == float((sanov_mu.log_derivative(s) / 300).mean())


@pytest.mark.parametrize("family", ["sanov_mu", "conjugated_mu", "lifted_mu"])
def test_monte_carlo_stationary_matches_the_grouped_loop(family, request):
    mu = request.getfixturevalue(family)
    nu = estimate_stationary_measure(mu, "monte_carlo", 1024, mc_samples=4_000, mc_steps=40, seed=3)
    rng = stream(3, _TAG_STATIONARY)
    x = rng.random(4_000)
    for _ in range(40):
        x = reference_apply_indexed(mu, mu.sample_indices(rng, 4_000), x)
    assert np.array_equal(nu.cdf, GridMeasure.from_samples(x, 1024).cdf)


@pytest.mark.parametrize("family", ["sanov_mu", "conjugated_mu"])
def test_boundary_entropy_matches_the_grouped_loop(family, request):
    mu = request.getfixturevalue(family)
    nu = estimate_stationary_measure(mu, grid_size=1024, seed=3)
    be = boundary_entropy(mu, nu, samples=5_000, delta_cells=8, seed=4)
    rng = stream(4, _TAG_BOUNDARY)
    x = nu.sample(rng, 5_000)
    idx = mu.sample_indices(rng, 5_000)
    for cells, value in ((8, be.value), (4, be.refined_value)):
        d = cells / nu.N
        num = nu.interval_mass(reference_apply_indexed(mu, idx, (x - d) % 1.0),
                               reference_apply_indexed(mu, idx, (x + d) % 1.0))
        den = nu.interval_mass(x - d, x + d)
        ok = (num > 0) & (den > 0)
        assert value == float((-np.log(num[ok] / den[ok])).mean())
