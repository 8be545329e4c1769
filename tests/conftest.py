import numpy as np
import pytest


def fd_jet(map_like, x, h1=1e-4, h3=1e-3):
    """Finite-difference oracle for the first three derivatives at x.

    Central stencils (steps h1 for orders 1-2, h3 for order 3) with one
    Richardson extrapolation each, so the truncation error is O(h^4).
    """
    def val(y):
        v = np.asarray(map_like.apply(np.asarray(y) % 1.0), dtype=float)
        ref = np.asarray(map_like.apply(np.asarray(x) % 1.0), dtype=float)
        return v + np.round(ref - v)

    def D1(h):
        return (val(x + h) - val(x - h)) / (2 * h)

    def D2(h):
        return (val(x + h) - 2 * val(x) + val(x - h)) / h ** 2

    def D3(h):
        return (val(x + 2 * h) - 2 * val(x + h) + 2 * val(x - h) - val(x - 2 * h)) / (2 * h ** 3)

    d1 = (4 * D1(h1 / 2) - D1(h1)) / 3
    d2 = (4 * D2(h1 / 2) - D2(h1)) / 3
    d3 = (4 * D3(h3 / 2) - D3(h3)) / 3
    return d1, d2, d3


# `distortion.PrefixScan` steps a pure Mobius family's points as direction
# vectors (cos pi x, sin pi x); the reference loops of its tests step
# positions x.  Each step rounds the two differently, so a position differs
# by a few ulps and a log derivative by a few ulps per step.  The bound
# below allows ROUNDING_ULPS of each.
ROUNDING_ULPS = 16
EPS = np.finfo(float).eps


def position_rounding_bound(nu, lo, hi, mass):
    """Largest |log nu-mass| difference of the arc (lo, hi) when its ends
    move by ROUNDING_ULPS ulps: that times the CDF slope at the ends, over
    the mass."""
    return ROUNDING_ULPS * EPS * (nu.cell_density(lo) + nu.cell_density(hi)) / mass


def history_constants(history, steps, lam, c1_rate, sums):
    """The definitions `PrefixScan.constants` reduces as it runs, over the
    scan's histories (pos, logd, log_mass): (pos, log l_n'(x), log C1,
    C2, one step sum per (weights, rate)), each per row."""
    pos, logd, log_mass = history
    k = np.arange(logd.shape[1])
    log_c1 = np.min(log_mass + c1_rate * k, axis=1)
    upper = np.max(np.exp(logd - k * lam / 2.0), axis=1)
    lower = np.max(np.exp(3.0 * k * lam / 2.0 - logd), axis=1)
    step_sums = []
    for weights, rate in sums:
        terms = weights[steps] * np.exp(rate * np.arange(steps.shape[1]))
        step_sums.append(np.cumsum(terms, axis=1)[:, -1])
    return pos, logd[:, -1], log_c1, np.maximum(upper, lower), step_sums


def assert_reductions_are_the_history_definitions(scan, steps, lam, c1_rate, sums):
    """`scan.constants` equals `history_constants` of `scan.history()`, bit for bit."""
    run = scan.constants(lam, c1_rate, sums)
    want = history_constants(scan.history(), steps, lam, c1_rate, sums)
    for field, w in zip(("pos", "logd", "log_c1", "c2"), want):
        assert np.array_equal(getattr(run, field), w), field
    assert len(run.sums) == len(want[4])
    for got, w in zip(run.sums, want[4]):
        assert np.array_equal(got, w)


@pytest.fixture(scope="session")
def sanov_atoms():
    from circlelab.maps import make_generator

    A = make_generator([[1, 2], [0, 1]])
    B = make_generator([[1, 0], [2, 1]])
    return [A, A.inverse(), B, B.inverse()]


@pytest.fixture(scope="session")
def sanov_mu(sanov_atoms):
    from circlelab.walk import make_step_distribution

    return make_step_distribution(
        sanov_atoms, [0.25] * 4, symmetric=True, names=["a", "a'", "b", "b'"]
    )


def reference_apply_indexed(mu, idx, x, want_d1=False):
    """The grouped per-atom loop that `StepDistribution.step` replaced, kept
    as its oracle: apply atom idx[i] to x[i] for all i, values by `apply`,
    derivatives (want_d1) by `jet`."""
    out = np.empty_like(x)
    d1 = np.empty_like(x) if want_d1 else None
    for j in range(len(mu)):
        sel = idx == j
        if not np.any(sel):
            continue
        if want_d1:
            jet = mu.atoms[j].jet(x[sel])
            out[sel] = jet.value
            d1[sel] = jet.d1
        else:
            out[sel] = mu.atoms[j].apply(x[sel])
    return (out, d1) if want_d1 else out


@pytest.fixture(scope="session")
def conjugated_mu():
    from circlelab.maps import make_generator
    from circlelab.walk import make_step_distribution

    A = make_generator([[1, 2], [0, 1]], [[0.01, 0.02]])
    B = make_generator([[1, 0], [2, 1]], [[0.01, 0.02]])
    return make_step_distribution([A, A.inverse(), B, B.inverse()], [0.25] * 4)


@pytest.fixture(scope="session")
def lifted_mu(sanov_atoms):
    from circlelab.maps import LiftedMap
    from circlelab.walk import make_step_distribution

    A, B = sanov_atoms[0], sanov_atoms[2]
    atoms = [LiftedMap(A, 2), LiftedMap(A, 2).inverse(), LiftedMap(B, 2), LiftedMap(B, 2).inverse()]
    return make_step_distribution(atoms, [0.25] * 4)


def mp_lifted(matrix, k, j, x, inverse=False):
    """(value, log derivative) at the float x, as mpmath numbers at 40
    digits, of the lift x -> (b(k x - p) + p + j) / k, p = floor(k x), of
    the Mobius map b of matrix to the degree-k cover, b's lift running over
    [b(0), b(0) + 1) on [0, 1); or of that lift's inverse, whose sheet is
    floor(k y - j - b(0)).  An oracle that shares no formula with the maps:
    b acts by t -> (a t + b) / (c t + d) on t = tan(pi u), and
    b'(u) = det (1 + t^2) / ((1 + t'^2) (c t + d)^2)."""
    import mpmath as mp

    def base(m, u):
        (a, b), (c, d) = m
        t = mp.tan(mp.pi * u)
        q = c * t + d
        image = (a * t + b) / q
        return mp.frac(mp.atan(image) / mp.pi), (a * d - b * c) * (1 + t * t) / ((1 + image * image) * q * q)

    with mp.workdps(40):
        (a, b), (c, d) = ((mp.mpf(float(v)) for v in row) for row in np.asarray(matrix).tolist())
        fwd, inv = ((a, b), (c, d)), ((d, -b), (-c, a))
        b0 = base(fwd, 0)[0]
        x = mp.mpf(float(x))
        if inverse:
            w = k * x - j
            u, d1 = base(inv, mp.frac(w))
            return mp.frac((u + mp.floor(w - b0)) / k), mp.log(d1)
        u, d1 = base(fwd, mp.frac(k * x))
        return mp.frac((b0 + mp.frac(u - b0) + mp.floor(k * x) + j) / k), mp.log(d1)


def lifted_cut_points(matrix, k):
    """Floats at and one ulp either side of each cut of the degree-k lifts of
    matrix's Mobius map b and of their inverses: the points i/k where k x
    wraps, and (i + b(0)) / k, where the inverse's sheet turns over (the
    forward lift's new base point crosses its zero at (i + b^{-1}(0)) / k,
    the cut points of the inverse matrix)."""
    from circlelab.maps import MobiusMap

    b0 = float(MobiusMap(matrix).apply(0.0))
    cuts = np.concatenate([np.arange(k + 1) / k, (np.arange(k) + b0) / k])
    return np.unique(np.concatenate([cuts, np.nextafter(cuts, -1.0), np.nextafter(cuts, 2.0)]).clip(0.0, 1.0))


@pytest.fixture(scope="session")
def mixed_mu(lifted_mu):
    """The degree-2 lifts of lifted_mu with rotations by +-1/3 beside them,
    as lifted-3 mixes them: not a cover family, so it steps positions."""
    from circlelab.maps import rotation
    from circlelab.walk import make_step_distribution

    return make_step_distribution(list(lifted_mu.atoms) + [rotation(1 / 3), rotation(-1 / 3)],
                                  [1.0] * 6, symmetric=True)
