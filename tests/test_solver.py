import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from contamest import (
    Distribution,
    EmpiricalCounts,
    KlBall,
    Mixture,
    Singleton,
    closed_form_singleton,
    empirical,
    estimate_alpha_lower,
    is_contaminated,
    kl_divergence,
    klball_radius,
    separation_distance,
    solve,
    solve_klball,
    solve_mixture,
    solve_singleton,
    uniform,
)
from contamest import solver
from contamest.distributions import SIMPLEX_ATOL, _SMALLEST_NORMAL, _kl
from contamest.solver import (
    _EPS,
    _ball_linear_max,
    _ball_projection,
    _box_duals,
    _singleton_profile,
    _stable_order,
    _water_fill,
    _water_fill_pos,
)


def dist(*probs):
    return Distribution(np.asarray(probs, dtype=float))


def counts(*values):
    return EmpiricalCounts(np.asarray(values, dtype=np.int64))


def assert_kkt(result, counts_, q0, alpha, atol=1e-8):
    """Stationarity, dual feasibility, complementary slackness, primal feasibility."""
    upper = empirical(counts_).probs / (1 - alpha)
    p = result.p_star.probs
    q = q0.probs
    lam, nu = result.duals.lam, result.duals.nu
    assert np.all(p <= upper + 1e-9)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(lam >= -1e-12)
    np.testing.assert_allclose(lam * (p - upper), 0.0, atol=atol)
    mask = p > 0
    stationarity = np.log(p[mask] / q[mask]) + 1.0 + lam[mask] + nu
    np.testing.assert_allclose(stationarity, 0.0, atol=atol)


def golden_section_two_cat(phat, q, alpha):
    """1-D oracle for n=2: grid + golden-section over the feasible segment."""
    upper = np.asarray(phat) / (1 - alpha)
    lo, hi = max(0.0, 1 - upper[1]), min(1.0, upper[0])

    def f(x):
        p = np.array([x, 1 - x])
        return _kl(p, np.asarray(q))

    xs = np.linspace(lo, hi, 2001)
    best = min(xs, key=f)
    a, b = max(lo, best - (hi - lo) / 1000), min(hi, best + (hi - lo) / 1000)
    gr = (math.sqrt(5) - 1) / 2
    c1, c2 = b - gr * (b - a), a + gr * (b - a)
    for _ in range(200):
        if f(c1) < f(c2):
            b, c2 = c2, c1
            c1 = b - gr * (b - a)
        else:
            a, c1 = c1, c2
            c2 = a + gr * (b - a)
    x = 0.5 * (a + b)
    return f(x), np.array([x, 1 - x])


def simplex_grid_min(upper, q, steps=600):
    """Brute force for n=3 over the box-on-simplex feasible region.

    Grids (p1, p2) with linspace endpoints on the exact box faces, so
    constrained optima lie on grid lines and the error is quadratic in the
    step rather than linear.
    """
    qa = np.asarray(q)
    u1, u2, u3 = float(upper[0]), float(upper[1]), float(upper[2])
    lo1 = max(0.0, 1.0 - u2 - u3)
    hi1 = min(1.0, u1)
    best = math.inf
    for p1 in np.linspace(lo1, hi1, steps + 1):
        lo2 = max(0.0, 1.0 - p1 - u3)
        hi2 = min(u2, 1.0 - p1)
        if lo2 > hi2:
            continue
        p2 = np.linspace(lo2, hi2, steps + 1)
        P = np.stack([np.full_like(p2, p1), p2, 1.0 - p1 - p2], axis=1)
        P = np.clip(P, 0.0, None)
        if np.any(qa <= 0):
            ok = ~np.any((P > 0) & (qa <= 0), axis=1)
            P = P[ok]
            if P.size == 0:
                continue
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(P > 0, P * np.log(P / qa), 0.0)
        best = min(best, float(terms.sum(axis=1).min()))
    return best


class TestSolveSingleton:
    def test_two_category_frozen_example(self):
        # golden-section oracle value frozen: D* = 0.13081203594113697
        res = solve_singleton(counts(80, 20), dist(0.5, 0.5), 0.2)
        assert res.objective == pytest.approx(0.13081203594113697, abs=1e-12)
        np.testing.assert_allclose(res.p_star.probs, [0.75, 0.25], atol=1e-12)
        oracle_obj, oracle_p = golden_section_two_cat([0.8, 0.2], [0.5, 0.5], 0.2)
        assert res.objective == pytest.approx(oracle_obj, abs=1e-9)
        np.testing.assert_allclose(res.p_star.probs, oracle_p, atol=1e-6)

    def test_alpha_zero_pins_to_empirical(self):
        c = counts(7, 12, 31)
        q = dist(0.2, 0.3, 0.5)
        res = solve_singleton(c, q, 0.0)
        np.testing.assert_allclose(res.p_star.probs, empirical(c).probs, atol=1e-12)
        assert res.objective == pytest.approx(
            kl_divergence(empirical(c), q), abs=1e-12
        )

    def test_three_category_frozen_example(self):
        res = solve_singleton(counts(20, 30, 50), dist(0.5, 0.3, 0.2), 0.5)
        np.testing.assert_allclose(res.p_star.probs, [0.4, 0.36, 0.24], atol=1e-12)
        assert res.objective == pytest.approx(0.02013551355068887, abs=1e-12)

    def test_matches_dense_simplex_grid(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            c = EmpiricalCounts(rng.integers(1, 40, size=3))
            q = Distribution(rng.dirichlet(np.ones(3)))
            alpha = float(rng.uniform(0.0, 0.8))
            res = solve_singleton(c, q, alpha)
            upper = empirical(c).probs / (1 - alpha)
            grid = simplex_grid_min(upper, q.probs)
            assert res.objective <= grid + 1e-9
            assert grid - res.objective <= 5e-4

    def test_kkt_certificate_random(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            c = EmpiricalCounts(rng.integers(0, 30, size=n) + (rng.random(n) < 0.7))
            if c.total == 0:
                continue
            q = Distribution(rng.dirichlet(np.ones(n)))
            alpha = float(rng.uniform(0.0, 0.95))
            res = solve_singleton(c, q, alpha)
            if math.isinf(res.objective):
                continue
            assert_kkt(res, c, q, alpha)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            c = EmpiricalCounts(rng.integers(1, 30, size=n))
            q = Distribution(rng.dirichlet(np.ones(n)))
            alphas = np.sort(rng.uniform(0, 0.99, size=6))
            objs = [solve_singleton(c, q, a).objective for a in alphas]
            for lo_obj, hi_obj in zip(objs, objs[1:]):
                assert hi_obj <= lo_obj + 1e-12

    def test_zero_objective_at_separation_distance(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            c = EmpiricalCounts(rng.integers(1, 30, size=n))
            q = Distribution(rng.dirichlet(np.ones(n)))
            kappa = separation_distance(empirical(c), q)
            if kappa >= 1.0:
                continue
            assert solve_singleton(c, q, kappa).objective <= 1e-9

    def test_model_support_hole_forces_infinite(self):
        res = solve_singleton(counts(50, 50), dist(1.0, 0.0), 0.0)
        assert math.isinf(res.objective)
        # feasible iterate still reported
        assert res.p_star.probs.sum() == pytest.approx(1.0)
        # widening the box enough makes the support hole avoidable
        res2 = solve_singleton(counts(50, 50), dist(1.0, 0.0), 0.5)
        assert res2.objective == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_alpha_and_dims(self):
        with pytest.raises(ValueError):
            solve_singleton(counts(1, 1), dist(0.5, 0.5), 1.0)
        with pytest.raises(ValueError):
            solve_singleton(counts(1, 1), dist(0.5, 0.3, 0.2), 0.1)

    def test_duals_with_overflowing_level(self):
        # c = 1/1e-300 on the first category; the second's multiplier is
        # log(1e300) - log(1e-15) = 725.31, finite.
        res = solve_singleton(counts(10**15, 1), dist(1e-300, 1.0), 0.0)
        assert res.duals.lam[1] == pytest.approx(math.log(1e300) - math.log(1e-15), rel=1e-6)

    def test_fill_with_zero_level(self):
        # At alpha = 0.5 the caps are (1/3, 1, 2/3); q_b is below the rounding
        # of q_c, so b's level is chosen with nothing left to fill.  The
        # optimum saturates a and fills c: D = 1/3 log(1/3) + 2/3 log(2/3 / 1e-20).
        res = solve_singleton(counts(1, 3, 2), dist(1.0, 1e-300, 1e-20), 0.5)
        expected = math.log(1 / 3) / 3 + 2 / 3 * math.log(2 / 3 / 1e-20)
        assert res.objective == pytest.approx(expected, rel=1e-9)


def water_fill_pos_reference(cap, qs):
    """``_water_fill_pos`` as it was with a stable argsort, kept to compare bits."""
    with np.errstate(over="ignore"):
        ratios_unsorted = cap / qs
        order = np.argsort(ratios_unsorted, kind="stable")
        ratios = ratios_unsorted[order]
        if ratios[-1] == math.inf:
            return water_fill_pos_reference(cap, np.ldexp(qs, 960))[0], math.inf
        cap_s = cap[order]
        q_s = qs[order]
        sat_mass = np.concatenate(([0.0], np.cumsum(cap_s)[:-1]))
        free_q = np.cumsum(q_s[::-1])[::-1]
        candidates = (1.0 - sat_mass) / free_q
    valid = candidates <= ratios
    if valid.any():
        k = int(np.argmax(valid))
        c = float(candidates[k])
        if not c > 0:
            c = float(ratios[k - 1])
    else:
        c = float(ratios[-1])
    p = np.minimum(cap, c * qs)
    p /= p.sum()
    return p, c


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def assert_stable_order(x):
    order, xs = _stable_order(x)
    expected = np.argsort(x, kind="stable")
    assert np.array_equal(order, expected)
    assert np.array_equal(bits(xs), bits(x[expected]))


def assert_fill_bits(cap, qs):
    p, c = _water_fill_pos(cap, qs)
    p_ref, c_ref = water_fill_pos_reference(cap, qs)
    assert np.array_equal(bits(p), bits(p_ref))
    assert c == c_ref


# Small integers, zeros (zero counts, model-only categories) and inf (an
# overflowed ratio) make ties common; floats add runs of distinct values.
tied_values = st.lists(
    st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0, 3.0, math.inf])
    | st.integers(0, 4).map(float)
    | st.floats(0.0, 1e6),
    min_size=1,
    max_size=300,
)


@st.composite
def tied_fills(draw):
    """Caps and positive q for ``_water_fill_pos``, with tied breakpoints."""
    n = draw(st.integers(1, 80))
    c = np.asarray(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float)
    c[0] += c.sum() == 0
    w = st.sampled_from([1.0, 1.0, 2.0, 3.0, 1e-310]) | st.floats(1e-3, 1.0)
    q = np.asarray(draw(st.lists(w, min_size=n, max_size=n)))
    alpha = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
    return c / c.sum() / (1.0 - alpha), q / q.sum()


SPREAD_Q = np.random.default_rng(3).dirichlet(np.ones(800))


class TestWaterFillOrder:
    @settings(max_examples=300, deadline=None)
    @given(tied_values)
    def test_stable_order_is_the_stable_argsort(self, values):
        assert_stable_order(np.asarray(values))

    @pytest.mark.parametrize(
        "x",
        [[5.0], [0.0, 0.0], [1.0, 0.0], [math.inf, math.inf], [-0.0, 0.0, -0.0, 0.0]],
        ids=["n1", "n2-tied", "n2", "n2-inf", "signed-zeros"],
    )
    def test_stable_order_small(self, x):
        assert_stable_order(np.asarray(x))

    @pytest.mark.parametrize(
        "cap, qs",
        [
            pytest.param(np.full(1000, 1e-3), np.full(1000, 1e-3), id="uniform-equal-counts"),
            # Tied breakpoints 0 and 4 over unequal q: the prefix sums see the tie order.
            pytest.param(
                np.where(np.arange(800) % 2, 4.0, 0.0) * SPREAD_Q,
                SPREAD_Q,
                id="zero-caps",
            ),
            pytest.param(
                np.array([0.25, 0.0, 0.125, 0.5, 0.0, 0.375, 0.0]),
                np.array([1e-310, 2e-310, 0.5, 1e-310, 0.25, 3e-310, 0.25]),
                id="subnormal-q",
            ),
        ],
    )
    def test_water_fill_keeps_its_bits(self, cap, qs):
        assert_fill_bits(cap, qs)

    @settings(max_examples=200, deadline=None)
    @given(tied_fills())
    def test_property_water_fill_keeps_its_bits(self, case):
        assert_fill_bits(*case)


def check_profile(c, q, alpha):
    """The profile's D(alpha) is within its own bound of the exact objective.

    Returns the probe, or None where the profile declines.
    """
    profile = _singleton_profile(c, q)
    exact = solve_singleton(c, q, alpha).objective
    if profile is None:
        # It declines only on subnormal model masses.
        assert np.any((q.probs > 0) & (q.probs < np.finfo(float).tiny))
        return None
    probe = profile(alpha)
    if probe is not None:
        d, err = probe
        if d == math.inf:
            assert err == 0.0 and exact == math.inf, (alpha, exact)
        else:
            assert abs(d - exact) <= err, (alpha, d, exact, err)
    return probe


PROFILE_ALPHAS = (0.0, 2.0**-52, 1e-12, 1e-6, 0.1, 0.37, 0.5, 0.8, 0.99, 1 - 1e-9, 1 - 2.0**-53)


@st.composite
def profile_cases(draw):
    n = draw(st.integers(1, 12))
    masses = st.sampled_from([0.0, 1e-300, 1e-20, 0.25, 1.0]) | st.floats(0.0, 4.0)
    values = st.integers(0, 9) | st.integers(0, 10**6) | st.just(10**15)
    q = draw(st.lists(masses, min_size=n, max_size=n).filter(lambda v: sum(v) > 0))
    c = draw(st.lists(values, min_size=n, max_size=n).filter(lambda v: sum(v) > 0))
    alpha = draw(st.sampled_from(PROFILE_ALPHAS) | st.floats(0.0, 1.0, exclude_max=True))
    return EmpiricalCounts(np.asarray(c, dtype=np.int64)), dist(*q), alpha


class TestSingletonProfile:
    @pytest.mark.parametrize(
        "c, q",
        [
            pytest.param(counts(0, 0, 7, 3, 0), dist(0.1, 0.3, 0.2, 0.25, 0.15), id="zero-counts"),
            pytest.param(counts(3, 5, 2), dist(0.5, 0.5, 0.0), id="zero-q"),
            pytest.param(counts(*[4] * 6), uniform(6), id="tied-ratios"),
            pytest.param(counts(40, 2, 9, 0, 1), dist(0.2, 0.2, 0.2, 0.2, 0.2), id="spike"),
            pytest.param(counts(5, 5), dist(1.0, 1e-20), id="tiny-q"),
        ],
    )
    def test_matches_exact_solve_within_bound(self, c, q):
        probes = [check_profile(c, q, alpha) for alpha in PROFILE_ALPHAS]
        assert all(probe is not None for probe in probes)

    def test_alpha_zero_saturates_every_cap(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            c = EmpiricalCounts(rng.integers(0, 1000, size=n) + 1)
            q = Distribution(rng.dirichlet(np.ones(n)))
            d, _ = check_profile(c, q, 0.0)
            assert d == pytest.approx(kl_divergence(empirical(c), q), rel=1e-12)

    def test_support_deficit_is_infinite_up_to_its_edge(self):
        # 0.2 of the mass sits where q is zero: the caps on supp(q) carry
        # 0.8 / (1 - alpha), which reaches 1 - 1e-12 at alpha = 0.2 - 8e-13.
        c, q = counts(3, 5, 2), dist(0.5, 0.5, 0.0)
        edge = 1.0 - 0.8 / (1.0 - 1e-12)
        assert check_profile(c, q, 0.1) == (math.inf, 0.0)
        assert check_profile(c, q, edge - 1e-13) == (math.inf, 0.0)
        assert check_profile(c, q, edge) is None
        assert check_profile(c, q, edge + 1e-13)[0] < math.inf
        assert check_profile(c, q, 0.2)[0] < math.inf

    def test_subnormal_model_mass_declines(self):
        # phat_b / q_b overflows for the subnormal q_b; solve decides.
        assert _singleton_profile(counts(5, 5), dist(1.0, 1e-320)) is None
        # No ratio overflows here, but 2.5 / q_a does at alpha = 0.8.
        assert _singleton_profile(counts(1, 1), dist(2.0**-1024, 1.0)) is None

    def test_dimension_checked(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            _singleton_profile(counts(1, 1), dist(0.5, 0.3, 0.2))

    @settings(max_examples=200, deadline=None)
    @given(profile_cases())
    def test_property_matches_exact_solve_within_bound(self, case):
        check_profile(*case)


def kl_reference(p, q):
    """``_kl`` as it was with masked copies throughout, kept to compare bits."""
    mask = p > 0
    ps = p[mask]
    qs = q[mask]
    q_min = qs.min(initial=1.0)
    if q_min <= 0:
        return math.inf
    with np.errstate(over="ignore"):
        logs = np.log(ps / qs)
    if q_min < _SMALLEST_NORMAL:
        big = np.isinf(logs)
        logs[big] = np.log(ps[big]) - np.log(qs[big])
    return max(0.0, float(np.sum(ps * logs)))


def box_duals_reference(upper, q, c):
    """``_box_duals`` as it was, masked throughout, kept to compare bits."""
    supp = q > 0
    cap = upper[supp]
    qs = q[supp]
    lam = np.zeros(q.size)
    lam_supp = np.zeros(cap.size)
    pos = cap > 0
    lam_supp[pos] = np.maximum(0.0, math.log(c) + np.log(qs[pos] / cap[pos]))
    lam[supp] = lam_supp
    return lam


def singleton_profile_reference(c, q0):
    """``_singleton_profile`` as it was, with masked copies and concatenated
    prefix sums, kept to compare bits."""
    q = q0.probs
    supp = q > 0
    ph = empirical(c).probs[supp]
    qs = q[supp]
    if qs.min() < _SMALLEST_NORMAL:
        return None
    mass = float(ph.sum())
    r = ph / qs
    order = np.argsort(r)
    r, ph, qs = r[order], ph[order], qs[order]
    terms = ph * np.log(r, out=np.zeros_like(r), where=ph > 0)
    sat = np.concatenate(([0.0], np.cumsum(ph)))
    ent = np.concatenate(([0.0], np.cumsum(terms)))
    ent_abs = np.concatenate(([0.0], np.cumsum(np.abs(terms))))
    free_q = np.cumsum(qs[::-1])[::-1]
    reach = np.maximum.accumulate(sat[:-1] + r * free_q)
    m = r.size
    tol = (m + 2) * _EPS
    edge = 2.0 * (math.log2(m) + 20.0) * _EPS
    log_r_max = abs(math.log(float(r[-1]))) if r[-1] > 0 else math.inf
    ent_total = float(ent[-1])
    ent_abs_total = float(ent_abs[-1])

    def probe(alpha):
        keep = 1.0 - alpha
        total = mass / keep
        if total < 1.0 - SIMPLEX_ATOL - edge:
            return math.inf, 0.0
        if total <= 1.0 - SIMPLEX_ATOL + edge:
            return None
        log_keep = math.log(keep)
        if total <= 1.0 + 2.0 * tol:
            d = max(0.0, ent_total / mass - math.log(mass))
            scale = ent_abs_total / mass + abs(math.log(mass)) + 1.0 + abs(d)
            slack = (abs(1.0 - total) + 2.0 * tol) * (log_r_max + abs(log_keep) + abs(d) + 2.0)
            return d, 4.0 * tol * scale + slack
        k = int(np.searchsorted(reach, keep))
        if k == m:
            return None
        s = float(sat[k])
        free = 1.0 - s / keep
        if not free > 0:
            return None
        log_c = math.log(free / float(free_q[k]))
        d = max(0.0, (float(ent[k]) - s * log_keep) / keep + free * log_c)
        scale = (float(ent_abs[k]) + s * abs(log_keep)) / keep + (s / keep + 1.0) * (
            abs(log_c) + 1.0
        ) + abs(d)
        return d, 4.0 * tol * scale

    return probe


def hexes(values):
    """Values as ``float.hex`` strings, None kept: equal lists mean equal bits."""
    return None if values is None else [float(v).hex() for v in values]


# Zeros (zero counts, model-only categories, zero caps) and subnormal model
# masses reach the masked and overflow branches.
in_place_masses = st.sampled_from([0.0, 0.0, 1e-310, 1e-300, 1e-20, 0.25, 1.0]) | st.floats(
    0.0, 4.0
)


@st.composite
def in_place_cases(draw):
    """Raw p, q and caps with zeros and subnormals, a level, and counts."""
    n = draw(st.integers(1, 40))
    vectors = st.lists(in_place_masses, min_size=n, max_size=n).filter(lambda v: sum(v) > 0)
    # Half the vectors lose their zeros, for the unmasked paths.
    p, q, upper = (
        np.where(v > 0, v, 0.5) if draw(st.booleans()) else v
        for v in (np.asarray(draw(vectors)) for _ in range(3))
    )
    p, q = p / p.sum(), q / q.sum()
    level = draw(st.sampled_from([1e-3, 1.0, 7.5, 1e300]) | st.floats(1e-6, 1e6))
    c = draw(st.lists(st.integers(0, 9) | st.integers(0, 10**6), min_size=n, max_size=n))
    c[0] += sum(c) == 0
    return p, q, upper, level, EmpiricalCounts(np.asarray(c, dtype=np.int64))


class TestInPlaceBits:
    """The in-place ``_kl``, ``_box_duals`` and profile keep the bits of their
    masked, copying forms."""

    @pytest.mark.parametrize(
        "p, q",
        [
            pytest.param([0.5, 0.5, 0.0], [0.25, 0.25, 0.5], id="zero-p"),
            pytest.param([0.5, 0.25, 0.25], [0.5, 0.5, 0.0], id="zero-q"),
            pytest.param([0.5, 0.5], [1.0, 1e-310], id="subnormal-q-overflow"),
            pytest.param([0.0, 1.0], [1.0, 1e-310], id="subnormal-q-masked"),
            pytest.param([0.2, 0.3, 0.5], [0.5, 0.3, 0.2], id="positive"),
        ],
    )
    def test_kl_cases(self, p, q):
        p, q = np.asarray(p), np.asarray(q)
        assert hexes([_kl(p, q)]) == hexes([kl_reference(p, q)])

    @pytest.mark.parametrize(
        "upper, q",
        [
            pytest.param([0.5, 0.0, 0.75], [0.25, 0.5, 0.25], id="zero-cap"),
            pytest.param([0.5, 0.5, 0.75], [0.5, 0.5, 0.0], id="zero-q"),
            pytest.param([0.5, 0.5, 0.75], [1.0, 1e-310, 0.5], id="subnormal-q"),
            pytest.param([0.5, 0.25, 0.75], [0.25, 0.5, 0.25], id="positive"),
        ],
    )
    def test_box_duals_cases(self, upper, q):
        upper, q = np.asarray(upper), np.asarray(q)
        for level in (1e-3, 1.7, 1e300):
            lam = _box_duals(upper, q, level)
            assert hexes(lam) == hexes(box_duals_reference(upper, q, level))

    @settings(max_examples=300, deadline=None)
    @given(in_place_cases())
    def test_property_kl_and_box_duals_keep_their_bits(self, case):
        p, q, upper, level, _ = case
        # A subnormal cap or q_i can overflow or underflow q_i / upper_i, alike in both forms.
        with np.errstate(divide="ignore", over="ignore"):
            assert hexes([_kl(p, q)]) == hexes([kl_reference(p, q)])
            assert hexes([_kl(q, p)]) == hexes([kl_reference(q, p)])
            lam = _box_duals(upper, q, level)
            assert hexes(lam) == hexes(box_duals_reference(upper, q, level))

    @settings(max_examples=200, deadline=None)
    @given(in_place_cases())
    def test_property_profile_keeps_its_bits(self, case):
        _, q, _, _, c = case
        q0 = Distribution(q)
        profile = _singleton_profile(c, q0)
        reference = singleton_profile_reference(c, q0)
        assert (profile is None) == (reference is None)
        if profile is not None:
            for alpha in PROFILE_ALPHAS:
                assert hexes(profile(alpha)) == hexes(reference(alpha)), alpha


def traced_peak(fn):
    """Peak bytes that ``tracemalloc`` sees numpy and Python allocate in ``fn()``."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


class TestSingletonMemory:
    """A singleton verdict holds at most 6 arrays of n floats at once, and an
    estimate at most 11: the water fill, duals and KL work in place, and the
    profile keeps five arrays for the bisection."""

    N = 100_000

    @pytest.fixture(scope="class")
    def instance(self):
        rng = np.random.default_rng(7)
        q = rng.dirichlet(np.full(self.N, 5.0))
        target = 0.9 * q
        target[rng.choice(self.N, size=5, replace=False)] += 0.02
        return EmpiricalCounts(rng.multinomial(300 * self.N, target)), Singleton(Distribution(q))

    def test_is_contaminated_peak(self, instance):
        c, model = instance
        peak = traced_peak(lambda: is_contaminated(c, model, 0.05))
        assert peak <= 6 * 8 * self.N, peak / (8 * self.N)

    def test_estimate_peak(self, instance):
        c, model = instance
        peak = traced_peak(lambda: estimate_alpha_lower(c, model, 0.05))
        assert peak <= 11 * 8 * self.N, peak / (8 * self.N)


class TestClosedFormSingleton:
    def test_validity_interval_endpoints(self):
        # ratios (0.4, 1.0, 2.5): interval is [1-0.2-1.0*(1-0.5), 0.6] = [0.3, 0.6]
        c = counts(20, 30, 50)
        q = dist(0.5, 0.3, 0.2)
        assert closed_form_singleton(c, q, 0.29) is None
        assert closed_form_singleton(c, q, 0.3 + 1e-9) is not None
        assert closed_form_singleton(c, q, 0.6) is not None
        assert closed_form_singleton(c, q, 0.61) is None

    def test_matches_numeric_inside_interval(self):
        c = counts(20, 30, 50)
        q = dist(0.5, 0.3, 0.2)
        cf = closed_form_singleton(c, q, 0.5)
        num = solve_singleton(c, q, 0.5)
        np.testing.assert_allclose(cf.p_star.probs, num.p_star.probs, atol=1e-12)
        np.testing.assert_allclose(cf.p_star.probs, [0.4, 0.36, 0.24], atol=1e-12)
        assert cf.objective == pytest.approx(num.objective, abs=1e-12)

    def test_at_kappa_recovers_model(self):
        c = counts(20, 30, 50)
        q = dist(0.5, 0.3, 0.2)
        cf = closed_form_singleton(c, q, 0.6)
        np.testing.assert_allclose(cf.p_star.probs, q.probs, atol=1e-12)
        assert cf.objective <= 1e-12

    def test_tied_minimum_ratio_absent(self):
        assert closed_form_singleton(counts(10, 10, 20), dist(0.25, 0.25, 0.5), 0.5) is None

    def test_zero_count_at_minimizer_absent(self):
        assert closed_form_singleton(counts(0, 10, 20), uniform(3), 0.9) is None

    def test_one_category_absent(self):
        assert closed_form_singleton(counts(5), dist(1.0), 0.0) is None

    def test_duals_satisfy_kkt(self):
        c = counts(20, 30, 50)
        q = dist(0.5, 0.3, 0.2)
        for alpha in (0.35, 0.45, 0.55):
            cf = closed_form_singleton(c, q, alpha)
            assert_kkt(cf, c, q, alpha)


class TestSolveMixture:
    def test_data_equal_to_component(self):
        q1 = dist(0.7, 0.2, 0.1)
        q2 = dist(0.1, 0.3, 0.6)
        res = solve_mixture(counts(70, 20, 10), (q1, q2), 0.0)
        assert res.objective <= 1e-5
        assert res.mixture_weights[0] >= 0.99
        assert res.converged

    def test_data_inside_mixture_hull(self):
        q1 = dist(0.7, 0.2, 0.1)
        q2 = dist(0.1, 0.3, 0.6)
        # counts give exactly 0.5*q1 + 0.5*q2 = (0.4, 0.25, 0.35)
        res = solve_mixture(counts(40, 25, 35), (q1, q2), 0.0)
        assert res.objective <= 1e-8

    def test_matches_weight_grid_oracle(self):
        rng = np.random.default_rng(59)
        for _ in range(8):
            c = EmpiricalCounts(rng.integers(1, 50, size=3))
            q1 = Distribution(rng.dirichlet(np.ones(3)))
            q2 = Distribution(rng.dirichlet(np.ones(3)))
            res = solve_mixture(c, (q1, q2), 0.1)
            upper = empirical(c).probs / 0.9
            grid = math.inf
            for i in range(201):
                w1 = i / 200
                mix = w1 * q1.probs + (1 - w1) * q2.probs
                _, obj, _ = _water_fill(upper, mix)
                grid = min(grid, obj)
            assert abs(res.objective - grid) <= 1e-4

    def test_objective_sequence_non_increasing(self, monkeypatch):
        # Chained two-iteration solves: each warm-starts from the weights of
        # the previous capped result, so the chain walks the descent once.
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 2)
        rng = np.random.default_rng(61)
        for _ in range(10):
            c = EmpiricalCounts(rng.integers(1, 50, size=4))
            comps = tuple(Distribution(rng.dirichlet(np.ones(4))) for _ in range(3))
            res = solve_mixture(c, comps, 0.2)
            trace = [res.objective]
            while not res.converged:
                res = solve_mixture(c, comps, 0.2, warm_start=res)
                trace.append(res.objective)
            assert len(trace) > 1
            assert np.all(np.diff(np.asarray(trace)) <= 1e-12)

    def test_iteration_cap_reports_best_iterate(self, monkeypatch):
        rng = np.random.default_rng(63)
        c = EmpiricalCounts(rng.integers(1, 50, size=6))
        comps = tuple(Distribution(rng.dirichlet(np.ones(6))) for _ in range(4))
        with monkeypatch.context() as m:
            m.setattr(solver, "MAX_ITERATIONS", 2)
            res = solve_mixture(c, comps, 0.1)
        assert not res.converged
        assert res.iterations == 2
        assert math.isfinite(res.objective)
        # the capped pair is consistent: q_star is the mixture at the weights
        # (a step past them moves q_star by 0.025 here)
        qmat = np.stack([d.probs for d in comps])
        np.testing.assert_allclose(
            res.q_star.probs, res.mixture_weights @ qmat, rtol=0, atol=1e-15
        )
        assert res.objective == kl_divergence(res.p_star, res.q_star)
        # capped run is an upper bound on the converged value
        full = solve_mixture(c, comps, 0.1)
        assert full.converged
        assert full.objective <= res.objective + 1e-12

    def test_threshold_probe_certified_against_ternary_search(self):
        # With two components the optimum is a convex function of one
        # weight, found to rounding by ternary search over water-fills.  A
        # probe reads True (converged, objective at or above the threshold)
        # for a threshold just below it and never for one just above it.
        rng = np.random.default_rng(89)
        checked = 0
        for _ in range(12):
            c = EmpiricalCounts(rng.integers(1, 50, size=4))
            comps = tuple(Distribution(rng.dirichlet(np.ones(4))) for _ in range(2))
            upper = empirical(c).probs / 0.9

            def g(w1):
                return _water_fill(upper, w1 * comps[0].probs + (1 - w1) * comps[1].probs)[1]

            lo, hi = 0.0, 1.0
            for _ in range(100):
                a, b = lo + (hi - lo) / 3, hi - (hi - lo) / 3
                if g(a) <= g(b):
                    hi = b
                else:
                    lo = a
            optimum = min(g(lo), g(0.0), g(1.0))
            if optimum < 1e-6:
                continue
            for scale, expected in ((1 + 1e-6, False), (1 - 1e-6, True)):
                threshold = optimum * scale
                res = solve_mixture(c, comps, 0.1, threshold=threshold)
                assert (res.converged and res.objective >= threshold) == expected
            checked += 1
        assert checked >= 6

    def test_results_consistent(self):
        rng = np.random.default_rng(67)
        c = EmpiricalCounts(rng.integers(1, 50, size=5))
        comps = tuple(Distribution(rng.dirichlet(np.ones(5))) for _ in range(3))
        res = solve_mixture(c, comps, 0.15)
        # q_star is the mixture at the reported weights
        np.testing.assert_allclose(
            res.q_star.probs,
            np.sum(res.mixture_weights[:, None] * np.stack([d.probs for d in comps]), axis=0),
            atol=1e-12,
        )
        assert res.objective == pytest.approx(
            kl_divergence(res.p_star, res.q_star), abs=1e-9
        )
        assert res.mixture_weights.sum() == pytest.approx(1.0, abs=1e-12)


    def test_first_iterate_below_tolerance_not_certified(self, monkeypatch):
        # The data is a mixture of the two components (optimum 0), and the
        # first iterate's objective, about 5e-11, lies between the threshold
        # and TOLERANCE.  Only a certified bound may read "at or above".
        c = counts(5_000_050, 4_999_950)
        model = Mixture((dist(0.6, 0.4), dist(0.4, 0.6)))
        threshold = 1e-11
        first = _water_fill(empirical(c).probs, np.array([0.5, 0.5]))[1]
        assert threshold <= first <= solver.TOLERANCE
        probe = solve_mixture(c, model.components, 0.0, threshold=threshold)
        monkeypatch.setattr(solver, "TOLERANCE", 1e-14)
        assert solve(c, model, 0.0).objective < threshold
        assert not (probe.converged and probe.objective >= threshold)

    @staticmethod
    def criterion_5_instances(count):
        """The first ``count`` instances of acceptance criterion 5."""
        rng = np.random.default_rng(20240005)
        for _ in range(count):
            comps = tuple(Distribution(rng.dirichlet(np.ones(50))) for _ in range(10))
            truth = rng.dirichlet(np.ones(50))
            yield EmpiricalCounts(rng.multinomial(100_000, truth)), Mixture(comps)

    def test_step_hands_over_its_fill(self, monkeypatch):
        # The model step returns the fill of the state it returns, so no
        # iteration water-fills the pair that the call before it filled.
        calls = []

        def recording_fill(upper, q):
            calls.append((upper.tobytes(), q.tobytes()))
            return _water_fill(upper, q)

        monkeypatch.setattr(solver, "_water_fill", recording_fill)
        for c, model in self.criterion_5_instances(3):
            calls.clear()
            estimate_alpha_lower(c, model, 0.05)
            assert len(calls) > 100
            assert all(a != b for a, b in zip(calls, calls[1:]))

    def test_flat_valley_work_count(self, monkeypatch):
        # Instance 24 of criterion 5 ends with weights from 0.64 down to
        # 1e-233; the multiplicative step alone shrinks such a weight only
        # geometrically, and SQUAREM took 7,822 iterations on it.
        iterations = []

        def counting_solve(*args, **kwargs):
            result = solve_mixture(*args, **kwargs)
            iterations.append(result.iterations)
            return result

        *_, (c, model) = self.criterion_5_instances(25)
        monkeypatch.setattr(solver, "solve_mixture", counting_solve)
        estimate_alpha_lower(c, model, 0.05)
        assert sum(iterations) <= 1_000, iterations

    def test_support_deficit(self):
        # No component puts mass on category 1, so no mixture can carry the
        # data's mass there until half the sample is discarded.
        c = counts(5, 5, 0)
        comps = (dist(0.7, 0.0, 0.3), dist(0.0, 0.0, 1.0))
        res = solve_mixture(c, comps, 0.0)
        assert res.objective == math.inf
        assert res.iterations == 0
        np.testing.assert_array_equal(res.p_star.probs, [0.5, 0.5, 0.0])
        np.testing.assert_array_equal(res.mixture_weights, [0.5, 0.5])
        est = estimate_alpha_lower(c, Mixture(comps), 0.05)
        assert est.alpha_lower == 0.5 - 2.0**-28
        assert est.c_lower == 4
        assert est.objective_at_alpha == math.inf


class TestSolveKlball:
    def test_data_inside_ball(self):
        c = counts(30, 30, 40)
        center = dist(0.3, 0.3, 0.4)
        res = solve_klball(c, center, 0.1, 0.0)
        assert res.objective <= 1e-12

    def test_huge_radius_always_zero(self):
        c = counts(90, 5, 5)
        res = solve_klball(c, uniform(3), 50.0, 0.0)
        assert res.objective <= 1e-9

    def test_matches_refined_grid_oracle(self):
        # D(center||phat) > radius so the optimum sits on the ball boundary
        c = counts(50, 20, 30)
        center = dist(0.2, 0.5, 0.3)
        radius = 0.05
        phat = empirical(c).probs
        assert _kl(center.probs, phat) > radius
        res = solve_klball(c, center, radius, 0.0)

        def feasible_min(grid_pts):
            best = math.inf
            for qv in grid_pts:
                if np.any((center.probs > 0) & (qv == 0)):
                    continue
                if _kl(center.probs, qv) <= radius:
                    best = min(best, _kl(phat, qv))
            return best

        coarse_steps = 150
        pts = [
            np.array([i, j, coarse_steps - i - j], dtype=float) / coarse_steps
            for i in range(coarse_steps + 1)
            for j in range(coarse_steps + 1 - i)
        ]
        coarse_best = feasible_min(pts)
        coarse_arg = min(
            (
                qv
                for qv in pts
                if not np.any((center.probs > 0) & (qv == 0))
                and _kl(center.probs, qv) <= radius
            ),
            key=lambda qv: _kl(phat, qv),
        )
        # local refinement around the coarse argmin (convex problem)
        window = 2.0 / coarse_steps
        fine = np.linspace(-window, window, 81)
        refined = [
            np.array([coarse_arg[0] + dx, coarse_arg[1] + dy, 1 - (coarse_arg[0] + dx) - (coarse_arg[1] + dy)])
            for dx in fine
            for dy in fine
            if coarse_arg[0] + dx >= 0
            and coarse_arg[1] + dy >= 0
            and (coarse_arg[0] + dx) + (coarse_arg[1] + dy) <= 1
        ]
        grid = min(coarse_best, feasible_min(refined))
        assert res.objective <= grid + 1e-9
        assert grid - res.objective <= 1e-4

    def test_objective_sequence_non_increasing(self, monkeypatch):
        # The KL ball converges in a few iterations, so re-solving with every
        # cap up to convergence is cheap; a capped solve reports the objective
        # of its last iteration.
        rng = np.random.default_rng(71)
        for _ in range(10):
            c = EmpiricalCounts(rng.integers(1, 50, size=4))
            center = Distribution(rng.dirichlet(np.ones(4)))
            trace = []
            for k in range(1, 1000):
                monkeypatch.setattr(solver, "MAX_ITERATIONS", k)
                res = solve_klball(c, center, 0.08, 0.1)
                trace.append(res.objective)
                if res.converged:
                    break
            assert res.converged
            assert np.all(np.diff(np.asarray(trace)) <= 1e-12)

    def test_iteration_cap_reports_last_water_fill(self, monkeypatch):
        # The first iteration water-fills against the center; D(center||P) >
        # radius, so the ball step would move q off the center.
        c = counts(50, 20, 30)
        center = dist(0.2, 0.5, 0.3)
        upper = empirical(c).probs / 0.9
        with monkeypatch.context() as m:
            m.setattr(solver, "MAX_ITERATIONS", 1)
            res = solve_klball(c, center, 0.05, 0.1)
        assert not res.converged
        assert res.iterations == 1
        np.testing.assert_array_equal(res.q_star.probs, center.probs)
        p, obj, _ = _water_fill(upper, res.q_star.probs)
        np.testing.assert_array_equal(res.p_star.probs, p)
        assert res.objective == obj
        full = solve_klball(c, center, 0.05, 0.1)
        assert full.converged
        assert full.objective <= res.objective + 1e-12

    def test_disjoint_support_handled(self):
        # ball centers always admit members covering the data support
        res = solve_klball(counts(100, 0), dist(0.0, 1.0), 0.05, 0.0)
        assert math.isfinite(res.objective)
        assert res.objective > 0
        # model stays inside the ball
        assert _kl(np.array([0.0, 1.0]), res.q_star.probs) <= 0.05 + 1e-9

    def test_projection_feasible_and_optimal(self):
        # Zeros in p (f(1) = inf) or in the center, a center mass scaled to
        # 1e-6 and radii from 1e-6 to 10**0.5.  The reference is the blend at
        # a brentq root in the weight t on p.
        rng = np.random.default_rng(0)
        on_boundary = 0
        for _ in range(400):
            n = int(rng.integers(2, 8))
            p = rng.dirichlet(np.ones(n))
            if rng.random() < 0.4:
                p[rng.integers(n)] = 0.0
            center = rng.dirichlet(np.ones(n))
            if rng.random() < 0.4:
                center[rng.integers(n)] = 0.0
            center[rng.integers(n)] *= 1e-6
            p /= p.sum()
            center /= center.sum()
            radius = 10.0 ** rng.uniform(-6.0, 0.5)
            q = _ball_projection(p, center, radius)
            assert np.all(q >= 0)
            assert _kl(center, q) <= radius
            assert _ball_projection(q, center, radius) is q
            if _kl(center, p) <= radius:
                assert q is p
                continue
            on_boundary += 1

            def blend(t):
                return t * p + (1.0 - t) * center

            t_ref = brentq(lambda t: _kl(center, blend(t)) - radius, 0.0, 1.0, xtol=1e-300)
            d_ref = _kl(p, blend(t_ref))
            assert _kl(p, q) <= d_ref + max(1e-10 * d_ref, 1e-12)
        assert 0 < on_boundary < 400

    def test_linear_max_bounds_and_meets_the_ball(self):
        # U bounds <a, Q> at every projection of a random point into the ball,
        # and the Newton search meets the dual's minimum, found here by
        # bounded Brent on the plain formula.  Zeros in the center put a floor
        # under nu; zeros in a, and a few large a_i, as in the solver.
        rng = np.random.default_rng(3)
        floors = 0
        for _ in range(200):
            n = int(rng.integers(2, 8))
            center = rng.dirichlet(np.ones(n))
            if rng.random() < 0.4:
                center[rng.integers(n)] = 0.0
                center /= center.sum()
            a = rng.exponential(size=n) * (rng.random(n) < 0.8)
            a[rng.integers(n)] *= 10.0 ** rng.uniform(0.0, 3.0)
            radius = 10.0 ** rng.uniform(-3.0, 0.0)
            bound, scale = _ball_linear_max(a, center, radius, None)
            pos = center > 0
            m = a[pos].max()
            floor = a[~pos].max(initial=-math.inf)
            floors += floor > m

            def dual(s):
                nu_s = max(m + math.exp(s), floor)
                return nu_s - math.exp(center[pos] @ np.log(nu_s - a[pos]) - radius)

            best = minimize_scalar(
                dual, bounds=(-30.0, 15.0), method="bounded", options={"xatol": 1e-12}
            )
            assert bound <= min(best.fun, a.max()) + 1e-9 * max(a.max(), 1.0)
            # A search warm-started from its own end finds no worse a bound.
            assert _ball_linear_max(a, center, radius, scale)[0] <= bound + 1e-12 * a.max()
            for _ in range(20):
                q = _ball_projection(rng.dirichlet(np.full(n, 0.3)), center, radius)
                assert a @ q <= bound + 1e-12 * max(a.max(), 1.0)
        assert 0 < floors < 200

    @pytest.mark.parametrize("tiny", [1e-320, 1e-300, 1e-20])
    def test_tiny_center_mass(self, tiny):
        # P_i / Q_i reaches 1e300 at the center (subnormal for 1e-320): the
        # bound's search must not overflow, and it still certifies the
        # optimum, Q = (e**-r, 1 - e**-r) with P at the caps (5/7, 2/7).
        res = solve_klball(counts(5, 5), dist(1.0, tiny), 0.05, 0.3)
        expected = 5 / 7 * (math.log(5 / 7) + 0.05) + 2 / 7 * (
            math.log(2 / 7) - math.log(-math.expm1(-0.05))
        )
        assert res.converged
        assert res.objective == pytest.approx(expected, abs=1e-9)

    @staticmethod
    def tiny_balls():
        """Seeded KL balls of radius 1e-14 to 1e-4: the center is the empirical
        distribution of 10**6 to 10**16 baseline samples with one count set to
        0, in a category the data (counts 1 to 99) uses."""
        rng = np.random.default_rng(5)
        for _ in range(24):
            n = int(rng.integers(3, 8))
            data = EmpiricalCounts(rng.integers(1, 100, size=n))
            base = rng.multinomial(int(10 ** rng.uniform(6, 16)), rng.dirichlet(np.ones(n)))
            base[rng.integers(n)] = 0
            baseline = EmpiricalCounts(base)
            yield data, empirical(baseline), klball_radius(baseline, 0.05)

    def test_tiny_radius_full_solve_matches_tight_solve(self, monkeypatch):
        # A full solve stops on its certified gap, or at a cycle in rounding
        # where the bound's rounding (eps times a dual nu of up to 3e9 here)
        # exceeds the gap: a tighter tolerance moves no objective by more
        # than TOLERANCE, and no solve spins to the iteration cap.
        for c, center, radius in self.tiny_balls():
            full = solve_klball(c, center, radius, 0.3)
            with monkeypatch.context() as m:
                m.setattr(solver, "TOLERANCE", 1e-14)
                tight = solve_klball(c, center, radius, 0.3)
            assert abs(full.objective - tight.objective) <= solver.TOLERANCE
            assert max(full.iterations, tight.iterations) <= 10


class TestKlBallCertificates:
    @staticmethod
    def balls():
        """Seeded KL balls around the empirical distribution of 400 baseline
        samples, one count set to 0 in every third, against 1,000 data
        samples from an unrelated distribution."""
        rng = np.random.default_rng(29)
        for i in range(30):
            n = int(rng.integers(3, 9))
            base = rng.multinomial(400, rng.dirichlet(np.ones(n)))
            if i % 3 == 0:
                base[rng.integers(n)] = 0
            baseline = EmpiricalCounts(base)
            data = EmpiricalCounts(rng.multinomial(1000, rng.dirichlet(np.ones(n))))
            yield data, empirical(baseline), klball_radius(baseline, 0.05)

    def test_bounds_hold_at_every_alpha(self, monkeypatch):
        # A probe's certificates hold at every alpha, not only at those a
        # bisection visits after it.  The True side's affine bound, less its
        # allowance, never passes a tight solve's objective (an upper bound
        # on the optimum); the False side's fill never drops below a tight
        # solve's certified lower bound.
        alphas = (0.0, 0.05, 0.1, 0.11, 0.2, 0.29, 0.3, 0.31, 0.45, 0.6, 0.8, 0.95)
        cases = 0
        for c, center, radius in self.balls():
            with monkeypatch.context() as m:
                m.setattr(solver, "TOLERANCE", 1e-14)
                tight = [solve_klball(c, center, radius, alpha) for alpha in alphas]
            for alpha0 in (0.1, 0.3):
                optimum = solve_klball(c, center, radius, alpha0).objective
                if not optimum > 1e-6:
                    continue
                passed = solver._KlBallSolver(c, center, radius)
                probe = solve_klball(c, center, radius, alpha0, threshold=0.5 * optimum)
                assert probe.lower_bound >= 0.5 * optimum
                passed._record(alpha0, 0.5 * optimum, probe)
                assert passed._certified(alpha0, 0.25 * optimum) is True
                failed = solver._KlBallSolver(c, center, radius)
                probe = solve_klball(c, center, radius, alpha0, threshold=2.0 * optimum)
                assert probe.converged and probe.objective < 2.0 * optimum
                failed._record(alpha0, 2.0 * optimum, probe)
                assert failed._certified(alpha0, 3.0 * optimum) is False
                for alpha, res in zip(alphas, tight):
                    assert passed._certified(alpha, res.objective + 1e-12) is None, alpha
                    assert failed._certified(alpha, res.lower_bound - 1e-12) is None, alpha
                cases += 1
        assert cases > 40

    def test_false_side_is_the_fixed_model_rule(self):
        # The stored model's False verdict is the plain rule "the fill
        # against Q is below the threshold", whether the sorted profile or,
        # within its rounding bound, the exact solve decides it.
        alphas = (0.0, 0.05, 0.1, 0.11, 0.2, 0.29, 0.3, 0.31, 0.45, 0.6, 0.8, 0.95)
        cases = 0
        for c, center, radius in self.balls():
            phat = empirical(c).probs
            for alpha0 in (0.1, 0.3):
                optimum = solve_klball(c, center, radius, alpha0).objective
                if not optimum > 1e-6:
                    continue
                failed = solver._KlBallSolver(c, center, radius)
                probe = solve_klball(c, center, radius, alpha0, threshold=2.0 * optimum)
                failed._record(alpha0, 2.0 * optimum, probe)
                q = probe.q_star.probs
                for alpha in alphas:
                    objective = _water_fill(phat / (1.0 - alpha), q)[1]
                    for factor in (1.0 - 1e-15, 1.0 + 1e-15, 0.5, 2.0):
                        threshold = objective * factor
                        got = failed._certified(alpha, threshold)
                        assert got is (False if objective < threshold else None), alpha
                    cases += 0.0 < objective < math.inf
        assert cases > 350


class TestSolverObject:
    """``solver._solver`` builds one object per data set and model set, with
    no O(n) work until a question needs it."""

    MODELS = (
        Singleton(dist(0.2, 0.3, 0.5)),
        Mixture((dist(0.2, 0.3, 0.5), dist(0.6, 0.2, 0.2))),
        KlBall(dist(0.2, 0.3, 0.5), 0.01),
    )

    @pytest.mark.parametrize("model", MODELS, ids=("singleton", "mixture", "klball"))
    def test_building_reads_no_data(self, model, monkeypatch):
        monkeypatch.setattr(solver, "empirical", None)
        solver._solver(counts(50, 20, 30), model)

    def test_singleton_solve_and_verdict_build_no_profile(self, monkeypatch):
        # A profile costs a sort of the data; one solve needs none.
        rng = np.random.default_rng(5)
        q = Distribution(rng.dirichlet(np.full(2000, 5.0)))
        target = 0.9 * q.probs
        target[:5] += 0.02
        cases = [
            (EmpiricalCounts(rng.multinomial(600_000, target)), Singleton(q)),
            (EmpiricalCounts(rng.multinomial(600_000, q.probs)), Singleton(q)),
        ]
        want = [(solve(c, model, 0.1), is_contaminated(c, model, 0.05)) for c, model in cases]

        def no_profile(*args):
            raise AssertionError("profile built")

        monkeypatch.setattr(solver, "_singleton_profile", no_profile)
        verdicts = set()
        for (c, model), (full, verdict) in zip(cases, want):
            got = solve(c, model, 0.1)
            assert got.objective.hex() == full.objective.hex()
            assert got.p_star.probs.tobytes() == full.p_star.probs.tobytes()
            assert got.duals.lam.tobytes() == full.duals.lam.tobytes()
            assert is_contaminated(c, model, 0.05) == verdict
            verdicts.add(verdict[0])
        assert verdicts == {False, True}


class TestSolveDispatch:
    def test_dispatches_and_validates(self):
        c = counts(8, 2)
        q = dist(0.5, 0.5)
        assert solve(c, Singleton(q), 0.2).objective == pytest.approx(
            0.13081203594113697, abs=1e-12
        )
        with pytest.raises(ValueError):
            solve(c, Singleton(q), -0.1)
        with pytest.raises(ValueError):
            solve(c, Singleton(q), 1.0)
        three = solve(c, Mixture((q, q, dist(0.9, 0.1))), 0.2)
        with pytest.raises(ValueError, match="warm_start weights"):
            solve_mixture(c, (q, dist(0.9, 0.1)), 0.2, warm_start=three)
        with pytest.raises(TypeError, match="unknown model set"):
            solve(c, q, 0.2)

    def test_zero_at_or_past_kappa_all_model_kinds(self, monkeypatch):
        monkeypatch.setattr(solver, "TOLERANCE", 1e-12)
        c = counts(60, 25, 15)
        phat = empirical(c)
        q = dist(0.3, 0.4, 0.3)
        kappa = separation_distance(phat, q)
        assert solve(c, Singleton(q), kappa).objective <= 1e-9
        comps = (q, dist(0.5, 0.25, 0.25))
        # the singleton member q is available to the mixture, so its kappa works
        assert solve(c, Mixture(comps), kappa).objective <= 1e-6
        assert solve(c, KlBall(q, 0.05), kappa).objective <= 1e-6

    def test_relaxation_lower_bounds_integer_removals(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            c = EmpiricalCounts(rng.integers(0, 8, size=n) + 1)
            q = Distribution(rng.dirichlet(np.ones(n)))
            p = c.total
            m = int(rng.integers(0, p))
            from contamest import integer_program_exact

            int_obj, _ = integer_program_exact(c, q, m)
            relaxed = solve(c, Singleton(q), m / p).objective
            assert relaxed <= int_obj + 1e-9

    @pytest.mark.parametrize(
        "kind",
        [
            "singleton",
            "mixture",
            "singleton-subnormal",
            "mixture-subnormal",
            "mixture-unequal-subnormal",
        ],
    )
    def test_model_mass_below_rounding_of_total(self, kind):
        # q_b = 1e-20 is below the ulp of q's total; the water level must
        # still see it, or the solver returns P = phat with objective 22.33.
        # q_b = 1e-320 is subnormal: the level and P_b / q_b overflow, and an
        # overflowed level puts P at the caps with objective inf.
        from contamest import integer_program_exact

        tiny = 1e-320 if kind.endswith("subnormal") else 1e-20
        c = counts(5, 5)
        q = dist(1.0, tiny)
        if kind.startswith("singleton"):
            model = Singleton(q)
        elif kind == "mixture":
            model = Mixture((q, dist(1.0, 1e-30)))
        elif kind == "mixture-unequal-subnormal":
            model = Mixture((q, dist(1.0, 0.0)))
        else:
            # Equal components keep the weights at (1/2, 1/2), so w @ Q is q
            # exactly; other weights round a subnormal mass to a few bits.
            model = Mixture((q, q))
        res = solve(c, model, 0.3)
        expected = 5 / 7 * math.log(5 / 7) + 2 / 7 * (math.log(2 / 7) - math.log(tiny))
        assert res.objective == pytest.approx(expected, abs=1e-9)
        int_obj, _ = integer_program_exact(c, q, 3)
        assert res.objective <= int_obj + 1e-9
