import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from contamest import (
    Distribution,
    EmpiricalCounts,
    KlBall,
    Mixture,
    Singleton,
    closed_form_singleton,
    empirical,
    estimate_alpha_lower,
    kl_divergence,
    separation_distance,
    solve,
    solve_klball,
    solve_mixture,
    solve_singleton,
    uniform,
)
from contamest import solver
from contamest.distributions import _kl
from contamest.solver import _ball_projection, _singleton_profile, _water_fill


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
            solve(c, Mixture((q, dist(0.9, 0.1))), 0.2, warm_start=three)
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
