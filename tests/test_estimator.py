import itertools
import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from contamest import (
    Distribution,
    EmpiricalCounts,
    EstimateResult,
    KlBall,
    Mixture,
    Singleton,
    SweepConfig,
    convergence_bound,
    empirical,
    estimate_alpha_lower,
    gof_threshold,
    is_contaminated,
    klball_radius,
    separation_distance,
    solve,
    solve_klball,
    solve_mixture,
    sweep,
    two_sample_test,
    uniform,
)
import contamest.estimator as estimator_module
from contamest import solver
from contamest.estimator import DEFAULT_BISECT_TOL, _sweep_target, round_to_counts
from contamest.oracle import compositions

import test_solver


def counts(*values):
    return EmpiricalCounts(np.asarray(values, dtype=np.int64))


def dist(*probs):
    return Distribution(np.asarray(probs, dtype=float))


class TestGofThreshold:
    def test_worked_example(self):
        assert gof_threshold(100, 3, 0.05) == pytest.approx(0.3068645537460155, abs=1e-9)

    def test_effective_sample_size_substitution(self):
        assert gof_threshold(200 * (1 - 0.5), 3, 0.05) == gof_threshold(100, 3, 0.05)

    def test_vanishes_for_large_samples(self):
        assert gof_threshold(10**12, 3, 0.05) < 1e-9

    def test_monotone_in_effective_p(self):
        values = [gof_threshold(p, 4, 0.05) for p in (10, 100, 1000, 10**5)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_finite_where_one_over_epsilon_overflows(self):
        # 1 / 1e-310 is inf; the log term is 713.8
        assert math.isfinite(gof_threshold(10, 3, 1e-310))
        assert gof_threshold(10, 3, 1e-310) == (-math.log(1e-310) + 6 * math.log(11)) / 10
        assert math.isfinite(klball_radius(counts(4, 6), 5e-324))
        assert math.isfinite(convergence_bound(10, 3, 1e-310))

    def test_normal_epsilon_keeps_log_of_inverse(self):
        # log(1/0.01) and -log(0.01) differ in the last bit; reports keep the first
        assert math.log(1 / 0.01) != -math.log(0.01)
        assert gof_threshold(100, 3, 0.01) == (math.log(1 / 0.01) + 6 * math.log(101)) / 100

    def test_validation(self):
        with pytest.raises(ValueError):
            gof_threshold(0, 3, 0.05)
        with pytest.raises(ValueError):
            gof_threshold(10, 3, 1.0)
        with pytest.raises(ValueError):
            gof_threshold(-1.0, 2, 0.05)


class TestIsContaminated:
    def test_perfect_fit_not_flagged(self):
        model = Singleton(Distribution(np.array([0.5, 0.5])))
        verdict, margin = is_contaminated(counts(50, 50), model, 0.05)
        assert not verdict
        assert margin == pytest.approx(-gof_threshold(100, 2, 0.05), abs=1e-12)

    def test_point_mass_against_uniform_flagged(self):
        # D = log 2 = 0.6931 vs threshold 0.029957 + 0.04*log(101) = 0.214562
        model = Singleton(uniform(2))
        verdict, margin = is_contaminated(counts(100, 0), model, 0.05)
        assert verdict
        assert margin == pytest.approx(
            math.log(2) - 0.2145621434091903, abs=1e-9
        )

    def test_small_samples_cannot_be_flagged(self):
        # max possible divergence log(1/min q) stays below the threshold
        model = Singleton(Distribution(np.array([0.5, 0.5])))
        for c in [counts(3, 0), counts(2, 1), counts(0, 3)]:
            threshold = gof_threshold(c.total, 2, 0.05)
            assert threshold > math.log(2)
            verdict, _ = is_contaminated(c, model, 0.05)
            assert not verdict


class TestEstimateAlphaLower:
    def test_perfect_fit_gives_zero(self):
        model = Singleton(Distribution(np.array([0.5, 0.5])))
        res = estimate_alpha_lower(counts(500, 500), model, 0.05)
        assert res.alpha_lower == 0.0
        assert not res.contaminated
        assert res.c_lower == 0

    def test_bisection_brackets_the_crossing(self):
        model = Singleton(uniform(3))
        c = counts(900, 50, 50)
        res = estimate_alpha_lower(c, model, 0.05)
        assert res.contaminated
        assert res.bisection_width <= 2**-28
        p, n = c.total, c.n

        def predicate(alpha):
            obj = solve(c, model, alpha).objective
            return obj >= gof_threshold(p * (1 - alpha), n, 0.05)

        assert predicate(res.alpha_lower)
        assert not predicate(res.alpha_lower + res.bisection_width + 1e-12)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
    def test_bisect_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="bisect_tol"):
            estimate_alpha_lower(counts(900, 50, 50), Singleton(uniform(3)), 0.05, tol)

    def test_bisect_tol_below_float_spacing_terminates(self):
        # the midpoint stops moving before hi - lo reaches the tolerance
        model = Singleton(uniform(3))
        coarse = estimate_alpha_lower(counts(900, 50, 50), model, 0.05)
        fine = estimate_alpha_lower(counts(900, 50, 50), model, 0.05, 1e-300)
        assert 0 < fine.bisection_width <= 2 * np.spacing(fine.alpha_lower)
        assert coarse.alpha_lower <= fine.alpha_lower
        assert fine.alpha_lower <= coarse.alpha_lower + coarse.bisection_width

    def test_predicate_set_is_an_interval(self):
        # dense alpha scan: once the predicate fails it never recovers
        rng = np.random.default_rng(83)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            c = EmpiricalCounts(rng.integers(1, 200, size=n))
            q = Distribution(rng.dirichlet(np.ones(n)))
            p = c.total
            flags = []
            for alpha in np.linspace(0.0, 0.99, 150):
                obj = solve(c, Singleton(q), float(alpha)).objective
                flags.append(obj >= gof_threshold(p * (1 - alpha), n, 0.05))
            arr = np.asarray(flags)
            switch = np.flatnonzero(~arr[:-1] & arr[1:])
            assert switch.size == 0  # true-region is a prefix

    def test_alpha_lower_at_most_kappa(self):
        rng = np.random.default_rng(89)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            c = EmpiricalCounts(rng.integers(1, 500, size=n))
            q = Distribution(rng.dirichlet(np.ones(n)))
            res = estimate_alpha_lower(c, Singleton(q), 0.05)
            assert res.alpha_lower <= res.kappa + 2**-28
            assert res.kappa == pytest.approx(
                separation_distance(empirical(c), q), abs=1e-12
            )

    def test_monotone_in_p_with_fixed_empirical(self):
        # scaling counts by integers keeps the empirical fixed and grows p
        base = counts(70, 20, 10)
        model = Singleton(uniform(3))
        values = [
            estimate_alpha_lower(
                EmpiricalCounts(base.counts * factor), model, 0.05
            ).alpha_lower
            for factor in (1, 2, 5, 20, 100)
        ]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 2**-27

    def test_rate_bound_on_spike_instances(self):
        # gap to the separation distance within the stated square-root bound
        model = Singleton(uniform(11))
        for pi in (0.2, 0.4, 0.6):
            target = (1 - pi) * np.full(11, 1 / 11)
            target[0] += pi
            for p in (10**3, 10**4, 10**5):
                c = EmpiricalCounts(round_to_counts(target, p))
                res = estimate_alpha_lower(c, model, 0.05)
                assert res.kappa - res.alpha_lower <= convergence_bound(p, 11, 0.05) + 2**-28

    def test_count_bound_fields(self):
        model = Singleton(uniform(3))
        c = counts(900, 50, 50)
        res = estimate_alpha_lower(c, model, 0.05)
        assert res.c_lower == math.floor(1000 * res.alpha_lower)
        assert res.threshold_at_alpha == pytest.approx(
            gof_threshold(1000 * (1 - res.alpha_lower), 3, 0.05), abs=1e-15
        )

    def test_c_lower_is_the_exact_floor(self):
        # p * alpha_lower is 645586792247213.95 and rounds up to the float
        # 645586792247214.0, one sample past the exact floor: discarding
        # that many would take a fraction above alpha_lower.
        c = counts(509149247751360, 831943215280000, 831943215280000)
        res = estimate_alpha_lower(c, Singleton(uniform(3)), 0.05)
        assert res.alpha_lower == float.fromhex("0x1.303850c000000p-2")
        assert math.floor(c.total * res.alpha_lower) == 645586792247214
        assert res.c_lower == 645586792247213
        assert Fraction(res.c_lower, c.total) <= Fraction(res.alpha_lower)
        assert Fraction(res.c_lower + 1, c.total) > Fraction(res.alpha_lower)

    def test_predicate_monotone_for_convex_model_sets(self, monkeypatch):
        # the bisection premise holds for mixture and ball models too
        monkeypatch.setattr(solver, "TOLERANCE", 1e-12)
        rng = np.random.default_rng(79)
        c = EmpiricalCounts(rng.integers(1, 300, size=4))
        p, n = c.total, c.n
        models = [
            Mixture(tuple(Distribution(rng.dirichlet(np.ones(4))) for _ in range(3))),
            KlBall(Distribution(rng.dirichlet(np.ones(4))), 0.02),
        ]
        for model in models:
            flags = []
            for alpha in np.linspace(0.0, 0.99, 60):
                obj = solve(c, model, float(alpha)).objective
                flags.append(obj >= gof_threshold(p * (1 - alpha), n, 0.05))
            arr = np.asarray(flags)
            assert not np.any(~arr[:-1] & arr[1:])

    def test_works_for_mixture_and_ball_models(self):
        c = counts(900, 50, 50)
        mix = Mixture((uniform(3), Distribution(np.array([0.2, 0.3, 0.5]))))
        res_mix = estimate_alpha_lower(c, mix, 0.05)
        assert res_mix.contaminated
        assert 0 < res_mix.alpha_lower < 1
        ball = KlBall(uniform(3), 0.01)
        res_ball = estimate_alpha_lower(c, ball, 0.05)
        assert res_ball.contaminated
        # larger model sets can only lower the bound
        assert res_mix.alpha_lower <= estimate_alpha_lower(
            c, Singleton(uniform(3)), 0.05
        ).alpha_lower + 2**-27


class TestTwoSampleTest:
    def test_identical_counts_never_flagged(self):
        c = counts(37, 12, 51)
        for eps in (0.001, 0.01, 0.05, 0.2, 0.5, 0.9, 0.999):
            res = two_sample_test(c, c, eps)
            assert not res.contaminated
            assert res.alpha_lower == 0.0

    def test_disjoint_point_masses_strongly_flagged(self):
        res = two_sample_test(counts(1000, 0), counts(0, 1000), 0.05)
        assert res.contaminated
        assert res.alpha_lower >= 0.5

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            two_sample_test(counts(1, 2), counts(1, 2, 3), 0.05)

    def test_no_joint_support_required(self):
        # data and model supports overlap only partially; still well-defined
        res = two_sample_test(counts(10, 90, 0), counts(0, 80, 20), 0.05)
        assert math.isfinite(res.objective_at_alpha)


class TestConvergenceBound:
    def test_frozen_arithmetic(self):
        # sqrt((1/1e4) log 20 + (11/1e4) log(1e4 + 1)) computed independently
        assert convergence_bound(10**4, 11, 0.05) == pytest.approx(
            0.10213254932209206, abs=1e-12
        )

    def test_vanishes_with_p(self):
        assert convergence_bound(10**14, 11, 0.05) < 1e-5

    def test_validation(self):
        with pytest.raises(ValueError):
            convergence_bound(0, 3, 0.05)
        with pytest.raises(ValueError):
            convergence_bound(10, 3, 0.0)


class TestSweep:
    def test_zero_contamination_rows(self):
        config = SweepConfig(p_grid=(50, 500), pi_grid=(0.0,), family="spike", n=5)
        rows = sweep(config)
        assert len(rows) == 2
        for row in rows:
            assert row.alpha_lower == 0.0
            assert row.ratio == 0.0

    def test_row_order_and_schema(self):
        config = SweepConfig(
            p_grid=(100, 1000), pi_grid=(0.2, 0.4), family="spike", n=11
        )
        rows = sweep(config)
        assert [(r.pi, r.p) for r in rows] == [
            (0.2, 100),
            (0.2, 1000),
            (0.4, 100),
            (0.4, 1000),
        ]
        for row in rows:
            assert row.family == "spike"
            assert 0 <= row.alpha_lower <= 1
            assert row.threshold > 0
            assert row.wall_time_ms >= 0

    def test_ratio_non_decreasing_in_p(self):
        for family in ("spike", "dip"):
            config = SweepConfig(
                p_grid=(10**2, 10**3, 10**4, 10**5),
                pi_grid=(0.3, 0.5),
                family=family,
                n=11,
            )
            rows = sweep(config)
            for pi in (0.3, 0.5):
                ratios = [r.ratio for r in rows if r.pi == pi]
                for lo, hi in zip(ratios, ratios[1:]):
                    assert hi >= lo - 1e-7

    def test_ratio_approaches_one(self):
        config = SweepConfig(
            p_grid=(10**6,), pi_grid=(0.4,), family="spike", n=11
        )
        assert sweep(config)[0].ratio >= 0.95

    def test_determinism_modulo_wall_time(self):
        config = SweepConfig(p_grid=(200, 2000), pi_grid=(0.25,), family="dip", n=7)
        a = sweep(config)
        b = sweep(config)
        strip = lambda r: (r.p, r.pi, r.family, r.alpha_lower, r.kappa, r.ratio, r.threshold, r.objective)
        assert [strip(r) for r in a] == [strip(r) for r in b]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(p_grid=(), pi_grid=(0.1,), family="spike", n=5)
        with pytest.raises(ValueError):
            SweepConfig(p_grid=(10,), pi_grid=(0.1,), family="bump", n=5)
        with pytest.raises(ValueError):
            SweepConfig(p_grid=(10,), pi_grid=(1.5,), family="dip", n=5)
        with pytest.raises(ValueError):
            SweepConfig(p_grid=(10,), pi_grid=(0.5,), family="dip", n=1)
        with pytest.raises(ValueError, match="at most 2\\*\\*53"):
            SweepConfig(p_grid=(10, 2**53 + 1), pi_grid=(0.5,), family="dip", n=5)
        SweepConfig(p_grid=(2**53,), pi_grid=(0.5,), family="dip", n=5)


class TestRoundToCounts:
    def test_preserves_total_and_proximity(self):
        rng = np.random.default_rng(97)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            target = rng.dirichlet(np.ones(n))
            total = int(rng.integers(1, 10**6))
            rounded = round_to_counts(target, total)
            assert rounded.sum() == total
            assert np.all(rounded >= 0)
            assert np.max(np.abs(rounded - target * total)) < 1.0

    @pytest.mark.parametrize(
        "family, n, total",
        [("dip", 2, 2**53), ("spike", 2, 3 * 2**51), ("spike", 4, 3 * 2**51), ("spike", 5, 2**53)],
    )
    def test_float_overshoot_gives_units_back(self, family, n, total):
        # the scaled masses round past total, so the floors sum to total + 1
        target = _sweep_target(family, n, 0.2)
        rounded = round_to_counts(target, total)
        assert int(rounded.sum()) == total
        assert np.all(rounded >= 0)
        assert np.max(np.abs(rounded - target * total)) <= 2.0

    def test_deterministic_tie_break(self):
        # equal remainders: earliest indices receive the leftover units
        got = round_to_counts(np.full(4, 0.25), 5)
        np.testing.assert_array_equal(got, [2, 1, 1, 1])


class TestPinnedBounds:
    """Bounds recorded from the solver as released, pinned exactly.

    Bisection endpoints are dyadic, so ``alpha_lower`` compares by equality.
    The mixture and KL-ball probes stop at the threshold exits from warm
    starts; a change to either shows up here as a different endpoint.
    """

    def test_criterion_5_mixture_instances(self):
        # Certified endpoints: every True probe rests on a proven lower bound,
        # so they depend only on the optimum.  A certified bisection with the
        # plain multiplicative step, a different solver, gives the same two.
        rng = np.random.default_rng(20240005)
        expected = [
            (float.fromhex("0x1.6eda00ap-1"), 71650),
            (float.fromhex("0x1.7fa5a76p-1"), 74931),
        ]
        for alpha_lower, c_lower in expected:
            comps = tuple(Distribution(rng.dirichlet(np.ones(50))) for _ in range(10))
            truth = rng.dirichlet(np.ones(50))
            c = EmpiricalCounts(rng.multinomial(100_000, truth))
            res = estimate_alpha_lower(c, Mixture(comps), 0.05)
            assert res.contaminated
            assert res.alpha_lower == alpha_lower
            assert res.c_lower == c_lower

    @staticmethod
    def two_sample_pair():
        rng = np.random.default_rng(31)
        q = rng.dirichlet(np.full(40, 5.0))
        baseline = EmpiricalCounts(rng.multinomial(40_000, q))
        target = 0.8 * q
        target[[3, 17, 29]] += 0.2 / 3
        return EmpiricalCounts(rng.multinomial(40_000, target)), baseline

    def test_contaminated_two_sample_pair(self):
        data, baseline = self.two_sample_pair()
        res = two_sample_test(data, baseline, 0.05)
        assert res.contaminated
        assert res.alpha_lower == float.fromhex("0x1.ae54f4p-5")
        assert res.c_lower == 2101

    def test_klball_probe_stops_at_threshold(self):
        # An iterate below the threshold settles a probe; the full solve
        # takes one more iteration to meet its tolerance.
        data, baseline = self.two_sample_pair()
        model = KlBall(empirical(baseline), klball_radius(baseline, 0.05))
        alpha = 0.0625
        threshold = gof_threshold(data.total * (1 - alpha), data.n, 0.05)
        probe = solve_klball(data, model.center, model.radius, alpha, threshold=threshold)
        assert probe.objective < threshold
        assert probe.iterations == 2
        assert solve(data, model, alpha).iterations == 3

    def test_singleton_instance(self):
        rng = np.random.default_rng(37)
        q = rng.dirichlet(np.full(30, 3.0))
        target = 0.85 * q
        target[[0, 7]] += 0.075
        c = EmpiricalCounts(rng.multinomial(30_000, target))
        res = estimate_alpha_lower(c, Singleton(Distribution(q)), 0.05)
        assert res.contaminated
        assert res.alpha_lower == float.fromhex("0x1.762cd8p-4")
        assert res.c_lower == 2740


def reference_estimate(c, model, epsilon, bisect_tol=DEFAULT_BISECT_TOL):
    """The bisection with a full ``solve`` at every probe, as the estimator
    ran before singleton probes were answered from a sorted profile."""
    p, n = c.total, c.n

    def exceeds(alpha):
        return solve(c, model, alpha).objective >= gof_threshold(p * (1 - alpha), n, epsilon)

    at_zero = solve(c, model, 0.0)
    contaminated = at_zero.objective >= gof_threshold(p, n, epsilon)
    lo, hi = 0.0, 0.0
    if contaminated:
        hi = 1.0
        while hi - lo > bisect_tol:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if exceeds(mid):
                lo = mid
            else:
                hi = mid
    final = solve(c, model, lo) if lo > 0 else at_zero
    num, den = lo.as_integer_ratio()
    return EstimateResult(
        alpha_lower=lo,
        kappa=separation_distance(empirical(c), final.q_star),
        c_lower=p * num // den,
        threshold_at_alpha=gof_threshold(p * (1.0 - lo), n, epsilon),
        objective_at_alpha=final.objective,
        contaminated=contaminated,
        bisection_width=hi - lo,
    )


def assert_same_estimate(c, model, epsilon, bisect_tol=DEFAULT_BISECT_TOL):
    got = estimate_alpha_lower(c, model, epsilon, bisect_tol)
    return assert_same_fields(got, reference_estimate(c, model, epsilon, bisect_tol), c)


def assert_same_fields(got, want, c):
    for field in fields(EstimateResult):
        g, w = getattr(got, field.name), getattr(want, field.name)
        assert type(g) is type(w), (field.name, type(g), type(w))
        if isinstance(w, float):
            assert g.hex() == w.hex(), (field.name, g, w, tuple(c.counts)[:6])
        else:
            assert g == w, (field.name, g, w, tuple(c.counts)[:6])
    return got


def record_solves(monkeypatch):
    """``(alpha, threshold)`` of every call to ``solve_singleton``,
    ``solve_mixture`` and ``solve_klball``, the solves that the solver
    objects run, until ``monkeypatch`` is undone; a full solve's threshold
    is None."""
    calls = []
    for name in ("solve_singleton", "solve_mixture", "solve_klball"):

        def recording(*args, _solve=getattr(solver, name), **kwargs):
            calls.append((args[-1], kwargs.get("threshold")))
            return _solve(*args, **kwargs)

        monkeypatch.setattr(solver, name, recording)
    return calls


def wide_singleton(seed, n):
    """An input of the benchmark's singleton_wide generator: p = 300 n,
    10% of the mass moved onto five categories."""
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.full(n, 5.0))
    target = 0.9 * q
    target[rng.choice(n, size=5, replace=False)] += 0.02
    return EmpiricalCounts(rng.multinomial(300 * n, target)), Singleton(Distribution(q))


class TestSortOnceBisection:
    """Singleton estimates answer probes from one sorted profile and fall
    back to a solve near the threshold; every result field must equal the
    per-probe bisection's, bit for bit."""

    @pytest.mark.parametrize("family", ["dip", "spike"])
    def test_sweep_grid(self, family):
        for n in (2, 3, 10, 1000):
            model = Singleton(uniform(n))
            for pi in (0.0, 0.05, 0.3, 0.7, 1.0):
                target = _sweep_target(family, n, pi)
                for p in (1, 7, 100, 10**4, 10**6, 2**53):
                    assert_same_estimate(EmpiricalCounts(round_to_counts(target, p)), model, 0.05)

    def test_criterion_1_generator(self):
        rng = np.random.default_rng(20240001)
        for _ in range(100):
            n = int(rng.integers(3, 21))
            c = EmpiricalCounts(rng.integers(1, 100, size=n))
            q = Distribution(rng.dirichlet(np.ones(n)))
            assert_same_estimate(c, Singleton(q), 0.05)

    def test_criterion_2_and_3_generator(self):
        epsilons = itertools.cycle((0.01, 0.05, 0.1))
        for n in (2, 3):
            models = [uniform(n)] + ([dist(0.7, 0.2, 0.1)] if n == 3 else [])
            for q in models:
                for p in range(1, 15):
                    for vec in compositions(p, n):
                        c = EmpiricalCounts(np.asarray(vec, dtype=np.int64))
                        assert_same_estimate(c, Singleton(q), next(epsilons))

    def test_criterion_4_generator(self):
        model = Singleton(uniform(11))
        for pi in (0.2, 0.4, 0.6):
            target = np.full(11, (1 - pi) / 11)
            target[0] += pi
            for p in (10**2, 10**3, 10**4, 10**5, 10**6):
                assert_same_estimate(EmpiricalCounts(round_to_counts(target, p)), model, 0.05)

    @pytest.mark.parametrize("seed", [7, 11, 12])
    def test_singleton_wide_inputs(self, seed):
        assert assert_same_estimate(*wide_singleton(seed, 2000), 0.05).contaminated

    @pytest.mark.parametrize(
        "c, q",
        [
            pytest.param(counts(5, 5), dist(1.0, 1e-320), id="subnormal-q"),
            pytest.param(counts(3, 5, 2), dist(0.5, 0.5, 0.0), id="data-off-support"),
            pytest.param(counts(90, 0, 10), dist(0.5, 0.5, 0.0), id="zero-q-and-count"),
            pytest.param(counts(*[9] * 8), uniform(8), id="tied-ratios"),
            pytest.param(counts(10**15, 1), dist(0.5, 0.5), id="saturated-spike"),
        ],
    )
    def test_edge_inputs(self, c, q):
        for epsilon in (0.01, 0.05, 0.5):
            assert_same_estimate(c, Singleton(q), epsilon)

    def test_contaminated_wide_estimate_solves_at_most_twice(self, monkeypatch):
        calls = record_solves(monkeypatch)
        res = estimate_alpha_lower(*wide_singleton(7, 2000), 0.05)
        assert res.contaminated and res.alpha_lower > 0
        assert len(calls) <= 2, calls

    @pytest.mark.parametrize("seed", [7, 11])
    def test_probes_in_the_band_are_decided_by_the_probe_object(self, seed, monkeypatch):
        # A profile that bounds no probe puts every probe in its band, where
        # the solver object's ``exceeds`` runs the exact solve itself: its
        # full ``solve`` runs only the final solve, and every field keeps
        # its bits.
        c, model = wide_singleton(seed, 2000)
        want = estimate_alpha_lower(c, model, 0.05)
        calls = []
        full_solve = solver._SingletonSolver.solve

        def counting_solve(self, alpha):
            calls.append(alpha)
            return full_solve(self, alpha)

        monkeypatch.setattr(solver, "_singleton_profile", lambda c, q0: lambda a: (0.0, math.inf))
        monkeypatch.setattr(solver._SingletonSolver, "solve", counting_solve)
        assert_same_fields(estimate_alpha_lower(c, model, 0.05), want, c)
        assert want.contaminated and calls == [want.alpha_lower]


class TestProbePath:
    """The alpha = 0 verdict is a probe like the others, under its threshold."""

    KINDS = ("singleton", "mixture", "klball")

    @staticmethod
    def random_instances(rng, model_kind):
        for _ in range(12):
            n = int(rng.integers(2, 6))
            q = Distribution(rng.dirichlet(np.ones(n)))
            if model_kind == "singleton":
                model = Singleton(q)
            elif model_kind == "mixture":
                model = Mixture((q, Distribution(rng.dirichlet(np.ones(n)))))
            else:
                model = KlBall(q, float(rng.uniform(0.001, 0.05)))
            target = q.probs.copy()
            if rng.random() < 0.5:  # move a share of the mass onto one category
                target = 0.6 * target
                target[rng.integers(n)] += 0.4
            yield EmpiricalCounts(rng.multinomial(int(rng.integers(20, 2000)), target)), model

    # At a loose TOLERANCE a full solve's objective sits far above the
    # optimum; the verdict must still be the probe's.
    @pytest.mark.parametrize(
        "model_kind, tolerance",
        [(kind, None) for kind in KINDS] + [(kind, 1.0) for kind in KINDS],
        ids=KINDS + tuple(f"{kind}-tolerance-1" for kind in KINDS),
    )
    def test_verdict_matches_is_contaminated(self, model_kind, tolerance, monkeypatch):
        if tolerance is not None:
            monkeypatch.setattr(solver, "TOLERANCE", tolerance)
        rng = np.random.default_rng(83)
        verdicts = set()
        for c, model in self.random_instances(rng, model_kind):
            for epsilon in (0.01, 0.05):
                got = estimate_alpha_lower(c, model, epsilon).contaminated
                assert got == is_contaminated(c, model, epsilon)[0], (tuple(c.counts), epsilon)
                verdicts.add(got)
        assert verdicts == {False, True}

    def test_loose_full_solve_does_not_flag(self, monkeypatch):
        # The optimum is 0 (the data is 0.9 q1 + 0.1 q2) and the threshold
        # 4.9e-4; one iteration's objective, 0.37, is only an upper bound.
        model = Mixture((dist(0.9, 0.1), dist(0.1, 0.9)))
        c = counts(90000, 10000)
        monkeypatch.setattr(solver, "TOLERANCE", 1.0)
        verdict, margin = is_contaminated(c, model, 0.05)
        assert not verdict
        assert margin > 0.3  # the margin still reads the loose full solve
        assert not estimate_alpha_lower(c, model, 0.05).contaminated

    @pytest.mark.parametrize(
        "model_kind, tolerance",
        [(kind, None) for kind in KINDS] + [(kind, 1.0) for kind in KINDS],
        ids=KINDS + tuple(f"{kind}-tolerance-1" for kind in KINDS),
    )
    def test_verdict_outside_the_band_solves_once(self, model_kind, tolerance, monkeypatch):
        # The full solve's objective below the threshold, or its converged
        # bound at or above it, settles the verdict; only the band between
        # them, or a solve that did not converge, runs the threshold probe.
        # An exact singleton solve, whose bound is its objective, settles it.
        if tolerance is not None:
            monkeypatch.setattr(solver, "TOLERANCE", tolerance)
        rng = np.random.default_rng(83)
        settled, probed = set(), 0
        for c, model in self.random_instances(rng, model_kind):
            for epsilon in (0.01, 0.05):
                threshold = gof_threshold(c.total, c.n, epsilon)
                full = solve(c, model, 0.0)
                with monkeypatch.context() as m:
                    solves = record_solves(m)
                    verdict, margin = is_contaminated(c, model, epsilon)
                calls = [t for _, t in solves]
                assert margin == full.objective - threshold
                if full.objective < threshold or (
                    full.converged and full.lower_bound >= threshold
                ):
                    assert calls == [None]
                    settled.add(verdict)
                else:
                    assert calls == [None, threshold]
                    probed += 1
        if tolerance is None or model_kind == "singleton":
            # The default TOLERANCE, or an exact solve, settles every verdict here.
            assert settled == {False, True} and probed == 0
        else:
            assert probed > 0

    @pytest.mark.parametrize(
        "model",
        [
            pytest.param(Mixture((uniform(3), dist(0.2, 0.3, 0.5))), id="mixture"),
            pytest.param(KlBall(uniform(3), 0.01), id="klball"),
        ],
    )
    def test_clean_estimate_solves_once_in_full(self, model, monkeypatch):
        c = counts(310, 330, 360)
        calls = record_solves(monkeypatch)
        res = estimate_alpha_lower(c, model, 0.05)
        monkeypatch.undo()
        assert not res.contaminated and res.alpha_lower == 0.0
        assert calls == [(0.0, gof_threshold(c.total, c.n, 0.05)), (0.0, None)]
        assert res.objective_at_alpha.hex() == solve(c, model, 0.0).objective.hex()


def small_mixtures(rng, count):
    """Seeded criterion-5-style instances: k = 3 components over n = 6
    categories and 2,000 samples from an unrelated distribution."""
    for _ in range(count):
        comps = tuple(Distribution(rng.dirichlet(np.ones(6))) for _ in range(3))
        truth = rng.dirichlet(np.ones(6))
        yield EmpiricalCounts(rng.multinomial(2000, truth)), Mixture(comps)


def small_klballs(rng, count):
    """Seeded two-sample balls over n = 6 categories: the center is the
    empirical distribution of 500 baseline samples, with one count set to 0
    in every other instance, and 2,000 data samples come from an unrelated
    distribution, so the data has mass where such a center has none."""
    for i in range(count):
        base = rng.multinomial(500, rng.dirichlet(np.ones(6)))
        if i % 2:
            base[rng.integers(6)] = 0
        baseline = EmpiricalCounts(base)
        model = KlBall(empirical(baseline), klball_radius(baseline, 0.05))
        yield EmpiricalCounts(rng.multinomial(2000, rng.dirichlet(np.ones(6)))), model


class TestCertifiedProbes:
    """A mixture probe reads True only from a proven lower bound."""

    instances = staticmethod(small_mixtures)

    def test_capped_probe_reads_false(self, monkeypatch):
        # With one iteration a probe is True only if the Frank-Wolfe bound of
        # the first iterate reaches the threshold; a cap hit settles nothing.
        instances = list(self.instances(np.random.default_rng(5), 20))
        uncapped = [estimate_alpha_lower(c, model, 0.05) for c, model in instances]
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
        refuted = 0
        for (c, model), full in zip(instances, uncapped):
            capped = estimate_alpha_lower(c, model, 0.05)
            assert capped.alpha_lower <= full.alpha_lower
            threshold = gof_threshold(c.total, c.n, 0.05)
            if not solve_mixture(c, model.components, 0.0, threshold=threshold).converged:
                assert full.contaminated
                assert not capped.contaminated and capped.alpha_lower == 0.0
                refuted += 1
        assert refuted > 0

    def test_never_above_tight_bisection(self, monkeypatch):
        # The reference decides every probe by a tight full solve, one whose
        # objective is within 1e-14 of the optimum (a full solve stops at a
        # certified gap of TOLERANCE, or at a cycle in rounding).  Every True
        # verdict must survive it, whether a solve or a certificate left by
        # earlier probes decided it, so the certified endpoint, a point of
        # the same dyadic grid, never lies above the reference's.
        decided = []

        def recording_solver(c, model):
            probe_solver = solver._solver(c, model)
            exceeds = probe_solver.exceeds

            def recording_exceeds(alpha, threshold):
                verdict = exceeds(alpha, threshold)
                if verdict:
                    decided.append((c, model, alpha, threshold))
                return verdict

            probe_solver.exceeds = recording_exceeds
            return probe_solver

        rng = np.random.default_rng(17)
        for c, model in self.instances(rng, 20):
            with monkeypatch.context() as m:
                m.setattr(estimator_module, "_solver", recording_solver)
                got = estimate_alpha_lower(c, model, 0.05)
            with monkeypatch.context() as m:
                m.setattr(solver, "TOLERANCE", 1e-14)
                want = reference_estimate(c, model, 0.05)
                for data, probe_model, alpha, threshold in decided:
                    assert solve(data, probe_model, alpha).objective >= threshold
            decided.clear()
            assert got.alpha_lower <= want.alpha_lower


class TestMixtureFullSolves:
    """Full solves that the multiplicative step and SQUAREM alone leave at the cap."""

    @pytest.mark.parametrize(
        "seed, count, index, alpha",
        [
            (17, 20, 10, 0.8),  # the iteration cap with a gap of 9.4e-6
            (2, 40, 36, 0.25),  # interior weights; the cap with a gap of 6.3e-6
        ],
    )
    def test_converges_to_certified_gap(self, seed, count, index, alpha):
        c, model = list(small_mixtures(np.random.default_rng(seed), count))[index]
        res = solve(c, model, alpha)
        assert res.converged
        assert res.objective - res.lower_bound <= solver.TOLERANCE
        assert res.iterations < 1_000


class TestCertifiedKlballProbes(TestCertifiedProbes):
    """The same for KL-ball probes, centers with zero masses included."""

    instances = staticmethod(small_klballs)

    def test_capped_probe_reads_false(self, monkeypatch):
        # One iteration water-fills against the center, where the data's
        # mass outside the center's support reads an infinite objective and
        # no bound: a cap hit there refutes contaminated and clean pairs.
        instances = list(self.instances(np.random.default_rng(5), 20))
        uncapped = [estimate_alpha_lower(c, model, 0.05) for c, model in instances]
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
        refuted = 0
        for (c, model), full in zip(instances, uncapped):
            capped = estimate_alpha_lower(c, model, 0.05)
            assert capped.alpha_lower <= full.alpha_lower
            threshold = gof_threshold(c.total, c.n, 0.05)
            probe = solve_klball(c, model.center, model.radius, 0.0, threshold=threshold)
            if not probe.converged:
                assert not capped.contaminated and capped.alpha_lower == 0.0
                refuted += full.contaminated
        assert refuted > 0


def uncertified_estimate(c, model, epsilon):
    """``estimate_alpha_lower`` of a KL ball with a solve at every probe: a
    KL-ball solver whose certificates settle nothing."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver._KlBallSolver, "_certified", lambda self, alpha, threshold: None)
        return estimate_alpha_lower(c, model, epsilon)


def klball_twosample_pair(seed, n):
    """A contaminated pair of the benchmark's klball_twosample generator:
    p = 5,000 n on both sides, 20% of the data's mass moved onto three
    categories."""
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.full(n, 5.0))
    baseline = EmpiricalCounts(rng.multinomial(5000 * n, q))
    target = 0.8 * q
    target[rng.choice(n, size=3, replace=False)] += 0.2 / 3
    return EmpiricalCounts(rng.multinomial(5000 * n, target)), baseline


class TestKlballProbeCertificates:
    """KL-ball probes decided by earlier probes' certificates: the same
    verdicts as a solve at every probe, so the same bits, with fewer solves."""

    @pytest.mark.parametrize("epsilon", [0.01, 0.05, 0.3])
    def test_same_bits_as_a_solve_at_every_probe(self, epsilon):
        flagged = 0
        for seed in range(5):
            for c, model in small_klballs(np.random.default_rng(seed), 20):
                got = estimate_alpha_lower(c, model, epsilon)
                assert_same_fields(got, uncertified_estimate(c, model, epsilon), c)
                flagged += got.contaminated
        assert flagged > 0

    def test_same_bits_on_tiny_balls(self):
        for c, center, radius in test_solver.TestSolveKlball.tiny_balls():
            for epsilon in (0.05, 0.3):
                model = KlBall(center, radius)
                got = estimate_alpha_lower(c, model, epsilon)
                assert_same_fields(got, uncertified_estimate(c, model, epsilon), c)

    def test_contaminated_pair_solves_at_most_twelve_probes(self, monkeypatch):
        # A solve at every probe takes 29 threshold solves on this pair.
        solves = record_solves(monkeypatch)
        res = two_sample_test(*klball_twosample_pair(7, 80), 0.05)
        assert res.contaminated and res.alpha_lower > 0
        calls = [t for _, t in solves]
        assert calls[-1] is None  # the final full solve
        assert len(calls) - 1 <= 12, calls

    def test_contaminated_pair_water_fills_at_most_25_times(self, monkeypatch):
        # With a water-fill against the stored model at every probe that
        # reaches it, this pair takes 36 fills; the model's sorted profile
        # leaves 21.
        calls = []
        water_fill = solver._water_fill

        def counting_water_fill(*args):
            calls.append(1)
            return water_fill(*args)

        monkeypatch.setattr(solver, "_water_fill", counting_water_fill)
        res = two_sample_test(*klball_twosample_pair(7, 80), 0.05)
        assert res.contaminated and res.alpha_lower > 0
        assert len(calls) <= 25, len(calls)
