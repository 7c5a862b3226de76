import collections
import hashlib
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
    SolveResult,
    SweepConfig,
    convergence_bound,
    empirical,
    estimate_alpha_lower,
    gof_threshold,
    is_contaminated,
    klball_radius,
    separation_distance,
    solve,
    sweep,
    two_sample_test,
    uniform,
)
import contamest.estimator as estimator_module
from contamest import solver
from contamest.estimator import DEFAULT_BISECT_TOL, _sweep_target, round_to_counts
from contamest.oracle import compositions, exact_cstar

import test_solver


def counts(*values):
    return EmpiricalCounts(np.asarray(values, dtype=np.int64))


def dist(*probs):
    return Distribution(np.asarray(probs, dtype=float))


def removal_fraction(m, p):
    """The least float at or above m/p, found with exact fractions."""
    alpha = float(Fraction(m, p))  # correctly rounded
    return alpha if Fraction(alpha) >= Fraction(m, p) else math.nextafter(alpha, 1.0)


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
        # the bracket ends one count wide: the predicate holds at c_lower
        # and fails at c_lower + 1
        model = Singleton(uniform(3))
        c = counts(900, 50, 50)
        res = estimate_alpha_lower(c, model, 0.05)
        assert res.contaminated
        p, n = c.total, c.n
        assert res.bisection_width == 1 / p

        def predicate(m):
            obj = solve(c, model, removal_fraction(m, p)).objective
            return obj >= gof_threshold(p - m, n, 0.05)

        assert res.alpha_lower == removal_fraction(res.c_lower, p)
        assert predicate(res.c_lower)
        assert not predicate(res.c_lower + 1)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
    def test_bisect_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="bisect_tol"):
            estimate_alpha_lower(counts(900, 50, 50), Singleton(uniform(3)), 0.05, tol)

    def test_bisect_tol_below_float_spacing_terminates(self):
        # a bracket one count wide ends the search whatever the tolerance
        model = Singleton(uniform(3))
        coarse = estimate_alpha_lower(counts(900, 50, 50), model, 0.05)
        fine = estimate_alpha_lower(counts(900, 50, 50), model, 0.05, 1e-300)
        assert fine.bisection_width == 1 / 1000
        assert fine == coarse

    def test_fraction_that_rounds_to_one_is_not_probed(self):
        # Past 2**53 samples (p - m)/p rounds to 1.0 for small p - m.  The
        # predicate holds up to p - m of about 25 here, but no box is probed
        # at a fraction of 1.0, so c_lower stops where m/p still rounds below.
        p = 2**60
        res = estimate_alpha_lower(counts(p, 0), Singleton(dist(0.5, 0.5)), 0.05, 1e-300)
        assert res.contaminated
        assert res.alpha_lower == 1.0 - 2**-53
        assert res.c_lower == p - 2**7
        assert res.bisection_width == 1 / p

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
        assert res.threshold_at_alpha == gof_threshold(1000 - res.c_lower, 3, 0.05)
        assert res.threshold_at_alpha == pytest.approx(
            gof_threshold(1000 * (1 - res.alpha_lower), 3, 0.05), abs=1e-15
        )

    def test_c_lower_is_the_exact_floor(self):
        # p is about 2.2e15, past 1/bisect_tol, so the resolution floor
        # stops the search about 4e6 counts wide.  alpha_lower is the least
        # float at or above c_lower / p (645586792247211 / p does not divide
        # exactly); below 2**51 samples c_lower is the exact floor of
        # p * alpha_lower.
        c = counts(509149247751360, 831943215280000, 831943215280000)
        p = c.total
        assert p < 2**51
        res = estimate_alpha_lower(c, Singleton(uniform(3)), 0.05)
        assert res.c_lower == 645586792247211
        assert res.alpha_lower == float.fromhex("0x1.303850bffffe8p-2")
        assert Fraction(res.c_lower, p) < Fraction(res.alpha_lower)
        assert Fraction(math.nextafter(res.alpha_lower, 0.0)) < Fraction(res.c_lower, p)
        assert math.floor(p * res.alpha_lower) == res.c_lower
        assert 1 < res.bisection_width * p <= DEFAULT_BISECT_TOL * p

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
        with pytest.raises(ValueError, match="dimension mismatch"):
            two_sample_test(counts(1, 2), counts(1, 2, 3), 0.05)

    @pytest.mark.parametrize("side", ["data", "baseline"])
    def test_empty_side_checked(self, side):
        pair = {"data": counts(3, 5), "baseline": counts(4, 4)}
        pair[side] = counts(0, 0)
        with pytest.raises(ValueError, match="empty dataset"):
            two_sample_test(pair["data"], pair["baseline"], 0.05)

    def test_no_joint_support_required(self):
        # data and model supports overlap only partially; still well-defined
        res = two_sample_test(counts(10, 90, 0), counts(0, 80, 20), 0.05)
        assert math.isfinite(res.objective_at_alpha)


def single_fault_cases():
    """``(call, args, exception, message)`` per entry point and fault: each
    input is valid but for its one fault."""
    data, empty = counts(3, 5, 2), counts(0, 0, 0)
    wide = {
        "singleton": Singleton(dist(0.2, 0.3, 0.5)),
        "mixture": Mixture((dist(0.2, 0.3, 0.5), dist(0.6, 0.2, 0.2))),
        "klball": KlBall(dist(0.2, 0.3, 0.5), 0.01),
    }
    narrow = {  # the same kinds over two categories
        "singleton": Singleton(dist(0.5, 0.5)),
        "mixture": Mixture((dist(0.5, 0.5), dist(0.9, 0.1))),
        "klball": KlBall(dist(0.5, 0.5), 0.01),
    }
    # solve's third argument is alpha, the others' epsilon; 0.05 suits both.
    bad = {
        is_contaminated: ("epsilon", "epsilon must be in (0, 1)"),
        estimate_alpha_lower: ("epsilon", "epsilon must be in (0, 1)"),
        solve: ("alpha", "alpha must be in [0, 1)"),
    }
    for call, (name, message) in bad.items():
        yield call, "empty", (empty, wide["singleton"], 0.05), ValueError, "empty dataset"
        for kind, model in narrow.items():
            yield call, f"{kind}-dimension", (data, model, 0.05), ValueError, "dimension mismatch"
        yield call, "model-kind", (data, object(), 0.05), TypeError, "unknown model set: object"
        yield call, name, (data, wide["klball"], 1.5), ValueError, message
    yield (
        estimate_alpha_lower, "bisect_tol", (data, wide["mixture"], 0.05, 0.0), ValueError,
        "bisect_tol must be finite and positive",
    )
    other = counts(4, 4, 1)
    yield two_sample_test, "empty", (empty, other, 0.05), ValueError, "empty dataset"
    yield two_sample_test, "empty-baseline", (data, empty, 0.05), ValueError, "empty dataset"
    yield two_sample_test, "klball-dimension", (data, counts(4, 4), 0.05), ValueError, (
        "dimension mismatch"
    )
    yield two_sample_test, "epsilon", (data, other, 1.5), ValueError, "epsilon must be in (0, 1)"


@pytest.mark.parametrize(
    "call, args, exception, message",
    [pytest.param(call, args, exc, msg, id=f"{call.__name__}-{fault}")
     for call, fault, args, exc, msg in single_fault_cases()],
)
def test_single_fault_message(call, args, exception, message):
    with pytest.raises(exception) as info:
        call(*args)
    assert str(info.value) == message


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

    ``alpha_lower`` is the least float at or above ``c_lower / p``, so it
    compares by equality.  The mixture and KL-ball probes stop at the
    threshold exits from warm starts; a change to either shows up here as a
    different count, or as a different objective or ``kappa`` of the final
    solve.
    """

    def test_criterion_5_mixture_instances(self):
        # Certified counts: every True probe rests on a proven lower bound,
        # so they depend only on the optimum, and alpha_lower only on them.
        # A certified bisection with the plain multiplicative step, a
        # different solver, gave the same two counts.
        rng = np.random.default_rng(20240005)
        expected = [
            (float.fromhex("0x1.6ed916872b021p-1"), 71650),
            (float.fromhex("0x1.7fa58f7121ab5p-1"), 74931),
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
    def pinned_fields(res):
        return res.alpha_lower.hex(), res.c_lower, res.objective_at_alpha.hex(), res.kappa.hex()

    def test_criterion_5_fields(self):
        # alpha_lower, c_lower, objective_at_alpha and kappa of the first five
        # instances, recorded at the first bisection over the removal count.
        expected = [
            ("0x1.6ed916872b021p-1", 71650, "0x1.2924293aebd29p-5", "0x1.fecdc7e352c07p-1"),
            ("0x1.7fa58f7121ab5p-1", 74931, "0x1.4bfd22eb1ef4ep-5", "0x1.f7dc2111545b0p-1"),
            ("0x1.71cd5f99c38b1p-1", 72227, "0x1.2eb6f8c74726ep-5", "0x1.f44fb517e8d15p-1"),
            ("0x1.6cf80dc33721ep-1", 71283, "0x1.25b6325fdd2e6p-5", "0x1.ec5ff52a415afp-1"),
            ("0x1.935158b827fa2p-1", 78773, "0x1.81a81501e2419p-5", "0x1.f1ca778122613p-1"),
        ]
        instances = test_solver.TestSolveMixture.criterion_5_instances(len(expected))
        for (c, model), want in zip(instances, expected):
            assert self.pinned_fields(estimate_alpha_lower(c, model, 0.05)) == want

    def test_small_mixture_fields(self):
        # Recorded as for criterion 5, on small_mixtures and on edge cases.
        expected = [
            ("0x1.051eb851eb852p-2", 510, "0x1.f2a48e77ad1b5p-5", "0x1.7e3b3f681851cp-1"),
            ("0x1.09374bc6a7efap-3", 259, "0x1.b3d9013762ac8p-5", "0x1.bf8cef973f9bap-2"),
            ("0x1.ec8b439581063p-3", 481, "0x1.ec4404149747ap-5", "0x1.069d8c089fa93p-1"),
            ("0x1.e147ae147ae15p-4", 235, "0x1.b1a5ca72777ccp-5", "0x1.3f98415c8c9e8p-1"),
            ("0x1.6d916872b020dp-2", 714, "0x1.1b84369b8c4f0p-4", "0x1.65117874bf3d4p-1"),
            ("0x1.b4bc6a7ef9db3p-1", 1706, "0x1.f1057d31c3f06p-3", "0x1.fdc711b46a7f2p-1"),
            ("0x1.09fbe76c8b43ap-1", 1039, "0x1.6c585ffa4de4ap-4", "0x1.d61a2482039adp-1"),
            ("0x1.083126e978d50p-2", 516, "0x1.f4ab147d2825ep-5", "0x1.953aab242a990p-1"),
        ]
        instances = small_mixtures(np.random.default_rng(43), len(expected))
        for (c, model), want in zip(instances, expected):
            assert self.pinned_fields(estimate_alpha_lower(c, model, 0.05)) == want

    @pytest.mark.parametrize(
        "c, components, expected",
        [
            pytest.param(
                counts(5, 5, 0),
                (dist(0.7, 0.0, 0.3), dist(0.0, 0.0, 1.0)),
                [("0x1.999999999999ap-2", 4, "inf", "0x1.0000000000000p+0")] * 2,
                id="support-deficit",
            ),
            pytest.param(
                counts(30, 50, 20),
                (dist(0.5, 0.5, 0.0), dist(0.9, 0.1, 0.0)),
                [("0x1.851eb851eb852p-3", 19, "inf", "0x1.2492492492492p-1")] * 2,
                id="data-off-union",
            ),
            pytest.param(
                counts(8000, 2000, 0),
                (dist(0.5, 0.5, 0.0), dist(0.4, 0.6, 0.0)),
                [
                    ("0x1.0ecbfb15b573fp-1", 5289, "0x1.769f51f534e78p-7", "0x1.3333333333334p-1"),
                    ("0x1.0f765fd8adabap-1", 5302, "0x1.6b018af9b44a0p-7", "0x1.3333333333334p-1"),
                ],
                id="zero-off-data",
            ),
            pytest.param(
                counts(5, 5),
                (dist(1.0, 1e-320), dist(1.0, 1e-320)),
                [("0x1.999999999999ap-2", 4, "0x1.e96a797484b91p+6", "0x1.0000000000000p-1")] * 2,
                id="subnormal-equal",
            ),
            pytest.param(
                counts(5, 5),
                (dist(1.0, 1e-320), dist(1.0, 0.0)),
                [("0x1.999999999999ap-2", 4, "0x1.e96a797484b91p+6", "0x1.ffffffffffffep-2")] * 2,
                id="subnormal-unequal",
            ),
        ],
    )
    def test_mixture_edge_fields(self, c, components, expected):
        for epsilon, want in zip((0.05, 0.3), expected):
            assert self.pinned_fields(estimate_alpha_lower(c, Mixture(components), epsilon)) == want

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
        assert res.alpha_lower == float.fromhex("0x1.ae48e8a71de6ap-5")
        assert res.c_lower == 2101

    @staticmethod
    def two_sample_pairs():
        """``(name, data, baseline)``: a pair of the benchmark's generator; a
        center whose counts take three values, against data whose counts do
        too, so phat / center ties in every fill; and a center with zero
        counts where the data has mass."""
        yield ("benchmark-pair", *klball_twosample_pair(7, 80))
        rng = np.random.default_rng(13)
        base = rng.choice([300, 400, 500], size=400)
        data = rng.choice([300, 400, 500], size=400)
        data[:4] += 15_000
        yield "tied-center", EmpiricalCounts(data), EmpiricalCounts(base)
        rng = np.random.default_rng(19)
        q = rng.dirichlet(np.full(60, 3.0))
        base = rng.multinomial(20_000, q)
        base[[5, 11, 40]] = 0
        target = 0.85 * q
        target[[5, 23]] += 0.075
        yield "zero-center", EmpiricalCounts(rng.multinomial(20_000, target)), EmpiricalCounts(base)

    def test_two_sample_fields(self):
        # Recorded at the first bisection over the removal count.
        expected = {
            "benchmark-pair": (
                "0x1.4a25d8d79d0a7p-3", 64482, "0x1.8e3ca3504aa5dp-8", "0x1.b56ba443e8ea0p-3"
            ),
            "tied-center": (
                "0x1.123caed174cdep-3", 28977, "0x1.a8ac8f552285fp-5", "0x1.b0ef5d74349e4p-2"
            ),
            "zero-center": (
                "0x1.205bc01a36e2fp-8", 88, "0x1.ea2e98b1028bcp-5", "0x1.c9a789c2a6abcp-3"
            ),
        }
        for name, data, baseline in self.two_sample_pairs():
            assert self.pinned_fields(two_sample_test(data, baseline, 0.05)) == expected[name], name

    def test_klball_probe_stops_at_threshold(self):
        # An iterate below the threshold settles a probe; the full solve
        # takes one more iteration to meet its tolerance.
        data, baseline = self.two_sample_pair()
        model = KlBall(empirical(baseline), klball_radius(baseline, 0.05))
        alpha = 0.0625
        threshold = gof_threshold(data.total * (1 - alpha), data.n, 0.05)
        probe = run_at(data, model, alpha, threshold)
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
        assert res.alpha_lower == float.fromhex("0x1.7619f0fb38a95p-4")
        assert res.c_lower == 2740


def reference_estimate(c, model, epsilon, bisect_tol=DEFAULT_BISECT_TOL):
    """The bisection over the removal count m with a full ``solve`` at every
    probe, at the least float at or above m/p and the threshold at p - m
    samples: no sorted profile and no certificates."""
    p, n = c.total, c.n

    def exceeds(m):
        alpha = removal_fraction(m, p)
        return alpha < 1.0 and solve(c, model, alpha).objective >= gof_threshold(p - m, n, epsilon)

    at_zero = solve(c, model, 0.0)
    contaminated = at_zero.objective >= gof_threshold(p, n, epsilon)
    lo, hi = 0, 0
    if contaminated:
        hi = p
        while hi - lo > 1 and hi - lo > bisect_tol * p:
            mid = lo + (hi - lo) // 2
            if exceeds(mid):
                lo = mid
            else:
                hi = mid
    final = solve(c, model, removal_fraction(lo, p)) if lo > 0 else at_zero
    return EstimateResult(
        alpha_lower=removal_fraction(lo, p),
        kappa=separation_distance(empirical(c), final.q_star),
        c_lower=lo,
        threshold_at_alpha=gof_threshold(p - lo, n, epsilon),
        objective_at_alpha=final.objective,
        contaminated=contaminated,
        bisection_width=(hi - lo) / p,
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
    """``(alpha, threshold)`` of every solve that the solver objects run,
    until ``monkeypatch`` is undone: each ``_run`` of a ``_KlBallSolver``, a
    ``_MixtureSolver`` or a ``_SingletonSolver`` (its exact fill); a full
    solve's threshold is None."""
    calls = []
    for cls in (solver._KlBallSolver, solver._MixtureSolver, solver._SingletonSolver):

        def recording(self, alpha, threshold, _run=cls._run):
            calls.append((alpha, threshold))
            return _run(self, alpha, threshold)

        monkeypatch.setattr(cls, "_run", recording)
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
        assert 1 <= len(calls) <= 2, calls  # the final solve at least

    @pytest.mark.parametrize("seed", [7, 11])
    def test_one_phat_and_one_sort_per_estimate(self, seed, monkeypatch):
        # Tie-free data: the profile's sort orders the final solve's fill,
        # and the estimate and the verdict build phat once and no duals.
        c, model = wide_singleton(seed, 2000)
        work = collections.Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                work[name] += 1
                return fn(*args, **kwargs)

            return counted

        counted = (
            (solver, "empirical"),
            (estimator_module, "empirical"),
            (solver, "_box_duals"),
            (np, "argsort"),
        )
        for module, name in counted:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        res = estimate_alpha_lower(c, model, 0.05)
        assert res.contaminated and res.alpha_lower > 0
        assert work == {"argsort": 1, "empirical": 1}, work
        work.clear()
        assert is_contaminated(c, model, 0.05)[0]
        assert work == {"argsort": 1, "empirical": 1}, work

    @pytest.mark.parametrize("seed", [7, 11])
    def test_probes_in_the_band_are_decided_by_the_probe_object(self, seed, monkeypatch):
        # A profile that bounds no probe puts every probe in its band, where
        # the solver object's ``exceeds`` runs the exact solve itself, in the
        # profile's order: the only run without a threshold is the final
        # solve, and every field keeps its bits.
        c, model = wide_singleton(seed, 2000)
        want = estimate_alpha_lower(c, model, 0.05)
        calls = []
        run = solver._SingletonSolver._run
        profile = solver._singleton_profile

        def counting_run(self, alpha, threshold):
            if threshold is None:
                calls.append(alpha)
            return run(self, alpha, threshold)

        def unbounded_profile(phat, q0):
            return (lambda a: (0.0, math.inf)), profile(phat, q0)[1]

        monkeypatch.setattr(solver, "_singleton_profile", unbounded_profile)
        monkeypatch.setattr(solver._SingletonSolver, "_run", counting_run)
        assert_same_fields(estimate_alpha_lower(c, model, 0.05), want, c)
        assert want.contaminated and calls == [want.alpha_lower]


def float_bisection_c_lower(c, model, epsilon, bisect_tol=DEFAULT_BISECT_TOL):
    """``c_lower`` of the bisection over the float alpha in [0, 1) that the
    estimator ran before it bisected over the removal count: probes down to
    ``bisect_tol`` at the threshold of p (1 - alpha) samples, and the exact
    floor of p times the last True alpha."""
    p, n = c.total, c.n
    probe = solver._solver(c, model)
    lo, hi = 0.0, 1.0 if probe.exceeds(0.0, gof_threshold(p, n, epsilon)) else 0.0
    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if probe.exceeds(mid, gof_threshold(p * (1.0 - mid), n, epsilon)):
            lo = mid
        else:
            hi = mid
    num, den = lo.as_integer_ratio()
    return p * num // den


def count_probes(monkeypatch):
    """The number of ``exceeds`` calls on each solver object that
    ``estimate_alpha_lower`` builds, one entry per estimate, until
    ``monkeypatch`` is undone; a KL ball's nested singleton solver is not
    counted."""
    probes = []

    def counting_solver(c, model):
        probe_solver = solver._solver(c, model)
        exceeds = probe_solver.exceeds
        probes.append(0)

        def counting_exceeds(alpha, threshold):
            probes[-1] += 1
            return exceeds(alpha, threshold)

        probe_solver.exceeds = counting_exceeds
        return probe_solver

    monkeypatch.setattr(estimator_module, "_solver", counting_solver)
    return probes


class TestCountBisection:
    """The bisection runs over the removal count m, not over the fraction
    alpha: it resolves c_lower to one count with at most ceil(log2 p) + 1
    probes, and finds no lower c_lower than the float bisection did."""

    SWEEP_P = (10, 100, 10**3, 10**4, 10**5, 10**6, 10**7, 3 * 10**7, 10**8)
    SWEEP_PI = tuple(i / 10 for i in range(11))

    @classmethod
    def sweep_instances(cls):
        for family in ("dip", "spike"):
            for n in (3, 11, 50):
                for pi in cls.SWEEP_PI:
                    target = _sweep_target(family, n, pi)
                    for p in cls.SWEEP_P:
                        c = EmpiricalCounts(round_to_counts(target, p))
                        yield (family, n, pi, p), c, Singleton(uniform(n))

    def test_c_lower_never_below_the_float_bisection_on_the_sweep_grid(self):
        """The 594 points of the grid: no c_lower is lower, and 11 are one
        higher, all at p >= 1e7, where the float bracket, 2**-28 wide, can
        straddle an integer of p * alpha that the count search probes:
        dip n=3 pi=0.5 and 0.6 at p=1e8; dip n=11 pi=0.2, 0.3 and 0.5 at
        p=1e8 and pi=0.3 at p=3e7; dip n=50 pi=0.2 at p=3e7 and pi=0.8 at
        p=1e7; spike n=3 pi=0.9 at p=1e8; spike n=11 pi=0.8 at p=3e7; spike
        n=50 pi=0.7 at p=1e8."""
        higher = []
        for point, c, model in self.sweep_instances():
            got = estimate_alpha_lower(c, model, 0.05).c_lower
            old = float_bisection_c_lower(c, model, 0.05)
            assert got >= old, (point, got, old)
            if got > old:
                higher.append(point)
                assert got == old + 1, (point, got, old)
        assert higher == [
            ("dip", 3, 0.5, 10**8),
            ("dip", 3, 0.6, 10**8),
            ("dip", 11, 0.2, 10**8),
            ("dip", 11, 0.3, 3 * 10**7),
            ("dip", 11, 0.3, 10**8),
            ("dip", 11, 0.5, 10**8),
            ("dip", 50, 0.2, 3 * 10**7),
            ("dip", 50, 0.8, 10**7),
            ("spike", 3, 0.9, 10**8),
            ("spike", 11, 0.8, 3 * 10**7),
            ("spike", 50, 0.7, 10**8),
        ]

    def test_c_lower_never_below_the_float_bisection_on_small_singletons(self):
        # and never above the exact minimum removal count, where the oracle
        # runs (p <= 30 here)
        rng = np.random.default_rng(5)
        epsilons = itertools.cycle((0.01, 0.05, 0.1, 0.3))
        flagged = checked = 0
        for _ in range(300):
            n = int(rng.integers(2, 4))
            c = EmpiricalCounts(rng.multinomial(int(rng.integers(1, 60)), rng.dirichlet(np.full(n, 0.5))))
            q = Distribution(rng.dirichlet(np.ones(n)))
            epsilon = next(epsilons)
            res = estimate_alpha_lower(c, Singleton(q), epsilon)
            assert res.c_lower >= float_bisection_c_lower(c, Singleton(q), epsilon)
            flagged += res.contaminated
            if res.contaminated and c.total <= 30:
                assert res.c_lower <= exact_cstar(c, q, epsilon), tuple(c.counts)
                checked += 1
        assert flagged > 100 and checked > 20

    def test_probe_budget(self, monkeypatch):
        # ceil(log2 p) probes after the one at m = 0, for every kind
        instances = [c_model for _, *c_model in self.sweep_instances()]
        instances += list(small_mixtures(np.random.default_rng(43), 8))
        instances += list(small_klballs(np.random.default_rng(3), 8))
        data, baseline = klball_twosample_pair(7, 80)
        instances.append((data, KlBall(empirical(baseline), klball_radius(baseline, 0.05))))
        probes = count_probes(monkeypatch)
        flagged = 0
        for c, model in instances:
            res = estimate_alpha_lower(c, model, 0.05)
            budget = (c.total - 1).bit_length() + 1 if res.contaminated else 1
            assert probes[-1] <= budget, (tuple(c.counts)[:4], probes[-1], budget)
            flagged += res.contaminated
        assert len(probes) == len(instances) and flagged > 300

    def test_mixture_threshold_solves_on_criterion_5(self, monkeypatch):
        # 17.8 threshold solves per estimate on the first 15 instances (29.0
        # with the bisection over the fraction); counts repeat exactly
        calls = record_solves(monkeypatch)
        instances = list(test_solver.TestSolveMixture.criterion_5_instances(15))
        for c, model in instances:
            assert estimate_alpha_lower(c, model, 0.05).contaminated
        threshold_solves = sum(t is not None for _, t in calls)
        assert threshold_solves / len(instances) <= 18, threshold_solves


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

    @pytest.mark.parametrize("model_kind", ["mixture", "klball"])
    def test_band_probe_runs_as_a_fresh_object(self, model_kind, monkeypatch):
        # A full solve stopped at a loose TOLERANCE, or cut by the iteration
        # cap after its second iteration, ends between its objective and its
        # bound, so the verdict asks the alpha = 0 probe.  That probe starts
        # from the full solve's first model, and its run keeps the bits of a
        # fresh object's.
        verdicts = set()
        for setting, value in (("TOLERANCE", 1.0), ("MAX_ITERATIONS", 2)):
            monkeypatch.setattr(solver, setting, value)
            for c, model in self.random_instances(np.random.default_rng(83), model_kind):
                for epsilon in (0.01, 0.05):
                    verdicts.add(self.assert_probe_runs_fresh(c, model, epsilon))
            monkeypatch.undo()
        assert verdicts == {False, True, None}

    @staticmethod
    def assert_probe_runs_fresh(c, model, epsilon):
        """The verdict of ``is_contaminated``, None where the full solve
        settled it, asserting that a probe's run has a fresh object's bits."""
        threshold = gof_threshold(c.total, c.n, epsilon)
        fresh = solver._solver(c, model)
        want = fresh._run(0.0, threshold)
        runs = []
        kind = type(fresh)
        run = kind._run

        def recording_run(self, *args):
            runs.append(run(self, *args))
            return runs[-1]

        with pytest.MonkeyPatch.context() as m:
            m.setattr(kind, "_run", recording_run)
            verdict, _ = is_contaminated(c, model, epsilon)
        if len(runs) == 1:
            return None
        got = [np.asarray(x, dtype=float).tobytes() for x in runs[1]]
        assert got == [np.asarray(x, dtype=float).tobytes() for x in want]
        _, _, _, objective, _, _, converged = want
        assert verdict == (converged and objective >= threshold)
        return verdict

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
            if not run_at(c, model, 0.0, threshold).converged:
                assert full.contaminated
                assert not capped.contaminated and capped.alpha_lower == 0.0
                refuted += 1
        assert refuted > 0

    def test_never_above_tight_bisection(self, monkeypatch):
        # The reference decides every probe by a tight full solve, one whose
        # objective is within 1e-14 of the optimum (a full solve stops at a
        # certified gap of TOLERANCE, or at a cycle in rounding).  Every True
        # verdict must survive it, whether a solve or a certificate left by
        # earlier probes decided it, so the certified count never lies above
        # the reference's.
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
            assert got.c_lower <= want.c_lower
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


class TestMixtureArraysOnce:
    """One mixture solver object builds phat and the component matrix once
    and runs every solve from them."""

    def test_one_empirical_and_one_stack_per_estimate(self, monkeypatch):
        work = collections.Counter()
        for module, name in ((solver, "empirical"), (estimator_module, "empirical"), (np, "stack")):

            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                work[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        # A whole bisection, 30 solves here, took 31 empirical calls and 30
        # stacks when each solve built its own arrays.
        for c, model in test_solver.TestSolveMixture.criterion_5_instances(2):
            work.clear()
            assert estimate_alpha_lower(c, model, 0.05).contaminated
            assert work == {"empirical": 1, "stack": 1}, work
        verdicts = set()
        for c, model in small_mixtures(np.random.default_rng(43), 8):
            work.clear()
            verdicts.add(is_contaminated(c, model, 0.05)[0])
            assert work == {"empirical": 1, "stack": 1}, work
        assert True in verdicts


class TestKlballPhatOnce:
    """One KL-ball solver object builds phat once, and its probes build no
    result distributions: only a probe that leaves a model for later probes
    builds one, of that model."""

    def test_one_empirical_and_no_distribution_per_probe(self, monkeypatch):
        work = collections.Counter()
        for module, name in ((solver, "empirical"), (estimator_module, "empirical")):

            def counted(*args, _fn=getattr(module, name), **kwargs):
                work["empirical"] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        post_init = Distribution.__post_init__

        def counted_distribution(self):
            work["Distribution"] += 1
            post_init(self)

        monkeypatch.setattr(Distribution, "__post_init__", counted_distribution)
        stored = []  # per solved probe: whether it left a new model
        record = solver._KlBallSolver._record

        def recording(self, *args):
            model = self._model
            record(self, *args)
            stored.append(self._model is not model)

        monkeypatch.setattr(solver._KlBallSolver, "_record", recording)
        # A whole bisection, 9 solves here, took 10 empirical calls and 28
        # distributions when each solve built its own phat, p_star and q_star,
        # and 6 when the final solve still built its p_star and q_star.
        data, baseline = klball_twosample_pair(7, 80)
        model = KlBall(empirical(baseline), klball_radius(baseline, 0.05))
        work.clear()
        res = estimate_alpha_lower(data, model, 0.05)
        assert res.contaminated and len(stored) >= 5
        # phat and the probes' stored models: the final solve builds none.
        assert work == {"empirical": 1, "Distribution": 1 + sum(stored)}, (work, stored)
        assert sum(stored) < len(stored)


def twosample_klball(data, baseline):
    """``data`` and the KL ball that ``two_sample_test`` builds from ``baseline``."""
    return data, KlBall(empirical(baseline), klball_radius(baseline, 0.05))


def union_mixture():
    """A contaminated mixture whose components put no mass on the last of
    six categories, where the data has no count either: its solves run
    over the union of the components' supports, not over every category."""
    rng = np.random.default_rng(11)
    comps = tuple(Distribution(np.append(rng.dirichlet(np.ones(5)), 0.0)) for _ in range(3))
    target = 0.6 * comps[0].probs
    target[0] += 0.4
    return EmpiricalCounts(rng.multinomial(2000, target)), Mixture(comps)


class TestFinalRun:
    """The estimate reads its final full solve as a run and builds no
    result: ``objective_at_alpha`` and ``kappa`` keep the bits of the
    public result of the same object's full solve at ``alpha_lower``."""

    CASES = {
        "singleton": lambda: wide_singleton(7, 2000),
        "klball": lambda: twosample_klball(*klball_twosample_pair(7, 80)),
        "mixture": lambda: next(test_solver.TestSolveMixture.criterion_5_instances(1)),
        "union": union_mixture,
    }

    @pytest.mark.parametrize("case", CASES)
    def test_objective_and_kappa_keep_the_solve_bits(self, case, monkeypatch):
        c, model = self.CASES[case]()
        built = []

        def capturing(c, model):
            built.append(solver._solver(c, model))
            return built[-1]

        monkeypatch.setattr(estimator_module, "_solver", capturing)
        got = estimate_alpha_lower(c, model, 0.05)
        (obj,) = built
        res = obj.solve(got.alpha_lower)
        assert got.contaminated and got.alpha_lower > 0
        assert got.objective_at_alpha.hex() == res.objective.hex()
        assert got.kappa.hex() == separation_distance(Distribution(obj.phat), res.q_star).hex()
        if case == "union":
            assert not obj._union.all()  # the union misses a category


def run_at(c, model, alpha, threshold):
    """A fresh solver object's run at alpha under ``threshold``, None for a
    full solve, as a :class:`SolveResult`, as the public ``solve`` builds
    one from a full solve's run."""
    obj = solver._solver(c, model)
    p, q, state, objective, lower, iterations, converged = obj._run(alpha, threshold)
    return SolveResult(
        objective=objective,
        p_star=Distribution(p),
        q_star=Distribution(q),
        mixture_weights=state if isinstance(model, Mixture) else None,
        iterations=iterations,
        converged=converged,
        lower_bound=lower,
    )


def threshold_solves(instances):
    """``(model, threshold, result)`` of each instance's threshold solves at
    alpha 0 and 0.2 (:func:`run_at`), under 0.5 to 2 times the full solve's
    objective."""
    for c, model in instances:
        for alpha in (0.0, 0.2):
            full = run_at(c, model, alpha, None)
            for scale in (0.5, 0.9, 0.99, 1.01, 2.0):
                threshold = full.objective * scale
                yield model, threshold, run_at(c, model, alpha, threshold)


class TestThresholdSolveExits:
    """A threshold solve that stops on its bound returns the pair it filled
    last.  A mixture solve then reports the first bound of its step that
    certifies, not the step's largest; every other field keeps its bits."""

    @staticmethod
    def digest(results, names):
        h = hashlib.sha256()
        for res in results:
            for name in names:
                value = getattr(res, name)
                if isinstance(value, Distribution):
                    value = value.probs
                h.update(np.asarray(value, dtype=float).tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize(
        "instances, names, want",
        [
            pytest.param(
                small_mixtures,
                ("objective", "p_star", "q_star", "mixture_weights", "iterations", "converged"),
                "f2a1fd1847d09e8abc915cd5f3392b4b16f086c35dd8d7bb08d85de5c0e6ac79",
                id="mixture-all-but-lower-bound",
            ),
            pytest.param(
                small_klballs,
                ("objective", "p_star", "q_star", "lower_bound", "iterations", "converged"),
                "5dded7ab8ab3c2234cad512cf78ca57744f1da8496075ed5fc2a52ad31919071",
                id="klball-every-field",
            ),
        ],
    )
    def test_fields_keep_their_bits(self, instances, names, want):
        # Digests recorded when every step filled its next state after a
        # certifying bound and a mixture step reported its largest bound.
        solves = list(threshold_solves(instances(np.random.default_rng(47), 14)))
        assert self.digest([res for *_, res in solves], names) == want
        true_exits = 0
        for _, threshold, res in solves:
            if res.converged and res.objective >= threshold:
                assert res.lower_bound >= threshold
                true_exits += 1
        assert true_exits == 86

    @staticmethod
    def true_exits(instances, monkeypatch):
        """``(model, result, last)`` of each threshold solve that reads True,
        with ``last = (p, q, objective)`` the last water fill before it
        returned."""
        fills = []
        water_fill = solver._water_fill

        def recording_fill(upper, q, *args):
            p, objective, level = water_fill(upper, q, *args)
            fills.append((p.copy(), q.copy(), objective))
            return p, objective, level

        monkeypatch.setattr(solver, "_water_fill", recording_fill)
        solves = threshold_solves(instances(np.random.default_rng(47), 14))
        for model, threshold, res in solves:
            if res.converged and res.objective >= threshold:
                yield model, res, fills[-1]

    def test_true_mixture_exit_fills_nothing_after_its_bound(self, monkeypatch):
        # The step fills w1 (and w2) only while no bound has certified, so
        # the last fill is the pair whose Frank-Wolfe bound the solve
        # reports: the returned pair's, or that of w1 or w2.  Every
        # component mass is positive here, so a fill covers every category.
        seen = 0
        for model, res, (p, q, objective) in self.true_exits(small_mixtures, monkeypatch):
            m = np.stack([d.probs for d in model.components]) @ (p / q)
            assert objective - (m.max() - 1.0) == pytest.approx(res.lower_bound, rel=1e-12)
            seen += 1
        assert seen == 86

    def test_true_klball_exit_fills_nothing_after_its_pair(self, monkeypatch):
        # The ball's bound is that of the returned pair, so the step stops
        # before it projects and fills the next model.
        seen = 0
        for _, res, (_, q, _) in self.true_exits(small_klballs, monkeypatch):
            assert np.array_equal(q, res.q_star.probs), res.iterations
            seen += 1
        assert seen == 86


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
            probe = run_at(c, model, 0.0, threshold)
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
        # A solve at every probe takes 19 threshold solves on this pair (29
        # when the bisection ran over the fraction); the certificates leave 7.
        solves = record_solves(monkeypatch)
        res = two_sample_test(*klball_twosample_pair(7, 80), 0.05)
        assert res.contaminated and res.alpha_lower > 0
        calls = [t for _, t in solves]
        assert len(calls) >= 2, calls  # the hook sees the object's solves
        assert calls[-1] is None  # the final full solve
        assert len(calls) - 1 <= 12, calls

    def test_contaminated_pair_water_fills_at_most_25_times(self, monkeypatch):
        # With a water-fill against the stored model at every probe that
        # reaches it, this pair takes 36 fills; the model's sorted profile
        # leaves 21.  The bisection over the removal count leaves 14.
        calls = []
        water_fill = solver._water_fill

        def counting_water_fill(*args):
            calls.append(1)
            return water_fill(*args)

        monkeypatch.setattr(solver, "_water_fill", counting_water_fill)
        res = two_sample_test(*klball_twosample_pair(7, 80), 0.05)
        assert res.contaminated and res.alpha_lower > 0
        assert len(calls) <= 25, len(calls)
