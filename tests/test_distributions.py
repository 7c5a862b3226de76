import math

import numpy as np
import pytest

from contamest import (
    Distribution,
    EmpiricalCounts,
    KlBall,
    Mixture,
    empirical,
    kl_divergence,
    klball_radius,
    separation_distance,
    uniform,
)


def dist(*probs):
    return Distribution(np.asarray(probs, dtype=float))


def counts(*values):
    return EmpiricalCounts(np.asarray(values, dtype=np.int64))


class TestDistribution:
    def test_normalizes_on_construction(self):
        d = Distribution(np.array([2.0, 2.0]))
        np.testing.assert_allclose(d.probs, [0.5, 0.5])
        assert abs(d.probs.sum() - 1.0) <= 1e-12

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            Distribution(np.array([0.5, -0.1, 0.6]))

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            Distribution(np.array([0.0, 0.0]))

    @pytest.mark.parametrize(
        "probs, message",
        [
            pytest.param([0.5, math.nan], "finite", id="nan"),
            pytest.param([0.5, math.inf], "finite", id="inf"),
            pytest.param([], "non-empty 1-D", id="empty"),
            pytest.param([[0.5, 0.5]], "non-empty 1-D", id="2-d"),
        ],
    )
    def test_rejects_malformed(self, probs, message):
        with pytest.raises(ValueError, match=message):
            Distribution(np.array(probs, dtype=float))

    def test_overflowing_total(self):
        # Each mass is finite; their sum overflows.
        np.testing.assert_array_equal(Distribution(np.array([1e308, 1e308])).probs, [0.5, 0.5])

    def test_immutable(self):
        d = dist(0.5, 0.5)
        with pytest.raises(ValueError):
            d.probs[0] = 0.9


class TestEmpiricalCounts:
    def test_total_is_sum(self):
        c = counts(3, 1, 0)
        assert c.total == 4
        assert c.n == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            counts(1, -2)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            EmpiricalCounts(np.array([1.5, 2.0]))

    @pytest.mark.parametrize(
        "values, labels, message",
        [
            pytest.param([1.0, math.inf], None, "finite", id="inf"),
            pytest.param([], None, "non-empty 1-D", id="empty"),
            pytest.param([1, 2], ("a",), "labels length", id="labels"),
        ],
    )
    def test_rejects_malformed(self, values, labels, message):
        with pytest.raises(ValueError, match=message):
            EmpiricalCounts(np.array(values), labels)

    def test_total_fits_int64(self):
        assert EmpiricalCounts(np.array([2**63 - 2, 1])).total == 2**63 - 1
        with pytest.raises(ValueError, match=r"counts must sum to at most 2\*\*63 - 1"):
            EmpiricalCounts(np.array([2**62, 2**62]))

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param([2**63], id="uint64-2**63"),
            pytest.param(np.array([2**64 - 1], dtype=np.uint64), id="uint64-max"),
            pytest.param([2**64], id="object-2**64"),
            pytest.param([1e19], id="float-1e19"),
            pytest.param([10**400], id="beyond-float"),
            pytest.param(np.array([2**63 - 1], dtype=object), id="object-int64-max"),
        ],
    )
    def test_count_past_int64_rejected(self, values):
        # A uint64 count past int64 wrapped to a negative one in the cast, a
        # float one failed the cast with a RuntimeWarning (an error here),
        # and a Python int past the float range raised OverflowError.  An
        # object array is read as floats, where 2**63 - 1 is 2**63.
        with pytest.raises(ValueError, match=r"^counts must sum to at most 2\*\*63 - 1$"):
            EmpiricalCounts(values)

    @pytest.mark.parametrize(
        "values", [[-(10**400)], [-1e19], [5, -(2**64)]], ids=["beyond-float", "float", "object"]
    )
    def test_negative_count_past_int64_rejected(self, values):
        with pytest.raises(ValueError, match="^counts must be non-negative$"):
            EmpiricalCounts(values)

    def test_uint64_within_int64_accepted(self):
        c = EmpiricalCounts(np.array([2**63 - 2, 1], dtype=np.uint64))
        assert c.total == 2**63 - 1 and c.counts.dtype == np.int64


class TestEmpirical:
    def test_direct_normalization(self):
        np.testing.assert_allclose(empirical(counts(3, 1)).probs, [0.75, 0.25])

    def test_point_mass(self):
        np.testing.assert_allclose(empirical(counts(0, 0, 10)).probs, [0, 0, 1])

    def test_uniform_by_symmetry(self):
        np.testing.assert_allclose(empirical(counts(1, 1, 1, 1)).probs, [0.25] * 4)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty dataset"):
            empirical(counts(0, 0))

    def test_scale_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            base = rng.integers(0, 20, size=rng.integers(2, 8))
            if base.sum() == 0:
                base[0] = 1
            factor = int(rng.integers(2, 9))
            a = empirical(EmpiricalCounts(base)).probs
            b = empirical(EmpiricalCounts(base * factor)).probs
            np.testing.assert_allclose(a, b, atol=1e-15)


class TestKlDivergence:
    def test_zero_iff_equal(self):
        assert kl_divergence(dist(0.5, 0.5), dist(0.5, 0.5)) == 0.0
        assert kl_divergence(dist(0.3, 0.7), dist(0.3, 0.7)) == 0.0

    def test_hand_evaluated_point_mass(self):
        # sum p_i log(p_i/q_i) = 1*log(1/0.5) + 0 = log 2
        got = kl_divergence(dist(1.0, 0.0), dist(0.5, 0.5))
        assert got == pytest.approx(math.log(2), abs=1e-12)

    def test_support_violation_is_inf(self):
        assert math.isinf(kl_divergence(dist(0.5, 0.5), dist(1.0, 0.0)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(dist(0.5, 0.5), dist(0.4, 0.3, 0.3))

    def test_non_negative_and_positive_when_apart(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            v = kl_divergence(Distribution(p), Distribution(q))
            assert v >= 0.0
            if np.max(np.abs(p - q)) > 1e-6:
                assert v > 0.0

    def test_joint_convexity(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            p1, p2 = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            q1, q2 = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            t = float(rng.uniform())
            mixed = kl_divergence(
                Distribution(t * p1 + (1 - t) * p2),
                Distribution(t * q1 + (1 - t) * q2),
            )
            separate = t * kl_divergence(Distribution(p1), Distribution(q1)) + (
                1 - t
            ) * kl_divergence(Distribution(p2), Distribution(q2))
            assert mixed <= separate + 1e-9


def brute_force_kappa(p: np.ndarray, q: np.ndarray, steps: int = 200000) -> float:
    """Smallest kappa on a grid for which f = (p - (1-kappa)q)/kappa is a pmf."""
    kappas = np.arange(steps + 1) / steps
    residual = p[None, :] - (1 - kappas)[:, None] * q[None, :]
    feasible = (residual >= -1e-12).all(axis=1)
    return float(kappas[int(np.argmax(feasible))]) if feasible.any() else 1.0


class TestSeparationDistance:
    def test_identity(self):
        assert separation_distance(dist(0.3, 0.7), dist(0.3, 0.7)) == 0.0

    def test_two_category_example(self):
        # brute-force over mixture decompositions gives 0.6 for this pair
        p, q = dist(0.8, 0.2), dist(0.5, 0.5)
        assert separation_distance(p, q) == pytest.approx(0.6, abs=1e-12)
        assert brute_force_kappa(p.probs, q.probs) == pytest.approx(0.6, abs=1e-5)

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            kappa = separation_distance(Distribution(p), Distribution(q))
            assert kappa == pytest.approx(brute_force_kappa(p, q), abs=1e-5)

    def test_zero_mass_category_forces_one(self):
        p = dist(1.0, 0.0, 0.0)
        q = uniform(3)
        assert separation_distance(p, q) == 1.0

    def test_range_and_mixture_reconstruction(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            kappa = separation_distance(Distribution(p), Distribution(q))
            assert 0.0 <= kappa <= 1.0
            if kappa > 1e-9:
                f = (p - (1 - kappa) * q) / kappa
                assert np.all(f >= -1e-9)
                assert f.sum() == pytest.approx(1.0, abs=1e-9)
                np.testing.assert_allclose((1 - kappa) * q + kappa * f, p, atol=1e-12)


class TestKlballRadius:
    def test_worked_example(self):
        # (1/100) log 20 + (6/100) log 101 = 0.029957 + 0.276907
        got = klball_radius(counts(40, 30, 30), 0.05)
        assert got == pytest.approx(0.3068645537460155, abs=1e-9)

    def test_single_sample_single_category(self):
        got = klball_radius(counts(1), math.exp(-1))
        assert got == pytest.approx(1 + 2 * math.log(2), abs=1e-12)

    def test_shrinks_with_sample_size(self):
        small = klball_radius(counts(10, 10), 0.05)
        large = klball_radius(counts(10_000, 10_000), 0.05)
        assert large < small
        assert klball_radius(counts(5 * 10**7, 5 * 10**7), 0.999) < 1e-5

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            klball_radius(counts(5, 5), 0.0)
        with pytest.raises(ValueError):
            klball_radius(counts(5, 5), 1.0)


class TestModelSets:
    def test_mixture_needs_two_components(self):
        with pytest.raises(ValueError):
            Mixture((uniform(3),))

    def test_mixture_dimension_checked(self):
        with pytest.raises(ValueError):
            Mixture((uniform(3), uniform(4)))

    def test_klball_radius_positive(self):
        with pytest.raises(ValueError):
            KlBall(uniform(3), 0.0)
