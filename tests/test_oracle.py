import math
import warnings

import numpy as np
import pytest
from scipy.stats import multinomial

from contamest import (
    Distribution,
    EmpiricalCounts,
    Singleton,
    empirical,
    estimate_alpha_lower,
    exact_cstar,
    exact_typicality,
    integer_program_exact,
    is_contaminated,
    kl_divergence,
    solve,
    uniform,
)
from contamest import oracle
from contamest.oracle import _log_pmf, _tail_probability_table, compositions


def counts(*values):
    return EmpiricalCounts(np.asarray(values, dtype=np.int64))


class TestCompositions:
    def test_enumerates_all(self):
        got = list(compositions(3, 2))
        assert got == [(0, 3), (1, 2), (2, 1), (3, 0)]

    def test_caps_respected(self):
        got = list(compositions(3, 3, caps=(1, 1, 3)))
        assert all(sum(v) == 3 for v in got)
        assert all(a <= 1 and b <= 1 for a, b, _ in got)
        assert (0, 0, 3) in got and (1, 1, 1) in got

    def test_count_matches_stars_and_bars(self):
        assert len(list(compositions(10, 3))) == math.comb(12, 2)


class TestLogPmf:
    def test_matches_scipy(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            p = int(rng.integers(1, 30))
            q = rng.dirichlet(np.ones(n))
            vec = tuple(int(v) for v in rng.multinomial(p, q))
            mine = math.exp(_log_pmf(vec, tuple(q)))
            ref = float(multinomial(p, q).pmf(vec))
            assert mine == pytest.approx(ref, rel=1e-9, abs=1e-300)

    def test_probabilities_sum_to_one(self):
        for p, n, q in [(6, 3, (0.7, 0.2, 0.1)), (12, 2, (0.4, 0.6)), (5, 4, (0.25,) * 4)]:
            total = math.fsum(math.exp(_log_pmf(v, q)) for v in compositions(p, n))
            assert total == pytest.approx(1.0, abs=1e-10)


class TestExactTypicality:
    def test_two_sample_tie_grouping(self):
        # probabilities {0.25, 0.5, 0.25}: the (2,0) tie class cumulates to 0.5
        typical, tail = exact_typicality(counts(2, 0), uniform(2), 0.05)
        assert typical
        assert tail == pytest.approx(0.5, abs=1e-12)

    def test_zero_mass_category_forms_one_tie_class(self):
        # Every vector with a count where q is 0 has log-probability -inf;
        # together they are one tie class, whose tail is 0.
        q = (0.0, 0.5, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = _tail_probability_table(6, 3, q)
            typical, tail = exact_typicality(counts(2, 3, 1), Distribution(np.array(q)), 0.05)
        assert not typical and tail == 0.0
        assert all((v == 0.0) == (k[0] > 0) for k, v in table.items())
        assert table[(0, 3, 3)] == 1.0

    def test_tiny_epsilon_makes_everything_typical(self):
        q = Distribution(np.array([0.7, 0.2, 0.1]))
        for vec in compositions(8, 3):
            typical, _ = exact_typicality(EmpiricalCounts(np.array(vec)), q, 1e-12)
            assert typical

    def test_significance_guarantee_monte_carlo(self):
        # datasets drawn from the model are atypical at most ~epsilon of the time
        rng = np.random.default_rng(103)
        q = np.array([0.5, 0.3, 0.2])
        qd = Distribution(q)
        flagged = 0
        trials = 1000
        for _ in range(trials):
            c = EmpiricalCounts(rng.multinomial(20, q))
            typical, _ = exact_typicality(c, qd, 0.05)
            flagged += not typical
        assert flagged / trials <= 0.05 + 0.02

    def test_guard_rejects_huge_instances(self):
        with pytest.raises(ValueError, match="too large"):
            exact_typicality(
                EmpiricalCounts(np.full(8, 500, dtype=np.int64)), uniform(8), 0.05
            )

    def test_tail_table_cache_is_bounded(self):
        # One table per total: more totals than the cache holds evict the
        # oldest, so the tables alive stay at the bound.
        for p in range(1, oracle.TAIL_TABLE_CACHE + 6):
            exact_typicality(counts(p, 0), uniform(2), 0.05)
        assert _tail_probability_table.cache_info().currsize == oracle.TAIL_TABLE_CACHE


class TestIntegerProgramExact:
    def test_nothing_removed(self):
        c = counts(7, 3)
        q = Distribution(np.array([0.6, 0.4]))
        obj, removal = integer_program_exact(c, q, 0)
        assert obj == pytest.approx(kl_divergence(empirical(c), q), abs=1e-12)
        assert removal.sum() == 0

    def test_single_removal_example(self):
        # both removal vectors leave (2,1)/(1,2); objective = D((2/3,1/3)||(1/2,1/2))
        obj, removal = integer_program_exact(counts(2, 2), uniform(2), 1)
        assert obj == pytest.approx(0.056633012265132426, abs=1e-12)
        assert removal.sum() == 1

    def test_full_removal_convention(self):
        obj, removal = integer_program_exact(counts(2, 2), uniform(2), 4)
        assert obj == 0.0
        assert removal.sum() == 4

    def test_matches_direct_enumeration(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            c = EmpiricalCounts(rng.integers(0, 6, size=n) + 1)
            q = Distribution(rng.dirichlet(np.ones(n)))
            p = c.total
            m = int(rng.integers(0, p))
            obj, removal = integer_program_exact(c, q, m)
            best = math.inf
            for vec in compositions(m, n, caps=tuple(int(x) for x in c.counts)):
                rem = (c.counts - np.array(vec)) / (p - m)
                mask = rem > 0
                if np.any(q.probs[mask] <= 0):
                    continue
                best = min(best, float(np.sum(rem[mask] * np.log(rem[mask] / q.probs[mask]))))
            assert obj == pytest.approx(best, abs=1e-12)
            assert removal.sum() == m
            assert np.all(removal <= c.counts)

    def test_relaxation_sandwich(self):
        rng = np.random.default_rng(109)
        for _ in range(25):
            n = int(rng.integers(2, 4))
            c = EmpiricalCounts(rng.integers(0, 7, size=n) + 1)
            q = Distribution(rng.dirichlet(np.ones(n)))
            p = c.total
            for m in range(p):
                int_obj, _ = integer_program_exact(c, q, m)
                relaxed = solve(c, Singleton(q), m / p).objective
                assert relaxed <= int_obj + 1e-9

    def test_every_removal_leaves_unsupported_mass(self):
        # Both removal vectors keep a sample where q is zero: every
        # objective is inf and the first vector in lexicographic order wins.
        obj, removal = integer_program_exact(counts(2, 2), Distribution(np.array([1.0, 0.0])), 1)
        assert obj == math.inf
        np.testing.assert_array_equal(removal, [0, 1])
        assert removal.dtype == np.int64

    def test_m_validation(self):
        with pytest.raises(ValueError):
            integer_program_exact(counts(2, 2), uniform(2), 5)
        with pytest.raises(ValueError):
            integer_program_exact(counts(2, 2), uniform(2), -1)


class TestExactCstar:
    def test_typical_input_needs_no_removal(self):
        assert exact_cstar(counts(2, 2), uniform(2), 0.05) == 0

    def test_never_exceeds_p(self):
        rng = np.random.default_rng(113)
        for _ in range(20):
            c = EmpiricalCounts(rng.integers(0, 5, size=3))
            if c.total == 0:
                continue
            q = Distribution(rng.dirichlet(np.ones(3)))
            assert 0 <= exact_cstar(c, q, 0.1) <= c.total

    def test_hand_checked_point_mass(self):
        # (10,0) under uniform: only spike removals are possible, so c* is the
        # first m where (10-m, 0) becomes typical
        got = exact_cstar(counts(10, 0), uniform(2), 0.05)
        expected = next(
            m
            for m in range(11)
            if m == 10 or exact_typicality(counts(10 - m, 0), uniform(2), 0.05)[0]
        )
        assert got == expected
        assert got > 0  # the point mass itself is implausible under uniform

    def test_budget_charges_every_table_and_removal(self, monkeypatch):
        # c* = 5 for (10, 0) under uniform: the tables for p = 10, ..., 5 hold
        # 11 + 10 + ... + 6 = 51 entries, and each m has one removal vector.
        monkeypatch.setattr(oracle, "MAX_COMPOSITIONS", 51 + 6)
        assert exact_cstar(counts(10, 0), uniform(2), 0.05) == 5
        monkeypatch.setattr(oracle, "MAX_COMPOSITIONS", 51 + 6 - 1)
        with pytest.raises(ValueError, match="too large"):
            exact_cstar(counts(10, 0), uniform(2), 0.05)

    def test_search_starts_past_zero_mass_samples(self):
        # 83 samples fall where q is zero: no remainder that keeps one is
        # typical, so the search skips the tables for p = 101, ..., 19.
        q = Distribution(np.array([0.0, 0.0, 1.0, 0.0]))
        assert exact_cstar(counts(6, 35, 18, 42), q, 0.05) == 83
        assert exact_cstar(counts(0, 2, 3, 0), q, 0.05) == 2

    def test_lower_bound_soundness_spot_checks(self):
        rng = np.random.default_rng(127)
        model_q = Distribution(np.array([0.7, 0.2, 0.1]))
        for _ in range(30):
            c = EmpiricalCounts(rng.integers(0, 5, size=3))
            if c.total == 0:
                continue
            res = estimate_alpha_lower(c, Singleton(model_q), 0.05)
            assert res.c_lower <= exact_cstar(c, model_q, 0.05)


class TestTypeClassBounds:
    def test_per_type_probability_sandwich(self):
        # (p+1)^-n exp(-p D) <= P_Q(type) <= exp(-p D)
        for q in (np.array([0.5, 0.5]), np.array([0.7, 0.2, 0.1])):
            n = q.size
            qd = Distribution(q)
            for p in range(1, 9):
                for vec in compositions(p, n):
                    prob = math.exp(_log_pmf(vec, tuple(q)))
                    d = kl_divergence(empirical(EmpiricalCounts(np.array(vec))), qd)
                    upper = math.exp(-p * d)
                    lower = upper / (p + 1) ** n
                    assert lower - 1e-12 <= prob <= upper + 1e-12

    def test_sanov_bound_on_random_sets(self):
        rng = np.random.default_rng(131)
        q = np.array([0.6, 0.3, 0.1])
        qd = Distribution(q)
        for p in (4, 8, 12):
            vecs = list(compositions(p, 3))
            probs = np.array([math.exp(_log_pmf(v, tuple(q))) for v in vecs])
            divs = np.array(
                [kl_divergence(empirical(EmpiricalCounts(np.array(v))), qd) for v in vecs]
            )
            for _ in range(30):
                size = int(rng.integers(1, len(vecs)))
                idx = rng.choice(len(vecs), size=size, replace=False)
                set_prob = probs[idx].sum()
                bound = (p + 1) ** 3 * math.exp(-p * divs[idx].min())
                assert set_prob <= bound + 1e-12

    def test_ordering_bound(self):
        # everything no more likely than level l is within (n/p) log(p+1) of its divergence
        for q in (np.array([0.5, 0.5]), np.array([0.7, 0.2, 0.1])):
            n = q.size
            qd = Distribution(q)
            for p in range(1, 10):
                vecs = list(compositions(p, n))
                probs = np.array([math.exp(_log_pmf(v, tuple(q))) for v in vecs])
                divs = np.array(
                    [
                        kl_divergence(empirical(EmpiricalCounts(np.array(v))), qd)
                        for v in vecs
                    ]
                )
                slack = (n / p) * math.log(p + 1)
                for idx_l in range(len(vecs)):
                    mask = probs <= probs[idx_l] + 1e-15
                    assert divs[mask].min() >= divs[idx_l] - slack - 1e-12


class TestConservativeFlagging:
    def test_flagged_implies_atypical_spot_checks(self):
        # skewed instances large enough for the conservative test to fire
        q = Distribution(np.array([0.7, 0.2, 0.1]))
        model = Singleton(q)
        checked = flagged = 0
        for p in range(10, 15):
            for vec in compositions(p, 3):
                for eps in (0.05, 0.1):
                    verdict, _ = is_contaminated(EmpiricalCounts(np.array(vec)), model, eps)
                    checked += 1
                    if verdict:
                        flagged += 1
                        typical, _ = exact_typicality(
                            EmpiricalCounts(np.array(vec)), q, eps
                        )
                        assert not typical
        assert flagged > 0  # the check must actually exercise flagged cases
        assert checked > 500
