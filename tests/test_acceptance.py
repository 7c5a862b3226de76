"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured quantity (run with ``pytest -s`` to see
them).  Tolerances are fixed here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

from contamest import (
    Distribution,
    EmpiricalCounts,
    Mixture,
    Singleton,
    closed_form_singleton,
    convergence_bound,
    empirical,
    estimate_alpha_lower,
    exact_cstar,
    exact_typicality,
    integer_program_exact,
    is_contaminated,
    kl_divergence,
    solve,
    two_sample_test,
    uniform,
)
from contamest.estimator import round_to_counts
from contamest.oracle import _log_pmf, compositions

BISECT_TOL = 2.0**-28


def check_kkt(result, counts_, q0, alpha, atol=1e-8):
    upper = empirical(counts_).probs / (1 - alpha)
    p = result.p_star.probs
    q = q0.probs
    lam, nu = result.duals.lam, result.duals.nu
    assert np.all(p <= upper + 1e-9)
    assert abs(p.sum() - 1.0) <= 1e-9
    assert np.all(lam >= -1e-12)
    assert np.max(np.abs(lam * (p - upper))) <= atol
    mask = p > 0
    assert np.max(np.abs(np.log(p[mask] / q[mask]) + 1.0 + lam[mask] + nu)) <= atol


def iter_instances(n, max_p):
    for p in range(1, max_p + 1):
        for vec in compositions(p, n):
            yield EmpiricalCounts(np.asarray(vec, dtype=np.int64))


def models_for(n):
    out = [uniform(n)]
    if n == 3:
        out.append(Distribution(np.array([0.7, 0.2, 0.1])))
    return out


def test_criterion_1_closed_form_cross_check():
    rng = np.random.default_rng(20240001)
    start = time.perf_counter()
    checked = 0
    while checked < 1000:
        n = int(rng.integers(3, 21))
        c = EmpiricalCounts(rng.integers(1, 100, size=n))
        q = Distribution(rng.dirichlet(np.ones(n)))
        phat = empirical(c).probs
        ratios = phat / q.probs
        order = np.argsort(ratios)
        if ratios[order[0]] == ratios[order[1]]:
            continue
        kappa = 1.0 - float(ratios[order[0]])
        low = 1.0 - float(phat[order[0]]) - float(ratios[order[1]]) * (
            1.0 - float(q.probs[order[0]])
        )
        lo = max(0.0, low)
        if not (0.0 < kappa < 1.0) or lo >= kappa:
            continue
        alpha = lo + float(rng.uniform(0.001, 0.999)) * (kappa - lo)
        closed = closed_form_singleton(c, q, alpha)
        assert closed is not None
        numeric = solve(c, Singleton(q), alpha)
        assert np.max(np.abs(closed.p_star.probs - numeric.p_star.probs)) <= 1e-9
        assert abs(closed.objective - numeric.objective) <= 1e-9
        check_kkt(closed, c, q, alpha, atol=1e-8)
        check_kkt(numeric, c, q, alpha, atol=1e-8)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"[criterion 1] PASS closed-form vs water-filling on {checked} instances "
          f"(coord 1e-9, KKT 1e-8) in {elapsed:.2f}s")


def test_criterion_2_oracle_soundness():
    start = time.perf_counter()
    pairs = 0
    flagged = 0
    for n in (2, 3):
        for q in models_for(n):
            model = Singleton(q)
            for c in iter_instances(n, 14):
                for eps in (0.01, 0.05, 0.1):
                    verdict, _ = is_contaminated(c, model, eps)
                    if verdict:
                        flagged += 1
                        typical, _ = exact_typicality(c, q, eps)
                        assert not typical, (tuple(c.counts), q.probs, eps)
                    res = estimate_alpha_lower(c, model, eps, BISECT_TOL)
                    c_star = exact_cstar(c, q, eps)
                    assert res.c_lower <= c_star, (tuple(c.counts), q.probs, eps)
                    pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    assert flagged > 0
    print(f"[criterion 2] PASS soundness on {pairs} instance/epsilon pairs "
          f"({flagged} flagged), zero violations, in {elapsed:.1f}s")


def test_criterion_3_relaxation_bound():
    checked = 0
    for n in (2, 3):
        for q in models_for(n):
            model = Singleton(q)
            for c in iter_instances(n, 14):
                p = c.total
                for m in range(p):
                    exact_obj, _ = integer_program_exact(c, q, m)
                    relaxed = solve(c, model, m / p).objective
                    assert relaxed <= exact_obj + 1e-9, (tuple(c.counts), m)
                    checked += 1
    print(f"[criterion 3] PASS relaxation <= integer optimum on {checked} "
          f"(instance, m) pairs, zero violations")


def test_criterion_4_convergence_rate():
    model = Singleton(uniform(11))
    worst_margin = math.inf
    for pi in (0.2, 0.4, 0.6):
        target = np.full(11, (1 - pi) / 11)
        target[0] += pi
        ratios = []
        for p in (10**2, 10**3, 10**4, 10**5, 10**6):
            c = EmpiricalCounts(round_to_counts(target, p))
            res = estimate_alpha_lower(c, model, 0.05, BISECT_TOL)
            bound = convergence_bound(p, 11, 0.05)
            gap = res.kappa - res.alpha_lower
            assert gap <= bound + BISECT_TOL, (pi, p, gap, bound)
            worst_margin = min(worst_margin, bound - gap)
            ratios.append(res.alpha_lower / res.kappa)
        for lo, hi in zip(ratios, ratios[1:]):
            assert hi >= lo - 1e-6, (pi, ratios)
        assert ratios[-1] >= 0.95, (pi, ratios[-1])
    print(f"[criterion 4] PASS spike-family rate bound, monotone ratio, "
          f"ratio(1e6) >= 0.95; slackest bound margin {worst_margin:.4f}")


def test_criterion_5_mixture_performance():
    rng = np.random.default_rng(20240005)
    times = []
    for _ in range(50):
        components = tuple(
            Distribution(rng.dirichlet(np.ones(50))) for _ in range(10)
        )
        truth = rng.dirichlet(np.ones(50))
        c = EmpiricalCounts(rng.multinomial(100_000, truth))
        t0 = time.perf_counter()
        estimate_alpha_lower(c, Mixture(components), 0.05, BISECT_TOL)
        times.append(time.perf_counter() - t0)
    mean_s = float(np.mean(times))
    assert mean_s <= 2.0, mean_s
    print(f"[criterion 5] PASS mixture k=10 n=50 bisection to 2^-28: "
          f"mean {mean_s * 1e3:.0f} ms/trial (max {max(times) * 1e3:.0f} ms) over 50 trials")


def test_criterion_6_significance_guarantee():
    rng = np.random.default_rng(20240006)
    model = Singleton(uniform(5))
    q = np.full(5, 0.2)
    draws = rng.multinomial(200, q, size=10_000)
    flagged = 0
    for row in draws:
        verdict, _ = is_contaminated(EmpiricalCounts(row), model, 0.05)
        flagged += verdict
    rate = flagged / 10_000
    assert rate <= 0.05, rate
    print(f"[criterion 6] PASS false-flag rate {rate:.4f} <= 0.05 "
          f"on 10000 model-generated datasets")


def test_criterion_7_type_class_inequalities():
    per_type = 0
    sanov = 0
    ordering = 0
    rng = np.random.default_rng(20240007)
    for n in (2, 3):
        for q in models_for(n):
            qt = tuple(float(x) for x in q.probs)
            for p in range(1, 13):
                vecs = list(compositions(p, n))
                probs = np.array([math.exp(_log_pmf(v, qt)) for v in vecs])
                divs = np.array(
                    [
                        kl_divergence(empirical(EmpiricalCounts(np.array(v))), q)
                        for v in vecs
                    ]
                )
                assert abs(probs.sum() - 1.0) <= 1e-10
                # per-type sandwich
                upper = np.exp(-p * divs)
                lower = upper / (p + 1) ** n
                assert np.all(probs <= upper + 1e-12)
                assert np.all(probs >= lower - 1e-12)
                per_type += len(vecs)
                # union bound over random sets
                for _ in range(30):
                    size = int(rng.integers(1, len(vecs) + 1))
                    idx = rng.choice(len(vecs), size=size, replace=False)
                    bound = (p + 1) ** n * math.exp(-p * divs[idx].min())
                    assert probs[idx].sum() <= bound + 1e-12
                    sanov += 1
                # probability-ordering bound
                slack = (n / p) * math.log(p + 1)
                order = np.argsort(probs, kind="stable")
                sorted_divs = divs[order]
                sorted_probs = probs[order]
                prefix_min = np.minimum.accumulate(sorted_divs)
                for idx_l in range(len(vecs)):
                    hi = idx_l
                    while (
                        hi + 1 < len(vecs)
                        and sorted_probs[hi + 1] <= sorted_probs[idx_l] + 1e-15
                    ):
                        hi += 1
                    assert prefix_min[hi] >= sorted_divs[idx_l] - slack - 1e-12
                    ordering += 1
    print(f"[criterion 7] PASS type bounds on {per_type} types, "
          f"{sanov} random-set bounds, {ordering} ordering bounds, zero violations")


def test_criterion_8_two_sample_sanity():
    c = EmpiricalCounts(np.array([37, 12, 51]))
    eps_grid = (0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999)
    for eps in eps_grid:
        res = two_sample_test(c, c, eps)
        assert not res.contaminated, eps
        assert res.alpha_lower == 0.0
    disjoint = two_sample_test(
        EmpiricalCounts(np.array([1000, 0])),
        EmpiricalCounts(np.array([0, 1000])),
        0.05,
    )
    assert disjoint.contaminated
    assert disjoint.alpha_lower >= 0.5
    print(f"[criterion 8] PASS identical counts never flagged over {len(eps_grid)} "
          f"epsilon values; disjoint point masses give alpha_lower="
          f"{disjoint.alpha_lower:.4f} >= 0.5")
