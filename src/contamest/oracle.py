"""Brute-force reference implementations at tiny scale.

These enumerate everything: the integer removal program, the exact
significance-ordering typicality test, and the exact minimum removal count.
Results are plain values: floats, ints, and int64 arrays of per-category
removals.  They exist as ground truth for property tests and for debugging through the
CLI; the guards are hard errors because a silently truncated oracle is worse
than none.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

import numpy as np

from .distributions import Distribution, EmpiricalCounts, _kl

MAX_REMOVAL_VECTORS = 10**7
MAX_COMPOSITIONS = 10**6

# log-probabilities closer than this are treated as the same tie class
_TIE_LOG_ATOL = 1e-9


def compositions(total: int, parts: int, caps=None) -> Iterator[tuple[int, ...]]:
    """All length-``parts`` non-negative integer vectors summing to ``total``.

    Optional per-part caps restrict each coordinate.  Lexicographic order,
    so enumeration is deterministic.
    """
    if parts == 1:
        if caps is None or total <= caps[0]:
            yield (total,)
        return
    hi = total if caps is None else min(total, caps[0])
    lo = 0 if caps is None else max(0, total - sum(caps[1:]))
    for first in range(lo, hi + 1):
        rest_caps = None if caps is None else caps[1:]
        for rest in compositions(total - first, parts - 1, rest_caps):
            yield (first,) + rest


def _n_compositions(total: int, parts: int) -> int:
    return math.comb(total + parts - 1, parts - 1)


def _log_multinomial_coef(counts: tuple[int, ...]) -> float:
    p = sum(counts)
    if p <= 64:
        coef = math.factorial(p)
        for c in counts:
            coef //= math.factorial(c)
        return math.log(coef)
    return math.lgamma(p + 1) - sum(math.lgamma(c + 1) for c in counts)


def _log_pmf(counts: tuple[int, ...], q: tuple[float, ...]) -> float:
    """Exact multinomial log-probability of one empirical count vector."""
    logp = _log_multinomial_coef(counts)
    for c, qi in zip(counts, q):
        if c == 0:
            continue
        if qi <= 0:
            return -math.inf
        logp += c * math.log(qi)
    return logp


@lru_cache(maxsize=None)
def _tail_probability_table(p: int, n: int, q: tuple[float, ...]):
    """Map each count vector to the total probability of it and everything
    no more likely, under q.

    Vectors are sorted by probability ascending and accumulated smallest
    first; ties (equal probability) are grouped so the cumulative always
    includes the entire tie class, making the value independent of the
    ordering chosen among equals.
    """
    if _n_compositions(p, n) > MAX_COMPOSITIONS:
        raise ValueError("instance too large")
    vecs = list(compositions(p, n))
    logs = np.array([_log_pmf(v, q) for v in vecs])
    order = np.argsort(logs, kind="stable")
    probs_sorted = np.exp(logs[order])
    cum = np.cumsum(probs_sorted)
    tails = np.empty(len(vecs))
    logs_sorted = logs[order]
    i = 0
    while i < len(vecs):
        j = i
        # Equality first: -inf - -inf is NaN, and the -inf class is one tie.
        while j + 1 < len(vecs) and (
            logs_sorted[j + 1] == logs_sorted[i]
            or logs_sorted[j + 1] - logs_sorted[i] <= _TIE_LOG_ATOL
        ):
            j += 1
        tails[i : j + 1] = cum[j]
        i = j + 1
    table = {vecs[order[i]]: float(tails[i]) for i in range(len(vecs))}
    return table


def exact_typicality(
    counts: EmpiricalCounts, q0: Distribution, epsilon: float
) -> tuple[bool, float]:
    """Exact significance test by full enumeration of empirical distributions.

    The dataset is typical at level ``epsilon`` iff the probability of its
    empirical distribution together with every no-more-likely one is at
    least ``epsilon``.  Returns ``(typical, tail_probability)``.
    """
    if counts.n != q0.n:
        raise ValueError("dimension mismatch")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must be in (0, 1)")
    p = counts.total
    if p == 0:
        return True, 1.0
    table = _tail_probability_table(p, counts.n, tuple(float(x) for x in q0.probs))
    tail = table[tuple(int(c) for c in counts.counts)]
    return tail >= epsilon, tail


def integer_program_exact(
    counts: EmpiricalCounts, q0: Distribution, m: int
) -> tuple[float, np.ndarray]:
    """Exhaustive minimum of D over all ways to remove exactly m samples.

    Minimizes D((counts - removals)/(p - m) || q0) over integer removal
    vectors with sum m and removals_i <= counts_i.  Returns ``(objective,
    removals)``, the removals an int64 array of per-category discards; the
    first minimizer in lexicographic order wins ties.  For m = p the
    remainder is empty and the objective is 0 by convention.
    """
    if counts.n != q0.n:
        raise ValueError("dimension mismatch")
    p = counts.total
    if not (0 <= m <= p):
        raise ValueError("m must be in [0, p]")
    if m == p:
        return 0.0, counts.counts.copy()
    if _n_compositions(m, counts.n) > MAX_REMOVAL_VECTORS:
        raise ValueError("instance too large")
    caps = tuple(int(c) for c in counts.counts)
    q = q0.probs
    base = counts.counts.astype(float)
    best_obj = math.inf
    best_vec = None
    for removal in compositions(m, counts.n, caps):
        rem = base - np.asarray(removal, dtype=float)
        obj = _kl(rem / (p - m), q)
        if obj < best_obj:
            best_obj = obj
            best_vec = removal
    return best_obj, np.asarray(best_vec, dtype=np.int64)


def exact_cstar(counts: EmpiricalCounts, q0: Distribution, epsilon: float) -> int:
    """Smallest removal count whose best remainder is typical.

    Searches m = 0, 1, 2, ... over every removal vector; the empty remainder
    (m = p) is typical by convention, so the search always terminates.  It
    starts at the samples in categories where q0 is zero, since every
    remainder that keeps one of them has probability zero.  The guard is a
    running budget: every tail table entry and every removal vector searched
    counts against ``MAX_COMPOSITIONS``.
    """
    if counts.n != q0.n:
        raise ValueError("dimension mismatch")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must be in (0, 1)")
    p = counts.total
    n = counts.n
    q = tuple(float(x) for x in q0.probs)
    caps = tuple(int(c) for c in counts.counts)
    forced = int(counts.counts[q0.probs <= 0].sum())
    spent = 0
    for m in range(forced, p + 1):
        p_rem = p - m
        if p_rem == 0:
            return m
        spent += _n_compositions(p_rem, n)
        if spent > MAX_COMPOSITIONS:
            raise ValueError("instance too large")
        table = _tail_probability_table(p_rem, n, q)
        for removal in compositions(m, n, caps):
            spent += 1
            if spent > MAX_COMPOSITIONS:
                raise ValueError("instance too large")
            remaining = tuple(b - r for b, r in zip(caps, removal))
            if table[remaining] >= epsilon:
                return m
    return p
