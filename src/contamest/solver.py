"""Constrained KL minimization from a discard-feasible box to a model set.

Given counts with empirical distribution ``phat`` and a discard fraction
``alpha``, the feasible set is the box-on-simplex

    { P in simplex : P_i <= phat_i / (1 - alpha) }

i.e. every distribution reachable by throwing away an ``alpha`` fraction of
the data mass.  The solvers compute

    min  D(P || Q)   over  P in the box,  Q in the model set.

For a singleton model the optimum has an exact water-filling form and is
solved directly from the KKT conditions in O(n log n).  A bisection over
alpha asks the same singleton question many times; :func:`_singleton_profile`
sorts once and answers each alpha in O(log n) from prefix sums, with a bound
on its rounding difference from :func:`solve_singleton`.  Inside that
fallback band the caller re-solves exactly, so every decision matches the
exact solve's.  Mixture and KL-ball
model sets share one loop of alternating exact block minimizations,
:func:`_alternate`; the objective is jointly convex over a product of convex
sets, so the descent converges to the global value.  :func:`solve` lists the
loop's stopping rules, which read the fixed module constants ``TOLERANCE``
and ``MAX_ITERATIONS``; a solve stopped by the iteration cap returns the last
water-filled pair with ``converged=False``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import (
    Distribution,
    EmpiricalCounts,
    KlBall,
    Mixture,
    ModelSet,
    SIMPLEX_ATOL,
    Singleton,
    _SMALLEST_NORMAL,
    _kl,
    empirical,
)

TOLERANCE = 1e-10
MAX_ITERATIONS = 10_000

_EPS = float(np.finfo(float).eps)


def _caps(counts: EmpiricalCounts, alpha: float) -> np.ndarray:
    """Per-category upper bounds phat_i / (1 - alpha) of the feasible box."""
    if not (0.0 <= alpha < 1.0):
        raise ValueError("alpha must be in [0, 1)")
    return empirical(counts).probs / (1.0 - alpha)


@dataclass(frozen=True)
class Duals:
    """KKT multipliers: ``lam`` for the box constraints, ``nu`` for the simplex."""

    lam: np.ndarray
    nu: float


@dataclass(frozen=True)
class SolveResult:
    objective: float
    p_star: Distribution
    q_star: Distribution
    mixture_weights: np.ndarray | None = None
    duals: Duals | None = None
    iterations: int = 0
    converged: bool = True


def _water_fill_pos(cap: np.ndarray, qs: np.ndarray) -> tuple[np.ndarray, float]:
    """Water-fill core for strictly positive q with sum(cap) >= 1.

    Returns ``(p, c)`` with p_i = min(cap_i, c * qs_i) and the level c chosen
    so the mass sums to one, located by scanning the sorted breakpoints
    cap_i / qs_i: with the k lowest-ratio coordinates saturated the mass is
    S_k + c * T_k, and the candidate level (1 - S_k) / T_k is valid when it
    does not exceed the next breakpoint.  If a ratio overflows (subnormal
    qs_i), the fill runs on qs * 2**960 (exact) and reports the level as inf.
    """
    with np.errstate(over="ignore"):
        ratios_unsorted = cap / qs
        order = np.argsort(ratios_unsorted, kind="stable")
        ratios = ratios_unsorted[order]
        if ratios[-1] == math.inf:
            return _water_fill_pos(cap, np.ldexp(qs, 960))[0], math.inf
        cap_s = cap[order]
        q_s = qs[order]

        sat_mass = np.concatenate(([0.0], np.cumsum(cap_s)[:-1]))
        # Suffix sums, not total minus prefix: the difference cancels to zero
        # when a category's mass is below the rounding error of the total.
        free_q = np.cumsum(q_s[::-1])[::-1]
        candidates = (1.0 - sat_mass) / free_q
    valid = candidates <= ratios
    if valid.any():
        k = int(np.argmax(valid))
        c = float(candidates[k])
        if not c > 0:
            # The k saturated caps already carry unit mass, and rounding
            # rejected level k - 1: fill at its breakpoint, not at zero.
            c = float(ratios[k - 1])
    else:
        # All caps saturated (alpha ~ 0 boundary): the box pins P to the caps.
        c = float(ratios[-1])

    p = np.minimum(cap, c * qs)
    p /= p.sum()
    return p, c


def _water_fill(upper: np.ndarray, q: np.ndarray):
    """Exact optimizer of min D(P||q) subject to P <= upper on the simplex.

    Categories with q_i = 0 are forced to zero mass (any positive mass there
    makes the objective infinite); if the remaining caps cannot carry the
    full unit mass the objective is +inf.

    Returns ``(p_star, objective, level)`` with ``level`` the water level c
    of :func:`_water_fill_pos`, or None on the infinite branch.
    """
    if q.min() > 0:
        # No support to mask; the caps always carry unit mass in total.
        p, c = _water_fill_pos(upper, q)
        return p, _kl(p, q), c
    supp = q > 0
    cap = upper[supp]
    cap_total = float(cap.sum())
    p = np.zeros(upper.size)
    if cap_total < 1.0 - SIMPLEX_ATOL:
        # Every feasible P puts mass where q is zero: the optimum is +inf.
        # Report a feasible iterate: caps on supp(q), the deficit spread over
        # the rest in proportion to its caps.
        p[supp] = cap
        deficit = 1.0 - cap_total
        rest = upper[~supp]
        p[~supp] = deficit * rest / float(rest.sum())
        return p, math.inf, None
    p_supp, c = _water_fill_pos(cap, q[supp])
    p[supp] = p_supp
    return p, _kl(p, q), c


def solve_singleton(counts: EmpiricalCounts, q0: Distribution, alpha: float) -> SolveResult:
    """Exact minimum of D(P || q0) over the discard-feasible box.

    Returns the water-filling optimizer together with the KKT multipliers:
    lam_i = max(0, log(c) + log(q_i/upper_i)) on active box constraints and
    nu = -1 - log(c) for the simplex constraint; None when the optimum is
    infinite or the water level c overflows.
    """
    if counts.n != q0.n:
        raise ValueError("dimension mismatch")
    upper = _caps(counts, alpha)
    q = q0.probs
    p, objective, c = _water_fill(upper, q)
    duals = None
    if c is not None and c < math.inf:
        # On supp(q) only: a full-length mask doubled the page faults of a
        # singleton bisection (glibc heap trimming).
        supp = q > 0
        cap = upper[supp]
        qs = q[supp]
        lam = np.zeros(q.size)
        lam_supp = np.zeros(cap.size)
        pos = cap > 0
        # log(c) apart: c * q_i overflows for a level near 1e300.
        lam_supp[pos] = np.maximum(0.0, math.log(c) + np.log(qs[pos] / cap[pos]))
        lam[supp] = lam_supp
        duals = Duals(lam, -1.0 - math.log(c))
    return SolveResult(
        objective=objective,
        p_star=Distribution(p),
        q_star=q0,
        duals=duals,
    )


def _singleton_profile(counts: EmpiricalCounts, q0: Distribution):
    """Sort-once form of :func:`solve_singleton`'s objective for a sweep over alpha.

    The caps phat_i / (1 - alpha) all scale together, so the breakpoints
    r_i = phat_i / q_i keep one order for every alpha.  After one sort of
    supp(q) by r the water-fill needs only the prefix sums S_k (phat mass)
    and A_k (phat log r) and the suffix sums T_k (q mass): level k is valid
    at alpha when S_k + r_k T_k >= 1 - alpha, and with the first valid k and
    c_k = (1 - S_k/(1-alpha)) / T_k the optimum is

        D(alpha) = (A_k - S_k log(1-alpha)) / (1-alpha) + (1 - S_k/(1-alpha)) log c_k.

    Returns ``probe(alpha) -> (D, err)`` with ``err`` a bound on
    ``|D - solve_singleton(counts, q0, alpha).objective|`` built from
    (m + 2) * eps, m = |supp(q)|, times the magnitude of the summed terms
    (both sides accumulate prefix sums in sequence); a comparison of
    D with anything farther than ``err`` away agrees with the exact solve.
    ``probe`` returns None where it cannot bound the error: within rounding
    of the support-deficit edge (the cap total at 1 - SIMPLEX_ATOL of
    :func:`_water_fill`) and where the free mass vanishes.  The profile
    itself is None when some q_i is subnormal: ratios and levels can then
    overflow, and :func:`_water_fill_pos` takes its rescaled path.
    """
    if counts.n != q0.n:
        raise ValueError("dimension mismatch")
    q = q0.probs
    supp = q > 0
    ph = empirical(counts).probs[supp]
    qs = q[supp]
    if qs.min() < _SMALLEST_NORMAL:
        return None
    mass = float(ph.sum())
    r = ph / qs  # at most 1 / _SMALLEST_NORMAL: no overflow
    order = np.argsort(r)
    r, ph, qs = r[order], ph[order], qs[order]
    terms = ph * np.log(r, out=np.zeros_like(r), where=ph > 0)
    sat = np.concatenate(([0.0], np.cumsum(ph)))
    ent = np.concatenate(([0.0], np.cumsum(terms)))
    ent_abs = np.concatenate(([0.0], np.cumsum(np.abs(terms))))
    free_q = np.cumsum(qs[::-1])[::-1]
    # Non-decreasing in exact arithmetic; the running max irons out rounding.
    reach = np.maximum.accumulate(sat[:-1] + r * free_q)
    m = r.size
    tol = (m + 2) * _EPS  # sequential prefix sums, here and in _water_fill_pos
    # The cap total of _water_fill is a pairwise sum (blocks of 128, 8 lanes).
    edge = 2.0 * (math.log2(m) + 20.0) * _EPS
    log_r_max = abs(math.log(float(r[-1]))) if r[-1] > 0 else math.inf
    ent_total = float(ent[-1])
    ent_abs_total = float(ent_abs[-1])

    def probe(alpha: float) -> tuple[float, float] | None:
        keep = 1.0 - alpha
        total = mass / keep
        if total < 1.0 - SIMPLEX_ATOL - edge:
            return math.inf, 0.0
        if total <= 1.0 - SIMPLEX_ATOL + edge:
            return None
        log_keep = math.log(keep)
        if total <= 1.0 + 2.0 * tol:
            # Every cap saturated (alpha = 0, or a support deficit within
            # SIMPLEX_ATOL): P = caps / total.  The exact fill may instead
            # free the top level with the leftover 1 - total, which err covers.
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
        # Clamped like _kl: q may sum to 1 + SIMPLEX_ATOL, and D to a tiny negative.
        d = max(0.0, (float(ent[k]) - s * log_keep) / keep + free * log_c)
        scale = (float(ent_abs[k]) + s * abs(log_keep)) / keep + (s / keep + 1.0) * (
            abs(log_c) + 1.0
        ) + abs(d)
        return d, 4.0 * tol * scale

    return probe


def closed_form_singleton(
    counts: EmpiricalCounts, q0: Distribution, alpha: float
) -> SolveResult | None:
    """Closed-form singleton optimum, valid on an interval of large alpha.

    When the smallest ratio phat_i/q_i is uniquely attained at index l and

        1 - phat_l - (phat_k/q_k) * (1 - q_l)  <=  alpha  <=  1 - phat_l/q_l

    (k the second-smallest ratio), the optimizer is

        P*_l = phat_l / (1 - alpha),
        P*_i = q_i * (1 - P*_l) / (1 - q_l)   for i != l,

    with only the box constraint at l active.  Outside that interval, or in
    degenerate cases (tied minimum ratio, zero model entries, phat_l = 0,
    where the multiplier at l would be infinite), returns None; this path
    exists as an independent cross-check of the numeric solver, which covers
    all inputs.
    """
    if counts.n != q0.n:
        raise ValueError("dimension mismatch")
    if not (0.0 <= alpha < 1.0):
        raise ValueError("alpha must be in [0, 1)")
    q = q0.probs
    if np.any(q <= 0):
        return None
    phat = empirical(counts).probs
    ratios = phat / q
    order = np.argsort(ratios, kind="stable")
    l = int(order[0])
    if ratios[l] == ratios[int(order[1])] or phat[l] == 0:
        return None

    kappa = 1.0 - float(ratios[l])
    lower = 1.0 - float(phat[l]) - float(ratios[int(order[1])]) * (1.0 - float(q[l]))
    if not (lower <= alpha <= kappa):
        return None

    u_l = float(phat[l]) / (1.0 - alpha)
    p = q * (1.0 - u_l) / (1.0 - float(q[l]))
    p[l] = u_l

    lam = np.zeros(q.size)
    lam[l] = math.log(float(q[l]) * (1.0 - u_l) / ((1.0 - float(q[l])) * u_l))
    nu = math.log((1.0 - float(q[l])) / (1.0 - u_l)) - 1.0
    p_star = Distribution(p)
    return SolveResult(
        objective=_kl(p_star.probs, q),
        p_star=p_star,
        q_star=q0,
        duals=Duals(lam, nu),
    )


def _alternate(upper, state, model, step, threshold):
    """The alternating loop of :func:`solve_mixture` and :func:`solve_klball`.

    Each iteration water-fills the box against ``q = model(state)``; then
    ``step(p, q, objective, state)`` minimizes over the model with P fixed
    and returns the next state and a certified lower bound on the optimum,
    or None.  An infinite objective ends the loop after the first iteration,
    whose model may miss the data's support.  The other stopping rules are
    those of :func:`solve`; the tolerance rules read the bound the previous
    step returned.  Returns ``(p, q, state, objective, iterations,
    converged)``: the last water-filled pair and the state that produced q.
    """
    prev, lower = math.inf, None
    for it in range(1, MAX_ITERATIONS + 1):
        q = model(state)
        p, obj, _ = _water_fill(upper, q)
        if lower is None:
            stalled = prev - obj <= TOLERANCE or obj <= TOLERANCE
        else:
            stalled = threshold is None and obj - lower <= TOLERANCE
        if (
            stalled
            or (threshold is not None and obj < threshold)
            or (math.isinf(obj) and it > 1)
        ):
            return p, q, state, obj, it, True
        prev = obj
        next_state, lower = step(p, q, obj, state)
        if threshold is not None and lower is not None and lower >= threshold:
            return p, q, state, obj, it, True
        if it < MAX_ITERATIONS:
            state = next_state
    return p, q, state, obj, MAX_ITERATIONS, False


def solve_mixture(
    counts: EmpiricalCounts,
    components: Sequence[Distribution],
    alpha: float,
    *,
    threshold: float | None = None,
    warm_start: SolveResult | None = None,
) -> SolveResult:
    """Alternating minimization over the feasible box and mixture weights.

    Let F(w) water-fill the box against w @ Q and then apply the
    multiplicative rule

        w_j <- w_j * m_j,    m_j = sum_i P_i * Q_ij / (sum_l w_l * Q_il)

    which stays on the simplex and never increases the objective.  By
    convexity the optimum is at least obj - (max_j m_j - 1), the Frank-Wolfe
    bound.  The model step is SQUAREM (Varadhan & Roland, 2008) over F:
    with w1 = F(w), w2 = F(w1), r = w1 - w, v = w2 - w1 - r and
    a = min(-|r|/|v|, -1) it tries w - 2a r + a^2 v (floored at 1e-15 and
    renormalised), kept if its objective is at most that of w1 and replaced
    by w2 otherwise, so the objective never increases.  The step certifies
    the larger of the bounds at w and at w1.  Weights start uniform, or from
    the ``mixture_weights`` of ``warm_start`` (a warm start changes the
    iterates, not the limit: the objective is jointly convex).
    ``mixture_weights`` are the weights of ``q_star``.
    """
    comps = tuple(components)
    if len(comps) < 2:
        raise ValueError("mixture model needs at least 2 components")
    if any(c.n != counts.n for c in comps):
        raise ValueError("dimension mismatch")
    upper = _caps(counts, alpha)
    qmat = np.stack([c.probs for c in comps])  # (k, n)
    if warm_start is None or warm_start.mixture_weights is None:
        w = np.full(len(comps), 1.0 / len(comps))
    else:
        w = np.maximum(warm_start.mixture_weights, 1e-15)
        if w.size != len(comps):
            raise ValueError("warm_start weights must match the component count")
        w = w / w.sum()

    union = qmat.sum(axis=0) > 0
    if float(upper[union].sum()) < 1.0 - SIMPLEX_ATOL:
        # No mixture can carry the required mass at this alpha.
        q = w @ qmat
        p, obj, _ = _water_fill(upper, q)
        it, converged = 0, True
    else:
        qmat_u = qmat[:, union]
        upper_u = upper[union]

        def em(p_u, q_u, obj, w):
            """F(w) from the water-filled pair at w, and the bound at w."""
            ratio = np.where(q_u > 0, p_u / np.where(q_u > 0, q_u, 1.0), 0.0)
            m = qmat_u @ ratio
            m_max = float(m.max())
            if not math.isfinite(m_max):  # p_i / q_i overflowed (subnormal q_i)
                m = np.divide(qmat_u, q_u, out=np.zeros_like(qmat_u), where=q_u > 0) @ p_u
                m_max = float(m.max())
            w = w * m
            return w / w.sum(), obj - (m_max - 1.0)

        def step(p_u, q_u, obj, w):
            w1, lower = em(p_u, q_u, obj, w)
            q1 = w1 @ qmat_u
            p1, obj1, _ = _water_fill(upper_u, q1)
            w2, lower1 = em(p1, q1, obj1, w1)
            lower = max(lower, lower1)
            r = w1 - w
            v = w2 - w1 - r
            v_norm = float(np.linalg.norm(v))
            if v_norm == 0:
                return w2, lower
            a = min(-float(np.linalg.norm(r)) / v_norm, -1.0)
            w_ext = np.maximum(w - 2.0 * a * r + a * a * v, 1e-15)
            w_ext /= w_ext.sum()
            if _water_fill(upper_u, w_ext @ qmat_u)[1] <= obj1:
                return w_ext, lower
            return w2, lower

        # Set once per solve, not per step: the step checks m for overflow.
        with np.errstate(over="ignore", invalid="ignore"):
            p_u, q_u, w, obj, it, converged = _alternate(
                upper_u, w, lambda w: w @ qmat_u, step, threshold
            )
        p = np.zeros(counts.n)
        p[union] = p_u
        q = np.zeros(counts.n)
        q[union] = q_u
    return SolveResult(
        objective=obj,
        p_star=Distribution(p),
        q_star=Distribution(q),
        mixture_weights=w,
        iterations=it,
        converged=converged,
    )


def solve_klball(
    counts: EmpiricalCounts,
    center: Distribution,
    radius: float,
    alpha: float,
    *,
    threshold: float | None = None,
) -> SolveResult:
    """Alternating minimization with the model ranging over a KL ball.

    The model starts at the center, and the model step is the exact ball
    projection :func:`_ball_projection`.  The step certifies no lower bound,
    so ``threshold`` is settled only by an iterate value below it.
    """
    if counts.n != center.n:
        raise ValueError("dimension mismatch")
    if not (radius > 0):
        raise ValueError("radius must be positive")
    upper = _caps(counts, alpha)

    def step(p, q, obj, state):
        return _ball_projection(p, center.probs, radius), None

    p, q, _, obj, it, converged = _alternate(upper, center.probs, lambda q: q, step, threshold)
    return SolveResult(
        objective=obj,
        p_star=Distribution(p),
        q_star=Distribution(q),
        iterations=it,
        converged=converged,
    )


def _ball_projection(p: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Exact minimizer of D(p || Q) subject to D(center || Q) <= radius.

    Q = p inside the ball.  Otherwise the minimizer is the blend
    Q(t) = t*p + (1 - t)*center whose weight t on p solves
    f(t) = D(center || Q(t)) = radius on the fixed bracket [0, 1]: f is convex
    with f(0) = 0 and f(1) = D(center || p) > radius, so it is non-decreasing
    there.  Bisection keeps f(lo) <= radius < f(hi) until
    hi - lo <= 1e-13 * hi and returns Q(lo), inside the ball as ``_kl``
    measures it.  No cap is needed: once t <= 2**-54, 1 - t rounds to 1 and
    Q(t) >= center on supp(center) in rounding, so f reads 0 and ``lo``
    leaves 0 after at most 54 halvings.
    """
    if _kl(center, p) <= radius:
        return p

    def blend(t: float) -> np.ndarray:
        return t * p + (1.0 - t) * center

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if _kl(center, blend(mid)) > radius:
            hi = mid
        else:
            lo = mid
    return blend(lo)


def solve(
    counts: EmpiricalCounts,
    model: ModelSet,
    alpha: float,
    *,
    threshold: float | None = None,
    warm_start: SolveResult | None = None,
) -> SolveResult:
    """Minimum KL divergence from the discard-feasible box to the model set.

    Exact for singleton models.  Mixture and KL-ball models run one
    alternating loop.  Until the model step has certified a lower bound on
    the optimum (never, for the KL ball) it stops when the objective
    decrease, or the objective, falls to ``TOLERANCE``; once it has, a full
    solve stops when the objective is within ``TOLERANCE`` of the bound.
    At ``MAX_ITERATIONS`` it stops with ``converged=False`` and returns the
    last water-filled pair, its objective and (mixtures) the weights of
    ``q_star``.  Non-convergence is never raised.

    ``threshold`` asks only whether the optimum is at or above it.  The loop
    then also stops once the objective, an upper bound on the optimum, is
    below ``threshold``, or once a certified lower bound reaches it; the
    returned objective is then only an upper bound on the optimum.  A
    certified bound replaces the tolerance rules here too, so a converged
    mixture result with an objective at or above ``threshold`` is proven.
    The exact singleton solve ignores ``threshold``.
    ``warm_start`` is a previous result for the same data and model; its
    mixture weights seed the mixture solver, and other models ignore it.
    """
    if isinstance(model, Singleton):
        return solve_singleton(counts, model.q0, alpha)
    if isinstance(model, Mixture):
        return solve_mixture(
            counts, model.components, alpha, threshold=threshold, warm_start=warm_start
        )
    if isinstance(model, KlBall):
        return solve_klball(counts, model.center, model.radius, alpha, threshold=threshold)
    raise TypeError(f"unknown model set: {type(model).__name__}")
