"""Constrained KL minimization from a discard-feasible box to a model set.

Given counts with empirical distribution ``phat`` and a discard fraction
``alpha``, the feasible set is the box-on-simplex

    { P in simplex : P_i <= phat_i / (1 - alpha) }

i.e. every distribution reachable by throwing away an ``alpha`` fraction of
the data mass.  The solvers compute

    min  D(P || Q)   over  P in the box,  Q in the model set.

For a singleton model the optimum has an exact water-filling form and is
solved directly from the KKT conditions in O(n log n).  Mixture and KL-ball
model sets are handled by alternating exact block minimizations; the
objective is jointly convex over a product of convex sets, so the descent
converges to the global value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import (
    Distribution,
    EmpiricalCounts,
    KlBall,
    Mixture,
    ModelSet,
    Singleton,
    _kl,
    empirical,
)

DEFAULT_TOLERANCE = 1e-10
MAX_ITERATIONS = 10_000


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
    does not exceed the next breakpoint.
    """
    ratios_unsorted = cap / qs
    order = np.argsort(ratios_unsorted, kind="stable")
    ratios = ratios_unsorted[order]
    cap_s = cap[order]
    q_s = qs[order]

    sat_mass = np.concatenate(([0.0], np.cumsum(cap_s)[:-1]))
    # Suffix sums, not total minus prefix: the difference cancels to zero
    # when a category's mass is below the rounding error of the total.
    free_q = np.cumsum(q_s[::-1])[::-1]
    candidates = (1.0 - sat_mass) / free_q
    valid = candidates <= ratios
    if valid.any():
        c = float(candidates[int(np.argmax(valid))])
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
    n = upper.size
    supp = q > 0
    cap = upper[supp]
    qs = q[supp]
    cap_total = float(cap.sum())

    if cap_total < 1.0 - 1e-12:
        # Feasible mass inside supp(q) cannot reach 1: every feasible P puts
        # mass where q is zero, so the optimum is +inf.  Report a feasible
        # iterate: caps on supp(q), the deficit spread over the rest
        # proportionally to the remaining caps.
        p = np.zeros(n)
        p[supp] = cap
        deficit = 1.0 - cap_total
        rest = upper[~supp]
        p[~supp] = deficit * rest / float(rest.sum())
        return p, math.inf, None

    p_supp, c = _water_fill_pos(cap, qs)
    p = np.zeros(n)
    p[supp] = p_supp
    return p, _kl(p, q), c


def solve_singleton(counts: EmpiricalCounts, q0: Distribution, alpha: float) -> SolveResult:
    """Exact minimum of D(P || q0) over the discard-feasible box.

    Returns the water-filling optimizer together with the KKT multipliers:
    lam_i = max(0, log(c*q_i/upper_i)) on active box constraints and
    nu = -1 - log(c) for the simplex constraint.
    """
    if counts.n != q0.n:
        raise ValueError("dimension mismatch")
    upper = _caps(counts, alpha)
    q = q0.probs
    p, _, c = _water_fill(upper, q)
    duals = None
    if c is not None:
        # Restricted to supp(q) as in the water-fill.  A full-length mask gives
        # the same values but doubled the page faults (glibc heap trimming) of
        # a singleton bisection: about 8% of singleton_wide's throughput.
        supp = q > 0
        cap = upper[supp]
        qs = q[supp]
        lam = np.zeros(q.size)
        lam_supp = np.zeros(cap.size)
        positive_cap = cap > 0
        lam_supp[positive_cap] = np.maximum(
            0.0, np.log(c * qs[positive_cap] / cap[positive_cap])
        )
        lam[supp] = lam_supp
        duals = Duals(lam, -1.0 - math.log(c))
    p_star = Distribution(p)
    return SolveResult(
        objective=_kl(p_star.probs, q0.probs),
        p_star=p_star,
        q_star=q0,
        duals=duals,
        iterations=0,
        converged=True,
    )


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
    if ratios[l] == ratios[int(order[1])]:
        return None
    if phat[l] == 0:
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
        iterations=0,
        converged=True,
    )


def solve_mixture(
    counts: EmpiricalCounts,
    components: Sequence[Distribution],
    alpha: float,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = MAX_ITERATIONS,
    callback: Callable[[float], None] | None = None,
    *,
    threshold: float | None = None,
    warm_start: SolveResult | None = None,
) -> SolveResult:
    """Alternating minimization over the feasible box and mixture weights.

    Each round solves the box subproblem exactly by water-filling against the
    current mixture, then improves the weights with the multiplicative rule

        w_j <- w_j * m_j,    m_j = sum_i P_i * Q_ij / (sum_l w_l * Q_il)

    which stays on the simplex and never increases the objective.  Weights
    start uniform, or from the ``mixture_weights`` of ``warm_start`` (a warm
    start changes the iterates, not the limit: the objective is jointly
    convex).  Stops when the objective decrease drops below ``tolerance`` (or
    the objective itself does, since the optimum is >= 0).

    ``threshold`` adds two early exits that settle the comparison of the
    optimum with it.  Iterate values upper-bound the optimum, so a value
    below ``threshold`` settles it one way.  The multipliers certify a lower
    bound: by convexity the optimum is at least obj - (max_j m_j - 1), so
    when that bound reaches ``threshold`` the comparison is settled the
    other way.  On either exit the returned objective is only an upper bound
    on the optimum, still on the certified side of the threshold.
    """
    comps = tuple(components)
    if len(comps) < 2:
        raise ValueError("mixture model needs at least 2 components")
    if any(c.n != counts.n for c in comps):
        raise ValueError("dimension mismatch")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    upper = _caps(counts, alpha)
    qmat = np.stack([c.probs for c in comps])  # (k, n)
    k = qmat.shape[0]
    n = counts.n
    if warm_start is None or warm_start.mixture_weights is None:
        w = np.full(k, 1.0 / k)
    else:
        w = np.maximum(warm_start.mixture_weights, 1e-15)
        if w.size != k:
            raise ValueError("warm_start weights must match the component count")
        w = w / w.sum()

    union = qmat.sum(axis=0) > 0
    if float(upper[union].sum()) < 1.0 - 1e-12:
        # No mixture can carry the required mass at this alpha.
        p, obj, _ = _water_fill(upper, w @ qmat)
        return SolveResult(
            objective=obj,
            p_star=Distribution(p),
            q_star=Distribution(w @ qmat),
            mixture_weights=w,
            iterations=0,
            converged=True,
        )

    cap_u = upper[union]
    qmat_u = qmat[:, union]

    prev = math.inf
    p_u = q_u = None
    obj = math.inf
    converged = False
    it = 0
    for it in range(1, max_iterations + 1):
        q_u = w @ qmat_u
        if q_u.min() > 0:
            p_u, _ = _water_fill_pos(cap_u, q_u)
            obj = _kl(p_u, q_u)
        else:
            # A component with exclusive support died (weight hit zero).
            p_u, obj, _ = _water_fill(cap_u, q_u)
        if callback is not None:
            callback(obj)
        if math.isinf(obj):
            if math.isinf(prev):
                converged = True
                break
            prev = obj
            continue
        if prev - obj <= tolerance or obj <= tolerance:
            converged = True
            break
        if threshold is not None and obj < threshold:
            converged = True
            break
        prev = obj
        ratio = np.where(q_u > 0, p_u / np.where(q_u > 0, q_u, 1.0), 0.0)
        m = qmat_u @ ratio
        if threshold is not None and obj - (float(m.max()) - 1.0) >= threshold:
            converged = True
            break
        w = w * m
        w = w / w.sum()

    p = np.zeros(n)
    p[union] = p_u
    q = np.zeros(n)
    q[union] = q_u
    p_star = Distribution(p)
    q_star = Distribution(q)
    return SolveResult(
        objective=_kl(p_star.probs, q_star.probs),
        p_star=p_star,
        q_star=q_star,
        mixture_weights=w,
        iterations=it,
        converged=converged,
    )


def _toward_center(p: np.ndarray, center: np.ndarray, lam: float) -> np.ndarray:
    return (p + lam * center) / (1.0 + lam)


def solve_klball(
    counts: EmpiricalCounts,
    center: Distribution,
    radius: float,
    alpha: float,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = MAX_ITERATIONS,
    callback: Callable[[float], None] | None = None,
    *,
    threshold: float | None = None,
) -> SolveResult:
    """Alternating minimization with the model ranging over a KL ball.

    The box subproblem is water-filling as usual.  For fixed P the model
    subproblem  min D(P||Q) s.t. D(center||Q) <= radius  has the exact
    solution Q = P when P is inside the ball, and otherwise the blend
    Q_i = (P_i + lam*center_i)/(1+lam) with lam >= 0 the unique root of
    D(center||Q(lam)) = radius, located by monotone bisection.

    ``threshold`` adds one early exit: an iterate value below it settles the
    comparison, as in :func:`solve_mixture`.
    """
    if counts.n != center.n:
        raise ValueError("dimension mismatch")
    if not (radius > 0):
        raise ValueError("radius must be positive")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    upper = _caps(counts, alpha)
    c_arr = center.probs

    q = c_arr
    prev = math.inf
    p = None
    obj = math.inf
    converged = False
    it = 0
    for it in range(1, max_iterations + 1):
        p, obj, _ = _water_fill(upper, q)
        if callback is not None:
            callback(obj)
        if prev - obj <= tolerance or obj <= tolerance:
            converged = True
            break
        if threshold is not None and obj < threshold:
            converged = True
            break
        prev = obj
        if _kl(c_arr, p) <= radius:
            q = p
        else:
            q = _toward_center(p, c_arr, _ball_boundary_lambda(p, c_arr, radius))

    p_star = Distribution(p)
    q_star = Distribution(q)
    return SolveResult(
        objective=_kl(p_star.probs, q_star.probs),
        p_star=p_star,
        q_star=q_star,
        iterations=it,
        converged=converged,
    )


def _ball_boundary_lambda(p: np.ndarray, center: np.ndarray, radius: float) -> float:
    """Root of D(center || (p + lam*center)/(1+lam)) = radius, lam > 0.

    The divergence is non-increasing in lam (the blend moves toward the
    center), starts above ``radius`` at lam -> 0+ by the caller's branch
    condition, and tends to 0, so bisection on a doubled bracket converges.
    """

    def excess(lam: float) -> float:
        return _kl(center, _toward_center(p, center, lam)) - radius

    hi = 1.0
    for _ in range(200):
        if excess(hi) <= 0:
            break
        hi *= 2.0
    else:
        raise ValueError("KL-ball boundary search failed: degenerate iterate")
    lo = 0.0
    for _ in range(200):
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    # hi side satisfies the ball constraint within rounding.
    return hi


def solve(
    counts: EmpiricalCounts,
    model: ModelSet,
    alpha: float,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = MAX_ITERATIONS,
    *,
    threshold: float | None = None,
    warm_start: SolveResult | None = None,
) -> SolveResult:
    """Minimum KL divergence from the discard-feasible box to the model set.

    Exact for singleton models; within ``tolerance`` of the optimum for
    mixture and KL-ball models.  Non-convergence within the iteration cap is
    reported via ``converged=False`` with the best iterate, never raised.

    ``threshold`` asks only whether the optimum is at or above it.  The
    alternating solvers may then stop as soon as that is settled: the
    returned objective is on the settled side of ``threshold`` and is only
    an upper bound on the optimum.  The exact singleton solve ignores it.
    ``warm_start`` is a previous result for the same data and model; its
    mixture weights seed the mixture solver, and other models ignore it.
    """
    if isinstance(model, Singleton):
        return solve_singleton(counts, model.q0, alpha)
    if isinstance(model, Mixture):
        return solve_mixture(
            counts, model.components, alpha, tolerance, max_iterations,
            threshold=threshold, warm_start=warm_start,
        )
    if isinstance(model, KlBall):
        return solve_klball(
            counts, model.center, model.radius, alpha, tolerance, max_iterations,
            threshold=threshold,
        )
    raise TypeError(f"unknown model set: {type(model).__name__}")
