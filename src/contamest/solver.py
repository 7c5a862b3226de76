"""Constrained KL minimization from a discard-feasible box to a model set.

Given counts with empirical distribution ``phat`` and a discard fraction
``alpha``, the feasible set is the box-on-simplex

    { P in simplex : P_i <= phat_i / (1 - alpha) }

i.e. every distribution reachable by throwing away an ``alpha`` fraction of
the data mass.  The solvers compute

    min  D(P || Q)   over  P in the box,  Q in the model set.

For a singleton model the optimum has an exact water-filling form and is
solved directly from the KKT conditions in O(n log n).  Mixture and KL-ball
model sets share one loop of alternating exact block minimizations,
:func:`_alternate`; the objective is jointly convex over a product of convex
sets, so the descent converges to the global value.  Each model step also
certifies a Frank-Wolfe lower bound on the optimum, returned as
``SolveResult.lower_bound``.  Every model step returns the fill of the
state it returns, the next iteration's water-filled pair; the mixture step
is SQUAREM with a face-restricted Newton step when its extrapolation is
rejected.  :func:`solve` lists the loop's stopping rules, which read the
fixed module constants ``TOLERANCE`` and ``MAX_ITERATIONS``; a solve
stopped by the iteration cap returns the last water-filled pair with
``converged=False``.  One :class:`_Solver` per data set and model set,
from :func:`_solver`, the module's one dispatch on model kind, answers a
bisection's two questions: the full solve at alpha, and whether the
optimum at alpha reaches a threshold, decided from what earlier solves or
one sort of the data prove when they can, else by a solve under it.  The
singleton path (fill, duals, KL, profile) allocates each full-length
array once and works in it, so large solves do not re-fault their memory.
"""

from __future__ import annotations

import functools
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

# The mixture step's Newton move (:func:`solve_mixture`): its face holds the
# weights above _FACE_WEIGHT and those whose m_j exceeds 1 + _FACE_GRADIENT,
# and a trial step is halved at most _NEWTON_HALVINGS times.
_FACE_WEIGHT = 1e-9
_FACE_GRADIENT = 1e-12
_NEWTON_HALVINGS = 4


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
    """The last water-filled pair of a solve and what it proves.

    ``objective`` is D(p_star || q_star), an upper bound on the optimum.
    ``lower_bound`` is a certified lower bound on it: the objective itself
    for an exact singleton solve, else the bound of the last model step (0
    before the first).  A threshold solve that stops on its bound, and only
    such a solve, has ``lower_bound >= threshold``; its bound was then
    certified at the returned pair.
    """

    objective: float
    p_star: Distribution
    q_star: Distribution
    mixture_weights: np.ndarray | None = None
    duals: Duals | None = None
    iterations: int = 0
    converged: bool = True
    lower_bound: float = 0.0


def _stable_order(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.argsort(x, kind="stable")`` and ``x`` in that order, for x without NaN.

    numpy's default quicksort is about five times faster than its stable
    sort on distinct values at n = 1e5, but it leaves ties in no set order.
    Without ties the sorted permutation is unique, so the quicksort's is the
    stable sort's; only input with ties (0.0 == -0.0 included) pays for the
    stable sort as well.
    """
    order = np.argsort(x)
    xs = x[order]
    if np.count_nonzero(xs[1:] == xs[:-1]):
        order = np.argsort(x, kind="stable")
        xs = x[order]
    return order, xs


def _water_fill_pos(cap: np.ndarray, qs: np.ndarray) -> tuple[np.ndarray, float]:
    """Water-fill core for strictly positive q with sum(cap) >= 1.

    Returns ``(p, c)`` with p_i = min(cap_i, c * qs_i) and the level c chosen
    so the mass sums to one, located by scanning the breakpoints
    cap_i / qs_i, sorted with ties in index order (:func:`_stable_order`):
    with the k lowest-ratio coordinates saturated the mass is
    S_k + c * T_k, and the candidate level (1 - S_k) / T_k is valid when it
    does not exceed the next breakpoint.  If a ratio overflows (subnormal
    qs_i), the fill runs on qs * 2**960 (exact) and reports the level as inf.

    Each full-length array is allocated once and the sums, levels and p are
    computed in place: glibc hands a freed heap top above its trim threshold
    (about two arrays of the largest n) back to the OS, so every temporary
    of one fill would be page-faulted in again by the next.
    """
    with np.errstate(over="ignore"):
        order, ratios = _stable_order(cap / qs)
        if ratios[-1] == math.inf:
            return _water_fill_pos(cap, np.ldexp(qs, 960))[0], math.inf
        # Exclusive prefix sums of the sorted caps, gathered straight into
        # place: take's default mode="raise" would buffer ``out``.
        sat_mass = np.empty(cap.size)
        sat_mass[0] = 0.0
        np.cumsum(cap.take(order[:-1], out=sat_mass[1:], mode="clip"), out=sat_mass[1:])
        # Suffix sums, not total minus prefix: the difference cancels to zero
        # when a category's mass is below the rounding error of the total.
        free_q = qs.take(order)
        np.cumsum(free_q[::-1], out=free_q[::-1])
        candidates = np.subtract(1.0, sat_mass, out=sat_mass)
        np.divide(candidates, free_q, out=candidates)
    valid = candidates <= ratios
    k = int(np.argmax(valid))  # the first valid level, or 0 if none is
    if valid[k]:
        c = float(candidates[k])
        if not c > 0:
            # The k saturated caps already carry unit mass, and rounding
            # rejected level k - 1: fill at its breakpoint, not at zero.
            c = float(ratios[k - 1])
    else:
        # All caps saturated (alpha ~ 0 boundary): the box pins P to the caps.
        c = float(ratios[-1])

    p = np.multiply(qs, c, out=candidates)  # the spent candidates' buffer
    np.minimum(cap, p, out=p)
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
        duals = Duals(_box_duals(upper, q, c), -1.0 - math.log(c))
    return SolveResult(
        objective=objective,
        p_star=Distribution(p),
        q_star=q0,
        duals=duals,
        lower_bound=objective,
    )


def _box_duals(upper: np.ndarray, q: np.ndarray, c: float) -> np.ndarray:
    """Box multipliers of a fill at level c: lam_i = max(0, log(c) + log(q_i/upper_i)).

    lam_i = 0 where q_i = 0 or upper_i = 0.
    """
    log_c = math.log(c)  # apart: c * q_i overflows for a level near 1e300
    # One array, worked unmasked: a zero q_i gives max(0, -inf) = 0 as it
    # stands, and the inf or nan of a zero cap is reset.  Masked ufuncs
    # (where=) give the same bits but take half as long again at large n.
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.divide(q, upper)
        np.log(lam, out=lam)
        np.add(log_c, lam, out=lam)
        np.maximum(0.0, lam, out=lam)
    lam[upper == 0] = 0.0
    return lam


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
    ph = empirical(counts).probs
    if q.min() > 0:
        qs = q
    else:
        supp = q > 0
        ph, qs = ph[supp], q[supp]
    if qs.min() < _SMALLEST_NORMAL:
        return None
    mass = float(ph.sum())
    # Each full-length array is allocated once, as in _water_fill_pos.
    r = ph / qs  # at most 1 / _SMALLEST_NORMAL: no overflow
    order = np.argsort(r)
    r, ph, free_q = r[order], ph[order], qs[order]
    m = r.size
    sat, ent, ent_abs = np.empty(m + 1), np.empty(m + 1), np.empty(m + 1)
    sat[0] = ent[0] = ent_abs[0] = 0.0
    np.cumsum(ph, out=sat[1:])
    terms = np.log(r, out=np.zeros(m), where=ph > 0)
    terms *= ph
    np.cumsum(terms, out=ent[1:])
    np.cumsum(np.abs(terms, out=terms), out=ent_abs[1:])
    np.cumsum(free_q[::-1], out=free_q[::-1])
    log_r_max = abs(math.log(float(r[-1]))) if r[-1] > 0 else math.inf
    # Non-decreasing in exact arithmetic; the running max irons out rounding.
    reach = np.multiply(r, free_q, out=r)
    np.add(sat[:-1], reach, out=reach)
    np.maximum.accumulate(reach, out=reach)
    tol = (m + 2) * _EPS  # sequential prefix sums, here and in _water_fill_pos
    # The cap total of _water_fill is a pairwise sum (blocks of 128, 8 lanes).
    edge = 2.0 * (math.log2(m) + 20.0) * _EPS
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
    degenerate cases (fewer than two categories, tied minimum ratio, zero
    model entries, phat_l = 0, where the multiplier at l would be infinite),
    returns None; this path exists as an independent cross-check of the
    numeric solver, which covers all inputs.
    """
    if counts.n != q0.n:
        raise ValueError("dimension mismatch")
    if not (0.0 <= alpha < 1.0):
        raise ValueError("alpha must be in [0, 1)")
    q = q0.probs
    if q.size < 2 or np.any(q <= 0):
        return None
    phat = empirical(counts).probs
    ratios = phat / q
    l, k = (int(i) for i in np.argpartition(ratios, 1)[:2])  # the two smallest
    if ratios[l] == ratios[k] or phat[l] == 0:
        return None

    kappa = 1.0 - float(ratios[l])
    lower = 1.0 - float(phat[l]) - float(ratios[k]) * (1.0 - float(q[l]))
    if not (lower <= alpha <= kappa):
        return None

    u_l = float(phat[l]) / (1.0 - alpha)
    p = q * (1.0 - u_l) / (1.0 - float(q[l]))
    p[l] = u_l

    lam = np.zeros(q.size)
    lam[l] = math.log(float(q[l]) * (1.0 - u_l) / ((1.0 - float(q[l])) * u_l))
    nu = math.log((1.0 - float(q[l])) / (1.0 - u_l)) - 1.0
    p_star = Distribution(p)
    objective = _kl(p_star.probs, q)
    return SolveResult(
        objective=objective,
        p_star=p_star,
        q_star=q0,
        duals=Duals(lam, nu),
        lower_bound=objective,
    )


def _alternate(state, fill, step, threshold):
    """The alternating loop of :func:`solve_mixture` and :func:`solve_klball`.

    ``fill`` is the fill ``(p, q, objective, level)`` of the first state:
    the box water-filled against the state's model q.  Each iteration's
    ``step(p, q, objective, state)`` minimizes over the model with P fixed
    and returns the next state, a certified lower bound on the optimum and
    the next state's fill.  Before the first step the bound is 0, as D is
    never negative.  An infinite objective ends the loop after the first
    iteration, whose model may miss the data's support.  The other stopping
    rules are those of :func:`solve`.  Returns
    ``(p, q, state, objective, lower, iterations, converged)``: the last
    water-filled pair, the state that produced q and the last certified
    bound.
    """
    lower, recent = 0.0, ()  # recent: (objective, state) of the last 8 iterations
    for it in range(1, MAX_ITERATIONS + 1):
        p, q, obj, _ = fill
        if threshold is None:
            done = obj - lower <= TOLERANCE
        else:
            done = obj < threshold
        if done or (math.isinf(obj) and it > 1):
            return p, q, state, obj, lower, it, True
        # A recent state met again, after an objective that did not decrease,
        # is a cycle in rounding: the cap would replay it.
        if recent and obj >= recent[-1][0]:
            if any(o == obj and np.array_equal(state, s) for o, s in recent):
                return p, q, state, obj, lower, it, False
        next_state, lower, next_fill = step(p, q, obj, state)
        if threshold is not None and lower >= threshold:
            return p, q, state, obj, lower, it, True
        if it < MAX_ITERATIONS:
            recent = (recent + ((obj, state),))[-8:]
            state, fill = next_state, next_fill
    return p, q, state, obj, lower, MAX_ITERATIONS, False


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
    renormalised), kept if its objective is at most that of w1.  Otherwise
    it water-fills at w2 and tries one Newton step from there on
    g(w) = min over the box of D(P || w @ Q), restricted to the face
    S = {j : w2_j > 1e-9 or m_j > 1 + 1e-12}.  H is the Hessian of g while
    the fill keeps its active set: the sum over the capped categories of
    P_i Q_i Q_i^T / q_i^2, plus U a a^T / T^2, with U and T the P and q mass
    of the free categories and a_j the mass of Q_j there.  (The fixed-P
    Hessian, that sum over every category, ignores that the free P_i follow
    q; at large alpha it can overstate the curvature a hundredfold.)  The
    step d solves [H 1; 1^T 0][d; mu] = [m_S; 0], by least squares if that
    is singular (g is then flat along some direction of the face); it is
    clipped at the simplex boundary, floored at 1e-15 and renormalised, and
    halved at most four times until its objective is at most that of w2;
    else the step returns w2.  So the objective never increases.  Every
    point the step returns comes with its fill, the next iteration's pair.
    The step certifies the largest of the bounds at w, at w1 and, when it
    tries Newton, at w2.  Weights start uniform, or from the
    ``mixture_weights`` of ``warm_start`` (a warm start changes the
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
        lower, it, converged = obj, 0, True
    else:
        qmat_u = qmat[:, union]
        upper_u = upper[union]

        def fill(w):
            """The fill ``(p, q, objective, level)`` at weights w."""
            q = w @ qmat_u
            p, obj, level = _water_fill(upper_u, q)
            return p, q, obj, level

        def gradient(p_u, q_u, obj):
            """m at the water-filled pair, and the Frank-Wolfe bound there."""
            ratio = np.where(q_u > 0, p_u / np.where(q_u > 0, q_u, 1.0), 0.0)
            m = qmat_u @ ratio
            m_max = float(m.max())
            if not math.isfinite(m_max):  # p_i / q_i overflowed (subnormal q_i)
                m = np.divide(qmat_u, q_u, out=np.zeros_like(qmat_u), where=q_u > 0) @ p_u
                m_max = float(m.max())
            return m, obj - (m_max - 1.0)

        def em(p_u, q_u, obj, w):
            """F(w) from the water-filled pair at w, and the bound at w."""
            m, lower = gradient(p_u, q_u, obj)
            w = w * m
            return w / w.sum(), lower

        def newton(w2, lower):
            """The face-restricted Newton step from w2, or w2 itself."""
            fill2 = p2, q2, obj2, level = fill(w2)
            m2, lower2 = gradient(p2, q2, obj2)
            lower = max(lower, lower2)
            face = (w2 > _FACE_WEIGHT) | (m2 > 1.0 + _FACE_GRADIENT)
            size = int(np.count_nonzero(face))
            if size < 2 or level is None or not level < math.inf:
                return w2, lower, fill2
            # The Hessian of g on the fill's active set: capped P_i stay at
            # their caps, free ones share the free mass in proportion to q.
            free = upper_u > level * q2
            q_face = qmat_u[face]
            q_safe = np.where(q2 > 0, q2, 1.0)
            curv = np.where(free, 0.0, p2 / q_safe / q_safe)  # P_i / q_i**2 on the caps
            kkt = np.ones((size + 1, size + 1))
            kkt[:size, :size] = (q_face * curv) @ q_face.T
            kkt[size, size] = 0.0
            free_mass = float(p2[free].sum())
            if free_mass > 0:
                b = q_face[:, free].sum(axis=1) / float(q2[free].sum())
                kkt[:size, :size] += free_mass * np.outer(b, b)
            if not np.isfinite(kkt).all():  # P_i / q_i**2 overflowed
                return w2, lower, fill2
            rhs = np.append(m2[face], 0.0)
            try:
                d = np.linalg.solve(kkt, rhs)[:size]
            except np.linalg.LinAlgError:
                # Fewer capped categories than face weights leave g flat along
                # some directions: take the least-norm step.
                d = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:size]
            if not np.isfinite(d).all():
                return w2, lower, fill2
            shrink = d < 0
            t = min(1.0, float(np.min(w2[face][shrink] / -d[shrink]))) if shrink.any() else 1.0
            for _ in range(_NEWTON_HALVINGS + 1):
                w_try = w2.copy()
                w_try[face] += t * d
                w_try = np.maximum(w_try, 1e-15)
                w_try /= w_try.sum()
                fill_try = fill(w_try)
                if fill_try[2] <= obj2:
                    return w_try, lower, fill_try
                t *= 0.5
            return w2, lower, fill2

        def step(p_u, q_u, obj, w):
            w1, lower = em(p_u, q_u, obj, w)
            p1, q1, obj1, _ = fill(w1)
            w2, lower1 = em(p1, q1, obj1, w1)
            lower = max(lower, lower1)
            r = w1 - w
            v = w2 - w1 - r
            v_norm = float(np.linalg.norm(v))
            if v_norm == 0:
                return w2, lower, fill(w2)
            a = min(-float(np.linalg.norm(r)) / v_norm, -1.0)
            w_ext = np.maximum(w - 2.0 * a * r + a * a * v, 1e-15)
            w_ext /= w_ext.sum()
            fill_ext = fill(w_ext)
            if fill_ext[2] <= obj1:
                return w_ext, lower, fill_ext
            return newton(w2, lower)

        # Set once per solve, not per step: the step checks m for overflow.
        with np.errstate(over="ignore", invalid="ignore"):
            p_u, q_u, w, obj, lower, it, converged = _alternate(w, fill(w), step, threshold)
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
        lower_bound=lower,
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
    projection :func:`_ball_projection`.  The step also certifies a lower
    bound.  g(Q) = min over the box of D(P || Q) is convex, and at the
    water-filled pair (P, Q) -a is a subgradient (Danskin), with
    a_i = P_i / Q_i where Q_i > 0; where Q_i = 0, a_i is 0 if the box cap is
    0 and the water level max(a) otherwise (the box duals of the fill).  As
    <a, Q> = 1, the optimum is at least obj + 1 - U for any upper bound U on
    <a, Q'> over the ball: the Frank-Wolfe bound (Jaggi, 2013), with U from
    :func:`_ball_linear_max`, warm-started from the previous step's search.
    """
    if counts.n != center.n:
        raise ValueError("dimension mismatch")
    if not (radius > 0):
        raise ValueError("radius must be positive")
    upper = _caps(counts, alpha)
    c = center.probs
    scale = None

    def fill(q):
        """The fill ``(p, q, objective, level)`` against the model q."""
        p, obj, level = _water_fill(upper, q)
        return p, q, obj, level

    def step(p, q, obj, state):
        nonlocal scale
        q_next = _ball_projection(p, c, radius)
        if math.isinf(obj):  # the subgradient needs a finite objective
            return q_next, -math.inf, fill(q_next)
        with np.errstate(over="ignore"):  # P_i / Q_i overflows for subnormal Q_i
            a = np.divide(p, q, out=np.zeros_like(p), where=q > 0)
        a[(q == 0) & (upper > 0)] = a.max()
        bound, scale = _ball_linear_max(a, c, radius, scale)
        return q_next, obj + 1.0 - bound, fill(q_next)

    p, q, _, obj, lower, it, converged = _alternate(c, fill(c), step, threshold)
    return SolveResult(
        objective=obj,
        p_star=Distribution(p),
        q_star=Distribution(q),
        iterations=it,
        converged=converged,
        lower_bound=lower,
    )


class _Solver:
    """The two questions a bisection over alpha asks of one data set and model set.

    ``solve(alpha)`` is the full solve.  ``exceeds(alpha, threshold)`` asks
    whether the optimum at ``alpha`` is at or above ``threshold``: from what
    earlier probes prove (``_certified``, None if they prove nothing), else
    from a solve under the threshold, whose result ``_record`` keeps.  Only
    a converged objective at or above it reads True; a cap hit or a cycle in
    rounding reads False, which can only shrink alpha_lower.  Only solves
    whose verdict is proven are skipped, so a bisection visits the same
    points as with a solve at every probe.
    """

    def solve(self, alpha: float) -> SolveResult:
        return self._solve(alpha, None)

    def exceeds(self, alpha: float, threshold: float) -> bool:
        verdict = self._certified(alpha, threshold)
        if verdict is None:
            result = self._solve(alpha, threshold)
            self._record(alpha, threshold, result)
            verdict = result.converged and result.objective >= threshold
        return verdict

    def _certified(self, alpha: float, threshold: float) -> bool | None:
        return None

    def _record(self, alpha: float, threshold: float, result: SolveResult) -> None:
        pass


class _SingletonSolver(_Solver):
    """The exact :func:`solve_singleton` against the fixed model q0.  Every
    probe reads :func:`_singleton_profile`, one sort built on the first, or
    within its rounding bound of the threshold the exact solve."""

    def __init__(self, counts: EmpiricalCounts, q0: Distribution):
        self._counts, self._q0 = counts, q0

    @functools.cached_property
    def _profile(self):
        return _singleton_profile(self._counts, self._q0)

    def _solve(self, alpha: float, threshold: float | None) -> SolveResult:
        return solve_singleton(self._counts, self._q0, alpha)

    def _certified(self, alpha: float, threshold: float) -> bool | None:
        probe = self._profile(alpha) if self._profile is not None else None
        if probe is not None and abs(probe[0] - threshold) > probe[1]:
            return probe[0] >= threshold
        return None


class _MixtureSolver(_Solver):
    """Mixture solves from the weights of the latest probe: consecutive
    alphas are close, and a warm start changes the iterates, never the limit
    (joint convexity).  Earlier probes prove nothing here."""

    def __init__(self, counts: EmpiricalCounts, components: Sequence[Distribution]):
        self._counts, self._components = counts, components
        self._latest = None

    def _solve(self, alpha: float, threshold: float | None) -> SolveResult:
        return solve_mixture(
            self._counts, self._components, alpha, threshold=threshold, warm_start=self._latest
        )

    def _record(self, alpha: float, threshold: float, result: SolveResult) -> None:
        self._latest = result


class _KlBallSolver(_Solver):
    """KL-ball solves, which start cold, and what earlier probes prove.

    Let V(t) be the optimum with the box P <= t * phat, t = 1/(1 - alpha).
    For any box multipliers lam >= 0 and level c > 0, weak duality gives

        V(t) >= 1 + log(c) - max <a', Q> - t * Lambda,   Lambda = sum_i phat_i lam_i,

    with a'_i = c exp(-lam_i) and the maximum over the ball: a lower bound
    affine in t, valid at every alpha.  A probe that reads True from its
    Frank-Wolfe bound B = obj + 1 - U (:func:`solve_klball`) takes c = max a
    and lam = :func:`_box_duals` of its pair, the box duals of its fill.
    Then a' = a, U bounds the maximum, and obj = log(c) - t0 * Lambda, so
    the bound reads L(t) = B - (t - t0) * Lambda.  Both identities hold up to
    the rounding of the fill, the duals and the sums, at most
    4 (n + 8) eps times the size of the terms; a later probe reads True when
    L(t) less that allowance reaches its threshold.

    A probe that reads False from an iterate objective below its threshold
    leaves its model Q, kept as the :class:`_SingletonSolver` of Q.  A later
    probe reads False when that solver does: when the minimum over the box
    against the fixed Q, an upper bound on V, is below its threshold, the
    solver's own rule.
    """

    def __init__(self, counts: EmpiricalCounts, center: Distribution, radius: float):
        self._counts, self._center, self._radius = counts, center, radius
        self._tol = 4.0 * (counts.n + 8) * _EPS
        self._minorant = None  # (t0, B, Lambda, rounding scale) of the latest True probe
        self._model = None  # _SingletonSolver of the latest converged False probe's q_star

    @functools.cached_property
    def _phat(self) -> np.ndarray:
        return empirical(self._counts).probs

    def _solve(self, alpha: float, threshold: float | None) -> SolveResult:
        return solve_klball(self._counts, self._center, self._radius, alpha, threshold=threshold)

    def _certified(self, alpha: float, threshold: float) -> bool | None:
        if self._minorant is not None:
            t0, bound, slope, scale = self._minorant
            t = 1.0 / (1.0 - alpha)
            allowance = self._tol * (scale + t * (1.0 + slope))
            if bound - (t - t0) * slope - allowance >= threshold:
                return True
        if self._model is not None and not self._model.exceeds(alpha, threshold):
            return False
        return None

    def _record(self, alpha: float, threshold: float, result: SolveResult) -> None:
        if result.lower_bound >= threshold:  # certified at the returned pair
            p, q = result.p_star.probs, result.q_star.probs
            with np.errstate(over="ignore", divide="ignore"):
                c = float(np.divide(p, q, out=np.zeros_like(p), where=q > 0).max())
                if not c < math.inf:  # P_i / Q_i overflowed (subnormal Q_i)
                    return
                lam = _box_duals(self._phat / (1.0 - alpha), q, c)
            u = abs(result.objective + 1.0 - result.lower_bound)
            scale = 1.0 + abs(result.lower_bound) + (1.0 + u) * (
                1.0 + abs(math.log(c)) + float(lam.max())
            )
            slope = float(self._phat @ lam)
            self._minorant = (1.0 / (1.0 - alpha), result.lower_bound, slope, scale)
        elif result.converged and result.objective < threshold:
            self._model = _SingletonSolver(self._counts, result.q_star)


def _ball_linear_max(a: np.ndarray, center: np.ndarray, radius: float, scale: float | None):
    """Upper bound on max <a, Q> over the ball {Q : D(center || Q) <= radius}.

    By weak duality

        U(nu) = nu - exp(sum_{c_i > 0} c_i log(nu - a_i) - radius)

    bounds the maximum for every nu > max a_i over supp(center) with nu at
    least every other a_i, and U is convex in nu.  With m the first maximum,
    x = nu - m > 0 and d_i = m - a_i >= 0 on supp(center),

        U = m - x expm1(L),  L = sum c_i log1p(d_i / x) - radius,

    so nu - a_i never rounds to 0 and the cancellation between nu and the
    exponential stays out of the rounding.  (The center sums to 1 up to
    rounding, which moves U by about eps * nu; so does the rounding of the
    ball's boundary, and for a radius near 1e-13 nu passes 1e12.)
    Safeguarded Newton steps in s = log x find the minimum; every x gives a
    valid bound, so the search need not be exact.  They start from
    x = ``scale`` * max(d), the previous step's end in units of its spread
    max(d), or else from x = sqrt(var_c(d) / 2 radius), the minimizer of
    U's expansion in 1/x.  At the floor x = max(a) - m, U is increasing if
    U'(x) >= 0 there, and the minimum is the floor.  Returns
    ``(bound, scale)``: the least U seen, capped by the trivial max(a), and
    the scale to start the next search from.
    """
    a_max = float(a.max())
    if not math.isfinite(a_max):
        return math.inf, scale
    pos = center > 0
    c = center[pos]
    a_c = a[pos]
    m = float(a_c.max())
    d = m - a_c
    spread = float(d.max())
    # x >= 1e-150 * spread keeps d / x, exp(L) and U'' finite; x <= e**700 keeps x finite.
    x_lo = max(a_max - m, 1e-150 * max(spread, 1.0))
    s_lo = math.log(x_lo)
    s_hi = max(s_lo, 700.0)
    if spread == 0:
        x = x_lo
    elif scale is None:
        e = d / spread  # scaled: d * d overflows for a_i near 1e300 (subnormal Q_i)
        mean = float(c @ e)
        x = spread * math.sqrt(max(float(c @ (e * e)) - mean * mean, 0.0) / (2.0 * radius))
    else:
        x = scale * spread
    s = min(max(math.log(x) if x > 0 else s_lo, s_lo), s_hi)
    x = x_lo if s == s_lo else math.exp(s)
    best = a_max
    for _ in range(30):
        ratio = d / x
        eta = ratio / (1.0 + ratio)  # d_i / (x + d_i)
        big_l = float(c @ np.log1p(ratio)) - radius
        h1 = float(c @ eta)
        h2 = float(c @ (eta * eta))
        best = min(best, m - x * math.expm1(big_l))
        growth = math.exp(big_l)
        slope = 1.0 - growth * (1.0 - h1)  # U'(x)
        if x == x_lo and slope >= 0:
            break
        g1 = x * slope  # dU/ds, and below d2U/ds2
        g2 = g1 + x * growth * max(h2 - h1 * h1, 0.0)
        ds = min(max(-g1 / g2, -4.0), 4.0) if g2 > 0 else 1.0
        if abs(ds) <= 1e-9:
            break
        s = min(max(s + ds, s_lo), s_hi)
        x = x_lo if s == s_lo else math.exp(s)
    return best, x / spread if spread > 0 else scale


def _ball_projection(p: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Exact minimizer of D(p || Q) subject to D(center || Q) <= radius.

    Q = p inside the ball.  Otherwise the minimizer is the blend
    Q(t) = t*p + (1 - t)*center whose weight t on p solves
    f(t) = D(center || Q(t)) = radius on the fixed bracket [0, 1]: f is convex
    with f(0) = 0 and f(1) = D(center || p) > radius, so it is non-decreasing
    where it crosses the radius.  One pass over supp(center) gives f, as
    ``_kl`` computes it, and f'(t) = sum_{c_i > 0} c_i (c_i - p_i) / Q_i(t).
    Safeguarded Newton keeps f(lo) <= radius < f(hi) until
    hi - lo <= 1e-13 * hi and returns Q(lo), inside the ball as ``_kl``
    measures it.  Newton starts at t = 1 and, f being convex, approaches the
    root from above; a step that would land within the tolerance of ``hi``
    probes just below it instead, to find a feasible ``lo`` (a feasible
    probe ends the search).  The midpoint replaces a step that leaves the
    bracket, one longer than half the step before last (as in rtsafe of
    Numerical Recipes), and the step after a failed probe.  Once
    t <= 2**-54, 1 - t rounds to 1 and f reads 0, so ``lo`` leaves 0.
    """
    pos = center > 0
    c = center[pos]
    p_c = p[pos]
    diff = c - p_c

    def f_df(t):
        q = t * p_c + (1.0 - t) * c
        if q.min() < _SMALLEST_NORMAL:
            return _kl(c, q), math.nan
        ratio = c / q
        return max(0.0, float(np.sum(c * np.log(ratio)))), float(ratio @ diff)

    f, df = f_df(1.0)
    if f <= radius:
        return p
    lo, hi, t = 0.0, 1.0, 1.0
    step = prior = 1.0  # the last two step lengths
    probed = False
    while True:
        if f > radius:
            hi = t
        else:
            lo = t
        if hi - lo <= 1e-13 * hi:
            break
        below = hi - 0.5e-13 * hi
        newton = (f - radius) / df if df > 0 else math.nan
        if probed or not lo < t - newton < hi or abs(newton) > 0.5 * prior:
            prior, step = step, 0.5 * (hi - lo)
            t, probed = lo + step, False
        else:
            prior, step = step, newton
            t, probed = min(t - newton, below), t - newton >= below
        f, df = f_df(t)
    return lo * p + (1.0 - lo) * center


def solve(counts: EmpiricalCounts, model: ModelSet, alpha: float) -> SolveResult:
    """Minimum KL divergence from the discard-feasible box to the model set.

    Exact for singleton models.  Mixture and KL-ball models run one
    alternating loop whose model step certifies a lower bound on the
    optimum (0 before the first step).  A full solve stops when the
    objective is within ``TOLERANCE`` of the bound.  At ``MAX_ITERATIONS``
    it stops with ``converged=False`` and returns the last water-filled
    pair, its objective and (mixtures) the weights of ``q_star``; so does an
    iteration that repeats the state of one of the eight before it, a cycle
    in rounding that the cap would only replay (a KL ball of tiny radius can
    leave the bound's rounding, about eps times its dual nu, above
    ``TOLERANCE``).  Non-convergence is never raised.

    ``solve_mixture`` and ``solve_klball`` also take a ``threshold``: the
    loop then stops once the objective, an upper bound on the optimum, is
    below it or the certified lower bound reaches it, so a converged
    objective at or above it is proven.
    """
    return _solver(counts, model).solve(alpha)


def _solver(counts: EmpiricalCounts, model: ModelSet) -> _Solver:
    """The solver of ``counts`` against ``model``; building it does no O(n) work."""
    if isinstance(model, Singleton):
        return _SingletonSolver(counts, model.q0)
    if isinstance(model, Mixture):
        return _MixtureSolver(counts, model.components)
    if isinstance(model, KlBall):
        return _KlBallSolver(counts, model.center, model.radius)
    raise TypeError(f"unknown model set: {type(model).__name__}")
