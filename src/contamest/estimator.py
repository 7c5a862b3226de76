"""Statistical layer: the contamination test, the certified lower bound on
the contaminated fraction, the two-sample variant, and the deterministic
sweep experiment.

The decision threshold comes from large-deviations bounds on empirical
distributions: a dataset of ``p`` samples over ``n`` categories whose
empirical distribution sits at KL distance at least

    gamma(p) = (1/p) log(1/eps) + (2n/p) log(p+1)

from every model distribution is contaminated at significance ``eps``.
Replacing ``p`` by the effective sample size ``p(1-alpha)`` and scanning
``alpha`` yields the largest discard fraction that still fails the test,
which lower-bounds the true contaminated fraction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .distributions import (
    EmpiricalCounts,
    KlBall,
    ModelSet,
    Singleton,
    _large_deviations_radius,
    _log_inverse,
    empirical,
    klball_radius,
    separation_distance,
    uniform,
)
from .solver import _solver

DEFAULT_BISECT_TOL = 2.0**-28


def gof_threshold(p_eff: float, n: int, epsilon: float) -> float:
    """(1/p_eff) log(1/epsilon) + (2n/p_eff) log(p_eff + 1)."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must be in (0, 1)")
    if not (p_eff > 0):
        raise ValueError("effective_p must be positive")
    return _large_deviations_radius(float(p_eff), int(n), epsilon)


@dataclass(frozen=True)
class EstimateResult:
    """Certified contamination bound for one dataset/model pair.

    ``alpha_lower`` is the largest discard fraction at which the data still
    fails the goodness-of-fit test; ``c_lower``, the exact floor of
    ``p * alpha_lower``, bounds the number of contaminated samples.  Discarding
    m = c_lower whole samples stays inside the feasible box at fraction
    m/p <= alpha_lower, so every m-sample remainder is still flagged;
    rounding down keeps the guarantee unconditional.

    ``kappa`` is the separation distance from the empirical distribution to
    ``q_star`` of the final full solve at ``alpha_lower``.  For mixtures and
    KL balls that is an iterate within ``TOLERANCE`` of the optimal
    objective, not a unique optimum, so ``kappa`` can move in its trailing
    digits while ``alpha_lower`` and ``c_lower`` do not.
    """

    alpha_lower: float
    kappa: float
    c_lower: int
    threshold_at_alpha: float
    objective_at_alpha: float
    contaminated: bool
    bisection_width: float


def is_contaminated(
    counts: EmpiricalCounts, model: ModelSet, epsilon: float
) -> tuple[bool, float]:
    """Contamination verdict at significance ``epsilon`` for the full dataset.

    The verdict is that of the alpha = 0 probe, the one that
    ``estimate_alpha_lower`` reports as ``contaminated``: True only when the
    model-set KL distance provably reaches the decision threshold, so there
    are no false flags beyond the significance level.  Returns
    ``(verdict, margin)`` with margin = objective - threshold, from the full
    solve of a solver object (``solver._solver``), run first for every kind.
    Its objective below the threshold, or its converged bound at or above
    it, settles the verdict; only the band between them (never an exact
    singleton solve) or an unconverged solve asks the object's ``exceeds``,
    which starts cold like the full solve and takes the same steps.
    """
    p = counts.total
    if p < 1:
        raise ValueError("empty dataset")
    threshold = gof_threshold(p, counts.n, epsilon)
    solver = _solver(counts, model)
    full = solver.solve(0.0)
    if full.objective < threshold:
        verdict = False
    elif full.converged and full.lower_bound >= threshold:
        verdict = True
    else:
        verdict = solver.exceeds(0.0, threshold)
    return verdict, full.objective - threshold


def estimate_alpha_lower(
    counts: EmpiricalCounts,
    model: ModelSet,
    epsilon: float,
    bisect_tol: float = DEFAULT_BISECT_TOL,
) -> EstimateResult:
    """Certified lower bound on the contaminated fraction by bisection.

    The predicate "distance-to-model at discard fraction alpha still exceeds
    the threshold" is monotone in alpha (the distance is non-increasing, the
    threshold strictly increasing), so a bisecting search over [0, 1)
    isolates the largest alpha satisfying it to within ``bisect_tol``.  When
    the predicate already fails at alpha = 0 the dataset shows no detectable
    contamination and the bound is 0.

    One solver object per estimate (``solver._solver``) answers every
    probe, alpha = 0 included, with ``exceeds``: from what earlier probes
    prove, else by a solve under the probe's threshold.  Its full ``solve``
    at ``alpha_lower`` gives ``objective_at_alpha``.
    """
    p = counts.total
    if p < 1:
        raise ValueError("empty dataset")
    if not 0 < bisect_tol < math.inf:  # NaN fails both comparisons
        raise ValueError("bisect_tol must be finite and positive")

    solver = _solver(counts, model)
    contaminated = solver.exceeds(0.0, gof_threshold(p, counts.n, epsilon))
    lo, hi = 0.0, 1.0 if contaminated else 0.0
    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # bisect_tol is below the float spacing here
            break
        verdict = solver.exceeds(mid, gof_threshold(p * (1.0 - mid), counts.n, epsilon))
        lo, hi = (mid, hi) if verdict else (lo, mid)
    final = solver.solve(lo)

    kappa = separation_distance(empirical(counts), final.q_star)
    num, den = lo.as_integer_ratio()  # exact: p * lo rounds, and can round up
    return EstimateResult(
        alpha_lower=lo,
        kappa=kappa,
        c_lower=p * num // den,
        threshold_at_alpha=gof_threshold(p * (1.0 - lo), counts.n, epsilon),
        objective_at_alpha=final.objective,
        contaminated=contaminated,
        bisection_width=hi - lo,
    )


def two_sample_test(
    counts_p: EmpiricalCounts,
    counts_q: EmpiricalCounts,
    epsilon: float,
) -> EstimateResult:
    """Contamination bound of one dataset against another dataset as model.

    The model side is the KL ball of all distributions that could plausibly
    have generated ``counts_q``; a contaminated verdict certifies that no
    single distribution explains both datasets at the significance level.
    Joint support is not required: the ball always contains distributions
    whose support covers both samples.
    """
    if counts_p.n != counts_q.n:
        raise ValueError("dimension mismatch")
    if counts_p.total < 1 or counts_q.total < 1:
        raise ValueError("empty dataset")
    model = KlBall(empirical(counts_q), klball_radius(counts_q, epsilon))
    return estimate_alpha_lower(counts_p, model, epsilon)


def convergence_bound(p: int, n: int, epsilon: float) -> float:
    """Reference rate sqrt((1/p) log(1/eps) + (n/p) log(p+1)), O(sqrt(log p / p)).

    The gap kappa - alpha_lower shrinks at this rate times a constant that
    grows as the model mass of the category that pins kappa shrinks; the
    formula has none, so it is no worst-case bound.  Counts (300, 970 x 10)
    * s against q = (0.05, 0.095 x 10) give gaps of 0.400, 0.274 and 0.086
    at p = 1e4, 1e5 and 1e6, where it reads 0.102, 0.036 and 0.012.  Only
    the spike family of acceptance criterion 4 checks it.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must be in (0, 1)")
    return math.sqrt((_log_inverse(epsilon) + n * math.log(p + 1.0)) / p)


@dataclass(frozen=True)
class SweepConfig:
    """Deterministic grid experiment over sample sizes and mixing proportions.

    ``family`` selects the contaminating component blended into a uniform
    base model: ``spike`` is a point mass on the first category, ``dip`` is
    uniform over all but the last category.
    """

    p_grid: tuple[int, ...]
    pi_grid: tuple[float, ...]
    family: str
    n: int
    epsilon: float = 0.05
    bisect_tol: float = DEFAULT_BISECT_TOL

    def __post_init__(self):
        object.__setattr__(self, "p_grid", tuple(int(p) for p in self.p_grid))
        object.__setattr__(self, "pi_grid", tuple(float(x) for x in self.pi_grid))
        if not self.p_grid or not self.pi_grid:
            raise ValueError("grids must be non-empty")
        if self.family not in ("dip", "spike"):
            raise ValueError("family must be 'dip' or 'spike'")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if any(p < 1 for p in self.p_grid):
            raise ValueError("sample sizes must be >= 1")
        if any(p > 2**53 for p in self.p_grid):  # exact as floats up to here
            raise ValueError("sample sizes must be at most 2**53")
        if any(not (0.0 <= x <= 1.0) for x in self.pi_grid):
            raise ValueError("mixing proportions must be in [0, 1]")


@dataclass(frozen=True)
class SweepRow:
    p: int
    pi: float
    family: str
    alpha_lower: float
    kappa: float
    ratio: float
    threshold: float
    objective: float
    wall_time_ms: float


def round_to_counts(probs: np.ndarray, total: int) -> np.ndarray:
    """Nearest integer count vector summing to ``total`` (largest remainder).

    Floors each scaled mass, then hands the leftover units to the largest
    fractional remainders, earliest index first on ties.  Near ``2**53`` the
    rounded masses can sum past ``total``, so the floors overshoot it; the
    largest count then gives the excess back.  Deterministic.
    """
    scaled = np.asarray(probs, dtype=float) * total
    base = np.floor(scaled).astype(np.int64)
    leftover = total - int(base.sum())
    if leftover > 0:
        remainders = scaled - base
        order = np.lexsort((np.arange(len(base)), -remainders))
        base[order[:leftover]] += 1
    elif leftover < 0:
        base[np.argmax(base)] += leftover
    return base


def _sweep_target(family: str, n: int, pi: float) -> np.ndarray:
    base = np.full(n, 1.0 / n)
    if family == "spike":
        contaminant = np.zeros(n)
        contaminant[0] = 1.0
    else:
        contaminant = np.full(n, 1.0 / (n - 1))
        contaminant[n - 1] = 0.0
    return (1.0 - pi) * base + pi * contaminant


def sweep(config: SweepConfig) -> list[SweepRow]:
    """Run the grid experiment; rows ordered by (pi, p) grid index.

    For each grid point the exact mixture is rounded to integer counts at
    sample size p, the contamination bound is estimated against the uniform
    model, and the ratio bound/limit is reported.  Deterministic given the
    config (wall time aside).
    """
    model = Singleton(uniform(config.n))
    rows: list[SweepRow] = []
    for pi in config.pi_grid:
        target = _sweep_target(config.family, config.n, pi)
        for p in config.p_grid:
            start = time.perf_counter()
            counts = EmpiricalCounts(round_to_counts(target, p))
            result = estimate_alpha_lower(
                counts, model, config.epsilon, config.bisect_tol
            )
            elapsed_ms = (time.perf_counter() - start) * 1e3
            ratio = result.alpha_lower / result.kappa if result.kappa > 0 else 0.0
            rows.append(
                SweepRow(
                    p=p,
                    pi=pi,
                    family=config.family,
                    alpha_lower=result.alpha_lower,
                    kappa=result.kappa,
                    ratio=ratio,
                    threshold=result.threshold_at_alpha,
                    objective=result.objective_at_alpha,
                    wall_time_ms=elapsed_ms,
                )
            )
    return rows
