"""Core probability types, divergences, and model-set representations.

Everything here is immutable after construction and all operations are pure,
so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

# Absolute tolerance on the simplex sum constraint.  Well above double
# rounding error, far below any solver tolerance built on top of it.
SIMPLEX_ATOL = 1e-12

_SMALLEST_NORMAL = float(np.finfo(float).tiny)

_MAX_TOTAL = 2**63 - 1  # counts are summed in int64


@dataclass(frozen=True)
class Distribution:
    """A probability mass function over a finite set of categories.

    Entries must be non-negative; the vector is normalized to sum to one on
    construction.  Negative entries are rejected rather than clamped, since
    silent repair would mask ingestion bugs upstream.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)  # copy: frozen below
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty 1-D sequence")
        if np.any(probs < 0):
            raise ValueError("probs must be non-negative")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probs must be finite")
        with np.errstate(over="ignore"):
            total = float(probs.sum())
        if total == math.inf:
            # Every mass is finite, so only the sum overflowed.
            probs /= probs.max()
            total = float(probs.sum())
        if total <= 0:
            raise ValueError("probs must have positive total mass")
        if abs(total - 1.0) > SIMPLEX_ATOL:
            probs /= total
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return int(self.probs.size)


def uniform(n: int) -> Distribution:
    """Uniform distribution over ``n`` categories."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Distribution(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class EmpiricalCounts:
    """Raw per-category occurrence counts for a dataset of ``total`` samples."""

    counts: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        raw = np.asarray(self.counts)
        if raw.ndim != 1 or raw.size == 0:
            raise ValueError("counts must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(raw.astype(float))):
            raise ValueError("counts must be finite")
        if raw.dtype.kind in "iu":
            as_int = raw.astype(np.int64)  # copy: frozen below
        else:
            flt = raw.astype(float)
            as_int = np.round(flt).astype(np.int64)
            if np.any(np.abs(flt - as_int) > 0):
                raise ValueError("counts must be integers")
        if np.any(as_int < 0):
            raise ValueError("counts must be non-negative")
        # ``total`` sums in int64, which wraps past 2**63 - 1.  The float sum
        # is far within a factor 2 of the exact one, so only a total near
        # the edge pays for the exact sum.
        if float(as_int.sum(dtype=float)) > 2.0**62 and sum(map(int, as_int)) > _MAX_TOTAL:
            raise ValueError("counts must sum to at most 2**63 - 1")
        as_int.setflags(write=False)
        object.__setattr__(self, "counts", as_int)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != as_int.size:
                raise ValueError("labels length must match counts length")
            object.__setattr__(self, "labels", labels)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def n(self) -> int:
        return int(self.counts.size)


@dataclass(frozen=True)
class Singleton:
    """Model family consisting of a single known distribution."""

    q0: Distribution


@dataclass(frozen=True)
class Mixture:
    """All convex combinations of a fixed set of component distributions.

    The mixture weights are free optimization variables, not part of the
    model description.
    """

    components: tuple[Distribution, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) < 2:
            raise ValueError("mixture model needs at least 2 components")
        n = comps[0].n
        if any(c.n != n for c in comps):
            raise ValueError("mixture components must share dimension")
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True)
class KlBall:
    """All distributions within a KL radius of a center distribution.

    The divergence is measured from the center: ``{Q : D(center || Q) <= radius}``.
    This is the convex superset of all models for which the center is a
    plausible empirical distribution, when the center itself was estimated
    from finitely many samples.
    """

    center: Distribution
    radius: float

    def __post_init__(self):
        if not (self.radius > 0):
            raise ValueError("radius must be positive")
        object.__setattr__(self, "radius", float(self.radius))


ModelSet = Union[Singleton, Mixture, KlBall]


def empirical(counts: EmpiricalCounts) -> Distribution:
    """Relative frequency of each category: counts[i] / total."""
    total = counts.total
    if total < 1:
        raise ValueError("empty dataset")
    return Distribution(counts.counts / total)


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """Kullback-Leibler divergence D(p || q) in nats.

    Uses the conventions 0*log(0/q) = 0 and D = +inf whenever p puts mass on
    a category where q has none.
    """
    if p.n != q.n:
        raise ValueError("dimension mismatch")
    return _kl(p.probs, q.probs)


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    """KL divergence on raw probability arrays (internal hot path)."""
    mask = p > 0
    ps = p[mask]
    qs = q[mask]
    q_min = qs.min(initial=1.0)
    if q_min <= 0:
        return math.inf
    with np.errstate(over="ignore"):
        logs = np.log(ps / qs)
    if q_min < _SMALLEST_NORMAL:
        # p_i / q_i may have overflowed: take those logs as differences.
        big = np.isinf(logs)
        logs[big] = np.log(ps[big]) - np.log(qs[big])
    val = float(np.sum(ps * logs))
    # Mathematically >= 0; tiny negatives are pure rounding noise.
    return max(0.0, val)


def separation_distance(p: Distribution, q: Distribution) -> float:
    """Smallest kappa such that p = (1-kappa)*q + kappa*f for some pmf f.

    Equals max_i (1 - p_i/q_i) taken over categories where q_i > 0; a
    category with q_i = 0 puts no constraint on the mixture weight, so any
    mass p carries there is attributed entirely to f.  The result always
    lies in [0, 1].
    """
    if p.n != q.n:
        raise ValueError("dimension mismatch")
    mask = q.probs > 0
    with np.errstate(over="ignore"):  # a subnormal q_i gives -inf, never the max
        kappa = float(np.max(1.0 - p.probs[mask] / q.probs[mask]))
    return min(1.0, max(0.0, kappa))


def klball_radius(model_counts: EmpiricalCounts, epsilon: float) -> float:
    """KL radius that makes the ball around an empirical model conservative.

    For a model distribution estimated from ``p'`` samples over ``n``
    categories, every distribution that could plausibly (at significance
    ``epsilon``) have generated those samples lies within

        (1/p') * log(1/epsilon) + (2n/p') * log(p' + 1)

    of the empirical model in KL divergence.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must be in (0, 1)")
    p_prime = model_counts.total
    if p_prime < 1:
        raise ValueError("empty dataset")
    return _large_deviations_radius(p_prime, model_counts.n, epsilon)


def _large_deviations_radius(p, n: int, epsilon: float) -> float:
    """(1/p) log(1/epsilon) + (2n/p) log(p + 1), in the arithmetic of ``p``."""
    return (math.log(1.0 / epsilon) + 2.0 * n * math.log(p + 1)) / p
