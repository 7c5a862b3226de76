"""Certified lower bounds on the contamination level of categorical data.

Given per-category counts and a convex set of model distributions, this
package answers: how many samples must be discarded, at minimum, before the
remainder is statistically consistent with the model?  The answer is a
certified lower bound obtained from constrained KL minimizations inside a
bisecting line search over the discard fraction.
"""

__version__ = "0.1.0"

from .distributions import (
    Distribution,
    EmpiricalCounts,
    KlBall,
    Mixture,
    ModelSet,
    Singleton,
    empirical,
    kl_divergence,
    klball_radius,
    separation_distance,
    uniform,
)
from .estimator import (
    EstimateResult,
    SweepConfig,
    SweepRow,
    contaminated_count_lower,
    convergence_bound,
    estimate_alpha_lower,
    gof_threshold,
    is_contaminated,
    sweep,
    two_sample_test,
)
from .oracle import (
    exact_cstar,
    exact_typicality,
    integer_program_exact,
)
from .solver import (
    Duals,
    SolveResult,
    closed_form_singleton,
    solve,
    solve_klball,
    solve_mixture,
    solve_singleton,
)

__all__ = [
    "Distribution",
    "EmpiricalCounts",
    "Singleton",
    "Mixture",
    "KlBall",
    "ModelSet",
    "empirical",
    "kl_divergence",
    "separation_distance",
    "klball_radius",
    "uniform",
    "SolveResult",
    "Duals",
    "solve",
    "solve_singleton",
    "closed_form_singleton",
    "solve_mixture",
    "solve_klball",
    "EstimateResult",
    "gof_threshold",
    "is_contaminated",
    "estimate_alpha_lower",
    "contaminated_count_lower",
    "two_sample_test",
    "convergence_bound",
    "SweepConfig",
    "SweepRow",
    "sweep",
    "integer_program_exact",
    "exact_typicality",
    "exact_cstar",
    "__version__",
]
