"""Concentration bounds for weighted Hamming distances, verified exactly.

The package pairs a family of closed-form concentration bounds (tail
bounds for the weighted Hamming distance to a set, median- and
mean-centered tail bounds for Lipschitz functionals, a mean-median gap
bound, moment-generating-function and self-bounding inequalities) with
exact enumeration on small finite product spaces, so every inequality
can be checked end to end instead of taken on faith.

Typical entry points: build a :class:`FiniteSpace`, a
:class:`Distribution`, and :class:`AlphaWeights`, wrap a target in a
:class:`Scenario`, and call :func:`verify_scenario`; or evaluate a
single bound via :func:`evaluate_bound`.  The ``hamconc`` command line
wraps the same flows.
"""

from .bounds import (
    GAP_CLASSICAL_VALUE,
    GAP_IMPROVED_SUP,
    GAP_RHO_STAR,
    BoundId,
    drop_mean_tail_bound,
    drop_mean_tail_scaled,
    evaluate_bound,
    gap_bound,
    gap_bound_classical,
    h_exponent,
    improved_set_bound,
    mcdiarmid_set_bound,
    median_tail_bound,
    median_tail_classical,
    membership_product_bound,
    mgf_bound,
    sb_lower_bound,
    sb_upper_bound,
    shifted_median_bound,
    simple_set_bound,
)
from .estimators import (
    DistanceToSet,
    FunctionalLaw,
    Law,
    McEstimate,
    SetStats,
    Stats,
    TailCurve,
    exact_functional_stats,
    exact_set_stats,
    hoeffding_half_width,
    mc_tail,
    mgf_from_law,
)
from .functionals import (
    Certificate,
    Functional,
    check_drop_condition,
    check_lipschitz,
    check_self_bounding,
)
from .hamming import AlphaWeights, Point, hamming_distance, normalize
from .scenario_io import ScenarioFileError, load_scenario, scenario_from_dict
from .space import (
    Distribution,
    FiniteSpace,
    SetSpec,
    sample,
)
from .verify import (
    PASS_TOL,
    BoundReport,
    BoundRow,
    GapTarget,
    MeanTarget,
    MedianTarget,
    Scenario,
    SetTarget,
    SweepResult,
    default_t_grid,
    random_scenario,
    scenario_fingerprint,
    sweep,
    verify_drop_functional,
    verify_gap,
    verify_median,
    verify_scenario,
    verify_set,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # weights, points, distances
    "AlphaWeights",
    "Point",
    "normalize",
    "hamming_distance",
    # spaces and laws
    "FiniteSpace",
    "Distribution",
    "SetSpec",
    "sample",
    # functionals and certificates
    "Functional",
    "Certificate",
    "check_lipschitz",
    "check_drop_condition",
    "check_self_bounding",
    # exact and Monte Carlo estimation
    "Law",
    "Stats",
    "TailCurve",
    "SetStats",
    "FunctionalLaw",
    "DistanceToSet",
    "McEstimate",
    "exact_set_stats",
    "exact_functional_stats",
    "mgf_from_law",
    "hoeffding_half_width",
    "mc_tail",
    # closed-form bounds
    "BoundId",
    "h_exponent",
    "mcdiarmid_set_bound",
    "simple_set_bound",
    "improved_set_bound",
    "membership_product_bound",
    "median_tail_bound",
    "median_tail_classical",
    "mgf_bound",
    "shifted_median_bound",
    "gap_bound",
    "gap_bound_classical",
    "sb_upper_bound",
    "sb_lower_bound",
    "drop_mean_tail_bound",
    "drop_mean_tail_scaled",
    "evaluate_bound",
    "GAP_RHO_STAR",
    "GAP_IMPROVED_SUP",
    "GAP_CLASSICAL_VALUE",
    # scenario verification
    "PASS_TOL",
    "Scenario",
    "SetTarget",
    "MedianTarget",
    "GapTarget",
    "MeanTarget",
    "BoundRow",
    "BoundReport",
    "default_t_grid",
    "scenario_fingerprint",
    "verify_set",
    "verify_median",
    "verify_gap",
    "verify_drop_functional",
    "verify_scenario",
    "random_scenario",
    "SweepResult",
    "sweep",
    # scenario files
    "ScenarioFileError",
    "load_scenario",
    "scenario_from_dict",
]
