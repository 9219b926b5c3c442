"""Closed-form tail bounds for weighted Hamming concentration.

Every bound here assumes the weight vector has unit Euclidean norm; the
verification layer enforces that before calling in.  Each evaluator
validates its own parameters and returns a plain float, so the functions
compose with any driver.  The piecewise exponent :func:`h_exponent` is
the heart of the improved set bound: it matches t^2/2 + distance-squared
geometry for t past rho and freezes at 2*rho^2 below it, where the
distance term dominates.
"""

from __future__ import annotations

import math
from enum import Enum

__all__ = [
    "BoundId",
    "h_exponent",
    "mcdiarmid_set_bound",
    "simple_set_bound",
    "improved_set_bound",
    "membership_product_bound",
    "median_tail_bound",
    "median_tail_classical",
    "mean_tail_bound",
    "mgf_bound",
    "shifted_median_bound",
    "gap_bound",
    "gap_bound_classical",
    "sb_upper_bound",
    "sb_lower_bound",
    "drop_mean_tail_bound",
    "drop_mean_tail_scaled",
    "evaluate_bound",
    "EVALUATORS",
    "GAP_RHO_STAR",
    "GAP_IMPROVED_SUP",
    "GAP_CLASSICAL_VALUE",
]


class BoundId(str, Enum):
    """Stable identifiers for every bound; the CLI accepts the values."""

    MCD_SET = "mcd-set"
    SIMPLE_SET = "simple-set"
    IMPROVED_SET = "improved-set"
    MEMBERSHIP_PRODUCT = "membership-product"
    MEDIAN_IMPROVED = "median-improved"
    MEDIAN_CLASSICAL = "median-classical"
    MEAN_TAIL = "mean-tail"
    MGF = "mgf"
    SHIFTED_MEDIAN = "shifted-median"
    GAP_IMPROVED = "gap-improved"
    GAP_CLASSICAL = "gap-classical"
    SB_UPPER = "sb-upper"
    SB_LOWER = "sb-lower"
    DROP_MEAN_TAIL = "drop-mean-tail"
    DROP_MEAN_TAIL_SCALED = "drop-mean-tail-scaled"

    def __str__(self) -> str:  # argparse help prints the bare value
        return self.value


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _require_pos(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value <= 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def _require_nonneg(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value < 0.0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return value


def h_exponent(t: float, rho: float) -> float:
    """Piecewise exponent: 2*rho^2 for 0 < t < rho, else t^2 + (t - 2*rho)^2.

    Both branches agree exactly at t = rho, in float arithmetic too:
    t*t + (t - 2*rho)**2 reduces to rho*rho + rho*rho there, which is
    bit-identical to 2*(rho*rho).
    """
    t = _require_pos("t", t)
    rho = _require_nonneg("rho", rho)
    if t < rho:
        return 2.0 * (rho * rho)
    return t * t + (t - 2.0 * rho) * (t - 2.0 * rho)


def mcdiarmid_set_bound(t: float) -> float:
    """Classical set-distance tail: exp(-t^2 / 2)."""
    t = _require_pos("t", t)
    return math.exp(-0.5 * t * t)


def simple_set_bound(t: float) -> float:
    """Intermediate set-distance tail: exp(-t^2)."""
    t = _require_pos("t", t)
    return math.exp(-t * t)


def improved_set_bound(t: float, rho: float) -> float:
    """Sharpest set-distance tail: exp(-h(t, rho))."""
    return math.exp(-h_exponent(t, rho))


def membership_product_bound(rho: float) -> float:
    """Cap on P(X in A) * (1 - P(X in A)) when rho is the mean distance to A.

    A large mean distance forces the membership probability toward 0 or
    1, so the product cannot exceed exp(-2 * rho^2).
    """
    rho = _require_nonneg("rho", rho)
    return math.exp(-2.0 * rho * rho)


def median_tail_bound(t: float, rho: float) -> float:
    """Two-sided median tail with the piecewise exponent: 2*exp(-h(t, rho))."""
    return 2.0 * math.exp(-h_exponent(t, rho))


def median_tail_classical(t: float) -> float:
    """Classical two-sided median tail: 2*exp(-t^2 / 2); vacuous below t ~ 1.18."""
    t = _require_pos("t", t)
    return 2.0 * math.exp(-0.5 * t * t)


def mean_tail_bound(t: float) -> float:
    """One-sided mean tail under a unit weight vector: exp(-2*t^2).

    It serves ``mean-tail`` and, as :func:`drop_mean_tail_bound`,
    ``drop-mean-tail``: the mean tail under the drop condition, whose
    gaps in [0, alpha_i] bound the differences by alpha_i the same way.
    """
    t = _require_pos("t", t)
    return math.exp(-2.0 * t * t)


def mgf_bound(lam: float) -> float:
    """Centered moment generating function cap: exp(lam^2 / 8)."""
    lam = _require_nonneg("lam", lam)
    return math.exp(0.125 * lam * lam)


def shifted_median_bound(t: float, gap: float) -> float:
    """Mean-centered tail reused at the median: exp(-2*(t - gap)^2).

    ``gap`` is |median - mean|.  Only valid for t > gap; below that the
    shift argument gives nothing and the call is rejected.
    """
    t = _require_pos("t", t)
    gap = _require_nonneg("gap", gap)
    if t <= gap:
        raise ValueError(
            f"t={t} is outside the validity region t > gap={gap}"
        )
    return math.exp(-2.0 * (t - gap) * (t - gap))


def gap_bound(rho: float) -> float:
    """Bound on |mean - median| given rho: (2*rho + sqrt(pi/2)) * exp(-2*rho^2)."""
    rho = _require_nonneg("rho", rho)
    return (2.0 * rho + math.sqrt(0.5 * math.pi)) * math.exp(-2.0 * rho * rho)


def gap_bound_classical() -> float:
    """Classical bound on |mean - median|: sqrt(2*pi), independent of rho."""
    return math.sqrt(2.0 * math.pi)


# Stationary point of gap_bound: the positive root of
# 8*rho^2 + 4*sqrt(pi/2)*rho - 2 = 0.  The bound is maximal there, and
# that maximum is the universal constant improving on sqrt(2*pi).
GAP_RHO_STAR = (math.sqrt(math.pi / 2.0 + 4.0) - math.sqrt(math.pi / 2.0)) / 4.0
GAP_IMPROVED_SUP = gap_bound(GAP_RHO_STAR)
GAP_CLASSICAL_VALUE = gap_bound_classical()


def sb_upper_bound(t: float, mu: float, a: float, b: float) -> float:
    """Self-bounding upper tail: exp(-t^2 / (2*(a*mu + b + a*t)))."""
    t = _require_pos("t", t)
    mu = _require_nonneg("mu", mu)
    a = _require_pos("a", a)
    b = _require_nonneg("b", b)
    denom = a * mu + b + a * t
    if denom <= 0.0:
        raise ValueError(f"degenerate denominator a*mu + b + a*t = {denom}")
    return math.exp(-t * t / (2.0 * denom))


def sb_lower_bound(t: float, mu: float, a: float, b: float) -> float:
    """Self-bounding lower tail: exp(-t^2 / (2*(a*mu + b + t/3)))."""
    t = _require_pos("t", t)
    mu = _require_nonneg("mu", mu)
    a = _require_pos("a", a)
    b = _require_nonneg("b", b)
    denom = a * mu + b + t / 3.0
    if denom <= 0.0:
        raise ValueError(f"degenerate denominator a*mu + b + t/3 = {denom}")
    return math.exp(-t * t / (2.0 * denom))


drop_mean_tail_bound = mean_tail_bound


def drop_mean_tail_scaled(t: float, n: int) -> float:
    """Mean tail for unit increments on n coordinates: exp(-2*t^2 / n)."""
    t = _require_pos("t", t)
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return math.exp(-2.0 * t * t / n)


# Dispatcher: name -> (callable, parameter names in call order).  The
# extra "h" entry exposes the raw exponent through the same front door.
EVALUATORS: dict[str, tuple] = {
    BoundId.MCD_SET.value: (mcdiarmid_set_bound, ("t",)),
    BoundId.SIMPLE_SET.value: (simple_set_bound, ("t",)),
    BoundId.IMPROVED_SET.value: (improved_set_bound, ("t", "rho")),
    BoundId.MEMBERSHIP_PRODUCT.value: (membership_product_bound, ("rho",)),
    BoundId.MEDIAN_IMPROVED.value: (median_tail_bound, ("t", "rho")),
    BoundId.MEDIAN_CLASSICAL.value: (median_tail_classical, ("t",)),
    BoundId.MEAN_TAIL.value: (mean_tail_bound, ("t",)),
    BoundId.MGF.value: (mgf_bound, ("lam",)),
    BoundId.SHIFTED_MEDIAN.value: (shifted_median_bound, ("t", "gap")),
    BoundId.GAP_IMPROVED.value: (gap_bound, ("rho",)),
    BoundId.GAP_CLASSICAL.value: (gap_bound_classical, ()),
    BoundId.SB_UPPER.value: (sb_upper_bound, ("t", "mu", "a", "b")),
    BoundId.SB_LOWER.value: (sb_lower_bound, ("t", "mu", "a", "b")),
    BoundId.DROP_MEAN_TAIL.value: (drop_mean_tail_bound, ("t",)),
    BoundId.DROP_MEAN_TAIL_SCALED.value: (drop_mean_tail_scaled, ("t", "n")),
    "h": (h_exponent, ("t", "rho")),
}


def evaluate_bound(name: str, **params: float) -> float:
    """Evaluate a bound by its identifier with keyword parameters.

    Raises
    ------
    ValueError
        For an unknown name, a missing parameter, or an extra one; the
        message names the offending key.
    """
    try:
        fn, wanted = EVALUATORS[name]
    except KeyError:
        known = ", ".join(sorted(EVALUATORS))
        raise ValueError(f"unknown bound {name!r}; known: {known}") from None
    for key in params:
        if key not in wanted:
            raise ValueError(f"bound {name!r} does not take parameter {key!r}")
    args = []
    for key in wanted:
        if key not in params:
            raise ValueError(f"bound {name!r} requires parameter {key!r}")
        args.append(params[key])
    return float(fn(*args))
