"""Closed-form tail bounds for weighted Hamming concentration.

Every bound here assumes the weight vector has unit Euclidean norm; the
verification layer enforces that before calling in.  Each evaluator
validates its own parameters and returns a plain float, so the functions
compose with any driver.  The piecewise exponent :func:`h_exponent` is
the heart of the improved set bound: it matches t^2/2 + distance-squared
geometry for t past rho and freezes at 2*rho^2 below it, where the
distance term dominates.

:data:`EVALUATORS` is the one statement of every bound: each id maps to
a :class:`Bound` record of its function, its parameter names and
whether its value is a probability.  The verify flows read a row's
vacuity from it, ``eval-bound`` and ``curves`` its parameters, and
README's list of ids is checked against it.  The flows call each
function by its module attribute, so a wrapper set on that attribute
(the benchmark's tracer sets one) sees every call.
"""

from __future__ import annotations

import math
import numbers
import sys
from typing import Callable, NamedTuple

__all__ = [
    "Bound",
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
    "EVALUATORS",
    "GAP_RHO_STAR",
    "GAP_IMPROVED_SUP",
    "GAP_CLASSICAL_VALUE",
]


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _require_pos(name: str, value: float) -> float:
    # A float in range passes at once; anything else takes the checks below.
    if type(value) is float and 0.0 < value < math.inf:
        return value
    value = _require_finite(name, value)
    if value <= 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def _require_nonneg(name: str, value: float) -> float:
    if type(value) is float and 0.0 <= value < math.inf:
        return value
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


# exp(lam^2 / 8) is finite exactly while lam^2 / 8 is at most ln of the
# largest double, that is, for lam up to _MGF_LAM_MAX, about 75.35.
_LN_DOUBLE_MAX = math.log(sys.float_info.max)
_MGF_LAM_MAX = math.sqrt(8.0 * _LN_DOUBLE_MAX)


def mgf_bound(lam: float) -> float:
    """Centered moment generating function cap: exp(lam^2 / 8).

    A lam past _MGF_LAM_MAX is refused: its cap overflows a double.
    """
    lam = _require_nonneg("lam", lam)
    if 0.125 * lam * lam > _LN_DOUBLE_MAX:
        raise ValueError(
            f"lam must be at most {_MGF_LAM_MAX!r}, where exp(lam^2/8) overflows "
            f"a double; got {lam}"
        )
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
    decay = math.exp(-2.0 * rho * rho)
    # Past rho of about 9e307 the factor is inf, and inf * 0 is no bound.
    return (2.0 * rho + math.sqrt(0.5 * math.pi)) * decay if decay else 0.0


def gap_bound_classical() -> float:
    """Classical bound on |mean - median|: sqrt(2*pi), independent of rho."""
    return math.sqrt(2.0 * math.pi)


# Stationary point of gap_bound: the positive root of
# 8*rho^2 + 4*sqrt(pi/2)*rho - 2 = 0.  The bound is maximal there, and
# that maximum is the universal constant improving on sqrt(2*pi).
GAP_RHO_STAR = (math.sqrt(math.pi / 2.0 + 4.0) - math.sqrt(math.pi / 2.0)) / 4.0
GAP_IMPROVED_SUP = gap_bound(GAP_RHO_STAR)
GAP_CLASSICAL_VALUE = gap_bound_classical()


def _exact_tail(t: float, a: float, mu: float, b: float, upper: bool) -> float:
    """exp(-t^2 / (2 * denom)), denom = a*mu + b + (a*t if upper else t/3),
    with the quotient taken exactly and rounded once, or 0 past float
    range: the self-bounding tails where t^2 or 2 * denom overflows a
    float, and their float quotient is NaN, 0 or -0 whatever the true one
    is.  ``fractions`` is imported here, on this rare path only."""
    from fractions import Fraction

    t_, a_ = Fraction(t), Fraction(a)
    denom = a_ * Fraction(mu) + Fraction(b) + (a_ * t_ if upper else t_ / 3)
    try:
        return math.exp(-float(t_**2 / (2 * denom)))
    except OverflowError:
        return 0.0


def sb_upper_bound(t: float, mu: float, a: float, b: float) -> float:
    """Self-bounding upper tail: exp(-t^2 / (2*(a*mu + b + a*t)))."""
    t = _require_pos("t", t)
    mu = _require_nonneg("mu", mu)
    a = _require_pos("a", a)
    b = _require_nonneg("b", b)
    denom = a * mu + b + a * t
    if denom <= 0.0:
        raise ValueError(f"degenerate denominator a*mu + b + a*t = {denom}")
    if math.isfinite(t * t) and math.isfinite(2.0 * denom):
        return math.exp(-t * t / (2.0 * denom))
    return _exact_tail(t, a, mu, b, upper=True)


def sb_lower_bound(t: float, mu: float, a: float, b: float) -> float:
    """Self-bounding lower tail: exp(-t^2 / (2*(a*mu + b + t/3)))."""
    t = _require_pos("t", t)
    mu = _require_nonneg("mu", mu)
    a = _require_pos("a", a)
    b = _require_nonneg("b", b)
    denom = a * mu + b + t / 3.0
    if denom <= 0.0:
        raise ValueError(f"degenerate denominator a*mu + b + t/3 = {denom}")
    if math.isfinite(t * t) and math.isfinite(2.0 * denom):
        return math.exp(-t * t / (2.0 * denom))
    return _exact_tail(t, a, mu, b, upper=False)


def drop_mean_tail_bound(t: float) -> float:
    """Mean tail under the drop condition with a unit weight vector: exp(-2*t^2).

    Drop gaps in [0, alpha_i] bound each coordinate's differences by
    alpha_i, which gives McDiarmid's one-sided tail for independent
    coordinates.
    """
    t = _require_pos("t", t)
    return math.exp(-2.0 * t * t)


def drop_mean_tail_scaled(t: float, n: int) -> float:
    """Mean tail for unit increments on n coordinates: exp(-2*t^2 / n)."""
    t = _require_pos("t", t)
    # A bool is an int, and a float is a count only when it is integral.
    integral = isinstance(n, numbers.Integral) or float(n).is_integer()
    if isinstance(n, bool) or not integral or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return math.exp(-2.0 * t * t / int(n))


class Bound(NamedTuple):
    """One bound: its function, its parameter names in call order, and
    whether its value is a probability, so that a value above 1 is vacuous."""

    fn: Callable[..., float]
    params: tuple[str, ...]
    probability: bool


# Every bound by its id, and the raw exponent "h" through the same front door.
EVALUATORS: dict[str, Bound] = {
    "mcd-set": Bound(mcdiarmid_set_bound, ("t",), True),
    "simple-set": Bound(simple_set_bound, ("t",), True),
    "improved-set": Bound(improved_set_bound, ("t", "rho"), True),
    "membership-product": Bound(membership_product_bound, ("rho",), True),
    "median-improved": Bound(median_tail_bound, ("t", "rho"), True),
    "median-classical": Bound(median_tail_classical, ("t",), True),
    "mgf": Bound(mgf_bound, ("lam",), False),
    "shifted-median": Bound(shifted_median_bound, ("t", "gap"), True),
    "gap-improved": Bound(gap_bound, ("rho",), False),
    "gap-classical": Bound(gap_bound_classical, (), False),
    "sb-upper": Bound(sb_upper_bound, ("t", "mu", "a", "b"), True),
    "sb-lower": Bound(sb_lower_bound, ("t", "mu", "a", "b"), True),
    "drop-mean-tail": Bound(drop_mean_tail_bound, ("t",), True),
    "drop-mean-tail-scaled": Bound(drop_mean_tail_scaled, ("t", "n"), True),
    "h": Bound(h_exponent, ("t", "rho"), False),
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
        bound = EVALUATORS[name]
    except KeyError:
        known = ", ".join(sorted(EVALUATORS))
        raise ValueError(f"unknown bound {name!r}; known: {known}") from None
    for key in params:
        if key not in bound.params:
            raise ValueError(f"bound {name!r} does not take parameter {key!r}")
    args = []
    for key in bound.params:
        if key not in params:
            raise ValueError(f"bound {name!r} requires parameter {key!r}")
        args.append(params[key])
    return float(bound.fn(*args))
