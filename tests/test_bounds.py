"""Closed-form bounds: frozen values, domains, and structural ordering."""

import inspect
import math
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hamconc.bounds import (
    GAP_CLASSICAL_VALUE,
    GAP_IMPROVED_SUP,
    GAP_RHO_STAR,
    Bound,
    EVALUATORS,
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

SQRT_HALF = 0.7071067811865475


# -- the piecewise exponent -------------------------------------------------


def test_h_exponent_branch_values():
    assert h_exponent(0.5, 1.0) == 2.0  # lower branch, 2*1^2
    assert h_exponent(1.0, 0.0) == 2.0  # upper branch, 1 + 1
    # at t = rho both branches agree; 2*(1/2) up to representation
    assert h_exponent(SQRT_HALF, SQRT_HALF) == pytest.approx(1.0, abs=1e-15)


def test_h_exponent_domain():
    with pytest.raises(ValueError, match="t"):
        h_exponent(0.0, 1.0)
    with pytest.raises(ValueError, match="t"):
        h_exponent(-1.0, 1.0)
    with pytest.raises(ValueError, match="rho"):
        h_exponent(1.0, -0.5)
    with pytest.raises(ValueError, match="finite"):
        h_exponent(math.nan, 1.0)


@given(st.floats(1e-6, 50.0))
def test_h_exponent_branches_collide_exactly_at_t_equals_rho(rho):
    # t*t + (t-2*rho)^2 collapses to rho*rho + rho*rho at t = rho, which
    # is bit-identical to 2*(rho*rho); continuity holds in floats, not
    # just in the limit.
    assert h_exponent(rho, rho) == 2.0 * (rho * rho)


@given(st.floats(1e-6, 30.0), st.floats(0.0, 30.0))
def test_h_exponent_dominates_t_squared(t, rho):
    assert h_exponent(t, rho) >= t * t - 1e-12


# -- set-distance bounds ----------------------------------------------------


def test_set_bound_values():
    assert mcdiarmid_set_bound(1.0) == 0.6065306597126334
    assert simple_set_bound(1.0) == 0.36787944117144233
    # h(sqrt(1/2), sqrt(1/2)) is 1 up to one representation step
    assert improved_set_bound(SQRT_HALF, SQRT_HALF) == pytest.approx(
        0.36787944117144233, abs=1e-15
    )
    assert improved_set_bound(1.0, 0.0) == pytest.approx(math.exp(-2.0), abs=0.0)


def test_membership_product_bound_values():
    assert membership_product_bound(0.0) == 1.0
    assert membership_product_bound(SQRT_HALF) == pytest.approx(
        0.36787944117144233, abs=1e-15
    )
    assert membership_product_bound(2.0) == pytest.approx(3.3546262790251185e-4)


@given(st.floats(1e-3, 20.0), st.floats(0.0, 20.0))
def test_set_bound_domination_chain(t, rho):
    assert improved_set_bound(t, rho) <= simple_set_bound(t) <= mcdiarmid_set_bound(t)


@given(st.floats(1e-3, 10.0), st.data())
def test_small_t_strengthening(rho, data):
    t = data.draw(st.floats(1e-6, rho))
    assert improved_set_bound(t, rho) <= math.exp(-2.0 * t * t) + 1e-15


def test_large_t_ratio_approaches_one():
    for rho in (0.0, 0.1, 0.3, 0.5):
        t = 100.0 * max(rho, 1.0)
        ratio = h_exponent(t, rho) / (2.0 * t * t)
        assert 0.99 <= ratio <= 1.0


def test_set_bounds_decrease_in_t():
    # below rho the improved bound is flat, never increasing
    assert improved_set_bound(0.2, 1.0) == improved_set_bound(0.9, 1.0)
    assert improved_set_bound(1.5, 1.0) < improved_set_bound(1.0, 1.0)
    assert mcdiarmid_set_bound(2.0) < mcdiarmid_set_bound(1.0)
    assert simple_set_bound(2.0) < simple_set_bound(1.0)


# -- median and mean bounds -------------------------------------------------


def test_median_tail_values():
    assert median_tail_bound(1.0, 0.0) == 0.2706705664732254
    assert median_tail_bound(2.0, 0.5) == 0.013475893998170934  # h = 4 + 1
    assert median_tail_classical(1.0) == 1.2130613194252668  # vacuous, uncapped


@given(st.floats(1e-3, 20.0), st.floats(0.0, 20.0))
def test_median_improved_dominated_by_classical(t, rho):
    assert median_tail_bound(t, rho) <= median_tail_classical(t)


def test_mean_tail_and_mgf_values():
    assert drop_mean_tail_bound(1.0) == 0.1353352832366127
    assert mgf_bound(0.0) == 1.0
    assert mgf_bound(2.0) == 1.6487212707001282
    with pytest.raises(ValueError, match="lam"):
        mgf_bound(-0.1)


def test_mgf_refuses_a_lambda_whose_cap_overflows():
    # the largest lam whose exp(lam^2/8) is a finite double, and the next one
    top = math.sqrt(8.0 * math.log(sys.float_info.max))
    assert math.isfinite(mgf_bound(top))
    refused = r"^lam must be at most 75\.35424144099038, .* got 75\.35"
    with pytest.raises(ValueError, match=refused):
        mgf_bound(math.nextafter(top, math.inf))


def test_shifted_median_values_and_validity_region():
    assert shifted_median_bound(1.0, 0.25) == 0.32465246735834974
    assert shifted_median_bound(1.0, 0.0) == drop_mean_tail_bound(1.0)
    with pytest.raises(ValueError, match="outside the validity region"):
        shifted_median_bound(0.25, 0.25)
    with pytest.raises(ValueError, match="outside the validity region"):
        shifted_median_bound(0.1, 0.25)


# -- mean-median gap bounds -------------------------------------------------


def test_gap_bound_values():
    assert gap_bound(0.0) == 1.2533141373155001  # sqrt(pi/2)
    assert gap_bound(2.0) == 0.0017622905657012746
    assert gap_bound(5.0) < 1e-20
    assert gap_bound_classical() == 2.5066282746310002  # sqrt(2*pi)


def test_gap_constants():
    # positive root of 8*rho^2 + 4*sqrt(pi/2)*rho - 2 = 0
    assert GAP_RHO_STAR == 0.27673482703554747
    assert GAP_IMPROVED_SUP == gap_bound(GAP_RHO_STAR)
    assert GAP_IMPROVED_SUP == 1.5502001085276984
    assert 1.5500 < GAP_IMPROVED_SUP < 1.5503
    assert GAP_CLASSICAL_VALUE - GAP_IMPROVED_SUP > 0.95


def test_gap_bound_is_0_where_its_factor_overflows():
    # 2*rho + sqrt(pi/2) is inf past rho of about 9e307, and exp(-2*rho^2) is 0
    for rho in (30.0, 1e154, 8.98e307, 1e308, sys.float_info.max):
        assert gap_bound(rho) == 0.0


@given(st.floats(0.0, 10.0))
def test_gap_bound_never_exceeds_its_supremum(rho):
    assert gap_bound(rho) <= GAP_IMPROVED_SUP + 1e-15


# -- self-bounding and drop bounds ------------------------------------------


def test_sb_bound_values():
    assert sb_upper_bound(1.0, 1.0, 1.0, 0.0) == 0.7788007830714049  # e^-1/4
    assert sb_lower_bound(1.0, 1.0, 1.0, 0.0) == 0.6872892787909722  # e^-3/8
    assert sb_upper_bound(3.0, 2.0, 1.0, 1.0) == 0.4723665527410147  # e^-9/12


def test_sb_bounds_where_a_float_step_overflows():
    # t^2 and 2*denom both overflow: the float quotient is NaN, the value 0.
    assert sb_upper_bound(1e308, 0.0, 10.0, 0.0) == 0.0
    assert sb_lower_bound(1e308, 1e308, 10.0, 0.0) == 0.0
    # Only 2*denom overflows: t^2 / (2*denom) is 1/2, not the float -0.
    assert sb_upper_bound(1e154, 1e308, 1.0, 0.0) == math.exp(-0.5)
    assert sb_lower_bound(1e154, 1e308, 1.0, 0.0) == math.exp(-0.5)
    # Only t^2 overflows: the quotient 4e308 / 3.4e308 is finite, not inf.
    assert sb_upper_bound(2e154, 1.7e308, 1.0, 0.0) == math.exp(-4.0 / 3.4)
    # Both overflow but the quotient is tiny.
    assert sb_upper_bound(1e155, 0.0, 1e300, 0.0) == 1.0


def test_sb_bound_domains():
    with pytest.raises(ValueError, match="a"):
        sb_upper_bound(1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="b"):
        sb_lower_bound(1.0, 1.0, 1.0, -0.5)
    with pytest.raises(ValueError, match="mu"):
        sb_upper_bound(1.0, -1.0, 1.0, 0.0)


def test_drop_tail_values():
    assert drop_mean_tail_bound(1.0) == 0.1353352832366127
    assert drop_mean_tail_scaled(1.0, 1) == drop_mean_tail_bound(1.0)
    assert drop_mean_tail_scaled(2.0, 4) == 0.1353352832366127  # 2*4/4 = 2
    with pytest.raises(ValueError, match="n"):
        drop_mean_tail_scaled(1.0, 0)
    assert drop_mean_tail_scaled(2.0, 4.0) == drop_mean_tail_scaled(2.0, 4)


@pytest.mark.parametrize(
    "n, text",
    [
        (2.5, "2.5"),
        (True, "True"),
        (False, "False"),
        (math.nan, "nan"),
        (math.inf, "inf"),
        (-3, "-3"),
    ],
)
def test_drop_tail_scaled_refuses_a_non_count(n, text):
    # Truncating n would give 2.5 the value for n = 2, and True that for n = 1.
    with pytest.raises(ValueError, match=f"^n must be a positive integer, got {text}$"):
        drop_mean_tail_scaled(1.0, n)
    with pytest.raises(ValueError, match=f"^n must be a positive integer, got {text}$"):
        evaluate_bound("drop-mean-tail-scaled", t=1.0, n=n)


# -- dispatcher ---------------------------------------------------------------


def test_evaluate_bound_by_identifier():
    assert evaluate_bound("gap-improved", rho=0.0) == gap_bound(0.0)
    assert evaluate_bound("gap-classical") == gap_bound_classical()
    assert evaluate_bound("h", t=1.0, rho=0.0) == 2.0
    assert evaluate_bound("sb-upper", t=1.0, mu=1.0, a=1.0, b=0.0) == sb_upper_bound(
        1.0, 1.0, 1.0, 0.0
    )


def test_evaluate_bound_names_offending_keys():
    with pytest.raises(ValueError, match="unknown bound"):
        evaluate_bound("nope", t=1.0)
    with pytest.raises(ValueError, match="rho"):
        evaluate_bound("improved-set", t=1.0)
    with pytest.raises(ValueError, match="gap"):
        evaluate_bound("mcd-set", t=1.0, gap=0.5)


def test_every_bound_id_has_an_evaluator():
    # one record per bound id, and the exponent "h"
    assert "mean-tail" not in EVALUATORS
    for name, bound in EVALUATORS.items():
        assert isinstance(bound, Bound)
        # the parameters are the function's own, in call order
        assert bound.params == tuple(inspect.signature(bound.fn).parameters), name
    # values that are not probabilities: the gap, the MGF and the exponent
    plain = {name for name, bound in EVALUATORS.items() if not bound.probability}
    assert plain == {"gap-improved", "gap-classical", "mgf", "h"}


def test_readme_lists_exactly_the_table():
    # README's bound table: one line "| `id` | `param`, ... | yes/no |" per id.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = {}
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*?) \| (yes|no) \|$", text, re.M)
    for name, params, probability in rows:
        assert name not in listed, name
        listed[name] = (tuple(re.findall(r"`(\w+)`", params)), probability == "yes")
    assert listed == {name: (b.params, b.probability) for name, b in EVALUATORS.items()}
