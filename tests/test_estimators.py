"""Exact enumeration and Monte Carlo estimators against hand-computed laws."""

import math
import tracemalloc

import numpy as np
import pytest

from hamconc.estimators import (
    MC_DEFAULT_DELTA,
    MC_DEFAULT_N,
    DistanceToSet,
    TailCurve,
    exact_functional_stats,
    exact_set_stats,
    exact_tail,
    hoeffding_half_width,
    _sampled_values,
    mc_tail,
    mgf_from_law,
)
from hamconc.functionals import Functional
from hamconc.hamming import AlphaWeights, distance_field, normalize
from hamconc.space import Distribution, FiniteSpace, SetSpec, _sample_symbols

SQRT_HALF = 0.7071067811865475
C3 = 0.5773502691896258

SPACE_2 = FiniteSpace((2, 2))
UNIFORM_2 = Distribution.uniform(SPACE_2)
ALPHA_UNIT_2 = AlphaWeights((SQRT_HALF, SQRT_HALF))
ORIGIN = SetSpec.from_points([(0, 0)])


# the law of d_alpha(X, {(0,0)}) for two fair bits with equal unit weights:
# 0 w.p. 1/4, sqrt(1/2) w.p. 1/2, 2*sqrt(1/2) w.p. 1/4
def _s1_curve() -> TailCurve:
    return exact_set_stats(SPACE_2, UNIFORM_2, ALPHA_UNIT_2, ORIGIN).distance_curve


def test_tail_curve_queries():
    curve = _s1_curve()
    assert curve.prob_ge(0.0) == 1.0
    assert curve.prob_ge(SQRT_HALF) == 0.75
    assert curve.prob_gt(SQRT_HALF) == 0.25
    assert curve.prob_le(SQRT_HALF) == 0.75
    assert curve.prob_lt(SQRT_HALF) == 0.25
    assert curve.prob_le(-1.0) == 0.0
    # past the support the tail is the float literal zero
    assert curve.prob_ge(10.0) == 0.0
    assert curve.prob_gt(curve.support_max) == 0.0
    assert curve.expectation() == SQRT_HALF
    assert curve.cdf == (0.25, 0.75, 1.0)
    assert curve.support_min == 0.0
    assert curve.support_max == 2.0 * SQRT_HALF


def test_tail_curve_merges_duplicate_values():
    curve = TailCurve.from_law([1.0, 0.0, 1.0], [0.2, 0.5, 0.3])
    for got, want in ((curve.support, [0.0, 1.0]), (curve.masses, [0.5, 0.5])):
        assert got.dtype == np.float64 and not got.flags.writeable
        assert got.tolist() == want


def test_tail_curve_validation():
    with pytest.raises(ValueError, match="matching nonempty"):
        TailCurve.from_law([1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="no mass"):
        TailCurve.from_law([1.0], [0.0])


def test_exact_tail_modes():
    curve = _s1_curve()
    assert exact_tail(curve, SQRT_HALF) == 0.75
    assert exact_tail(curve, SQRT_HALF, mode="geq") == 0.75
    assert exact_tail(curve, SQRT_HALF, mode="gt") == 0.25
    with pytest.raises(ValueError, match="mode must be"):
        exact_tail(curve, 1.0, mode="ge")


def test_exact_set_stats_two_fair_bits():
    st = exact_set_stats(SPACE_2, UNIFORM_2, ALPHA_UNIT_2, ORIGIN)
    assert st.p_in == 0.25
    assert st.rho == SQRT_HALF


def test_exact_set_stats_joint_table():
    dist = Distribution.joint([0.1, 0.2, 0.3, 0.4])
    alpha = AlphaWeights((0.6, 0.8))
    st = exact_set_stats(SPACE_2, dist, alpha, ORIGIN)
    assert st.p_in == 0.1
    # 0.2*0.8 + 0.3*0.6 + 0.4*1.4
    assert st.rho == pytest.approx(0.8999999999999999, abs=1e-14)


def test_exact_set_stats_dimension_check():
    with pytest.raises(ValueError, match="weights"):
        exact_set_stats(SPACE_2, UNIFORM_2, AlphaWeights((1.0,)), ORIGIN)


def test_exact_functional_stats_scaled_bit_sum():
    space = FiniteSpace((2, 2, 2))
    law = exact_functional_stats(
        space, Distribution.uniform(space), Functional.weighted_sum((C3, C3, C3))
    )
    assert law.stats.mean == 0.8660254037844388
    assert law.stats.median_lo == C3
    assert law.stats.median_hi == 1.1547005383792517
    assert law.curve.prob_ge(law.stats.median_hi) == 0.5
    assert len(law.values) == 8
    assert math.fsum(law.probs) == 1.0


def test_mgf_normalizes_at_zero():
    assert mgf_from_law([0.3, 1.7, 2.9], [0.2, 0.5, 0.3], 0.0) == 1.0


def test_mgf_from_law_two_fair_bits():
    # f = x1 + x2, centered at 1: E exp(V - 1) = 0.5 + 0.5*cosh(1)
    law = exact_functional_stats(SPACE_2, UNIFORM_2, Functional.weighted_sum((1.0, 1.0)))
    assert mgf_from_law(law.values, law.probs, 1.0) == 1.2715403174076219
    assert mgf_from_law(law.values, law.probs, 0.0) == 1.0


def test_hoeffding_half_width():
    assert hoeffding_half_width(10**5, 0.01) == 0.005146997846583986
    with pytest.raises(ValueError, match="n_samples"):
        hoeffding_half_width(0, 0.01)
    with pytest.raises(ValueError, match="delta"):
        hoeffding_half_width(100, 1.5)


def test_mc_tail_deterministic_and_calibrated():
    q = DistanceToSet(ALPHA_UNIT_2, ORIGIN)
    est1 = mc_tail(SPACE_2, UNIFORM_2, q, SQRT_HALF, n_samples=20_000, seed=7)
    est2 = mc_tail(SPACE_2, UNIFORM_2, q, SQRT_HALF, n_samples=20_000, seed=7)
    assert est1 == est2
    assert est1.n_samples == 20_000
    assert est1.seed == 7
    assert est1.delta == MC_DEFAULT_DELTA
    assert abs(est1.estimate - 0.75) <= est1.half_width


def test_mc_tail_functional_quantity():
    f = Functional.weighted_sum((1.0, 1.0))
    est = mc_tail(SPACE_2, UNIFORM_2, f, 2.0, n_samples=10_000, seed=3)
    assert abs(est.estimate - 0.25) <= est.half_width
    assert est.half_width == hoeffding_half_width(10_000, MC_DEFAULT_DELTA)


def test_mc_tail_serves_a_set_past_the_enumeration_cap():
    # d(X, {0^40}) with unit weights counts the ones: Binomial(40, 1/2)
    space = FiniteSpace((2,) * 40)
    dist = Distribution.uniform(space)
    alpha = AlphaWeights((1.0,) * 40)
    origin = SetSpec.from_points([(0,) * 40])
    with pytest.raises(ValueError, match="exceeds enumeration cap"):
        exact_set_stats(space, dist, alpha, origin)
    exact = math.fsum(math.comb(40, k) for k in range(24, 41)) / 2.0**40
    est = mc_tail(space, dist, DistanceToSet(alpha, origin), 24.0, n_samples=20_000, seed=5)
    assert abs(est.estimate - exact) <= est.half_width
    assert 0.0 < est.estimate < 0.5


def test_mc_tail_seed_changes_draw():
    q = DistanceToSet(ALPHA_UNIT_2, ORIGIN)
    a = mc_tail(SPACE_2, UNIFORM_2, q, SQRT_HALF, n_samples=5_000, seed=0)
    b = mc_tail(SPACE_2, UNIFORM_2, q, SQRT_HALF, n_samples=5_000, seed=1)
    assert a.estimate != b.estimate


@pytest.mark.parametrize(
    "sizes, members", [((2,) * 10, 64), ((3, 1, 4, 2, 3), 5), ((5, 2, 2), 1)]
)
def test_sampled_distances_equal_the_distance_field(sizes, members):
    rng = np.random.default_rng(len(sizes))
    space = FiniteSpace(sizes)
    dist = Distribution.product([rng.dirichlet(np.ones(m)).tolist() for m in sizes])
    alpha = normalize(rng.uniform(0.1, 1.0, space.n).tolist())
    ranks = rng.choice(space.size, size=members, replace=False)
    target = SetSpec.from_points(space.unrank(int(r)) for r in ranks)
    q = DistanceToSet(alpha, target)
    n_samples, seed = 5_000, 11
    symbols = _sample_symbols(space, dist, seed, n_samples)
    exact = distance_field(alpha, target.mask(space))[tuple(symbols.T)]
    # 5000 rows span several blocks when |A| = 64
    assert _sampled_values(space, q, symbols).tobytes() == exact.tobytes()
    t = float(np.median(exact))
    est = mc_tail(space, dist, q, t, n_samples=n_samples, seed=seed)
    assert est.estimate == np.count_nonzero(exact >= t) / n_samples


def test_mc_tail_distance_memory_is_bounded():
    # 10^5 samples against 64 members of {0,1}^18: a (rows, |A|, n) block
    # of the samples would take about 600 MB
    n = 18
    space = FiniteSpace((2,) * n)
    rng = np.random.default_rng(3)
    ranks = rng.choice(space.size, size=64, replace=False)
    q = DistanceToSet(
        normalize([1.0] * n), SetSpec.from_points(space.unrank(int(r)) for r in ranks)
    )
    tracemalloc.start()
    try:
        mc_tail(space, Distribution.uniform(space), q, 1.0, n_samples=10**5, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_mc_defaults():
    assert MC_DEFAULT_N == 10**5
    assert MC_DEFAULT_DELTA == 0.01


def test_enumeration_cap_is_enforced():
    with pytest.raises(ValueError, match="enumeration cap"):
        exact_set_stats(SPACE_2, UNIFORM_2, ALPHA_UNIT_2, ORIGIN, cap=3)
    with pytest.raises(ValueError, match="enumeration cap"):
        exact_functional_stats(
            SPACE_2, UNIFORM_2, Functional.weighted_sum((1.0, 1.0)), cap=3
        )
