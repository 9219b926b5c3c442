"""Functional constructors, the exact condition certificates, and distance fields."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hamconc.estimators import exact_functional_stats
from hamconc.functionals import (
    CERT_TOL,
    Functional,
    check_drop_condition,
    check_lipschitz,
    check_self_bounding,
    drop_infimum_family,
    stats_from_law,
)
from hamconc.hamming import (
    AlphaWeights,
    Point,
    distance_field,
    distance_to_set,
    hamming_distance,
    normalize,
)
from hamconc.space import Distribution, FiniteSpace, SetSpec

ALPHA_2 = AlphaWeights((0.6, 0.8))
SPACE_2 = FiniteSpace((2, 2))
ORIGIN = SetSpec.from_points([(0, 0)])

C3 = 0.5773502691896258  # 1/sqrt(3)


# -- constructors -------------------------------------------------------------


def test_from_table_length_check():
    with pytest.raises(ValueError, match="5 values"):
        Functional.from_table(SPACE_2, [0.0, 1.0, 2.0, 3.0, 4.0])


def test_table_is_checked_against_the_space_it_is_used_on():
    f = Functional.from_table(FiniteSpace((2, 3)), range(6))
    with pytest.raises(ValueError, match=r"table has shape \(2, 3\), space has \(3, 2\)"):
        check_lipschitz(f, normalize((1.0, 1.0)), FiniteSpace((3, 2)))


def test_weighted_sum_dimension_check():
    f = Functional.weighted_sum((1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="dimension mismatch") as pointwise:
        f.value(SPACE_2.unrank(0))
    with pytest.raises(ValueError) as bulk:
        f.values(np.ix_(np.arange(2), np.arange(2)))
    assert str(bulk.value) == str(pointwise.value)


def test_distance_to_empty_set():
    with pytest.raises(ValueError, match="empty set"):
        Functional.distance_to(ALPHA_2, SetSpec.from_points(()), SPACE_2)


def test_self_bounding_params_validated():
    with pytest.raises(ValueError, match="a > 0"):
        Functional.weighted_sum((1.0,), self_bounding_params=(0.0, 0.0))
    with pytest.raises(ValueError, match="b >= 0"):
        Functional.weighted_sum((1.0,), self_bounding_params=(1.0, -1.0))


def test_drop_label_defaults_to_custom():
    f = Functional.weighted_sum((1.0, 1.0), drop_family=(lambda p: 0.0, lambda p: 0.0))
    assert f.drop_label == "custom"


def test_drop_value_without_family():
    f = Functional.weighted_sum((1.0, 1.0))
    with pytest.raises(ValueError, match="no drop family"):
        f.drop_value(0, SPACE_2.unrank(0))


# -- bulk evaluation ----------------------------------------------------------


def _one_of_each(space, data):
    """A table, a weighted sum, a distance functional and a plain lambda on space."""
    floats = st.floats(-10.0, 10.0)
    table = data.draw(st.lists(floats, min_size=space.size, max_size=space.size))
    coeffs = data.draw(st.lists(floats, min_size=space.n, max_size=space.n))
    weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=space.n, max_size=space.n))
    ranks = data.draw(st.sets(st.integers(0, space.size - 1), min_size=1, max_size=4))
    spec = SetSpec.from_points(space.unrank(r) for r in ranks)
    return {
        "table": Functional.from_table(space, table),
        "weighted_sum": Functional.weighted_sum(coeffs),
        "distance_to": Functional.distance_to(AlphaWeights(tuple(weights)), spec, space),
        "lambda": Functional(evaluator=lambda p: math.sqrt(sum(p.symbols)) - p.symbols[0]),
    }


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bulk_values_match_pointwise_values(data):
    sizes = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    space = FiniteSpace(sizes)
    ranks = data.draw(st.lists(st.integers(0, space.size - 1), min_size=1, max_size=20))
    samples = np.stack(np.unravel_index(np.asarray(ranks), sizes), axis=1)
    mesh = np.ix_(*(np.arange(m) for m in sizes))
    for name, f in _one_of_each(space, data).items():
        full = f.values(mesh)
        assert full.shape == sizes, name
        assert _bits(full) == _bits([f.value(p) for p in space.points()]), name
        sampled = f.values(tuple(samples.T))
        assert sampled.shape == (len(ranks),), name
        assert _bits(sampled) == _bits([f.value(Point(tuple(r))) for r in samples]), name


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_infimum_family_is_the_coordinate_minimum(data):
    sizes = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    space = FiniteSpace(sizes)
    for name, f in _one_of_each(space, data).items():
        g = drop_infimum_family(f, space)
        for p in space.points():
            for i in range(space.n):
                reduced = p.drop(i)
                want = min(f.value(reduced.insert(i, s)) for s in range(sizes[i]))
                assert g.drop_value(i, reduced) == want, name


# -- Lipschitz certificates ---------------------------------------------------


def test_distance_functional_is_lipschitz():
    f = Functional.distance_to(ALPHA_2, ORIGIN, SPACE_2)
    cert = check_lipschitz(f, ALPHA_2, SPACE_2)
    assert cert.condition == "lipschitz"
    assert cert.holds
    assert cert.witness is None
    assert cert.worst_slack <= CERT_TOL


def test_doubled_distance_fails_with_witness():
    base = Functional.distance_to(ALPHA_2, ORIGIN, SPACE_2)
    f = Functional(evaluator=lambda p: 2.0 * base.value(p))
    cert = check_lipschitz(f, ALPHA_2, SPACE_2)
    assert not cert.holds
    x, y = cert.witness
    gap = abs(f.value(x) - f.value(y)) - hamming_distance(ALPHA_2, x, y)
    assert gap > CERT_TOL
    assert cert.worst_slack == pytest.approx(gap)


def test_constant_functional_has_negative_slack():
    f = Functional(evaluator=lambda p: 3.5)
    cert = check_lipschitz(f, ALPHA_2, SPACE_2)
    assert cert.holds
    # slack excludes self pairs, so the margin is the minimum distance
    assert cert.worst_slack == pytest.approx(-0.6)
    # an axis with one symbol has no edges and sets no margin
    cert = check_lipschitz(f, ALPHA_2, FiniteSpace((1, 2)))
    assert cert.holds
    assert cert.worst_slack == -0.8


def test_lipschitz_requires_unit_alpha():
    f = Functional(evaluator=lambda p: 0.0)
    with pytest.raises(ValueError, match="unit weight vector"):
        check_lipschitz(f, AlphaWeights((1.0, 1.0)), SPACE_2)


def test_single_edge_violation_is_found():
    # f = 0.5 * sum alpha_i x_i is Lipschitz; lowering f(0) by 0.6 * alpha_0
    # breaks exactly the edge (0, e_0), by 0.1 * alpha_0 ~ 0.0063.
    space = FiniteSpace((2,) * 11)
    alpha = normalize([0.2] + [1.0] * 10)
    table = [0.5 * sum(a * s for a, s in zip(alpha.weights, p.symbols)) for p in space.points()]
    table[0] -= 0.6 * alpha.weights[0]
    cert = check_lipschitz(Functional.from_table(space, table), alpha, space)
    assert not cert.holds
    assert cert.witness == (Point((0,) * 11), Point((1,) + (0,) * 10))
    assert cert.worst_slack == pytest.approx(0.1 * alpha.weights[0])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_distance_field_matches_pointwise_definition(data):
    sizes = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    space = FiniteSpace(sizes)
    assume(space.size <= 64)
    weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=space.n, max_size=space.n))
    alpha = AlphaWeights(tuple(weights))
    ranks = data.draw(
        st.sets(st.integers(0, space.size - 1), min_size=1, max_size=space.size)
    )
    spec = SetSpec.from_points(space.unrank(r) for r in ranks)
    field = distance_field(alpha, spec.mask(space))
    for p in space.points():
        assert field[p.symbols] == distance_to_set(alpha, p, spec, space)


# -- drop condition -----------------------------------------------------------


def test_distance_functional_satisfies_drop_condition():
    f = drop_infimum_family(
        Functional.distance_to(ALPHA_2, ORIGIN, SPACE_2), SPACE_2
    )
    assert f.drop_label == "infimum"
    cert = check_drop_condition(f, ALPHA_2, SPACE_2)
    assert cert.condition == "drop"
    assert cert.holds
    assert cert.worst_slack <= CERT_TOL


def test_matched_weighted_sum_satisfies_drop_condition():
    f = drop_infimum_family(Functional.weighted_sum((0.6, 0.8)), SPACE_2)
    cert = check_drop_condition(f, ALPHA_2, SPACE_2)
    assert cert.holds


def test_oversized_oscillation_fails_drop_condition():
    f = drop_infimum_family(Functional.weighted_sum((1.2, 0.8)), SPACE_2)
    cert = check_drop_condition(f, ALPHA_2, SPACE_2)
    assert not cert.holds
    assert cert.witness is not None
    assert cert.witness.symbols[0] == 1  # only coordinate 0 oscillates too far
    assert cert.worst_slack == pytest.approx(0.6)


def test_drop_family_length_check():
    f = Functional.weighted_sum((1.0, 1.0), drop_family=(lambda p: 0.0,))
    with pytest.raises(ValueError, match="drop family has 1"):
        check_drop_condition(f, ALPHA_2, SPACE_2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
def test_drop_condition_implies_lipschitz(table):
    f = drop_infimum_family(Functional.from_table(SPACE_2, table), SPACE_2)
    drop = check_drop_condition(f, ALPHA_2, SPACE_2)
    if drop.holds:
        lip = check_lipschitz(f, ALPHA_2, SPACE_2)
        # a chain over n coordinates can stack one tolerance per step
        assert lip.worst_slack <= SPACE_2.n * CERT_TOL


# -- self-bounding ------------------------------------------------------------


def test_bit_count_is_one_zero_self_bounding():
    space = FiniteSpace((2, 2, 2))
    f = drop_infimum_family(
        Functional.weighted_sum((1.0, 1.0, 1.0), self_bounding_params=(1.0, 0.0)),
        space,
    )
    cert = check_self_bounding(f, space)
    assert cert.condition == "self_bounding"
    assert cert.holds
    assert cert.worst_slack == 0.0


def test_doubled_bits_violate_unit_gap_range():
    f = drop_infimum_family(
        Functional.weighted_sum((2.0, 2.0), self_bounding_params=(1.0, 0.0)), SPACE_2
    )
    cert = check_self_bounding(f, SPACE_2)
    assert not cert.holds
    assert cert.witness is not None


def test_sum_condition_violation_is_reported_in_slack():
    f = drop_infimum_family(
        Functional.weighted_sum((1.0, 1.0), self_bounding_params=(0.5, 0.0)), SPACE_2
    )
    cert = check_self_bounding(f, SPACE_2)
    assert not cert.holds
    # at (1, 1): gap sum 2, a*f + b = 1
    assert cert.worst_slack == pytest.approx(1.0)


def test_self_bounding_requires_params_and_family():
    f = drop_infimum_family(Functional.weighted_sum((1.0, 1.0)), SPACE_2)
    with pytest.raises(ValueError, match="no self-bounding parameters"):
        check_self_bounding(f, SPACE_2)
    g = Functional.weighted_sum((1.0, 1.0), self_bounding_params=(1.0, 0.0))
    with pytest.raises(ValueError, match="no drop family"):
        check_self_bounding(g, SPACE_2)


# -- NaN -----------------------------------------------------------------------


@pytest.mark.parametrize("table", [[0.0, 0.1, math.nan, 0.2], [math.nan, 0.0, 0.0, 5.0]])
def test_certificates_fail_on_nan(table):
    # NaN compares false, so a check that flags only failed comparisons
    # would certify it
    alpha = normalize((1.0, 1.0))
    f = Functional.from_table(SPACE_2, table, self_bounding_params=(1.0, 0.0))
    lip = check_lipschitz(f, alpha, SPACE_2)
    assert not lip.holds and math.isnan(lip.worst_slack)
    x, y = lip.witness
    assert x != y
    assert not abs(f.value(x) - f.value(y)) <= hamming_distance(alpha, x, y)
    g = drop_infimum_family(f, SPACE_2)
    for cert in (check_drop_condition(g, alpha, SPACE_2), check_self_bounding(g, SPACE_2)):
        assert not cert.holds and math.isnan(cert.worst_slack)
        x = cert.witness
        assert any(math.isnan(g.value(x) - g.drop_value(i, x.drop(i))) for i in range(2))


# -- stats -------------------------------------------------------------------


def test_stats_from_law_median_interval():
    s = stats_from_law([0.0, 1.0], [0.5, 0.5])
    assert (s.median_lo, s.median_hi) == (0.0, 1.0)
    assert s.mean == 0.5

    s = stats_from_law([0.0, 1.0, 2.0], [0.25, 0.5, 0.25])
    assert (s.median_lo, s.median_hi) == (1.0, 1.0)
    assert s.mean == 1.0


def test_stats_from_law_validation():
    with pytest.raises(ValueError, match="matching nonempty"):
        stats_from_law([0.0, 1.0], [1.0])
    with pytest.raises(ValueError, match="no mass"):
        stats_from_law([0.0], [0.0])


def test_stats_of_scaled_bit_sum():
    space = FiniteSpace((2, 2, 2))
    dist = Distribution.uniform(space)
    f = Functional.weighted_sum((C3, C3, C3))
    s = exact_functional_stats(space, dist, f).stats
    assert s.mean == 0.8660254037844388
    assert s.median_lo == C3
    assert s.median_hi == 1.1547005383792517
