"""Weights, points, and weighted Hamming distances."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hamconc.hamming import (
    AlphaWeights,
    Point,
    distance_field,
    hamming_distance,
    normalize,
)
from hamconc.space import FiniteSpace, SetSpec


def test_alpha_weights_norms_are_cached_and_exact():
    a = AlphaWeights((0.6, 0.8))
    assert a.n == 2
    assert a.l2_norm == 1.0  # 0.36 + 0.64 is exactly 1.0 in binary
    assert a.l1_sum == 1.4
    assert a.normalized


def test_alpha_weights_accepts_zero_weight():
    a = AlphaWeights((1.0, 0.0))
    assert a.normalized
    assert a.l1_sum == 1.0


def test_alpha_weights_rejects_bad_input():
    with pytest.raises(ValueError, match="dimension"):
        AlphaWeights(())
    with pytest.raises(ValueError, match=">= 0"):
        AlphaWeights((1.0, -0.1))
    with pytest.raises(ValueError, match="finite"):
        AlphaWeights((math.inf,))
    with pytest.raises(ValueError, match="finite"):
        AlphaWeights((math.nan,))


def test_normalized_flag_tolerance():
    assert AlphaWeights((1.0 + 5e-10, 0.0)).normalized
    assert not AlphaWeights((1.1, 0.0)).normalized
    assert not AlphaWeights((1.0, 1.0)).normalized


def test_normalize_rescales_to_unit_norm():
    a = normalize((3.0, 4.0))
    assert a.weights == (0.6, 0.8)
    # idempotent once the norm is exactly 1
    assert normalize(a).weights == a.weights


@pytest.mark.parametrize(
    "weights, want",
    [
        ((0.0, 1.4376609882372853e-161), (0.0, 1.0)),
        ((5e-324,), (1.0,)),
        ((2.0**-600, 2.0**-600), (1 / math.sqrt(2),) * 2),
        ((2.0**600, 2.0**600), (1 / math.sqrt(2),) * 2),
    ],
)
def test_normalize_gives_a_unit_vector_at_any_scale(weights, want):
    # the squares of these weights underflow or overflow unscaled
    a = normalize(weights)
    assert a.weights == want
    assert a.normalized


@pytest.mark.parametrize(
    "weights, norm",
    [
        ((2.0**600,), 2.0**600),
        ((2.0**-600,), 2.0**-600),
        ((5e-324,), 5e-324),
        ((2.0**600, 2.0**600), 2.0**600 * math.sqrt(2)),
        ((1.4376609882372853e-161, 0.0), 1.4376609882372853e-161),
        ((0.0, 0.0), 0.0),
    ],
)
def test_l2_norm_at_any_scale(weights, norm):
    # unscaled, these squares overflow to inf or underflow to subnormals
    assert AlphaWeights(weights).l2_norm == norm


@given(st.lists(st.floats(1e-100, 1e100), min_size=1, max_size=6))
def test_l2_norm_keeps_its_bits_where_the_squares_are_in_range(ws):
    assert AlphaWeights(tuple(ws)).l2_norm == math.sqrt(sum(w * w for w in ws))


def test_normalize_rejects_zero_vector():
    with pytest.raises(ValueError, match="degenerate"):
        normalize((0.0, 0.0))


@given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6))
def test_normalize_always_yields_unit_norm(ws):
    assert normalize(tuple(ws)).normalized


def test_point_coordinate_surgery():
    p = Point((0, 1, 2))
    assert p.n == 3
    assert p.insert(3, 7) == Point((0, 1, 2, 7))
    assert p.insert(0, 5) == Point((5, 0, 1, 2))
    # inserting a dropped coordinate's symbol back is the identity
    assert Point(p.symbols[:1] + p.symbols[2:]).insert(1, 1) == p


def test_point_rejects_negative_symbols():
    with pytest.raises(ValueError, match="nonnegative"):
        Point((-1,))


def test_hamming_distance_basic():
    a = AlphaWeights((0.6, 0.8))
    assert hamming_distance(a, Point((0, 0)), Point((1, 0))) == 0.6
    assert hamming_distance(a, Point((0, 0)), Point((0, 1))) == 0.8
    assert hamming_distance(a, Point((0, 0)), Point((1, 1))) == 1.4
    assert hamming_distance(a, Point((1, 1)), Point((1, 1))) == 0.0


def test_hamming_distance_dimension_mismatch():
    a = AlphaWeights((0.6, 0.8))
    with pytest.raises(ValueError, match="dimension"):
        hamming_distance(a, Point((0,)), Point((0, 0)))


_coords = st.integers(0, 3)


@st.composite
def _weighted_triples(draw):
    n = draw(st.integers(1, 5))
    ws = draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
    pts = [
        Point(tuple(draw(st.lists(_coords, min_size=n, max_size=n))))
        for _ in range(3)
    ]
    return AlphaWeights(tuple(ws)), pts


@given(_weighted_triples())
def test_hamming_distance_is_a_pseudometric(case):
    alpha, (x, y, z) = case
    dxy = hamming_distance(alpha, x, y)
    assert dxy == hamming_distance(alpha, y, x)
    assert hamming_distance(alpha, x, x) == 0.0
    assert 0.0 <= dxy <= alpha.l1_sum
    # triangle inequality; 1e-12 absorbs summation-order rounding
    assert hamming_distance(alpha, x, z) <= dxy + hamming_distance(alpha, y, z) + 1e-12


def test_distance_to_set_takes_the_minimum():
    space = FiniteSpace((2, 2))
    a = AlphaWeights((0.6, 0.8))
    spec = SetSpec.from_points([(0, 0), (1, 1)])
    field = distance_field(a, spec.mask(space))
    assert field[0, 0] == 0.0
    # (0,1) is 0.8 from (0,0) and 0.6 from (1,1)
    assert field[0, 1] == 0.6
    assert field[1, 0] == 0.6


def test_distance_to_empty_set_is_an_error():
    space = FiniteSpace((2, 2))
    a = AlphaWeights((0.6, 0.8))
    empty = SetSpec.from_points(())
    with pytest.raises(ValueError, match="empty set"):
        distance_field(a, empty.mask(space))
