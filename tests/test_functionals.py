"""Functional constructors, the exact condition certificates, and distance fields."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_pointwise as ref
from hamconc.estimators import Law, exact_functional_stats, stats_from_law
from hamconc.functionals import (
    CERT_TOL,
    Certificate,
    Functional,
    check_drop_condition,
    check_lipschitz,
    check_self_bounding,
)
from hamconc.hamming import (
    AlphaWeights,
    Point,
    distance_field,
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


def _dropped(x: Point, i: int) -> Point:
    """The point x with coordinate i removed."""
    return Point(x.symbols[:i] + x.symbols[i + 1 :])


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
        assert _bits(full) == _bits([f.value(p) for p in ref.points(space)]), name
        sampled = f.values(tuple(samples.T))
        assert sampled.shape == (len(ranks),), name
        assert _bits(sampled) == _bits([f.value(Point(tuple(r))) for r in samples]), name


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_infimum_family_is_the_coordinate_minimum(data):
    sizes = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    space = FiniteSpace(sizes)
    for name, f in _one_of_each(space, data).items():
        for p in ref.points(space):
            for i in range(space.n):
                reduced = _dropped(p, i)
                want = min(f.value(reduced.insert(i, s)) for s in range(sizes[i]))
                assert f.drop_value(i, reduced, space) == want, name


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
    table = [0.5 * sum(a * s for a, s in zip(alpha.weights, p.symbols)) for p in ref.points(space)]
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
    for p in ref.points(space):
        assert field[p.symbols] == ref.distance_to_set(alpha, p, spec, space)


# -- drop condition -----------------------------------------------------------


def test_distance_functional_satisfies_drop_condition():
    f = Functional.distance_to(ALPHA_2, ORIGIN, SPACE_2)
    cert = check_drop_condition(f, ALPHA_2, SPACE_2)
    assert cert.condition == "drop"
    assert cert.holds
    assert cert.worst_slack <= CERT_TOL


def test_matched_weighted_sum_satisfies_drop_condition():
    f = Functional.weighted_sum((0.6, 0.8))
    cert = check_drop_condition(f, ALPHA_2, SPACE_2)
    assert cert.holds


def test_oversized_oscillation_fails_drop_condition():
    f = Functional.weighted_sum((1.2, 0.8))
    cert = check_drop_condition(f, ALPHA_2, SPACE_2)
    assert not cert.holds
    assert cert.witness is not None
    assert cert.witness.symbols[0] == 1  # only coordinate 0 oscillates too far
    assert cert.worst_slack == pytest.approx(0.6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
def test_drop_condition_implies_lipschitz(table):
    f = Functional.from_table(SPACE_2, table)
    drop = check_drop_condition(f, ALPHA_2, SPACE_2)
    if drop.holds:
        lip = check_lipschitz(f, ALPHA_2, SPACE_2)
        # a chain over n coordinates can stack one tolerance per step
        assert lip.worst_slack <= SPACE_2.n * CERT_TOL


# -- self-bounding ------------------------------------------------------------


def test_bit_count_is_one_zero_self_bounding():
    space = FiniteSpace((2, 2, 2))
    f = Functional.weighted_sum((1.0, 1.0, 1.0), self_bounding_params=(1.0, 0.0))
    cert = check_self_bounding(f, space)
    assert cert.condition == "self_bounding"
    assert cert.holds
    assert cert.worst_slack == 0.0


def test_doubled_bits_violate_unit_gap_range():
    f = Functional.weighted_sum((2.0, 2.0), self_bounding_params=(1.0, 0.0))
    cert = check_self_bounding(f, SPACE_2)
    assert not cert.holds
    assert cert.witness is not None


def test_sum_condition_violation_is_reported_in_slack():
    f = Functional.weighted_sum((1.0, 1.0), self_bounding_params=(0.5, 0.0))
    cert = check_self_bounding(f, SPACE_2)
    assert not cert.holds
    # at (1, 1): gap sum 2, a*f + b = 1
    assert cert.worst_slack == pytest.approx(1.0)


def test_self_bounding_requires_params_and_family():
    f = Functional.weighted_sum((1.0, 1.0))
    with pytest.raises(ValueError, match="no self-bounding parameters"):
        check_self_bounding(f, SPACE_2)


# -- the infimum family against per-point references --------------------------


def _family_gaps(f, family, space):
    """gaps[i][r] = f(x) - f_i(x without i) at the point x of rank r."""
    return [
        [f.value(x) - family(i, _dropped(x, i)) for x in ref.points(space)] for i in range(space.n)
    ]


def _reference_drop(gaps, weights, space):
    """(holds, witness, worst_slack) of the drop condition, point by point."""
    margins, witness = [], None
    for g, w in zip(gaps, weights):
        for r, gr in enumerate(g):
            margins.append(max(-gr, gr - w))
            if witness is None and not 0.0 <= gr <= w + CERT_TOL:
                witness = space.unrank(r)
    worst = float(np.max(margins))
    return witness is None, witness, -0.0 if worst <= 0.0 else worst


def _reference_self_bounding(gaps, values, params, space):
    """(holds, witness, worst_slack) of the (a, b) conditions, point by point."""
    a, b = params
    witness = None
    for g in gaps:
        for r, gr in enumerate(g):
            if witness is None and not 0.0 <= gr <= 1.0 + CERT_TOL:
                witness = space.unrank(r)
    slacks = []
    for r, v in enumerate(values):
        total = 0.0
        for g in gaps:
            total += g[r]
        slacks.append(total - a * v - b)
        if witness is None and not slacks[-1] <= CERT_TOL:
            witness = space.unrank(r)
    return witness is None, witness, float(np.max(slacks))


def _certificate_tuple(cert):
    """The certificate with its slack as bits; a NaN's sign and payload do not count."""
    slack = cert.worst_slack
    return cert.holds, "nan" if math.isnan(slack) else struct.pack("<d", slack), cert.witness


def _drawn_space_and_table(data):
    sizes = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    space = FiniteSpace(sizes)
    cell = st.one_of(
        st.sampled_from([math.nan, -0.0, 0.0, 0.5, 1.0, 2.0]), st.floats(-2.0, 2.0)
    )
    table = data.draw(st.lists(cell, min_size=space.size, max_size=space.size))
    return space, table


def _drawn_weights(data, n):
    weight = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 2.0))
    return AlphaWeights(tuple(data.draw(st.lists(weight, min_size=n, max_size=n))))


_PARAMS = st.tuples(
    st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.01, 3.0)),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 2.0)),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_certificates_match_the_pointwise_infimum_family(data):
    space, table = _drawn_space_and_table(data)
    alpha = _drawn_weights(data, space.n)
    params = data.draw(_PARAMS)
    f = Functional.from_table(space, table, self_bounding_params=params)
    gaps = _family_gaps(f, lambda i, y: f.drop_value(i, y, space), space)
    for weights in (alpha, AlphaWeights((1.0,) * space.n)):
        cert = check_drop_condition(f, weights, space)
        want = _reference_drop(gaps, weights.weights, space)
        assert _certificate_tuple(cert) == _certificate_tuple(Certificate("drop", *want))
    cert = check_self_bounding(f, space)
    want = _reference_self_bounding(gaps, table, params, space)
    assert _certificate_tuple(cert) == _certificate_tuple(Certificate("sb", *want))


def _reference_lipschitz(f, weights, space):
    """(holds, witness, worst_slack) of the Lipschitz check, edge by edge.

    On each line along axis i the edge of greatest |f(x) - f(x')| is
    kept, ties going to the greater top value, then to the lesser bottom
    one, then to the first edge in symbol order, and a NaN ranking
    first; the line's slack is that edge's minus alpha_i.  An axis keeps
    its first line, in rank order, of greatest slack, a NaN ranking
    first.  The axes with edges are taken in order, and an axis's slack
    replaces the worst unless it is <= it.
    """

    def above(a, b):
        return not math.isnan(b[0]) and (math.isnan(a[0]) or a > b)

    worst, witness = -math.inf, None
    for i, w in enumerate(weights):
        k = space.alphabet_sizes[i]
        best = None
        for x in ref.points(space):
            if k == 1 or x.symbols[i] != 0:
                continue
            line = [Point(x.symbols[:i] + (s,) + x.symbols[i + 1 :]) for s in range(k)]
            edge = None
            for s in range(k):
                for t in range(s + 1, k):
                    u, v = f.value(line[s]), f.value(line[t])
                    key = (abs(u - v), max(u, v), -min(u, v))
                    if edge is None or above(key, edge[0]):
                        edge = (key, (line[s], line[t]))
            slack = (edge[0][0] - w,)
            if best is None or above(slack, best[0]):
                best = (slack, edge[1])
        if best is not None and not best[0][0] <= worst:
            worst, witness = best[0][0], best[1]
    holds = worst <= CERT_TOL
    return holds, None if holds else witness, worst


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lipschitz_certificate_matches_the_pointwise_edges(data):
    space, table = _drawn_space_and_table(data)
    weights = _drawn_weights(data, space.n).weights
    assume(sum(w * w for w in weights) > 0.0)
    alpha = normalize(weights)
    scale = data.draw(st.sampled_from([1.0, 0.25]))
    f = Functional.from_table(space, [scale * v for v in table])
    cert = check_lipschitz(f, alpha, space)
    want = _reference_lipschitz(f, alpha.weights, space)
    assert _certificate_tuple(cert) == _certificate_tuple(Certificate("lipschitz", *want))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_any_family_that_passes_leaves_the_infimum_family_passing(data):
    # any admissible f_i lies below the infimum, and lower f_i only widen
    # the gaps, so a certificate of the infimum family loses no family
    space, table = _drawn_space_and_table(data)
    alpha = _drawn_weights(data, space.n)
    params = data.draw(_PARAMS)
    f = Functional.from_table(space, table, self_bounding_params=params)
    sizes = space.alphabet_sizes
    below = st.one_of(st.just(0.0), st.sampled_from([0.25, 1.0]), st.floats(0.0, 2.0))
    tables = []
    for i in range(space.n):
        k = math.prod(sizes) // sizes[i]
        offsets = np.asarray(data.draw(st.lists(below, min_size=k, max_size=k)))
        infimum = np.asarray(table).reshape(sizes).min(axis=i)
        tables.append(infimum - offsets.reshape(infimum.shape))
    gaps = _family_gaps(f, lambda i, y: float(tables[i][y.symbols]), space)
    for weights in (alpha, AlphaWeights((1.0,) * space.n)):
        if _reference_drop(gaps, weights.weights, space)[0]:
            assert check_drop_condition(f, weights, space).holds
    if _reference_self_bounding(gaps, table, params, space)[0]:
        assert check_self_bounding(f, space).holds


def test_the_drop_certificates_peak_at_a_few_tables():
    # one axis at a time: the gaps of every axis at once were n tables
    n = 18
    space = FiniteSpace((2,) * n)
    f = Functional.weighted_sum((1.0,) * n, self_bounding_params=(1.0, 0.0))
    tracemalloc.start()
    try:
        assert check_self_bounding(f, space).holds
        assert check_drop_condition(f, AlphaWeights((1.0,) * n), space).holds
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * space.size * 8


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
    for cert in (check_drop_condition(f, alpha, SPACE_2), check_self_bounding(f, SPACE_2)):
        assert not cert.holds and math.isnan(cert.worst_slack)
        x = cert.witness
        assert any(
            math.isnan(f.value(x) - f.drop_value(i, _dropped(x, i), SPACE_2)) for i in range(2)
        )


# -- stats -------------------------------------------------------------------


def test_stats_from_law_median_interval():
    s = stats_from_law(Law([0.0, 1.0], [0.5, 0.5]))
    assert (s.median_lo, s.median_hi) == (0.0, 1.0)
    assert s.mean == 0.5

    s = stats_from_law(Law([0.0, 1.0, 2.0], [0.25, 0.5, 0.25]))
    assert (s.median_lo, s.median_hi) == (1.0, 1.0)
    assert s.mean == 1.0

    # P(f <= 0) falls short of 1/2 by 4e-13, so 0 is not a median.
    s = stats_from_law(Law([0.0, 1.0], [0.5 - 4e-13, 0.5 + 4e-13]))
    assert (s.median_lo, s.median_hi) == (1.0, 1.0)


def test_stats_from_law_validation():
    with pytest.raises(ValueError, match="matching nonempty"):
        Law([0.0, 1.0], [1.0])
    with pytest.raises(ValueError, match="no mass"):
        Law([0.0], [0.0])


def test_stats_of_scaled_bit_sum():
    space = FiniteSpace((2, 2, 2))
    dist = Distribution.uniform(space)
    f = Functional.weighted_sum((C3, C3, C3))
    s = exact_functional_stats(space, dist, f).stats
    assert s.mean == 0.8660254037844388
    assert s.median_lo == C3
    assert s.median_hi == 1.1547005383792517
