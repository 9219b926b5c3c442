"""Exact sums against math.fsum, bit for bit: the kernel, TailCurve and the MGF."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_mgf as ref
from hamconc._util import _FSUM_BELOW, exact_layers, exact_sum
from hamconc.estimators import TailCurve, mgf_from_law
from hamconc.functionals import stats_from_law

_EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 1e308, -1e308]
_TERMS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1000)),
    st.floats(1e307, 1.7976931348623157e308),
    st.sampled_from(_EDGE),
)
# Sizes on both sides of the small-size dispatch.
_SIZES = st.one_of(
    st.integers(0, 3),
    st.integers(_FSUM_BELOW - 2, _FSUM_BELOW + 2),
    st.integers(0, 3 * _FSUM_BELOW),
)


def _outcome(fn, *args):
    """The result's bits, or the type of the error raised."""
    try:
        return fn(*args).hex()
    except (OverflowError, ValueError) as e:
        return type(e).__name__


@st.composite
def _arrays(draw, terms=_TERMS):
    """An array of a drawn size whose entries come from a few drawn terms.

    The entries are the terms, some negated and some scaled by powers
    of two, shuffled: cancellation, repeats and wide exponent ranges
    without drawing thousands of floats one by one.
    """
    base = np.array(draw(st.lists(terms, min_size=1, max_size=12)))
    size = draw(_SIZES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.choice(base, size)
    if draw(st.booleans()):
        x = x * rng.choice([-1.0, 1.0], size)
    if draw(st.booleans()):
        x = np.ldexp(x, rng.integers(-60, 1, size))
    return x


@settings(max_examples=300, deadline=None)
@given(_arrays())
def test_exact_sum_is_fsum(x):
    assert _outcome(exact_sum, x) == _outcome(math.fsum, x.tolist())


@pytest.mark.parametrize(
    "x",
    [
        [],
        [-0.0],
        [-0.0] * (2 * _FSUM_BELOW),
        [5e-324] * 3 * _FSUM_BELOW,
        [1e308, -1e308, 1.0] * _FSUM_BELOW,
        [1.7976931348623157e308, -1.0] + [1e-300] * _FSUM_BELOW,
        [1e308] * 2 * _FSUM_BELOW,
        [math.inf] + [1.0] * _FSUM_BELOW,
        [math.inf, -math.inf] + [1.0] * _FSUM_BELOW,
        [1e16, 1.0, -1e16] * _FSUM_BELOW,
    ],
)
def test_exact_sum_edges(x):
    assert _outcome(exact_sum, np.array(x, dtype=np.float64)) == _outcome(math.fsum, x)


def test_layers_add_up_exactly():
    rng = np.random.default_rng(7)
    x = np.prod(rng.uniform(0.1, 1.0, (4096, 24)), axis=1) * rng.choice([-1.0, 1.0], 4096)
    layers, rest = exact_layers(x)
    assert rest is None
    total = np.zeros_like(x)
    for q in layers:
        # Every running sum of a layer is exact.
        assert math.fsum(q.tolist()) == float(np.cumsum(q)[-1])
        total += q
    assert np.array_equal(total, x)


_MASSES = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e-300),
    st.builds(math.ldexp, st.floats(0.0, 1.0), st.integers(-1074, 0)),
    st.just(0.0),
)


def _check_curve(m: np.ndarray) -> None:
    curve = TailCurve.from_law(np.arange(m.size, dtype=np.float64), m)
    total = math.fsum(m.tolist())
    assert curve.total == total
    for i in range(m.size):
        lo = math.fsum(m[: i + 1].tolist()) / total
        hi = math.fsum(m[i:].tolist()) / total
        assert curve.prob_le(i) == lo
        assert curve.prob_lt(i + 0.5) == lo
        assert curve.prob_ge(i) == hi
        assert curve.prob_gt(i - 0.5) == hi
    assert curve.prob_ge(m.size - 0.5) == 0.0
    assert curve.prob_gt(m.size - 1) == 0.0
    assert curve.prob_le(-0.5) == 0.0
    assert curve.prob_lt(0.0) == 0.0


@settings(max_examples=100, deadline=None)
@given(_arrays(_MASSES), st.booleans())
def test_tail_curve_tails_are_fsum_of_slices(m, products):
    m = np.abs(m)
    if products:
        # Products of up to 24 factors, as product laws make them.
        rng = np.random.default_rng(m.size)
        m = m * np.prod(rng.uniform(0.1, 1.0, (m.size, int(rng.integers(1, 25)))), axis=1)
    if m.size == 0 or math.fsum(m.tolist()) <= 0.0:
        return
    _check_curve(m[:700])


def test_tail_curve_with_masses_too_large_to_split():
    # The layer scale would overflow: the masses stay unsplit and are
    # summed by fsum at each query.
    m = np.array([1e307, 1e-300, 3.0, 0.0, 2.5e306, 1e-320, 1.0])
    assert exact_layers(m)[1] is not None
    _check_curve(m)


def test_tail_curve_on_a_product_law():
    rng = np.random.default_rng(3)
    pmfs = [rng.uniform(0.1, 1.0, 2) for _ in range(11)]
    probs = np.ones(1)
    for p in pmfs:
        probs = np.multiply.outer(probs, p / p.sum()).ravel()
    _check_curve(probs)


def _law(rng, size: int) -> tuple[np.ndarray, np.ndarray]:
    values = np.round(rng.normal(size=size), int(rng.integers(1, 6)))
    probs = rng.uniform(0.0, 1.0, size) ** int(rng.integers(1, 8))
    return values, probs / probs.sum()


@pytest.mark.parametrize("size", [1, 7, _FSUM_BELOW - 1, _FSUM_BELOW, 2048])
def test_mgf_matches_the_per_outcome_formula(size):
    rng = np.random.default_rng(size)
    for _ in range(10):
        values, probs = _law(rng, size)
        mean = stats_from_law(values, probs).mean
        for lam in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, float(rng.uniform(0.0, 20.0))):
            want = ref.mgf_from_law(values.tolist(), probs.tolist(), lam)
            assert mgf_from_law(values, probs, lam).hex() == want.hex()
            assert mgf_from_law(values, probs, lam, mean).hex() == want.hex()
            assert mgf_from_law(values.tolist(), probs.tolist(), lam).hex() == want.hex()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-50.0, 50.0), st.floats(0.0, 1.0)), min_size=1, max_size=40
    ),
    st.floats(0.0, 10.0),
)
def test_mgf_matches_the_per_outcome_formula_on_drawn_laws(atoms, lam):
    values = [v for v, _ in atoms]
    probs = [p for _, p in atoms]
    try:
        want = ref.mgf_from_law(values, probs, lam)
    except (OverflowError, ValueError) as e:
        with pytest.raises(type(e)):
            mgf_from_law(values, probs, lam)
        return
    assert mgf_from_law(values, probs, lam).hex() == want.hex()
