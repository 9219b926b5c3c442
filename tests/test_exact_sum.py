"""Exact sums against math.fsum, bit for bit: the kernel, TailCurve and the MGF."""

import math
import tracemalloc
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_mgf as ref
from hamconc._util import _FSUM_BELOW, exact_layers, exact_sum
from hamconc.estimators import Law, TailCurve, exact_functional_stats, mgf_from_law
from hamconc.functionals import Functional
from hamconc.space import Distribution, FiniteSpace
from hamconc.verify import DEFAULT_LAMBDA_GRID

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
    curve = TailCurve.from_law(Law(np.arange(m.size, dtype=np.float64), m))
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


def _grid(support: np.ndarray) -> np.ndarray:
    """Points on, between, below and above the support, and both infinities, shuffled."""
    mids = (support[:-1] + support[1:]) / 2.0
    ends = [support[0] - 1.0, support[-1] + 1.0, -math.inf, math.inf]
    xs = np.concatenate([support, mids, ends])
    return np.random.default_rng(support.size).permutation(xs)


def _check_grid(curve: TailCurve) -> None:
    """Each grid answer is its scalar query's and fsum of its mass slice over the total."""
    v, m = curve.support.tolist(), curve.masses
    xs = _grid(curve.support)
    for points in (xs, xs.tolist()):
        ge, le = curve.probs_ge(points), curve.probs_le(points)
        assert len(ge) == len(le) == xs.size
        for x, g, lo in zip(xs.tolist(), ge, le):
            above = math.fsum(m[bisect_left(v, x) :].tolist()) / curve.total
            below = math.fsum(m[: bisect_right(v, x)].tolist()) / curve.total
            assert g.hex() == curve.prob_ge(x).hex() == above.hex(), x
            assert lo.hex() == curve.prob_le(x).hex() == below.hex(), x


def test_grid_queries_are_the_scalar_queries_bit_for_bit():
    rng = np.random.default_rng(11)
    for size in (1, 2, 7, 40, _FSUM_BELOW + 3):
        _check_grid(Law(*_law(rng, size)).curve)
    # Masses too large to split: the unsplit residual is read at each point.
    m = np.array([8e307, 1e-300, 3.0, 0.0, 8e307, 1e-320, 1.0])
    assert exact_layers(m)[1] is not None
    _check_grid(TailCurve(np.arange(m.size, dtype=np.float64), m, math.fsum(m.tolist())))
    # One atom whose mass np.bincount adds in float order: the tail keeps it.
    curve = Law([0.0] * 10, [0.1] * 10).curve
    _check_grid(curve)
    assert curve.probs_le([0.0, 1.0]) == [0.9999999999999999] * 2


def test_a_nan_anywhere_in_a_grid_is_refused():
    curve = Law([0.0, 1.0, 2.0], [0.25, 0.5, 0.25]).curve
    for grid in ([math.nan], [0.0, math.nan, 1.0], np.array([1.0, 2.0, math.nan])):
        for query in (curve.probs_ge, curve.probs_le):
            with pytest.raises(ValueError, match="tail query point must not be NaN"):
                query(grid)


def test_exact_sum_holds_about_two_arrays():
    # Each layer is summed as it is peeled off, the residual updated in
    # place: the peak is about twice the array, whatever the layer count.
    x = np.random.default_rng(5).random(1 << 20) ** 3
    assert len(exact_layers(x)[0]) >= 3
    want = math.fsum(x.tolist())
    tracemalloc.start()
    try:
        got = exact_sum(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 3 * x.nbytes


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
        law = Law(values, probs)
        for lam in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, float(rng.uniform(0.0, 20.0))):
            want = ref.mgf_from_law(values.tolist(), probs.tolist(), lam)
            assert mgf_from_law(law, lam).hex() == want.hex()
            assert mgf_from_law(Law(values.tolist(), probs.tolist()), lam).hex() == want.hex()


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
            mgf_from_law(Law(values, probs), lam)
        return
    assert mgf_from_law(Law(values, probs), lam).hex() == want.hex()


class _ExpSpy:
    """math.exp, counting its calls."""

    def __init__(self) -> None:
        self.calls = 0
        self._exp = math.exp

    def __call__(self, x: float) -> float:
        self.calls += 1
        return self._exp(x)


# Repeated values, both zeros, zero and subnormal masses.
_LAW_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1]), st.floats(-40.0, 40.0))
_LAW_PROBS = st.one_of(
    st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308])
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_LAW_VALUES, _LAW_PROBS), min_size=1, max_size=60))
def test_law_mean_and_mgf_are_the_per_outcome_formulas(atoms):
    values = [v for v, _ in atoms]
    probs = [p for _, p in atoms]
    total = math.fsum(probs)
    if total == 0.0:
        with pytest.raises(ValueError, match="no mass"):
            Law(values, probs)
        return
    law = Law(values, probs)
    assert law.mean == math.fsum(v * p for v, p in atoms) / total
    for lam in DEFAULT_LAMBDA_GRID:
        want = ref.mgf_from_law(values, probs, lam)
        spy = _ExpSpy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(math, "exp", spy)
            got = mgf_from_law(law, lam)
        assert got.hex() == want.hex()
        assert spy.calls == len(set(values))


def test_mgf_runs_exp_once_per_distinct_value(monkeypatch):
    n = 10
    space = FiniteSpace((2,) * n)
    f = Functional.weighted_sum([n**-0.5] * n)
    law = exact_functional_stats(space, Distribution.uniform(space), f)
    spy = _ExpSpy()
    monkeypatch.setattr(math, "exp", spy)
    for lam in DEFAULT_LAMBDA_GRID:
        mgf_from_law(law, lam)
    assert spy.calls == (n + 1) * len(DEFAULT_LAMBDA_GRID)
