"""Every whole-space pass along an axis against numpy's own reductions.

``hamming._reduce_lines`` reads axis i of a table as the middle of a
(prefix, |A_i|, rest) view, one whole-row pass per symbol.  The spreads,
the drop gaps, the self-bounding sum, both witnesses and the min-plus
passes of ``distance_field`` all reduce through it; each is held here to
the short-axis form in ``reference_axis``, byte for byte, on tables with
a NaN and with ties of -0.0 and 0.0.
"""

import numpy as np
import pytest

import reference_axis as ref
from hamconc.functionals import (
    CERT_TOL,
    Functional,
    check_drop_condition,
    check_lipschitz,
    check_self_bounding,
)
from hamconc.hamming import AlphaWeights, _reduce_lines, distance_field, normalize
from hamconc.space import FiniteSpace

SHAPES = [(2,) * k for k in range(1, 8)] + [
    (3, 1, 4, 2, 3),
    (1,),
    (1, 1),
    (4, 1, 1),
    (1, 3, 1, 1, 2),
    (1, 2, 1, 3, 1),
    (12, 3),
    (2, 17, 2),
]


def _tables(shape: tuple[int, ...], seed: int) -> dict[str, np.ndarray]:
    """A normal table, the same with one NaN, one of 0.0, -0.0 and +-0.5 (so
    lines tie on both zeros), and one small enough for unit gaps."""
    rng = np.random.default_rng(seed)
    normal = rng.normal(size=shape) * 2.0
    nan = normal.copy()
    nan.flat[rng.integers(nan.size)] = np.nan
    zeros = rng.choice([0.0, -0.0, 0.0, -0.0, 0.5, -0.5], size=shape)
    return {"normal": normal, "nan": nan, "zeros": zeros, "small": rng.uniform(0.0, 0.4, shape)}


def _cases():
    for s, shape in enumerate(SHAPES):
        for name, t in _tables(shape, s).items():
            yield shape, name, t


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def _functional(t: np.ndarray, **kw) -> Functional:
    return Functional.from_table(FiniteSpace(t.shape), t.ravel().tolist(), **kw)


def test_the_line_kernel_is_numpys_reduction_along_the_axis():
    for shape, name, t in _cases():
        for i in range(t.ndim):
            for op, want in ((np.minimum, t.min(i)), (np.maximum, t.max(i))):
                got = _reduce_lines(op, t, i)
                assert got.size == want.size and _bits(got) == _bits(want), (shape, name, i)


def test_on_a_long_contiguous_line_only_the_sign_of_a_zero_may_differ():
    # numpy vectorizes a reduction along a contiguous line of 9 or more
    # symbols and may return the other zero of a tie; the kernel keeps the
    # strided order.  Reports write both zeros as 0.
    rng = np.random.default_rng(0)
    for length in (9, 17, 40):
        t = rng.choice([0.0, -0.0, 1.0], size=(50, length))
        for op, want in ((np.minimum, t.min(1)), (np.maximum, t.max(1))):
            assert np.array_equal(_reduce_lines(op, t, 1).ravel(), want)


def test_spreads_and_gaps_match_the_short_axis_forms():
    for shape, name, t in _cases():
        table = _functional(t).evaluator
        assert _bits(table.spreads) == _bits(ref.spreads(t)), (shape, name)
        for i in range(t.ndim):
            assert _bits(table.gaps(i)) == _bits(ref.gaps(t, i)), (shape, name, i)


def test_the_drop_witness_matches_the_short_axis_form():
    for shape, name, t in _cases():
        rng = np.random.default_rng(len(shape))
        weights = rng.uniform(0.0, 1.0, t.ndim)
        weights[0] = 0.0
        for alpha in (AlphaWeights(tuple(weights)), AlphaWeights((1.0,) * t.ndim)):
            cert = check_drop_condition(_functional(t), alpha, FiniteSpace(shape))
            want = ref.gap_witness(t, np.asarray(alpha.weights) + CERT_TOL)
            assert cert.witness == want, (shape, name, alpha)


@pytest.mark.parametrize("params", [(1.0, 0.0), (0.5, 0.25), (3.0, 1.0)])
def test_the_self_bounding_sum_and_witness_match_the_short_axis_form(params):
    for shape, name, t in _cases():
        cert = check_self_bounding(_functional(t, self_bounding_params=params), FiniteSpace(shape))
        total = ref.self_bounding_sum(t, *params)
        assert _bits(cert.worst_slack) == _bits(np.max(total)), (shape, name)
        want = ref.gap_witness(t, np.full(t.ndim, 1.0 + CERT_TOL))
        if want is None:
            want = ref.first_flagged(~(total <= CERT_TOL))
        assert cert.witness == want, (shape, name)


def test_the_lipschitz_witness_matches_the_short_axis_form():
    found = 0
    for shape, name, t in _cases():
        rng = np.random.default_rng(t.size)
        alpha = normalize(rng.uniform(0.1, 1.0, t.ndim))
        cert = check_lipschitz(_functional(t), alpha, FiniteSpace(shape))
        if cert.holds:
            continue
        x, y = cert.witness
        (i,) = [j for j, (a, b) in enumerate(zip(x.symbols, y.symbols)) if a != b]
        assert (x, y) == ref.lipschitz_witness(t, i, alpha.weights[i]), (shape, name)
        found += 1
    assert found > 2 * len(SHAPES)


def test_distance_field_matches_the_short_axis_min_plus():
    rng = np.random.default_rng(5)
    for shape in SHAPES:
        weights = rng.uniform(0.0, 1.0, len(shape))
        weights[-1] = 0.0
        for alpha in (AlphaWeights(tuple(weights)), normalize(rng.uniform(0.1, 1.0, len(shape)))):
            for density in (0.0, 0.1, 0.6):
                mask = rng.random(shape) < density
                mask.flat[rng.integers(mask.size)] = True
                want = ref.distance_field(alpha, mask)
                assert _bits(distance_field(alpha, mask)) == _bits(want), (shape, density)
