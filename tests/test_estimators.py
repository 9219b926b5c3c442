"""Exact enumeration and Monte Carlo estimators against hand-computed laws."""

import hashlib
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import reference_pointwise as ref
from hamconc import estimators as estimators_module
from hamconc._util import exact_layers
from hamconc import space as space_module
from hamconc.estimators import (
    MC_DEFAULT_DELTA,
    MC_DEFAULT_N,
    DistanceToSet,
    Law,
    McEstimate,
    TailCurve,
    exact_functional_stats,
    exact_set_stats,
    hoeffding_half_width,
    _sampled_distances,
    _sampled_values,
    mc_tail,
    mgf_from_law,
)
from hamconc.functionals import Functional
from hamconc.hamming import AlphaWeights, Point, distance_field, normalize
from hamconc.space import Distribution, FiniteSpace, SetSpec, _sample_ranks, sample

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
    assert curve.prob_gt(curve.support[-1]) == 0.0
    assert Law(curve.support, curve.masses).mean == SQRT_HALF
    assert [curve.prob_le(v) for v in curve.support] == [0.25, 0.75, 1.0]
    assert curve.support.tolist() == [0.0, SQRT_HALF, 2.0 * SQRT_HALF]


def test_tail_queries_refuse_nan():
    curve = _s1_curve()
    for query in (curve.prob_ge, curve.prob_gt, curve.prob_le, curve.prob_lt):
        with pytest.raises(ValueError, match="must not be NaN"):
            query(math.nan)
        with pytest.raises(ValueError, match="must not be NaN"):
            query(np.float64("nan"))
    assert curve.prob_ge(-math.inf) == curve.prob_le(math.inf) == 1.0
    assert curve.prob_gt(math.inf) == curve.prob_lt(-math.inf) == 0.0


def test_tail_curve_merges_duplicate_values():
    law = Law([1.0, 0.0, 1.0], [0.2, 0.5, 0.3])
    curve = TailCurve.from_law(law)
    for got, want in ((curve.support, [0.0, 1.0]), (curve.masses, [0.5, 0.5])):
        assert got.dtype == np.float64 and not got.flags.writeable
        assert got.tolist() == want
    assert law.inverse.tolist() == [1, 0, 1]
    assert law.curve.support.tolist() == [0.0, 1.0]


def test_tail_curve_keeps_only_prefix_sums():
    # One (k, layers) table of exact prefix sums; each suffix is the
    # total less a prefix, layer by layer. A second table of suffix sums
    # would hold twice as much after the build and peak a table higher.
    k = 2**16
    masses = np.random.default_rng(0).random(k) ** 3
    support = np.arange(k, dtype=np.float64)
    table = k * len(exact_layers(masses)[0]) * 8
    tracemalloc.start()
    try:
        curve = TailCurve(support, masses, 1.0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1.5 * table
    assert peak < 3.5 * table
    # every tail is still the correctly rounded sum of its masses
    for i in (0, 1, 7, k // 3, k - 2, k - 1):
        assert curve.prob_ge(support[i]) == math.fsum(masses[i:].tolist())
        assert curve.prob_le(support[i]) == math.fsum(masses[: i + 1].tolist())


def test_tail_curve_validation():
    with pytest.raises(ValueError, match="matching nonempty"):
        Law([1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="no mass"):
        Law([1.0], [0.0])


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
    assert mgf_from_law(Law([0.3, 1.7, 2.9], [0.2, 0.5, 0.3]), 0.0) == 1.0


def test_mgf_from_law_two_fair_bits():
    # f = x1 + x2, centered at 1: E exp(V - 1) = 0.5 + 0.5*cosh(1)
    law = exact_functional_stats(SPACE_2, UNIFORM_2, Functional.weighted_sum((1.0, 1.0)))
    assert mgf_from_law(law, 1.0) == 1.2715403174076219
    assert mgf_from_law(law, 0.0) == 1.0


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
    ranks = _sample_ranks(space, dist, seed, n_samples)
    exact = distance_field(alpha, target.mask(space)).ravel()[ranks]
    # 5000 points span several blocks when |A| = 64
    assert _sampled_values(space, q, ranks).tobytes() == exact.tobytes()
    t = float(np.median(exact))
    est = mc_tail(space, dist, q, t, n_samples=n_samples, seed=seed)
    assert est.estimate == np.count_nonzero(exact >= t) / n_samples


@pytest.mark.parametrize(
    "sizes, members, count, law",
    [
        # the head table covers the whole space: all 24 outcomes are drawn
        ((3, 4, 2), 3, 500, "uniform"),
        # k = 1: a second coordinate would give 6000 rows, more than the ranks
        ((3000, 2, 3), 4, 5_000, "product"),
        # size-1 alphabets add rows to no table
        ((1, 2, 1, 3, 1, 2), 2, 300, "product"),
        # 2^12 rows of 64 members take 2 MB: the byte budget stops the head at 2^11
        ((2,) * 16, 64, 30_000, "product"),
        ((2, 3, 4, 2), 5, 2_000, "joint"),
    ],
    ids=["whole-space", "k1", "size-1", "byte-budget", "joint"],
)
def test_head_table_distances_equal_the_distance_field(sizes, members, count, law):
    rng = np.random.default_rng(sum(sizes))
    space = FiniteSpace(sizes)
    if law == "uniform":
        dist = Distribution.uniform(space)
    elif law == "joint":
        dist = Distribution.joint(rng.dirichlet(np.ones(space.size)).tolist())
    else:
        dist = Distribution.product([rng.dirichlet(np.ones(m)).tolist() for m in sizes])
    alpha = normalize(rng.uniform(0.1, 1.0, space.n).tolist())
    target = SetSpec.from_points(
        space.unrank(int(r)) for r in rng.choice(space.size, size=members, replace=False)
    )
    ranks = np.unique(_sample_ranks(space, dist, 2, count))
    exact = distance_field(alpha, target.mask(space)).ravel()[ranks]
    got = _sampled_distances(ranks, target.member_symbols(space), alpha, sizes)
    assert got.tobytes() == exact.tobytes()


def _split_case(kind):
    """(sorted distinct ranks, member symbols, alpha, sizes) for the split tests."""
    sizes, count, law = {
        "binary": ((2,) * 9, 40, "product"),
        "3-1-4-2-3": ((3, 1, 4, 2, 3), 6, "product"),
        "size-1": ((1, 2, 1, 3, 1, 2), 3, "product"),
        "one-member": ((2, 3, 2, 2), 1, "product"),
        "shared-suffix": ((2,) * 8, 12, "product"),
        "joint": ((2, 3, 4, 2), 5, "joint"),
    }[kind]
    rng = np.random.default_rng(len(kind))
    space = FiniteSpace(sizes)
    if law == "joint":
        dist = Distribution.joint(rng.dirichlet(np.ones(space.size)).tolist())
    else:
        dist = Distribution.product([rng.dirichlet(np.ones(m)).tolist() for m in sizes])
    members = np.array([space.unrank(int(r)).symbols for r in rng.choice(space.size, count, False)])
    if kind == "shared-suffix":
        # three suffixes of 3 symbols, four members each
        members[:, 5:] = members[np.arange(count) % 3, 5:]
    alpha = normalize(rng.uniform(0.1, 1.0, space.n).tolist())
    ranks = np.unique(_sample_ranks(space, dist, 4, 3_000))
    return ranks, members, alpha, sizes


_SPLIT_KINDS = ["binary", "3-1-4-2-3", "size-1", "one-member", "shared-suffix", "joint"]


@pytest.mark.parametrize("kind", _SPLIT_KINDS)
@pytest.mark.parametrize("block_bytes", [None, 64])
@pytest.mark.parametrize("workers", [1, 2, 3, 1000])
def test_every_split_equals_the_distance_field(monkeypatch, kind, block_bytes, workers):
    # 64-byte blocks hold one prefix or one rank each, so the workers
    # share out many blocks; 1000 workers outnumber the blocks
    if block_bytes is not None:
        monkeypatch.setattr(estimators_module, "_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(space_module, "_workers", lambda: workers)
    ranks, members, alpha, sizes = _split_case(kind)
    mask = np.zeros(sizes, dtype=bool)
    mask[tuple(members.T)] = True
    want = distance_field(alpha, mask).ravel()[ranks].tobytes()
    assert _sampled_distances(ranks, members, alpha, sizes).tobytes() == want
    for m in range(1, len(sizes) + 1):
        assert _sampled_distances(ranks, members, alpha, sizes, m).tobytes() == want, m


def test_a_split_below_n_is_taken_where_it_is_cheaper(monkeypatch):
    # 64 members of {0,1}^18 and 20000 distinct ranks: the per-member
    # sums over the last coordinates cost more than the passes
    n = 18
    rng = np.random.default_rng(18)
    members = rng.integers(0, 2, (64, n))
    ranks = np.unique(rng.integers(0, 2**n, 30_000))
    alpha = normalize(rng.uniform(0.1, 1.0, n).tolist())
    splits = []
    real = estimators_module._min_plus
    monkeypatch.setattr(
        estimators_module, "_min_plus", lambda d, w: splits.append(len(w)) or real(d, w)
    )
    got = _sampled_distances(ranks, members, alpha, (2,) * n)
    mask = np.zeros((2,) * n, dtype=bool)
    mask[tuple(members.T)] = True
    assert got.tobytes() == distance_field(alpha, mask).ravel()[ranks].tobytes()
    assert splits and 0 < splits[0] < n


def test_past_the_cap_distances_keep_their_bits():
    # (2,)*40 with 64 members: no split below n fits, every rank sums its
    # 64 distances.  The digest is that of the per-member sums before the
    # split was introduced.
    n = 40
    space = FiniteSpace((2,) * n)
    rng = np.random.default_rng(40)
    members = rng.integers(0, 2, (64, n))
    alpha = normalize(rng.uniform(0.1, 1.0, n).tolist())
    ranks = np.unique(_sample_ranks(space, Distribution.product([(0.4, 0.6)] * n), 3, 10**5))
    got = _sampled_distances(ranks, members, alpha, space.alphabet_sizes)
    assert hashlib.sha256(got.tobytes()).hexdigest() == (
        "1515a8164be38aa0a1185445bec93335846c2e6cfa839cf305f15b1c27336283"
    )


def test_sampler_memory_does_not_grow_with_the_workers(monkeypatch):
    # each worker draws only its own samples: at 18 workers the buffers
    # add up to the serial size (they were 18 full-length pairs)
    space = FiniteSpace((2,) * 18)
    dist = Distribution.product([(0.4, 0.6)] * 18)
    peaks = []
    for workers in (1, 18):
        monkeypatch.setattr(space_module, "_workers", lambda: workers)
        tracemalloc.start()
        try:
            _sample_ranks(space, dist, 1, 10**5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2**20


_BITS = FiniteSpace((2,) * 18)
_BITS_LAW = Distribution.product([(0.3, 0.7)] * 18)
_SPREAD = SetSpec.from_points(_BITS.unrank(r) for r in range(0, _BITS.size, 4099))


_GOLDEN = [
    (_BITS, _BITS_LAW, DistanceToSet(normalize([1.0] * 18), _SPREAD), 1.0, 16373),
    (_BITS, _BITS_LAW, Functional.weighted_sum([0.25] * 18), 3.0, 14456),
    (
        FiniteSpace((70, 3, 1)),
        Distribution.product([[1 / 70] * 70, (0.2, 0.5, 0.3), (1.0,)]),
        DistanceToSet(
            normalize([2.0, 1.0, 1.0]),
            SetSpec.from_points((s, s % 3, 0) for s in range(0, 70, 2)),
        ),
        0.6,
        9843,
    ),
    (
        FiniteSpace((2, 3, 4)),
        Distribution.joint([(i % 5 + 1) / 70 for i in range(24)]),
        DistanceToSet(normalize([1.0, 2.0, 3.0]), SetSpec.from_points([(1, 2, 3)])),
        0.6,
        16609,
    ),
]
_GOLDEN_IDS = ["binary-set", "binary-weighted-sum", "70-symbols-set", "joint-set"]


@pytest.mark.parametrize("space, dist, q, t, hits", _GOLDEN, ids=_GOLDEN_IDS)
def test_mc_tail_golden_estimates(space, dist, q, t, hits):
    # Pins the Philox stream and the symbols read from it: a change to
    # either moves these hit counts.
    est = mc_tail(space, dist, q, t, n_samples=20_000, seed=17)
    assert est == McEstimate(hits / 20_000, hoeffding_half_width(20_000, 0.01), 20_000, 17, 0.01)


@pytest.mark.parametrize("workers", [1, 2, 3, "n", "n+2", 8])
def test_mc_tail_golden_estimates_for_any_worker_count(monkeypatch, workers):
    # 8 workers on fewer CPUs and a short switch interval interleave the
    # workers' writes into the shared output as often as they can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for space, dist, q, t, hits in _GOLDEN:
            k = {"n": space.n, "n+2": space.n + 2}.get(workers, workers)
            monkeypatch.setattr(space_module, "_workers", lambda: k)
            est = mc_tail(space, dist, q, t, n_samples=20_000, seed=17)
            assert est.estimate == hits / 20_000
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("t", [math.inf, -math.inf])
def test_mc_tail_accepts_an_infinite_threshold(t):
    q = DistanceToSet(ALPHA_UNIT_2, ORIGIN)
    est = mc_tail(SPACE_2, UNIFORM_2, q, t, n_samples=100, seed=0)
    assert est.estimate == (1.0 if t < 0 else 0.0)


def test_mc_tail_refuses_a_nan_threshold():
    q = DistanceToSet(ALPHA_UNIT_2, ORIGIN)
    with pytest.raises(ValueError, match="NaN"):
        mc_tail(SPACE_2, UNIFORM_2, q, math.nan, n_samples=100, seed=0)


@pytest.mark.parametrize(
    "table, evaluator, where",
    [
        ([0.0, 0.1, math.nan, 0.2], "table", "(1, 0)"),
        ([0.0, math.nan, math.nan, 0.2], "table", "(0, 1)"),
        ([0.0, 0.1, math.nan, 0.2], "callable", "(1, 0)"),
    ],
)
def test_mc_tail_refuses_a_nan_sampled_value(table, evaluator, where):
    f = Functional.from_table(SPACE_2, table)
    if evaluator == "callable":
        f = Functional(evaluator=f.value)
    # the first NaN outcome in rank order is named
    with pytest.raises(ValueError, match=re.escape(f"sampled value is NaN at x={where}")):
        mc_tail(SPACE_2, UNIFORM_2, f, -1.0, n_samples=1_000, seed=0)
    # a NaN outside the sample is not seen
    first_0 = Distribution.product(((1.0, 0.0), (0.5, 0.5)))
    g = Functional.from_table(SPACE_2, [0.0, 0.1, math.nan, math.nan])
    est = mc_tail(SPACE_2, first_0, g, 0.1, n_samples=1_000, seed=0)
    assert 0.0 < est.estimate < 1.0


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n_samples": True}, "n_samples must be an integer"),
        ({"n_samples": 2.5}, "n_samples must be an integer"),
        ({"n_samples": 100.0}, "n_samples must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
    ],
)
def test_mc_tail_refuses_non_integer_counts_and_seeds(kwargs, message):
    q = DistanceToSet(ALPHA_UNIT_2, ORIGIN)
    with pytest.raises(TypeError, match=message):
        mc_tail(SPACE_2, UNIFORM_2, q, 0.5, **{"n_samples": 100, "seed": 0, **kwargs})


_MC_SPACE = FiniteSpace((3, 2, 4, 2))


def _quadratic(point):
    return float(sum((i + 1) * s * s for i, s in enumerate(point.symbols)))


@pytest.mark.parametrize(
    "quantity",
    [
        Functional.from_table(_MC_SPACE, np.random.default_rng(8).normal(size=_MC_SPACE.size)),
        Functional.weighted_sum((0.5, -1.0, 0.25, 2.0)),
        Functional(evaluator=_quadratic),
        DistanceToSet(
            normalize((1.0, 2.0, 0.5, 1.0)), SetSpec.from_points([(0, 0, 0, 0), (2, 1, 3, 0)])
        ),
    ],
    ids=["table", "weighted_sum", "callable", "distance"],
)
def test_mc_tail_equals_the_per_sample_count(quantity):
    rng = np.random.default_rng(9)
    dist = Distribution.product([rng.dirichlet(np.ones(m)) for m in _MC_SPACE.alphabet_sizes])
    n_samples, seed = 3_000, 4
    points = [Point(p) for p in sample(_MC_SPACE, dist, seed, n_samples).tolist()]
    if isinstance(quantity, DistanceToSet):
        vals = [ref.distance_to_set(quantity.alpha, p, quantity.target, _MC_SPACE) for p in points]
    else:
        vals = [quantity.value(p) for p in points]
    for t in sorted(set(vals))[::3]:
        est = mc_tail(_MC_SPACE, dist, quantity, t, n_samples=n_samples, seed=seed)
        assert est.estimate == sum(v >= t for v in vals) / n_samples


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("kind", ["table", "weighted_sum", "callable"])
def test_sampled_functional_values_equal_one_bulk_evaluation(monkeypatch, kind, workers):
    monkeypatch.setattr(space_module, "_workers", lambda: workers)
    caller = threading.current_thread()

    def on_caller(point):
        # user code is not assumed thread-safe: it runs on the calling thread
        assert threading.current_thread() is caller
        return _quadratic(point)

    f = {
        "table": Functional.from_table(_MC_SPACE, np.random.default_rng(8).normal(size=48)),
        "weighted_sum": Functional.weighted_sum((0.5, -1.0, 0.25, 2.0)),
        "callable": Functional(evaluator=on_caller),
    }[kind]
    # 20000 ranks of 4 coordinates fill three blocks of 256 KB
    ranks = np.random.default_rng(1).integers(0, _MC_SPACE.size, 20_000)
    want = f.values(np.unravel_index(ranks, _MC_SPACE.alphabet_sizes))
    assert _sampled_values(_MC_SPACE, f, ranks).tobytes() == want.tobytes()


def test_sampled_functional_memory_is_bounded(monkeypatch):
    # the 20 coordinate arrays of all the distinct outcomes of 10^5
    # samples of (2,)*20 would take about 12 MB
    monkeypatch.setattr(space_module, "_workers", lambda: 2)
    n = 20
    space = FiniteSpace((2,) * n)
    ranks = np.unique(_sample_ranks(space, Distribution.product([(0.4, 0.6)] * n), 1, 10**5))
    f = Functional.weighted_sum([0.25] * n)
    tracemalloc.start()
    try:
        _sampled_values(space, f, ranks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_mc_tail_calls_a_plain_callable_once_per_distinct_outcome():
    calls = []
    f = Functional(evaluator=lambda p: calls.append(p.symbols) or _quadratic(p))
    dist = Distribution.uniform(_MC_SPACE)
    mc_tail(_MC_SPACE, dist, f, 3.0, n_samples=2_000, seed=9)
    distinct = set(map(tuple, sample(_MC_SPACE, dist, 9, 2_000).tolist()))
    assert len(calls) == len(distinct) < 2_000
    assert set(calls) == distinct


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
