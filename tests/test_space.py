"""Finite spaces, distributions, subsets, enumeration, and sampling."""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_pointwise as ref
from hamconc.estimators import mc_tail
from hamconc.functionals import Functional
from hamconc.hamming import Point
from hamconc import space as space_module
from hamconc.space import (
    _COUNT_MAX_SYMBOLS,
    RNG_NAME,
    Distribution,
    FiniteSpace,
    SetSpec,
    _add_symbols,
    _rng,
    _sample_ranks,
    _split,
    law_arrays,
    sample,
)


def test_space_size_and_rank_order():
    space = FiniteSpace((2, 3))
    assert space.n == 2
    assert space.size == 6
    # lexicographic, last coordinate fastest
    expected = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert [p.symbols for p in ref.points(space)] == expected
    for r, syms in enumerate(expected):
        assert ref.rank(space, Point(syms)) == r
        assert space.unrank(r) == Point(syms)


def test_space_rejects_bad_input():
    with pytest.raises(ValueError, match="at least one"):
        FiniteSpace(())
    with pytest.raises(ValueError, match=">= 1"):
        FiniteSpace((2, 0))
    with pytest.raises(ValueError, match="64-bit"):
        FiniteSpace((2,) * 64)
    space = FiniteSpace((2, 2))
    with pytest.raises(ValueError, match="out of range"):
        space.unrank(4)
    with pytest.raises(ValueError, match="not in this space"):
        SetSpec.from_points([Point((0, 2))]).mask(space)


@given(st.lists(st.integers(1, 5), min_size=1, max_size=5), st.data())
def test_rank_unrank_roundtrip(sizes, data):
    space = FiniteSpace(tuple(sizes))
    r = data.draw(st.integers(0, space.size - 1))
    assert ref.rank(space, space.unrank(r)) == r


def test_product_distribution_probabilities():
    space = FiniteSpace((2, 2))
    dist = Distribution.product(((0.3, 0.7), (0.9, 0.1)))
    assert dist.kind == "product"
    probs = law_arrays(space, dist)[1]
    assert probs[0] == pytest.approx(0.27)
    assert probs[3] == pytest.approx(0.07)
    total = math.fsum(probs)
    assert total == pytest.approx(1.0, abs=1e-15)


def test_uniform_distribution():
    space = FiniteSpace((2, 3))
    dist = Distribution.uniform(space)
    assert law_arrays(space, dist)[1] == pytest.approx([1.0 / 6.0] * 6)


def test_joint_distribution_uses_rank_layout():
    space = FiniteSpace((2, 2))
    dist = Distribution.joint((0.1, 0.2, 0.3, 0.4))
    probs = law_arrays(space, dist)[1].reshape(space.alphabet_sizes)
    assert probs[0, 1] == 0.2
    assert probs[1, 0] == 0.3


def test_distribution_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        Distribution.product(((0.5, 0.6),))
    with pytest.raises(ValueError, match=">= 0"):
        Distribution.product(((1.5, -0.5),))
    with pytest.raises(ValueError, match="sum to 1"):
        Distribution.joint((0.5, 0.4))
    # A joint table given as an array is checked in one pass, with the same
    # messages, before it is summed (fsum refuses inf + -inf), and copied.
    refused = r"^joint table entries must be finite and >= 0, got inf$"
    for table in ((math.inf, -math.inf), np.array([math.inf, -math.inf])):
        with pytest.raises(ValueError, match=refused):
            Distribution.joint(table)
    with pytest.raises(ValueError, match=r"got -0\.5$"):
        Distribution.joint(np.array([1.5, -0.5]))
    for pmf, first in (([0.5, math.nan, -1.0], "nan"), ([-1.0, math.nan, 2.0], "-1.0")):
        with pytest.raises(ValueError, match=f"^pmf 0 entries must be finite and >= 0, got {first}$"):
            Distribution.product([pmf])
    with pytest.raises(ValueError, match="flat"):
        Distribution.joint(np.full((2, 2), 0.25))
    table = np.array([0.25, 0.75])
    dist = Distribution.joint(table)
    table[0] = 0.5
    assert dist == Distribution.joint((0.25, 0.75)) and dist.joint_table.tolist() == [0.25, 0.75]
    assert table.flags.writeable and not dist.joint_table.flags.writeable
    with pytest.raises(ValueError, match="kind"):
        Distribution(kind="other")
    space = FiniteSpace((2, 2))
    with pytest.raises(ValueError, match="pmfs"):
        Distribution.product(((0.5, 0.5),)).require_matches(space)
    with pytest.raises(ValueError, match="alphabet size"):
        Distribution.product(((0.5, 0.5), (0.2, 0.3, 0.5))).require_matches(space)
    with pytest.raises(ValueError, match="outcomes"):
        Distribution.joint((0.5, 0.5)).require_matches(space)


def test_set_spec_explicit_members_dedupe_and_order():
    space = FiniteSpace((2, 2))
    spec = SetSpec.from_points([(1, 0), Point((0, 0)), (1, 0)])
    assert spec.symbols.tolist() == [[0, 0], [1, 0]]
    assert not spec.symbols.flags.writeable
    assert spec.member_symbols(space).tolist() == [[0, 0], [1, 0]]
    assert [p.symbols for p in spec.explicit] == [(0, 0), (1, 0)]
    assert np.flatnonzero(spec.mask(space)).tolist() == [0, 2]


def test_set_spec_member_array_in_rank_order():
    space = FiniteSpace((2, 3))
    spec = SetSpec.from_points(np.array([[1, 2], [0, 1], [1, 2]]))
    assert spec == SetSpec.from_points([(0, 1), (1, 2)])
    assert hash(spec) == hash(SetSpec.from_points([(0, 1), (1, 2)]))
    assert spec != SetSpec.from_points([(0, 1)])
    assert spec.member_symbols(space).tolist() == [[0, 1], [1, 2]]
    assert spec.mask(space).ravel().tolist() == [r in (1, 5) for r in range(6)]
    empty = SetSpec.from_points(())
    assert empty.member_symbols(space).shape == (0, 2)
    assert not empty.mask(space).any()


def test_set_spec_rejects_negative_and_ragged_members():
    with pytest.raises(ValueError, match=r"^symbols are nonnegative indices, got -1$"):
        SetSpec.from_points([(0, 0), (1, -1)])
    with pytest.raises(ValueError, match="share one dimension"):
        SetSpec.from_points([(0, 0), (1,)])


@pytest.mark.parametrize(
    "make, bad",
    [
        (lambda: SetSpec.from_points([(0.7, 1), (1, 1.9)]), "0.7"),
        (lambda: SetSpec(np.array([[0.5, 1.0]])), "0.5"),
        (lambda: SetSpec([[True, 0]]), "True"),
        (lambda: SetSpec(np.array([[1, 0], [0, 0]], dtype=bool)), "True"),
        (lambda: SetSpec.from_points([(0, 1), (1, "1")]), "'1'"),
        (lambda: Point((0.7, 1)), "0.7"),
        (lambda: Point((1, np.float64(2.0))), "2.0"),
        (lambda: Point((np.bool_(False), 1)), "False"),
        (lambda: Point((0, 1)).insert(1, 0.5), "0.5"),
    ],
)
def test_non_integer_and_bool_symbols_are_refused(make, bad):
    # int() would truncate each of these to a symbol the caller never gave
    with pytest.raises(ValueError, match=f"^symbols are integer indices, got .*{bad}"):
        make()
    # every integer type is a symbol, and an int64 member array is taken as it is
    assert Point((np.int64(1), np.uint8(0), 2)).symbols == (1, 0, 2)
    assert SetSpec(np.array([[1, 0]], dtype=np.int32)) == SetSpec([[1, 0]])
    assert SetSpec.from_points([(np.int64(1), 0)]).symbols.tolist() == [[1, 0]]


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: FiniteSpace((2.7, 2)), "an alphabet size must be an integer, got 2.7"),
        (lambda: FiniteSpace((True, 3)), "an alphabet size must be an integer, got True"),
        (
            lambda: FiniteSpace((2, np.float64(2.0))),
            r"an alphabet size must be an integer, got .*2\.0",
        ),
        (lambda: FiniteSpace(("2", 2)), "an alphabet size must be an integer, got '2'"),
        (lambda: FiniteSpace((2, 2)).unrank(True), "rank must be an integer, got True"),
        (lambda: FiniteSpace((2, 2)).unrank(1.0), "rank must be an integer, got 1.0"),
    ],
)
def test_non_integer_and_bool_sizes_and_ranks_are_refused(make, message):
    # int() would truncate each of these to a size or rank the caller never gave
    with pytest.raises(ValueError, match=f"^{message}"):
        make()
    # numpy integers are sizes and ranks, held as int
    space = FiniteSpace((np.int64(2), np.uint8(3)))
    assert space.alphabet_sizes == (2, 3)
    assert set(map(type, space.alphabet_sizes)) == {int}
    assert space.unrank(np.int64(5)).symbols == (1, 2)


def test_set_spec_array_and_list_inputs_give_identical_symbols():
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 3, (200, 6))
    rows = np.concatenate([rows, rows[::7], rows[:1]])[rng.permutation(230)]
    from_array = SetSpec(rows)
    from_list = SetSpec(rows.tolist())
    from_points = SetSpec.from_points(Point(tuple(r)) for r in rows.tolist())
    expected = sorted(set(map(tuple, rows.tolist())))
    for spec in (from_array, from_list, from_points):
        assert spec.symbols.dtype == np.int64
        assert spec.symbols.tobytes() == np.array(expected, dtype=np.int64).tobytes()
        assert spec.symbols.shape == (len(expected), 6)
        assert not spec.symbols.flags.writeable
        assert spec == from_array
        assert hash(spec) == hash(from_array)
    # The caller's array is neither reordered nor frozen.
    assert rows.flags.writeable
    assert from_array.symbols is not rows
    with pytest.raises(ValueError, match=r"^symbols are nonnegative indices, got -2$"):
        SetSpec(np.array([[3, 1], [0, -2], [1, -5]]))
    with pytest.raises(ValueError, match="share one dimension"):
        SetSpec([np.array([0, 0]), np.array([1, 0, 1])])
    huge = SetSpec([[2**70, 0], [0, 0], [2**70, 0]])
    assert huge.symbols.tolist() == [[0, 0], [2**70, 0]]
    with pytest.raises(ValueError, match=r"^point \(1180591620717411303424, 0\) is not"):
        huge.member_symbols(FiniteSpace((2, 2)))


@pytest.mark.parametrize("order", ["canonical", "unsorted", "duplicated", "object"])
def test_set_spec_skips_the_sort_only_for_canonical_rows_and_keeps_the_callers_array(order):
    # Rows already strictly increasing (as a report writes them) are copied,
    # not sorted again; any other rows are sorted and deduplicated.
    rng = np.random.default_rng(7)
    ranks = np.sort(rng.choice(3**6, size=300, replace=False))
    canonical = np.stack(np.unravel_index(ranks, (3,) * 6), axis=1).astype(np.int64)
    rows = {
        "canonical": canonical,
        "unsorted": canonical[rng.permutation(300)],
        "duplicated": np.concatenate([canonical[:10], canonical[9:]]),
        "object": canonical.astype(object),
    }[order]
    before, expected = rows.copy(), canonical.tobytes()
    spec = SetSpec(rows)
    assert spec.symbols.dtype == np.int64
    assert spec.symbols.tobytes() == expected
    assert not spec.symbols.flags.writeable
    # The caller's array is neither aliased, frozen nor reordered.
    assert not np.shares_memory(spec.symbols, rows)
    assert rows.flags.writeable
    assert np.array_equal(rows, before)
    rows[0, 0] = 2
    assert spec.symbols.tobytes() == expected
    assert spec == SetSpec(before.tolist())


def test_set_spec_outside_the_space_names_its_first_bad_member():
    spec = SetSpec.from_points([(0, 0), (0, 3), (1, 4)])
    small, large = FiniteSpace((2, 3)), FiniteSpace((2, 5))
    first_bad = r"^point \(0, 3\) is not in this space$"
    with pytest.raises(ValueError, match=first_bad):
        spec.member_symbols(small)
    with pytest.raises(ValueError, match=first_bad):
        spec.mask(small)
    with pytest.raises(ValueError, match=r"^point \(0, 0\) is not in this space$"):
        spec.mask(FiniteSpace((2, 2, 2)))
    assert np.flatnonzero(spec.mask(large)).tolist() == [0, 3, 9]
    assert spec.member_symbols(large).tolist() == [[0, 0], [0, 3], [1, 4]]
    # A check against one space is not reused for another.
    with pytest.raises(ValueError, match=first_bad):
        spec.mask(small)
    huge = SetSpec.from_points([(2**70, 0), (0, 0)])
    with pytest.raises(ValueError, match=r"^point \(1180591620717411303424, 0\) is not"):
        huge.mask(small)


def test_law_arrays_masses():
    space = FiniteSpace((2, 2))
    dist = Distribution.product(((0.3, 0.7), (0.9, 0.1)))
    coords, probs = law_arrays(space, dist)
    assert [c.shape for c in coords] == [(2, 1), (1, 2)]
    points = list(zip(*(c.ravel().tolist() for c in np.broadcast_arrays(*coords))))
    assert points == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-15)
    assert probs[0] == pytest.approx(0.27)


def test_law_arrays_matches_enumeration():
    space = FiniteSpace((2, 3))
    dist = Distribution.joint((0.05, 0.1, 0.15, 0.2, 0.25, 0.25))
    coords, probs = law_arrays(space, dist)
    assert [c.shape for c in coords] == [(2, 1), (1, 3)]
    assert probs.shape == (6,)
    grid = np.broadcast_arrays(*coords)
    for r, p in enumerate(ref.points(space)):
        assert tuple(int(c[p.symbols]) for c in grid) == p.symbols
        assert probs[r] == ref.probability(space, dist, p)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_law_arrays_agree_with_pointwise_definitions(data):
    sizes = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    space = FiniteSpace(sizes)

    def reals(k, lo, hi):
        return data.draw(st.lists(st.floats(lo, hi), min_size=k, max_size=k))

    def pmf(k):
        w = np.array(reals(k, 0.01, 1.0))
        return tuple((w / w.sum()).tolist())

    if data.draw(st.booleans()):
        dist = Distribution.product(tuple(pmf(k) for k in sizes))
    else:
        dist = Distribution.joint(pmf(space.size))
    coords, probs = law_arrays(space, dist)
    assert probs.tolist() == [ref.probability(space, dist, p) for p in ref.points(space)]
    for f in (
        Functional.from_table(space, reals(space.size, -5.0, 5.0)),
        Functional.weighted_sum(reals(space.n, -5.0, 5.0)),
    ):
        assert f.values(coords).ravel().tolist() == [f.value(p) for p in ref.points(space)]


def test_law_arrays_memory_is_bounded():
    # The uniform law on {0,1}^20: an (S, n) int64 matrix of symbols
    # alone would take 160 MB; the probabilities take 8 MB.
    space = FiniteSpace((2,) * 20)
    tracemalloc.start()
    try:
        law_arrays(space, Distribution.uniform(space))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_a_joint_law_converts_its_table_once():
    space = FiniteSpace((2,) * 10 + (3,))
    table = np.random.default_rng(20).uniform(0.1, 1.0, space.size)
    dist = Distribution.joint((table / table.sum()).tolist())
    probs = law_arrays(space, dist)[1]
    assert probs is dist.joint_table and not probs.flags.writeable
    assert law_arrays(space, dist)[1] is probs
    same = Distribution.joint(dist.joint_table)
    assert same == dist and hash(same) == hash(dist)
    assert repr(Distribution.joint((0.25, 0.75))) == (
        "Distribution(kind='joint', pmfs=None, joint_table=array([0.25, 0.75]))"
    )
    # The estimate the sampler gave before the table was kept as an array.
    f = Functional.weighted_sum([0.3] * 10 + [0.5])
    est = mc_tail(space, dist, f, 2.0, n_samples=50_000, seed=9)
    assert est.estimate == float.fromhex("0x1.15ef1fddebd90p-1")


def test_a_joint_law_holds_its_table_once():
    table = np.random.default_rng(30).uniform(0.1, 1.0, 2**20)
    table /= table.sum()
    tracemalloc.start()
    try:
        dist = Distribution.joint(table)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dist.joint_table.nbytes == table.nbytes
    assert held <= 1.25 * table.nbytes


def test_laws_with_equal_values_are_equal_however_given():
    pmfs = [[0.25, 0.75], [0.5, 0.0, 0.5]]
    products = [
        Distribution.product(pmfs),
        Distribution.product(tuple(map(tuple, pmfs))),
        Distribution.product([np.array(p) for p in pmfs]),
        Distribution.product([[0.25, 0.75], [0.5, -0.0, 0.5]]),
    ]
    joints = [Distribution.joint(t) for t in ([0.25, 0.75], (0.25, 0.75), np.array([0.25, 0.75]))]
    for same in (products, joints):
        assert all(d == same[0] and hash(d) == hash(same[0]) for d in same)
    distinct = [
        products[0],
        joints[0],
        Distribution.product([[0.25, 0.75]]),
        Distribution.product([[0.75, 0.25], [0.5, 0.0, 0.5]]),
        Distribution.product(pmfs + [[1.0]]),
    ]
    assert all(d != e for i, d in enumerate(distinct) for e in distinct[i + 1 :])
    assert products[0] != pmfs
    for dist in products[:1] + joints[:1]:
        arrays = dist.pmfs or (dist.joint_table,)
        assert all(
            type(a) is np.ndarray and a.dtype == np.float64 and a.ndim == 1 and not a.flags.writeable
            for a in arrays
        )


def test_a_law_neither_aliases_nor_freezes_the_callers_array():
    pmf, table = np.array([0.25, 0.75]), np.array([0.1, 0.2, 0.3, 0.4])
    product, joint = Distribution.product([pmf]), Distribution.joint(table)
    for caller, held in ((pmf, product.pmfs[0]), (table, joint.joint_table)):
        assert not np.shares_memory(caller, held) and not held.flags.writeable
        assert caller.flags.writeable
        caller[0] = 0.5
    assert product == Distribution.product([[0.25, 0.75]])
    assert joint == Distribution.joint([0.1, 0.2, 0.3, 0.4])


def test_enumeration_cap_guards_sweeps():
    space = FiniteSpace((2, 2, 2))
    dist = Distribution.uniform(space)
    with pytest.raises(ValueError, match="enumeration cap"):
        law_arrays(space, dist, cap=7)
    # explicit cap >= size is fine
    assert law_arrays(space, dist, cap=8)[1].size == 8


def test_rng_name_is_pinned():
    assert RNG_NAME == "numpy-philox4x64"


def test_sampling_is_deterministic_and_in_range():
    space = FiniteSpace((2, 3))
    dist = Distribution.product(((0.3, 0.7), (0.2, 0.5, 0.3)))
    a = sample(space, dist, seed=11, count=200)
    b = sample(space, dist, seed=11, count=200)
    c = sample(space, dist, seed=12, count=200)
    assert a.shape == (200, 2) and a.dtype == np.int64
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert ((a >= 0) & (a < space.alphabet_sizes)).all()


def test_joint_sampling_hits_only_supported_outcomes():
    space = FiniteSpace((2, 2))
    dist = Distribution.joint((0.5, 0.0, 0.0, 0.5))
    pts = sample(space, dist, seed=3, count=500)
    assert set(map(tuple, pts.tolist())) <= {(0, 0), (1, 1)}
    # law of large numbers sanity at a generous tolerance
    frac = np.mean((pts == (1, 1)).all(axis=1))
    assert 0.35 < frac < 0.65


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"seed": True}, "seed must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"count": True}, "count must be an integer"),
        ({"count": 2.5}, "count must be an integer"),
    ],
)
def test_sample_refuses_non_integer_seeds_and_counts(kwargs, message):
    space = FiniteSpace((2, 2))
    dist = Distribution.uniform(space)
    with pytest.raises(TypeError, match=message):
        sample(space, dist, **{"seed": 0, "count": 10, **kwargs})
    # numpy integers are integers
    same = sample(space, dist, np.int64(4), np.int64(10))
    assert np.array_equal(same, sample(space, dist, 4, 10))


def _reference_ranks(space, dist, seed, count):
    """Ranks drawn as the sampler once did: searchsorted and a clamp per coordinate."""
    rng = np.random.Generator(np.random.Philox(seed))
    if dist.kind == "product":
        cols = []
        for pmf in dist.pmfs:
            cum = np.cumsum(np.asarray(pmf, dtype=np.float64))
            idx = np.searchsorted(cum, rng.random(count), side="right")
            cols.append(np.minimum(idx, len(pmf) - 1))
        return np.ravel_multi_index(cols, space.alphabet_sizes)
    cum = np.cumsum(np.asarray(dist.joint_table, dtype=np.float64))
    idx = np.searchsorted(cum, rng.random(count), side="right")
    return np.minimum(idx, space.size - 1)


_BIG = _COUNT_MAX_SYMBOLS + 1


@pytest.mark.parametrize(
    "sizes, dist",
    [
        ((3, 2), Distribution.product(((0.5, 0.0, 0.5), (0.0, 1.0)))),
        ((10, 10), Distribution.product([(0.1,) * 10] * 2)),
        ((1, 2, 1), Distribution.product(((1.0,), (0.3, 0.7), (1.0,)))),
        (
            (_COUNT_MAX_SYMBOLS, _BIG),
            Distribution.product(
                [(1.0 / _COUNT_MAX_SYMBOLS,) * _COUNT_MAX_SYMBOLS, (1.0 / _BIG,) * _BIG]
            ),
        ),
        ((2, 3), Distribution.joint((0.1, 0.0, 0.2, 0.3, 0.0, 0.4))),
    ],
)
def test_sampled_ranks_equal_searchsorted_on_the_same_stream(sizes, dist):
    space = FiniteSpace(sizes)
    ranks = _sample_ranks(space, dist, 5, 20_000)
    assert ranks.dtype == np.int64
    assert np.array_equal(ranks, _reference_ranks(space, dist, 5, 20_000))
    points = sample(space, dist, 6, 300)
    assert [ref.rank(space, Point(p)) for p in points.tolist()] == (
        _reference_ranks(space, dist, 6, 300).tolist()
    )


@pytest.mark.parametrize("word_type", [int, np.int64])
def test_a_positioned_generator_reads_the_stream_from_its_word(word_type):
    stream = np.random.Philox(9).random_raw(24)
    doubles = np.random.Generator(np.random.Philox(9)).random(24)
    for word in range(10):
        at = word_type(word)
        assert np.array_equal(_rng(9, at).bit_generator.random_raw(8), stream[word : word + 8])
        assert np.array_equal(_rng(9, at).random(8), doubles[word : word + 8])


_SPLIT_LAWS = [
    ((2,) * 7, Distribution.product([(0.3, 0.7)] * 7)),
    (
        (1, 3, 1, 2, 1),
        Distribution.product(((1.0,), (0.2, 0.0, 0.8), (1.0,), (0.6, 0.4), (1.0,))),
    ),
    (
        # alphabets past and at _COUNT_MAX_SYMBOLS
        (_BIG, 2, _COUNT_MAX_SYMBOLS, 3),
        Distribution.product(
            [
                (1 / _BIG,) * _BIG,
                (0.5, 0.5),
                (1 / _COUNT_MAX_SYMBOLS,) * _COUNT_MAX_SYMBOLS,
                (0.1, 0.3, 0.6),
            ]
        ),
    ),
    ((3,), Distribution.product([(0.2, 0.3, 0.5)])),
    ((2, 3, 2), Distribution.joint([(i % 4 + 1) / 30 for i in range(12)])),
]


@pytest.mark.parametrize("workers", [1, 2, 3, "n", "n+2"])
@pytest.mark.parametrize(
    "sizes, dist", _SPLIT_LAWS, ids=["bits", "size-1", "large", "one-axis", "joint"]
)
def test_sampled_ranks_are_the_same_for_any_worker_count(monkeypatch, sizes, dist, workers):
    space = FiniteSpace(sizes)
    k = {"n": space.n, "n+2": space.n + 2}.get(workers, workers)
    monkeypatch.setattr(space_module, "_workers", lambda: k)
    # counts that are not multiples of 4 start coordinates mid-block
    for count in (1, 3, 6, 4_097):
        ranks = _sample_ranks(space, dist, 5, count)
        assert ranks.dtype == np.int64
        assert np.array_equal(ranks, _reference_ranks(space, dist, 5, count))
    points = sample(space, dist, 6, 301)
    assert [ref.rank(space, Point(p)) for p in points.tolist()] == (
        _reference_ranks(space, dist, 6, 301).tolist()
    )


@pytest.mark.parametrize("workers, total", [(1, 5), (3, 10), (4, 2), (3, 0)])
def test_split_covers_the_range_in_order_with_one_thread_per_part(monkeypatch, workers, total):
    monkeypatch.setattr(space_module, "_workers", lambda: workers)
    before = threading.active_count()
    parts = _split(lambda lo, hi: (lo, hi, threading.current_thread()), total)
    assert threading.active_count() == before
    assert len(parts) == max(1, min(workers, total))
    assert [p[0] for p in parts[1:]] == [p[1] for p in parts[:-1]]
    assert (parts[0][0], parts[-1][1]) == (0, total)
    assert max(hi - lo for lo, hi, _ in parts) - min(hi - lo for lo, hi, _ in parts) <= 1
    assert parts[0][2] is threading.current_thread()
    assert len({id(p[2]) for p in parts}) == len(parts)


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_split_raises_a_part_s_exception_unchanged(monkeypatch, failing):
    monkeypatch.setattr(space_module, "_workers", lambda: 3)
    errors = [KeyError(j) for j in range(3)]
    done = []

    def work(lo, hi):
        if lo >= failing:
            raise errors[lo]
        done.append(lo)

    before = threading.active_count()
    with pytest.raises(KeyError) as info:
        _split(work, 3)
    # the first failing part's own exception, once every part has ended
    assert info.value is errors[failing]
    assert sorted(done) == list(range(failing))
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "pmf",
    [
        (0.5, 0.0, 0.5),
        (0.1,) * 10,  # its cumsum ends at 0.9999999999999999
        (1.0,),
        (0.0, 0.25, 0.0, 0.0, 0.75, 0.0),
        (1.0 / _COUNT_MAX_SYMBOLS,) * _COUNT_MAX_SYMBOLS,
        (1.0 / _BIG,) * _BIG,
    ],
)
def test_symbol_index_is_the_clamped_searchsorted_at_every_cut(pmf):
    cum = np.cumsum(np.asarray(pmf, dtype=np.float64))
    # each cut point, its float neighbours, and both ends of [0, 1)
    u = np.concatenate(
        [cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0), [0.0, np.nextafter(1.0, 0.0)]]
    )
    u = u[(0.0 <= u) & (u < 1.0)]
    want = np.minimum(np.searchsorted(cum, u, side="right"), len(pmf) - 1)
    ranks = np.full(u.size, 7, dtype=np.int64)
    _add_symbols(ranks, cum, u)
    assert np.array_equal(ranks - 7, want)
