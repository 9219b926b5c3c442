"""Finite spaces, distributions, subsets, enumeration, and sampling."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hamconc.hamming import Point
from hamconc.space import (
    DEFAULT_ENUM_CAP,
    ENUM_CAP_ENV,
    RNG_NAME,
    Distribution,
    FiniteSpace,
    SetSpec,
    enumerate_outcomes,
    enumeration_cap,
    law_arrays,
    sample,
)


def test_space_size_and_rank_order():
    space = FiniteSpace((2, 3))
    assert space.n == 2
    assert space.size == 6
    # lexicographic, last coordinate fastest
    expected = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert [p.symbols for p in space.points()] == expected
    for r, syms in enumerate(expected):
        assert space.rank(Point(syms)) == r
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
        space.rank(Point((0, 2)))


@given(st.lists(st.integers(1, 5), min_size=1, max_size=5), st.data())
def test_rank_unrank_roundtrip(sizes, data):
    space = FiniteSpace(tuple(sizes))
    r = data.draw(st.integers(0, space.size - 1))
    assert space.rank(space.unrank(r)) == r


def test_product_distribution_probabilities():
    space = FiniteSpace((2, 2))
    dist = Distribution.product(((0.3, 0.7), (0.9, 0.1)))
    assert dist.kind == "product"
    assert dist.probability(space, Point((0, 0))) == pytest.approx(0.27)
    assert dist.probability(space, Point((1, 1))) == pytest.approx(0.07)
    total = math.fsum(
        dist.probability(space, p) for p in space.points()
    )
    assert total == pytest.approx(1.0, abs=1e-15)


def test_uniform_distribution():
    space = FiniteSpace((2, 3))
    dist = Distribution.uniform(space)
    for p in space.points():
        assert dist.probability(space, p) == pytest.approx(1.0 / 6.0)


def test_joint_distribution_uses_rank_layout():
    space = FiniteSpace((2, 2))
    dist = Distribution.joint((0.1, 0.2, 0.3, 0.4))
    assert dist.probability(space, Point((0, 1))) == 0.2
    assert dist.probability(space, Point((1, 0))) == 0.3


def test_distribution_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        Distribution.product(((0.5, 0.6),))
    with pytest.raises(ValueError, match=">= 0"):
        Distribution.product(((1.5, -0.5),))
    with pytest.raises(ValueError, match="sum to 1"):
        Distribution.joint((0.5, 0.4))
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
    spec = SetSpec.from_points([(1, 0), (0, 0), (1, 0)])
    assert [p.symbols for p in spec.members(space)] == [(0, 0), (1, 0)]
    assert spec.member_ranks(space) == (0, 2)
    assert spec.contains(Point((1, 0)))
    assert not spec.contains(Point((1, 1)))
    assert not spec.is_empty(space)


def test_set_spec_predicate_and_sublevel():
    space = FiniteSpace((2, 2))
    odd = SetSpec.from_predicate(lambda p: (p.symbols[0] + p.symbols[1]) % 2 == 1)
    assert odd.member_ranks(space) == (1, 2)
    sub = SetSpec.sublevel(lambda p: float(sum(p.symbols)), 1.0)
    assert sub.member_ranks(space) == (0, 1, 2)
    empty = SetSpec.from_predicate(lambda p: False)
    assert empty.is_empty(space)


def test_set_spec_member_array_in_rank_order():
    space = FiniteSpace((2, 3))
    spec = SetSpec.from_points(np.array([[1, 2], [0, 1], [1, 2]]))
    assert spec == SetSpec.from_points([(0, 1), (1, 2)])
    assert spec.member_symbols(space).tolist() == [[0, 1], [1, 2]]
    assert spec.member_ranks(space) == (1, 5)
    assert spec.mask(space).ravel().tolist() == [r in (1, 5) for r in range(6)]
    odd = SetSpec.from_predicate(lambda p: sum(p.symbols) % 2 == 1)
    assert odd.member_symbols(space).tolist() == [[0, 1], [1, 0], [1, 2]]
    assert SetSpec.from_predicate(lambda p: False).member_symbols(space).shape == (0, 2)
    assert SetSpec(explicit=()).member_ranks(space) == ()


def test_set_spec_outside_the_space_names_its_first_bad_member():
    spec = SetSpec.from_points([(0, 0), (0, 3), (1, 4)])
    small, large = FiniteSpace((2, 3)), FiniteSpace((2, 5))
    first_bad = r"^point \(0, 3\) is not in this space$"
    with pytest.raises(ValueError, match=first_bad):
        spec.member_ranks(small)
    with pytest.raises(ValueError, match=first_bad):
        spec.mask(small)
    with pytest.raises(ValueError, match=first_bad):
        list(spec.members(small))
    with pytest.raises(ValueError, match=r"^point \(0, 0\) is not in this space$"):
        spec.member_ranks(FiniteSpace((2, 2, 2)))
    assert spec.member_ranks(large) == (0, 3, 9)
    assert [p.symbols for p in spec.members(large)] == [(0, 0), (0, 3), (1, 4)]
    # A check against one space is not reused for another.
    with pytest.raises(ValueError, match=first_bad):
        spec.member_ranks(small)
    huge = SetSpec.from_points([(2**70, 0), (0, 0)])
    with pytest.raises(ValueError, match=r"^point \(1180591620717411303424, 0\) is not"):
        huge.mask(small)


def test_set_spec_takes_exactly_one_form():
    with pytest.raises(ValueError, match="exactly one"):
        SetSpec(explicit=None, predicate=None)
    with pytest.raises(ValueError, match="exactly one"):
        SetSpec(explicit=(Point((0,)),), predicate=lambda p: True)


def test_enumerate_outcomes_masses():
    space = FiniteSpace((2, 2))
    dist = Distribution.product(((0.3, 0.7), (0.9, 0.1)))
    pairs = list(enumerate_outcomes(space, dist))
    assert [p.symbols for p, _ in pairs] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert math.fsum(pr for _, pr in pairs) == pytest.approx(1.0, abs=1e-15)
    assert pairs[0][1] == pytest.approx(0.27)


def test_law_arrays_matches_enumeration():
    space = FiniteSpace((2, 3))
    dist = Distribution.joint((0.05, 0.1, 0.15, 0.2, 0.25, 0.25))
    symbols, probs = law_arrays(space, dist)
    assert symbols.shape == (6, 2)
    for r, (p, pr) in enumerate(enumerate_outcomes(space, dist)):
        assert tuple(int(s) for s in symbols[r]) == p.symbols
        assert probs[r] == pr


def test_enumeration_cap_guards_sweeps():
    space = FiniteSpace((2, 2, 2))
    dist = Distribution.uniform(space)
    with pytest.raises(ValueError, match="enumeration cap"):
        list(enumerate_outcomes(space, dist, cap=7))
    # explicit cap >= size is fine
    assert len(list(enumerate_outcomes(space, dist, cap=8))) == 8


def test_enumeration_cap_env_override(monkeypatch):
    monkeypatch.delenv(ENUM_CAP_ENV, raising=False)
    assert enumeration_cap() == DEFAULT_ENUM_CAP
    monkeypatch.setenv(ENUM_CAP_ENV, "12")
    assert enumeration_cap() == 12
    monkeypatch.setenv(ENUM_CAP_ENV, "0")
    with pytest.raises(ValueError, match=ENUM_CAP_ENV):
        enumeration_cap()
    monkeypatch.setenv(ENUM_CAP_ENV, "many")
    with pytest.raises(ValueError, match=ENUM_CAP_ENV):
        enumeration_cap()


def test_rng_name_is_pinned():
    assert RNG_NAME == "numpy-philox4x64"


def test_sampling_is_deterministic_and_in_range():
    space = FiniteSpace((2, 3))
    dist = Distribution.product(((0.3, 0.7), (0.2, 0.5, 0.3)))
    a = sample(space, dist, seed=11, count=200)
    b = sample(space, dist, seed=11, count=200)
    c = sample(space, dist, seed=12, count=200)
    assert a == b
    assert a != c
    assert all(space.contains(p) for p in a)


def test_joint_sampling_hits_only_supported_outcomes():
    space = FiniteSpace((2, 2))
    dist = Distribution.joint((0.5, 0.0, 0.0, 0.5))
    pts = sample(space, dist, seed=3, count=500)
    assert {p.symbols for p in pts} <= {(0, 0), (1, 1)}
    # law of large numbers sanity at a generous tolerance
    frac = np.mean([p.symbols == (1, 1) for p in pts])
    assert 0.35 < frac < 0.65
