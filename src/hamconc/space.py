"""Finite product spaces, distributions on them, and subsets.

Outcomes are indexed in lexicographic order of their symbol tuples,
which coincides with mixed-radix ranking where the last coordinate
varies fastest:

    rank(x) = ((x_1 * s_2 + x_2) * s_3 + x_3) ...

Every exact computation in :mod:`hamconc.estimators` enumerates in this
order, and joint probability tables are laid out in it.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .hamming import Point

__all__ = [
    "DEFAULT_ENUM_CAP",
    "ENUM_CAP_ENV",
    "RNG_NAME",
    "FiniteSpace",
    "Distribution",
    "SetSpec",
    "enumeration_cap",
    "law_arrays",
    "sample",
]

DEFAULT_ENUM_CAP = 10**7
# Environment override for the default enumeration cap (a positive int).
ENUM_CAP_ENV = "HAMCONC_ENUM_CAP"

# Counter-based generator used for all sampling; recorded in reports so a
# reader of a report knows how to reproduce the stream from the seed.
RNG_NAME = "numpy-philox4x64"

_MAX_SIZE = 2**63 - 1  # outcome counts must fit a 64-bit signed int
_PMF_SUM_ATOL = 1e-12


def enumeration_cap() -> int:
    """Default cap on exhaustive enumeration; overridable via env var."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise ValueError(f"{ENUM_CAP_ENV} must be positive, got {cap}")
    return cap


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class FiniteSpace:
    """Product of finite alphabets; coordinate i has ``alphabet_sizes[i]`` symbols."""

    alphabet_sizes: tuple[int, ...]
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.alphabet_sizes)
        if not sizes:
            raise ValueError("a product space needs at least one coordinate")
        for s in sizes:
            if s < 1:
                raise ValueError(f"alphabet sizes must be >= 1, got {s}")
        total = 1
        for s in sizes:
            total *= s
            if total > _MAX_SIZE:
                raise ValueError("outcome count exceeds 64-bit range")
        object.__setattr__(self, "alphabet_sizes", sizes)
        object.__setattr__(self, "size", total)

    @property
    def n(self) -> int:
        return len(self.alphabet_sizes)

    def contains(self, point: Point) -> bool:
        if point.n != self.n:
            return False
        return all(0 <= s < m for s, m in zip(point.symbols, self.alphabet_sizes))

    def require_point(self, point: Point) -> None:
        if not self.contains(point):
            raise ValueError(f"point {point.symbols} is not in this space")

    def rank(self, point: Point) -> int:
        """Lexicographic index of ``point``, last coordinate fastest."""
        self.require_point(point)
        r = 0
        for s, m in zip(point.symbols, self.alphabet_sizes):
            r = r * m + s
        return r

    def unrank(self, rank: int) -> Point:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0, {self.size})")
        syms = [0] * self.n
        for i in range(self.n - 1, -1, -1):
            m = self.alphabet_sizes[i]
            rank, syms[i] = divmod(rank, m)
        return Point(tuple(syms))

    def points(self) -> Iterator[Point]:
        """All points in rank (lexicographic) order."""
        for syms in itertools.product(*(range(m) for m in self.alphabet_sizes)):
            yield Point(syms)


def _check_pmf(pmf: tuple[float, ...], what: str) -> None:
    for p in pmf:
        if not math.isfinite(p) or p < 0.0:
            raise ValueError(f"{what} entries must be finite and >= 0, got {p!r}")
    total = math.fsum(pmf)
    if abs(total - 1.0) > _PMF_SUM_ATOL:
        raise ValueError(f"{what} must sum to 1 within {_PMF_SUM_ATOL}, got {total!r}")


@dataclass(frozen=True)
class Distribution:
    """A law on a finite product space.

    Two kinds:

    * ``product``: one pmf per coordinate; coordinates are independent.
    * ``joint``: a full probability table indexed by outcome rank, which
      can encode arbitrary dependence.
    """

    kind: str
    pmfs: tuple[tuple[float, ...], ...] | None = None
    joint_table: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "product":
            if self.pmfs is None or self.joint_table is not None:
                raise ValueError("product distribution takes pmfs only")
            pmfs = tuple(tuple(float(p) for p in pmf) for pmf in self.pmfs)
            if not pmfs:
                raise ValueError("product distribution needs at least one pmf")
            for i, pmf in enumerate(pmfs):
                if not pmf:
                    raise ValueError(f"pmf {i} is empty")
                _check_pmf(pmf, f"pmf {i}")
            object.__setattr__(self, "pmfs", pmfs)
        elif self.kind == "joint":
            if self.joint_table is None or self.pmfs is not None:
                raise ValueError("joint distribution takes joint_table only")
            table = tuple(float(p) for p in self.joint_table)
            if not table:
                raise ValueError("joint table is empty")
            _check_pmf(table, "joint table")
            object.__setattr__(self, "joint_table", table)
        else:
            raise ValueError(f"distribution kind must be product or joint, got {self.kind!r}")

    @classmethod
    def product(cls, pmfs: Iterable[Iterable[float]]) -> "Distribution":
        return cls(kind="product", pmfs=tuple(tuple(p) for p in pmfs))

    @classmethod
    def joint(cls, table: Iterable[float]) -> "Distribution":
        return cls(kind="joint", joint_table=tuple(table))

    @classmethod
    def uniform(cls, space: FiniteSpace) -> "Distribution":
        """Independent uniform symbols on each coordinate."""
        return cls.product(tuple((1.0 / m,) * m for m in space.alphabet_sizes))

    def require_matches(self, space: FiniteSpace) -> None:
        if self.kind == "product":
            assert self.pmfs is not None
            if len(self.pmfs) != space.n:
                raise ValueError(
                    f"distribution has {len(self.pmfs)} pmfs, space has {space.n} coordinates"
                )
            for i, (pmf, m) in enumerate(zip(self.pmfs, space.alphabet_sizes)):
                if len(pmf) != m:
                    raise ValueError(
                        f"pmf {i} has {len(pmf)} entries, alphabet size is {m}"
                    )
        else:
            assert self.joint_table is not None
            if len(self.joint_table) != space.size:
                raise ValueError(
                    f"joint table has {len(self.joint_table)} entries, "
                    f"space has {space.size} outcomes"
                )

    def probability(self, space: FiniteSpace, point: Point) -> float:
        self.require_matches(space)
        if self.kind == "product":
            assert self.pmfs is not None
            p = 1.0
            for pmf, s in zip(self.pmfs, point.symbols):
                p *= pmf[s]
            return p
        assert self.joint_table is not None
        return self.joint_table[space.rank(point)]


@dataclass(frozen=True, eq=False)
class SetSpec:
    """An explicit subset A of a finite product space.

    A is held once, as ``symbols``: its members as a read-only (|A|, n)
    array, deduplicated and in canonical order, lexicographic in the
    symbols, which is rank order in every space that holds them.  Each
    use with a space checks the members against it in one pass over the
    array.  Sets with the same members are equal.
    """

    symbols: np.ndarray

    def __post_init__(self) -> None:
        keys = sorted(set(map(tuple, self.symbols)))
        if len(set(map(len, keys))) > 1:
            raise ValueError("explicit set members must share one dimension")
        shape = (len(keys), len(keys[0]) if keys else 0)
        try:
            symbols = np.array(keys, dtype=np.int64).reshape(shape)
        except OverflowError:  # such symbols lie outside every space
            symbols = np.array(keys, dtype=object).reshape(shape)
        if (symbols < 0).any():
            raise ValueError(f"symbols are nonnegative indices, got {symbols[symbols < 0][0]}")
        symbols.setflags(write=False)
        object.__setattr__(self, "symbols", symbols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetSpec) and np.array_equal(self.symbols, other.symbols)

    def __hash__(self) -> int:
        return hash(tuple(map(tuple, self.symbols.tolist())))

    @classmethod
    def from_points(cls, points: Iterable[Point | Iterable[int]]) -> "SetSpec":
        return cls([p.symbols if isinstance(p, Point) else p for p in points])

    @property
    def explicit(self) -> tuple[Point, ...]:
        """The members as Points, built on each read (``bench/workloads.py`` reads it)."""
        return tuple(map(Point, map(tuple, self.symbols.tolist())))

    def member_symbols(self, space: FiniteSpace) -> np.ndarray:
        """Members as an (|A|, n) int array, one row per member in rank order."""
        symbols = self.symbols
        if not len(symbols):
            return np.empty((0, space.n), dtype=np.int64)
        fits = symbols.shape[1] == space.n and (symbols < space.alphabet_sizes).all(axis=1)
        if not np.all(fits):
            bad = symbols[int(np.argmin(fits))]
            raise ValueError(f"point {tuple(bad.tolist())} is not in this space")
        return symbols

    def members(self, space: FiniteSpace) -> Iterator[Point]:
        """Member points in rank order."""
        return map(Point, map(tuple, self.member_symbols(space).tolist()))

    def _rank_array(self, space: FiniteSpace) -> np.ndarray:
        symbols = self.member_symbols(space)
        return np.ravel_multi_index(tuple(symbols.T), space.alphabet_sizes)

    def member_ranks(self, space: FiniteSpace) -> tuple[int, ...]:
        return tuple(self._rank_array(space).tolist())

    def mask(self, space: FiniteSpace) -> np.ndarray:
        """Membership as a boolean tensor of shape ``space.alphabet_sizes``."""
        in_set = np.zeros(space.size, dtype=bool)
        in_set[self._rank_array(space)] = True
        return in_set.reshape(space.alphabet_sizes)


def _check_cap(space: FiniteSpace, cap: int | None) -> None:
    limit = enumeration_cap() if cap is None else int(cap)
    if space.size > limit:
        raise ValueError(
            f"outcome count {space.size} exceeds enumeration cap {limit}"
        )


def _mesh(sizes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Open mesh of the points: ``np.ix_`` over ``arange(s_i)``, built faster.

    Axis i has shape (1, ..., s_i, ..., 1); values over it come out in
    the shape ``sizes``, in rank order, with no (S, n) symbols matrix.
    """
    return np.indices(sizes, sparse=True)


def law_arrays(
    space: FiniteSpace, dist: Distribution, cap: int | None = None
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The exact law over the whole space: (coords, probabilities (S,)).

    ``coords`` is the ``np.ix_`` open mesh of ``arange(s_i)``, the form
    :meth:`~hamconc.functionals.Functional.values` takes for the whole
    space; the probabilities are in rank order.  A product law is the
    product ``pmf_0[c_0] * pmf_1[c_1] * ...`` over the mesh, built as
    flat outer products that multiply in coordinate order, so each
    probability is bit-identical to :meth:`Distribution.probability`.
    The cap (default
    :func:`enumeration_cap`) guards against runaway exhaustive sweeps;
    pass an explicit ``cap`` to raise it for one call.

    The name and the pair are kept because ``bench/tracer.py`` wraps
    ``estimators.law_arrays`` and counts outcomes as the size of the
    second element; both change together with the benchmark.
    """
    _check_cap(space, cap)
    dist.require_matches(space)
    coords = _mesh(space.alphabet_sizes)
    if dist.kind == "product":
        assert dist.pmfs is not None
        probs = np.ones(1)
        for pmf in dist.pmfs:
            probs = np.multiply.outer(probs, pmf).ravel()
        return coords, probs
    assert dist.joint_table is not None
    return coords, np.asarray(dist.joint_table, dtype=np.float64)


def _sample_symbols(
    space: FiniteSpace, dist: Distribution, seed: int, count: int
) -> np.ndarray:
    """(count, n) int64 matrix of sampled symbols; deterministic in seed."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    dist.require_matches(space)
    rng = _rng(seed)
    if dist.kind == "product":
        assert dist.pmfs is not None
        cols = []
        for pmf in dist.pmfs:
            cum = np.cumsum(np.asarray(pmf, dtype=np.float64))
            idx = np.searchsorted(cum, rng.random(count), side="right")
            cols.append(np.minimum(idx, len(pmf) - 1).astype(np.int64))
        return np.column_stack(cols)
    assert dist.joint_table is not None
    cum = np.cumsum(np.asarray(dist.joint_table, dtype=np.float64))
    ranks = np.searchsorted(cum, rng.random(count), side="right")
    ranks = np.minimum(ranks, space.size - 1)
    coords = np.unravel_index(ranks, space.alphabet_sizes)
    return np.column_stack([c.astype(np.int64) for c in coords])


def sample(
    space: FiniteSpace, dist: Distribution, seed: int, count: int
) -> list[Point]:
    """Draw ``count`` points, reproducibly: same seed, same list.

    Product laws sample each coordinate by inverse CDF; joint laws
    sample the rank by inverse CDF over the table.  The generator is
    ``RNG_NAME``.
    """
    matrix = _sample_symbols(space, dist, seed, count)
    return [Point(tuple(int(s) for s in row)) for row in matrix]
