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
from typing import Callable, Iterable, Iterator

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
    "enumerate_outcomes",
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


@dataclass(frozen=True)
class SetSpec:
    """A subset A of a finite product space.

    Either an explicit list of member points or a predicate (including
    sublevel sets of a functional, see :meth:`sublevel`).  Membership of
    predicate sets is decided pointwise; their member list is produced
    by scanning the space.  An explicit set is checked against a space
    once, the first time it is used with it.
    """

    explicit: tuple[Point, ...] | None = None
    predicate: Callable[[Point], bool] | None = None
    _member_keys: frozenset[tuple[int, ...]] | None = field(
        init=False, repr=False, compare=False, default=None
    )
    # Explicit members as a read-only (|A|, n) array in canonical order,
    # and the alphabet sizes of the last space they were checked against.
    _symbols: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)
    _checked: tuple[int, ...] | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        if (self.explicit is None) == (self.predicate is None):
            raise ValueError("SetSpec takes exactly one of explicit points or a predicate")
        if self.explicit is not None:
            # Canonical member order: deduped, sorted by symbols.
            unique = {p.symbols: p for p in self.explicit}
            keys = sorted(unique)
            if len(set(map(len, keys))) > 1:
                raise ValueError("explicit set members must share one dimension")
            try:
                symbols = np.array(keys, dtype=np.int64)
            except OverflowError:  # such symbols lie outside every space
                symbols = np.array(keys, dtype=object)
            symbols.setflags(write=False)
            object.__setattr__(self, "explicit", tuple(unique[k] for k in keys))
            object.__setattr__(self, "_member_keys", frozenset(unique))
            object.__setattr__(self, "_symbols", symbols)

    @classmethod
    def from_points(cls, points: Iterable[Point | Iterable[int]]) -> "SetSpec":
        pts = tuple(
            p if isinstance(p, Point) else Point(tuple(p)) for p in points
        )
        return cls(explicit=pts)

    @classmethod
    def from_predicate(cls, predicate: Callable[[Point], bool]) -> "SetSpec":
        return cls(predicate=predicate)

    @classmethod
    def sublevel(cls, value_fn: Callable[[Point], float], threshold: float) -> "SetSpec":
        """The set {y : value_fn(y) <= threshold}."""
        thr = float(threshold)
        return cls(predicate=lambda p: value_fn(p) <= thr)

    def contains(self, point: Point) -> bool:
        if self.explicit is not None:
            assert self._member_keys is not None
            return point.symbols in self._member_keys
        assert self.predicate is not None
        return bool(self.predicate(point))

    def member_symbols(self, space: FiniteSpace) -> np.ndarray:
        """Members as an (|A|, n) int64 array, one row per member in rank order."""
        if self.explicit is None:
            rows = [p.symbols for p in space.points() if self.contains(p)]
            return np.array(rows, dtype=np.int64).reshape(len(rows), space.n)
        symbols = self._symbols
        assert symbols is not None
        if not len(symbols):
            return np.empty((0, space.n), dtype=np.int64)
        if self._checked != space.alphabet_sizes:
            if symbols.shape[1] != space.n:
                bad = 0
            else:
                outside = (symbols >= np.asarray(space.alphabet_sizes)).any(axis=1)
                bad = int(np.argmax(outside)) if outside.any() else None
            if bad is not None:
                raise ValueError(f"point {self.explicit[bad].symbols} is not in this space")
            object.__setattr__(self, "_checked", space.alphabet_sizes)
        return symbols

    def members(self, space: FiniteSpace) -> Iterator[Point]:
        """Member points in rank order."""
        if self.explicit is not None:
            self.member_symbols(space)
            yield from self.explicit
        else:
            for p in space.points():
                if self.contains(p):
                    yield p

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

    def is_empty(self, space: FiniteSpace) -> bool:
        return next(iter(self.members(space)), None) is None


def _check_cap(space: FiniteSpace, cap: int | None) -> None:
    limit = enumeration_cap() if cap is None else int(cap)
    if space.size > limit:
        raise ValueError(
            f"outcome count {space.size} exceeds enumeration cap {limit}"
        )


def enumerate_outcomes(
    space: FiniteSpace, dist: Distribution, cap: int | None = None
) -> Iterator[tuple[Point, float]]:
    """Yield every (point, probability) pair in rank order.

    The cap (default :func:`enumeration_cap`) guards against runaway
    exhaustive sweeps; pass an explicit ``cap`` to raise it for one call.
    """
    _check_cap(space, cap)
    dist.require_matches(space)
    if dist.kind == "product":
        assert dist.pmfs is not None
        pmfs = dist.pmfs
        for syms in itertools.product(*(range(m) for m in space.alphabet_sizes)):
            p = 1.0
            for pmf, s in zip(pmfs, syms):
                p *= pmf[s]
            yield Point(syms), p
    else:
        assert dist.joint_table is not None
        table = dist.joint_table
        for r, syms in enumerate(
            itertools.product(*(range(m) for m in space.alphabet_sizes))
        ):
            yield Point(syms), table[r]


def law_arrays(
    space: FiniteSpace, dist: Distribution, cap: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized enumeration: (symbols matrix (S, n), probabilities (S,)).

    Row r of the matrix is the symbol tuple of the outcome with rank r,
    matching :func:`enumerate_outcomes` exactly.
    """
    _check_cap(space, cap)
    dist.require_matches(space)
    sizes = space.alphabet_sizes
    symbols = np.indices(sizes, dtype=np.int64).reshape(space.n, -1).T
    if dist.kind == "product":
        assert dist.pmfs is not None
        probs = np.ones(space.size, dtype=np.float64)
        for i, pmf in enumerate(dist.pmfs):
            probs *= np.asarray(pmf, dtype=np.float64)[symbols[:, i]]
    else:
        assert dist.joint_table is not None
        probs = np.asarray(dist.joint_table, dtype=np.float64)
    return symbols, probs


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
