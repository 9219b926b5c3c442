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
import numbers
import os
import threading
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ._util import exact_sum
from .hamming import Point, _require_symbols

__all__ = [
    "DEFAULT_ENUM_CAP",
    "RNG_NAME",
    "FiniteSpace",
    "Distribution",
    "SetSpec",
    "law_arrays",
    "sample",
]

# Cap on exhaustive enumeration when a scenario or a call gives none.
DEFAULT_ENUM_CAP = 10**7

# Counter-based generator used for all sampling; recorded in reports so a
# reader of a report knows how to reproduce the stream from the seed.
RNG_NAME = "numpy-philox4x64"

_MAX_SIZE = 2**63 - 1  # outcome counts must fit a 64-bit signed int
_PMF_SUM_ATOL = 1e-12


def _rng(seed: int, word: int = 0) -> np.random.Generator:
    """A generator over the Philox stream of ``seed``, from word ``word`` on."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    bits = np.random.Philox(seed)
    _seek(bits, word)
    return np.random.Generator(bits)


def _seek(bits: np.random.Philox, word: int) -> None:
    """Position ``bits`` at 64-bit word ``word`` (any integer) of its stream:
    Philox makes block c of four words from counter c, so the counter is
    set to ``word // 4``, the buffer emptied and ``word % 4`` words drawn.
    """
    word = int(word)
    state = bits.state
    state["state"]["counter"] = np.array([word // 4, 0, 0, 0], dtype=np.uint64)
    state["buffer_pos"] = 4
    bits.state = state
    bits.random_raw(word % 4)


def _workers() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux
        return os.cpu_count() or 1


def _split(work, total: int) -> list:
    """``work(lo, hi)`` on contiguous ranges that split ``range(total)``,
    one range per worker; their results, in range order.

    There are ``min(_workers(), total)`` ranges (at least one), of equal
    length within one.  The first runs on the calling thread and each
    other one on a thread of its own, joined before this returns, so no
    thread outlives the call; the array work they do in numpy runs
    outside the interpreter lock.  An exception raised in a range
    reaches the caller unchanged, the first range's first.
    """
    k = max(1, min(_workers(), total))
    cuts = [total * j // k for j in range(k + 1)]
    results: list = [None] * k
    errors: list = [None] * k

    def part(j: int) -> None:
        try:
            results[j] = work(cuts[j], cuts[j + 1])
        except BaseException as exc:  # raised again on the calling thread
            errors[j] = exc

    started = []
    try:
        for j in range(1, k):
            thread = threading.Thread(target=part, args=(j,))
            thread.start()
            started.append(thread)
        results[0] = work(cuts[0], cuts[1])
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _require_integral(value, what: str) -> None:
    """Refuse a bool or a non-integer ``what``, which ``int`` would truncate."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class FiniteSpace:
    """Product of finite alphabets; coordinate i has ``alphabet_sizes[i]`` symbols."""

    alphabet_sizes: tuple[int, ...]
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sizes = tuple(self.alphabet_sizes)
        if not sizes:
            raise ValueError("a product space needs at least one coordinate")
        for s in sizes:
            _require_integral(s, "an alphabet size")
            if s < 1:
                raise ValueError(f"alphabet sizes must be >= 1, got {s}")
        sizes = tuple(map(int, sizes))
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

    def unrank(self, rank: int) -> Point:
        _require_integral(rank, "rank")
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0, {self.size})")
        syms = [0] * self.n
        for i in range(self.n - 1, -1, -1):
            m = self.alphabet_sizes[i]
            rank, syms[i] = divmod(rank, m)
        return Point(tuple(syms))


def _pmf_array(values, what: str) -> np.ndarray:
    """``values`` as a new read-only 1-d float64 array, checked as a pmf:
    nonempty, with no negative or non-finite entry (the first in order is
    named) and a correctly rounded sum within ``_PMF_SUM_ATOL`` of 1.  A
    copy, so a caller's array is neither aliased nor frozen."""
    pmf = np.array(values, dtype=np.float64)
    if pmf.ndim != 1:
        raise ValueError(f"{what} must be flat, got {pmf.ndim} axes")
    if not pmf.size:
        raise ValueError(f"{what} is empty")
    # The least entry, or the first NaN.  With none negative or NaN, the
    # sum is finite unless an entry is inf; it is taken only then, as
    # fsum refuses inf + -inf.
    total = exact_sum(pmf) if pmf[pmf.argmin()] >= 0.0 else math.nan
    if not math.isfinite(total):
        bad = pmf[~(np.isfinite(pmf) & (pmf >= 0.0))][0]
        raise ValueError(f"{what} entries must be finite and >= 0, got {float(bad)!r}")
    if abs(total - 1.0) > _PMF_SUM_ATOL:
        raise ValueError(f"{what} must sum to 1 within {_PMF_SUM_ATOL}, got {total!r}")
    pmf.setflags(write=False)
    return pmf


@dataclass(frozen=True, eq=False)
class Distribution:
    """A law on a finite product space, held once as read-only float64 arrays.

    Two kinds:

    * ``product``: ``pmfs``, one pmf per coordinate; coordinates are
      independent.
    * ``joint``: ``joint_table``, a full probability table indexed by
      outcome rank, which can encode arbitrary dependence.

    Each array is a checked copy of what the caller gave (a list, a tuple
    or an array), so it never aliases or freezes the caller's array.
    Laws of one kind with equal arrays are equal and hash equal.
    """

    kind: str
    pmfs: tuple[np.ndarray, ...] | None = None
    joint_table: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind == "product":
            if self.pmfs is None or self.joint_table is not None:
                raise ValueError("product distribution takes pmfs only")
            pmfs = tuple(_pmf_array(pmf, f"pmf {i}") for i, pmf in enumerate(self.pmfs))
            if not pmfs:
                raise ValueError("product distribution needs at least one pmf")
            object.__setattr__(self, "pmfs", pmfs)
        elif self.kind == "joint":
            if self.joint_table is None or self.pmfs is not None:
                raise ValueError("joint distribution takes joint_table only")
            object.__setattr__(self, "joint_table", _pmf_array(self.joint_table, "joint table"))
        else:
            raise ValueError(f"distribution kind must be product or joint, got {self.kind!r}")

    @property
    def _arrays(self) -> tuple[np.ndarray, ...]:
        return self.pmfs if self.kind == "product" else (self.joint_table,)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distribution) or self.kind != other.kind:
            return False
        a, b = self._arrays, other._arrays
        return len(a) == len(b) and all(map(np.array_equal, a, b))

    def __hash__(self) -> int:
        # + 0.0: -0.0, equal to 0.0, hashes as 0.0
        return hash((self.kind, *[(a + 0.0).tobytes() for a in self._arrays]))

    @classmethod
    def product(cls, pmfs: Iterable[Sequence[float]]) -> "Distribution":
        return cls(kind="product", pmfs=pmfs)

    @classmethod
    def joint(cls, table: Sequence[float]) -> "Distribution":
        return cls(kind="joint", joint_table=table)

    @classmethod
    def uniform(cls, space: FiniteSpace) -> "Distribution":
        """Independent uniform symbols on each coordinate."""
        return cls.product([1.0 / m] * m for m in space.alphabet_sizes)

    def require_matches(self, space: FiniteSpace) -> None:
        if self.kind == "product":
            assert self.pmfs is not None
            if len(self.pmfs) != space.n:
                raise ValueError(
                    f"distribution has {len(self.pmfs)} pmfs, space has {space.n} coordinates"
                )
            for i, (pmf, m) in enumerate(zip(self.pmfs, space.alphabet_sizes)):
                if pmf.size != m:
                    raise ValueError(
                        f"pmf {i} has {pmf.size} entries, alphabet size is {m}"
                    )
        else:
            assert self.joint_table is not None
            if self.joint_table.size != space.size:
                raise ValueError(
                    f"joint table has {self.joint_table.size} entries, "
                    f"space has {space.size} outcomes"
                )


def _increasing(a: np.ndarray) -> bool:
    """Whether the rows of an int64 member array strictly increase in
    lexicographic order, checked on them read as mixed-radix numbers;
    False (not known) when a symbol is negative or the numbers pass int64.
    """
    if len(a) < 2 or not a.shape[1]:
        return len(a) < 2
    if a[0].tolist() >= a[1].tolist():  # unsorted rows often fail here, cheaply
        return False
    low, radix = int(a.min()), int(a.max()) + 1
    if low < 0 or radix ** a.shape[1] > 2**63:
        return False
    keys = a @ (radix ** np.arange(a.shape[1] - 1, -1, -1, dtype=np.int64))
    return bool((keys[1:] > keys[:-1]).all())


def _unique_rows(a: np.ndarray) -> np.ndarray:
    """The distinct rows of an int64 member array, sorted, in a new array;
    no rows give (0, 0).  Rows already strictly increasing, as a report
    writes them, are copied without the sort."""
    if not len(a):
        return np.empty((0, 0), dtype=np.int64)
    if _increasing(a):
        return a.copy()
    if a.shape[1]:
        a = a[np.lexsort(a.T[::-1])]
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = (a[1:] != a[:-1]).any(axis=1)
    return a[keep]


@dataclass(frozen=True, eq=False)
class SetSpec:
    """An explicit subset A of a finite product space.

    A is held once, as ``symbols``: its members as a read-only (|A|, n)
    array, deduplicated and in canonical order, lexicographic in the
    symbols, which is rank order in every space that holds them.  Each
    use with a space checks the members against it in one pass over the
    array.  Sets with the same members are equal.  A bool or non-integer
    symbol is refused, not truncated.
    """

    symbols: np.ndarray

    def __post_init__(self) -> None:
        symbols = self.symbols
        if not isinstance(symbols, np.ndarray) or symbols.dtype != np.int64 or symbols.ndim != 2:
            rows = symbols.tolist() if isinstance(symbols, np.ndarray) else list(symbols)
            if len(set(map(len, rows))) > 1:
                raise ValueError("explicit set members must share one dimension")
            _require_symbols(itertools.chain.from_iterable(rows))
            try:
                symbols = np.array(rows, dtype=np.int64)
            except OverflowError:  # such symbols lie outside every space
                keys = sorted(set(map(tuple, rows)))
                symbols = np.array(keys, dtype=object).reshape(len(keys), len(keys[0]))
        if symbols.dtype == np.int64:
            symbols = _unique_rows(symbols)
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

    def _rank_array(self, space: FiniteSpace) -> np.ndarray:
        symbols = self.member_symbols(space)
        return np.ravel_multi_index(tuple(symbols.T), space.alphabet_sizes)

    def mask(self, space: FiniteSpace) -> np.ndarray:
        """Membership as a boolean tensor of shape ``space.alphabet_sizes``."""
        in_set = np.zeros(space.size, dtype=bool)
        in_set[self._rank_array(space)] = True
        return in_set.reshape(space.alphabet_sizes)


def _check_cap(space: FiniteSpace, cap: int | None) -> None:
    limit = DEFAULT_ENUM_CAP if cap is None else int(cap)
    if space.size > limit:
        raise ValueError(
            f"outcome count {space.size} exceeds enumeration cap {limit}"
        )


def law_arrays(
    space: FiniteSpace, dist: Distribution, cap: int | None = None
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The exact law over the whole space: (coords, probabilities (S,)).

    ``coords`` is the ``np.ix_`` open mesh of ``arange(s_i)``, built by
    ``np.indices(sizes, sparse=True)``: the form
    :meth:`~hamconc.functionals.Functional.values` takes for the whole
    space, axis i of shape (1, ..., s_i, ..., 1).  The probabilities are
    in rank order, and a joint law's are its own read-only
    ``joint_table``.  A product law is the product
    ``pmf_0[x_0] * pmf_1[x_1] * ...`` at each point, built as flat outer
    products of its pmf arrays that multiply in coordinate order, the
    order of a per-point product.  The cap (default
    ``DEFAULT_ENUM_CAP``) guards against runaway exhaustive sweeps;
    pass an explicit ``cap`` to raise it for one call.

    The name and the pair are kept because ``bench/tracer.py`` wraps
    ``estimators.law_arrays`` and counts outcomes as the size of the
    second element; both change together with the benchmark.
    """
    _check_cap(space, cap)
    dist.require_matches(space)
    coords = np.indices(space.alphabet_sizes, sparse=True)
    if dist.kind == "product":
        assert dist.pmfs is not None
        probs = dist.pmfs[0]
        for pmf in dist.pmfs[1:]:
            probs = (probs[:, None] * pmf).ravel()
        return coords, probs
    assert dist.joint_table is not None
    return coords, dist.joint_table


# Alphabets up to this size add a uniform draw's symbol to its rank by
# counting the inner cut points of the cumulative pmf that it reaches,
# one pass per cut point; larger ones use np.searchsorted, whose cost
# grows with log m.  Per 10^5 unsorted draws added into the ranks (2 vCPU,
# numpy 2.4.6, best of 7) the count took 0.1 ms at 2 symbols, 1.7 at 16,
# 2.8-3.6 at 32, 6.3-7.3 at 64, 6.9-9.2 at 80 and 12-13 at 128;
# searchsorted with its clamp took about 2.0-2.7, 4.5-5.3, 6.2-7.0,
# 6.4-8.4, 6.9-9.0 and 7.8-8.1 ms.  They tie from 64 to 80 symbols, so
# the cut stays at 64.
_COUNT_MAX_SYMBOLS = 64


def _add_symbols(ranks: np.ndarray, cum: np.ndarray, u: np.ndarray) -> None:
    """Add the inverse-CDF symbol of each draw in ``u`` to ``ranks``, in place.

    The symbol is ``min(searchsorted(cum, u, "right"), m - 1)``: ``cum``
    is the cumulative pmf, non-decreasing, so the number of inner cut
    points ``cum[:m - 1]`` that ``u`` reaches is that clamped index
    exactly, also when ``cum`` ends below 1 or repeats a value.  Up to
    ``_COUNT_MAX_SYMBOLS`` symbols each reached cut point adds 1 to the
    rank directly, with no symbol array.
    """
    m = cum.size
    if m > _COUNT_MAX_SYMBOLS:
        ranks += np.minimum(np.searchsorted(cum, u, side="right"), m - 1)
        return
    for c in cum[: m - 1].tolist():
        ranks += u >= c


def _require_ints(**args) -> None:
    """Refuse a bool or a non-integer sampler argument, before numpy sees it."""
    for name, value in args.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError(f"{name} must be an integer, got {value!r}")


def _sample_ranks(
    space: FiniteSpace, dist: Distribution, seed: int, count: int
) -> np.ndarray:
    """(count,) int64 outcome ranks of the sampled points; deterministic in seed.

    Both laws read one Philox stream from ``seed``, one 64-bit word per
    uniform.  A product law gives coordinate i the words
    ``[i * count, (i + 1) * count)`` and takes its symbols by inverse CDF;
    a joint law gives sample j word j and inverts the CDF of the table.
    The samples are split over the CPUs the process may use
    (:func:`_split`), each worker taking a run of them, so the buffers of
    all the workers add up to the serial size.  A product law's worker
    positions one generator at its run's first word of each coordinate
    (:func:`_seek`), draws that coordinate's uniforms into one reused
    buffer and accumulates the mixed-radix ranks of its samples in
    place.  The ranks are the same for any number of workers, so they
    depend on the seed alone.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    dist.require_matches(space)
    count = int(count)
    if dist.kind == "product":
        assert dist.pmfs is not None
        cums = [np.cumsum(pmf) for pmf in dist.pmfs]
        ranks = np.zeros(count, dtype=np.int64)

        def draw(a: int, b: int) -> None:
            rng = _rng(seed)
            part, u = ranks[a:b], np.empty(b - a, dtype=np.float64)
            for i, cum in enumerate(cums):
                _seek(rng.bit_generator, i * count + a)
                part *= cum.size
                _add_symbols(part, cum, rng.random(out=u))

        _split(draw, count)
        return ranks
    assert dist.joint_table is not None
    cum = np.cumsum(dist.joint_table)
    ranks = np.empty(count, dtype=np.int64)

    def draw_table(a: int, b: int) -> None:
        u = _rng(seed, a).random(b - a)
        ranks[a:b] = np.minimum(np.searchsorted(cum, u, side="right"), space.size - 1)

    _split(draw_table, count)
    return ranks


def sample(space: FiniteSpace, dist: Distribution, seed: int, count: int) -> np.ndarray:
    """Draw ``count`` points, reproducibly: same seed, same array.

    A (count, n) int64 array, one row of symbols per draw: the points of
    the ranks :func:`_sample_ranks` draws.  Product laws sample each
    coordinate by inverse CDF, joint laws the rank by inverse CDF over
    the table.  The generator is ``RNG_NAME``.  ``seed`` and ``count``
    must be integers, not bools.
    """
    _require_ints(seed=seed, count=count)
    ranks = _sample_ranks(space, dist, seed, count)
    return np.column_stack(np.unravel_index(ranks, space.alphabet_sizes)).astype(np.int64)
