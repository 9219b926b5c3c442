"""Exact enumeration and Monte Carlo estimation of the quantities bounded.

Exact results come from a full sweep of the outcome space (guarded by
the enumeration cap) and are aggregated with correctly rounded sums
(:func:`~hamconc._util.exact_sum`, equal to ``math.fsum``), so tail
probabilities at points beyond the support are exactly 0.0 and the
total mass is exactly 1.0.  A functional is evaluated in bulk, once
over the whole space (a table functional is read in place) or once
per distinct sampled outcome.  The Monte Carlo path reports a two-sided
confidence half-width from Hoeffding's inequality, which makes the
cross-check against exact values a testable contract rather than a
matter of eyeballing.  It never tabulates the space: a set is its
member array; each sampled prefix sums its distances to the members
once, and the min-plus passes of ``distance_field`` add the trailing
coordinates where that is cheaper, in blocks of bounded size, so memory
does not grow with the sample count, and each sampled distance is
bit-identical to the exact one.  The sampler and the blocks run on all
the CPUs the process may use, with the same bits as on one.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import sub
from typing import Sequence

import numpy as np

from ._util import exact_layers, exact_sum, frozen
from .functionals import Functional, _Evaluator, _tabulate
from .hamming import AlphaWeights, _min_plus, distance_field
from .space import (
    Distribution,
    FiniteSpace,
    SetSpec,
    _require_ints,
    _sample_ranks,
    _split,
    law_arrays,
)

__all__ = [
    "Law",
    "TailCurve",
    "Stats",
    "SetStats",
    "FunctionalLaw",
    "DistanceToSet",
    "McEstimate",
    "exact_set_stats",
    "exact_functional_stats",
    "stats_from_law",
    "mgf_from_law",
    "hoeffding_half_width",
    "mc_tail",
    "MC_DEFAULT_N",
    "MC_DEFAULT_DELTA",
]

MC_DEFAULT_N = 10**5
MC_DEFAULT_DELTA = 0.01

# Bytes of one block: partial distances (ranks or prefixes x members), a
# field (suffixes x prefixes) or a functional's unravelled coordinates.
_BLOCK_BYTES = 1 << 18
# Bytes of the head table: the summed distances of every prefix of the
# leading coordinates to every member.
_HEAD_BYTES = 1 << 20


class Law:
    """A discrete real law, built once; every exact statistic reads it.

    ``values`` and ``probs`` are read-only float64 views of the parallel
    per-outcome arrays it was built from.  ``total`` is the correctly
    rounded sum of ``probs``; the atoms are ``support``, the distinct
    values in strictly increasing order, and ``masses``, the mass on
    each; ``inverse`` maps each outcome to the index of its value in
    ``support`` (one ``np.unique`` call finds both).  ``mean`` is
    :meth:`expect` of the values and ``curve`` the law's
    :class:`TailCurve`.  Raises for mismatched or empty arrays and for a
    law without mass.
    """

    def __init__(
        self, values: Sequence[float] | np.ndarray, probs: Sequence[float] | np.ndarray
    ) -> None:
        self.values = frozen(np.asarray(values, dtype=np.float64))
        self.probs = frozen(np.asarray(probs, dtype=np.float64))
        if self.values.shape != self.probs.shape or self.values.ndim != 1 or not self.values.size:
            raise ValueError("values and probs must be matching nonempty 1-d arrays")
        self.total = exact_sum(self.probs)
        if not self.total > 0.0:
            raise ValueError("law has no mass")
        support, inverse = np.unique(self.values, return_inverse=True)
        self.support, self.inverse = frozen(support), frozen(inverse)
        self.masses = frozen(np.bincount(inverse, weights=self.probs, minlength=support.size))
        self.mean = self.expect(self.values)
        self.curve = TailCurve.from_law(self)

    def expect(self, g: np.ndarray) -> float:
        """E g(X) for g given per outcome: the correctly rounded sum of
        g * p over the total."""
        return exact_sum(g * self.probs) / self.total


class TailCurve:
    """Cumulative views of a discrete real law, queryable at any point.

    ``support`` holds the distinct outcome values in strictly increasing
    order and ``masses`` the (unnormalized) probability on each, both as
    read-only float64 views of the arrays given, not copies; queries
    divide by ``total`` so the curve is a probability even when the input
    weights do not quite sum to one.

    Every prefix and suffix mass is the correctly rounded sum of its
    masses: the masses are split once into the exact layers of
    :func:`~hamconc._util.exact_layers`, whose running sums are exact,
    and so are their differences, the suffix sums; a query adds one
    value per layer with ``math.fsum``.  Queries past either end of the
    support return exactly 0.0, which is what makes "tail vanishes past
    the range" checks exact rather than approximate.
    """

    def __init__(self, support, masses, total: float) -> None:
        self._v = frozen(np.asarray(support, dtype=np.float64))
        self._m = frozen(np.asarray(masses, dtype=np.float64))
        self.total = float(total)
        layers, rest = exact_layers(self._m)
        parts = np.stack(layers, axis=1) if layers else np.zeros((self._m.size, 1))
        # Row i, one exact value per layer: the mass on support points 0..i.
        self._pre = np.cumsum(parts, axis=0)
        self._top = self._pre[-1].tolist()
        # Masses too large to split (None for any probability law).
        self._rest = rest

    @classmethod
    def from_law(cls, law: Law) -> "TailCurve":
        """The curve of the law's atoms."""
        return cls(law.support, law.masses, law.total)

    @property
    def support(self) -> np.ndarray:
        return self._v

    @property
    def masses(self) -> np.ndarray:
        return self._m

    def _prefix(self, i: int) -> float:
        """Mass on the first i + 1 support points."""
        parts = self._pre[i].tolist()
        if self._rest is not None:
            parts += self._rest[: i + 1].tolist()
        return math.fsum(parts)

    def _suffix(self, i: int) -> float:
        """Mass on support points i and above: per layer, the total less
        the mass below i, an exact difference."""
        parts = list(map(sub, self._top, self._pre[i - 1].tolist())) if i else self._top[:]
        if self._rest is not None:
            parts += self._rest[i:].tolist()
        return math.fsum(parts)

    def _search(self, x: float, side: str) -> int:
        """Where ``x`` falls in the support; a NaN has no place there and is refused."""
        if math.isnan(x):
            raise ValueError("tail query point must not be NaN")
        return int(np.searchsorted(self._v, x, side=side))

    def prob_ge(self, x: float) -> float:
        """P(V >= x)."""
        idx = self._search(x, "left")
        if idx >= self._v.size:
            return 0.0
        return self._suffix(idx) / self.total

    def prob_gt(self, x: float) -> float:
        """P(V > x)."""
        idx = self._search(x, "right")
        if idx >= self._v.size:
            return 0.0
        return self._suffix(idx) / self.total

    def prob_le(self, x: float) -> float:
        """P(V <= x)."""
        idx = self._search(x, "right") - 1
        if idx < 0:
            return 0.0
        return self._prefix(idx) / self.total

    def prob_lt(self, x: float) -> float:
        """P(V < x)."""
        idx = self._search(x, "left") - 1
        if idx < 0:
            return 0.0
        return self._prefix(idx) / self.total


@dataclass(frozen=True)
class Stats:
    """Exact mean and the median interval of a discrete law."""

    mean: float
    median_lo: float
    median_hi: float


def stats_from_law(law: Law) -> Stats:
    """The law's mean and median interval.

    median_lo is the least support value v with P(V <= v) >= 1/2 and
    median_hi the greatest with P(V >= v) >= 1/2, each found by bisection
    on the curve's correctly rounded prefix or suffix masses, which are
    monotone, compared exactly with half the total.
    """
    curve, k = law.curve, law.support.size
    lo = bisect_left(range(k), True, key=lambda i: 2.0 * curve._prefix(i) >= law.total)
    hi = bisect_left(range(k), True, key=lambda i: 2.0 * curve._suffix(i) < law.total) - 1
    return Stats(law.mean, float(law.support[lo]), float(law.support[hi]))


@dataclass(frozen=True)
class SetStats:
    """Exact membership probability, mean distance, and distance law."""

    p_in: float
    rho: float
    distance_curve: TailCurve


class FunctionalLaw(Law):
    """Full exact law of f(X), its outcomes in rank order, plus its
    ``stats``."""

    def __init__(self, values: np.ndarray, probs: np.ndarray) -> None:
        super().__init__(values, probs)
        self.stats = stats_from_law(self)


@dataclass(frozen=True)
class DistanceToSet:
    """Marker quantity: d_alpha(X, A), evaluated in bulk where possible."""

    alpha: AlphaWeights
    target: SetSpec


def _by_blocks(ranks: np.ndarray, cuts: Sequence[int], fill, split: bool = True) -> np.ndarray:
    """``fill(ranks[lo:hi])`` for each block between consecutive ``cuts``
    (from 0 to ``ranks.size``), written in order into one float64 array.

    The blocks are handed out as contiguous runs, one per worker of
    :func:`~hamconc.space._split`, and each worker writes its own slice;
    with ``split`` false they all run on the calling thread.
    """
    out = np.empty(ranks.size, dtype=np.float64)

    def run(a: int, b: int) -> None:
        for lo, hi in zip(cuts[a:b], cuts[a + 1 : b + 1]):
            out[lo:hi] = fill(ranks[lo:hi])

    if split:
        _split(run, len(cuts) - 1)
    else:
        run(0, len(cuts) - 1)
    return out


def _sampled_distances(
    ranks: np.ndarray,
    members: np.ndarray,
    alpha: AlphaWeights,
    sizes: Sequence[int],
    split: int | None = None,
) -> np.ndarray:
    """d_alpha(x, A) at the outcome of each of the sorted distinct ``ranks``.

    ``tabs[i][s, j]`` is alpha_i when symbol s differs from member j at
    coordinate i, else 0.  The first k summed, in coordinate order, make
    a head table with a row per prefix of k symbols, k the largest for
    which it has no more rows than there are ranks and fits
    ``_HEAD_BYTES``.  Each prefix of m symbols, ``k <= m <= n``, reads
    its head row and adds the tables of coordinates k..m-1.  At m = n
    the least sum is the distance.  Below n a field cell per prefix and
    suffix of n - m symbols holds the least sum of the members with that
    suffix, or infinity; the min-plus passes of ``distance_field``
    (:func:`~hamconc.hamming._min_plus`) add the trailing weights, and
    each rank reads its cell.  Rounding is monotone (``min(a, b) + w ==
    min(a + w, b + w)``), so every distance is bit-identical to
    ``hamming_distance``'s sums in coordinate order, the least of them.

    m, unless ``split`` forces it (k then at most m), takes the fewest
    operations ``P * (|A| * (m - k) + T * (n - m))`` for P prefixes and T
    suffixes.  Below n every prefix is worked out, so there must be no
    more prefixes than ranks and one prefix's field must fit
    ``_BLOCK_BYTES``, as each block about does; :func:`_by_blocks` shares
    the blocks out over the CPUs.
    """
    n, width = len(sizes), members.shape[0]
    k = 1
    while k < n and math.prod(sizes[: k + 1]) <= min(ranks.size, _HEAD_BYTES // (8 * width)):
        k += 1

    def ops(m: int) -> float:
        prefixes, span = math.prod(sizes[:m]), math.prod(sizes[m:])
        if m < n and (prefixes > ranks.size or 8 * span > _BLOCK_BYTES):
            return math.inf
        return min(prefixes, ranks.size) * (width * (m - k) + span * (n - m))

    m = min(range(n, k - 1, -1), key=ops) if split is None else split
    k = min(k, m)
    span, mid = math.prod(sizes[m:]), math.prod(sizes[k:m])
    if m < n:
        suffix = np.ravel_multi_index(tuple(members[:, m:].T), sizes[m:])
        members = members[np.argsort(suffix)]
        keys, starts = np.unique(np.sort(suffix), return_index=True)
    tabs = [
        np.where(np.arange(size)[:, None] != members[:, i], w, 0.0)
        for i, (size, w) in enumerate(zip(sizes, alpha.weights))
    ]
    head = tabs[0]
    for tab in tabs[1:k]:
        head = (head[:, None, :] + tab[None]).reshape(-1, width)

    def fold(pre: np.ndarray) -> np.ndarray:
        """The partial distances over the first m coordinates of prefixes ``pre``."""
        row, rest = np.divmod(pre, mid)
        d = head[row]
        for tab, c in zip(tabs[k:m], np.unravel_index(rest, sizes[k:m]) if m > k else ()):
            d += tab[c]
        return d

    if m == n:
        cuts = [*range(0, ranks.size, max(1, _BLOCK_BYTES // (8 * width))), ranks.size]
        return _by_blocks(ranks, cuts, lambda block: fold(block).min(axis=1))
    rows = max(1, _BLOCK_BYTES // (8 * max(width, span)))

    def fill(block: np.ndarray) -> np.ndarray:
        # Field axes: one per trailing coordinate, then the block's prefixes.
        first, last = int(block[0]) // span, int(block[-1]) // span + 1
        field = np.full((span, last - first), np.inf)
        field[keys] = np.minimum.reduceat(fold(np.arange(first, last)), starts, axis=1).T
        _min_plus(field.reshape(*sizes[m:], -1), alpha.weights[m:])
        return field[block % span, block // span - first]

    # Blocks of ``rows`` prefixes; a run of prefixes no rank has adds none,
    # so of the sorted cuts each repeat is dropped.
    cuts = np.searchsorted(ranks, np.arange(0, math.prod(sizes[:m]), rows) * span)
    cuts = np.append(cuts, ranks.size)
    return _by_blocks(ranks, cuts[np.diff(cuts, prepend=-1) > 0].tolist(), fill)


def _sampled_values(
    space: FiniteSpace,
    quantity: "Functional | DistanceToSet",
    ranks: np.ndarray,
) -> np.ndarray:
    """The quantity at the outcome of each rank in ``ranks``.

    A functional is evaluated block by block, each block's ranks
    unravelled into about ``_BLOCK_BYTES`` of coordinates, so no n
    coordinate arrays of all the ranks are held at once.  A table or
    weighted sum shares the blocks out over the CPUs as the distances
    do; a plain callable runs on the calling thread, as user code is not
    assumed to be thread-safe.
    """
    if isinstance(quantity, DistanceToSet):
        if quantity.alpha.n != space.n:
            raise ValueError(
                f"alpha has {quantity.alpha.n} weights, space has {space.n} coordinates"
            )
        members = quantity.target.member_symbols(space)
        if not len(members):
            raise ValueError("empty set has infinite distance")
        return _sampled_distances(ranks, members, quantity.alpha, space.alphabet_sizes)
    sizes = space.alphabet_sizes
    return _by_blocks(
        ranks,
        [*range(0, ranks.size, max(1, _BLOCK_BYTES // (8 * space.n))), ranks.size],
        lambda block: quantity.values(np.unravel_index(block, sizes)),
        isinstance(quantity.evaluator, _Evaluator),
    )


def exact_set_stats(
    space: FiniteSpace,
    dist: Distribution,
    alpha: AlphaWeights,
    a: SetSpec,
    cap: int | None = None,
) -> SetStats:
    """Enumerate the law of d_alpha(X, A) and P(X in A) exactly."""
    if alpha.n != space.n:
        raise ValueError(f"alpha has {alpha.n} weights, space has {space.n} coordinates")
    _, probs = law_arrays(space, dist, cap)
    in_set = a.mask(space)
    law = Law(distance_field(alpha, in_set).ravel(), probs)
    return SetStats(law.expect(in_set.ravel()), law.mean, law.curve)


def exact_functional_stats(
    space: FiniteSpace, dist: Distribution, f: Functional, cap: int | None = None
) -> FunctionalLaw:
    """Enumerate the law of f(X) exactly.

    The cap is checked before f is evaluated; a table f is read in place.
    """
    _, probs = law_arrays(space, dist, cap)
    return FunctionalLaw(_tabulate(f.evaluator, space.alphabet_sizes).ravel(), probs)


def mgf_from_law(law: Law, lam: float) -> float:
    """Centered moment generating function E exp(lam * (V - E V)), exactly.

    Each outcome's term is ``p * math.exp(lam * (v - mean))``, the IEEE
    operations of a per-outcome loop, but ``math.exp`` runs once per
    distinct value and is gathered back through ``law.inverse``; the
    sums are correctly rounded.  Self-normalizing: at lam = 0 the
    numerator and denominator are the same sum, so the result is
    exactly 1.0.
    """
    x = (float(lam) * (law.support - law.mean)).tolist()
    return law.expect(np.fromiter(map(math.exp, x), np.float64, len(x))[law.inverse])


def hoeffding_half_width(n_samples: int, delta: float) -> float:
    """Two-sided Hoeffding band half-width sqrt(log(2/delta) / (2n)), n an int."""
    _require_ints(n_samples=n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n_samples))


@dataclass(frozen=True)
class McEstimate:
    """A sampled tail probability with its Hoeffding confidence band.

    With probability at least 1 - delta over the sampling, the true
    probability lies within half_width of estimate.
    """

    estimate: float
    half_width: float
    n_samples: int
    seed: int
    delta: float


def mc_tail(
    space: FiniteSpace,
    dist: Distribution,
    quantity: Functional | DistanceToSet,
    t: float,
    *,
    n_samples: int = MC_DEFAULT_N,
    seed: int = 0,
    delta: float = MC_DEFAULT_DELTA,
) -> McEstimate:
    """Estimate P(q(X) >= t) by sampling the distribution.

    The samples are one array of ``n_samples`` outcome ranks, drawn by
    :func:`~hamconc.space._sample_ranks` from one Philox stream, read by
    coordinate and split by sample.  q is evaluated once per distinct
    sampled outcome, on the sorted distinct ranks, block by block: a
    functional through :meth:`Functional.values` at each block's
    coordinates (table and weighted-sum functionals without a Point per
    outcome, a plain callable point by point), the distance to a set by
    :func:`_sampled_distances`: each sampled prefix sums its distances
    to the members once, from a table of about 1 MB, and the trailing
    coordinates are added per coordinate or by min-plus passes over a
    field of about 256 KB, bit-identical to the exact distance.  The
    sampling and the blocks of a table, a weighted sum or a distance are
    shared out over the CPUs the process may use; a plain callable runs
    on the calling thread.  Each outcome that reaches t adds its sample
    count to the hits, so the estimate is the per-sample count.  The
    space is not tabulated, so this path also serves spaces past the
    enumeration cap.  Bit-reproducible for a given seed: the estimate is
    the same for any number of CPUs.

    ``t`` may be infinite but not NaN; ``n_samples`` and ``seed`` must
    be integers, not bools.  A sampled value that is NaN raises
    ``ValueError`` naming the first such outcome in rank order.
    """
    _require_ints(n_samples=n_samples, seed=seed)
    if math.isnan(t):
        raise ValueError("t must not be NaN")
    half = hoeffding_half_width(n_samples, delta)
    ranks = _sample_ranks(space, dist, seed, n_samples)
    outcomes, counts = np.unique(ranks, return_counts=True)
    vals = _sampled_values(space, quantity, outcomes)
    nan = np.isnan(vals)
    if nan.any():
        x = space.unrank(int(outcomes[np.argmax(nan)]))
        raise ValueError(f"sampled value is NaN at x={x.symbols}")
    hits = int(counts[vals >= t].sum())
    return McEstimate(hits / n_samples, half, n_samples, seed, delta)
