"""Functionals on product spaces and the conditions the bounds need.

Three conditions are certified exactly over the space:

* Lipschitz: |f(x) - f(x')| <= d_alpha(x, x') for all pairs.  It is
  checked edge by edge, on pairs that differ in one coordinate i, as
  |f(x) - f(x')| <= alpha_i.  That is equivalent: d_alpha is the path
  metric of the Hamming graph with edge weights alpha_i, so the bound
  on every edge telescopes along a shortest path to every pair.
* Coordinate drop: for a family f_1, ..., f_n, with f_i defined on the
  space with coordinate i removed,
      0 <= f(x) - f_i(x with coordinate i dropped) <= alpha_i.
* Self-bounding with parameters (a, b): the drop gaps lie in [0, 1] and
  their sum is at most a * f(x) + b.

The drop condition implies the Lipschitz property: changing coordinate i
moves f by at most alpha_i because both values sit in the interval
[f_i, f_i + alpha_i] over the same dropped point, and a chain of single
coordinate changes telescopes.  ``check_*`` functions return a
:class:`Certificate` rather than a bare bool so a failing point is kept
as evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from ._util import exact_sum, frozen
from .hamming import AlphaWeights, Point, distance_field
# Not called here since distance_to tabulates through distance_field; the
# name stays because bench/tracer.py counts calls through this attribute.
from .hamming import hamming_distance  # noqa: F401
from .space import FiniteSpace, SetSpec, _mesh

__all__ = [
    "Functional",
    "Certificate",
    "Stats",
    "check_lipschitz",
    "check_drop_condition",
    "drop_infimum_family",
    "check_self_bounding",
    "stats_from_law",
]

# Checks allow this much float slack on their upper comparisons.
CERT_TOL = 1e-12


def _pointwise(fn: Callable[[Point], float], coords: Sequence[np.ndarray]) -> np.ndarray:
    """fn at every point of a broadcast coordinate tuple, one Point at a time."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
    cols = [c.ravel().tolist() for c in np.broadcast_arrays(*coords)]
    rows = zip(*cols) if cols else [()]
    out = np.fromiter(
        (fn(Point(r)) for r in rows), dtype=np.float64, count=math.prod(shape)
    )
    return out.reshape(shape)


def _tabulate(fn: Callable[[Point], float], sizes: tuple[int, ...]) -> np.ndarray:
    """An evaluator at every point of the space ``sizes``, in that shape.

    A table is returned as it is, read-only and not copied; a bulk
    evaluator runs over the open mesh, a plain callable point by point.
    """
    if isinstance(fn, _Table):
        if fn.table.shape != sizes:
            raise ValueError(f"table has shape {fn.table.shape}, space has {sizes}")
        return fn.table
    coords = _mesh(sizes)
    if isinstance(fn, _Evaluator):
        return fn.values(coords)
    return _pointwise(fn, coords)


class _Evaluator:
    """An evaluator with a bulk form: ``values(coords)`` next to ``__call__(point)``.

    The constructors of :class:`Functional` build these; a plain
    callable evaluator has no bulk form and is evaluated point by point.
    """


class _Table(_Evaluator):
    """f(x) = table[x], for a table of shape alphabet_sizes, kept read-only."""

    def __init__(self, table: np.ndarray) -> None:
        self.table = frozen(np.asarray(table))

    def __call__(self, point: Point) -> float:
        shape = self.table.shape
        if point.n != len(shape) or any(s >= m for s, m in zip(point.symbols, shape)):
            raise ValueError(f"point {point.symbols} is not in this space")
        return float(self.table[point.symbols])

    def values(self, coords: Sequence[np.ndarray]) -> np.ndarray:
        if len(coords) != self.table.ndim:
            raise ValueError(
                f"dimension mismatch: table has {self.table.ndim} axes, "
                f"got {len(coords)} coordinates"
            )
        return self.table[tuple(coords)]


class _WeightedSum(_Evaluator):
    """f(x) = sum of c_i * x_i, added in coordinate order on both paths."""

    def __init__(self, coeffs: tuple[float, ...]) -> None:
        self.coeffs = coeffs

    def _require_dim(self, n: int) -> None:
        if n != len(self.coeffs):
            raise ValueError(
                f"dimension mismatch: {len(self.coeffs)} coefficients, point has {n}"
            )

    def __call__(self, point: Point) -> float:
        self._require_dim(point.n)
        total = 0.0
        for c, s in zip(self.coeffs, point.symbols):
            total += c * s
        return total

    def values(self, coords: Sequence[np.ndarray]) -> np.ndarray:
        self._require_dim(len(coords))
        total = 0.0
        for c, x in zip(self.coeffs, coords):
            total = total + c * x
        return np.asarray(total, dtype=np.float64)


@dataclass(frozen=True)
class Functional:
    """A real-valued function of a point, with optional extra structure.

    ``value(point)`` evaluates one point.  ``values(coords)`` evaluates
    many at once: ``coords`` is a tuple of n integer arrays, one per
    coordinate, that broadcast to a common shape, and the result has
    that shape.  Pass the columns of an (N, n) sample matrix for N
    points, or the ``np.ix_`` open mesh of ``arange(s_i)`` for the
    whole space in the shape ``alphabet_sizes``.  Functionals made by
    :meth:`from_table` and :meth:`distance_to` look the points up in
    their stored table, and :meth:`weighted_sum` adds ``c_i * coords[i]``
    in coordinate order; each result is bit-identical to calling
    ``value`` point by point, which is what a plain callable evaluator
    falls back to.

    Attributes
    ----------
    evaluator:
        Maps a Point to a real number.
    drop_family:
        Optional tuple of n callables; entry i maps a Point of dimension
        n-1 (coordinate i removed) to a real number.
    self_bounding_params:
        Optional (a, b) with a > 0, b >= 0 for the self-bounding checks.
    drop_label:
        How the drop family arose ("infimum" for the canonical one,
        "custom" for user-supplied); serialization uses it.
    """

    evaluator: Callable[[Point], float]
    drop_family: tuple[Callable[[Point], float], ...] | None = None
    self_bounding_params: tuple[float, float] | None = None
    drop_label: str | None = None

    def __post_init__(self) -> None:
        if self.self_bounding_params is not None:
            a, b = self.self_bounding_params
            if not (a > 0.0 and b >= 0.0):
                raise ValueError(
                    f"self-bounding parameters need a > 0 and b >= 0, got {a}, {b}"
                )
            object.__setattr__(self, "self_bounding_params", (float(a), float(b)))
        if self.drop_family is not None:
            object.__setattr__(self, "drop_family", tuple(self.drop_family))
            if self.drop_label is None:
                object.__setattr__(self, "drop_label", "custom")

    def value(self, point: Point) -> float:
        return float(self.evaluator(point))

    def values(self, coords: Sequence[np.ndarray]) -> np.ndarray:
        """f at every point of the broadcast coordinate arrays ``coords``."""
        if isinstance(self.evaluator, _Evaluator):
            return self.evaluator.values(coords)
        return _pointwise(self.value, coords)

    def drop_value(self, i: int, reduced: Point) -> float:
        if self.drop_family is None:
            raise ValueError("functional has no drop family")
        return float(self.drop_family[i](reduced))

    @classmethod
    def from_table(cls, space: FiniteSpace, values: Iterable[float], **kw) -> "Functional":
        """Explicit value per outcome rank."""
        table = np.asarray([float(v) for v in values], dtype=np.float64)
        if table.size != space.size:
            raise ValueError(
                f"table has {table.size} values, space has {space.size} outcomes"
            )
        return cls(evaluator=_Table(table.reshape(space.alphabet_sizes)), **kw)

    @classmethod
    def weighted_sum(cls, coefficients: Iterable[float], **kw) -> "Functional":
        """f(x) = sum of c_i * x_i over the symbol indices x_i."""
        return cls(evaluator=_WeightedSum(tuple(float(c) for c in coefficients)), **kw)

    @classmethod
    def distance_to(
        cls, alpha: AlphaWeights, a: SetSpec, space: FiniteSpace, **kw
    ) -> "Functional":
        """f(x) = d_alpha(x, A); the canonical Lipschitz functional.

        The distances are tabulated once over the space by
        :func:`~hamconc.hamming.distance_field`; evaluation looks them up.
        """
        return cls(evaluator=_Table(distance_field(alpha, a.mask(space))), **kw)


@dataclass(frozen=True)
class Certificate:
    """Outcome of an exhaustive condition check.

    ``worst_slack`` is the largest violation margin seen: positive means
    the condition failed somewhere, nonpositive means it held with that
    much room.  When ``holds`` is false, ``witness`` is a point (or a
    pair of points, for the Lipschitz check) where re-evaluating the
    condition reproduces the violation.
    """

    condition: str
    holds: bool
    witness: Point | tuple[Point, Point] | None
    worst_slack: float


@dataclass(frozen=True)
class Stats:
    """Exact mean and the median interval of a discrete law."""

    mean: float
    median_lo: float
    median_hi: float


def check_lipschitz(f: Functional, alpha: AlphaWeights, space: FiniteSpace) -> Certificate:
    """Certify |f(x) - f(x')| <= d_alpha(x, x') over pairs of points.

    The check runs edge by edge: for each coordinate i and each line of
    the space along axis i, max f - min f <= alpha_i.  This is exact,
    not a sample, because d_alpha is the path metric of the Hamming
    graph with edge weights alpha_i.  Axes with one symbol have no
    edges and are skipped.

    ``worst_slack`` is the largest (max f - min f - alpha_i) over the
    lines, the violation of the worst single-coordinate edge, and the
    witness is that edge: the points of least and greatest f on its
    line, in rank order.  For a Lipschitz f the slack of a pair is at
    most that of each edge on a shortest path between them, so this is
    also the worst slack over all pairs; for a non-Lipschitz f a pair
    several edges apart can exceed its distance by more than any single
    edge does, and ``worst_slack`` then understates that pair.
    """
    if not alpha.normalized:
        raise ValueError("Lipschitz certification assumes a unit weight vector")
    if alpha.n != space.n:
        raise ValueError(f"alpha has {alpha.n} weights, space has {space.n} coordinates")
    values = _tabulate(f.evaluator, space.alphabet_sizes)
    worst = -math.inf
    edge = None
    for i, w in enumerate(alpha.weights):
        if space.alphabet_sizes[i] == 1:
            continue
        slack = values.max(axis=i) - values.min(axis=i) - w
        k = np.unravel_index(int(np.argmax(slack)), slack.shape)
        # A NaN value puts a NaN slack on every axis, which argmax finds
        # first and which must fail the check, so NaN counts as the worst.
        if not slack[k] <= worst:
            worst = float(slack[k])
            edge = (i, k)
    holds = worst <= CERT_TOL
    witness = None
    if not holds:
        i, k = edge
        line = values[k[:i] + (slice(None),) + k[i:]]
        lo, hi = int(np.argmin(line)), int(np.argmax(line))
        if lo == hi:  # both found the NaN; pair it with a neighbour
            lo = int(hi == 0)
        lo, hi = sorted((lo, hi))
        witness = (Point(k).insert(i, lo), Point(k).insert(i, hi))
    return Certificate("lipschitz", holds, witness, worst)


def _family_tables(f: Functional, space: FiniteSpace) -> list[np.ndarray]:
    """Each f_i of f's drop family over the space without coordinate i."""
    if f.drop_family is None:
        raise ValueError("functional has no drop family")
    if len(f.drop_family) != space.n:
        raise ValueError(
            f"drop family has {len(f.drop_family)} entries, space has {space.n} coordinates"
        )
    sizes = space.alphabet_sizes
    return [_tabulate(fi, sizes[:i] + sizes[i + 1 :]) for i, fi in enumerate(f.drop_family)]


def _drop_gap_arrays(f: Functional, space: FiniteSpace) -> list[np.ndarray]:
    """For each coordinate i, the gap f(x) - f_i(x without i), per rank."""
    tables = _family_tables(f, space)
    values = _tabulate(f.evaluator, space.alphabet_sizes)
    return [(values - np.expand_dims(t, i)).ravel() for i, t in enumerate(tables)]


def check_drop_condition(
    f: Functional, alpha: AlphaWeights, space: FiniteSpace
) -> Certificate:
    """Certify 0 <= f(x) - f_i(x without i) <= alpha_i everywhere.

    The lower comparison is exact; the upper one allows CERT_TOL of
    float slack.  ``worst_slack`` is the largest of -gap and
    gap - alpha_i over all points and coordinates.
    """
    if alpha.n != space.n:
        raise ValueError(f"alpha has {alpha.n} weights, space has {space.n} coordinates")
    return _drop_certificate(_drop_gap_arrays(f, space), alpha, space)


def _drop_certificate(
    gaps: list[np.ndarray], alpha: AlphaWeights, space: FiniteSpace
) -> Certificate:
    """:func:`check_drop_condition` on gap arrays already built.

    A NaN gap fails both comparisons, so it is flagged, and it makes
    ``worst_slack`` NaN.
    """
    pairs = list(zip(gaps, alpha.weights))
    worst = float(np.max([np.max(np.maximum(-g, g - w)) for g, w in pairs]))
    bad = (~((g >= 0.0) & (g <= w + CERT_TOL)) for g, w in pairs)
    return Certificate("drop", *_first_violation(bad, space), worst)


def _first_violation(
    masks: Iterable[np.ndarray], space: FiniteSpace
) -> tuple[bool, Point | None]:
    """(no mask flags a rank, the first flagged point of the first mask that flags one)."""
    for bad in masks:
        if bad.any():
            return False, space.unrank(int(np.argmax(bad)))
    return True, None


def drop_infimum_family(f: Functional, space: FiniteSpace) -> Functional:
    """Attach the canonical drop family f_i = min over symbols at i.

    For every x this family satisfies f(x) - f_i >= 0 exactly, because
    the minimum ranges over f(x) itself; the upper drop comparison then
    measures the oscillation of f along coordinate i.  f is tabulated
    over the space once, here, unless it already is a table.  The result
    evaluates f by that table, and each f_i by its minimum along axis i.
    """
    table = _tabulate(f.evaluator, space.alphabet_sizes)
    family = tuple(_Table(table.min(axis=i)) for i in range(space.n))
    return replace(f, evaluator=_Table(table), drop_family=family, drop_label="infimum")


def check_self_bounding(f: Functional, space: FiniteSpace) -> Certificate:
    """Certify the (a, b)-self-bounding conditions for f's drop family.

    Both conditions are checked at every point: each gap lies in
    [0, 1 + CERT_TOL], and the gap sum is at most a*f(x) + b + CERT_TOL.
    ``worst_slack`` reports the sum condition's margin, max over points
    of (sum of gaps - a*f(x) - b), as that is the binding one in use.
    A NaN gap or value fails the check.
    """
    if f.self_bounding_params is None:
        raise ValueError("functional has no self-bounding parameters")
    values = _tabulate(f.evaluator, space.alphabet_sizes).ravel()
    return _self_bounding_certificate(
        _drop_gap_arrays(f, space), values, f.self_bounding_params, space
    )


def _self_bounding_certificate(
    gaps: list[np.ndarray],
    values: np.ndarray,
    params: tuple[float, float],
    space: FiniteSpace,
) -> Certificate:
    """:func:`check_self_bounding` on gap arrays and f's values already built."""
    a, b = params
    sum_slack = sum(gaps) - a * values - b
    bad = [~((g >= 0.0) & (g <= 1.0 + CERT_TOL)) for g in gaps] + [~(sum_slack <= CERT_TOL)]
    holds, witness = _first_violation(bad, space)
    return Certificate("self_bounding", holds, witness, float(np.max(sum_slack)))


def _law_atoms(
    values: Sequence[float] | np.ndarray, probs: Sequence[float] | np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """The atoms of a discrete law: (distinct values, mass on each, total mass).

    The values come out strictly increasing; the total is the correctly
    rounded sum of ``probs``.  Raises for mismatched or empty input and
    for a law without mass.
    """
    v = np.asarray(values, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    if v.shape != p.shape or v.ndim != 1 or v.size == 0:
        raise ValueError("values and probs must be matching nonempty 1-d arrays")
    total = exact_sum(p)
    if total <= 0.0:
        raise ValueError("law has no mass")
    uniq, inverse = np.unique(v, return_inverse=True)
    return uniq, np.bincount(inverse, weights=p, minlength=uniq.size), total


def stats_from_law(
    values: Sequence[float] | np.ndarray,
    probs: Sequence[float] | np.ndarray,
    atoms: tuple[np.ndarray, np.ndarray, float] | None = None,
) -> Stats:
    """Exact stats of a discrete law given parallel value/probability arrays.

    The mean is the correctly rounded sum of value * probability over
    the total.  Medians come from exact float comparisons on the raw
    values, so the median interval endpoints really are medians of the
    stored law: median_lo is the least value v with P(f <= v) >= 1/2,
    median_hi the greatest with P(f >= v) >= 1/2.  ``atoms`` is the
    law's ``_law_atoms(values, probs)``, when the caller already has it.
    """
    uniq, mass, total = atoms or _law_atoms(values, probs)
    v = np.asarray(values, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    mean = exact_sum(v * p) / total
    cum = np.cumsum(mass)
    half = 0.5 * total - 1e-12
    median_lo = float(uniq[int(np.argmax(cum >= half))])
    suffix = total - cum + mass
    median_hi = float(uniq[uniq.size - 1 - int(np.argmax(suffix[::-1] >= half))])
    return Stats(mean, median_lo, median_hi)

