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

Both are certified for the infimum family f_i = min over s of f(x with
x_i = s), read off f's table.  It is the greatest admissible family (the
lower condition forces f_i <= f at every symbol) and the upper
conditions only get easier as f_i grows, so it certifies whenever any
family does.

The drop condition implies the Lipschitz property: changing coordinate i
moves f by at most alpha_i because both values sit in the interval
[f_i, f_i + alpha_i] over the same dropped point, and a chain of single
coordinate changes telescopes.  ``check_*`` functions return a
:class:`Certificate` rather than a bare bool so a failing point is kept
as evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ._util import frozen
from .hamming import AlphaWeights, Point, distance_field
# Not called here since distance_to tabulates through distance_field; the
# name stays because bench/tracer.py counts calls through this attribute.
from .hamming import hamming_distance  # noqa: F401
from .space import FiniteSpace, SetSpec, _mesh

__all__ = [
    "Functional",
    "Certificate",
    "check_lipschitz",
    "check_drop_condition",
    "check_self_bounding",
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
    """f(x) = table[x], for a table of shape alphabet_sizes, kept read-only.

    ``source`` is the ``(alpha, set)`` a table of distances was computed
    from, so a report can write it as the set; None for other tables.
    """

    def __init__(
        self, table: np.ndarray, source: tuple[AlphaWeights, SetSpec] | None = None
    ) -> None:
        self.table = frozen(np.asarray(table))
        self.source = source

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
    that shape.  Pass n arrays of length N for N points (what
    ``np.unravel_index`` returns for N ranks), or the ``np.ix_`` open
    mesh of ``arange(s_i)`` for the whole space in the shape
    ``alphabet_sizes``.  Functionals made by
    :meth:`from_table` and :meth:`distance_to` look the points up in
    their stored table, and :meth:`weighted_sum` adds ``c_i * coords[i]``
    in coordinate order; each result is bit-identical to calling
    ``value`` point by point, which is what a plain callable evaluator
    falls back to.

    Attributes
    ----------
    evaluator:
        Maps a Point to a real number.
    self_bounding_params:
        Optional (a, b) with a > 0, b >= 0 for the self-bounding checks.
    """

    evaluator: Callable[[Point], float]
    self_bounding_params: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.self_bounding_params is not None:
            a, b = self.self_bounding_params
            if not (a > 0.0 and b >= 0.0):
                raise ValueError(
                    f"self-bounding parameters need a > 0 and b >= 0, got {a}, {b}"
                )
            object.__setattr__(self, "self_bounding_params", (float(a), float(b)))

    def value(self, point: Point) -> float:
        return float(self.evaluator(point))

    def values(self, coords: Sequence[np.ndarray]) -> np.ndarray:
        """f at every point of the broadcast coordinate arrays ``coords``."""
        if isinstance(self.evaluator, _Evaluator):
            return self.evaluator.values(coords)
        return _pointwise(self.value, coords)

    def drop_value(self, i: int, reduced: Point, space: FiniteSpace) -> float:
        """f_i(reduced) of the infimum family, point by point: the least f
        over the symbols of coordinate i, NaN if any of those values is."""
        line = [self.value(reduced.insert(i, s)) for s in range(space.alphabet_sizes[i])]
        return float(np.min(line))

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
        The table keeps ``(alpha, a)``, so a report under the same weights
        writes the functional as the set rather than as its table.
        """
        table = distance_field(alpha, a.mask(space))
        return cls(evaluator=_Table(table, source=(alpha, a)), **kw)


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


def _spread(values: np.ndarray, i: int) -> np.ndarray:
    """max f - min f on each line of ``values`` along axis i: its largest gap."""
    return values.max(axis=i) - values.min(axis=i)


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
        slack = _spread(values, i) - w
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


def check_drop_condition(
    f: Functional, alpha: AlphaWeights, space: FiniteSpace
) -> Certificate:
    """Certify 0 <= f(x) - f_i(x without i) <= alpha_i everywhere, f_i the infimum.

    The lower comparison holds by construction, so each line along each
    axis i needs max f - min f <= alpha_i + CERT_TOL.  ``worst_slack`` is
    max(-0.0, max f - min f - alpha_i) over the axes and lines; a NaN
    value makes it NaN and fails the check.  The witness is the first
    flagged point, in rank order, of the first failing axis.
    """
    if alpha.n != space.n:
        raise ValueError(f"alpha has {alpha.n} weights, space has {space.n} coordinates")
    values = _tabulate(f.evaluator, space.alphabet_sizes)
    slacks = []
    witness = None
    for i, w in enumerate(alpha.weights):
        spread = _spread(values, i)
        slacks.append(np.max(spread - w))
        if witness is None and not (spread <= w + CERT_TOL).all():
            # the gaps f(x) - f_i of the first failing axis
            gap = values - values.min(axis=i, keepdims=True)
            witness = _first_flagged(~(gap <= w + CERT_TOL), space)
    worst = float(np.max(slacks))
    return Certificate("drop", witness is None, witness, worst if not worst <= 0.0 else -0.0)


def _first_flagged(bad: np.ndarray, space: FiniteSpace) -> Point | None:
    """The first point, in rank order, that the mask ``bad`` flags, or None."""
    k = int(np.argmax(bad))
    return space.unrank(k) if bad.flat[k] else None


def check_self_bounding(f: Functional, space: FiniteSpace) -> Certificate:
    """Certify the (a, b)-self-bounding conditions for f's infimum family.

    Both conditions are checked at every point: each gap f(x) - f_i
    lies in [0, 1 + CERT_TOL], and the gap sum, added one axis at a
    time, is at most a*f(x) + b + CERT_TOL.  ``worst_slack`` reports the
    sum condition's margin, max over points of (sum of gaps - a*f(x) -
    b), as that is the binding one in use.  A NaN gap or value fails the
    check.  The witness is the first flagged point of the first failing
    condition, gap axes first.
    """
    if f.self_bounding_params is None:
        raise ValueError("functional has no self-bounding parameters")
    a, b = f.self_bounding_params
    values = _tabulate(f.evaluator, space.alphabet_sizes)
    total = np.zeros(values.shape)
    witness = None
    for i in range(space.n):
        gap = values - values.min(axis=i, keepdims=True)
        total += gap
        if witness is None:
            # a gap is never below -0.0, and a NaN one fails this comparison
            witness = _first_flagged(~(gap <= 1.0 + CERT_TOL), space)
        del gap  # before the next axis's gap is built: one gap table at a time
    total -= a * values
    total -= b
    if witness is None:
        witness = _first_flagged(~(total <= CERT_TOL), space)
    return Certificate("self_bounding", witness is None, witness, float(np.max(total)))
