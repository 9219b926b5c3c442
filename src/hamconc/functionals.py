"""Functionals on product spaces and the conditions the bounds need.

Three conditions are certified exactly over the space:

* Lipschitz: |f(x) - f(x')| <= d_alpha(x, x') for all pairs.  d_alpha is
  the path metric of the Hamming graph with edge weights alpha_i, so it
  suffices on the edges, the pairs that differ in one coordinate i.
* Coordinate drop: for a family f_1, ..., f_n, with f_i defined on the
  space with coordinate i removed,
      0 <= f(x) - f_i(x with coordinate i dropped) <= alpha_i.
* Self-bounding with parameters (a, b): the drop gaps lie in [0, 1] and
  their sum is at most a * f(x) + b.

The last two are certified for the infimum family f_i = min over s of
f(x with x_i = s), the greatest admissible family (the lower condition
forces f_i <= f at every symbol); the upper conditions only get easier
as f_i grows, so it certifies whenever any family does.

Each check reads ``spreads[i]``, the largest max f - min f over the lines
of f's table along axis i, taken once per table.  On a line, the largest
|f(x) - f(x')| and the largest infimum-family gap are both max f - min f,
so f is Lipschitz exactly when ``spreads[i] <= alpha_i`` on each axis
with edges, the drop condition holds exactly when that holds on every
axis, and the gaps lie in [0, 1] exactly when ``spreads[i] <= 1``.
The drop condition implies the Lipschitz property, as both values of an
edge lie in [f_i, f_i + alpha_i] over the same dropped point.  Checks
return a :class:`Certificate`, which keeps a failing point as evidence.
The spreads, gaps, gap sum and witnesses all reduce by ``hamming._reduce_lines``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from ._util import frozen
from .hamming import AlphaWeights, Point, _lines, _reduce_lines, distance_field
# Not called here since distance_to tabulates through distance_field; the
# name stays because bench/tracer.py counts calls through this attribute.
from .hamming import hamming_distance  # noqa: F401
from .space import FiniteSpace, SetSpec

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
    coords = np.indices(sizes, sparse=True)
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

    @cached_property
    def spreads(self) -> np.ndarray:
        """Per axis i, the largest max f - min f over the lines along i, NaN
        if f has a NaN; taken once, as the table is read-only and its own."""
        return frozen(np.array([np.max(self.line_spreads(i)) for i in range(self.table.ndim)]))

    def line_spreads(self, i: int) -> np.ndarray:
        """max f - min f on each line along axis i, a (prefix, rest) array."""
        return _reduce_lines(np.maximum, self.table, i) - _reduce_lines(np.minimum, self.table, i)

    def gaps(self, i: int) -> np.ndarray:
        """The infimum family's drop gaps f(x) - f_i along axis i, in the lines' shape."""
        return _lines(self.table, i) - _reduce_lines(np.minimum, self.table, i)[:, None]

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
        """Explicit value per outcome rank; an array of them is copied once."""
        if isinstance(values, np.ndarray):
            table = np.array(values, dtype=np.float64)
            if table.ndim != 1:
                raise ValueError(f"table values must be a flat array, got {table.ndim} axes")
        else:
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


def _table_of(f: Functional, space: FiniteSpace) -> _Table:
    """f's own table, or a new one for an evaluator that has none."""
    values = _tabulate(f.evaluator, space.alphabet_sizes)
    return f.evaluator if isinstance(f.evaluator, _Table) else _Table(values)


def _first_flagged(bad: np.ndarray, space: FiniteSpace) -> Point | None:
    """The first point, in rank order, that the mask ``bad`` flags, or None."""
    k = int(np.argmax(bad))
    return space.unrank(k) if bad.flat[k] else None


def _gap_witness(table: _Table, bound: np.ndarray, space: FiniteSpace) -> Point | None:
    """The first point, in rank order, whose gap f(x) - f_i is not <= ``bound[i]``
    on the first axis i whose spread is not; None if every axis passes."""
    failing = np.flatnonzero(~(table.spreads <= bound))
    if not failing.size:
        return None
    return _first_flagged(~(table.gaps(failing[0]) <= bound[failing[0]]), space)


def check_lipschitz(f: Functional, alpha: AlphaWeights, space: FiniteSpace) -> Certificate:
    """Certify |f(x) - f(x')| <= d_alpha(x, x') over pairs of points, edge by edge.

    ``worst_slack`` is the largest max f - min f - alpha_i over the lines,
    and the witness is that line's worst edge: its points of least and
    greatest f, in rank order.  The axes are taken in order and a slack
    replaces the worst unless it is <= it, so a NaN slack (all are NaN if
    f has a NaN) gives way to any later one.  For a non-Lipschitz f a pair
    several edges apart can exceed its distance by more than this.
    """
    if not alpha.normalized:
        raise ValueError("Lipschitz certification assumes a unit weight vector")
    if alpha.n != space.n:
        raise ValueError(f"alpha has {alpha.n} weights, space has {space.n} coordinates")
    table = _table_of(f, space)
    axes = np.flatnonzero(np.asarray(space.alphabet_sizes) > 1)
    slack = table.spreads[axes] - np.asarray(alpha.weights)[axes]
    # the slacks after the last NaN one, or that NaN if it is the last
    nan = np.flatnonzero(np.isnan(slack))
    start = min(int(nan[-1]) + 1, slack.size - 1) if nan.size else 0
    j = start + int(np.argmax(slack[start:])) if slack.size else None
    worst = -math.inf if j is None else float(slack[j])
    if worst <= CERT_TOL:
        return Certificate("lipschitz", True, None, worst)
    i = int(axes[j])
    v = _lines(table.table, i)
    p, r = divmod(int(np.argmax(table.line_spreads(i) - alpha.weights[i])), v.shape[2])
    lo, hi = sorted((int(np.argmin(v[p, :, r])), int(np.argmax(v[p, :, r]))))
    if lo == hi:  # both found the NaN; pair it with a neighbour
        lo, hi = sorted((int(hi == 0), hi))
    ends = (space.unrank(int(np.ravel_multi_index((p, s, r), v.shape))) for s in (lo, hi))
    return Certificate("lipschitz", False, tuple(ends), worst)


def check_drop_condition(
    f: Functional, alpha: AlphaWeights, space: FiniteSpace
) -> Certificate:
    """Certify 0 <= f(x) - f_i(x without i) <= alpha_i everywhere, f_i the infimum.

    Each axis needs ``spreads[i] <= alpha_i + CERT_TOL``.  ``worst_slack``
    is max(-0.0, max f - min f - alpha_i) over the axes and lines; a NaN
    value makes it NaN and fails the check.  The witness is the first
    flagged point, in rank order, of the first failing axis.
    """
    if alpha.n != space.n:
        raise ValueError(f"alpha has {alpha.n} weights, space has {space.n} coordinates")
    table = _table_of(f, space)
    w = np.asarray(alpha.weights)
    worst = float(np.max(table.spreads - w))
    witness = _gap_witness(table, w + CERT_TOL, space)
    return Certificate("drop", witness is None, witness, worst if not worst <= 0.0 else -0.0)


def check_self_bounding(f: Functional, space: FiniteSpace) -> Certificate:
    """Certify the (a, b)-self-bounding conditions for f's infimum family.

    Each axis needs ``spreads[i] <= 1 + CERT_TOL`` and each point a gap sum,
    added one axis at a time, of at most a*f(x) + b + CERT_TOL; a NaN fails
    both.  ``worst_slack`` is the sum's margin, max over points of (sum of
    gaps - a*f(x) - b).  The witness is the first flagged point of the
    first failing condition, gap axes first.
    """
    if f.self_bounding_params is None:
        raise ValueError("functional has no self-bounding parameters")
    a, b = f.self_bounding_params
    table = _table_of(f, space)
    witness = _gap_witness(table, np.full(space.n, 1.0 + CERT_TOL), space)
    values = table.table
    total = np.zeros(values.shape)
    for i in range(space.n):  # one gap table at a time, not n at once
        total += table.gaps(i).reshape(values.shape)
    total -= a * values
    total -= b
    if witness is None:
        witness = _first_flagged(~(total <= CERT_TOL), space)
    return Certificate("self_bounding", witness is None, witness, float(np.max(total)))
