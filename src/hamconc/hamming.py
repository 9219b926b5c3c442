"""Weighted Hamming distances on finite product spaces.

A weight vector alpha = (a_1, ..., a_n) of nonnegative reals induces the
weighted Hamming distance

    d_alpha(x, y) = sum of a_i over the coordinates i where x_i != y_i

and, for a nonempty set A, the point-to-set distance

    d_alpha(x, A) = min over y in A of d_alpha(x, y).

With a_i = 1/sqrt(n) this is the usual normalized Hamming distance.

The concentration bounds in :mod:`hamconc.bounds` are stated for unit
weight vectors (||alpha||_2 = 1).  Weights are stored exactly as given
and expose a ``normalized`` flag; nothing rescales them silently,
because rescaling changes every distance.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "AlphaWeights",
    "Point",
    "normalize",
    "hamming_distance",
]

# |l2_norm - 1| at or below this counts as a unit vector.
NORMALIZED_ATOL = 1e-9


@dataclass(frozen=True)
class AlphaWeights:
    """Nonnegative coordinate weights with cached norms.

    Attributes
    ----------
    weights:
        The weight of each coordinate, finite and >= 0.
    l2_norm:
        sqrt(sum of squared weights), cached at construction; taken on
        the weights scaled by :func:`_scaled`, so squares never overflow.
    l1_sum:
        Sum of the weights; this is the largest value the induced
        distance can take, so tail grids are scaled by it.
    """

    weights: tuple[float, ...]
    l2_norm: float = field(init=False, repr=False, compare=False)
    l1_sum: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ws = tuple(float(w) for w in self.weights)
        if not ws:
            raise ValueError("weight vector must have dimension >= 1")
        for w in ws:
            if not math.isfinite(w) or w < 0.0:
                raise ValueError(f"weights must be finite and >= 0, got {w!r}")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "l2_norm", math.ldexp(*_scaled(ws)[1:]))
        object.__setattr__(self, "l1_sum", sum(ws))

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def normalized(self) -> bool:
        """True iff ||alpha||_2 = 1 up to 1e-9, as the bounds require."""
        return abs(self.l2_norm - 1.0) <= NORMALIZED_ATOL


@dataclass(frozen=True)
class Point:
    """A point of a finite product space: one symbol index per coordinate."""

    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        syms = tuple(self.symbols)
        _require_symbols(syms)
        syms = tuple(map(int, syms))
        if syms and min(syms) < 0:
            bad = next(s for s in syms if s < 0)
            raise ValueError(f"symbols are nonnegative indices, got {bad}")
        object.__setattr__(self, "symbols", syms)

    @property
    def n(self) -> int:
        return len(self.symbols)

    def insert(self, i: int, symbol: int) -> "Point":
        """The point of dimension n+1 with ``symbol`` inserted at ``i``."""
        syms = self.symbols
        return Point(syms[:i] + (symbol,) + syms[i:])


def _require_symbols(symbols: Iterable) -> None:
    """Refuse a bool or a non-integer symbol, which ``int`` would truncate."""
    for s in symbols:
        if type(s) is not int and (isinstance(s, bool) or not isinstance(s, numbers.Integral)):
            raise ValueError(f"symbols are integer indices, got {s!r}")


def normalize(alpha: AlphaWeights | Iterable[float]) -> AlphaWeights:
    """Rescale weights to unit Euclidean norm.

    Raises
    ------
    ValueError
        If every weight is zero ("degenerate weights"); there is no
        unit-norm rescaling of the zero vector.
    """
    if not isinstance(alpha, AlphaWeights):
        alpha = AlphaWeights(tuple(alpha))
    scaled, root, _ = _scaled(alpha.weights)
    if root == 0.0:
        raise ValueError("degenerate weights: all weights are zero")
    return AlphaWeights(tuple(w / root for w in scaled))


def _scaled(ws: tuple[float, ...]) -> tuple[tuple[float, ...], float, int]:
    """(ws * 2**-e, their l2 norm, e), the largest scaled weight in [0.5, 1):
    exact, and no square of a weight near 1e-160 or 1e160 underflows or
    overflows, while weights whose squares are in range keep their bits."""
    e = math.frexp(max(ws))[1]
    scaled = tuple(math.ldexp(w, -e) for w in ws)
    return scaled, math.sqrt(sum(w * w for w in scaled)), e


def hamming_distance(alpha: AlphaWeights, x: Point, y: Point) -> float:
    """d_alpha(x, y): the weights of the coordinates where x and y differ.

    Summation runs in coordinate order, so equal inputs produce
    bit-identical outputs.
    """
    if x.n != y.n or x.n != alpha.n:
        raise ValueError(
            f"dimension mismatch: alpha has {alpha.n}, points have {x.n} and {y.n}"
        )
    total = 0.0
    for w, xs, ys in zip(alpha.weights, x.symbols, y.symbols):
        if xs != ys:
            total += w
    return total


def distance_field(alpha: AlphaWeights, in_set: np.ndarray) -> np.ndarray:
    """d_alpha(x, A) at every x, for A given as a boolean mask.

    ``in_set`` has one axis per coordinate (the shape is the alphabet
    sizes).  Weighted Hamming distance separates by coordinate, so one
    min-plus pass per axis, ``d = min(d, min over axis i of d + alpha_i)``,
    started from 0 on A and infinity off it, gives the distance to A
    (Felzenszwalb & Huttenlocher, "Distance Transforms of Sampled
    Functions", Theory of Computing 8, 2012); :func:`_min_plus` runs
    them, and ``mc_tail``'s sampled distances share it.  Weights are added
    in coordinate order and float addition is monotone, so each entry is
    bit-identical to the least :func:`hamming_distance` from that point
    to a member of A.

    Raises
    ------
    ValueError
        If the mask has the wrong number of axes, or A is empty.
    """
    if in_set.ndim != alpha.n:
        raise ValueError(f"alpha has {alpha.n} weights, set mask has {in_set.ndim} axes")
    if not in_set.any():
        raise ValueError("empty set has infinite distance")
    return _min_plus(np.where(in_set, 0.0, np.inf), alpha.weights)


def _min_plus(d: np.ndarray, weights: tuple[float, ...]) -> np.ndarray:
    """``d = min(d, min over axis i of d + w_i)`` in place by :func:`_reduce_lines`,
    for each weight w_i in order, over the first axes of ``d`` (C-contiguous
    float64): from distances over earlier coordinates, the least over these too."""
    for i, w in enumerate(weights):
        if d.shape[i] > 1:  # else d + w >= d: the pass would change nothing
            low = _reduce_lines(np.minimum, d, i)
            low += w
            np.minimum(_lines(d, i), low[:, None], out=_lines(d, i))
    return d


def _lines(a: np.ndarray, i: int) -> np.ndarray:
    """``a`` as (prefix, |A_i|, rest), a view if C-contiguous: axis i's lines down the middle."""
    return a.reshape(math.prod(a.shape[:i]), a.shape[i], -1)


def _reduce_lines(op: np.ufunc, a: np.ndarray, i: int) -> np.ndarray:
    """``op`` (np.minimum or np.maximum) along axis i of ``a``, a (prefix, rest) array:
    one pass per symbol over the rows of :func:`_lines`, in the order numpy reduces
    a strided axis (NaN propagates), where ``a.min(i)`` runs a tiny loop per entry."""
    v = _lines(a, i)
    out = op(v[:, 0], v[:, 1]) if v.shape[1] > 1 else v[:, 0].copy()
    for s in range(2, v.shape[1]):
        op(out, v[:, s], out=out)
    return out
