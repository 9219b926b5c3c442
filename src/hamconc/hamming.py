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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # import cycle guard: space imports Point from here
    from .space import FiniteSpace, SetSpec

__all__ = [
    "AlphaWeights",
    "Point",
    "normalize",
    "hamming_distance",
    "distance_to_set",
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
        sqrt(sum of squared weights), cached at construction.
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
        object.__setattr__(self, "l2_norm", math.sqrt(sum(w * w for w in ws)))
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
        syms = tuple(int(s) for s in self.symbols)
        for s in syms:
            if s < 0:
                raise ValueError(f"symbols are nonnegative indices, got {s}")
        object.__setattr__(self, "symbols", syms)

    @property
    def n(self) -> int:
        return len(self.symbols)

    def drop(self, i: int) -> "Point":
        """The point with coordinate ``i`` removed (dimension n-1)."""
        syms = self.symbols
        return Point(syms[:i] + syms[i + 1 :])

    def replace(self, i: int, symbol: int) -> "Point":
        """The point with coordinate ``i`` set to ``symbol``."""
        syms = self.symbols
        return Point(syms[:i] + (int(symbol),) + syms[i + 1 :])

    def insert(self, i: int, symbol: int) -> "Point":
        """The point of dimension n+1 with ``symbol`` inserted at ``i``."""
        syms = self.symbols
        return Point(syms[:i] + (int(symbol),) + syms[i:])


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
    if alpha.l2_norm == 0.0:
        raise ValueError("degenerate weights: all weights are zero")
    return AlphaWeights(tuple(w / alpha.l2_norm for w in alpha.weights))


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


def distance_to_set(
    alpha: AlphaWeights, x: Point, a: "SetSpec", space: "FiniteSpace"
) -> float:
    """d_alpha(x, A) = min over members y of A of d_alpha(x, y).

    Raises
    ------
    ValueError
        If A has no members in ``space``: the empty set has infinite
        distance, which no caller of these bounds can use.
    """
    best: float | None = None
    for y in a.members(space):
        d = hamming_distance(alpha, x, y)
        if best is None or d < best:
            best = d
            if best == 0.0:
                break
    if best is None:
        raise ValueError("empty set has infinite distance")
    return best


def distance_field(alpha: AlphaWeights, in_set: np.ndarray) -> np.ndarray:
    """d_alpha(x, A) at every x, for A given as a boolean mask.

    ``in_set`` has one axis per coordinate (the shape is the alphabet
    sizes).  Weighted Hamming distance separates by coordinate, so one
    min-plus pass per axis, ``d = min(d, min over axis i of d + alpha_i)``,
    started from 0 on A and infinity off it, gives the distance to A
    (Felzenszwalb & Huttenlocher, "Distance Transforms of Sampled
    Functions", Theory of Computing 8, 2012).  Weights are added in
    coordinate order and float addition is monotone, so each entry is
    bit-identical to :func:`distance_to_set` at that point.

    Raises
    ------
    ValueError
        If the mask has the wrong number of axes, or A is empty.
    """
    if in_set.ndim != alpha.n:
        raise ValueError(f"alpha has {alpha.n} weights, set mask has {in_set.ndim} axes")
    if not in_set.any():
        raise ValueError("empty set has infinite distance")
    d = np.where(in_set, 0.0, np.inf)
    shape = d.shape
    for i, w in enumerate(alpha.weights):
        # Axis i as the middle of three: the mins below then run along
        # whole rows, where numpy's reduction over a short axis would run
        # one tiny loop per output entry, several times slower.
        v = d.reshape(math.prod(shape[:i]), shape[i], -1)
        low = v[:, 0]
        for s in range(1, shape[i]):
            low = np.minimum(low, v[:, s])
        np.minimum(v, (low + w)[:, None], out=v)
    return d
