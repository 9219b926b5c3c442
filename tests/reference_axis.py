"""numpy's own reductions along an axis, the forms the line kernel is held to.

The package reduces along axis i of a whole-space table through
``hamming._reduce_lines``, one whole-row pass per symbol.  These are the
plain forms, ``t.min(i)``, ``t.max(i)`` and ``keepdims``, with the
witnesses located by ``np.unravel_index`` and ``Point.insert``; the tests
compare the package with them byte for byte.
"""

from __future__ import annotations

import numpy as np

from hamconc.hamming import AlphaWeights, Point


def spreads(t: np.ndarray) -> np.ndarray:
    """Per axis i, the largest max f - min f over the lines along i."""
    return np.array([np.max(t.max(i) - t.min(i)) for i in range(t.ndim)])


def gaps(t: np.ndarray, i: int) -> np.ndarray:
    """The infimum family's drop gaps along axis i, in the table's shape."""
    return t - t.min(i, keepdims=True)


def first_flagged(bad: np.ndarray) -> Point | None:
    k = int(np.argmax(bad))
    return Point(tuple(map(int, np.unravel_index(k, bad.shape)))) if bad.flat[k] else None


def gap_witness(t: np.ndarray, bound: np.ndarray) -> Point | None:
    """The first flagged point of the first axis whose spread exceeds ``bound``."""
    failing = np.flatnonzero(~(spreads(t) <= bound))
    if not failing.size:
        return None
    i = int(failing[0])
    return first_flagged(~(gaps(t, i) <= bound[i]))


def self_bounding_sum(t: np.ndarray, a: float, b: float) -> np.ndarray:
    """The sum of the gaps, each rounded on its own, less a*f + b."""
    total = np.zeros(t.shape)
    for i in range(t.ndim):
        total += gaps(t, i)
    total -= a * t
    total -= b
    return total


def lipschitz_witness(t: np.ndarray, i: int, w: float) -> tuple[Point, Point]:
    """The points of least and greatest f on the worst line along axis i."""
    lines = t.max(i) - t.min(i) - w
    k = np.unravel_index(int(np.argmax(lines)), lines.shape)
    line = t[k[:i] + (slice(None),) + k[i:]]
    lo, hi = sorted((int(np.argmin(line)), int(np.argmax(line))))
    if lo == hi:
        lo, hi = sorted((int(hi == 0), hi))
    k = tuple(map(int, k))
    return Point(k).insert(i, lo), Point(k).insert(i, hi)


def distance_field(alpha: AlphaWeights, in_set: np.ndarray) -> np.ndarray:
    """One min-plus pass per axis, each reducing along the axis itself."""
    d = np.where(in_set, 0.0, np.inf)
    for i, w in enumerate(alpha.weights):
        d = np.minimum(d, d.min(axis=i, keepdims=True) + w)
    return d
