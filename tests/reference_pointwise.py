"""The point-by-point definitions the package's array paths are held to.

The package works on whole arrays: ``space.law_arrays`` gives every
probability at once, ``hamming.distance_field`` every distance to a set,
``np.ravel_multi_index`` the ranks of many points.  The tests compare
them with these plain loops, one ``Point`` at a time.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from hamconc.hamming import AlphaWeights, Point, hamming_distance


def points(space) -> Iterator[Point]:
    """All points of the space in rank (lexicographic) order."""
    for syms in itertools.product(*map(range, space.alphabet_sizes)):
        yield Point(syms)


def rank(space, point: Point) -> int:
    """Lexicographic index of ``point``, last coordinate fastest."""
    if point.n != space.n or not all(
        0 <= s < m for s, m in zip(point.symbols, space.alphabet_sizes)
    ):
        raise ValueError(f"point {point.symbols} is not in this space")
    r = 0
    for s, m in zip(point.symbols, space.alphabet_sizes):
        r = r * m + s
    return r


def probability(space, dist, point: Point) -> float:
    """P(X = point): a product law's pmf entries multiplied in coordinate
    order, or a joint law's table entry at the point's rank."""
    dist.require_matches(space)
    if dist.kind == "product":
        p = 1.0
        for pmf, s in zip(dist.pmfs, point.symbols):
            p *= pmf[s]
        return p
    return dist.joint_table[rank(space, point)]


def distance_to_set(alpha: AlphaWeights, x: Point, a, space) -> float:
    """d_alpha(x, A), the least ``hamming_distance`` from x to a member of A."""
    members = [Point(tuple(y)) for y in a.member_symbols(space).tolist()]
    if not members:
        raise ValueError("empty set has infinite distance")
    return min(hamming_distance(alpha, x, y) for y in members)
