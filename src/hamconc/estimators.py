"""Exact enumeration and Monte Carlo estimation of the quantities bounded.

Exact results come from a full sweep of the outcome space (guarded by
the enumeration cap) and are aggregated with compensated summation, so
tail probabilities at points beyond the support are exactly 0.0 and the
total mass is exactly 1.0.  The Monte Carlo path reports a two-sided
confidence half-width from Hoeffding's inequality, which makes the
cross-check against exact values a testable contract rather than a
matter of eyeballing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .functionals import Functional, Stats, stats_from_law
from .hamming import AlphaWeights, Point, distance_field
from .space import Distribution, FiniteSpace, SetSpec, _sample_symbols, law_arrays

__all__ = [
    "TailCurve",
    "SetStats",
    "FunctionalLaw",
    "DistanceToSet",
    "McEstimate",
    "exact_set_stats",
    "exact_functional_stats",
    "exact_tail",
    "exact_mgf",
    "mgf_from_law",
    "hoeffding_half_width",
    "mc_tail",
    "MC_DEFAULT_N",
    "MC_DEFAULT_DELTA",
]

MC_DEFAULT_N = 10**5
MC_DEFAULT_DELTA = 0.01

# Sampled rows processed per block when measuring distances to a set.
_CHUNK = 1 << 16


def _compensated_cumsum(arr: np.ndarray) -> np.ndarray:
    """Running sums with Neumaier compensation; error stays O(eps) per entry."""
    out = np.empty(arr.size, dtype=np.float64)
    total = 0.0
    comp = 0.0
    for k in range(arr.size):
        x = float(arr[k])
        s = total + x
        if abs(total) >= abs(x):
            comp += (total - s) + x
        else:
            comp += (x - s) + total
        total = s
        out[k] = total + comp
    return out


@dataclass(frozen=True)
class TailCurve:
    """Cumulative views of a discrete real law, queryable at any point.

    ``support`` holds the distinct outcome values in strictly increasing
    order and ``masses`` the (unnormalized) probability on each; queries
    divide by ``total`` so the curve is a probability even when the
    input weights do not quite sum to one.  Queries past the top of the
    support return exactly 0.0, which is what makes "tail vanishes past
    the range" checks exact rather than approximate.
    """

    support: tuple[float, ...]
    masses: tuple[float, ...]
    total: float

    def __post_init__(self) -> None:
        v = np.asarray(self.support, dtype=np.float64)
        m = np.asarray(self.masses, dtype=np.float64)
        object.__setattr__(self, "_v", v)
        object.__setattr__(self, "_prefix", _compensated_cumsum(m))
        object.__setattr__(self, "_suffix", _compensated_cumsum(m[::-1])[::-1])

    @classmethod
    def from_law(
        cls, values: Sequence[float] | np.ndarray, probs: Sequence[float] | np.ndarray
    ) -> "TailCurve":
        v = np.asarray(values, dtype=np.float64)
        p = np.asarray(probs, dtype=np.float64)
        if v.shape != p.shape or v.ndim != 1 or v.size == 0:
            raise ValueError("values and probs must be matching nonempty 1-d arrays")
        uniq, inverse = np.unique(v, return_inverse=True)
        mass = np.bincount(inverse, weights=p, minlength=uniq.size)
        total = math.fsum(map(float, p))
        if total <= 0.0:
            raise ValueError("law has no mass")
        return cls(tuple(map(float, uniq)), tuple(map(float, mass)), total)

    @property
    def cdf(self) -> tuple[float, ...]:
        """P(V <= v) at each support point."""
        return tuple(float(x) / self.total for x in self._prefix)

    def prob_ge(self, x: float) -> float:
        """P(V >= x)."""
        idx = int(np.searchsorted(self._v, x, side="left"))
        if idx >= self._v.size:
            return 0.0
        return float(self._suffix[idx]) / self.total

    def prob_gt(self, x: float) -> float:
        """P(V > x)."""
        idx = int(np.searchsorted(self._v, x, side="right"))
        if idx >= self._v.size:
            return 0.0
        return float(self._suffix[idx]) / self.total

    def prob_le(self, x: float) -> float:
        """P(V <= x)."""
        idx = int(np.searchsorted(self._v, x, side="right")) - 1
        if idx < 0:
            return 0.0
        return float(self._prefix[idx]) / self.total

    def prob_lt(self, x: float) -> float:
        """P(V < x)."""
        idx = int(np.searchsorted(self._v, x, side="left")) - 1
        if idx < 0:
            return 0.0
        return float(self._prefix[idx]) / self.total

    def expectation(self) -> float:
        """Mean of the law, from the stored atoms."""
        return (
            math.fsum(v * float(m) for v, m in zip(self.support, self.masses))
            / self.total
        )

    @property
    def support_max(self) -> float:
        return float(self._v[-1])

    @property
    def support_min(self) -> float:
        return float(self._v[0])


def exact_tail(curve: TailCurve, t: float, mode: str = "geq") -> float:
    """Query a tail probability: P(V >= t) for "geq", P(V > t) for "gt".

    Every inequality check in this package uses the "geq" convention;
    "gt" exists for diagnostics.
    """
    if mode == "geq":
        return curve.prob_ge(t)
    if mode == "gt":
        return curve.prob_gt(t)
    raise ValueError(f"mode must be 'geq' or 'gt', got {mode!r}")


@dataclass(frozen=True)
class SetStats:
    """Exact membership probability, mean distance, and distance law."""

    p_in: float
    rho: float
    distance_curve: TailCurve


@dataclass(frozen=True)
class FunctionalLaw:
    """Full exact law of f(X) plus its summary statistics."""

    values: tuple[float, ...]
    probs: tuple[float, ...]
    stats: Stats
    curve: TailCurve


@dataclass(frozen=True)
class DistanceToSet:
    """Marker quantity: d_alpha(X, A), evaluated in bulk where possible."""

    alpha: AlphaWeights
    target: SetSpec


def _member_matrix(a: SetSpec, space: FiniteSpace) -> np.ndarray:
    members = list(a.members(space))
    if not members:
        raise ValueError("empty set has infinite distance")
    return np.asarray([m.symbols for m in members], dtype=np.int64)


def _distances_to_members(
    symbols: np.ndarray, member_syms: np.ndarray, weights: Sequence[float]
) -> np.ndarray:
    """Min weighted Hamming distance from each row of symbols to the set."""
    w = np.asarray(weights, dtype=np.float64)
    out = np.empty(symbols.shape[0], dtype=np.float64)
    for lo in range(0, symbols.shape[0], _CHUNK):
        block = symbols[lo : lo + _CHUNK]
        neq = block[:, None, :] != member_syms[None, :, :]
        out[lo : lo + block.shape[0]] = (neq @ w).min(axis=1)
    return out


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
    dists = distance_field(alpha, in_set).ravel()
    total = math.fsum(map(float, probs))
    p_in = math.fsum(probs[in_set.ravel()].tolist()) / total
    rho = math.fsum(float(d) * float(p) for d, p in zip(dists, probs)) / total
    return SetStats(p_in, rho, TailCurve.from_law(dists, probs))


def exact_functional_stats(
    space: FiniteSpace, dist: Distribution, f: Functional, cap: int | None = None
) -> FunctionalLaw:
    """Enumerate the law of f(X) exactly; one pass serves stats and curve."""
    symbols, probs = law_arrays(space, dist, cap)
    values = [f.value(Point(tuple(int(s) for s in row))) for row in symbols]
    st = stats_from_law(values, probs)
    curve = TailCurve.from_law(values, probs)
    return FunctionalLaw(tuple(values), tuple(map(float, probs)), st, curve)


def mgf_from_law(
    values: Sequence[float] | np.ndarray,
    probs: Sequence[float] | np.ndarray,
    lam: float,
) -> float:
    """Centered moment generating function E exp(lam * (V - E V)), exactly.

    Self-normalizing: at lam = 0 the numerator and denominator are the
    same compensated sum, so the result is exactly 1.0.
    """
    lam = float(lam)
    vs = [float(v) for v in values]
    ps = [float(p) for p in probs]
    total = math.fsum(ps)
    if total <= 0.0:
        raise ValueError("law has no mass")
    mean = math.fsum(v * p for v, p in zip(vs, ps)) / total
    return math.fsum(p * math.exp(lam * (v - mean)) for v, p in zip(vs, ps)) / total


def exact_mgf(
    space: FiniteSpace,
    dist: Distribution,
    f: Functional,
    lam: float,
    cap: int | None = None,
) -> float:
    """E exp(lam * (f(X) - mu)) by full enumeration, mu computed exactly."""
    symbols, probs = law_arrays(space, dist, cap)
    values = [f.value(Point(tuple(int(s) for s in row))) for row in symbols]
    return mgf_from_law(values, probs, lam)


def hoeffding_half_width(n_samples: int, delta: float) -> float:
    """Two-sided Hoeffding band half-width sqrt(log(2/delta) / (2n))."""
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

    The set-distance quantity is evaluated in vectorized blocks; a plain
    functional is evaluated pointwise.  Bit-reproducible for a given
    seed.
    """
    half = hoeffding_half_width(n_samples, delta)
    symbols = _sample_symbols(space, dist, seed, n_samples)
    if isinstance(quantity, DistanceToSet):
        if quantity.alpha.n != space.n:
            raise ValueError(
                f"alpha has {quantity.alpha.n} weights, space has {space.n} coordinates"
            )
        member_syms = _member_matrix(quantity.target, space)
        vals = _distances_to_members(symbols, member_syms, quantity.alpha.weights)
    else:
        vals = np.fromiter(
            (quantity.value(Point(tuple(int(s) for s in row))) for row in symbols),
            dtype=np.float64,
            count=n_samples,
        )
    hits = int(np.count_nonzero(vals >= t))
    return McEstimate(hits / n_samples, half, n_samples, seed, delta)
