"""Exact enumeration and Monte Carlo estimation of the quantities bounded.

Exact results come from a full sweep of the outcome space (guarded by
the enumeration cap) and are aggregated with correctly rounded sums
(:func:`~hamconc._util.exact_sum`, equal to ``math.fsum``), so tail
probabilities at points beyond the support are exactly 0.0 and the
total mass is exactly 1.0.  A functional is evaluated in bulk, once
over the whole space (a table functional is read in place) or over a
sample matrix.  The Monte Carlo path reports a two-sided
confidence half-width from Hoeffding's inequality, which makes the
cross-check against exact values a testable contract rather than a
matter of eyeballing.  It never tabulates the space: a set is its
member array, and distances to it are summed per coordinate against
that array in blocks of bounded size, so its memory does not grow with
the sample count, and each sampled distance is bit-identical to the
exact one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._util import exact_layers, exact_sum, frozen
from .functionals import Functional, Stats, _law_atoms, _tabulate, stats_from_law
from .hamming import AlphaWeights, distance_field
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
    "mgf_from_law",
    "hoeffding_half_width",
    "mc_tail",
    "MC_DEFAULT_N",
    "MC_DEFAULT_DELTA",
]

MC_DEFAULT_N = 10**5
MC_DEFAULT_DELTA = 0.01

# Bytes of one block of partial distances (sampled rows x set members).
_BLOCK_BYTES = 1 << 20


class TailCurve:
    """Cumulative views of a discrete real law, queryable at any point.

    ``support`` holds the distinct outcome values in strictly increasing
    order and ``masses`` the (unnormalized) probability on each, both as
    read-only float64 arrays; queries divide by ``total`` so the curve is
    a probability even when the input weights do not quite sum to one.

    Every prefix and suffix mass is the correctly rounded sum of its
    masses: the masses are split once into the exact layers of
    :func:`~hamconc._util.exact_layers`, whose running sums from either
    end are exact, and a query adds one value per layer with
    ``math.fsum``.  Queries past either end of the support return
    exactly 0.0, which is what makes "tail vanishes past the range"
    checks exact rather than approximate.
    """

    def __init__(self, support, masses, total: float) -> None:
        self._v = frozen(np.array(support, dtype=np.float64))
        self._m = frozen(np.array(masses, dtype=np.float64))
        self.total = float(total)
        layers, rest = exact_layers(self._m)
        parts = np.stack(layers, axis=1) if layers else np.zeros((self._m.size, 1))
        # Row i, one exact value per layer: the mass on support points
        # 0..i (_pre) and on points i and above (_suf).
        self._pre = np.cumsum(parts, axis=0)
        self._suf = np.cumsum(parts[::-1], axis=0)[::-1]
        # Masses too large to split (None for any probability law).
        self._rest = rest

    @classmethod
    def from_law(
        cls,
        values: Sequence[float] | np.ndarray,
        probs: Sequence[float] | np.ndarray,
        atoms: tuple[np.ndarray, np.ndarray, float] | None = None,
    ) -> "TailCurve":
        """The curve of a law given by parallel value/probability arrays.

        ``atoms`` is the law's ``_law_atoms(values, probs)``, when the
        caller already has it.
        """
        return cls(*(atoms or _law_atoms(values, probs)))

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
        """Mass on support points i and above."""
        parts = self._suf[i].tolist()
        if self._rest is not None:
            parts += self._rest[i:].tolist()
        return math.fsum(parts)

    @property
    def cdf(self) -> tuple[float, ...]:
        """P(V <= v) at each support point."""
        return tuple(self._prefix(i) / self.total for i in range(self._v.size))

    def prob_ge(self, x: float) -> float:
        """P(V >= x)."""
        idx = int(np.searchsorted(self._v, x, side="left"))
        if idx >= self._v.size:
            return 0.0
        return self._suffix(idx) / self.total

    def prob_gt(self, x: float) -> float:
        """P(V > x)."""
        idx = int(np.searchsorted(self._v, x, side="right"))
        if idx >= self._v.size:
            return 0.0
        return self._suffix(idx) / self.total

    def prob_le(self, x: float) -> float:
        """P(V <= x)."""
        idx = int(np.searchsorted(self._v, x, side="right")) - 1
        if idx < 0:
            return 0.0
        return self._prefix(idx) / self.total

    def prob_lt(self, x: float) -> float:
        """P(V < x)."""
        idx = int(np.searchsorted(self._v, x, side="left")) - 1
        if idx < 0:
            return 0.0
        return self._prefix(idx) / self.total

    def expectation(self) -> float:
        """Mean of the law, from the stored atoms."""
        return exact_sum(self._v * self._m) / self.total

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
    """Full exact law of f(X) plus its summary statistics.

    ``values`` and ``probs`` are read-only float64 arrays over the
    outcomes, in rank order.
    """

    values: np.ndarray
    probs: np.ndarray
    stats: Stats
    curve: TailCurve


@dataclass(frozen=True)
class DistanceToSet:
    """Marker quantity: d_alpha(X, A), evaluated in bulk where possible."""

    alpha: AlphaWeights
    target: SetSpec


def _sampled_distances(
    symbols: np.ndarray, members: np.ndarray, alpha: AlphaWeights, sizes: Sequence[int]
) -> np.ndarray:
    """d_alpha(x, A) for each row x of the (N, n) ``symbols`` matrix.

    ``tabs[i][s, j]`` is alpha_i when symbol s differs from member j at
    coordinate i, else 0.  Each block of rows sums those contributions
    in coordinate order, as :func:`~hamconc.hamming.hamming_distance`
    does (adding 0.0 changes no sum), so every distance is bit-identical
    to ``distance_to_set`` and ``distance_field``.  Blocks hold about
    ``_BLOCK_BYTES`` of partial sums, so memory does not grow with N.
    """
    tabs = [
        np.where(np.arange(m)[:, None] != members[:, i], w, 0.0)
        for i, (m, w) in enumerate(zip(sizes, alpha.weights))
    ]
    rows = max(1, _BLOCK_BYTES // (8 * members.shape[0]))
    out = np.empty(symbols.shape[0], dtype=np.float64)
    for lo in range(0, symbols.shape[0], rows):
        block = symbols[lo : lo + rows]
        d = tabs[0][block[:, 0]]
        for i in range(1, len(tabs)):
            d += tabs[i][block[:, i]]
        out[lo : lo + block.shape[0]] = d.min(axis=1)
    return out


def _sampled_values(
    space: FiniteSpace, quantity: "Functional | DistanceToSet", symbols: np.ndarray
) -> np.ndarray:
    """The quantity at each row of the (N, n) ``symbols`` matrix."""
    if isinstance(quantity, DistanceToSet):
        if quantity.alpha.n != space.n:
            raise ValueError(
                f"alpha has {quantity.alpha.n} weights, space has {space.n} coordinates"
            )
        members = quantity.target.member_symbols(space)
        if not len(members):
            raise ValueError("empty set has infinite distance")
        return _sampled_distances(symbols, members, quantity.alpha, space.alphabet_sizes)
    return quantity.values(tuple(symbols.T))


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
    atoms = _law_atoms(dists, probs)
    total = atoms[2]
    p_in = exact_sum(probs[in_set.ravel()]) / total
    rho = exact_sum(dists * probs) / total
    return SetStats(p_in, rho, TailCurve.from_law(dists, probs, atoms))


def exact_functional_stats(
    space: FiniteSpace, dist: Distribution, f: Functional, cap: int | None = None
) -> FunctionalLaw:
    """Enumerate the law of f(X) exactly; one set of atoms serves stats and curve.

    The cap is checked before f is evaluated; a table f is read in place.
    """
    _, probs = law_arrays(space, dist, cap)
    values = _tabulate(f.evaluator, space.alphabet_sizes).ravel()
    atoms = _law_atoms(values, probs)
    st = stats_from_law(values, probs, atoms)
    curve = TailCurve.from_law(values, probs, atoms)
    return FunctionalLaw(frozen(values), frozen(probs), st, curve)


def mgf_from_law(
    values: Sequence[float] | np.ndarray,
    probs: Sequence[float] | np.ndarray,
    lam: float,
    mean: float | None = None,
) -> float:
    """Centered moment generating function E exp(lam * (V - E V)), exactly.

    ``mean`` is E V when the caller has it (it must be the exact mean,
    ``exact_sum(values * probs) / exact_sum(probs)``, as
    :func:`stats_from_law` computes it).  Each term is
    ``p * math.exp(lam * (v - mean))`` with the same IEEE operations as
    a per-outcome loop, and the sums are correctly rounded.
    Self-normalizing: at lam = 0 the numerator and denominator are the
    same sum, so the result is exactly 1.0.
    """
    lam = float(lam)
    v = np.asarray(values, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    total = exact_sum(p)
    if total <= 0.0:
        raise ValueError("law has no mass")
    if mean is None:
        mean = exact_sum(v * p) / total
    e = np.fromiter(map(math.exp, (lam * (v - mean)).tolist()), np.float64, v.size)
    return exact_sum(p * e) / total


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

    The samples are one (n_samples, n) matrix and q is evaluated on it
    in bulk: a functional through :meth:`Functional.values` (table and
    weighted-sum functionals without a Point per sample, a plain
    callable point by point), the distance to a set by summing
    per-coordinate contributions against the member list in blocks of
    about 1 MB, bit-identical to the exact distance.  The space is not
    tabulated, so this path also serves spaces past the enumeration
    cap.  Bit-reproducible for a given seed.
    """
    half = hoeffding_half_width(n_samples, delta)
    symbols = _sample_symbols(space, dist, seed, n_samples)
    vals = _sampled_values(space, quantity, symbols)
    hits = int(np.count_nonzero(vals >= t))
    return McEstimate(hits / n_samples, half, n_samples, seed, delta)
