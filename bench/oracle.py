"""Independent exact oracle for hamconc reports.

Recomputes, with its own numpy code, the exact quantities a report
derives, so the benchmark never trusts the code it times:

* distances to a set by the separable min-plus distance transform of
  Felzenszwalb & Huttenlocher ("Distance Transforms of Sampled
  Functions", Theory of Computing 8, 2012): weighted Hamming distance
  separates by coordinate, so ``n`` passes
  ``D <- min(D, D.min(axis=i) + alpha_i)`` starting from 0 on A and
  infinity off it give ``d_alpha(x, A)`` for every x;
* means as ``math.fsum`` of value times probability;
* medians by sorting the outcomes and taking running sums of their
  probabilities.

Inputs are plain scenario dicts in the schema of hamconc scenario files.
Only numpy and the standard library are used here; nothing is imported
from hamconc.
"""

from __future__ import annotations

import math

import numpy as np

# A certificate holds when every drop gap is at most its limit plus this
# tolerance; the report's drop flags are defined with it.
CERT_TOL = 1e-12
# A median is a value v with P(f <= v) >= 1/2 - MEDIAN_SLACK (lower end)
# or P(f >= v) >= 1/2 - MEDIAN_SLACK (upper end), as the report defines it.
MEDIAN_SLACK = 1e-12
# Report and oracle may sum in different orders; this relative slack
# absorbs that and nothing more.
RTOL = 1e-9


def weights(scn: dict) -> np.ndarray:
    alpha = scn["alpha"]
    w = np.asarray(alpha["weights"], dtype=np.float64)
    if alpha.get("normalize", False):
        w = w / math.sqrt(math.fsum(float(x) * float(x) for x in w))
    return w


def law(scn: dict) -> np.ndarray:
    """Probability of every outcome, as a tensor of shape alphabet_sizes."""
    sizes = tuple(scn["space"]["alphabet_sizes"])
    dist = scn["distribution"]
    if dist["kind"] == "product":
        p = np.ones(())
        for pmf in dist["pmfs"]:
            p = np.multiply.outer(p, np.asarray(pmf, dtype=np.float64))
        return p
    return np.asarray(dist["joint_table"], dtype=np.float64).reshape(sizes)


def members_mask(members, sizes: tuple[int, ...]) -> np.ndarray:
    mask = np.zeros(sizes, dtype=bool)
    mask[tuple(np.asarray(members, dtype=np.int64).T)] = True
    return mask


def distance_transform(mask: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d_w(x, A) for every x, where A is given as a boolean mask."""
    if not mask.any():
        raise ValueError("empty set has infinite distance")
    d = np.where(mask, 0.0, np.inf)
    for i, wi in enumerate(w):
        d = np.minimum(d, d.min(axis=i, keepdims=True) + wi)
    return d


def functional_values(spec: dict, sizes: tuple[int, ...], w: np.ndarray) -> np.ndarray:
    """Value of a scenario-file functional at every outcome."""
    kind = spec["type"]
    if kind == "table":
        return np.asarray(spec["values"], dtype=np.float64).reshape(sizes)
    if kind == "weighted_sum":
        v = np.zeros(sizes)
        for c, idx in zip(spec["coefficients"], np.indices(sizes)):
            v = v + float(c) * idx
        return v
    if kind == "distance_to_set":
        return distance_transform(members_mask(spec["set"]["members"], sizes), w)
    raise ValueError(f"unknown functional type {kind!r}")


def expectation(values: np.ndarray, probs: np.ndarray) -> float:
    v = values.ravel().tolist()
    p = probs.ravel().tolist()
    return math.fsum(x * q for x, q in zip(v, p)) / math.fsum(p)


def medians(values: np.ndarray, probs: np.ndarray) -> tuple[float, float]:
    """(least v with P(f <= v) >= 1/2, greatest v with P(f >= v) >= 1/2)."""
    v = values.ravel()
    p = probs.ravel()
    order = np.argsort(v, kind="stable")
    v, p = v[order], p[order]
    total = math.fsum(p.tolist())
    half = 0.5 * total - MEDIAN_SLACK
    below = np.cumsum(p)
    above = total - below + p
    lo = float(v[int(np.argmax(below >= half))])
    hi = float(v[int(np.nonzero(above >= half)[0][-1])])
    return lo, hi


def oscillations(values: np.ndarray) -> list[float]:
    """Largest change of f along each axis: max over lines of (max - min)."""
    return [
        float(np.max(values.max(axis=i) - values.min(axis=i)))
        for i in range(values.ndim)
    ]


def _close(problems: list[str], name: str, got, want: float) -> None:
    if not isinstance(got, (int, float)) or not abs(got - want) <= RTOL * max(1.0, abs(want)):
        problems.append(f"{name}: report {got!r}, oracle {want!r}")


def check_report(scn: dict, report: dict, exit_code: int | None = None) -> list[str]:
    """Problems found in one verify report; an empty list means it agrees.

    Checks p_in and rho for set targets; mu, both median ends and each
    sublevel-set rho for median and gap targets; mu and the drop_alpha
    and drop_unit flags for mean targets.  Under a product law every row
    must pass.  Under a joint law rows may fail, because the mean-tail
    and MGF bounds need independent coordinates; the exit code must
    still agree with the rows.
    """
    problems: list[str] = []
    sizes = tuple(scn["space"]["alphabet_sizes"])
    w = weights(scn)
    p = law(scn)
    derived = report["summary"]["derived"]
    target = scn["target"]
    kind = target["kind"]
    if kind == "set":
        mask = members_mask(target["set"]["members"], sizes)
        _close(problems, "p_in", derived["p_in"], math.fsum(p[mask].tolist()) / math.fsum(p.ravel().tolist()))
        _close(problems, "rho", derived["rho"], expectation(distance_transform(mask, w), p))
    else:
        values = functional_values(target["functional"], sizes, w)
        _close(problems, "mu", derived["mu"], expectation(values, p))
        if kind in ("median", "gap"):
            lo, hi = medians(values, p)
            _close(problems, "median_lo", derived["median_lo"], lo)
            _close(problems, "median_hi", derived["median_hi"], hi)
            want = [lo] if lo == hi else [lo, hi]
            got = derived["medians"]
            if len(got) != len(want):
                problems.append(f"medians: report has {len(got)}, oracle {len(want)}")
            for info, m in zip(got, want):
                rho = expectation(distance_transform(values <= m, w), p)
                _close(problems, f"rho_sublevel at m={m!r}", info["rho_sublevel"], rho)
        elif kind == "mean":
            osc = oscillations(values)
            certs = derived["certificates"]
            drop_alpha = all(o <= wi + CERT_TOL for o, wi in zip(osc, w))
            drop_unit = all(o <= 1.0 + CERT_TOL for o in osc)
            if certs["drop_alpha"] is not drop_alpha:
                problems.append(f"drop_alpha: report {certs['drop_alpha']}, oracle {drop_alpha}")
            if certs["drop_unit"] is not drop_unit:
                problems.append(f"drop_unit: report {certs['drop_unit']}, oracle {drop_unit}")
        else:
            problems.append(f"unknown target kind {kind!r}")
    failing = [r for r in report["rows"] if not r["pass"]]
    if failing and scn["distribution"]["kind"] == "product":
        first = failing[0]
        problems.append(
            f"{len(failing)} row(s) fail under a product law, first {first['bound_id']} "
            f"lhs {first['lhs']!r} > bound {first['bound']!r}"
        )
    if report["summary"]["all_pass"] is not (not failing):
        problems.append("summary.all_pass disagrees with the rows")
    if exit_code is not None and exit_code != (1 if failing else 0):
        problems.append(f"exit code {exit_code} with {len(failing)} failing row(s)")
    return problems


def hoeffding_half_width(n_samples: int, delta: float) -> float:
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n_samples))


def tail(values: np.ndarray, probs: np.ndarray, t: float) -> float:
    """P(V >= t), exactly."""
    return math.fsum(probs[values >= t].tolist()) / math.fsum(probs.ravel().tolist())


def check_mc(estimate, exact: float, n_samples: int, delta: float) -> list[str]:
    """The estimate lies within its Hoeffding half-width of the exact tail."""
    problems: list[str] = []
    if estimate.n_samples != n_samples:
        problems.append(f"n_samples {estimate.n_samples}, expected {n_samples}")
    half = hoeffding_half_width(n_samples, delta)
    if not abs(estimate.half_width - half) <= RTOL * half:
        problems.append(f"half_width {estimate.half_width!r}, oracle {half!r}")
    if not abs(estimate.estimate - exact) <= half:
        problems.append(
            f"estimate {estimate.estimate!r} is {abs(estimate.estimate - exact)!r} "
            f"from the exact tail {exact!r}, beyond the half-width {half!r}"
        )
    return problems
