"""Scenario-level verification: exact quantities vs closed-form bounds.

A Scenario binds a finite product space, a distribution, a weight
vector, and one target (a set, or a functional checked around its
median, its mean, or for the mean-median gap).  Each verify_* flow
certifies the structural conditions its bounds assume, computes the
exact left-hand quantities by enumeration, evaluates every applicable
bound on a grid, and returns a BoundReport whose rows record lhs,
bound, slack, and a pass flag at slack tolerance -1e-12.

Reports are deterministic: given the same scenario and seed, the JSON
serialization is byte-identical (no timestamps, floats printed with 17
significant digits, fixed row order).
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass, replace
from typing import ClassVar, Iterable, Union

import numpy as np

from . import bounds
from ._util import Raw, dumps, exact_sum, fmt_float, quote
from .bounds import BoundId
from .estimators import FunctionalLaw, exact_functional_stats, exact_set_stats, mgf_from_law
from .functionals import (
    Functional,
    _drop_certificate,
    _drop_gap_arrays,
    _family_tables,
    _self_bounding_certificate,
    _Table,
    _tabulate,
    # Not called here since the drop flow runs all three drop certificates
    # on one set of gap arrays; the names stay because bench/tracer.py
    # patches them here.
    check_drop_condition,  # noqa: F401
    check_lipschitz,
    check_self_bounding,  # noqa: F401
    drop_infimum_family,
)
from .hamming import AlphaWeights, distance_field
from .space import RNG_NAME, Distribution, FiniteSpace, SetSpec, _rng

__all__ = [
    "PASS_TOL",
    "DEFAULT_LAMBDA_GRID",
    "GENERATOR_KINDS",
    "SetTarget",
    "MedianTarget",
    "GapTarget",
    "MeanTarget",
    "Target",
    "Scenario",
    "BoundRow",
    "BoundReport",
    "default_t_grid",
    "scenario_to_dict",
    "scenario_fingerprint",
    "verify_set",
    "verify_median",
    "verify_gap",
    "verify_drop_functional",
    "verify_scenario",
    "random_scenario",
    "SweepResult",
    "sweep",
]

# A row passes when bound - lhs >= -PASS_TOL; the tolerance only absorbs
# float rounding of exactly-computed rational quantities.
PASS_TOL = 1e-12

# Default t grid: geometric sweep covering both exponent branches and
# the tail-vanishing region beyond the functional's total range.
T_GRID_SIZE = 24
T_GRID_MIN = 0.05
T_GRID_SPAN = 1.2

DEFAULT_LAMBDA_GRID = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)

# Generator/sweep vocabulary; "drop" produces mean-centered targets
# verified through the drop-condition flow.
GENERATOR_KINDS = ("set", "median", "gap", "drop")


@dataclass(frozen=True)
class SetTarget:
    """Verify the set-distance bounds for a fixed nonempty set."""

    set_spec: SetSpec
    kind: ClassVar[str] = "set"


@dataclass(frozen=True)
class MedianTarget:
    """Verify the median-centered tail bounds for a Lipschitz functional."""

    functional: Functional
    kind: ClassVar[str] = "median"


@dataclass(frozen=True)
class GapTarget:
    """Verify the mean-median gap bounds for a Lipschitz functional."""

    functional: Functional
    kind: ClassVar[str] = "gap"


@dataclass(frozen=True)
class MeanTarget:
    """Verify mean-centered tail and MGF bounds under the drop condition."""

    functional: Functional
    kind: ClassVar[str] = "mean"


Target = Union[SetTarget, MedianTarget, GapTarget, MeanTarget]


def _clean_grid(values: Iterable[float], name: str, minimum_exclusive: bool) -> tuple:
    out = sorted({float(v) for v in values})
    if not out:
        raise ValueError(f"{name} must be nonempty when given")
    for v in out:
        if not math.isfinite(v):
            raise ValueError(f"{name} values must be finite, got {v}")
        if minimum_exclusive and v <= 0.0:
            raise ValueError(f"{name} values must be positive, got {v}")
        if not minimum_exclusive and v < 0.0:
            raise ValueError(f"{name} values must be nonnegative, got {v}")
    return tuple(out)


@dataclass(frozen=True)
class Scenario:
    """One testable unit: space, law, weights, target, and grids.

    Grids left as None are resolved per flow: the t grid defaults to
    :func:`default_t_grid` with flow-specific points inserted, the
    lambda grid to DEFAULT_LAMBDA_GRID.  ``seed`` identifies generated
    scenarios and keys reproducibility; exact verification itself draws
    no randomness.
    """

    space: FiniteSpace
    dist: Distribution
    alpha: AlphaWeights
    target: Target
    t_grid: tuple[float, ...] | None = None
    lambda_grid: tuple[float, ...] | None = None
    seed: int = 0
    cap: int | None = None

    def __post_init__(self) -> None:
        if self.alpha.n != self.space.n:
            raise ValueError(
                f"alpha has {self.alpha.n} weights, space has {self.space.n} coordinates"
            )
        self.dist.require_matches(self.space)
        if self.t_grid is not None:
            object.__setattr__(self, "t_grid", _clean_grid(self.t_grid, "t grid", True))
        if self.lambda_grid is not None:
            object.__setattr__(
                self, "lambda_grid", _clean_grid(self.lambda_grid, "lambda grid", False)
            )
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.cap is not None and (not isinstance(self.cap, int) or self.cap < 1):
            raise ValueError(f"cap must be a positive integer, got {self.cap!r}")


def default_t_grid(alpha: AlphaWeights, extras: Iterable[float] = ()) -> tuple:
    """Geometric grid of 24 points from 0.05 to 1.2 * sum(alpha), plus extras.

    Extras (a mean distance rho, a mean-median gap) are inserted when
    positive so the grid always probes the exponent's branch point and
    the shifted bound's validity boundary.
    """
    hi = T_GRID_SPAN * alpha.l1_sum
    if hi <= T_GRID_MIN:
        raise ValueError("weight vector is too small to span the default grid")
    vals = {float(x) for x in np.geomspace(T_GRID_MIN, hi, T_GRID_SIZE)}
    for e in extras:
        e = float(e)
        if math.isfinite(e) and e > 0.0:
            vals.add(e)
    return tuple(sorted(vals))


@dataclass(frozen=True)
class BoundRow:
    """One evaluated inequality: exact lhs against one bound at one point."""

    target_kind: str
    bound_id: str
    lhs: float
    bound: float
    slack: float
    passed: bool
    vacuous: bool
    median_used: float | None = None
    tail: str | None = None
    t: float | None = None
    lam: float | None = None

    def to_dict(self) -> dict:
        return {
            "target_kind": self.target_kind,
            "median_used": self.median_used,
            "tail": self.tail,
            "t": self.t,
            "lambda": self.lam,
            "lhs": self.lhs,
            "bound_id": self.bound_id,
            "bound": self.bound,
            "slack": self.slack,
            "pass": self.passed,
            "vacuous": self.vacuous,
        }

    def _cells(self, num, text, null: str) -> tuple[str, ...]:
        """The values of :meth:`to_dict` as text, in CSV_COLUMNS order.

        Floats go through ``num`` (a :class:`_FloatText` lookup), strings
        through ``text``, absent values become ``null`` and flags are
        written as in JSON: ``(num, quote, "null")`` gives the JSON values,
        ``(num, str, "")`` the CSV cells.
        """
        m, tail, t, lam = self.median_used, self.tail, self.t, self.lam
        return (
            text(self.target_kind),
            null if m is None else num(m),
            null if tail is None else text(tail),
            null if t is None else num(t),
            null if lam is None else num(lam),
            num(self.lhs),
            text(self.bound_id),
            num(self.bound),
            num(self.slack),
            _FLAGS[self.passed],
            _FLAGS[self.vacuous],
        )


CSV_COLUMNS = (
    "target_kind",
    "median_used",
    "tail",
    "t",
    "lambda",
    "lhs",
    "bound_id",
    "bound",
    "slack",
    "pass",
    "vacuous",
)

# One row as a JSON object: the keys of BoundRow.to_dict, in CSV_COLUMNS order.
_ROW_JSON = "{" + ",".join(quote(c) + ":%s" for c in CSV_COLUMNS) + "}"
_REPORT_JSON = (
    '{"fingerprint":%s,"rng":%s,"scenario":%s,"rows":[%s],"summary":%s,"notes":%s}'
)
_FLAGS = ("false", "true")


class _TableText:
    """A scenario dict's functional table, with its JSON text formatted once.

    The text stands in for the table only while the dict still holds
    that very list with the very same float objects, so a report whose
    ``scenario`` a caller has changed is written from the dict as it is.
    """

    def __init__(self, values: list) -> None:
        self.values = values
        self.snapshot = tuple(values)
        self.text = Raw(dumps(values))

    @classmethod
    def of(cls, sd: dict) -> "_TableText | None":
        fd = sd["target"].get("functional")
        return None if fd is None else cls(fd["values"])

    def substitute(self, sd: dict) -> dict:
        """``sd`` with the table replaced by its text, or ``sd`` if the table changed."""
        try:
            tgt = sd["target"]
            fd = tgt["functional"]
            cur = fd["values"]
        except (KeyError, TypeError):
            return sd
        if (
            cur is not self.values
            or len(cur) != len(self.snapshot)
            or not all(map(operator.is_, cur, self.snapshot))
        ):
            return sd
        return {**sd, "target": {**tgt, "functional": {**fd, "values": self.text}}}


class _FloatText(dict):
    """fmt_float with a memo, kept for one report.

    A report's rows repeat their t values, medians, lhs values and many
    bounds: about one float in three is distinct.
    """

    def __missing__(self, x: float) -> str:
        text = self[x] = fmt_float(x)
        return text


def _row(
    target_kind: str,
    bound_id: BoundId,
    lhs: float,
    bound: float,
    *,
    probability: bool = True,
    median_used: float | None = None,
    tail: str | None = None,
    t: float | None = None,
    lam: float | None = None,
) -> BoundRow:
    lhs = float(lhs)
    bound = float(bound)
    slack = bound - lhs
    return BoundRow(
        target_kind=target_kind,
        bound_id=bound_id.value,
        lhs=lhs,
        bound=bound,
        slack=slack,
        passed=slack >= -PASS_TOL,
        vacuous=bool(probability and bound > 1.0),
        median_used=median_used,
        tail=tail,
        t=t,
        lam=lam,
    )


@dataclass(frozen=True)
class BoundReport:
    """All rows for one scenario, with a summary and certificate notes.

    ``summary`` records row counts, the worst slack seen per bound, and
    the derived quantities (membership probability, mean distances,
    mean, medians, gaps) the rows were built from.  Serializations are
    deterministic; JSON and CSV carry identical numeric strings.
    """

    fingerprint: str
    rng: str
    scenario: dict
    rows: tuple[BoundRow, ...]
    summary: dict
    notes: tuple[str, ...] = ()
    # Set by the verify flows: the functional table's text, reused by to_json.
    _table: ClassVar[_TableText | None] = None

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def failing_rows(self) -> tuple[BoundRow, ...]:
        return tuple(r for r in self.rows if not r.passed)

    def to_json(self) -> str:
        num = _FloatText().__getitem__
        rows = ",".join([_ROW_JSON % r._cells(num, quote, "null") for r in self.rows])
        sd = self.scenario if self._table is None else self._table.substitute(self.scenario)
        return _REPORT_JSON % (
            dumps(self.fingerprint),
            dumps(self.rng),
            dumps(sd),
            rows,
            dumps(self.summary),
            dumps(list(self.notes)),
        )

    def to_csv(self) -> str:
        num = _FloatText().__getitem__
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(r._cells(num, str, "")) for r in self.rows]
        return "\r\n".join(lines) + "\r\n"


def _summary(rows: list[BoundRow], derived: dict) -> dict:
    worst: dict[str, float] = {}
    for r in rows:
        cur = worst.get(r.bound_id)
        if cur is None or r.slack < cur:
            worst[r.bound_id] = r.slack
    return {
        "rows": len(rows),
        "failures": sum(1 for r in rows if not r.passed),
        "vacuous_rows": sum(1 for r in rows if r.vacuous),
        "all_pass": all(r.passed for r in rows),
        "worst_slack": dict(sorted(worst.items())),
        "derived": derived,
    }


def _functional_to_dict(f: Functional, space: FiniteSpace, kind: str) -> dict:
    d: dict = {
        "type": "table",
        "values": _tabulate(f.evaluator, space.alphabet_sizes).ravel().tolist(),
    }
    # the drop flow verifies a mean target that has no family with the infimum one
    drop = f.drop_label or ("infimum" if kind == "mean" else None)
    if drop is not None:
        d["drop"] = drop
    if f.self_bounding_params is not None:
        d["params"] = list(f.self_bounding_params)
    return d


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical plain-data form: functionals flattened to value tables,
    weights stored already normalized.  Fingerprints hash this form."""
    if scenario.dist.kind == "product":
        dd: dict = {
            "kind": "product",
            "pmfs": [list(pmf) for pmf in scenario.dist.pmfs],
        }
    else:
        dd = {"kind": "joint", "joint_table": list(scenario.dist.joint_table)}
    tgt = scenario.target
    if isinstance(tgt, SetTarget):
        td: dict = {
            "kind": "set",
            "set": {"members": tgt.set_spec.member_symbols(scenario.space).tolist()},
        }
    else:
        td = {
            "kind": tgt.kind,
            "functional": _functional_to_dict(tgt.functional, scenario.space, tgt.kind),
        }
    return {
        "space": {"alphabet_sizes": list(scenario.space.alphabet_sizes)},
        "distribution": dd,
        "alpha": {"weights": list(scenario.alpha.weights), "normalize": False},
        "target": td,
        "t_grid": list(scenario.t_grid) if scenario.t_grid is not None else None,
        "lambda_grid": (
            list(scenario.lambda_grid) if scenario.lambda_grid is not None else None
        ),
        "seed": scenario.seed,
        "cap": scenario.cap,
    }


def _fingerprint(scenario_dict: dict) -> str:
    return hashlib.sha256(
        dumps(scenario_dict, sort_keys=True).encode("utf-8")
    ).hexdigest()


def scenario_fingerprint(scenario: Scenario) -> str:
    """Hash of the canonical serialization; stable across runs and machines."""
    return _fingerprint(scenario_to_dict(scenario))


def _make_report(
    scenario: Scenario, rows: list[BoundRow], derived: dict, notes: Iterable[str]
) -> BoundReport:
    sd = scenario_to_dict(scenario)
    table = _TableText.of(sd)
    report = BoundReport(
        fingerprint=_fingerprint(sd if table is None else table.substitute(sd)),
        rng=RNG_NAME,
        scenario=sd,
        rows=tuple(rows),
        summary=_summary(rows, derived),
        notes=tuple(notes),
    )
    object.__setattr__(report, "_table", table)
    return report


def _require_unit_alpha(alpha: AlphaWeights) -> None:
    if not alpha.normalized:
        raise ValueError(
            f"theorems require ||α||=1; the weight norm is {fmt_float(alpha.l2_norm)} "
            "(normalize the weights first)"
        )


def _require_product(dist: Distribution, what: str) -> None:
    if dist.kind != "product":
        raise ValueError(
            f"{what} require independent coordinates (a product distribution); "
            "got a joint table"
        )


def _certify_lipschitz(
    f: Functional, alpha: AlphaWeights, space: FiniteSpace
) -> list[str]:
    """Certify the Lipschitz property edge by edge, or raise with the edge."""
    cert = check_lipschitz(f, alpha, space)
    if not cert.holds:
        a, b = cert.witness
        raise ValueError(
            "functional is not Lipschitz for the weighted Hamming distance: "
            f"|f(x) - f(x')| exceeds d_alpha(x, x') by {fmt_float(cert.worst_slack)} "
            f"at x={a.symbols}, x'={b.symbols}"
        )
    return [f"lipschitz certified directly (worst slack {fmt_float(cert.worst_slack)})"]


def _tabulated(scenario: Scenario) -> tuple[Scenario, FunctionalLaw]:
    """The exact law of the scenario's functional, and the scenario with
    that functional evaluated by the law's values as its table.

    The cap is checked before the functional is evaluated, and it is
    evaluated once: the certificates and the report read that table.
    """
    tgt = scenario.target
    law = exact_functional_stats(scenario.space, scenario.dist, tgt.functional, scenario.cap)
    table = _Table(law.values.reshape(scenario.space.alphabet_sizes))
    f = replace(tgt.functional, evaluator=table)
    return replace(scenario, target=replace(tgt, functional=f)), law


def verify_set(scenario: Scenario) -> BoundReport:
    """Set-distance bounds: three tail rows per t plus one membership row.

    For each t: lhs = P(X in A) * P(d_alpha(X, A) >= t) against the
    classical exp(-t^2/2), the intermediate exp(-t^2), and the piecewise
    exp(-h(t, rho)) bounds, rho being the exact mean distance to A.  The
    final row checks P(X in A) * P(X not in A) <= exp(-2 rho^2).
    """
    tgt = scenario.target
    if not isinstance(tgt, SetTarget):
        raise ValueError("verify_set needs a scenario with a set target")
    _require_unit_alpha(scenario.alpha)
    _require_product(scenario.dist, "the set-distance bounds")
    st = exact_set_stats(
        scenario.space, scenario.dist, scenario.alpha, tgt.set_spec, scenario.cap
    )
    ts = scenario.t_grid or default_t_grid(scenario.alpha, extras=(st.rho,))
    rows: list[BoundRow] = []
    for t in ts:
        lhs = st.p_in * st.distance_curve.prob_ge(t)
        rows.append(_row("set", BoundId.MCD_SET, lhs, bounds.mcdiarmid_set_bound(t), t=t))
        rows.append(_row("set", BoundId.SIMPLE_SET, lhs, bounds.simple_set_bound(t), t=t))
        rows.append(
            _row("set", BoundId.IMPROVED_SET, lhs, bounds.improved_set_bound(t, st.rho), t=t)
        )
    rows.append(
        _row(
            "set",
            BoundId.MEMBERSHIP_PRODUCT,
            st.p_in * (1.0 - st.p_in),
            bounds.membership_product_bound(st.rho),
        )
    )
    derived = {"p_in": st.p_in, "rho": st.rho}
    return _make_report(scenario, rows, derived, ())


def _median_infos(scenario: Scenario, law: FunctionalLaw) -> list[dict]:
    """Per-median derived quantities: rho for both level sets and the gap.

    rho_sublevel is the mean distance to {f <= m}, rho_superlevel the
    mean distance to {f >= m}; both sets carry mass at least 1/2.
    """
    values = law.values.reshape(scenario.space.alphabet_sizes)

    def rho(in_set: np.ndarray) -> float:
        dists = distance_field(scenario.alpha, in_set).ravel()
        return exact_sum(dists * law.probs) / law.curve.total

    medians = [law.stats.median_lo]
    if law.stats.median_hi != law.stats.median_lo:
        medians.append(law.stats.median_hi)
    return [
        {
            "median": m,
            "rho_sublevel": rho(values <= m),
            "rho_superlevel": rho(values >= m),
            "gap": abs(m - law.stats.mean),
        }
        for m in medians
    ]


def _median_law(
    scenario: Scenario, target_type: type
) -> tuple[Scenario, FunctionalLaw, list[dict], dict, list[str]]:
    """The start shared by the median and gap flows.

    Checks the target and the hypotheses (unit weights, independent
    coordinates), enumerates the exact law, certifies the functional
    Lipschitz and computes the per-median quantities.  Returns the
    scenario from :func:`_tabulated`, the law, the per-median infos, the
    report's ``derived`` dict and the notes.
    """
    kind = target_type.kind
    if not isinstance(scenario.target, target_type):
        raise ValueError(f"verify_{kind} needs a scenario with a {kind} target")
    _require_unit_alpha(scenario.alpha)
    _require_product(scenario.dist, f"the {kind} bounds")
    scenario, law = _tabulated(scenario)
    notes = _certify_lipschitz(scenario.target.functional, scenario.alpha, scenario.space)
    infos = _median_infos(scenario, law)
    derived = {
        "mu": law.stats.mean,
        "median_lo": law.stats.median_lo,
        "median_hi": law.stats.median_hi,
        "medians": infos,
    }
    return scenario, law, infos, derived, notes


def verify_median(scenario: Scenario) -> BoundReport:
    """Median-centered tail bounds at both median endpoints.

    Per median m and per t: upper rows check P(f - m >= t), lower rows
    P(m - f >= t), each against 2*exp(-h(t, rho)) and the classical
    2*exp(-t^2/2); shifted rows reuse the mean-centered bound
    exp(-2(t - gap)^2) and only exist for t > gap = |m - mu|.

    Upper rows take rho from the sublevel set {f <= m}: it has mass at
    least 1/2, and {f >= m + t} lies at distance at least t from it.
    Lower rows take rho from the superlevel set {f >= m}, for the same
    reason with {f <= m - t}.
    """
    scenario, law, infos, derived, notes = _median_law(scenario, MedianTarget)
    extras = [info[k] for info in infos for k in ("rho_sublevel", "rho_superlevel", "gap")]
    ts = scenario.t_grid or default_t_grid(scenario.alpha, extras=extras)
    rows: list[BoundRow] = []
    for info in infos:
        m, gap = info["median"], info["gap"]
        for t in ts:
            for tail, lhs, rho in (
                ("upper", law.curve.prob_ge(m + t), info["rho_sublevel"]),
                ("lower", law.curve.prob_le(m - t), info["rho_superlevel"]),
            ):
                pairs = [
                    (BoundId.MEDIAN_IMPROVED, bounds.median_tail_bound(t, rho)),
                    (BoundId.MEDIAN_CLASSICAL, bounds.median_tail_classical(t)),
                ]
                if t > gap:
                    shifted = bounds.shifted_median_bound(t, gap)
                    pairs.append((BoundId.SHIFTED_MEDIAN, shifted))
                rows += [
                    _row("median", bid, lhs, b, median_used=m, tail=tail, t=t)
                    for bid, b in pairs
                ]
    notes.append(
        "upper tail rows use rho from the sublevel set {f <= m}, "
        "lower tail rows rho from the superlevel set {f >= m}"
    )
    return _make_report(scenario, rows, derived, notes)


def verify_gap(scenario: Scenario) -> BoundReport:
    """Mean-median gap bounds at both median endpoints.

    lhs = |mu - m| against (2*rho + sqrt(pi/2))*exp(-2*rho^2), and against
    the rho-free sqrt(2*pi).  rho is taken on the side the gap falls on:
    mu - m integrates the upper median tail, bounded with rho from the
    sublevel set {f <= m}; m - mu the lower tail, with rho from the
    superlevel set {f >= m}.
    """
    scenario, law, infos, derived, notes = _median_law(scenario, GapTarget)
    rows: list[BoundRow] = []
    for info in infos:
        m = info["median"]
        lhs = abs(law.stats.mean - m)
        rho = info["rho_sublevel" if law.stats.mean >= m else "rho_superlevel"]
        pairs = (
            (BoundId.GAP_IMPROVED, bounds.gap_bound(rho)),
            (BoundId.GAP_CLASSICAL, bounds.gap_bound_classical()),
        )
        rows += [
            _row("gap", bid, lhs, b, probability=False, median_used=m)
            for bid, b in pairs
        ]
    return _make_report(scenario, rows, derived, notes)


def verify_drop_functional(scenario: Scenario) -> BoundReport:
    """Mean-centered bounds under the coordinate-drop condition.

    The distribution may be a joint table: the drop-condition rows are
    stated without an independence hypothesis, so they are emitted (and
    checked) under dependence as well.  Rows per t: both tails against
    exp(-2t^2) when the drop gaps stay within alpha, and against
    exp(-2t^2/n) when they stay within 1.  MGF rows compare the exact
    centered moment generating function with exp(lambda^2/8).  When
    self-bounding parameters are present the distribution must be a
    product and the (a, b) conditions must certify; that adds the
    sb-upper/sb-lower rows.

    After the cap check, a target without a drop family gets the
    infimum family of the law's table; a supplied one is tabulated once.
    """
    if not isinstance(scenario.target, MeanTarget):
        raise ValueError("verify_drop_functional needs a scenario with a mean target")
    _require_unit_alpha(scenario.alpha)
    space = scenario.space
    scenario, law = _tabulated(scenario)
    f = scenario.target.functional
    if f.drop_family is None:
        f = drop_infimum_family(f, space)
    else:
        f = replace(f, drop_family=tuple(map(_Table, _family_tables(f, space))))
    gaps = _drop_gap_arrays(f, space)
    cert_alpha = _drop_certificate(gaps, scenario.alpha, space)
    cert_unit = _drop_certificate(gaps, AlphaWeights((1.0,) * space.n), space)
    notes = [
        f"drop certificate vs alpha: holds={cert_alpha.holds} "
        f"(worst slack {fmt_float(cert_alpha.worst_slack)})",
        f"drop certificate vs unit increments: holds={cert_unit.holds} "
        f"(worst slack {fmt_float(cert_unit.worst_slack)})",
    ]
    if not cert_alpha.holds and not cert_unit.holds:
        w = cert_alpha.witness
        raise ValueError(
            "drop condition fails for both the weight vector and unit increments "
            f"(worst slacks {fmt_float(cert_alpha.worst_slack)} and "
            f"{fmt_float(cert_unit.worst_slack)}; witness x={w.symbols if w else None})"
        )
    params = f.self_bounding_params
    cert_sb = None
    if params is not None:
        _require_product(scenario.dist, "the self-bounding bounds")
        cert_sb = _self_bounding_certificate(gaps, law.values, params, space)
        if not cert_sb.holds:
            w = cert_sb.witness
            raise ValueError(
                f"self-bounding conditions fail for params (a={fmt_float(params[0])}, "
                f"b={fmt_float(params[1])}): worst sum slack "
                f"{fmt_float(cert_sb.worst_slack)}, witness x={w.symbols if w else None}"
            )
        notes.append(
            f"self-bounding certificate holds (worst sum slack {fmt_float(cert_sb.worst_slack)})"
        )
    del gaps
    mu = law.stats.mean
    ts = scenario.t_grid or default_t_grid(scenario.alpha)
    lams = scenario.lambda_grid or DEFAULT_LAMBDA_GRID
    rows: list[BoundRow] = []
    for t in ts:
        upper = law.curve.prob_ge(mu + t)
        lower = law.curve.prob_le(mu - t)
        cells = []
        if cert_alpha.holds:
            b = bounds.drop_mean_tail_bound(t)
            cells += [
                (BoundId.DROP_MEAN_TAIL, "upper", upper, b),
                (BoundId.DROP_MEAN_TAIL, "lower", lower, b),
            ]
        if cert_unit.holds:
            b = bounds.drop_mean_tail_scaled(t, space.n)
            cells += [
                (BoundId.DROP_MEAN_TAIL_SCALED, "upper", upper, b),
                (BoundId.DROP_MEAN_TAIL_SCALED, "lower", lower, b),
            ]
        if cert_sb is not None:
            cells += [
                (BoundId.SB_UPPER, "upper", upper, bounds.sb_upper_bound(t, mu, *params)),
                (BoundId.SB_LOWER, "lower", lower, bounds.sb_lower_bound(t, mu, *params)),
            ]
        rows += [
            _row("mean", bid, lhs, b, tail=tail, t=t) for bid, tail, lhs, b in cells
        ]
    if cert_alpha.holds:
        rows += [
            _row(
                "mean",
                BoundId.MGF,
                mgf_from_law(law.values, law.probs, lam, mu),
                bounds.mgf_bound(lam),
                probability=False,
                lam=lam,
            )
            for lam in lams
        ]
    derived = {
        "mu": mu,
        "n": space.n,
        "drop_family": f.drop_label,
        "certificates": {
            "drop_alpha": cert_alpha.holds,
            "drop_unit": cert_unit.holds,
            "self_bounding": None if cert_sb is None else cert_sb.holds,
        },
    }
    return _make_report(scenario, rows, derived, notes)


def verify_scenario(scenario: Scenario) -> BoundReport:
    """Route a scenario to the flow its target asks for."""
    tgt = scenario.target
    if isinstance(tgt, SetTarget):
        return verify_set(scenario)
    if isinstance(tgt, MedianTarget):
        return verify_median(scenario)
    if isinstance(tgt, GapTarget):
        return verify_gap(scenario)
    if isinstance(tgt, MeanTarget):
        return verify_drop_functional(scenario)
    raise ValueError(f"unknown target type {type(tgt).__name__}")


def _random_lipschitz_table(
    rng: np.random.Generator, space: FiniteSpace, alpha: AlphaWeights
) -> list[float]:
    """A random table that is Lipschitz for d_alpha by construction.

    Either a weighted coordinate sum sum_i alpha_i * theta_i * v_i(x_i)
    with per-symbol values v_i in [0, 1] (each coordinate change moves f
    by at most alpha_i), or an inf-convolution min_j (c_j + d_alpha(x, y_j))
    over random anchor points, which is Lipschitz as a minimum of
    Lipschitz functions.
    """
    symbols = np.indices(space.alphabet_sizes, dtype=np.int64).reshape(space.n, -1).T
    w = np.asarray(alpha.weights, dtype=np.float64)
    if rng.random() < 0.5:
        total = np.zeros(space.size, dtype=np.float64)
        for i, k in enumerate(space.alphabet_sizes):
            v = rng.uniform(0.0, 1.0, k)
            theta = 1.0 if rng.random() < 0.5 else -1.0
            total += w[i] * theta * v[symbols[:, i]]
        return [float(x) for x in total]
    n_anchors = int(rng.integers(1, min(space.size, 4) + 1))
    anchor_ranks = rng.choice(space.size, size=n_anchors, replace=False)
    anchors = symbols[np.sort(anchor_ranks)]
    offsets = rng.uniform(0.0, alpha.l1_sum, n_anchors)
    dists = ((symbols[:, None, :] != anchors[None, :, :]) @ w) + offsets[None, :]
    return [float(x) for x in dists.min(axis=1)]


def random_scenario(
    seed: int, kind: str, max_n: int = 4, max_alphabet: int = 3
) -> Scenario:
    """Deterministic random scenario for soundness sweeps.

    kind selects the target: "set", "median", "gap", or "drop".  Set,
    median, and gap scenarios always draw product distributions (their
    flows require independence); drop scenarios draw a joint table half
    the time, exercising the dependence-free form of the drop rows.
    """
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"kind must be one of {GENERATOR_KINDS}, got {kind!r}")
    if max_n < 1 or max_alphabet < 2:
        raise ValueError("limits need max_n >= 1 and max_alphabet >= 2")
    if max_alphabet**max_n > 4096:
        raise ValueError("limits allow more than 4096 outcomes")
    rng = _rng(seed)
    n = int(rng.integers(2, max_n + 1)) if max_n >= 2 else 1
    sizes = tuple(int(x) for x in rng.integers(2, max_alphabet + 1, n))
    space = FiniteSpace(sizes)
    use_joint = kind == "drop" and bool(rng.random() < 0.5)
    if use_joint:
        table = rng.uniform(0.1, 1.0, space.size)
        table /= table.sum()
        dist = Distribution.joint(tuple(float(x) for x in table))
    else:
        pmfs = []
        for k in sizes:
            p = rng.uniform(0.1, 1.0, k)
            p /= p.sum()
            pmfs.append(tuple(float(x) for x in p))
        dist = Distribution.product(tuple(pmfs))
    w = rng.uniform(0.1, 1.0, n)
    w /= math.sqrt(float(np.dot(w, w)))
    alpha = AlphaWeights(tuple(float(x) for x in w))
    if kind == "set":
        count = int(rng.integers(1, space.size))
        ranks = rng.choice(space.size, size=count, replace=False)
        members = np.stack(np.unravel_index(ranks, sizes), axis=1).tolist()
        target: Target = SetTarget(SetSpec(members))
    else:
        f = Functional.from_table(space, _random_lipschitz_table(rng, space, alpha))
        if kind == "median":
            target = MedianTarget(f)
        elif kind == "gap":
            target = GapTarget(f)
        else:
            target = MeanTarget(f)
    return Scenario(space=space, dist=dist, alpha=alpha, target=target, seed=seed)


@dataclass(frozen=True)
class SweepResult:
    """Outcome of a randomized soundness sweep."""

    kind: str
    trials: int
    passes: int
    failing_seeds: tuple[int, ...]
    worst_slack: float
    worst_seed: int
    joint_count: int

    @property
    def all_pass(self) -> bool:
        return self.passes == self.trials


def sweep(
    kind: str,
    trials: int,
    seed: int = 0,
    *,
    max_n: int = 4,
    max_alphabet: int = 3,
) -> SweepResult:
    """Verify `trials` random scenarios; trial i uses seed `seed + i`.

    Scenarios run in trial order and results are reduced in that order,
    so the outcome is deterministic for a given starting seed.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    passes = 0
    failing: list[int] = []
    worst = math.inf
    worst_seed = seed
    joint_count = 0
    for i in range(trials):
        sc = random_scenario(seed + i, kind, max_n, max_alphabet)
        if sc.dist.kind == "joint":
            joint_count += 1
        report = verify_scenario(sc)
        if report.all_pass:
            passes += 1
        else:
            failing.append(sc.seed)
        for r in report.rows:
            if r.slack < worst:
                worst = r.slack
                worst_seed = sc.seed
    return SweepResult(
        kind=kind,
        trials=trials,
        passes=passes,
        failing_seeds=tuple(failing),
        worst_slack=worst,
        worst_seed=worst_seed,
        joint_count=joint_count,
    )
