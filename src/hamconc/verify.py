"""Scenario-level verification: exact quantities vs closed-form bounds.

Each verify_* flow takes a :class:`~hamconc.scenario_io.Scenario`,
certifies the structural conditions its bounds assume, computes the
exact left-hand quantities by enumeration, evaluates every applicable
bound on a grid, and returns a BoundReport whose rows record lhs,
bound, slack, and a pass flag at slack tolerance -1e-12.  The report's
``scenario`` block is :func:`~hamconc.scenario_io.scenario_to_dict` of
the scenario and its fingerprint that block's digest; the scenario type
and its file form live in :mod:`hamconc.scenario_io` and are imported
here under the same names.

Reports are deterministic: given the same scenario and seed, the JSON
serialization is byte-identical (no timestamps, floats printed with 17
significant digits, fixed row order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import bounds
from ._util import dumps, fmt_float, fmt_floats, quote
from .bounds import EVALUATORS
from .estimators import FunctionalLaw, exact_functional_stats, exact_set_stats, mgf_from_law
from .functionals import (
    Functional,
    _Table,
    check_drop_condition,
    check_lipschitz,
    check_self_bounding,
)
from .hamming import AlphaWeights, distance_field
# The scenario type and its file form, re-exported.  _make_report looks
# scenario_to_dict up in this module, so a wrapper set on it here sees each report.
from .scenario_io import (  # noqa: F401
    GapTarget,
    MeanTarget,
    MedianTarget,
    Scenario,
    SetTarget,
    Target,
    _fingerprint,
    scenario_fingerprint,
    scenario_to_dict,
)
from .space import RNG_NAME, Distribution, FiniteSpace, SetSpec, _require_ints, _rng

__all__ = [
    "PASS_TOL",
    "DEFAULT_LAMBDA_GRID",
    "GENERATOR_KINDS",
    "BoundRow",
    "BoundReport",
    "default_t_grid",
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


class BoundRow(NamedTuple):
    """One evaluated inequality, a named tuple: exact lhs against one bound at one point."""

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

# The BoundRow field behind each of CSV_COLUMNS, and the fields of each kind.
_COLUMN_FIELDS = tuple({"lambda": "lam", "pass": "passed"}.get(c, c) for c in CSV_COLUMNS)
_NUM_FIELDS = ("median_used", "t", "lam", "lhs", "bound", "slack")
_TEXT_FIELDS = ("target_kind", "tail", "bound_id")
# One row as a JSON object: the keys of BoundRow.to_dict, in CSV_COLUMNS order.
_ROW_JSON = "{" + ",".join(quote(c) + ":%s" for c in CSV_COLUMNS) + "}"
_REPORT_JSON = (
    '{"fingerprint":%s,"rng":%s,"scenario":%s,"rows":[%s],"summary":%s,"notes":%s}'
)
_FLAGS = ("false", "true")


def _row_cells(rows: tuple[BoundRow, ...], text, null: str) -> Iterator[tuple[str, ...]]:
    """Each row's cells as text, in CSV_COLUMNS order, read column by column
    through one memo of the distinct values (about one float in three).
    Strings go through ``text``, None is ``null`` and flags are as in JSON:
    ``(quote, "null")`` gives the JSON cells, ``(str, "")`` the CSV cells."""
    fields = dict(zip(BoundRow._fields, zip(*rows))) or dict.fromkeys(BoundRow._fields, ())
    nums = dict.fromkeys(chain.from_iterable(map(fields.get, _NUM_FIELDS)))
    texts = dict.fromkeys(chain.from_iterable(map(fields.get, _TEXT_FIELDS)))
    nums.pop(None, None)
    texts.pop(None, None)
    try:
        memo = dict(zip(nums, fmt_floats(nums).split(",")))
        memo.update(zip(texts, map(text, texts)))
    except (TypeError, ValueError):
        # A non-finite number or one of another type: name the first in row order.
        for r in rows:
            for x in map(r._asdict().get, _NUM_FIELDS):
                if x is not None:
                    fmt_float(x)
        raise
    memo[None] = null
    lookups = [_FLAGS if f in ("passed", "vacuous") else memo for f in _COLUMN_FIELDS]
    return zip(*[map(d.__getitem__, fields[f]) for d, f in zip(lookups, _COLUMN_FIELDS)])


def _row(
    target_kind: str,
    bound_id: str,
    lhs: float,
    bound: float,
    *,
    median_used: float | None = None,
    tail: str | None = None,
    t: float | None = None,
    lam: float | None = None,
) -> BoundRow:
    """A row of the bound ``bound_id``, vacuous when its value is a probability above 1."""
    lhs = float(lhs)
    bound = float(bound)
    slack = bound - lhs
    return BoundRow(
        target_kind, bound_id, lhs, bound, slack, slack >= -PASS_TOL,
        EVALUATORS[bound_id].probability and bound > 1.0, median_used, tail, t, lam,
    )


@dataclass(frozen=True)
class BoundReport:
    """All rows for one scenario, with a summary and certificate notes.

    ``summary`` records row counts, the worst slack seen per bound, and
    the derived quantities (membership probability, mean distances,
    mean, medians, gaps) the rows were built from.  Serializations are
    deterministic; JSON and CSV carry identical numeric strings.
    ``scenario`` is the :func:`scenario_to_dict` form, its functional
    written as declared, a set's members a read-only int64 array and a
    table's values and a joint law's table read-only float64 arrays,
    and is written to JSON as it is at the call.
    """

    fingerprint: str
    rng: str
    scenario: dict
    rows: tuple[BoundRow, ...]
    summary: dict
    notes: tuple[str, ...] = ()

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def failing_rows(self) -> tuple[BoundRow, ...]:
        return tuple(r for r in self.rows if not r.passed)

    def to_json(self) -> str:
        rows = ",".join(map(_ROW_JSON.__mod__, _row_cells(self.rows, quote, "null")))
        return _REPORT_JSON % (
            dumps(self.fingerprint),
            dumps(self.rng),
            dumps(self.scenario),
            rows,
            dumps(self.summary),
            dumps(list(self.notes)),
        )

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS), *map(",".join, _row_cells(self.rows, str, ""))]
        return "\r\n".join(lines) + "\r\n"


def _summary(rows: list[BoundRow], derived: dict) -> dict:
    worst: dict[str, float] = {}
    for r in rows:
        cur = worst.get(r.bound_id)
        if cur is None or r.slack < cur:
            worst[r.bound_id] = r.slack
    failures = [r.passed for r in rows].count(False)
    return {
        "rows": len(rows),
        "failures": failures,
        "vacuous_rows": [r.vacuous for r in rows].count(True),
        "all_pass": not failures,
        "worst_slack": dict(sorted(worst.items())),
        "derived": derived,
    }


def _make_report(
    scenario: Scenario,
    rows: list[BoundRow],
    derived: dict,
    notes: Iterable[str],
    table: np.ndarray | None = None,
) -> BoundReport:
    sd = scenario_to_dict(scenario, table)
    return BoundReport(
        fingerprint=_fingerprint(scenario, sd),
        rng=RNG_NAME,
        scenario=sd,
        rows=tuple(rows),
        summary=_summary(rows, derived),
        notes=tuple(notes),
    )


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


def _fmt_slack(slack: float) -> str:
    """A certificate's worst slack in a message; a NaN one (f has a NaN value)
    as ``nan``, and the ``-inf`` of a space with no edges as ``-inf``."""
    return fmt_float(slack) if math.isfinite(slack) else str(slack)


def _certify_lipschitz(
    f: Functional, alpha: AlphaWeights, space: FiniteSpace
) -> list[str]:
    """Certify the Lipschitz property edge by edge, or raise with the edge."""
    cert = check_lipschitz(f, alpha, space)
    if not cert.holds:
        a, b = cert.witness
        raise ValueError(
            "functional is not Lipschitz for the weighted Hamming distance: "
            f"|f(x) - f(x')| exceeds d_alpha(x, x') by {_fmt_slack(cert.worst_slack)} "
            f"at x={a.symbols}, x'={b.symbols}"
        )
    return [f"lipschitz certified directly (worst slack {_fmt_slack(cert.worst_slack)})"]


def _tabulated(scenario: Scenario) -> tuple[Functional, FunctionalLaw]:
    """The scenario's functional evaluated by its exact law's values as
    its table, and that law.

    The cap is checked before the functional is evaluated, and it is
    evaluated once: the certificates and the report read that table.
    """
    f = scenario.target.functional
    law = exact_functional_stats(scenario.space, scenario.dist, f, scenario.cap)
    table = _Table(law.values.reshape(scenario.space.alphabet_sizes))
    return replace(f, evaluator=table), law


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
        rows.append(_row("set", "mcd-set", lhs, bounds.mcdiarmid_set_bound(t), t=t))
        rows.append(_row("set", "simple-set", lhs, bounds.simple_set_bound(t), t=t))
        rows.append(_row("set", "improved-set", lhs, bounds.improved_set_bound(t, st.rho), t=t))
    rows.append(
        _row(
            "set",
            "membership-product",
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
        return law.expect(distance_field(scenario.alpha, in_set).ravel())

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
) -> tuple[FunctionalLaw, list[dict], dict, list[str]]:
    """The start shared by the median and gap flows.

    Checks the target and the hypotheses (unit weights, independent
    coordinates), enumerates the exact law, certifies the functional
    Lipschitz and computes the per-median quantities.  Returns the law,
    the per-median infos, the report's ``derived`` dict and the notes.
    """
    kind = target_type.kind
    if not isinstance(scenario.target, target_type):
        raise ValueError(f"verify_{kind} needs a scenario with a {kind} target")
    _require_unit_alpha(scenario.alpha)
    _require_product(scenario.dist, f"the {kind} bounds")
    f, law = _tabulated(scenario)
    notes = _certify_lipschitz(f, scenario.alpha, scenario.space)
    infos = _median_infos(scenario, law)
    derived = {
        "mu": law.stats.mean,
        "median_lo": law.stats.median_lo,
        "median_hi": law.stats.median_hi,
        "medians": infos,
    }
    return law, infos, derived, notes


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
    law, infos, derived, notes = _median_law(scenario, MedianTarget)
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
                    ("median-improved", bounds.median_tail_bound(t, rho)),
                    ("median-classical", bounds.median_tail_classical(t)),
                ]
                if t > gap:
                    pairs.append(("shifted-median", bounds.shifted_median_bound(t, gap)))
                rows += [
                    _row("median", bid, lhs, b, median_used=m, tail=tail, t=t)
                    for bid, b in pairs
                ]
    notes.append(
        "upper tail rows use rho from the sublevel set {f <= m}, "
        "lower tail rows rho from the superlevel set {f >= m}"
    )
    return _make_report(scenario, rows, derived, notes, law.values)


def verify_gap(scenario: Scenario) -> BoundReport:
    """Mean-median gap bounds at both median endpoints.

    lhs = |mu - m| against (2*rho + sqrt(pi/2))*exp(-2*rho^2), and against
    the rho-free sqrt(2*pi).  rho is taken on the side the gap falls on:
    mu - m integrates the upper median tail, bounded with rho from the
    sublevel set {f <= m}; m - mu the lower tail, with rho from the
    superlevel set {f >= m}.
    """
    law, infos, derived, notes = _median_law(scenario, GapTarget)
    rows: list[BoundRow] = []
    for info in infos:
        m = info["median"]
        lhs = abs(law.stats.mean - m)
        rho = info["rho_sublevel" if law.stats.mean >= m else "rho_superlevel"]
        pairs = (
            ("gap-improved", bounds.gap_bound(rho)),
            ("gap-classical", bounds.gap_bound_classical()),
        )
        rows += [_row("gap", bid, lhs, b, median_used=m) for bid, b in pairs]
    return _make_report(scenario, rows, derived, notes, law.values)


def verify_drop_functional(scenario: Scenario) -> BoundReport:
    """Mean-centered bounds under the coordinate-drop condition.

    The distribution may be a joint table, and the drop rows are then
    asserted under it, although McDiarmid's and Hoeffding's caps need
    independent coordinates: a known defect, which acceptance check C5
    records (ROADMAP item 1).  Rows per t: both tails against exp(-2t^2)
    when the drop gaps stay within alpha, and against exp(-2t^2/n) when
    they stay within 1.  MGF rows compare the exact centered moment
    generating function with exp(lambda^2/8).  When self-bounding
    parameters are present the distribution must be a product and the
    (a, b) conditions must certify; that adds the sb-upper/sb-lower rows.

    The certificates hold for the infimum family f_i = min of f over
    coordinate i, the greatest admissible family, so they hold whenever
    any family would.  After the cap check all three read the spreads of
    the law's table of f, taken once.
    """
    if not isinstance(scenario.target, MeanTarget):
        raise ValueError("verify_drop_functional needs a scenario with a mean target")
    _require_unit_alpha(scenario.alpha)
    space = scenario.space
    f, law = _tabulated(scenario)
    cert_alpha = check_drop_condition(f, scenario.alpha, space)
    cert_unit = check_drop_condition(f, AlphaWeights((1.0,) * space.n), space)
    notes = [
        f"drop certificate vs alpha: holds={cert_alpha.holds} "
        f"(worst slack {_fmt_slack(cert_alpha.worst_slack)})",
        f"drop certificate vs unit increments: holds={cert_unit.holds} "
        f"(worst slack {_fmt_slack(cert_unit.worst_slack)})",
    ]
    if not cert_alpha.holds and not cert_unit.holds:
        w = cert_alpha.witness
        raise ValueError(
            "drop condition fails for both the weight vector and unit increments "
            f"(worst slacks {_fmt_slack(cert_alpha.worst_slack)} and "
            f"{_fmt_slack(cert_unit.worst_slack)}; witness x={w.symbols if w else None})"
        )
    params = f.self_bounding_params
    cert_sb = None
    if params is not None:
        _require_product(scenario.dist, "the self-bounding bounds")
        cert_sb = check_self_bounding(f, space)
        if not cert_sb.holds:
            w = cert_sb.witness
            raise ValueError(
                f"self-bounding conditions fail for params (a={fmt_float(params[0])}, "
                f"b={fmt_float(params[1])}): worst sum slack "
                f"{_fmt_slack(cert_sb.worst_slack)}, witness x={w.symbols if w else None}"
            )
        notes.append(
            f"self-bounding certificate holds (worst sum slack {fmt_float(cert_sb.worst_slack)})"
        )
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
                ("drop-mean-tail", "upper", upper, b),
                ("drop-mean-tail", "lower", lower, b),
            ]
        if cert_unit.holds:
            b = bounds.drop_mean_tail_scaled(t, space.n)
            cells += [
                ("drop-mean-tail-scaled", "upper", upper, b),
                ("drop-mean-tail-scaled", "lower", lower, b),
            ]
        if cert_sb is not None:
            cells += [
                ("sb-upper", "upper", upper, bounds.sb_upper_bound(t, mu, *params)),
                ("sb-lower", "lower", lower, bounds.sb_lower_bound(t, mu, *params)),
            ]
        rows += [
            _row("mean", bid, lhs, b, tail=tail, t=t) for bid, tail, lhs, b in cells
        ]
    if cert_alpha.holds:
        # Each cap first: it refuses a lambda past its limit before the exact MGF overflows.
        caps = [bounds.mgf_bound(lam) for lam in lams]
        rows += [
            _row("mean", "mgf", mgf_from_law(law, lam), cap, lam=lam)
            for lam, cap in zip(lams, caps)
        ]
    derived = {
        "mu": mu,
        "n": space.n,
        "drop_family": "infimum",
        "certificates": {
            "drop_alpha": cert_alpha.holds,
            "drop_unit": cert_unit.holds,
            "self_bounding": None if cert_sb is None else cert_sb.holds,
        },
    }
    return _make_report(scenario, rows, derived, notes, law.values)


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
) -> np.ndarray:
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
        return total
    n_anchors = int(rng.integers(1, min(space.size, 4) + 1))
    anchor_ranks = rng.choice(space.size, size=n_anchors, replace=False)
    anchors = symbols[np.sort(anchor_ranks)]
    offsets = rng.uniform(0.0, alpha.l1_sum, n_anchors)
    dists = ((symbols[:, None, :] != anchors[None, :, :]) @ w) + offsets[None, :]
    return dists.min(axis=1)


def random_scenario(
    seed: int, kind: str, max_n: int = 4, max_alphabet: int = 3
) -> Scenario:
    """Deterministic random scenario for soundness sweeps.

    kind selects the target: "set", "median", "gap", or "drop".  Set,
    median and gap scenarios draw product laws, as their flows require;
    drop scenarios draw a joint table half the time, where the drop rows
    are asserted though their caps need independence (the C5 defect).
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
    if kind == "drop" and rng.random() < 0.5:
        table = rng.uniform(0.1, 1.0, space.size)
        dist = Distribution.joint(table / table.sum())
    else:
        pmfs = [rng.uniform(0.1, 1.0, k) for k in sizes]
        dist = Distribution.product([p / p.sum() for p in pmfs])
    w = rng.uniform(0.1, 1.0, n)
    w /= math.sqrt(float(np.dot(w, w)))
    alpha = AlphaWeights(w)
    if kind == "set":
        count = int(rng.integers(1, space.size))
        ranks = rng.choice(space.size, size=count, replace=False)
        members = np.stack(np.unravel_index(ranks, sizes), axis=1).astype(np.int64, copy=False)
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
    ``trials`` and ``seed`` must be integers, not bools.
    """
    _require_ints(trials=trials, seed=seed)
    trials, seed = int(trials), int(seed)
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
