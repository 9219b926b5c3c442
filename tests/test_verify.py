"""Scenario verification flows: row inventories, frozen values, reports."""

import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import reference_pointwise as ref
import report_digest
from hamconc import bounds, functionals
from hamconc._util import dumps, fmt_float
from hamconc.estimators import hoeffding_half_width
from hamconc.cli import _describe_row
from hamconc.functionals import Functional
from hamconc.hamming import AlphaWeights, normalize
from hamconc.scenario_io import load_scenario, scenario_from_dict
from hamconc.space import Distribution, FiniteSpace, SetSpec
from hamconc.verify import (
    CSV_COLUMNS,
    BoundRow,
    DEFAULT_LAMBDA_GRID,
    GENERATOR_KINDS,
    GapTarget,
    MeanTarget,
    MedianTarget,
    Scenario,
    SetTarget,
    default_t_grid,
    random_scenario,
    scenario_fingerprint,
    scenario_to_dict,
    sweep,
    verify_drop_functional,
    verify_gap,
    verify_median,
    verify_scenario,
    verify_set,
)

SQRT_HALF = 0.7071067811865475
CORRELATED = Path(__file__).resolve().parent.parent / "scenarios" / "correlated_pair.json"

ALPHA_3 = normalize((1.0, 1.0, 1.0))
C3 = ALPHA_3.weights[0]
SPACE_3 = FiniteSpace((2, 2, 2))


def _set_scenario(**kw) -> Scenario:
    space = FiniteSpace((2, 2))
    return Scenario(
        space=space,
        dist=Distribution.product(((0.5, 0.5), (0.5, 0.5))),
        alpha=normalize((1.0, 1.0)),
        target=SetTarget(SetSpec.from_points([(0, 0)])),
        **kw,
    )


def _functional_scenario(target_cls, **kw) -> Scenario:
    f = Functional.weighted_sum(ALPHA_3.weights)
    return Scenario(
        space=SPACE_3,
        dist=Distribution.uniform(SPACE_3),
        alpha=ALPHA_3,
        target=target_cls(f),
        **kw,
    )


def _correlated_scenario() -> Scenario:
    # two perfectly correlated fair bits; the drop rows assume nothing
    # about independence, so this is the flow's hardest exact test
    space = FiniteSpace((2, 2))
    alpha = normalize((1.0, 1.0))
    return Scenario(
        space=space,
        dist=Distribution.joint((0.5, 0.0, 0.0, 0.5)),
        alpha=alpha,
        target=MeanTarget(Functional.weighted_sum(alpha.weights)),
    )


# -- grids -------------------------------------------------------------------


def test_default_t_grid_shape_and_extras():
    alpha = normalize((1.0, 1.0))
    base = default_t_grid(alpha)
    assert len(base) == 24
    assert base[0] == 0.05
    assert base[-1] == pytest.approx(1.2 * alpha.l1_sum)
    assert base == tuple(sorted(base))

    with_extra = default_t_grid(alpha, extras=(0.3,))
    assert len(with_extra) == 25
    assert 0.3 in with_extra
    # nonpositive or non-finite extras are dropped
    assert default_t_grid(alpha, extras=(0.0, -1.0, math.inf)) == base


def test_scenario_grid_cleaning():
    sc = _set_scenario(t_grid=(0.5, 0.2, 0.5), lambda_grid=(3.0, 0.0))
    assert sc.t_grid == (0.2, 0.5)
    assert sc.lambda_grid == (0.0, 3.0)
    with pytest.raises(ValueError, match="positive"):
        _set_scenario(t_grid=(0.0,))
    with pytest.raises(ValueError, match="nonnegative"):
        _set_scenario(lambda_grid=(-1.0,))
    with pytest.raises(ValueError, match="nonempty"):
        _set_scenario(t_grid=())


def test_scenario_validation():
    with pytest.raises(ValueError, match="weights"):
        Scenario(
            space=FiniteSpace((2, 2)),
            dist=Distribution.uniform(FiniteSpace((2, 2))),
            alpha=AlphaWeights((1.0,)),
            target=SetTarget(SetSpec.from_points([(0, 0)])),
        )
    with pytest.raises(ValueError, match="seed"):
        _set_scenario(seed=-1)
    with pytest.raises(ValueError, match="cap"):
        _set_scenario(cap=0)
    # A report would write these as true, which the loader refuses.
    with pytest.raises(ValueError, match="seed must be a nonnegative integer, got True"):
        _set_scenario(seed=True)
    with pytest.raises(ValueError, match="cap must be a positive integer, got True"):
        _set_scenario(cap=True)
    with pytest.raises(ValueError, match=r"seed must be a nonnegative integer, got np\.int64\(-1\)"):
        _set_scenario(seed=np.int64(-1))
    with pytest.raises(ValueError, match=r"cap must be a positive integer, got np\.float64\(9\.0\)"):
        _set_scenario(cap=np.float64(9.0))


def test_numpy_integers_are_held_as_the_ints_a_report_writes():
    sc = _set_scenario(seed=np.int64(3), cap=np.uint16(100))
    assert (type(sc.seed), type(sc.cap)) == (int, int)
    assert verify_scenario(sc).to_json() == verify_scenario(_set_scenario(seed=3, cap=100)).to_json()
    for kind in ("set", "drop"):
        a, b = random_scenario(np.int64(5), kind), random_scenario(5, kind)
        assert type(a.seed) is int and scenario_fingerprint(a) == scenario_fingerprint(b)
        assert verify_scenario(a).to_json() == verify_scenario(b).to_json()
    result = sweep("set", np.int64(2), np.int64(0))
    assert result == sweep("set", 2, 0)
    assert (type(result.trials), type(result.worst_seed)) == (int, int)


# -- set flow -----------------------------------------------------------------


def test_set_flow_row_inventory_and_frozen_values():
    report = verify_set(_set_scenario())
    # 24 default grid points plus rho, 3 bounds each, 1 membership row
    assert len(report.rows) == 76
    assert report.all_pass
    assert report.summary["rows"] == 76
    assert report.summary["failures"] == 0
    assert report.summary["derived"] == {"p_in": 0.25, "rho": SQRT_HALF}
    assert report.rng == "numpy-philox4x64"
    assert report.fingerprint == scenario_fingerprint(_set_scenario())

    at_rho = [
        r for r in report.rows if r.bound_id == "improved-set" and r.t == SQRT_HALF
    ]
    assert len(at_rho) == 1
    assert at_rho[0].lhs == 0.1875
    assert at_rho[0].bound == 0.3678794411714424

    member = report.rows[-1]
    assert member.bound_id == "membership-product"
    assert member.t is None and member.tail is None
    assert member.lhs == 0.1875
    assert member.bound == 0.3678794411714424
    assert not member.vacuous


def test_set_flow_dominations_hold_rowwise():
    report = verify_set(_set_scenario())
    by_t: dict = {}
    for r in report.rows:
        if r.t is not None:
            by_t.setdefault(r.t, {})[r.bound_id] = r.bound
    for t, b in by_t.items():
        assert b["improved-set"] <= b["simple-set"] <= b["mcd-set"]


def test_set_flow_requires_product_and_unit_alpha():
    sc = _set_scenario()
    joint = Scenario(
        space=sc.space,
        dist=Distribution.joint((0.25, 0.25, 0.25, 0.25)),
        alpha=sc.alpha,
        target=sc.target,
    )
    with pytest.raises(ValueError, match="independent coordinates"):
        verify_set(joint)
    unnorm = Scenario(
        space=sc.space,
        dist=sc.dist,
        alpha=AlphaWeights((1.0, 1.0)),
        target=sc.target,
    )
    with pytest.raises(ValueError, match=r"theorems require \|\|α\|\|=1"):
        verify_set(unnorm)
    with pytest.raises(ValueError, match="set target"):
        verify_set(_functional_scenario(MedianTarget))


# -- median flow ---------------------------------------------------------------


def test_median_flow_derived_quantities():
    report = verify_median(_functional_scenario(MedianTarget, t_grid=(C3,)))
    d = report.summary["derived"]
    assert d["mu"] == 0.8660254037844388
    assert d["median_lo"] == C3
    assert d["median_hi"] == 1.1547005383792517
    lo, hi = d["medians"]
    assert lo["median"] == C3
    assert lo["rho_sublevel"] == 0.36084391824351614
    assert lo["rho_superlevel"] == 0.07216878364870323
    assert lo["gap"] == 0.288675134594813
    assert hi["median"] == 1.1547005383792517
    assert hi["gap"] == 0.28867513459481287
    assert report.notes[-1] == (
        "upper tail rows use rho from the sublevel set {f <= m}, "
        "lower tail rows rho from the superlevel set {f >= m}"
    )


def test_median_flow_rows_at_branch_point():
    report = verify_median(_functional_scenario(MedianTarget, t_grid=(C3,)))
    # 2 medians x 2 tails x (improved + classical + shifted, t > gap)
    assert len(report.rows) == 12
    assert report.all_pass
    row = next(
        r
        for r in report.rows
        if r.bound_id == "median-improved" and r.median_used == C3 and r.tail == "upper"
    )
    assert row.lhs == 0.5
    assert row.bound == 1.40351599588378
    assert row.vacuous  # a probability bound above 1 proves nothing
    lower = next(
        r
        for r in report.rows
        if r.bound_id == "median-improved" and r.median_used == C3 and r.tail == "lower"
    )
    assert lower.lhs == 0.125


def test_median_flow_shifted_rows_only_past_the_gap():
    report = verify_median(_functional_scenario(MedianTarget, t_grid=(0.1,)))
    # 0.1 < gap ~ 0.2887, so no shifted rows survive
    assert len(report.rows) == 8
    assert not any(r.bound_id == "shifted-median" for r in report.rows)
    report = verify_median(_functional_scenario(MedianTarget, t_grid=(C3,)))
    shifted = [r for r in report.rows if r.bound_id == "shifted-median"]
    assert len(shifted) == 4  # both medians, both tails


def test_median_flow_rejects_non_lipschitz():
    f = Functional.from_table(FiniteSpace((2, 2)), [0.0, 10.0, 10.0, 10.0])
    sc = Scenario(
        space=FiniteSpace((2, 2)),
        dist=Distribution.uniform(FiniteSpace((2, 2))),
        alpha=normalize((1.0, 1.0)),
        target=MedianTarget(f),
    )
    with pytest.raises(ValueError, match="not Lipschitz"):
        verify_median(sc)


def test_median_flow_rejects_a_single_bad_edge():
    # one edge (0, e_0) breaks the Lipschitz condition by ~0.0063 in S = 2048
    space = FiniteSpace((2,) * 11)
    alpha = normalize([0.2] + [1.0] * 10)
    table = [0.5 * sum(a * s for a, s in zip(alpha.weights, p.symbols)) for p in ref.points(space)]
    table[0] -= 0.6 * alpha.weights[0]
    sc = Scenario(
        space=space,
        dist=Distribution.uniform(space),
        alpha=alpha,
        target=MedianTarget(Functional.from_table(space, table)),
    )
    with pytest.raises(ValueError, match="not Lipschitz"):
        verify_median(sc)


@pytest.mark.parametrize("seed", [2435, 3178, 1000001416])
def test_median_lower_tail_uses_the_superlevel_rho(seed):
    # these scenarios fail a lower-tail row when it takes the sublevel-set rho
    report = verify_scenario(random_scenario(seed, "median"))
    assert report.all_pass
    for info in report.summary["derived"]["medians"]:
        lower = [
            r
            for r in report.rows
            if r.median_used == info["median"]
            and r.tail == "lower"
            and r.bound_id == "median-improved"
        ]
        assert any(r.t == info["rho_superlevel"] for r in lower)


# -- gap flow ------------------------------------------------------------------


def test_gap_flow_frozen_values():
    report = verify_gap(_functional_scenario(GapTarget))
    assert len(report.rows) == 4
    assert report.all_pass
    improved = [r for r in report.rows if r.bound_id == "gap-improved"]
    classical = [r for r in report.rows if r.bound_id == "gap-classical"]
    assert {r.median_used for r in improved} == {C3, 1.1547005383792517}
    row = next(r for r in improved if r.median_used == C3)
    assert row.lhs == 0.288675134594813
    assert row.bound == 1.5221940242022798
    # gap rows compare plain reals, so bound > 1 is not vacuous
    assert not row.vacuous
    assert all(r.bound == 2.5066282746310002 for r in classical)


def test_gap_row_takes_the_rho_of_its_own_side():
    # mu < m here, and the sublevel rho would give the smaller bound
    report = verify_scenario(random_scenario(0, "gap"))
    mu = report.summary["derived"]["mu"]
    (info,) = report.summary["derived"]["medians"]
    rho_sub, rho_super = info["rho_sublevel"], info["rho_superlevel"]
    assert mu < info["median"]
    assert bounds.gap_bound(rho_sub) < bounds.gap_bound(rho_super)
    (row,) = [r for r in report.rows if r.bound_id == "gap-improved"]
    assert row.bound == bounds.gap_bound(rho_super)
    assert report.all_pass


# -- drop flow -----------------------------------------------------------------


def test_drop_flow_row_inventory_and_frozen_values():
    report = verify_drop_functional(_functional_scenario(MeanTarget, t_grid=(C3,)))
    # 1 t x (drop both tails + scaled both tails) + 6 lambda rows
    assert len(report.rows) == 10
    assert report.all_pass
    # the derived quantities name the family; the scenario and the notes do not
    assert not any("drop family" in note for note in report.notes)
    assert "drop" not in report.scenario["target"]["functional"]
    d = report.summary["derived"]
    assert d["mu"] == 0.8660254037844388
    assert d["n"] == 3
    assert d["drop_family"] == "infimum"
    assert d["certificates"] == {
        "drop_alpha": True,
        "drop_unit": True,
        "self_bounding": None,
    }
    up = next(
        r for r in report.rows if r.bound_id == "drop-mean-tail" and r.tail == "upper"
    )
    assert up.lhs == 0.125
    assert up.bound == 0.5134171190325919
    zero = next(r for r in report.rows if r.lam == 0.0)
    assert zero.bound_id == "mgf"
    assert zero.lhs == 1.0
    assert zero.slack == 0.0
    assert zero.passed
    assert {r.lam for r in report.rows if r.bound_id == "mgf"} == set(
        DEFAULT_LAMBDA_GRID
    )


def test_drop_flow_correlated_fixture_fails_exactly_where_predicted():
    report = verify_drop_functional(_correlated_scenario())
    assert len(report.rows) == 24 * 4 + 6
    assert not report.all_pass
    failing = report.failing_rows()
    assert len(failing) == 6
    assert report.summary["failures"] == 6

    drop_fails = [r for r in failing if r.bound_id == "drop-mean-tail"]
    mgf_fails = [r for r in failing if r.bound_id == "mgf"]
    assert len(drop_fails) == 2 and len(mgf_fails) == 4

    ts = {r.t for r in drop_fails}
    assert len(ts) == 1
    (t_bad,) = ts
    # the window where exp(-2 t^2) < 1/2 but t still reaches the atom
    assert math.sqrt(math.log(2.0) / 2.0) < t_bad <= SQRT_HALF
    assert {r.tail for r in drop_fails} == {"upper", "lower"}
    assert all(r.lhs == 0.5 for r in drop_fails)

    assert {r.lam for r in mgf_fails} == {0.5, 1.0, 2.0, 4.0}
    at_one = next(r for r in mgf_fails if r.lam == 1.0)
    assert at_one.lhs == pytest.approx(math.cosh(SQRT_HALF), rel=1e-15)
    assert at_one.bound == 1.1331484530668263

    # the 1/n-scaled rows survive dependence on this law
    scaled = [r for r in report.rows if r.bound_id == "drop-mean-tail-scaled"]
    assert len(scaled) == 48
    assert all(r.passed for r in scaled)


def test_drop_flow_certificate_failures():
    space = FiniteSpace((2, 2))
    alpha = normalize((1.0, 1.0))
    bad = Functional.from_table(space, [0.0, 10.0, 10.0, 20.0])
    sc = Scenario(
        space=space, dist=Distribution.uniform(space), alpha=alpha, target=MeanTarget(bad)
    )
    with pytest.raises(ValueError, match="drop condition fails for both"):
        verify_drop_functional(sc)


@pytest.mark.parametrize(
    "target_cls, message",
    [
        (
            MedianTarget,
            "functional is not Lipschitz for the weighted Hamming distance: "
            "|f(x) - f(x')| exceeds d_alpha(x, x') by nan at x=(1, 0), x'=(1, 1)",
        ),
        (
            MeanTarget,
            "drop condition fails for both the weight vector and unit increments "
            "(worst slacks nan and nan; witness x=(0, 0))",
        ),
    ],
)
def test_nan_functional_fails_with_its_certificate_message(target_cls, message):
    space = FiniteSpace((2, 2))
    f = Functional.from_table(space, [0.0, 0.1, math.nan, 0.2])
    sc = Scenario(
        space=space,
        dist=Distribution.uniform(space),
        alpha=normalize((1.0, 1.0)),
        target=target_cls(f),
    )
    with pytest.raises(ValueError) as excinfo:
        verify_scenario(sc)
    assert str(excinfo.value) == message


def test_drop_flow_self_bounding_requires_product_and_certificate():
    space = FiniteSpace((2, 2))
    alpha = normalize((1.0, 1.0))
    f = Functional.weighted_sum((1.0, 1.0), self_bounding_params=(1.0, 0.0))
    joint = Scenario(
        space=space,
        dist=Distribution.joint((0.25, 0.25, 0.25, 0.25)),
        alpha=alpha,
        target=MeanTarget(f),
    )
    with pytest.raises(ValueError, match="independent coordinates"):
        verify_drop_functional(joint)

    wrong_params = Functional.weighted_sum((1.0, 1.0), self_bounding_params=(0.5, 0.0))
    sc = Scenario(
        space=space,
        dist=Distribution.uniform(space),
        alpha=alpha,
        target=MeanTarget(wrong_params),
    )
    with pytest.raises(ValueError, match="self-bounding conditions fail"):
        verify_drop_functional(sc)


def test_drop_flow_emits_sb_rows_when_certified():
    space = FiniteSpace((2, 2))
    f = Functional.weighted_sum((1.0, 1.0), self_bounding_params=(1.0, 0.0))
    sc = Scenario(
        space=space,
        dist=Distribution.uniform(space),
        alpha=normalize((1.0, 1.0)),
        target=MeanTarget(f),
        t_grid=(0.5, 1.0),
    )
    report = verify_drop_functional(sc)
    assert report.summary["derived"]["certificates"] == {
        "drop_alpha": False,  # unit gaps exceed the 1/sqrt(2) weights
        "drop_unit": True,
        "self_bounding": True,
    }
    ids = {r.bound_id for r in report.rows}
    assert ids == {"drop-mean-tail-scaled", "sb-upper", "sb-lower"}
    assert report.all_pass


# -- one evaluation per verify ---------------------------------------------------

COUNT_SPACE = FiniteSpace((2,) * 6)
COUNT_ALPHA = normalize((1.0,) * 6)


class _Counting:
    """A plain-callable functional, c * (number of ones), that counts its calls."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, point) -> float:
        self.calls += 1
        return COUNT_ALPHA.weights[0] * sum(point.symbols)


def _counting_scenario(target, **kw) -> Scenario:
    return Scenario(
        space=COUNT_SPACE,
        dist=Distribution.uniform(COUNT_SPACE),
        alpha=COUNT_ALPHA,
        target=target,
        **kw,
    )


@pytest.mark.parametrize(
    "target_cls, flow",
    [(MedianTarget, verify_median), (GapTarget, verify_gap), (MeanTarget, verify_drop_functional)],
)
def test_functional_flows_evaluate_each_point_once(target_cls, flow):
    fn = _Counting()
    report = flow(_counting_scenario(target_cls(Functional(fn))))
    assert fn.calls == COUNT_SPACE.size
    assert report.all_pass
    # the report is the one a table of the same values gives
    table = Functional.from_table(COUNT_SPACE, report.scenario["target"]["functional"]["values"])
    assert flow(_counting_scenario(target_cls(table))).to_json() == report.to_json()


def test_an_infimum_family_target_is_not_evaluated_again():
    fn = _Counting()
    f = Functional(fn)
    assert fn.calls == 0
    report = verify_drop_functional(_counting_scenario(MeanTarget(f)))
    assert fn.calls == COUNT_SPACE.size
    assert report.summary["derived"]["drop_family"] == "infimum"
    assert report.all_pass


def test_a_mean_verify_takes_its_spreads_once(monkeypatch):
    # both drop certificates and the self-bounding one read the spread
    # vector of the one table the flow builds
    taken = []
    spreads = functionals._Table.spreads.func
    spy = cached_property(lambda t: taken.append(t.table.shape) or spreads(t))
    spy.__set_name__(functionals._Table, "spreads")
    monkeypatch.setattr(functionals._Table, "spreads", spy)
    f = Functional.weighted_sum(COUNT_ALPHA.weights, self_bounding_params=(1.0, 0.0))
    report = verify_scenario(_counting_scenario(MeanTarget(f)))
    assert taken == [COUNT_SPACE.alphabet_sizes]
    assert report.summary["derived"]["certificates"] == {
        "drop_alpha": True,
        "drop_unit": True,
        "self_bounding": True,
    }


@pytest.mark.parametrize("target_cls", [MedianTarget, GapTarget, MeanTarget])
def test_the_cap_is_checked_before_the_functional_is_evaluated(target_cls):
    fn = _Counting()
    sc = _counting_scenario(target_cls(Functional(fn)), cap=COUNT_SPACE.size - 1)
    with pytest.raises(ValueError, match="exceeds enumeration cap"):
        verify_scenario(sc)
    assert fn.calls == 0


def test_over_the_cap_is_reported_before_a_failed_certificate():
    space = FiniteSpace((2, 2))
    f = Functional.from_table(space, [0.0, 10.0, 10.0, 10.0])
    for target in (MedianTarget(f), MeanTarget(f)):
        sc = Scenario(
            space=space,
            dist=Distribution.uniform(space),
            alpha=normalize((1.0, 1.0)),
            target=target,
            cap=3,
        )
        with pytest.raises(ValueError, match="exceeds enumeration cap 3"):
            verify_scenario(sc)


# -- report serialization --------------------------------------------------------


def test_report_json_layout_and_row_key_order():
    report = verify_set(_set_scenario())
    data = json.loads(report.to_json())
    assert list(data.keys()) == [
        "fingerprint",
        "rng",
        "scenario",
        "rows",
        "summary",
        "notes",
    ]
    assert list(data["rows"][0].keys()) == [
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
    ]
    assert data["rows"][0]["pass"] is True
    assert data["scenario"]["alpha"]["normalize"] is False
    assert sorted(data["summary"]["worst_slack"]) == list(
        data["summary"]["worst_slack"]
    )


def test_report_csv_layout():
    report = verify_set(_set_scenario())
    csv = report.to_csv()
    assert csv.endswith("\r\n")
    assert "\n" not in csv.replace("\r\n", "")
    lines = csv.split("\r\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[-1] == ""
    assert len(lines) == 2 + len(report.rows)
    first = lines[1].split(",")
    assert first[0] == "set"
    assert first[1] == "" and first[2] == ""  # no median, no tail
    assert first[9] == "true"
    membership = lines[-2].split(",")
    assert membership[3] == "" and membership[4] == ""  # no t, no lambda


def test_bound_row_is_an_immutable_named_tuple():
    positional = BoundRow(
        "median", "median-improved", 0.5, 0.25, -0.25, False, False, 0.5, "upper", 0.1
    )
    keyword = BoundRow(
        target_kind="median",
        bound_id="median-improved",
        lhs=0.5,
        bound=0.25,
        slack=-0.25,
        passed=False,
        vacuous=False,
        median_used=0.5,
        tail="upper",
        t=0.1,
    )
    assert positional == keyword
    assert isinstance(positional, tuple) and len(positional) == 11
    assert BoundRow._fields == (
        "target_kind",
        "bound_id",
        "lhs",
        "bound",
        "slack",
        "passed",
        "vacuous",
        "median_used",
        "tail",
        "t",
        "lam",
    )
    bare = BoundRow("set", "mcd-set", 0.125, 0.5, 0.375, True, False)
    assert (bare.median_used, bare.tail, bare.t, bare.lam) == (None, None, None, None)
    assert list(bare.to_dict()) == list(CSV_COLUMNS)
    assert positional.to_dict() == {
        "target_kind": "median",
        "median_used": 0.5,
        "tail": "upper",
        "t": 0.1,
        "lambda": None,
        "lhs": 0.5,
        "bound_id": "median-improved",
        "bound": 0.25,
        "slack": -0.25,
        "pass": False,
        "vacuous": False,
    }
    with pytest.raises(AttributeError):
        positional.lhs = 1.0
    assert _describe_row(positional) == (
        "median-improved [m=0.5, upper, t=0.10000000000000001]: "
        "lhs 0.5 > bound 0.25 (slack -0.25)"
    )
    mgf = BoundRow("mean", "mgf", 1.25, 1.0, -0.25, False, False, lam=0.5)
    assert _describe_row(mgf) == "mgf [lambda=0.5]: lhs 1.25 > bound 1 (slack -0.25)"
    failing = verify_scenario(load_scenario(CORRELATED)).failing_rows()[0]
    assert _describe_row(failing) == (
        "drop-mean-tail [upper, t=0.67666911614748526]: lhs 0.5 > "
        "bound 0.40021147443350674 (slack -0.099788525566493258)"
    )


def test_report_json_and_csv_carry_identical_numbers():
    report = verify_set(_set_scenario())
    data = json.loads(report.to_json())
    lines = report.to_csv().split("\r\n")
    for row, line in zip(data["rows"], lines[1:]):
        cells = line.split(",")
        assert cells[5] == fmt_float(row["lhs"])
        assert cells[7] == fmt_float(row["bound"])
        assert cells[8] == fmt_float(row["slack"])


def test_report_is_byte_deterministic():
    a = verify_scenario(_set_scenario()).to_json()
    b = verify_scenario(_set_scenario()).to_json()
    assert a == b


def test_fingerprint_tracks_scenario_content():
    sc = _set_scenario()
    assert scenario_fingerprint(sc) == scenario_fingerprint(_set_scenario())
    assert scenario_fingerprint(sc) != scenario_fingerprint(_set_scenario(seed=1))
    d = scenario_to_dict(sc)
    assert d["alpha"]["normalize"] is False
    assert d["target"]["set"]["members"].tolist() == [[0, 0]]
    assert d["space"]["alphabet_sizes"] == [2, 2]


# -- functionals in their declared form --------------------------------------------

FORM_SPACE = FiniteSpace((2, 3, 2))
FORM_ALPHA = normalize((1.0, 2.0, 2.0))


def _form_scenario(f: Functional, target_cls=MedianTarget) -> Scenario:
    return Scenario(
        space=FORM_SPACE,
        dist=Distribution.uniform(FORM_SPACE),
        alpha=FORM_ALPHA,
        target=target_cls(f),
    )


def _declared_forms() -> dict:
    """A functional declared in each compact form, by the report type it writes."""
    members = SetSpec.from_points([(0, 0, 0), (1, 2, 1)])
    return {
        "weighted_sum": Functional.weighted_sum((0.2, 0.25, 0.5)),
        "distance_to_set": Functional.distance_to(FORM_ALPHA, members, FORM_SPACE),
    }


def _values(f: Functional) -> list:
    return functionals._tabulate(f.evaluator, FORM_SPACE.alphabet_sizes).ravel().tolist()


def _as_table(f: Functional) -> Functional:
    return Functional.from_table(FORM_SPACE, _values(f))


@pytest.mark.parametrize("kind", ["weighted_sum", "distance_to_set"])
def test_a_declared_form_and_its_table_share_digest_and_fingerprint(kind):
    f = _declared_forms()[kind]
    for target_cls in (MedianTarget, GapTarget, MeanTarget):
        declared = verify_scenario(_form_scenario(f, target_cls))
        table = verify_scenario(_form_scenario(_as_table(f), target_cls))
        fd = declared.scenario["target"]["functional"]
        td = table.scenario["target"]["functional"]
        assert (fd["type"], td["type"]) == (kind, "table")
        assert "values" not in fd
        assert fd["table_sha256"] == td["table_sha256"]
        assert declared.fingerprint == table.fingerprint
        assert declared.fingerprint == scenario_fingerprint(_form_scenario(f, target_cls))
        assert declared.to_csv() == table.to_csv()


def test_a_distance_under_other_weights_is_written_as_its_table():
    other = normalize((1.0, 1.0, 1.0))
    f = Functional.distance_to(other, SetSpec.from_points([(0, 0, 0)]), FORM_SPACE)
    fd = scenario_to_dict(_form_scenario(f))["target"]["functional"]
    assert fd["type"] == "table"
    assert fd["values"].tolist() == _values(f)


def test_the_table_digest_is_the_sha256_of_the_little_endian_values():
    values = [0.5, -0.0, 1e-300, -2.25, 0.1, 3.0, 0.0, 7.5, -1.0, 2.0, 0.0, 1.25]
    sc = _form_scenario(Functional.from_table(FORM_SPACE, values))
    text = struct.pack("<12d", *[v + 0.0 for v in values])
    digest = scenario_to_dict(sc)["target"]["functional"]["table_sha256"]
    assert digest == hashlib.sha256(text).hexdigest()
    # -0.0 and 0.0 are one value to the digest, as to the report's text
    zeros = [0.0 if v == 0.0 else v for v in values]
    plain = _form_scenario(Functional.from_table(FORM_SPACE, zeros))
    assert scenario_to_dict(plain)["target"]["functional"]["table_sha256"] == digest
    assert scenario_fingerprint(sc) == scenario_fingerprint(plain)


@pytest.mark.parametrize("kind", ["weighted_sum", "distance_to_set", "table"])
def test_a_reported_functional_loads_back_to_the_same_report(kind):
    forms = _declared_forms()
    f = forms.get(kind) or _as_table(forms["weighted_sum"])
    report = verify_scenario(_form_scenario(f))
    assert report.scenario["target"]["functional"]["type"] == kind
    loaded = scenario_from_dict(json.loads(report.to_json())["scenario"])
    again = verify_scenario(loaded)
    assert scenario_fingerprint(loaded) == report.fingerprint == again.fingerprint
    assert again.to_csv() == report.to_csv()
    assert again.to_json() == report.to_json()


@pytest.mark.parametrize("kind", ["weighted_sum", "distance_to_set", "table"])
def test_each_form_gives_the_same_bytes_on_a_fresh_verify(kind):
    def build() -> Functional:
        forms = _declared_forms()
        return forms.get(kind) or _as_table(forms["weighted_sum"])

    assert verify_scenario(_form_scenario(build())).to_json() == verify_scenario(
        _form_scenario(build())
    ).to_json()


def test_a_weighted_sum_report_stays_small_at_large_s():
    space = FiniteSpace((2,) * 16)
    alpha = normalize((1.0,) * 16)
    sc = Scenario(
        space=space,
        dist=Distribution.uniform(space),
        alpha=alpha,
        target=MedianTarget(Functional.weighted_sum(alpha.weights)),
    )
    text = verify_scenario(sc).to_json()
    assert len(text) < 64 * 1024
    assert '"values"' not in text
    assert json.loads(text)["scenario"]["target"]["functional"]["type"] == "weighted_sum"


# -- generators and sweeps --------------------------------------------------------


def test_random_scenario_is_deterministic():
    for kind in GENERATOR_KINDS:
        a = random_scenario(11, kind)
        b = random_scenario(11, kind)
        assert dumps(scenario_to_dict(a)) == dumps(scenario_to_dict(b))


def test_report_bytes_match_the_committed_digest():
    # seeds 0-299 of each kind and the bundled files; CI checks 0-2399
    assert report_digest.main(["--stop", "300"]) == 0


def test_random_scenario_structure():
    for seed in range(8):
        sc = random_scenario(seed, "set")
        assert sc.alpha.normalized
        assert sc.dist.kind == "product"
        members = sc.target.set_spec.member_symbols(sc.space)
        assert 0 < len(members) < sc.space.size
    drop_kinds = {random_scenario(s, "drop").dist.kind for s in range(10)}
    assert drop_kinds == {"product", "joint"}
    report = verify_scenario(random_scenario(0, "drop"))
    assert "drop" not in report.scenario["target"]["functional"]
    assert report.summary["derived"]["drop_family"] == "infimum"
    with pytest.raises(ValueError, match="kind must be one of"):
        random_scenario(0, "mean")
    with pytest.raises(ValueError, match="4096"):
        random_scenario(0, "set", max_n=8, max_alphabet=4)


def test_a_mean_target_is_fingerprinted_with_the_family_its_verify_uses():
    for sc in (random_scenario(0, "drop"), _functional_scenario(MeanTarget)):
        assert "drop" not in scenario_to_dict(sc)["target"]["functional"]
        assert verify_scenario(sc).fingerprint == scenario_fingerprint(sc)


def test_the_canonical_form_checks_the_cap_before_it_tabulates(monkeypatch):
    def refuse(*args):
        raise AssertionError("the functional was tabulated")

    monkeypatch.setattr(functionals._WeightedSum, "values", refuse)
    n = 22
    space = FiniteSpace((2,) * n)
    sc = Scenario(
        space=space,
        dist=Distribution.uniform(space),
        alpha=normalize((1.0,) * n),
        target=MeanTarget(Functional.weighted_sum((n**-0.5,) * n)),
        cap=1000,
    )
    for form in (scenario_fingerprint, scenario_to_dict):
        with pytest.raises(ValueError, match="outcome count 4194304 exceeds enumeration cap 1000"):
            form(sc)


def test_sweep_reduces_deterministically():
    a = sweep("median", 4, seed=3)
    b = sweep("median", 4, seed=3)
    assert a == b
    assert a.kind == "median"
    assert a.trials == 4
    assert a.passes == 4
    assert a.all_pass
    assert a.failing_seeds == ()
    assert math.isfinite(a.worst_slack)
    drops = sweep("drop", 10)
    assert drops.joint_count > 0
    assert drops.all_pass
    sets = sweep("set", 5)
    assert sets.joint_count == 0
    with pytest.raises(ValueError, match="trials"):
        sweep("set", 0)


@pytest.mark.parametrize("count", [True, 2.5, 2.0], ids=repr)
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda k: hoeffding_half_width(k, 0.01), "n_samples"),
        (lambda k: sweep("set", k), "trials"),
        (lambda k: sweep("set", 1, seed=k), "seed"),
    ],
    ids=["hoeffding_half_width", "sweep", "sweep-seed"],
)
def test_counts_refuse_bools_and_non_integers(call, name, count):
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got {count!r}$"):
        call(count)


def _bound_params(report, row) -> dict:
    """Every parameter a bound may take, for ``row``, read off the row and
    its report: t and lambda from the row, rho by median and side, gap,
    mu, n and the self-bounding (a, b) from the report."""
    derived = report.summary["derived"]
    params = {"t": row.t, "lam": row.lam, "mu": derived.get("mu"), "n": derived.get("n")}
    if "rho" in derived:
        params["rho"] = derived["rho"]
    if row.median_used is not None:
        info = next(i for i in derived["medians"] if i["median"] == row.median_used)
        # a gap row takes the side its gap falls on, as the upper or lower tail
        side = row.tail or ("upper" if derived["mu"] >= row.median_used else "lower")
        params["rho"] = info["rho_sublevel" if side == "upper" else "rho_superlevel"]
        params["gap"] = info["gap"]
    params["a"], params["b"] = report.scenario["target"].get("params", (None, None))
    return params


def test_every_row_is_its_ids_bound_and_vacuity():
    # The flows name a row's id and call its bound function separately,
    # so each row is checked against the table: the id's function at the
    # row's parameters gives the row's bound, and the row is vacuous just
    # when the id's value is a probability and exceeds 1.
    scenarios = [random_scenario(s, kind) for kind in GENERATOR_KINDS for s in range(200)]
    scenarios += [load_scenario(CORRELATED), load_scenario(CORRELATED.parent / "s1.json")]
    space = FiniteSpace((2, 2))
    for weights in ((1.0, 1.0), normalize((1.0, 1.0)).weights):
        f = Functional.weighted_sum(weights, self_bounding_params=(1.0, 0.0))
        scenarios.append(
            Scenario(space, Distribution.uniform(space), normalize((1.0, 1.0)), MeanTarget(f))
        )
    seen = set()
    for sc in scenarios:
        try:
            report = verify_scenario(sc)
        except ValueError:
            continue
        for row in report.rows:
            entry = bounds.EVALUATORS[row.bound_id]
            params = _bound_params(report, row)
            args = {k: params[k] for k in entry.params}
            assert row.bound == bounds.evaluate_bound(row.bound_id, **args), row
            assert row.vacuous == (entry.probability and row.bound > 1.0), row
            seen.add(row.bound_id)
    assert seen == set(bounds.EVALUATORS) - {"h"}


# -- the names the benchmark reaches into -------------------------------------


def test_the_benchmark_finds_every_name_it_patches_or_reads(monkeypatch):
    # bench/tracer.py patches package names by attribute, and the workloads
    # read Point, SetSpec.explicit, SetSpec.from_points and a table's
    # per-point call; a refactor that removes one fails here, not only in
    # a traced benchmark run.
    import hamconc
    from hamconc import estimators, verify

    monkeypatch.syspath_prepend(str(CORRELATED.parent.parent / "bench"))
    import inputs
    import tracer
    import workloads

    flow = verify.verify_set
    trace = tracer.Tracer()
    with trace.installed():
        assert verify.verify_set is not flow
        for kind in GENERATOR_KINDS:
            sc = random_scenario(0, kind)
            assert workloads._scenario_dict(sc)["target"]["kind"] == sc.target.kind
            verify.verify_scenario(sc)
        case = {"sizes": [2, 2], "pmfs": [[0.5, 0.5]] * 2, "weights": [0.6, 0.8]}
        for quantity in ("set", "distance_to"):
            args = inputs.build_mc_case(hamconc, {**case, "quantity": quantity, "members": [[0, 1]]})
            estimators.mc_tail(*args, 0.5, n_samples=100)
    assert verify.verify_set is flow
    metrics = trace.layer_metrics()
    for key in ("verify.rows", "functionals.check_drop_condition.calls", "estimators.mc_tail.calls"):
        assert metrics[key] > 0, key


# -- start-up -----------------------------------------------------------------------

_FIRST_CALLS = """
import sys
import numpy as np
import hamconc
from hamconc import estimators, scenario_io, verify

np.random.default_rng(0)
before = set(sys.modules)
for path in sys.argv[1:]:
    verify.verify_scenario(scenario_io.load_scenario(path)).to_json()
for kind in verify.GENERATOR_KINDS:
    verify.verify_scenario(verify.random_scenario(0, kind)).to_json()
n = 12
members = hamconc.SetSpec(np.random.default_rng(1).integers(0, 2, size=(16, n)))
quantity = hamconc.DistanceToSet(hamconc.normalize([1.0] * n), members)
dist = hamconc.Distribution.product([(0.4, 0.6)] * n)
estimators.mc_tail(hamconc.FiniteSpace((2,) * n), dist, quantity, 0.3, n_samples=2000)
print(sorted(set(sys.modules) - before))
"""


def test_the_first_calls_in_a_process_import_no_module(tmp_path):
    # A module imported on first use costs every run of the command its
    # import: under numpy 2.4 a plain np.unique imports numpy.ma (20 ms or
    # more).  The set file has multi-digit symbols, and the mc_tail call
    # takes the min-plus path of the sampled distances, whose block cuts
    # drop their repeats without np.unique.
    path = tmp_path / "set.json"
    members = [[r // 600, r // 2 % 300, r % 2] for r in range(0, 7200, 37)]
    d = {
        "space": {"alphabet_sizes": [12, 300, 2]},
        "distribution": {"kind": "product", "pmfs": [[1 / 12] * 12, [1 / 300] * 300, [0.5] * 2]},
        "alpha": {"weights": [1.0, 1.0, 1.0], "normalize": True},
        "target": {"kind": "set", "set": {"members": members}},
    }
    path.write_text(json.dumps(d))
    src = str(Path(functionals.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", _FIRST_CALLS, str(CORRELATED.parent / "s1.json"), str(path)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert out.stdout == "[]\n"


# -- the package's names ---------------------------------------------------------


def test_the_package_exports_each_modules_public_names_once():
    import hamconc
    from hamconc import bounds, estimators, hamming, scenario_io, space, verify

    modules = (bounds, estimators, functionals, hamming, scenario_io, space, verify)
    names = hamconc.__all__
    assert len(names) == len(set(names))
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in modules))
    for name in names:
        assert hasattr(hamconc, name), name
    # the scenario type and its file form stay importable from verify
    for name in ("Scenario", "SetTarget", "scenario_to_dict", "scenario_fingerprint"):
        assert getattr(verify, name) is getattr(scenario_io, name)
