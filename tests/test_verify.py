"""Scenario verification flows: row inventories, frozen values, reports."""

import json
import math

import pytest

from hamconc import bounds, functionals
from hamconc import verify as verify_module
from hamconc._util import fmt_float
from hamconc.functionals import Functional, drop_infimum_family
from hamconc.hamming import AlphaWeights, normalize
from hamconc.space import Distribution, FiniteSpace, SetSpec
from hamconc.verify import (
    CSV_COLUMNS,
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
    table = [0.5 * sum(a * s for a, s in zip(alpha.weights, p.symbols)) for p in space.points()]
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
    # the report's scenario and derived quantities name the family; no note does
    assert not any("drop family" in note for note in report.notes)
    assert report.scenario["target"]["functional"]["drop"] == "infimum"
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
    f = drop_infimum_family(Functional(fn), COUNT_SPACE)
    assert fn.calls == COUNT_SPACE.size
    report = verify_drop_functional(_counting_scenario(MeanTarget(f)))
    assert fn.calls == COUNT_SPACE.size
    assert report.summary["derived"]["drop_family"] == "infimum"
    assert report.all_pass


def test_a_supplied_family_is_tabulated_once():
    # entry i, a plain callable, is called once per point of the space
    # without coordinate i, though both drop certificates and the
    # self-bounding certificate read it
    family = [_Counting() for _ in range(COUNT_SPACE.n)]
    f = Functional(_Counting(), drop_family=family, self_bounding_params=(1.0, 1.0))
    report = verify_drop_functional(_counting_scenario(MeanTarget(f)))
    assert sum(fi.calls for fi in family) == COUNT_SPACE.n * COUNT_SPACE.size // 2 == 192
    assert report.scenario["target"]["functional"]["drop"] == "custom"
    assert report.summary["derived"]["certificates"]["self_bounding"] is True
    assert report.all_pass


def test_the_drop_gap_arrays_are_built_once(monkeypatch):
    # both drop certificates and the self-bounding one read one set of gaps
    calls = []
    for module in (verify_module, functionals):
        build = module._drop_gap_arrays
        monkeypatch.setattr(
            module, "_drop_gap_arrays", lambda *a, build=build: calls.append(a) or build(*a)
        )
    f = Functional(_Counting(), self_bounding_params=(1.0, 0.0))
    report = verify_drop_functional(_counting_scenario(MeanTarget(f)))
    assert len(calls) == 1
    assert report.summary["derived"]["certificates"]["self_bounding"] is True
    assert report.all_pass


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
    assert d["target"]["set"]["members"] == [[0, 0]]
    assert d["space"]["alphabet_sizes"] == [2, 2]


# -- generators and sweeps --------------------------------------------------------


def test_random_scenario_is_deterministic():
    for kind in GENERATOR_KINDS:
        a = random_scenario(11, kind)
        b = random_scenario(11, kind)
        assert scenario_to_dict(a) == scenario_to_dict(b)


def test_random_scenario_structure():
    for seed in range(8):
        sc = random_scenario(seed, "set")
        assert sc.alpha.normalized
        assert sc.dist.kind == "product"
        members = list(sc.target.set_spec.members(sc.space))
        assert 0 < len(members) < sc.space.size
    drop_kinds = {random_scenario(s, "drop").dist.kind for s in range(10)}
    assert drop_kinds == {"product", "joint"}
    report = verify_scenario(random_scenario(0, "drop"))
    assert report.scenario["target"]["functional"]["drop"] == "infimum"
    assert report.summary["derived"]["drop_family"] == "infimum"
    with pytest.raises(ValueError, match="kind must be one of"):
        random_scenario(0, "mean")
    with pytest.raises(ValueError, match="4096"):
        random_scenario(0, "set", max_n=8, max_alphabet=4)


def test_a_mean_target_is_fingerprinted_with_the_family_its_verify_uses():
    for sc in (random_scenario(0, "drop"), _functional_scenario(MeanTarget)):
        assert sc.target.functional.drop_family is None
        assert scenario_to_dict(sc)["target"]["functional"]["drop"] == "infimum"
        assert verify_scenario(sc).fingerprint == scenario_fingerprint(sc)


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
