"""Scenario file parsing: schema acceptance and key-named rejections."""

import dataclasses
import json
from pathlib import Path

import pytest

from hamconc import functionals, verify
from hamconc.hamming import Point
from hamconc.scenario_io import ScenarioFileError, load_scenario, scenario_from_dict
from hamconc.space import FiniteSpace, SetSpec
from hamconc.verify import (
    GapTarget,
    MeanTarget,
    MedianTarget,
    SetTarget,
    verify_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _base() -> dict:
    return {
        "space": {"alphabet_sizes": [2, 2]},
        "distribution": {"kind": "product", "pmfs": [[0.5, 0.5], [0.5, 0.5]]},
        "alpha": {"weights": [1.0, 1.0], "normalize": True},
        "target": {"kind": "set", "set": {"members": [[0, 0]]}},
    }


def test_load_bundled_scenarios():
    s1 = load_scenario(SCENARIOS / "s1.json")
    assert isinstance(s1.target, SetTarget)
    assert s1.alpha.normalized
    assert s1.seed == 0
    corr = load_scenario(SCENARIOS / "correlated_pair.json")
    assert isinstance(corr.target, MeanTarget)
    assert corr.dist.kind == "joint"
    # the drop flow, not the loader, attaches the infimum family
    assert corr.target.functional.drop_family is None
    report = verify_scenario(corr)
    assert report.scenario["target"]["functional"]["drop"] == "infimum"
    assert report.summary["derived"]["drop_family"] == "infimum"


def test_round_trip_through_verify():
    sc = scenario_from_dict(_base())
    assert verify_scenario(sc).all_pass


def test_alpha_paths():
    d = _base()
    d["alpha"] = {"weights": [0.6, 0.8]}
    sc = scenario_from_dict(d)  # already unit norm, no normalize key needed
    assert sc.alpha.weights == (0.6, 0.8)

    d["alpha"] = {"weights": [3.0, 4.0]}
    with pytest.raises(ScenarioFileError, match="normalize"):
        scenario_from_dict(d)

    d["alpha"] = {"weights": [3.0, 4.0], "normalize": True}
    assert scenario_from_dict(d).alpha.weights == (0.6, 0.8)

    d["alpha"] = {"weights": [1.0, 0.0], "scale": 2}
    with pytest.raises(ScenarioFileError, match="alpha.scale"):
        scenario_from_dict(d)


def test_functional_types():
    d = _base()
    d["target"] = {
        "kind": "median",
        "functional": {"type": "table", "values": [0.0, 0.1, 0.2, 0.3]},
    }
    assert isinstance(scenario_from_dict(d).target, MedianTarget)

    d["target"] = {
        "kind": "gap",
        "functional": {"type": "weighted_sum", "coefficients": [0.6, 0.8]},
    }
    assert isinstance(scenario_from_dict(d).target, GapTarget)

    d["target"] = {
        "kind": "mean",
        "functional": {"type": "distance_to_set", "set": {"members": [[1, 1]]}},
    }
    sc = scenario_from_dict(d)
    assert isinstance(sc.target, MeanTarget)
    report = verify_scenario(sc)
    assert report.scenario["target"]["functional"]["drop"] == "infimum"
    assert report.summary["derived"]["drop_family"] == "infimum"

    d["target"] = {"kind": "median", "functional": {"type": "spline"}}
    with pytest.raises(ScenarioFileError, match="target.functional.type"):
        scenario_from_dict(d)


def _over_the_cap(functional: dict) -> dict:
    """A mean file on (2,)*12 whose caps.enumeration of 10 it exceeds."""
    return {
        "space": {"alphabet_sizes": [2] * 12},
        "distribution": {"kind": "product", "pmfs": [[0.5, 0.5]] * 12},
        "alpha": {"weights": [1.0] * 12, "normalize": True},
        "target": {"kind": "mean", "functional": functional},
        "caps": {"enumeration": 10},
    }


def test_a_mean_file_over_its_cap_does_no_whole_space_work(monkeypatch):
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(owner, name, wrapper)

    spy(functionals, "drop_infimum_family")
    spy(verify, "drop_infimum_family")
    spy(functionals._WeightedSum, "values")
    sc = scenario_from_dict(_over_the_cap({"type": "weighted_sum", "coefficients": [1.0] * 12}))
    assert calls == []
    with pytest.raises(ValueError, match="outcome count 4096 exceeds enumeration cap 10"):
        verify_scenario(sc)
    assert calls == []
    # within the cap, the drop flow evaluates f once and attaches the family once
    report = verify_scenario(dataclasses.replace(sc, cap=None))
    assert calls == ["values", "drop_infimum_family"]
    assert report.summary["derived"]["drop_family"] == "infimum"


def test_a_distance_over_the_cap_is_refused_before_it_is_tabulated(monkeypatch):
    def refuse(*args):
        raise AssertionError("the distance to the set was tabulated")

    monkeypatch.setattr(functionals, "distance_field", refuse)
    d = _over_the_cap({"type": "distance_to_set", "set": {"members": [[0] * 12]}})
    with pytest.raises(
        ScenarioFileError,
        match="^target.functional: outcome count 4096 exceeds enumeration cap 10$",
    ):
        scenario_from_dict(d)
    # without caps.enumeration the loader checks the default cap
    del d["caps"]
    monkeypatch.setenv("HAMCONC_ENUM_CAP", "100")
    with pytest.raises(ScenarioFileError, match="exceeds enumeration cap 100$"):
        scenario_from_dict(d)


def test_mean_params_gate_self_bounding():
    d = _base()
    d["target"] = {
        "kind": "mean",
        "functional": {"type": "weighted_sum", "coefficients": [1.0, 1.0]},
        "params": [1.0, 0.0],
    }
    tgt = scenario_from_dict(d).target
    assert tgt.functional.self_bounding_params == (1.0, 0.0)

    d["target"]["kind"] = "median"
    with pytest.raises(ScenarioFileError, match="only valid"):
        scenario_from_dict(d)

    d["target"]["kind"] = "mean"
    d["target"]["params"] = [0.0, 0.0]
    with pytest.raises(ScenarioFileError, match=r"params\[0\]"):
        scenario_from_dict(d)
    d["target"]["params"] = [1.0, -1.0]
    with pytest.raises(ScenarioFileError, match=r"params\[1\]"):
        scenario_from_dict(d)
    d["target"]["params"] = [1.0]
    with pytest.raises(ScenarioFileError, match=r"must be \[a, b\]"):
        scenario_from_dict(d)


def test_key_named_rejections():
    d = _base()
    d["extra"] = 1
    with pytest.raises(ScenarioFileError, match="'extra'"):
        scenario_from_dict(d)

    d = _base()
    del d["space"]
    with pytest.raises(ScenarioFileError, match="missing key space"):
        scenario_from_dict(d)

    d = _base()
    d["space"]["alphabet_sizes"] = [2, "two"]
    with pytest.raises(ScenarioFileError, match=r"alphabet_sizes\[1\]"):
        scenario_from_dict(d)

    d = _base()
    d["distribution"] = {"kind": "joint", "joint_table": [0.5, 0.5]}
    with pytest.raises(ScenarioFileError, match="distribution.joint_table"):
        scenario_from_dict(d)

    d = _base()
    d["distribution"]["kind"] = "markov"
    with pytest.raises(ScenarioFileError, match="distribution.kind"):
        scenario_from_dict(d)

    d = _base()
    d["target"]["set"]["members"] = [[0, 5]]
    with pytest.raises(ScenarioFileError, match=r"members\[0\]\[1\]"):
        scenario_from_dict(d)

    d = _base()
    d["target"]["set"]["members"] = []
    with pytest.raises(ScenarioFileError, match="nonempty"):
        scenario_from_dict(d)

    d = _base()
    d["seed"] = -3
    with pytest.raises(ScenarioFileError, match="seed"):
        scenario_from_dict(d)

    d = _base()
    d["caps"] = {"enumeration": 0}
    with pytest.raises(ScenarioFileError, match="caps.enumeration"):
        scenario_from_dict(d)

    d = _base()
    d["grids"] = {"t": [1.0], "theta": [1.0]}
    with pytest.raises(ScenarioFileError, match="grids.theta"):
        scenario_from_dict(d)

    with pytest.raises(ScenarioFileError, match="JSON object"):
        scenario_from_dict([1, 2, 3])


@pytest.mark.parametrize(
    "members, message",
    [
        ([[0, 0], [1, 2]], "target.set.members[1][1] must be in [0, 1], got 2"),
        ([[0, -1], [1, 2]], "target.set.members[0][1] must be in [0, 1], got -1"),
        ([[0, 0], [0, 2**70]], f"target.set.members[1][1] must be in [0, 1], got {2**70}"),
        ([[0, 0], [1, True]], "target.set.members[1][1] must be an integer"),
        ([[0, 0], [1.0, 0]], "target.set.members[1][0] must be an integer"),
        ([[0, 0], [0, "1"]], "target.set.members[1][1] must be an integer"),
        ([[0, 0], [0]], "target.set.members[1] has 1 symbols, space has 2 coordinates"),
        ([[0, 0], [0, 5, 0]], "target.set.members[1] has 3 symbols, space has 2 coordinates"),
        ([[0, 0], 1], "target.set.members[1] must be an array"),
    ],
)
def test_member_errors_name_the_first_bad_entry(members, message):
    d = _base()
    d["target"]["set"]["members"] = members
    with pytest.raises(ScenarioFileError) as info:
        scenario_from_dict(d)
    assert str(info.value) == message


def _median_table(values: list) -> dict:
    d = _base()
    d["target"] = {"kind": "median", "functional": {"type": "table", "values": values}}
    return d


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("distribution", "pmfs", 1), [0.5, True], "distribution.pmfs[1][1] must be a number"),
        (("distribution", "pmfs", 0), ["0.5", 0.5], "distribution.pmfs[0][0] must be a number"),
        (("alpha", "weights"), [1.0, None], "alpha.weights[1] must be a number"),
        (("alpha", "weights"), [False, 1.0], "alpha.weights[0] must be a number"),
        (("alpha", "weights"), (1.0, 1.0), "alpha.weights must be an array"),
        (("grids", "t"), [0.5, 1, [2.0]], "grids.t[2] must be a number"),
        (("grids", "lambda"), [0, True], "grids.lambda[1] must be a number"),
    ],
)
def test_number_list_errors_name_the_first_bad_entry(path, value, message):
    d = _base()
    d["grids"] = {"t": [1.0], "lambda": [1.0]}
    *keys, last = path
    node = d
    for k in keys:
        node = node[k]
    node[last] = value
    with pytest.raises(ScenarioFileError) as info:
        scenario_from_dict(d)
    assert str(info.value) == message


def test_number_lists_in_functionals_and_joint_tables():
    with pytest.raises(ScenarioFileError) as info:
        scenario_from_dict(_median_table([0.0, 0.5, 0.5, True]))
    assert str(info.value) == "target.functional.values[3] must be a number"
    d = _median_table([0.0, 0.5, 0.5, 1.0])
    d["target"]["functional"] = {"type": "weighted_sum", "coefficients": [0.5, "x"]}
    with pytest.raises(ScenarioFileError) as info:
        scenario_from_dict(d)
    assert str(info.value) == "target.functional.coefficients[1] must be a number"
    d = _base()
    d["distribution"] = {"kind": "joint", "joint_table": [0.25, 0.25, 0.25, True]}
    with pytest.raises(ScenarioFileError) as info:
        scenario_from_dict(d)
    assert str(info.value) == "distribution.joint_table[3] must be a number"
    # Integers are numbers: a table of ints and floats parses to floats.
    sc = scenario_from_dict(_median_table([0, 0.5, 0.5, 1]))
    assert verify_scenario(sc).scenario["target"]["functional"]["values"] == [
        0.0,
        0.5,
        0.5,
        1.0,
    ]


@pytest.mark.parametrize(
    "functional, message",
    [
        (
            '{"type": "table", "values": [0, 0.1, NaN, 0.2]}',
            "target.functional.values[2] must be finite, got nan",
        ),
        (
            '{"type": "table", "values": [0, -Infinity, 0.5, 0.2]}',
            "target.functional.values[1] must be finite, got -inf",
        ),
        (
            '{"type": "weighted_sum", "coefficients": [1, Infinity]}',
            "target.functional.coefficients[1] must be finite, got inf",
        ),
    ],
)
def test_non_finite_functional_numbers_are_refused(functional, message):
    # json.loads reads the NaN and Infinity tokens as floats
    d = _base()
    d["target"] = {"kind": "median", "functional": json.loads(functional)}
    with pytest.raises(ScenarioFileError) as info:
        scenario_from_dict(d)
    assert str(info.value) == message


def test_members_parse_to_the_canonical_set():
    d = _base()
    d["target"]["set"]["members"] = [[1, 1], [0, 1], [1, 1]]
    spec = scenario_from_dict(d).target.set_spec
    assert spec == SetSpec.from_points([(0, 1), (1, 1)])
    assert spec.member_ranks(FiniteSpace((2, 2))) == (1, 3)


def test_a_set_scenario_is_loaded_verified_and_written_without_a_point(
    tmp_path, monkeypatch
):
    built = []
    init = Point.__post_init__
    monkeypatch.setattr(Point, "__post_init__", lambda p: built.append(p) or init(p))
    d = _base()
    d["space"]["alphabet_sizes"] = [3, 2, 2]
    d["distribution"]["pmfs"] = [[0.2, 0.3, 0.5], [0.5, 0.5], [0.5, 0.5]]
    d["alpha"]["weights"] = [1.0, 1.0, 1.0]
    d["target"]["set"]["members"] = [[2, 1, 0], [0, 0, 1], [2, 1, 0]]
    path = tmp_path / "set.json"
    path.write_text(json.dumps(d))
    sc = load_scenario(path)
    text = verify_scenario(sc).to_json()
    assert built == []
    assert '"members":[[0,0,1],[2,1,0]]' in text
    # the spy sees the Points that are built on request
    assert [p.symbols for p in sc.target.set_spec.explicit] == [(0, 0, 1), (2, 1, 0)]
    assert len(built) == 2


def test_grids_are_kept():
    d = _base()
    d["grids"] = {"t": [0.5, 0.25], "lambda": [0.0, 2.0]}
    sc = scenario_from_dict(d)
    assert sc.t_grid == (0.25, 0.5)
    assert sc.lambda_grid == (0.0, 2.0)
    d["grids"] = {"lambda": [-0.0]}
    assert scenario_from_dict(d).lambda_grid == (0.0,)


@pytest.mark.parametrize(
    "grids, message",
    [
        ({"t": []}, "grids.t must be nonempty when given"),
        ({"lambda": []}, "grids.lambda must be nonempty when given"),
        ({"t": [1.0, 0.0]}, r"grids.t\[1\] must be positive, got 0.0"),
        ({"t": [-0.0]}, r"grids.t\[0\] must be positive, got -0.0"),
        ({"t": [float("inf")]}, r"grids.t\[0\] must be positive, got inf"),
        ({"lambda": [0.0, -1.0]}, r"grids.lambda\[1\] must be nonnegative, got -1.0"),
        ({"lambda": [float("nan")]}, r"grids.lambda\[0\] must be nonnegative, got nan"),
        (None, "grids must be an object"),
    ],
)
def test_grid_values_are_checked(grids, message):
    d = _base()
    d["grids"] = grids
    with pytest.raises(ScenarioFileError, match=f"^{message}$"):
        scenario_from_dict(d)


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioFileError, match="invalid JSON"):
        load_scenario(path)
