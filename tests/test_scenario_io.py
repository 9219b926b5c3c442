"""Scenario file parsing: schema acceptance and key-named rejections."""

import json
from pathlib import Path

import pytest

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
    assert corr.target.functional.drop_label == "infimum"


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
    tgt = scenario_from_dict(d).target
    assert isinstance(tgt, MeanTarget)
    assert tgt.functional.drop_label == "infimum"

    d["target"] = {"kind": "median", "functional": {"type": "spline"}}
    with pytest.raises(ScenarioFileError, match="target.functional.type"):
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


def test_members_parse_to_the_canonical_set():
    d = _base()
    d["target"]["set"]["members"] = [[1, 1], [0, 1], [1, 1]]
    spec = scenario_from_dict(d).target.set_spec
    assert spec == SetSpec.from_points([(0, 1), (1, 1)])
    assert spec.member_ranks(FiniteSpace((2, 2))) == (1, 3)


def test_grids_are_kept():
    d = _base()
    d["grids"] = {"t": [0.5, 0.25], "lambda": [0.0, 2.0]}
    sc = scenario_from_dict(d)
    assert sc.t_grid == (0.25, 0.5)
    assert sc.lambda_grid == (0.0, 2.0)


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioFileError, match="invalid JSON"):
        load_scenario(path)
