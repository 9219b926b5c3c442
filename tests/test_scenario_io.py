"""Scenario file parsing: schema acceptance and key-named rejections."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from hamconc import functionals, space
from hamconc._util import dumps
from hamconc.functionals import Functional
from hamconc.hamming import Point, normalize
from hamconc.scenario_io import ScenarioFileError, load_scenario, scenario_from_dict
from hamconc.space import Distribution, FiniteSpace, SetSpec
from hamconc.verify import (
    GENERATOR_KINDS,
    GapTarget,
    MeanTarget,
    MedianTarget,
    Scenario,
    SetTarget,
    random_scenario,
    scenario_fingerprint,
    scenario_to_dict,
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
    report = verify_scenario(corr)
    assert "drop" not in report.scenario["target"]["functional"]
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
    assert "drop" not in report.scenario["target"]["functional"]
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

    spy(functionals._WeightedSum, "values")
    sc = scenario_from_dict(_over_the_cap({"type": "weighted_sum", "coefficients": [1.0] * 12}))
    assert calls == []
    with pytest.raises(ValueError, match="outcome count 4096 exceeds enumeration cap 10"):
        verify_scenario(sc)
    assert calls == []
    # within the cap, the drop flow evaluates f once
    report = verify_scenario(dataclasses.replace(sc, cap=None))
    assert calls == ["values"]
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
    monkeypatch.setattr(space, "DEFAULT_ENUM_CAP", 100)
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
    "path",
    [
        "seeds",
        "space.x",
        "distribution.pmf",
        "alpha.scale",
        "target.parms",
        "target.set.extra",
        "target.functional.coefs",
        "target.functional.set.extra",
        "grids.theta",
        "caps.memory",
    ],
)
def test_an_unknown_key_is_refused_at_every_level(path):
    d = {**_base(), "grids": {"t": [0.5]}, "caps": {"enumeration": 100}}
    if not path.startswith("target.set."):
        fd = {"type": "distance_to_set", "set": {"members": [[1, 1]]}}
        d["target"] = {"kind": "mean", "functional": fd, "params": [1.0, 0.0]}
    *parents, key = path.split(".")
    obj = d
    for part in parents:
        obj = obj[part]
    obj[key] = 1
    with pytest.raises(ScenarioFileError, match=f"^unknown key '{re.escape(path)}'$"):
        scenario_from_dict(d)
    del obj[key]
    scenario_from_dict(d)  # the same file without the key loads


_TABLE = {"type": "table", "values": [0.0, 0.5, 0.5, 1.0]}
_WSUM = {"type": "weighted_sum", "coefficients": [0.5, 0.5]}


@pytest.mark.parametrize(
    "place, obj, key, value",
    [
        ("distribution", None, "joint_table", [1, 0, 0, 0]),
        ("distribution", {"kind": "joint", "joint_table": [0.25] * 4}, "pmfs", [[0.5, 0.5]] * 2),
        ("target", None, "functional", _WSUM),
        ("target", None, "params", [1.0, 0.0]),
        ("target", {"kind": "median", "functional": _TABLE}, "set", {"members": [[0, 0]]}),
        ("target.functional", _TABLE, "coefficients", [0.5, 0.5]),
        ("target.functional", _WSUM, "values", [0.0, 0.5, 0.5, 1.0]),
        ("target.functional", _WSUM, "set", {"members": [[0, 0]]}),
    ],
)
def test_a_key_of_another_kind_is_refused(place, obj, key, value):
    d = _base()
    if place == "target.functional":
        d["target"] = {"kind": "mean", "functional": dict(obj)}
    elif obj is not None:
        d[place] = dict(obj)
    target = d
    for part in place.split("."):
        target = target[part]
    scenario_from_dict(d)  # loads without the key
    target[key] = value
    with pytest.raises(ScenarioFileError, match=f"^unknown key '{re.escape(place)}.{key}'$"):
        scenario_from_dict(d)


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


@pytest.mark.parametrize(
    "members",
    [
        np.array([[0, 0], [1, 2]]),
        np.array([[0, -1], [1, 1]]),
        np.array([[0, 0], [0, 2**62]]),
        np.array([[0.0, 0.0], [1.0, 0.0]]),
        np.array([[False, True]]),
        np.zeros((2, 3), dtype=np.int64),
        np.zeros((2, 1), dtype=np.int64),
        np.zeros(2, dtype=np.int64),
        np.zeros((1, 1, 2), dtype=np.int64),
        np.zeros((0, 2), dtype=np.int64),
        np.int64(0),
    ],
    ids=repr,
)
def test_member_arrays_are_refused_as_their_lists_are(members):
    # scenario_to_dict gives the members as an int64 array; the loader
    # takes any array as its nested list, with the list's messages.
    messages = []
    for form in (members, members.tolist()):
        d = _base()
        d["target"]["set"]["members"] = form
        with pytest.raises(ScenarioFileError) as info:
            scenario_from_dict(d)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def _set_scenarios() -> list:
    """Set targets and distance_to_set functionals, one- and multi-digit symbols."""
    scenarios = [random_scenario(seed, "set") for seed in range(20)]
    rng = np.random.default_rng(5)
    for sizes in [(2, 3), (12, 300, 2), (1000, 11)]:
        fs = FiniteSpace(sizes)
        members = SetSpec(np.stack(np.unravel_index(rng.choice(fs.size, 200), sizes), axis=1))
        dist = Distribution.product([[1.0 / s] * s for s in sizes])
        alpha = normalize([1.0] * len(sizes))
        scenarios.append(Scenario(fs, dist, alpha, SetTarget(members)))
        f = Functional.distance_to(alpha, members, fs)
        scenarios += [Scenario(fs, dist, alpha, cls(f)) for cls in (MedianTarget, MeanTarget)]
    return scenarios


def test_the_canonical_form_round_trips_its_member_arrays():
    for sc in _set_scenarios():
        d = scenario_to_dict(sc)
        tgt = d["target"]
        members = tgt["set"]["members"] if "set" in tgt else tgt["functional"]["set"]["members"]
        assert members.dtype == np.int64 and not members.flags.writeable
        back = scenario_from_dict(d)
        assert dumps(scenario_to_dict(back)) == dumps(d)
        assert scenario_fingerprint(back) == scenario_fingerprint(sc)
        if isinstance(sc.target, SetTarget):
            assert back.target.set_spec == sc.target.set_spec
        # read back from the text, as lists, they give the same scenario
        again = scenario_from_dict(json.loads(dumps(d)))
        assert scenario_fingerprint(again) == scenario_fingerprint(sc)


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
    values = verify_scenario(sc).scenario["target"]["functional"]["values"]
    assert values.dtype == np.float64 and values.tolist() == [0.0, 0.5, 0.5, 1.0]


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
    assert spec.mask(FiniteSpace((2, 2))).ravel().tolist() == [False, True, False, True]


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


_BAD_GRIDS = [
    ({"t": []}, "grids.t must be nonempty when given"),
    ({"lambda": []}, "grids.lambda must be nonempty when given"),
    ({"t": [1.0, 0.0]}, r"grids.t\[1\] must be positive, got 0.0"),
    ({"t": [-0.0]}, r"grids.t\[0\] must be positive, got -0.0"),
    ({"t": [float("inf")]}, r"grids.t\[0\] must be positive, got inf"),
    ({"lambda": [0.0, -1.0]}, r"grids.lambda\[1\] must be nonnegative, got -1.0"),
    ({"lambda": [float("nan")]}, r"grids.lambda\[0\] must be nonnegative, got nan"),
]


@pytest.mark.parametrize("grids, message", [*_BAD_GRIDS, (None, "grids must be an object")])
def test_grid_values_are_checked(grids, message):
    d = _base()
    d["grids"] = grids
    with pytest.raises(ScenarioFileError, match=f"^{message}$"):
        scenario_from_dict(d)


@pytest.mark.parametrize("grids, message", _BAD_GRIDS)
def test_one_grid_message_on_both_paths(grids, message):
    # Scenario makes the one grid check; a caller that builds one directly
    # reads the loader's text, as a plain ValueError.
    sc = scenario_from_dict(_base())
    ((key, values),) = grids.items()
    with pytest.raises(ValueError, match=f"^{message}$") as info:
        dataclasses.replace(sc, **{f"{key}_grid": tuple(values)})
    assert type(info.value) is ValueError


def test_the_scenario_module_imports_nothing_from_verify():
    # scenario_io owns the scenario type, its file form and its digest;
    # verify imports them, never the other way round.
    import ast

    import hamconc.scenario_io as scenario_io

    tree = ast.parse(Path(scenario_io.__file__).read_text(encoding="utf-8"))
    imported = {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module is not None
    }
    assert "verify" not in imported and "hamconc.verify" not in imported


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioFileError, match="invalid JSON"):
        load_scenario(path)


# -- a report's scenario block is a scenario file ---------------------------------

_FUNCTIONALS = {
    "table": {"type": "table", "values": [0.0, 0.5, 0.25, 0.75]},
    "weighted_sum": {"type": "weighted_sum", "coefficients": [0.5, 0.25]},
    "distance_to_set": {"type": "distance_to_set", "set": {"members": [[1, 1]]}},
}


def _replay_files() -> dict:
    files = {}
    for form, fd in _FUNCTIONALS.items():
        for kind in ("median", "gap", "mean"):
            files[f"{form}-{kind}"] = {**_base(), "target": {"kind": kind, "functional": fd}}
        target = {"kind": "mean", "functional": fd, "params": [1.0, 0.0]}
        files[f"{form}-mean-params"] = {**_base(), "target": target}
    files["set"] = _base()
    given = {"grids": {"t": [1.0, 0.5], "lambda": [2.0, 0.0]}, "seed": 7, "caps": {"enumeration": 4}}
    files["set-grids-seed-caps"] = {**_base(), **given}
    target = {"kind": "mean", "functional": _FUNCTIONALS["table"], "params": [1.0, 0.0]}
    files["mean-grids-seed-caps"] = {**_base(), **given, "target": target}
    files["mean-lambda-grid"] = {**_base(), "grids": {"lambda": [1.0]}, "target": target}
    return files


def _assert_replays(scenario) -> None:
    """The report's scenario block loads and verifies to the same bytes."""
    report = verify_scenario(scenario)
    text = report.to_json()
    loaded = scenario_from_dict(json.loads(text)["scenario"])
    assert scenario_fingerprint(loaded) == report.fingerprint
    assert verify_scenario(loaded).to_json() == text


@pytest.mark.parametrize("name", sorted(_replay_files()))
def test_a_reports_scenario_block_is_a_scenario_file(name):
    _assert_replays(scenario_from_dict(_replay_files()[name]))


@pytest.mark.parametrize("name", ["s1.json", "correlated_pair.json"])
def test_a_bundled_report_replays_from_its_scenario_block(name):
    _assert_replays(load_scenario(SCENARIOS / name))


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generated_reports_replay_from_their_scenario_block(kind):
    for seed in range(50):
        _assert_replays(random_scenario(seed, kind))


def test_the_scenario_block_keeps_mean_params_and_no_null_keys():
    d = _replay_files()["table-mean-params"]
    report = verify_scenario(scenario_from_dict(d))
    block = report.scenario
    assert block["target"]["params"] == [1.0, 0.0]
    assert "params" not in block["target"]["functional"]
    assert list(block) == ["space", "distribution", "alpha", "target", "seed"]
    assert sum(r.bound_id.startswith("sb-") for r in report.rows) == 48
    assert len(report.rows) == len(verify_scenario(scenario_from_dict(block)).rows) == 150


def test_a_table_digest_that_does_not_match_is_refused():
    d = _replay_files()["weighted_sum-mean"]
    block = verify_scenario(scenario_from_dict(d)).scenario
    digest = block["target"]["functional"]["table_sha256"]
    block["target"]["functional"]["table_sha256"] = digest[::-1]
    with pytest.raises(
        ScenarioFileError, match=f"^target.functional.table_sha256 is not {digest}, "
    ):
        scenario_from_dict(block)


def test_a_table_digest_is_checked_only_within_the_cap(monkeypatch):
    def refuse(*args):
        raise AssertionError("the functional was tabulated")

    monkeypatch.setattr(functionals._WeightedSum, "values", refuse)
    fd = {"type": "weighted_sum", "coefficients": [1.0] * 12, "table_sha256": "0" * 64}
    with pytest.raises(
        ScenarioFileError, match="^target.functional: outcome count 4096 exceeds enumeration cap 10$"
    ):
        scenario_from_dict(_over_the_cap(fd))
