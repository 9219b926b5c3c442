"""Report writers against the plain recursive reference writer, byte for byte."""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_writer as ref
from hamconc._util import dumps, fmt_float
from hamconc.scenario_io import load_scenario
from hamconc.verify import (
    CSV_COLUMNS,
    GENERATOR_KINDS,
    BoundReport,
    BoundRow,
    random_scenario,
    verify_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

_ODD_CHARS = ['"', "\\", "/", "\x00", "\x1f", "\x7f", "é", " ", "\ud800", "\U0001f600"]
_TEXT = st.text(st.one_of(st.characters(), st.sampled_from(_ODD_CHARS)), max_size=6)
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1]
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_FLOATS)
)
_INTS = st.one_of(st.integers(), st.integers(-3, 3))
_LEAVES = st.one_of(
    _TEXT,
    _INTS,
    st.booleans(),
    st.none(),
    _FLOATS,
    _FLOATS.map(np.float64),
)
# Homogeneous lists take the writer's whole-list paths; True inside an int
# list and np.float64 inside a float list must leave them.
_SEQUENCES = st.one_of(
    st.lists(_FLOATS, max_size=6),
    st.lists(_INTS, max_size=6),
    st.lists(st.one_of(_INTS, st.just(True)), max_size=6),
    st.lists(st.one_of(_FLOATS, _FLOATS.map(np.float64)), max_size=6),
)
_OBJECTS = st.recursive(
    st.one_of(_LEAVES, _SEQUENCES, _SEQUENCES.map(tuple)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_TEXT, children, max_size=5),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_OBJECTS, st.booleans())
def test_dumps_matches_the_reference_writer(obj, sort_keys):
    assert dumps(obj, sort_keys=sort_keys) == ref.dumps(obj, sort_keys=sort_keys)


@settings(max_examples=200, deadline=None)
@given(_FLOATS)
def test_fmt_float_matches_the_reference(x):
    assert fmt_float(x) == ref.fmt_float(x)
    assert fmt_float(np.float64(x)) == ref.fmt_float(x)


def _error(writer, obj, sort_keys):
    with pytest.raises((TypeError, ValueError)) as info:
        writer(obj, sort_keys=sort_keys)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("sort_keys", [False, True])
@pytest.mark.parametrize(
    "obj",
    [
        math.inf,
        -math.inf,
        math.nan,
        np.float64(math.inf),
        [1.0, math.nan, 2.0],
        (0.5, -math.inf),
        {"a": [1, 2], "b": {"c": math.inf}},
        {1: 2.0},
        {"a": 1, None: 2},
        {"a": [{"b": 1, (1, 2): 3}]},
        {"z": math.inf, 1: 2},
        {"a": 1, 2: math.inf},
        [np.int64(3)],
        {"a": {1, 2}},
        [np.bool_(True)],
    ],
)
def test_errors_match_the_reference_writer(obj, sort_keys):
    assert _error(dumps, obj, sort_keys) == _error(ref.dumps, obj, sort_keys)


def _check_report(report: BoundReport) -> None:
    payload = ref.report_payload(report)
    assert report.to_json() == ref.dumps(payload)
    lines = report.to_csv().split("\r\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[-1] == ""
    assert lines[1:-1] == [
        ",".join(ref.csv_cell(row[c]) for c in CSV_COLUMNS) for row in payload["rows"]
    ]
    canonical = ref.dumps(report.scenario, sort_keys=True).encode("utf-8")
    assert report.fingerprint == hashlib.sha256(canonical).hexdigest()


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generated_reports_match_the_reference_writer(kind):
    for seed in (0, 1, 2, 5, 11):
        scenario = random_scenario(seed, kind)
        report = verify_scenario(scenario)
        _check_report(report)
        if kind == "set":
            members = [list(p.symbols) for p in scenario.target.set_spec.members(scenario.space)]
            assert report.scenario["target"]["set"]["members"] == members


@pytest.mark.parametrize("name", ["s1.json", "correlated_pair.json"])
def test_bundled_reports_match_the_reference_writer(name):
    _check_report(verify_scenario(load_scenario(SCENARIOS / name)))


def test_json_follows_changes_to_the_scenario_table():
    # The table's text is formatted once; a report whose table a caller
    # changes must be written from the table as it is now.
    report = verify_scenario(random_scenario(3, "median"))
    fd = report.scenario["target"]["functional"]
    _check_report(report)
    fd["values"][0] = 123.5
    assert '"values":[123.5,' in report.to_json()
    assert report.to_json() == ref.dumps(ref.report_payload(report))
    fd["values"][0] = True
    assert '"values":[true,' in report.to_json()
    fd["values"] = [0.25] * len(fd["values"])
    assert report.to_json() == ref.dumps(ref.report_payload(report))
    del report.scenario["target"]["functional"]
    assert report.to_json() == ref.dumps(ref.report_payload(report))


def test_rows_with_every_optional_field_match_the_reference_writer():
    rows = (
        BoundRow("median", "median-improved", 0.25, 1.5, 1.25, True, True, -0.0, "lower", 0.1),
        BoundRow("mean", "mgf", 1.0, 1e308, 1e308, False, False, lam=5e-324),
        BoundRow("tést", 'b"id', 0.0, 0.0, 0.0, True, False, np.float64(0.5), "up\nper", 2.0),
    )
    report = BoundReport("ab", "rng", {"seed": 0}, rows, {"rows": 3}, ("a note", "é"))
    payload = ref.report_payload(report)
    assert report.to_json() == ref.dumps(payload)
    assert report.to_csv().split("\r\n")[1:-1] == [
        ",".join(ref.csv_cell(row[c]) for c in CSV_COLUMNS) for row in payload["rows"]
    ]
