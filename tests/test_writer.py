"""Report writers against the plain recursive reference writer, byte for byte."""

import hashlib
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_writer as ref
from hamconc import _util
from hamconc._util import dumps, fmt_float
from hamconc.functionals import Functional
from hamconc.hamming import normalize
from hamconc.scenario_io import load_scenario, scenario_from_dict
from hamconc.space import Distribution, FiniteSpace, SetSpec
from hamconc.verify import (
    CSV_COLUMNS,
    GENERATOR_KINDS,
    BoundReport,
    BoundRow,
    MeanTarget,
    MedianTarget,
    Scenario,
    SetTarget,
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
        # arrays other than a set's 2-d int64 members
        {"v": np.zeros((2, 2))},
        {"v": np.zeros((2, 2), dtype=np.int32)},
        {"v": np.zeros((2, 2), dtype=bool)},
        {"v": np.zeros((2, 2), dtype=">i8")},
        {"v": np.zeros(3, dtype=np.int64)},
        {"v": np.zeros((1, 2, 2), dtype=np.int64)},
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
    # The fingerprint reads each table through its sha256 alone: a
    # functional through its table_sha256, a set through the digest of its
    # members as little-endian int64, in the order the report writes them,
    # and a joint law through the digest of its table as little-endian
    # float64, -0.0 as 0.0.
    target = dict(report.scenario["target"])
    if "functional" in target:
        target["functional"] = {"table_sha256": target["functional"]["table_sha256"]}
    else:
        flat = [s for member in target["set"]["members"] for s in member]
        packed = struct.pack(f"<{len(flat)}q", *flat)
        target["set"] = {"members_sha256": hashlib.sha256(packed).hexdigest()}
    scenario = {**report.scenario, "target": target}
    if scenario["distribution"]["kind"] == "joint":
        table = scenario["distribution"]["joint_table"]
        packed = struct.pack(f"<{len(table)}d", *(p + 0.0 for p in table))
        digest = hashlib.sha256(packed).hexdigest()
        scenario["distribution"] = {"kind": "joint", "joint_table_sha256": digest}
    canonical = ref.dumps(scenario, sort_keys=True).encode("utf-8")
    assert report.fingerprint == hashlib.sha256(canonical).hexdigest()


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generated_reports_match_the_reference_writer(kind):
    for seed in (0, 1, 2, 5, 11):
        scenario = random_scenario(seed, kind)
        report = verify_scenario(scenario)
        _check_report(report)
        if kind == "set":
            members = scenario.target.set_spec.member_symbols(scenario.space).tolist()
            assert report.scenario["target"]["set"]["members"].tolist() == members


@pytest.mark.parametrize("name", ["s1.json", "correlated_pair.json"])
def test_bundled_reports_match_the_reference_writer(name):
    _check_report(verify_scenario(load_scenario(SCENARIOS / name)))


def test_json_follows_changes_to_the_scenario_table():
    # to_json writes the report's scenario dict as it is at the call, so
    # a table a caller changes after the verify is written as changed.  The
    # table is a read-only array, so the caller replaces it.
    report = verify_scenario(random_scenario(3, "median"))
    fd = report.scenario["target"]["functional"]
    _check_report(report)
    with pytest.raises(ValueError, match="read-only"):
        fd["values"][0] = 123.5
    fd["values"] = fd["values"].tolist()
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


# Benchmark scale: a set report writes up to 2048 members of 12 symbols,
# and a functional table thousands of floats.  The whole-list paths must
# give the walk's bytes there, and the walk's error where an entry is bad.
_BIG_EDGES = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]


def _outcome(writer, obj):
    try:
        return writer(obj)
    except (TypeError, ValueError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("size", [64, 512, 4096])
def test_large_float_lists_match_the_reference_writer(size):
    rng = np.random.default_rng(size)
    base = (rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)).tolist()
    for x in _BIG_EDGES:
        base[int(rng.integers(size))] = x
    cases = [base, tuple(base)]
    mixed = list(base)
    mixed[int(rng.integers(size))] = np.float64(0.25)
    cases.append(mixed)
    for bad in (math.nan, math.inf, -math.inf):
        for _ in range(3):
            spoiled = list(base)
            for pos in rng.choice(size, size=int(rng.integers(1, 4)), replace=False):
                spoiled[int(pos)] = bad if rng.random() < 0.7 else -bad
            cases.append(spoiled)
    both = list(base)
    both[int(rng.integers(size // 2, size))] = math.nan
    both[int(rng.integers(size // 2))] = math.inf
    cases.append(both)
    for obj in cases:
        for sort_keys in (False, True):
            got = _outcome(lambda o: dumps({"v": o}, sort_keys=sort_keys), obj)
            want = _outcome(lambda o: ref.dumps({"v": o}, sort_keys=sort_keys), obj)
            assert got == want


def test_float_arrays_match_the_reference_writer(monkeypatch):
    # A 1-d float64 array (a table, a joint law) is written as its list;
    # from _VECTOR_FROM entries on by the vectorized kernel, block by block,
    # and a non-finite entry raises for the first one in order.
    monkeypatch.setattr(_util, "_BLOCK", 700)
    rng = np.random.default_rng(9)
    for size in (0, 1, _util._VECTOR_FROM - 1, _util._VECTOR_FROM, 2048, 3000):
        base = rng.uniform(-3.0, 3.0, size)
        base[rng.random(size) < 0.05] = 0.0
        base[rng.random(size) < 0.05] = -0.0
        base[rng.random(size) < 0.05] *= 1e-9
        cases = [base, base[::-1], base[::2]]
        for bad in (math.nan, math.inf, -math.inf):
            for _ in range(2 if size else 0):
                spoiled = base.copy()
                spoiled[rng.choice(size, size=min(size, 2), replace=False)] = bad
                cases.append(spoiled)
        for obj in cases:
            for sort_keys in (False, True):
                got = _outcome(lambda o: dumps({"v": o}, sort_keys=sort_keys), obj)
                want = _outcome(lambda o: ref.dumps({"v": o}, sort_keys=sort_keys), obj)
                assert got == want


def _kernel_inputs() -> np.ndarray:
    """About a million doubles that the float kernel must write as '%.17g' does."""
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**64, 250_000, dtype=np.uint64, endpoint=False).view(np.float64)
    # Powers of ten and both neighbours: the exponent's corrections, and the
    # largest doubles below a power, where 17 digits could round up to it.
    tens = np.array([float(f"1e{k}") for k in range(-7, 18)])
    tens = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    edges = np.array([2e-6, 1e15, 5e-324, 2.2250738585072014e-308])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    edges = np.append(edges, [1.7976931348623157e308, 8.98846567431158e307])
    spread = rng.uniform(1.0, 10.0, 300_000) * 10.0 ** rng.integers(-7, 17, 300_000)
    x = np.concatenate(
        [
            bits[np.isfinite(bits)],
            spread,
            np.arange(-100_000, 100_000, dtype=np.float64),  # integers
            np.arange(-100_000, 100_000) / 1024,
            rng.integers(1, 2**52, 50_000, dtype=np.uint64).view(np.float64),  # subnormals
        ]
    )
    x *= rng.choice([-1.0, 1.0], x.size)
    return np.concatenate([x, tens, -tens, edges, -edges, [0.0, -0.0]])


def test_the_float_kernel_writes_17_significant_digits_as_format_does():
    x = _kernel_inputs()
    assert x.size >= 10**6
    got = dumps(x)[1:-1].split(",")
    want = [format(v + 0.0, ".17g") for v in x.tolist()]
    if got != want:
        bad = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        pytest.fail(f"{x[bad]!r} written as {got[bad]}, want {want[bad]}")


def _functional_law_scenario(n: int, kind: str, joint: bool = False) -> Scenario:
    """A functional-law-shaped scenario on (2,)*n: a weighted-sum table with
    negative, zero and tiny entries (the kernel's other lanes)."""
    space = FiniteSpace((2,) * n)
    rng = np.random.default_rng(n)
    alpha = normalize([1e-8, *rng.uniform(0.2, 1.0, n - 1).tolist()])
    coeffs = np.asarray(alpha.weights) * rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.0, n)
    symbols = np.indices(space.alphabet_sizes).reshape(n, -1)
    table = sum(c * s for c, s in zip(coeffs.tolist(), symbols))
    if joint:
        probs = rng.uniform(0.1, 1.0, space.size)
        dist = Distribution.joint(probs / probs.sum())
    else:
        dist = Distribution.product([[0.5, 0.5]] * n)
    target = {"median": MedianTarget, "mean": MeanTarget}[kind]
    return Scenario(space, dist, alpha, target(Functional.from_table(space, table)))


@pytest.mark.parametrize(
    "n, kind, joint",
    [(9, "median", False), (10, "median", False), (11, "median", False), (12, "median", False),
     (10, "mean", True)],
)
def test_functional_law_reports_match_the_reference_writer_and_replay(n, kind, joint):
    report = verify_scenario(_functional_law_scenario(n, kind, joint))
    values = report.scenario["target"]["functional"]["values"]
    assert values.dtype == np.float64 and values.size == 2**n >= _util._VECTOR_FROM
    assert not values.flags.writeable
    assert (values == 0.0).any() and (np.abs(values[values != 0.0]) < 2e-6).any()
    if joint:
        table = report.scenario["distribution"]["joint_table"]
        assert table.dtype == np.float64 and table.size == 1024 and not table.flags.writeable
    _check_report(report)
    # Check C10 in process: the report's scenario block, arrays and all,
    # is a scenario whose report has the same bytes.
    replay = verify_scenario(scenario_from_dict(report.scenario))
    assert replay.to_json() == report.to_json()
    assert replay.to_csv() == report.to_csv()


@pytest.mark.parametrize("shape", [(1, 1), (64, 3), (2048, 12)])
def test_member_lists_match_the_reference_writer(shape):
    rng = np.random.default_rng(shape[0])
    members = rng.integers(0, 4, shape).tolist()
    assert dumps(members) == ref.dumps(members)
    for planted in (True, False, 1.0, np.int64(1), 2**70, -3, None, "1"):
        i, j = int(rng.integers(shape[0])), int(rng.integers(shape[1]))
        spoiled = [list(m) for m in members]
        spoiled[i][j] = planted
        assert _outcome(dumps, spoiled) == _outcome(ref.dumps, spoiled)
    ragged = [list(m) for m in members] + [[], [0] * (shape[1] + 1)]
    assert dumps(ragged) == ref.dumps(ragged)
    as_tuples = [tuple(m) for m in members]
    assert dumps(as_tuples) == ref.dumps(as_tuples)
    assert dumps(tuple(members)) == ref.dumps(tuple(members))
    assert dumps([members, members]) == ref.dumps([members, members])


@pytest.mark.parametrize("shape", [(1, 1), (5, 1), (64, 3), (2048, 12)])
@pytest.mark.parametrize(
    "low, high", [(0, 10), (0, 300), (0, 10**12 + 1), (-(10**12), 300), (-9, 0)]
)
def test_member_arrays_match_the_reference_writer(shape, low, high):
    # scenario_to_dict holds a set's members as a read-only int64 array.
    rng = np.random.default_rng(shape[0])
    members = rng.integers(low, high, shape)
    members[0, 0] = high - 1  # the widest entry
    members[-1, -1] = low
    members.setflags(write=False)
    assert dumps(members) == ref.dumps(members) == repr(members.tolist()).replace(" ", "")
    for view in (members[::-1], members[:, ::-1], members[::2], members.T):
        assert dumps({"members": view}) == ref.dumps({"members": view})


def test_member_arrays_at_the_int64_extremes_match_the_reference_writer():
    members = np.array([[-(2**63), 2**63 - 1, 0], [-1, 10**18, -(10**18)]])
    assert dumps(members) == ref.dumps(members) == repr(members.tolist()).replace(" ", "")
    for empty in (np.zeros((0, 3), dtype=np.int64), np.zeros((2, 0), dtype=np.int64)):
        assert dumps(empty) == ref.dumps(empty)


def test_a_multi_digit_set_report_matches_the_reference_writer():
    sizes = (12, 300, 2)
    space = FiniteSpace(sizes)
    rng = np.random.default_rng(25)
    ranks = rng.choice(space.size, size=200, replace=False)
    members = np.stack(np.unravel_index(ranks, sizes), axis=1)
    scenario = Scenario(
        space=space,
        dist=Distribution.product([[1.0 / s] * s for s in sizes]),
        alpha=normalize([1.0, 2.0, 0.5]),
        target=SetTarget(SetSpec(members)),
    )
    report = verify_scenario(scenario)
    assert report.scenario["target"]["set"]["members"].max() >= 100
    _check_report(report)


def test_a_report_with_2048_members_matches_the_reference_writer():
    sizes = (2,) * 12
    space = FiniteSpace(sizes)
    rng = np.random.default_rng(12)
    ranks = rng.choice(space.size, size=2048, replace=False)
    members = np.stack(np.unravel_index(ranks, sizes), axis=1)
    pmfs = [(p, 1.0 - p) for p in rng.uniform(0.2, 0.8, len(sizes)).tolist()]
    scenario = Scenario(
        space=space,
        dist=Distribution.product(pmfs),
        alpha=normalize(rng.uniform(0.1, 1.0, len(sizes)).tolist()),
        target=SetTarget(SetSpec(members)),
    )
    report = verify_scenario(scenario)
    assert len(report.scenario["target"]["set"]["members"]) == 2048
    _check_report(report)


def test_a_300_symbol_pmf_matches_the_reference_writer_and_replays():
    # A pmf is a float64 array; one of 300 symbols is written by the vector kernel.
    sizes = (300, 2)
    space = FiniteSpace(sizes)
    rng = np.random.default_rng(300)
    p = rng.uniform(0.1, 1.0, 300)
    ranks = rng.choice(space.size, size=40, replace=False)
    scenario = Scenario(
        space=space,
        dist=Distribution.product([p / p.sum(), [0.25, 0.75]]),
        alpha=normalize([1.0, 2.0]),
        target=SetTarget(SetSpec(np.stack(np.unravel_index(ranks, sizes), axis=1))),
    )
    report = verify_scenario(scenario)
    pmfs = report.scenario["distribution"]["pmfs"]
    assert [pmf.size for pmf in pmfs] == [300, 2] and pmfs[0].size >= _util._VECTOR_FROM
    _check_report(report)
    replay = verify_scenario(scenario_from_dict(report.scenario))
    assert replay.to_json() == report.to_json()


def test_a_non_finite_row_value_is_named_in_row_order():
    # The first bad value in row order is an inf bound; a later row's lhs,
    # in an earlier column, is nan.
    rows = (
        BoundRow("mean", "mgf", 0.5, 1.0, 0.5, True, False, lam=0.0),
        BoundRow("mean", "mgf", 0.5, math.inf, math.inf, True, False, lam=80.0),
        BoundRow("mean", "mgf", math.nan, math.inf, math.nan, False, False, lam=2000.0),
    )
    report = BoundReport("ab", "rng", {"seed": 0}, rows, {"rows": 3}, ())
    payload = ref.report_payload(report)
    expected = _outcome(ref.dumps, payload)
    assert expected == (ValueError, "cannot serialize non-finite value inf")
    assert _outcome(lambda _: report.to_json(), None) == expected
    csv_rows = lambda _: [ref.csv_cell(row[c]) for row in payload["rows"] for c in CSV_COLUMNS]
    assert _outcome(lambda _: report.to_csv(), None) == _outcome(csv_rows, None) == expected
