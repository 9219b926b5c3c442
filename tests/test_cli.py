"""The command-line interface, driven in process through main(argv)."""

import json
from pathlib import Path

import pytest

from hamconc.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
S1 = str(SCENARIOS / "s1.json")
CORRELATED = str(SCENARIOS / "correlated_pair.json")


# -- eval-bound ---------------------------------------------------------------


def test_eval_bound_prints_params_then_value(capsys):
    assert main(["eval-bound", "gap-improved", "--rho", "0"]) == 0
    out = capsys.readouterr().out
    assert out == "rho = 0\ngap-improved = 1.2533141373155001\n"


def test_eval_bound_exponent(capsys):
    assert main(["eval-bound", "h", "--t", "1", "--rho", "0"]) == 0
    assert capsys.readouterr().out == "t = 1\nrho = 0\nh = 2\n"


def test_eval_bound_without_params(capsys):
    assert main(["eval-bound", "gap-classical"]) == 0
    assert capsys.readouterr().out == "gap-classical = 2.5066282746310002\n"


def test_eval_bound_lambda_alias(capsys):
    assert main(["eval-bound", "mgf", "--lambda", "2"]) == 0
    assert capsys.readouterr().out == "lam = 2\nmgf = 1.6487212707001282\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gap-improved", "--rho", "1e308"],
        ["sb-upper", "--t", "1e308", "--mu", "0", "--a", "10", "--b", "0"],
        ["sb-lower", "--t", "1e308", "--mu", "1e308", "--a", "10", "--b", "0"],
    ],
)
def test_eval_bound_prints_0_where_a_float_step_overflows(capsys, argv):
    # (2*rho + c) * exp(-2*rho^2) is inf * 0, and -t^2 / (2*denom) is -inf / inf.
    assert main(["eval-bound", *argv]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == f"{argv[0]} = 0"


def test_eval_bound_missing_param(capsys):
    assert main(["eval-bound", "improved-set", "--t", "1"]) == 2
    err = capsys.readouterr().err
    assert "rho" in err


def test_eval_bound_extra_param(capsys):
    assert main(["eval-bound", "mcd-set", "--t", "1", "--gap", "0.5"]) == 2
    assert "gap" in capsys.readouterr().err


def test_eval_bound_unknown_name_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["eval-bound", "nope", "--t", "1"])
    assert exc.value.code == 2


def test_eval_bound_domain_error(capsys):
    assert main(["eval-bound", "shifted-median", "--t", "0.1", "--gap", "0.25"]) == 2
    assert "outside the validity region" in capsys.readouterr().err


# -- verify -------------------------------------------------------------------


def test_verify_passing_scenario(capsys):
    assert main(["verify", S1]) == 0
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["summary"]["all_pass"] is True
    assert data["summary"]["rows"] == 76
    assert captured.err == ""


def test_verify_failing_scenario_reports_rows(capsys):
    assert main(["verify", CORRELATED]) == 1
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["summary"]["failures"] == 6
    assert "FAIL: 6 row(s) violate their bound" in captured.err
    assert "drop-mean-tail" in captured.err
    assert "mgf" in captured.err


def test_verify_replays_a_reports_scenario_block(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", CORRELATED, "--out", str(report)]) == 1
    block = json.loads(report.read_text())["scenario"]
    path = tmp_path / "block.json"
    path.write_text(json.dumps(block))
    again = tmp_path / "again.json"
    assert main(["verify", str(path), "--out", str(again)]) == 1
    assert again.read_bytes() == report.read_bytes()
    # a digest that does not match f's table is an input error
    block["target"]["functional"]["table_sha256"] = "0" * 64
    path.write_text(json.dumps(block))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: target.functional.table_sha256 is not ")


def test_verify_missing_file(capsys):
    assert main(["verify", "/no/such/file.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_verify_rejects_unnormalized_alpha(tmp_path, capsys):
    bad = {
        "space": {"alphabet_sizes": [2, 2]},
        "distribution": {"kind": "product", "pmfs": [[0.5, 0.5], [0.5, 0.5]]},
        "alpha": {"weights": [1.0, 1.0]},
        "target": {"kind": "set", "set": {"members": [[0, 0]]}},
    }
    path = tmp_path / "bad_alpha.json"
    path.write_text(json.dumps(bad))
    assert main(["verify", str(path)]) == 2
    assert "theorems require" in capsys.readouterr().err


def test_verify_rejects_empty_t_grid(tmp_path, capsys):
    bad = {
        "space": {"alphabet_sizes": [2, 2]},
        "distribution": {"kind": "product", "pmfs": [[0.5, 0.5], [0.5, 0.5]]},
        "alpha": {"weights": [1.0, 1.0], "normalize": True},
        "target": {"kind": "set", "set": {"members": [[0, 0]]}},
        "grids": {"t": []},
    }
    path = tmp_path / "empty_grid.json"
    path.write_text(json.dumps(bad))
    assert main(["verify", str(path)]) == 2
    assert "grids.t" in capsys.readouterr().err


def test_verify_rejects_a_nan_table(tmp_path, capsys):
    bad = {
        "space": {"alphabet_sizes": [2, 2]},
        "distribution": {"kind": "product", "pmfs": [[0.5, 0.5], [0.5, 0.5]]},
        "alpha": {"weights": [1.0, 1.0], "normalize": True},
        "target": {
            "kind": "median",
            "functional": {"type": "table", "values": [0.0, 0.1, float("nan"), 0.2]},
        },
    }
    path = tmp_path / "nan_table.json"
    path.write_text(json.dumps(bad))  # written with a NaN token
    assert main(["verify", str(path)]) == 2
    assert "target.functional.values[2] must be finite, got nan" in capsys.readouterr().err


def test_verify_refuses_a_key_of_another_kind(tmp_path, capsys):
    scn = json.loads(Path(S1).read_text())
    scn["distribution"]["joint_table"] = [1, 0, 0, 0]  # s1's law is a product
    path = tmp_path / "s1_joint_table.json"
    path.write_text(json.dumps(scn))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == "error: unknown key 'distribution.joint_table'\n"


@pytest.mark.parametrize("key", ["grids.t[1]", "distribution.pmfs[0][0]"])
def test_verify_refuses_an_integer_past_float_range(tmp_path, capsys, key):
    # 10**400 is written as its 401 digits, and float() of it overflows.
    scn = json.loads(Path(S1).read_text())
    if key.startswith("grids"):
        scn["grids"] = {"t": [1.0, 10**400]}
    else:
        scn["distribution"]["pmfs"][0][0] = 10**400
    path = tmp_path / "big.json"
    path.write_text(json.dumps(scn))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {key} must be finite, got an integer past float range\n"
    )


def test_verify_refuses_an_integer_of_too_many_digits_to_parse(tmp_path, capsys):
    path = tmp_path / "digits.json"
    path.write_text(Path(S1).read_text().replace("[1.0, 1.0]", "[1.0, 1" + "0" * 5000 + "]"))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid JSON in {path}: ")


def _s1_with_seed(tmp_path, seed) -> str:
    """s1.json with its "seed" set to ``seed``, as a file."""
    path = tmp_path / f"s1_seed_{seed}.json"
    path.write_text(json.dumps({**json.loads(Path(S1).read_text()), "seed": seed}))
    return str(path)


def test_verify_negative_seed_is_an_input_error(tmp_path, capsys):
    assert main(["verify", _s1_with_seed(tmp_path, -1)]) == 2
    assert capsys.readouterr().err == (
        "error: seed must be a nonnegative integer, got -1\n"
    )


def test_verify_takes_its_seed_from_the_file_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", S1, "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


def test_verify_non_utf8_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"space": "\u00e9"}'.encode("latin-1"))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not UTF-8 text: ")


def test_verify_out_into_missing_directory_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["verify", S1, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert not out.parent.exists()


def test_verify_csv_output_uses_crlf(tmp_path):
    out = tmp_path / "report.csv"
    assert main(["verify", S1, "--format", "csv", "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert raw.count(b"\r\n") == 77  # header + 76 rows, every line terminated
    assert raw.startswith(b"target_kind,median_used,tail,t,lambda,lhs,")


def test_verify_same_seed_gives_identical_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", _s1_with_seed(tmp_path, 7), "--out", str(a)]) == 0
    assert main(["verify", _s1_with_seed(tmp_path, 7), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert main(["verify", _s1_with_seed(tmp_path, 8), "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


# -- sweep --------------------------------------------------------------------


def test_sweep_reports_pass_counts(capsys):
    assert main(["sweep", "--kind", "set", "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert "5/5 pass" in out
    assert "worst slack = " in out


def test_sweep_drop_reports_joint_count(capsys):
    assert main(["sweep", "--kind", "drop", "--trials", "5"]) == 0
    assert "joint-table scenarios:" in capsys.readouterr().out


def test_sweep_rejects_bad_trials(capsys):
    assert main(["sweep", "--kind", "set", "--trials", "0"]) == 2
    assert "trials" in capsys.readouterr().err


# -- curves -------------------------------------------------------------------


def test_curves_set_bounds_dominate_along_t(capsys):
    code = main(
        [
            "curves",
            "--bound-set",
            "mcd-set",
            "simple-set",
            "improved-set",
            "--t-range",
            "0.05:3:60",
            "--rho",
            "0.5",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    lines = text.split("\r\n")
    assert lines[0] == "t,mcd-set,simple-set,improved-set"
    assert lines[-1] == ""
    data = [line.split(",") for line in lines[1:-1]]
    assert len(data) == 60
    for cells in data:
        mcd, simple, improved = float(cells[1]), float(cells[2]), float(cells[3])
        assert improved <= simple <= mcd


def test_curves_gap_bound_peak(capsys):
    assert main(["curves", "--bound-set", "gap-improved", "--rho-range", "0:3:600"]) == 0
    lines = capsys.readouterr().out.split("\r\n")[1:-1]
    assert len(lines) == 600
    values = [(float(c.split(",")[0]), float(c.split(",")[1])) for c in lines]
    peak_rho, peak = max(values, key=lambda rv: rv[1])
    assert 1.5500 <= peak <= 1.5503
    assert abs(peak_rho - 0.2767) <= 1e-2


def test_curves_writes_file(tmp_path):
    out = tmp_path / "curve.csv"
    code = main(
        ["curves", "--bound-set", "mcd-set", "--t-range", "1:2:3", "--out", str(out)]
    )
    assert code == 0
    raw = out.read_bytes()
    assert raw == (
        b"t,mcd-set\r\n"
        b"1,0.60653065971263342\r\n"
        b"1.5,0.32465246735834974\r\n"
        b"2,0.1353352832366127\r\n"
    )


def test_curves_out_into_missing_directory_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "curve.csv"
    code = main(
        ["curves", "--bound-set", "mcd-set", "--t-range", "1:2:3", "--out", str(out)]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def test_curves_usage_errors(capsys):
    assert main(["curves", "--bound-set", "mcd-set"]) == 2
    assert "exactly one" in capsys.readouterr().err

    assert (
        main(
            [
                "curves",
                "--bound-set",
                "mcd-set",
                "--t-range",
                "0:1:5",
                "--rho-range",
                "0:1:5",
            ]
        )
        == 2
    )
    capsys.readouterr()

    assert main(["curves", "--bound-set", "mcd-set", "--t-range", "0:1:5", "--t", "1"]) == 2
    assert "conflicts" in capsys.readouterr().err

    assert main(["curves", "--bound-set", "improved-set", "--t-range", "0.1:1:5"]) == 2
    assert "--rho" in capsys.readouterr().err

    assert main(["curves", "--bound-set", "mcd-set", "--t-range", "1:2"]) == 2
    assert "start:stop:steps" in capsys.readouterr().err


def test_curves_rejects_a_range_of_too_many_points(capsys):
    # a typo in the step count is an input error, not an allocation failure
    assert main(["curves", "--bound-set", "mcd-set", "--t-range", "1:2:100000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: range needs 1 to 1000000 points")


# -- refusals -----------------------------------------------------------------


def _scenario(sizes, **changes) -> dict:
    """A uniform scenario on ``sizes`` with a set target, its top-level
    entries replaced by ``changes``."""
    return {
        "space": {"alphabet_sizes": sizes},
        "distribution": {"kind": "product", "pmfs": [[1 / s] * s if s else [] for s in sizes]},
        "alpha": {"weights": [1.0] * len(sizes), "normalize": True},
        "target": {"kind": "set", "set": {"members": [[0] * len(sizes)]}},
        **changes,
    }


def _argv(tmp_path, argv) -> list[str]:
    """``argv`` with a scenario, given as a dict, written to a file."""
    path = tmp_path / "scenario.json"
    for a in argv:
        if isinstance(a, dict):
            path.write_text(json.dumps(a))
    return [str(path) if isinstance(a, dict) else a for a in argv]


def _mean_of(coefficients) -> dict:
    return {"kind": "mean", "functional": {"type": "weighted_sum", "coefficients": coefficients}}


def _table(kind, values) -> dict:
    return {"kind": kind, "functional": {"type": "table", "values": values}}


_LAM_REFUSED = (
    "error: lam must be at most 75.35424144099038, where exp(lam^2/8) overflows a double; "
    "got {}\n"
)
_BIG_LAMBDA = {"lambda": [1000]}

# Each refused input: its argv, a scenario file given as its dict, and the
# one line it prints on stderr.
REFUSALS = {
    "alphabet size 0": (
        ["verify", _scenario([0, 2])],
        "error: space.alphabet_sizes: alphabet sizes must be >= 1, got 0\n",
    ),
    "negative weight": (
        ["verify", _scenario([2, 2], alpha={"weights": [-1.0, 1.0]})],
        "error: alpha.weights: weights must be finite and >= 0, got -1.0\n",
    ),
    "table of 3 values": (
        ["verify", _scenario([2, 2], target=_table("median", [0.0, 0.1, 0.2]))],
        "error: target.functional.values: table has 3 values, space has 4 outcomes\n",
    ),
    "3 coefficients": (
        ["verify", _scenario([2, 2], target=_mean_of([0.1] * 3))],
        "error: target.functional.coefficients has 3 entries, space has 2 coordinates\n",
    ),
    "3 weights": (
        ["verify", _scenario([2, 2], alpha={"weights": [1.0] * 3, "normalize": True})],
        "error: alpha.weights has 3 entries, space has 2 coordinates\n",
    ),
    "not Lipschitz": (
        ["verify", _scenario([2, 2], target=_table("median", [0, 5, 0, 0]))],
        "error: functional is not Lipschitz for the weighted Hamming distance: "
        "|f(x) - f(x')| exceeds d_alpha(x, x') by 4.2928932188134521 at x=(0, 1), x'=(1, 1)\n",
    ),
    "range not numeric": (
        ["curves", "--bound-set", "mcd-set", "--t-range", "a:b:3"],
        "error: range must be start:stop:steps with numeric parts, got 'a:b:3'\n",
    ),
    "range not finite": (
        ["curves", "--bound-set", "mcd-set", "--t-range", "0:inf:3"],
        "error: range endpoints must be finite, got '0:inf:3'\n",
    ),
    "bound outside its region": (
        ["curves", "--bound-set", "shifted-median", "--t-range", "0.1:1:5", "--gap", "0.5"],
        "error: t=0.1 is outside the validity region t > gap=0.5\n",
    ),
    "weights that normalize to nothing": (
        ["verify", _scenario([2, 2], alpha={"weights": [0, 0], "normalize": True})],
        "error: alpha.weights: degenerate weights: all weights are zero\n",
    ),
    "lambda grid past the MGF limit": (
        ["verify", _scenario([2, 2], target=_mean_of([0.5**0.5] * 2), grids=_BIG_LAMBDA)],
        _LAM_REFUSED.format(1000.0),
    ),
    "lambda grid past the MGF limit, n = 8": (
        ["verify", _scenario([2] * 8, target=_mean_of([8**-0.5] * 8), grids=_BIG_LAMBDA)],
        _LAM_REFUSED.format(1000.0),
    ),
    "eval-bound lambda past the MGF limit": (
        ["eval-bound", "mgf", "--lam", "1000"],
        _LAM_REFUSED.format(1000.0),
    ),
    "curves lambda past the MGF limit": (
        ["curves", "--bound-set", "mgf", "--t-range", "0:1:3", "--lam", "100"],
        _LAM_REFUSED.format(100.0),
    ),
    "a bound value that is not finite": (
        ["eval-bound", "h", "--t", "1e200", "--rho", "0"],
        "error: cannot serialize non-finite value inf\n",
    ),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_every_refusal_exits_2_with_one_error_line(tmp_path, capsys, case):
    argv, err = REFUSALS[case]
    assert main(_argv(tmp_path, argv)) == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("kind", ["median", "gap"])
def test_verify_a_space_with_no_edges(tmp_path, capsys, kind):
    # no axis has two symbols, so the Lipschitz certificate has no edge to read
    scenario = _scenario([1, 1], target=_table(kind, [0.0]))
    assert main(_argv(tmp_path, ["verify", scenario])) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["summary"]["all_pass"] is True


# -- repeated calls -----------------------------------------------------------


def test_back_to_back_calls_share_no_state(tmp_path, capsys):
    # The parser is built once; flags of one call must not reach the next.
    assert main(["eval-bound", "h", "--t", "1", "--rho", "0"]) == 0
    assert main(["eval-bound", "mgf", "--lam", "2"]) == 0
    assert capsys.readouterr().out == (
        "t = 1\nrho = 0\nh = 2\nlam = 2\nmgf = 1.6487212707001282\n"
    )
    out = tmp_path / "r.json"
    assert main(["verify", _s1_with_seed(tmp_path, 7), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["scenario"]["seed"] == 7
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--trials", "3"])
    assert exc.value.code == 2
    assert "--kind" in capsys.readouterr().err
    assert main(["verify", S1, "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("target_kind,")
    assert main(["verify", S1]) == 0
    assert json.loads(capsys.readouterr().out)["scenario"]["seed"] == 0
    assert main(["sweep", "--kind", "set", "--trials", "2"]) == 0
    assert "2/2 pass" in capsys.readouterr().out
    assert main(["curves", "--bound-set", "mgf", "--rho-range", "0:1:2", "--lam", "1"]) == 0
    assert capsys.readouterr().out == "rho,mgf\r\n0,1.1331484530668263\r\n1,1.1331484530668263\r\n"
