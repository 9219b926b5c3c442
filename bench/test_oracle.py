"""Self-check of the benchmark's oracle on the bundled scenario files.

    PYTHONPATH=src python3 -m pytest -q bench/test_oracle.py

The oracle must reproduce values worked out by hand, and agree with the
reports hamconc writes for the same files.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
from hamconc import load_scenario, verify_scenario  # noqa: E402


def _scenario(name: str) -> dict:
    return json.loads((ROOT / "scenarios" / name).read_text(encoding="utf-8"))


def _report(name: str) -> dict:
    return json.loads(verify_scenario(load_scenario(ROOT / "scenarios" / name)).to_json())


def test_s1_membership_and_mean_distance():
    # Uniform law on {0,1}^2, A = {(0,0)}, alpha = (1,1)/sqrt(2): the
    # distances are 0, a, a, 2a with a = 1/sqrt(2), so rho = a.
    scn = _scenario("s1.json")
    p = oracle.law(scn)
    mask = oracle.members_mask(scn["target"]["set"]["members"], (2, 2))
    d = oracle.distance_transform(mask, oracle.weights(scn))
    assert math.fsum(p[mask].tolist()) == 0.25
    assert abs(oracle.expectation(d, p) - 1 / math.sqrt(2)) <= 1e-15
    assert oracle.check_report(scn, _report("s1.json"), exit_code=0) == []


def test_correlated_pair_mean_and_drop_flags():
    # Joint law on (0,0) and (1,1); f = (x1 + x2)/sqrt(2), so mu = 1/sqrt(2)
    # and f moves by exactly alpha_i = 1/sqrt(2) <= 1 along each axis.
    scn = _scenario("correlated_pair.json")
    values = oracle.functional_values(scn["target"]["functional"], (2, 2), oracle.weights(scn))
    assert abs(oracle.expectation(values, oracle.law(scn)) - 1 / math.sqrt(2)) <= 1e-15
    report = _report("correlated_pair.json")
    certs = report["summary"]["derived"]["certificates"]
    assert certs["drop_alpha"] is True and certs["drop_unit"] is True
    # The joint law makes some rows fail (see ROADMAP item 4); that is
    # not a disagreement with the oracle.
    assert not report["summary"]["all_pass"]
    assert oracle.check_report(scn, report, exit_code=1) == []


def test_distance_transform_matches_brute_force():
    rng = np.random.default_rng(0)
    sizes = (3, 2, 4)
    w = rng.uniform(0.1, 1.0, 3)
    mask = rng.random(sizes) < 0.2
    mask[0, 0, 0] = True
    points = np.indices(sizes).reshape(3, -1).T
    members = points[mask.ravel()]
    brute = ((points[:, None, :] != members[None, :, :]) * w).sum(axis=2).min(axis=1)
    assert np.allclose(oracle.distance_transform(mask, w).ravel(), brute, rtol=0, atol=1e-15)


def test_disagreement_is_reported():
    scn = _scenario("s1.json")
    report = _report("s1.json")
    report["summary"]["derived"]["rho"] += 1e-6
    assert [p.split(":")[0] for p in oracle.check_report(scn, report)] == ["rho"]
