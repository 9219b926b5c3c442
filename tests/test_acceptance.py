"""End-to-end acceptance checklist.

Every test prints one `ACCEPTANCE Cn: PASS/FAIL — detail` line before
asserting, so the whole checklist is readable from the test summary
(the project enables -rP).  C5 records a genuine soundness failure
rather than hiding it: the mean-centered tail and MGF rows do not
survive dependent coordinates, and both the bundled correlated fixture
and random joint tables exhibit violations.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np

from hamconc.bounds import (
    GAP_CLASSICAL_VALUE,
    GAP_IMPROVED_SUP,
    gap_bound,
    h_exponent,
    improved_set_bound,
    mcdiarmid_set_bound,
    simple_set_bound,
)
from hamconc.cli import main as cli_main
from hamconc.estimators import DistanceToSet, exact_functional_stats, exact_set_stats, mc_tail
from hamconc.functionals import Functional
from hamconc.hamming import normalize
from hamconc.scenario_io import load_scenario
from hamconc.space import Distribution, FiniteSpace, _rng
from hamconc.verify import (
    GapTarget,
    MeanTarget,
    Scenario,
    random_scenario,
    sweep,
    verify_drop_functional,
    verify_gap,
    verify_median,
    verify_set,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _line(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE C{num}: {status} — {detail}")


def test_c1_gap_bound_peak_on_a_fine_grid():
    t0 = time.perf_counter()
    rhos = np.arange(0.0, 3.0 + 1e-12, 1e-4)
    vals = np.fromiter((gap_bound(float(r)) for r in rhos), dtype=np.float64)
    i = int(np.argmax(vals))
    peak, arg = float(vals[i]), float(rhos[i])
    elapsed = time.perf_counter() - t0
    ok = 1.5500 <= peak <= 1.5503 and abs(arg - 0.2767) <= 1e-2 and elapsed < 1.0
    _line(
        1,
        ok,
        f"grid sup {peak:.10f} at rho={arg:.4f} (closed form {GAP_IMPROVED_SUP:.10f}), "
        f"step 1e-4 over [0, 3] in {elapsed:.3f}s",
    )
    assert 1.5500 <= peak <= 1.5503
    assert abs(arg - 0.2767) <= 1e-2
    assert abs(peak - GAP_IMPROVED_SUP) < 1e-7
    assert elapsed < 1.0


def test_c2_gap_bound_beats_the_classical_constant():
    margin = GAP_CLASSICAL_VALUE - GAP_IMPROVED_SUP
    ok = GAP_IMPROVED_SUP < 2.5066 and margin > 0.95
    _line(
        2,
        ok,
        f"sup {GAP_IMPROVED_SUP:.10f} vs classical {GAP_CLASSICAL_VALUE:.10f}, "
        f"margin {margin:.10f} > 0.95",
    )
    assert GAP_IMPROVED_SUP < 2.5066
    assert margin == 0.9564281661033018
    assert margin > 0.95


def test_c3_set_flow_survives_500_random_scenarios():
    t0 = time.perf_counter()
    failures = []
    domination_breaks = 0
    for s in range(500):
        report = verify_set(random_scenario(s, "set"))
        if not report.all_pass:
            failures.append(s)
        per_t: dict = {}
        for r in report.rows:
            if r.t is not None:
                per_t.setdefault(r.t, {})[r.bound_id] = r.bound
        for b in per_t.values():
            if not b["improved-set"] <= b["simple-set"] <= b["mcd-set"]:
                domination_breaks += 1
    elapsed = time.perf_counter() - t0
    ok = not failures and domination_breaks == 0 and elapsed < 60.0
    _line(
        3,
        ok,
        f"500 random set scenarios: {len(failures)} failing, "
        f"{domination_breaks} domination breaks, {elapsed:.2f}s (limit 60s)",
    )
    assert failures == []
    assert domination_breaks == 0
    assert elapsed < 60.0


def test_c4_median_and_gap_flows_survive_500_random_functionals():
    t0 = time.perf_counter()
    median_failures = []
    gap_failures = []
    for s in range(500):
        sc = random_scenario(s, "median")
        if not verify_median(sc).all_pass:
            median_failures.append(s)
        gap_sc = dataclasses.replace(sc, target=GapTarget(sc.target.functional))
        if not verify_gap(gap_sc).all_pass:
            gap_failures.append(s)
    elapsed = time.perf_counter() - t0
    ok = not median_failures and not gap_failures and elapsed < 120.0
    _line(
        4,
        ok,
        f"500 random functionals: {len(median_failures)} median failures, "
        f"{len(gap_failures)} gap failures, {elapsed:.2f}s (limit 120s)",
    )
    assert median_failures == []
    assert gap_failures == []
    assert elapsed < 120.0


def test_c5_drop_flow_under_dependence():
    t0 = time.perf_counter()
    result = sweep("drop", 500)
    fixture = load_scenario(SCENARIOS / "correlated_pair.json")
    fixture_report = verify_drop_functional(fixture)
    elapsed = time.perf_counter() - t0
    failing_kinds = {
        random_scenario(s, "drop").dist.kind for s in result.failing_seeds
    }
    failing_bounds = set()
    for s in result.failing_seeds[:3]:
        rep = verify_drop_functional(random_scenario(s, "drop"))
        failing_bounds.update(r.bound_id for r in rep.failing_rows())
    ok = (
        result.all_pass
        and result.joint_count >= 100
        and fixture_report.all_pass
        and elapsed < 60.0
    )
    _line(
        5,
        ok,
        f"{result.passes}/500 random drop scenarios pass "
        f"({result.joint_count} joint tables, >= 100 required); failing seeds "
        f"{result.failing_seeds} are {sorted(failing_kinds)} laws violating "
        f"{sorted(failing_bounds)} rows; the bundled correlated fixture violates "
        f"{len(fixture_report.failing_rows())} rows (two mean-tail, four MGF); "
        f"{elapsed:.2f}s (limit 60s). The exp(-2t^2) tail and exp(lambda^2/8) "
        f"MGF caps are not sound without independent coordinates.",
    )
    assert result.joint_count >= 100
    assert elapsed < 60.0
    assert result.all_pass, (
        "random joint-table scenarios violate the mean-centered MGF rows: "
        f"seeds {result.failing_seeds}"
    )
    assert fixture_report.all_pass, (
        "the correlated two-bit fixture violates the mean-centered rows"
    )


def test_c6_self_bounding_rows_hold_for_bit_counts():
    t0 = time.perf_counter()
    rng = _rng(2026)
    bad_sizes = []
    certified = []
    for n in range(2, 7):
        space = FiniteSpace((2,) * n)
        ps = rng.uniform(0.1, 0.9, n)
        dist = Distribution.product(tuple((1.0 - float(p), float(p)) for p in ps))
        f = Functional.weighted_sum((1.0,) * n, self_bounding_params=(1.0, 0.0))
        sc = Scenario(
            space=space, dist=dist, alpha=normalize((1.0,) * n), target=MeanTarget(f)
        )
        report = verify_drop_functional(sc)
        sb_rows = [r for r in report.rows if r.bound_id in ("sb-upper", "sb-lower")]
        certified.append(report.summary["derived"]["certificates"]["self_bounding"])
        if not sb_rows or not report.all_pass:
            bad_sizes.append(n)
    elapsed = time.perf_counter() - t0
    ok = not bad_sizes and all(certified) and elapsed < 5.0
    _line(
        6,
        ok,
        f"bit counts on n = 2..6 with (a, b) = (1, 0): self-bounding certificates "
        f"{certified}, failing sizes {bad_sizes or 'none'}, {elapsed:.2f}s (limit 5s)",
    )
    assert bad_sizes == []
    assert all(certified)
    assert elapsed < 5.0


def test_c7_tails_vanish_beyond_the_weight_diameter():
    t0 = time.perf_counter()
    queries = 0
    nonzero = 0
    for s in range(500):
        sc = random_scenario(s, "median")
        law = exact_functional_stats(sc.space, sc.dist, sc.target.functional)
        t = 1.001 * sc.alpha.l1_sum
        for center in (law.stats.mean, law.stats.median_lo, law.stats.median_hi):
            queries += 2
            if law.curve.prob_ge(center + t) != 0.0:
                nonzero += 1
            if law.curve.prob_le(center - t) != 0.0:
                nonzero += 1
    elapsed = time.perf_counter() - t0
    ok = nonzero == 0
    _line(
        7,
        ok,
        f"{queries} tail queries at t = 1.001 * l1(alpha) around mean and both "
        f"medians: {nonzero} returned anything but the float literal 0.0; "
        f"{elapsed:.2f}s",
    )
    assert nonzero == 0


def test_c8_exponent_shape_and_asymptotics():
    # branch continuity: both h branches are bit-identical at t = rho
    continuity_breaks = sum(
        1
        for r in np.linspace(1e-6, 50.0, 10_000)
        if h_exponent(float(r), float(r)) != 2.0 * (float(r) * float(r))
    )
    # domination chain plus the small-t strengthening over a 10^4 grid
    domination_breaks = 0
    small_t_breaks = 0
    for rho in np.linspace(0.0, 3.0, 100):
        rho = float(rho)
        for t in np.linspace(0.01, 6.0, 100):
            t = float(t)
            imp = improved_set_bound(t, rho)
            if not imp <= simple_set_bound(t) <= mcdiarmid_set_bound(t):
                domination_breaks += 1
            if t <= rho and imp > math.exp(-2.0 * t * t) + 1e-15:
                small_t_breaks += 1
    # large t: h(t, rho)/(2 t^2) = 1 - 2 rho/t + 2 rho^2/t^2, so the
    # [0.99, 1] window at t = 100 * max(rho, 1) requires rho <= ~0.5025;
    # below 0.5 the window is checked literally, and doubling t keeps
    # the ratio >= 0.99 over the full [0, 3] range
    window_breaks = sum(
        1
        for r in np.linspace(0.0, 0.5, 2001)
        if not 0.99
        <= h_exponent(100.0 * max(float(r), 1.0), float(r))
        / (2.0 * (100.0 * max(float(r), 1.0)) ** 2)
        <= 1.0
    )
    extended_min = min(
        h_exponent(200.0 * max(float(r), 1.0), float(r))
        / (2.0 * (200.0 * max(float(r), 1.0)) ** 2)
        for r in np.linspace(0.0, 3.0, 2001)
    )
    ok = (
        continuity_breaks == 0
        and domination_breaks == 0
        and small_t_breaks == 0
        and window_breaks == 0
        and extended_min >= 0.99
    )
    _line(
        8,
        ok,
        f"branch continuity exact at 10^4 points; domination and small-t "
        f"strengthening clean on a 10^4 grid; large-t ratio in [0.99, 1] at "
        f"t = 100*max(rho, 1) for rho <= 0.5 (the window cannot hold there past "
        f"rho ~ 0.5025) and >= {extended_min:.5f} at t = 200*max(rho, 1) over [0, 3]",
    )
    assert continuity_breaks == 0
    assert domination_breaks == 0
    assert small_t_breaks == 0
    assert window_breaks == 0
    assert extended_min >= 0.99


def test_c9_monte_carlo_bands_cover_exact_tails():
    t0 = time.perf_counter()
    covered = 0
    for s in range(20):
        sc = random_scenario(s, "set")
        st = exact_set_stats(sc.space, sc.dist, sc.alpha, sc.target.set_spec)
        exact = st.distance_curve.prob_ge(st.rho)
        est = mc_tail(
            sc.space,
            sc.dist,
            DistanceToSet(sc.alpha, sc.target.set_spec),
            st.rho,
            n_samples=10**5,
            seed=s,
            delta=0.01,
        )
        if abs(est.estimate - exact) <= est.half_width:
            covered += 1
    elapsed = time.perf_counter() - t0
    ok = covered >= 19 and elapsed < 30.0
    _line(
        9,
        ok,
        f"{covered}/20 Hoeffding bands (n = 1e5, delta = 0.01) cover the exact "
        f"tail at t = rho; {elapsed:.2f}s (limit 30s)",
    )
    assert covered >= 19
    assert elapsed < 30.0


def test_c10_reports_are_byte_identical_across_runs(tmp_path):
    s1 = str(SCENARIOS / "s1.json")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    rc1 = cli_main(["verify", s1, "--out", str(a)])
    rc2 = cli_main(["verify", s1, "--out", str(b)])
    same = a.read_bytes() == b.read_bytes()
    ok = rc1 == 0 and rc2 == 0 and same
    _line(
        10,
        ok,
        f"two verify runs at seed 0 wrote identical {len(a.read_bytes())}-byte "
        f"JSON reports (exit codes {rc1}, {rc2})",
    )
    assert rc1 == 0 and rc2 == 0
    assert same
