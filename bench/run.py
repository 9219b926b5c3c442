"""Benchmark of hamconc: four seeded workloads, checked against an oracle.

Run from the root of a checkout:

    python3 bench/run.py --workload set-distance --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

A run is a closed loop with one client: one op at a time, in-process,
each checked by the oracle outside the timed region.  With ``--trace 0``
it runs whole rounds of the workload's cases until ``--seconds`` of op
time have passed and reports the end-to-end metrics, with times scaled
by a reference kernel timed in the set-up probes (see ``REF_S``).  With
``--trace 1``
it repeats one fixed unit of work until ``--seconds`` have passed: once
untraced, once with spans and counters (times, counts and the tracing
overhead), once more with tracemalloc on as well (peaks).  It reports
the per-layer metrics: counts from the first unit, times and peaks as
medians over units.  Human-readable lines come first; the last line of
standard output is one JSON object.  ``--workload all`` runs the four workloads one after another,
each in its own process.

The program is the package under ``src/`` of the checkout; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

# Set-up is probed at the start and after every PROBE_EVERY_S of op
# time, so that a run's set-up time spans the run as its ops do; at
# least SETUP_PROBES probes are made.
PROBE_EVERY_S = 1.5
SETUP_PROBES = 5
# Times are scaled to a machine on which the reference kernel of
# inputs.reference_s takes REF_S seconds (about its median on the 2-vCPU
# machine the benchmark was tuned on), using kernel times measured in
# the same stretch of the run as the ops.
REF_S = 0.07
# A percentile is reported only with at least ten samples beyond it.
P90_MIN_OPS = 100
MAX_PRINTED_FAILURES = 10


class Tally:
    """Attempted and failed ops, and the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= MAX_PRINTED_FAILURES:
                print(f"# FAIL {label}: {'; '.join(map(str, problems))}", flush=True)


def run_ops(ops, tally: Tally, tracer=None, after_op=None) -> list[float]:
    """Run each op once; return the op latencies in seconds."""
    latencies = []
    for n, op in enumerate(ops):
        problems = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.op(f"{n}:{op.label}"):
                    out = op.run()
        except (Exception, SystemExit) as e:
            problems = [f"raised {e!r}"]
        latencies.append(time.perf_counter() - t0)
        if after_op is not None:
            after_op(latencies[-1])
        if problems is None:
            try:
                problems = op.check(out)
            except Exception as e:
                problems = [f"report could not be checked: {e!r}"]
        tally.record(op.label, problems)
    return latencies


def probe_setup(spec_path: Path) -> dict:
    """A fresh interpreter's set-up time and its reference kernel time, in seconds."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "inputs.py"), str(SRC), str(spec_path)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _latency_metrics(latencies: list[float]) -> dict:
    out = {"ops_per_s": len(latencies) / sum(latencies), "op_s.p50": statistics.median(latencies)}
    if len(latencies) >= P90_MIN_OPS:
        out["op_s.p90"] = statistics.quantiles(latencies, n=10)[-1]
    return out


def measure_end_to_end(wl, seconds: float, tally: Tally, workdir: Path) -> dict:
    warmup = [op for r in range(wl.unit_rounds) for op in wl.round_ops(r)]
    spec_path = workdir / "setup_spec.json"
    spec_path.write_text(json.dumps(wl.probe_spec()), encoding="utf-8")
    probes = [probe_setup(spec_path)]
    run_ops(warmup, tally)
    since = [0.0]

    def after_op(dt: float) -> None:
        since[0] += dt
        if since[0] >= PROBE_EVERY_S:
            probes.append(probe_setup(spec_path))
            since[0] = 0.0

    wall: list[float] = []
    r = wl.unit_rounds
    while sum(wall) < seconds:
        wall += run_ops(wl.round_ops(r), tally, after_op=after_op)
        r += 1
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(spec_path))
    # Each probe's set-up is scaled by its own kernel time; the ops by the
    # median kernel time of the probes made while they ran.
    setup_s = REF_S * statistics.median(p["setup_s"] / p["ref_s"] for p in probes)
    ref_s = statistics.median(p["ref_s"] for p in probes)
    lat = _latency_metrics([t * REF_S / ref_s for t in wall])
    raw = _latency_metrics(wall)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        f"# times scaled by {REF_S * 1e3:.0f} ms / {ref_s * 1e3:.2f} ms, the reference kernel's "
        f"nominal / median time over {len(probes)} probes; wall-clock in brackets"
    )
    print(
        f"  setup_s      {setup_s:.6f} s    [{statistics.median(p['setup_s'] for p in probes):.6f}]"
        f"  (median of {len(probes)} fresh interpreters over the run)"
    )
    print(f"  ops_per_s    {lat['ops_per_s']:.6f} 1/s  [{raw['ops_per_s']:.6f}]  ({len(wall)} ops)")
    print(f"  op_s.p50     {lat['op_s.p50']:.6f} s    [{raw['op_s.p50']:.6f}]  ({len(wall)} samples)")
    if "op_s.p90" in lat:
        print(f"  op_s.p90     {lat['op_s.p90']:.6f} s    [{raw['op_s.p90']:.6f}]  ({len(wall)} samples)")
    else:
        print(f"  op_s.p90     n/a           (fewer than {P90_MIN_OPS} ops)")
    print(f"  peak_rss_mb  {rss_mb:.1f} MB   (ru_maxrss of this process)")
    print(
        f"  error_rate   {tally.failed / tally.attempted:.6f}      "
        f"({tally.failed} of {tally.attempted} ops, warm-up included)"
    )
    return {
        "setup_s": setup_s,
        "ops_per_s": lat["ops_per_s"],
        "op_s.p50": lat["op_s.p50"],
        "peak_rss_mb": rss_mb,
    }


def measure_layers(wl, seconds: float, tally: Tally, spans_path: Path, wanted: list) -> dict:
    from tracer import Tracer

    ops = [op for r in range(wl.unit_rounds) for op in wl.round_ops(r)]
    run_ops(ops, tally)
    units: list[dict] = []
    spent = 0.0
    while spent < seconds:
        base = sum(run_ops(ops, tally))
        tracer = Tracer()
        with tracer.installed():
            traced = sum(run_ops(ops, tally, tracer))
        if not units:
            tracer.write_spans(spans_path)
        memory = Tracer(memory=True)
        with memory.installed():
            spent += base + traced + sum(run_ops(ops, tally, memory))
        metrics = tracer.layer_metrics()
        metrics.update((k, v) for k, v in memory.layer_metrics().items() if k.endswith(".peak_mb"))
        metrics["trace.overhead_s"] = traced - base
        units.append(metrics)
    out = {}
    for name, unit in wanted:
        if unit == "count":
            out[name] = units[0].get(name, 0)
            if any(u.get(name, 0) != out[name] for u in units):
                print(f"# note: {name} differs between units of identical work")
        else:
            out[name] = statistics.median(u.get(name, 0.0) for u in units)
    for name, unit in wanted:
        print(f"  {name:40s} {out[name]} {unit}")
    print(f"# {len(ops)} ops per unit, {len(units)} unit(s); spans of the first unit in {spans_path}")
    return out


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    print(
        f"# hamconc benchmark: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds} s, trace {args.trace}; closed loop, one client"
    )
    print(
        f"# machine: {os.cpu_count()} CPUs, Python {platform.python_version()}, "
        f"numpy {numpy.__version__}; no cache dropping, no CPU pinning"
    )
    RUN_DIR.mkdir(exist_ok=True)
    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    tally = Tally()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        if args.trace:
            spans = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            values = measure_layers(wl, args.seconds, tally, spans, args.metrics)
        else:
            values = measure_end_to_end(wl, args.seconds, tally, workdir)
        # Checked apart from the ops and the tally, after the timing.
        for line in getattr(wl, "known_defects", list)():
            print(f"# {line}", flush=True)
            print(line, file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in args.metrics},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args, names: list[str]) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    # Workload and metric names and units are the ones BENCHMARK.json records.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "hamconc" / "__init__.py").is_file():
        print(f"error: no hamconc package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, names)
    args.metrics = [(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]]
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
