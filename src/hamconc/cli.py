"""Command-line driver.

Four subcommands: ``eval-bound`` evaluates one closed-form bound,
``verify`` runs a scenario file through the verification harness,
``sweep`` verifies batches of random scenarios, and ``curves`` emits
plot-ready CSV tables of bound values over a parameter range.

Exit codes: 0 success and all rows pass, 1 at least one inequality row
failed, 2 usage or input error.  A command refuses an input by raising
ValueError (a ScenarioFileError is one); :func:`main` alone turns that
into one ``error:`` line and exit 2.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import bounds
from ._util import fmt_float
from .scenario_io import load_scenario
from .verify import GENERATOR_KINDS, BoundRow, sweep, verify_scenario

__all__ = ["main"]


_PARAM_FLAGS = ("t", "rho", "lam", "gap", "mu", "a", "b", "n")

# Most points a curves range may ask for; a larger count is an input error.
_MAX_RANGE_STEPS = 10**6


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t", type=float, help="tail offset t > 0")
    p.add_argument("--rho", type=float, help="mean distance to the set")
    p.add_argument(
        "--lam", "--lambda", dest="lam", type=float, help="MGF argument, >= 0"
    )
    p.add_argument("--gap", type=float, help="mean-median gap |m - mu|")
    p.add_argument("--mu", type=float, help="mean of the functional")
    p.add_argument("--a", type=float, help="self-bounding scale parameter")
    p.add_argument("--b", type=float, help="self-bounding offset parameter")
    p.add_argument("--n", type=int, help="number of coordinates")


def _given_params(args: argparse.Namespace) -> dict:
    """The parameter flags given on the command line, by name."""
    return {k: getattr(args, k) for k in _PARAM_FLAGS if getattr(args, k) is not None}


def cmd_eval_bound(args: argparse.Namespace) -> int:
    params = _given_params(args)
    value = bounds.evaluate_bound(args.name, **params)
    # Every line formatted before any is printed: a non-finite value prints none.
    lines = [f"{k} = {fmt_float(float(params[k]))}" for k in bounds.EVALUATORS[args.name].params]
    print("\n".join([*lines, f"{args.name} = {fmt_float(value)}"]))
    return 0


def _describe_row(r: BoundRow) -> str:
    where = []
    if r.median_used is not None:
        where.append(f"m={fmt_float(r.median_used)}")
    if r.tail is not None:
        where.append(r.tail)
    if r.t is not None:
        where.append(f"t={fmt_float(r.t)}")
    if r.lam is not None:
        where.append(f"lambda={fmt_float(r.lam)}")
    loc = ", ".join(where) or "-"
    return (
        f"{r.bound_id} [{loc}]: lhs {fmt_float(r.lhs)} > bound "
        f"{fmt_float(r.bound)} (slack {fmt_float(r.slack)})"
    )


def _emit(text: str, out: str | None, end: str = "") -> None:
    """Write ``text`` to the file ``out``, or to stdout followed by ``end``."""
    if not out:
        sys.stdout.write(text + end)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise ValueError(f"cannot write {out}: {e}") from None


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except OSError as e:
        raise ValueError(f"cannot read {args.scenario}: {e}") from None
    report = verify_scenario(scenario)
    text = report.to_json() if args.format == "json" else report.to_csv()
    _emit(text, args.out, "\n" if args.format == "json" else "")
    if not report.all_pass:
        failing = report.failing_rows()
        print(f"FAIL: {len(failing)} row(s) violate their bound", file=sys.stderr)
        for r in failing:
            print(f"  {_describe_row(r)}", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    result = sweep(
        args.kind, args.trials, args.seed, max_n=args.max_n, max_alphabet=args.max_alphabet
    )
    print(f"{result.passes}/{result.trials} pass")
    print(f"worst slack = {fmt_float(result.worst_slack)} (seed {result.worst_seed})")
    if result.kind == "drop":
        print(f"joint-table scenarios: {result.joint_count}")
    if result.failing_seeds:
        print("failing seeds: " + ", ".join(str(s) for s in result.failing_seeds))
        return 1
    return 0


def _parse_range(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:steps, got {spec!r}")
    try:
        start = float(parts[0])
        stop = float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise ValueError(
            f"range must be start:stop:steps with numeric parts, got {spec!r}"
        ) from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"range endpoints must be finite, got {spec!r}")
    if not 1 <= steps <= _MAX_RANGE_STEPS:
        raise ValueError(f"range needs 1 to {_MAX_RANGE_STEPS} points, got {steps}")
    return np.linspace(start, stop, steps)


def cmd_curves(args: argparse.Namespace) -> int:
    if (args.t_range is None) == (args.rho_range is None):
        raise ValueError("provide exactly one of --t-range or --rho-range")
    axis, spec = ("t", args.t_range) if args.t_range is not None else ("rho", args.rho_range)
    grid = _parse_range(spec)
    fixed = _given_params(args)
    if axis in fixed:
        raise ValueError(f"--{axis} conflicts with the range axis")
    # Each bound's parameters are checked once: (name, fixed arguments, takes the axis).
    calls = []
    for name in args.bound_set:
        params = bounds.EVALUATORS[name].params
        for k in params:
            if k != axis and k not in fixed:
                raise ValueError(
                    f"bound {name} needs parameter {k}; pass --{k} or use it as the range axis"
                )
        calls.append((name, {k: fixed[k] for k in params if k != axis}, axis in params))
    lines = [",".join([axis] + list(args.bound_set))]
    for x in grid:
        row = [fmt_float(float(x))]
        for name, given, on_axis in calls:
            kwargs = {**given, axis: float(x)} if on_axis else given
            row.append(fmt_float(bounds.evaluate_bound(name, **kwargs)))
        lines.append(",".join(row))
    _emit("\r\n".join(lines) + "\r\n", args.out)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use.

    Parsing leaves it unchanged: each call fills a new namespace.
    """
    parser = argparse.ArgumentParser(
        prog="hamconc",
        description=(
            "Concentration bounds for weighted Hamming distances: evaluate "
            "closed-form bounds and verify them against exact enumeration."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    names = sorted(bounds.EVALUATORS)
    p = sub.add_parser("eval-bound", help="evaluate one closed-form bound")
    p.add_argument("name", choices=names, metavar="name", help=", ".join(names))
    _add_param_flags(p)
    p.set_defaults(func=cmd_eval_bound)

    p = sub.add_parser("verify", help="verify a scenario file against exact enumeration")
    p.add_argument("scenario", help="path to a scenario JSON file")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="verify batches of random scenarios")
    p.add_argument("--kind", choices=GENERATOR_KINDS, required=True)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=int, default=4, dest="max_n")
    p.add_argument("--max-alphabet", type=int, default=3, dest="max_alphabet")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("curves", help="emit CSV tables of bound values over a range")
    p.add_argument(
        "--bound-set",
        nargs="+",
        choices=names,
        required=True,
        metavar="name",
        dest="bound_set",
        help=", ".join(names),
    )
    p.add_argument("--t-range", dest="t_range", help="t axis as start:stop:steps")
    p.add_argument("--rho-range", dest="rho_range", help="rho axis as start:stop:steps")
    _add_param_flags(p)
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_curves)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:  # every refused input, a ScenarioFileError among them
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
