"""Command-line driver.

Four subcommands: ``eval-bound`` evaluates one closed-form bound,
``verify`` runs a scenario file through the verification harness,
``sweep`` verifies batches of random scenarios, and ``curves`` emits
plot-ready CSV tables of bound values over a parameter range.

Exit codes: 0 success and all rows pass, 1 at least one inequality row
failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

import numpy as np

from . import bounds
from ._util import fmt_float
from .scenario_io import ScenarioFileError, load_scenario
from .verify import GENERATOR_KINDS, BoundRow, sweep, verify_scenario

__all__ = ["main"]


_PARAM_FLAGS = ("t", "rho", "lam", "gap", "mu", "a", "b", "n")


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


def cmd_eval_bound(args: argparse.Namespace) -> int:
    params: dict = {}
    for key in _PARAM_FLAGS:
        v = getattr(args, key)
        if v is not None:
            params[key] = v
    try:
        value = bounds.evaluate_bound(args.name, **params)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    _, declared = bounds.EVALUATORS[args.name]
    for key in declared:
        print(f"{key} = {fmt_float(float(params[key]))}")
    print(f"{args.name} = {fmt_float(value)}")
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


def _emit(text: str, out: str | None, end: str = "") -> bool:
    """Write ``text`` to the file ``out``, or to stdout followed by ``end``.

    Returns False, having reported the error, if the file cannot be written.
    """
    if not out:
        sys.stdout.write(text + end)
        return True
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as e:
        print(f"error: cannot write {out}: {e}", file=sys.stderr)
        return False
    return True


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: cannot read {args.scenario}: {e}", file=sys.stderr)
        return 2
    try:
        if args.seed is not None:
            scenario = dataclasses.replace(scenario, seed=args.seed)
        report = verify_scenario(scenario)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    text = report.to_json() if args.format == "json" else report.to_csv()
    if not _emit(text, args.out, "\n" if args.format == "json" else ""):
        return 2
    if not report.all_pass:
        failing = report.failing_rows()
        print(f"FAIL: {len(failing)} row(s) violate their bound", file=sys.stderr)
        for r in failing:
            print(f"  {_describe_row(r)}", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        result = sweep(
            args.kind,
            args.trials,
            args.seed,
            max_n=args.max_n,
            max_alphabet=args.max_alphabet,
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
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
    if steps < 1:
        raise ValueError(f"range needs at least one point, got {steps}")
    return np.linspace(start, stop, steps)


def cmd_curves(args: argparse.Namespace) -> int:
    if (args.t_range is None) == (args.rho_range is None):
        print("error: provide exactly one of --t-range or --rho-range", file=sys.stderr)
        return 2
    try:
        if args.t_range is not None:
            axis, grid = "t", _parse_range(args.t_range)
        else:
            axis, grid = "rho", _parse_range(args.rho_range)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    fixed = {}
    for key in _PARAM_FLAGS:
        v = getattr(args, key)
        if v is not None:
            fixed[key] = v
    if axis in fixed:
        print(f"error: --{axis} conflicts with the range axis", file=sys.stderr)
        return 2
    lines = [",".join([axis] + list(args.bound_set))]
    for x in grid:
        row = [fmt_float(float(x))]
        for name in args.bound_set:
            _, declared = bounds.EVALUATORS[name]
            kwargs = {}
            for k in declared:
                if k == axis:
                    kwargs[k] = float(x)
                elif k in fixed:
                    kwargs[k] = fixed[k]
                else:
                    print(
                        f"error: bound {name} needs parameter {k}; pass --{k} "
                        "or use it as the range axis",
                        file=sys.stderr,
                    )
                    return 2
            try:
                row.append(fmt_float(bounds.evaluate_bound(name, **kwargs)))
            except ValueError as e:
                print(f"error: {e}", file=sys.stderr)
                return 2
        lines.append(",".join(row))
    return 0 if _emit("\r\n".join(lines) + "\r\n", args.out) else 2


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
    p.add_argument("--seed", type=int, default=None, help="override the scenario's seed")
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
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
