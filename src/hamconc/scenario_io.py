"""Read scenarios from plain JSON files.

Schema (one object per file)::

    {
      "space":        {"alphabet_sizes": [2, 2]},
      "distribution": {"kind": "product", "pmfs": [[0.5, 0.5], [0.5, 0.5]]}
                      or {"kind": "joint", "joint_table": [0.5, 0.0, 0.0, 0.5]},
      "alpha":        {"weights": [0.707, 0.707], "normalize": true},
      "target":       {"kind": "set", "set": {"members": [[0, 0]]}}
                      or {"kind": "median" | "gap" | "mean",
                          "functional":
                              {"type": "table", "values": [...]}
                              | {"type": "weighted_sum", "coefficients": [...]}
                              | {"type": "distance_to_set", "set": {"members": [...]}},
                          "params": [a, b]},
      "grids":        {"t": [...], "lambda": [...]},
      "seed":         0,
      "caps":         {"enumeration": 1000000}
    }

"grids", "seed", "caps", and "params" are optional; "params" is only
meaningful for mean targets and switches on the self-bounding rows.
Weights must satisfy ||alpha|| = 1 unless "normalize" is true.  No
drop family is attached (the drop flow does that after its cap check),
and only a "distance_to_set" functional is tabulated, once the space is
within the cap.  Malformed files raise ScenarioFileError naming the
offending key; the command-line driver maps that to exit code 2.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Any

import numpy as np

from .functionals import Functional
from .hamming import AlphaWeights, normalize
from .space import Distribution, FiniteSpace, SetSpec, _check_cap
from .verify import GapTarget, MeanTarget, MedianTarget, Scenario, SetTarget, Target

__all__ = ["ScenarioFileError", "scenario_from_dict", "load_scenario"]


class ScenarioFileError(ValueError):
    """Malformed scenario file; the message names the offending key."""


_TOP_KEYS = {"space", "distribution", "alpha", "target", "grids", "seed", "caps"}


def _require(data: dict, key: str, where: str) -> Any:
    if key not in data:
        full = f"{where}.{key}" if where else key
        raise ScenarioFileError(f"missing key {full}")
    return data[key]


def _as_dict(v: Any, where: str) -> dict:
    if not isinstance(v, dict):
        raise ScenarioFileError(f"{where} must be an object")
    return v


def _as_list(v: Any, where: str) -> list:
    if not isinstance(v, list):
        raise ScenarioFileError(f"{where} must be an array")
    return v


def _as_number(v: Any, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioFileError(f"{where} must be a number")
    return float(v)


def _as_int(v: Any, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioFileError(f"{where} must be an integer")
    return v


def _as_bool(v: Any, where: str) -> bool:
    if not isinstance(v, bool):
        raise ScenarioFileError(f"{where} must be a boolean")
    return v


def _number_list(v: Any, where: str) -> list[float]:
    """The list as floats, its types checked in bulk.

    Only when the bulk check fails is the list walked one entry at a
    time, to name the first entry that is not a number.
    """
    raw = _as_list(v, where)
    if set(map(type, raw)) <= {float, int}:
        return list(map(float, raw))
    return [_as_number(x, f"{where}[{i}]") for i, x in enumerate(raw)]


def _finite_list(v: Any, where: str) -> list[float]:
    """:func:`_number_list` with every entry finite; JSON readers accept NaN and Infinity."""
    vals = _number_list(v, where)
    finite = np.isfinite(vals)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ScenarioFileError(f"{where}[{i}] must be finite, got {vals[i]}")
    return vals


def _space_from(data: dict) -> FiniteSpace:
    d = _as_dict(_require(data, "space", ""), "space")
    raw = _as_list(_require(d, "alphabet_sizes", "space"), "space.alphabet_sizes")
    sizes = [_as_int(x, f"space.alphabet_sizes[{i}]") for i, x in enumerate(raw)]
    try:
        return FiniteSpace(tuple(sizes))
    except ValueError as e:
        raise ScenarioFileError(f"space.alphabet_sizes: {e}") from None


def _distribution_from(data: dict, space: FiniteSpace) -> Distribution:
    d = _as_dict(_require(data, "distribution", ""), "distribution")
    kind = _require(d, "kind", "distribution")
    if kind == "product":
        raw = _as_list(_require(d, "pmfs", "distribution"), "distribution.pmfs")
        pmfs = [_number_list(p, f"distribution.pmfs[{i}]") for i, p in enumerate(raw)]
        try:
            dist = Distribution.product(tuple(tuple(p) for p in pmfs))
            dist.require_matches(space)
        except ValueError as e:
            raise ScenarioFileError(f"distribution.pmfs: {e}") from None
        return dist
    if kind == "joint":
        table = _number_list(
            _require(d, "joint_table", "distribution"), "distribution.joint_table"
        )
        try:
            dist = Distribution.joint(tuple(table))
            dist.require_matches(space)
        except ValueError as e:
            raise ScenarioFileError(f"distribution.joint_table: {e}") from None
        return dist
    raise ScenarioFileError(
        f'distribution.kind must be "product" or "joint", got {kind!r}'
    )


def _alpha_from(data: dict) -> AlphaWeights:
    d = _as_dict(_require(data, "alpha", ""), "alpha")
    extra = set(d) - {"weights", "normalize"}
    if extra:
        raise ScenarioFileError(f"unknown key alpha.{sorted(extra)[0]}")
    weights = _number_list(_require(d, "weights", "alpha"), "alpha.weights")
    do_norm = _as_bool(d.get("normalize", False), "alpha.normalize")
    try:
        a = AlphaWeights(tuple(weights))
    except ValueError as e:
        raise ScenarioFileError(f"alpha.weights: {e}") from None
    if do_norm:
        return normalize(a)
    if not a.normalized:
        raise ScenarioFileError(
            "alpha.weights: theorems require ||α||=1; "
            'set "normalize": true or supply a unit-norm vector'
        )
    return a


def _checked_members(raw: list, where: str, space: FiniteSpace) -> list:
    """The member symbol lists, checked in bulk as one (|A|, n) int array.

    Only when the bulk check fails are the members walked one by one, to
    name the first offending entry.
    """
    sizes, n = space.alphabet_sizes, space.n
    if all(type(m) is list and len(m) == n for m in raw) and set(
        map(type, itertools.chain.from_iterable(raw))
    ) == {int}:
        try:
            symbols = np.array(raw, dtype=np.int64)
        except OverflowError:
            pass
        else:
            if ((symbols >= 0) & (symbols < sizes)).all():
                return raw
    for i, m in enumerate(raw):
        row = _as_list(m, f"{where}.members[{i}]")
        syms = [_as_int(s, f"{where}.members[{i}][{j}]") for j, s in enumerate(row)]
        if len(syms) != n:
            raise ScenarioFileError(
                f"{where}.members[{i}] has {len(syms)} symbols, "
                f"space has {n} coordinates"
            )
        for j, s in enumerate(syms):
            if not 0 <= s < sizes[j]:
                raise ScenarioFileError(
                    f"{where}.members[{i}][{j}] must be in "
                    f"[0, {sizes[j] - 1}], got {s}"
                )
    return raw


def _set_from(v: Any, where: str, space: FiniteSpace) -> SetSpec:
    sd = _as_dict(v, where)
    raw = _as_list(_require(sd, "members", where), f"{where}.members")
    if not raw:
        raise ScenarioFileError(f"{where}.members must be nonempty")
    return SetSpec(_checked_members(raw, where, space))


def _functional_from(
    v: Any,
    where: str,
    space: FiniteSpace,
    alpha: AlphaWeights,
    params: tuple[float, float] | None,
    cap: int | None,
) -> Functional:
    fd = _as_dict(v, where)
    ftype = _require(fd, "type", where)
    kw: dict = {} if params is None else {"self_bounding_params": params}
    if ftype == "table":
        values = _finite_list(_require(fd, "values", where), f"{where}.values")
        try:
            return Functional.from_table(space, values, **kw)
        except ValueError as e:
            raise ScenarioFileError(f"{where}.values: {e}") from None
    if ftype == "weighted_sum":
        coeffs = _finite_list(_require(fd, "coefficients", where), f"{where}.coefficients")
        if len(coeffs) != space.n:
            raise ScenarioFileError(
                f"{where}.coefficients has {len(coeffs)} entries, "
                f"space has {space.n} coordinates"
            )
        return Functional.weighted_sum(coeffs, **kw)
    if ftype == "distance_to_set":
        spec = _set_from(_require(fd, "set", where), f"{where}.set", space)
        try:
            _check_cap(space, cap)
        except ValueError as e:
            raise ScenarioFileError(f"{where}: {e}") from None
        return Functional.distance_to(alpha, spec, space, **kw)
    raise ScenarioFileError(
        f'{where}.type must be "table", "weighted_sum", or "distance_to_set", '
        f"got {ftype!r}"
    )


def _target_from(data: dict, space: FiniteSpace, alpha: AlphaWeights, cap: int | None) -> Target:
    d = _as_dict(_require(data, "target", ""), "target")
    kind = _require(d, "kind", "target")
    if kind == "set":
        return SetTarget(_set_from(_require(d, "set", "target"), "target.set", space))
    if kind in ("median", "gap", "mean"):
        params = None
        if "params" in d:
            if kind != "mean":
                raise ScenarioFileError('target.params is only valid for "mean" targets')
            raw = _as_list(d["params"], "target.params")
            if len(raw) != 2:
                raise ScenarioFileError("target.params must be [a, b]")
            a = _as_number(raw[0], "target.params[0]")
            b = _as_number(raw[1], "target.params[1]")
            if not math.isfinite(a) or a <= 0.0:
                raise ScenarioFileError(f"target.params[0] (a) must be positive, got {a}")
            if not math.isfinite(b) or b < 0.0:
                raise ScenarioFileError(
                    f"target.params[1] (b) must be nonnegative, got {b}"
                )
            params = (a, b)
        fd = _require(d, "functional", "target")
        f = _functional_from(fd, "target.functional", space, alpha, params, cap)
        return {"median": MedianTarget, "gap": GapTarget, "mean": MeanTarget}[kind](f)
    raise ScenarioFileError(
        f'target.kind must be one of "set", "median", "gap", "mean", got {kind!r}'
    )


def _grid_from(gd: dict, key: str, positive: bool) -> tuple | None:
    """The grid ``grids.<key>``, or None when the file gives none."""
    if key not in gd:
        return None
    where = f"grids.{key}"
    vals = _number_list(gd[key], where)
    if not vals:
        raise ScenarioFileError(f"{where} must be nonempty when given")
    for i, v in enumerate(vals):
        if not math.isfinite(v) or v < 0.0 or (positive and v == 0.0):
            sign = "positive" if positive else "nonnegative"
            raise ScenarioFileError(f"{where}[{i}] must be {sign}, got {v}")
    return tuple(vals)


def scenario_from_dict(data: Any) -> Scenario:
    """Build a Scenario from already-parsed JSON data."""
    if not isinstance(data, dict):
        raise ScenarioFileError("scenario file must hold a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ScenarioFileError(f"unknown key {sorted(unknown)[0]!r}")
    space = _space_from(data)
    dist = _distribution_from(data, space)
    alpha = _alpha_from(data)
    if alpha.n != space.n:
        raise ScenarioFileError(
            f"alpha.weights has {alpha.n} entries, space has {space.n} coordinates"
        )
    cap = None
    if "caps" in data:
        cd = _as_dict(data["caps"], "caps")
        extra = set(cd) - {"enumeration"}
        if extra:
            raise ScenarioFileError(f"unknown key caps.{sorted(extra)[0]}")
        if "enumeration" in cd:
            cap = _as_int(cd["enumeration"], "caps.enumeration")
            if cap < 1:
                raise ScenarioFileError(f"caps.enumeration must be positive, got {cap}")
    target = _target_from(data, space, alpha, cap)
    gd = _as_dict(data.get("grids", {}), "grids")
    extra = set(gd) - {"t", "lambda"}
    if extra:
        raise ScenarioFileError(f"unknown key grids.{sorted(extra)[0]}")
    t_grid = _grid_from(gd, "t", positive=True)
    lam_grid = _grid_from(gd, "lambda", positive=False)
    seed = 0
    if "seed" in data:
        seed = _as_int(data["seed"], "seed")
        if seed < 0:
            raise ScenarioFileError(f"seed must be nonnegative, got {seed}")
    try:
        return Scenario(
            space=space,
            dist=dist,
            alpha=alpha,
            target=target,
            t_grid=t_grid,
            lambda_grid=lam_grid,
            seed=seed,
            cap=cap,
        )
    except ValueError as e:
        raise ScenarioFileError(str(e)) from None


def load_scenario(path) -> Scenario:
    """Parse one scenario from a JSON file on disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise ScenarioFileError(f"invalid JSON in {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise ScenarioFileError(f"{path} is not UTF-8 text: {e}") from None
    return scenario_from_dict(data)
