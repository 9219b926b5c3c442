"""The scenario: its type, its checks, its file form both ways and its digest.

A :class:`Scenario` binds a finite product space, a distribution, a
weight vector and one target (a set, or a functional checked around
its median, its mean, or for the mean-median gap), with optional grids,
a seed and an enumeration cap.  This module builds one from a plain
JSON file (:func:`load_scenario`, :func:`scenario_from_dict`), writes
one back as such a file (:func:`scenario_to_dict`) and hashes that form
(:func:`scenario_fingerprint`).  Schema (one object per file)::

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
                              each with an optional "table_sha256": "<hex>",
                          "params": [a, b]},
      "grids":        {"t": [...], "lambda": [...]},
      "seed":         0,
      "caps":         {"enumeration": 1000000}
    }

A report's "scenario" block is such a file; in memory, as
:func:`scenario_to_dict` gives it, a set's members are an int64 array
and a table's values, a joint law's table and each pmf are float64
arrays, which the loader takes as it takes the lists.  "grids",
"seed", "caps", "params" and "table_sha256" are optional; "params" is
only valid for mean targets and switches on the self-bounding rows.  Weights must
satisfy ||alpha|| = 1 unless "normalize" is true.  Only a functional
that is a "distance_to_set" or gives "table_sha256" is tabulated here,
once the space is within the cap; the digest must then match f's table
(:func:`_sha256`).  Each object may hold only the keys its place and,
for a distribution, target or functional, its kind or type allow
(``_KEYS``), so an unknown key at any level, or one of another kind (a
product law's "joint_table"), is refused.  The grids and the seed are
checked once, by :class:`Scenario`, for files and callers alike.
Malformed files raise ScenarioFileError naming the offending key; the
``hamconc`` command maps that to exit code 2.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Iterable, Union

import numpy as np

from ._util import dumps, frozen, quote
from .functionals import Functional, _Table, _tabulate, _WeightedSum
from .hamming import AlphaWeights, normalize
from .space import Distribution, FiniteSpace, SetSpec, _check_cap

__all__ = [
    "SetTarget",
    "MedianTarget",
    "GapTarget",
    "MeanTarget",
    "Target",
    "Scenario",
    "scenario_to_dict",
    "scenario_fingerprint",
    "ScenarioFileError",
    "scenario_from_dict",
    "load_scenario",
]


@dataclass(frozen=True)
class SetTarget:
    """Verify the set-distance bounds for a fixed nonempty set."""

    set_spec: SetSpec
    kind: ClassVar[str] = "set"


@dataclass(frozen=True)
class MedianTarget:
    """Verify the median-centered tail bounds for a Lipschitz functional."""

    functional: Functional
    kind: ClassVar[str] = "median"


@dataclass(frozen=True)
class GapTarget:
    """Verify the mean-median gap bounds for a Lipschitz functional."""

    functional: Functional
    kind: ClassVar[str] = "gap"


@dataclass(frozen=True)
class MeanTarget:
    """Verify mean-centered tail and MGF bounds under the drop condition."""

    functional: Functional
    kind: ClassVar[str] = "mean"


Target = Union[SetTarget, MedianTarget, GapTarget, MeanTarget]


def _clean_grid(values: Iterable[float], key: str, positive: bool) -> tuple:
    """The grid ``grids.<key>`` sorted, without repeats; every value must be
    finite and positive, or nonnegative when not ``positive``."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError(f"grids.{key} must be nonempty when given")
    for i, v in enumerate(vals):
        if not math.isfinite(v) or v < 0.0 or (positive and v == 0.0):
            sign = "positive" if positive else "nonnegative"
            raise ValueError(f"grids.{key}[{i}] must be {sign}, got {v}")
    return tuple(sorted(set(vals)))


def _whole(value, what: str, sign: str, least: int) -> int:
    """``value``, any integer but a bool, as an int at least ``least``.

    A bool is an int, but a report would write it as true, which is no
    seed; a numpy integer is held as the int the report writes.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{what} must be a {sign} integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Scenario:
    """One testable unit: space, law, weights, target, and grids.

    Grids left as None are resolved per flow: the t grid defaults to
    :func:`hamconc.verify.default_t_grid` with flow-specific points
    inserted, the lambda grid to ``DEFAULT_LAMBDA_GRID``.  ``seed``
    identifies generated scenarios and keys reproducibility; exact
    verification itself draws no randomness.
    """

    space: FiniteSpace
    dist: Distribution
    alpha: AlphaWeights
    target: Target
    t_grid: tuple[float, ...] | None = None
    lambda_grid: tuple[float, ...] | None = None
    seed: int = 0
    cap: int | None = None

    def __post_init__(self) -> None:
        if self.alpha.n != self.space.n:
            raise ValueError(
                f"alpha has {self.alpha.n} weights, space has {self.space.n} coordinates"
            )
        self.dist.require_matches(self.space)
        if self.t_grid is not None:
            object.__setattr__(self, "t_grid", _clean_grid(self.t_grid, "t", True))
        if self.lambda_grid is not None:
            object.__setattr__(
                self, "lambda_grid", _clean_grid(self.lambda_grid, "lambda", False)
            )
        object.__setattr__(self, "seed", _whole(self.seed, "seed", "nonnegative", 0))
        if self.cap is not None:
            object.__setattr__(self, "cap", _whole(self.cap, "cap", "positive", 1))


def _sha256(a: np.ndarray) -> str:
    """sha256 of ``a + 0`` (so -0.0 hashes as 0.0) in C order, as
    little-endian int64 if ``a`` holds integers, else float64."""
    le = "<i8" if a.dtype.kind == "i" else "<f8"
    return hashlib.sha256((a + 0).astype(le, copy=False).tobytes()).hexdigest()


def _functional_to_dict(f: Functional, scenario: Scenario, table: np.ndarray | None) -> dict:
    """f in the form it was declared in, and ``table_sha256``.

    A weighted sum is written as its coefficients and a distance to a
    set under the scenario's weights as the set; any other functional
    as its table.  ``table_sha256`` is :func:`_sha256` of f's table in
    rank order.  ``table`` is f over the space, when the caller has it;
    without it, f is tabulated here, once the space is within the
    scenario's cap.
    """
    ev = f.evaluator
    if table is None:
        _check_cap(scenario.space, scenario.cap)
        table = _tabulate(ev, scenario.space.alphabet_sizes)
    if isinstance(ev, _WeightedSum):
        d: dict = {"type": "weighted_sum", "coefficients": list(ev.coeffs)}
    elif isinstance(ev, _Table) and ev.source is not None and ev.source[0] == scenario.alpha:
        members = ev.source[1].member_symbols(scenario.space)
        d = {"type": "distance_to_set", "set": {"members": members}}
    else:
        d = {"type": "table", "values": frozen(np.asarray(table, dtype=np.float64).ravel())}
    d["table_sha256"] = _sha256(table)
    return d


def scenario_to_dict(scenario: Scenario, table: np.ndarray | None = None) -> dict:
    """Canonical plain-data form, a scenario file the loader reads back:
    the functional declared as in :func:`_functional_to_dict`, weights
    already normalized, ``params`` on mean targets only, ``grids`` and
    ``caps`` only when set.  A set's members, of a set target or a
    distance to a set, are the :class:`SetSpec`'s own read-only (|A|, n)
    int64 array; a ``table`` functional's ``values`` (f's table in rank
    order, a read-only view when the table is float64), a joint law's
    ``joint_table`` and a product law's ``pmfs``, a list (the
    :class:`Distribution`'s own arrays), are read-only 1-d float64
    arrays.  :func:`~hamconc._util.dumps` writes each as its list, and
    :func:`scenario_from_dict` reads them back.
    ``table`` is the functional's values, the law's, when the caller
    already has them."""
    if scenario.dist.kind == "product":
        dd: dict = {"kind": "product", "pmfs": list(scenario.dist.pmfs)}
    else:
        dd = {"kind": "joint", "joint_table": scenario.dist.joint_table}
    tgt = scenario.target
    if isinstance(tgt, SetTarget):
        td: dict = {"kind": "set", "set": {"members": tgt.set_spec.member_symbols(scenario.space)}}
    else:
        td = {
            "kind": tgt.kind,
            "functional": _functional_to_dict(tgt.functional, scenario, table),
        }
        if tgt.kind == "mean" and tgt.functional.self_bounding_params is not None:
            td["params"] = list(tgt.functional.self_bounding_params)
    sd = {
        "space": {"alphabet_sizes": list(scenario.space.alphabet_sizes)},
        "distribution": dd,
        "alpha": {"weights": list(scenario.alpha.weights), "normalize": False},
        "target": td,
    }
    given = {"t": scenario.t_grid, "lambda": scenario.lambda_grid}
    if grids := {k: list(v) for k, v in given.items() if v is not None}:
        sd["grids"] = grids
    sd["seed"] = scenario.seed
    if scenario.cap is not None:
        sd["caps"] = {"enumeration": scenario.cap}
    return sd


def _fingerprint(scenario: Scenario, sd: dict) -> str:
    """sha256 of ``sd``, the canonical form of ``scenario``, keys sorted,
    with the functional reduced to its ``table_sha256`` (one function
    declared in different forms has one fingerprint), a set's members
    to ``members_sha256``, the :func:`_sha256` of their array, and a
    joint law's table to ``joint_table_sha256``, that of its array."""
    if scenario.dist.kind == "joint":
        joint = {"kind": "joint", "joint_table_sha256": _sha256(scenario.dist.joint_table)}
        sd = {**sd, "distribution": joint}
    tgt = sd["target"]
    if "functional" in tgt:
        tgt = {**tgt, "functional": {"table_sha256": tgt["functional"]["table_sha256"]}}
    else:
        tgt = {**tgt, "set": {"members_sha256": _sha256(tgt["set"]["members"])}}
    canonical = dumps({**sd, "target": tgt}, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def scenario_fingerprint(scenario: Scenario) -> str:
    """Hash of the canonical serialization, each table by its digest;
    stable across runs and machines."""
    return _fingerprint(scenario, scenario_to_dict(scenario))


class ScenarioFileError(ValueError):
    """Malformed scenario file; the message names the offending key."""


# The keys each object may hold, by where it sits in the file and, for the
# objects that come in kinds, by kind.  Median and gap targets allow
# "params" so that _target_from can say it is for mean targets only.
_KEYS = {
    "": {"space", "distribution", "alpha", "target", "grids", "seed", "caps"},
    "space": {"alphabet_sizes"},
    "distribution": {"product": {"kind", "pmfs"}, "joint": {"kind", "joint_table"}},
    "alpha": {"weights", "normalize"},
    "target": {
        "set": {"kind", "set"},
        **dict.fromkeys(("median", "gap", "mean"), {"kind", "functional", "params"}),
    },
    "target.set": {"members"},
    "target.functional": {
        "table": {"type", "values", "table_sha256"},
        "weighted_sum": {"type", "coefficients", "table_sha256"},
        "distance_to_set": {"type", "set", "table_sha256"},
    },
    "target.functional.set": {"members"},
    "grids": {"t", "lambda"},
    "caps": {"enumeration"},
}


def _built(where: str, make: Callable, *args, **kwargs) -> Any:
    """``make(*args, **kwargs)``, a constructor's ValueError raised again as
    a ScenarioFileError that names ``where``, the key it was built from."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise ScenarioFileError(f"{where}: {e}" if where else str(e)) from None


def _require(data: dict, key: str, where: str) -> Any:
    if key not in data:
        full = f"{where}.{key}" if where else key
        raise ScenarioFileError(f"missing key {full}")
    return data[key]


def _as_dict(v: Any, where: str, kind_key: str | None = None) -> dict:
    """v as the object at ``where``, holding only the keys ``_KEYS`` allows
    there; for an object that comes in kinds, named by its ``kind_key``,
    once the kind is one ``_KEYS`` knows, the keys of that kind."""
    if not isinstance(v, dict):
        raise ScenarioFileError(
            f"{where} must be an object" if where else "scenario file must hold a JSON object"
        )
    allowed = _KEYS[where]
    if kind_key is not None:
        kind = _require(v, kind_key, where)
        if not (isinstance(kind, str) and kind in allowed):
            kinds = ", ".join(map(quote, allowed))
            raise ScenarioFileError(f"{where}.{kind_key} must be one of {kinds}, got {kind!r}")
        allowed = allowed[kind]
    unknown = set(v) - allowed
    if unknown:
        raise ScenarioFileError(f"unknown key {f'{where}.{min(unknown)}'.removeprefix('.')!r}")
    return v


def _as_list(v: Any, where: str) -> list:
    if not isinstance(v, list):
        raise ScenarioFileError(f"{where} must be an array")
    return v


def _as_number(v: Any, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioFileError(f"{where} must be a number")
    try:
        return float(v)
    except OverflowError:
        message = f"{where} must be finite, got an integer past float range"
        raise ScenarioFileError(message) from None


def _as_int(v: Any, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioFileError(f"{where} must be an integer")
    return v


def _as_bool(v: Any, where: str) -> bool:
    if not isinstance(v, bool):
        raise ScenarioFileError(f"{where} must be a boolean")
    return v


def _number_array(v: Any, where: str) -> np.ndarray:
    """The list as one float64 array, its types checked in bulk.

    Only when the bulk check fails is the list walked one entry at a
    time, to name the first entry that is not a number or is an integer
    too large for a float.  A 1-d float64 array, as
    :func:`scenario_to_dict` holds a pmf or a table, is taken as it is,
    and any other array as its list.
    """
    if isinstance(v, np.ndarray):
        if v.dtype == np.float64 and v.ndim == 1:
            return v
        v = v.tolist()
    raw = _as_list(v, where)
    if set(map(type, raw)) <= {float, int}:
        try:
            return np.array(raw, dtype=np.float64)
        except OverflowError:
            pass
    return np.array([_as_number(x, f"{where}[{i}]") for i, x in enumerate(raw)], dtype=np.float64)


def _finite_array(v: Any, where: str) -> np.ndarray:
    """:func:`_number_array` with every entry finite; JSON readers accept NaN and Infinity."""
    vals = _number_array(v, where)
    finite = np.isfinite(vals)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ScenarioFileError(f"{where}[{i}] must be finite, got {float(vals[i])}")
    return vals


def _space_from(data: dict) -> FiniteSpace:
    d = _as_dict(_require(data, "space", ""), "space")
    raw = _as_list(_require(d, "alphabet_sizes", "space"), "space.alphabet_sizes")
    sizes = [_as_int(x, f"space.alphabet_sizes[{i}]") for i, x in enumerate(raw)]
    return _built("space.alphabet_sizes", FiniteSpace, tuple(sizes))


def _distribution_from(data: dict, space: FiniteSpace) -> Distribution:
    d = _as_dict(_require(data, "distribution", ""), "distribution", "kind")
    if d["kind"] == "product":
        key, make = "pmfs", Distribution.product
        raw = _as_list(_require(d, key, "distribution"), "distribution.pmfs")
        arg = [_number_array(p, f"distribution.pmfs[{i}]") for i, p in enumerate(raw)]
    else:
        key, make = "joint_table", Distribution.joint
        arg = _number_array(_require(d, key, "distribution"), "distribution.joint_table")
    dist = _built(f"distribution.{key}", make, arg)
    _built(f"distribution.{key}", dist.require_matches, space)
    return dist


def _alpha_from(data: dict) -> AlphaWeights:
    d = _as_dict(_require(data, "alpha", ""), "alpha")
    weights = _number_array(_require(d, "weights", "alpha"), "alpha.weights")
    do_norm = _as_bool(d.get("normalize", False), "alpha.normalize")
    a = _built("alpha.weights", AlphaWeights, weights)
    if do_norm:
        return _built("alpha.weights", normalize, a)
    if not a.normalized:
        raise ScenarioFileError(
            "alpha.weights: theorems require ||α||=1; "
            'set "normalize": true or supply a unit-norm vector'
        )
    return a


def _member_array(raw: Any, n: int) -> np.ndarray | None:
    """``raw`` as int64 rows of n symbols, if it is such an array (as
    :func:`scenario_to_dict` writes the members) or a list of lists of n
    ints each that int64 holds; else None."""
    if isinstance(raw, np.ndarray):
        return raw if raw.dtype == np.int64 and raw.ndim == 2 and raw.shape[1] == n else None
    rows = isinstance(raw, list) and set(map(type, raw)) == {list} and set(map(len, raw)) == {n}
    if rows and set(map(type, itertools.chain.from_iterable(raw))) == {int}:
        try:
            return np.array(raw, dtype=np.int64)
        except OverflowError:
            pass
    return None


def _checked_members(raw: Any, where: str, space: FiniteSpace) -> np.ndarray:
    """The nonempty members as one (|A|, n) int64 array, checked in bulk.

    Only when the bulk check fails are the members, an array as its
    nested list, walked one by one, to name the first offending entry.
    """
    sizes, n = space.alphabet_sizes, space.n
    symbols = _member_array(raw, n)
    if symbols is not None and len(symbols) and ((symbols >= 0) & (symbols < sizes)).all():
        return symbols
    raw = _as_list(raw.tolist() if isinstance(raw, np.ndarray) else raw, f"{where}.members")
    if not raw:
        raise ScenarioFileError(f"{where}.members must be nonempty")
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
    return np.array(raw, dtype=np.int64)  # subclasses of list or int pass the walk


def _set_from(v: Any, where: str, space: FiniteSpace) -> SetSpec:
    sd = _as_dict(v, where)
    return SetSpec(_checked_members(_require(sd, "members", where), where, space))


def _functional_from(
    v: Any,
    where: str,
    space: FiniteSpace,
    alpha: AlphaWeights,
    params: tuple[float, float] | None,
    cap: int | None,
) -> Functional:
    fd = _as_dict(v, where, "type")
    ftype = fd["type"]
    kw: dict = {} if params is None else {"self_bounding_params": params}
    if ftype == "distance_to_set" or "table_sha256" in fd:
        _built(where, _check_cap, space, cap)
    if ftype == "table":
        values = _finite_array(_require(fd, "values", where), f"{where}.values")
        f = _built(f"{where}.values", Functional.from_table, space, values, **kw)
    elif ftype == "weighted_sum":
        coeffs = _finite_array(_require(fd, "coefficients", where), f"{where}.coefficients")
        if len(coeffs) != space.n:
            raise ScenarioFileError(
                f"{where}.coefficients has {len(coeffs)} entries, "
                f"space has {space.n} coordinates"
            )
        f = Functional.weighted_sum(coeffs, **kw)
    else:
        spec = _set_from(_require(fd, "set", where), f"{where}.set", space)
        f = Functional.distance_to(alpha, spec, space, **kw)
    if "table_sha256" in fd:
        digest = _sha256(_tabulate(f.evaluator, space.alphabet_sizes))
        if fd["table_sha256"] != digest:
            raise ScenarioFileError(f"{where}.table_sha256 is not {digest}, the sha256 of f's table")
    return f


def _target_from(data: dict, space: FiniteSpace, alpha: AlphaWeights, cap: int | None) -> Target:
    d = _as_dict(_require(data, "target", ""), "target", "kind")
    kind = d["kind"]
    if kind == "set":
        return SetTarget(_set_from(_require(d, "set", "target"), "target.set", space))
    params = None
    if "params" in d:
        if kind != "mean":
            raise ScenarioFileError('target.params is only valid for "mean" targets')
        params = tuple(_finite_array(d["params"], "target.params").tolist())
        if len(params) != 2:
            raise ScenarioFileError("target.params must be [a, b]")
        if params[0] <= 0.0:
            raise ScenarioFileError(f"target.params[0] (a) must be positive, got {params[0]}")
        if params[1] < 0.0:
            raise ScenarioFileError(f"target.params[1] (b) must be nonnegative, got {params[1]}")
    fd = _require(d, "functional", "target")
    f = _functional_from(fd, "target.functional", space, alpha, params, cap)
    return {"median": MedianTarget, "gap": GapTarget, "mean": MeanTarget}[kind](f)


def scenario_from_dict(data: Any) -> Scenario:
    """Build a Scenario from already-parsed JSON data."""
    _as_dict(data, "")
    space = _space_from(data)
    dist = _distribution_from(data, space)
    alpha = _alpha_from(data)
    if alpha.n != space.n:
        raise ScenarioFileError(
            f"alpha.weights has {alpha.n} entries, space has {space.n} coordinates"
        )
    cap = None
    cd = _as_dict(data.get("caps", {}), "caps")
    if "enumeration" in cd:
        cap = _as_int(cd["enumeration"], "caps.enumeration")
        if cap < 1:
            raise ScenarioFileError(f"caps.enumeration must be positive, got {cap}")
    target = _target_from(data, space, alpha, cap)
    gd = _as_dict(data.get("grids", {}), "grids")
    t_grid, lam_grid = (
        _number_array(gd[k], f"grids.{k}") if k in gd else None for k in ("t", "lambda")
    )
    seed = data.get("seed", 0)
    return _built("", Scenario, space, dist, alpha, target, t_grid, lam_grid, seed, cap)


def load_scenario(path) -> Scenario:
    """Parse one scenario from a JSON file on disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except UnicodeDecodeError as e:
        raise ScenarioFileError(f"{path} is not UTF-8 text: {e}") from None
    except ValueError as e:  # a JSONDecodeError, or an integer of more digits than int() reads
        raise ScenarioFileError(f"invalid JSON in {path}: {e}") from None
    return scenario_from_dict(data)
