"""The plain recursive writers that report bytes are defined by.

``hamconc._util.dumps`` and ``BoundReport.to_json`` / ``to_csv`` take
shortcuts (type dispatch, whole-list joins, a fixed row template); the
tests hold them to these slow, obviously-correct walks byte for byte.
"""

from __future__ import annotations

import json
import math

import numpy as np


def fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    if x == 0.0:
        x = 0.0
    return format(x, ".17g")


def _dump(obj, parts: list[str], sort_keys: bool) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(fmt_float(obj))
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for k, item in enumerate(obj):
            if k:
                parts.append(",")
            _dump(item, parts, sort_keys)
        parts.append("]")
    elif isinstance(obj, np.ndarray) and obj.dtype == np.int64 and obj.ndim == 2:
        _dump(obj.tolist(), parts, sort_keys)  # a set's members
    elif isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim == 1:
        _dump(obj.tolist(), parts, sort_keys)  # a table or a joint law
    elif isinstance(obj, dict):
        parts.append("{")
        keys = sorted(obj) if sort_keys else list(obj)
        for k, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if k:
                parts.append(",")
            parts.append(json.dumps(key))
            parts.append(":")
            _dump(obj[key], parts, sort_keys)
        parts.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, *, sort_keys: bool = False) -> str:
    parts: list[str] = []
    _dump(obj, parts, sort_keys)
    return "".join(parts)


def csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def report_payload(report) -> dict:
    """The report as one plain object, rows built with ``BoundRow.to_dict``."""
    return {
        "fingerprint": report.fingerprint,
        "rng": report.rng,
        "scenario": report.scenario,
        "rows": [r.to_dict() for r in report.rows],
        "summary": report.summary,
        "notes": list(report.notes),
    }
