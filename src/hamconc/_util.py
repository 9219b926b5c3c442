"""Deterministic text formatting shared by reports and the CLI."""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as quote

__all__ = ["fmt_float", "dumps", "quote"]


def fmt_float(x: float) -> str:
    """Format a float with 17 significant digits (round-trip exact).

    Negative zero is normalized to "0" so that equal values always
    produce equal strings.
    """
    if type(x) is not float:
        x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(x, ".17g") if x else "0"


def _encode(obj, sort_keys: bool) -> str:
    t = type(obj)
    if t is float:
        return fmt_float(obj)
    if t is str:
        return quote(obj)
    if t is list or t is tuple:
        # Tables, pmfs, grids and member lists hold one scalar type.
        kinds = set(map(type, obj))
        if kinds <= {float}:
            return "[" + ",".join(map(fmt_float, obj)) + "]"
        if kinds == {int}:
            return "[" + ",".join(map(str, obj)) + "]"
        return "[" + ",".join([_encode(item, sort_keys) for item in obj]) + "]"
    if t is dict:
        return _encode_dict(obj, sort_keys)
    if t is int:
        return str(obj)
    # bool, None, and subclasses or numpy scalars of the types above.
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return quote(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join([_encode(item, sort_keys) for item in obj]) + "]"
    if isinstance(obj, dict):
        return _encode_dict(obj, sort_keys)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _encode_dict(obj: dict, sort_keys: bool) -> str:
    parts = []
    for key in sorted(obj) if sort_keys else obj:
        if not isinstance(key, str):
            raise TypeError(f"JSON object keys must be strings, got {key!r}")
        parts.append(quote(key) + ":" + _encode(obj[key], sort_keys))
    return "{" + ",".join(parts) + "}"


def dumps(obj, *, sort_keys: bool = False) -> str:
    """JSON text with floats written via :func:`fmt_float`.

    Compact separators, keys in insertion order unless ``sort_keys``,
    strings ASCII-escaped as :func:`json.dumps` escapes them.  Byte-stable:
    the same object graph always yields the same string, which is what
    report fingerprints and reproducibility tests rely on.
    """
    return _encode(obj, sort_keys)
