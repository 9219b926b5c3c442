"""Exact sums, and deterministic text formatting shared by reports and the CLI."""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as quote

import numpy as np

__all__ = ["exact_sum", "exact_layers", "fmt_float", "dumps", "quote", "Raw"]

# Below this many terms math.fsum of a list is faster than the layered split.
_FSUM_BELOW = 512


def exact_layers(x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Split a 1-d float64 array into layers whose sums are exact.

    Rump's ExtractScalar (Rump, Ogita and Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 31(1), 2008): for a power
    of two ``s >= 2**M * max|r|`` with ``2**M >= N + 2``, ``q = (r + s) - s``
    and ``r - q`` are both exact, every ``q`` is a multiple of ``s * 2**-53``
    and ``sum |q| < s``.  So any sum of entries of one layer ``q``, in any
    order (``np.sum``, ``np.cumsum``, differences of two cumsums), is
    exact.  The layers are peeled off until the residual is zero, and
    ``x`` equals their elementwise sum exactly.

    Returns the layers and, if ``s`` would overflow (entries within a
    factor ``2**M`` of the largest double, or non-finite), the residual
    left unsplit; it is ``None`` otherwise.
    """
    m = (x.size + 1).bit_length()
    layers: list[np.ndarray] = []
    r = x
    hi = float(np.abs(r).max()) if r.size else 0.0
    while hi != 0.0:
        if not math.isfinite(hi):
            return layers, r
        e = math.frexp(hi)[1] + m
        if e > 1023:
            return layers, r
        s = math.ldexp(1.0, e)
        q = (r + s) - s
        layers.append(q)
        r = r - q
        hi = float(np.abs(r).max())
    return layers, None


def exact_sum(x) -> float:
    """The correctly rounded sum of a float64 array: ``math.fsum(x.tolist())``.

    Large arrays go through :func:`exact_layers`: each layer sums exactly
    with ``np.sum``, and ``fsum`` of the layer totals (plus any unsplit
    residual) rounds the same real number once, so the result is
    bit-identical to ``fsum`` of the whole array by construction.  Small
    arrays call ``fsum`` directly, which is faster there.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size < _FSUM_BELOW:
        return math.fsum(x.tolist())
    layers, rest = exact_layers(x)
    parts = [float(q.sum()) for q in layers]
    if rest is not None:
        parts += rest.tolist()
    return math.fsum(parts)


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


class Raw(str):
    """JSON text that :func:`dumps` writes as it is, already encoded."""


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
    # Raw text, bool, None, and subclasses or numpy scalars of the types above.
    if t is Raw:
        return obj
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
