"""Exact sums, read-only views and deterministic text for reports and the CLI."""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as quote

import numpy as np

__all__ = ["exact_sum", "exact_layers", "frozen", "fmt_float", "fmt_floats", "dumps", "quote"]

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


def frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``."""
    a = a.view()
    a.flags.writeable = False
    return a


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


def fmt_floats(xs) -> str:
    """``",".join(map(fmt_float, xs))`` in one %-fill, ``xs`` a list or dict of numbers.

    "+ 0.0" writes -0.0 as 0.  Only "inf" and "nan" hold an "n": with a
    non-finite entry, the join raises for the first one.
    """
    text = ",".join(["%.17g"] * len(xs)) % tuple([x + 0.0 for x in xs])
    return ",".join(map(fmt_float, xs)) if "n" in text else text


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
            return "[" + fmt_floats(obj) + "]"
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
    if t is np.ndarray and obj.dtype == np.int64 and obj.ndim == 2:
        return _int_rows(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _int_rows(a: np.ndarray) -> str:
    """``repr(a.tolist()).replace(" ", "")`` of a 2-d int64 array, in one pass.

    Each row is a uint8 line of fixed-width fields, one per entry: its
    separator ("[" first in the row, else ","), a minus sign if any entry
    is negative, and as many digit slots as the longest entry has
    digits, right-aligned; the line ends with "]" and ",".  If some slot
    can go unused (a sign, or entries of more than one digit), one
    boolean mask keeps the signs of the negative entries and each
    entry's own digits.  One ``tobytes`` makes the text, less its last ",".
    """
    if not a.size:
        return repr(a.tolist()).replace(" ", "")
    rows, cols = a.shape
    low, high = int(a.min()), int(a.max())
    sign = int(low < 0)
    mag = (np.abs(a) if sign else a).view(np.uint64)  # abs(-2**63) wraps, read as 2**63
    powers = 10 ** np.arange(len(str(max(high, -low))) - 1, -1, -1, dtype=np.uint64)
    field = 1 + sign + powers.size
    text = np.empty((rows, cols * field + 2), dtype=np.uint8)
    cells = text[:, :-2].reshape(rows, cols, field)
    cells[:, :, 0] = ord(",")
    cells[:, 0, 0] = ord("[")
    np.add(mag[:, :, None] // powers % 10, ord("0"), out=cells[:, :, 1 + sign :], casting="unsafe")
    text[:, -2] = ord("]")
    text[:, -1] = ord(",")
    if sign or powers.size > 1:
        keep = np.ones(text.shape, dtype=bool)
        kept = keep[:, :-2].reshape(rows, cols, field)
        if sign:
            cells[:, :, 1] = ord("-")
            kept[:, :, 1] = a < 0
        kept[:, :, 1 + sign : -1] = mag[:, :, None] >= powers[:-1]
        text = text[keep]
    return "[" + text.tobytes()[:-1].decode("ascii") + "]"


def _encode_dict(obj: dict, sort_keys: bool) -> str:
    parts = []
    for key in sorted(obj) if sort_keys else obj:
        if not isinstance(key, str):
            raise TypeError(f"JSON object keys must be strings, got {key!r}")
        parts.append(quote(key) + ":" + _encode(obj[key], sort_keys))
    return "{" + ",".join(parts) + "}"


def dumps(obj, *, sort_keys: bool = False) -> str:
    """JSON text with floats written via :func:`fmt_float`.

    A 2-d int64 ndarray (a set's members) is written as its nested list
    of ints; any other ndarray raises TypeError.  Compact separators,
    keys in insertion order unless ``sort_keys``, strings ASCII-escaped
    as :func:`json.dumps` escapes them.  Byte-stable: the same object
    graph always yields the same string, which is what report
    fingerprints and reproducibility tests rely on.
    """
    return _encode(obj, sort_keys)
