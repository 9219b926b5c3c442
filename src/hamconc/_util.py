"""Exact sums, read-only views and deterministic text for reports and the CLI."""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as quote

import numpy as np

__all__ = ["exact_sum", "exact_layers", "frozen", "fmt_float", "fmt_floats", "dumps", "quote"]

# Below this many terms math.fsum of a list is faster than the layered split.
_FSUM_BELOW = 512
# Float arrays of at least this many entries are written by the vectorized
# kernel (_float_text); below it the one %-fill of fmt_floats is faster
# (2 vCPU, numpy 2.4.6: 78 against 60 us at 128 entries, 112 against 120 at
# 256, 120 against 248 at 512).
_VECTOR_FROM = 256
# The kernel's block: its scratch, about 250 bytes an entry, stays near 4 MB.
_BLOCK = 1 << 14

# _TRIPLES[c + 1000 * k] is the 3-digit text of c, 0 <= c < 1000, and a pad
# byte (0), as one uint32: k = 0 all three digits, 1 its trailing zeros as
# pad, 2 its leading zeros as pad but the last digit kept, 3 all pad.
_c = np.arange(1000)
_text = np.zeros((4, 1000, 4), dtype=np.uint8)
for _j, _place in enumerate((100, 10, 1)):
    _text[:3, :, _j] = _c // _place % 10 + ord("0")
    _text[1, :, _j] *= _c % (1000 // 10**_j) != 0  # pad a zero that only zeros follow
    _text[2, :, _j] *= (_c >= _place) | (_place == 1)  # pad a leading zero, not the last
_TRIPLES = _text.view(np.uint32).ravel()
del _c, _j, _place, _text

# Exact powers of ten 10**k, k <= 22, split in two halves of 26 bits each.
_TENS = np.array([float(10**k) for k in range(23)])
_SPLITTER = 134217729.0  # 2**27 + 1


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``a == hi + lo`` exactly, each half of 26 bits."""
    t = a * _SPLITTER
    hi = t - (t - a)
    return hi, a - hi


_TENS_HI, _TENS_LO = _halves(_TENS)


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


# The byte of digit j of a 17-digit D in the (n, 24) text of its six
# triples, "0dd" first; a triple's fourth byte is pad.
_COL = [1, 2] + [4 * ((j + 1) // 3) + (j + 1) % 3 for j in range(2, 17)]
# The digit bytes of an integer part, "0" where a stripped zero was.
_ZEROS = np.zeros(24, dtype=np.uint8)
_ZEROS[_COL] = ord("0")
# Field width in the kernel's buffer: a sign, "0.000" and 24 bytes of
# digits (or 24 bytes, a point and "e-06"), the comma and a pad byte, so
# that a field is four uint64 words.
_FIELD = 32
# The exponent that sorts the entries outside the kernel's range last.
_OTHER = 64


def _ten_product(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**(16 - e)`` as ``hi + lo`` exactly: Dekker's product."""
    k = 16 - e
    hi = a * _TENS[k]
    a_hi, a_lo = _halves(a)
    t_hi, t_lo = _TENS_HI[k], _TENS_LO[k]
    lo = a_hi * t_hi
    lo -= hi
    lo += a_hi * t_lo
    lo += a_lo * t_hi
    a_lo *= t_lo
    lo += a_lo
    return hi, lo


def _float_text(x: np.ndarray) -> str:
    """``fmt_floats(x.tolist())`` of a finite 1-d float64 array, vectorized.

    An entry with ``2e-6 <= |x| < 1e15`` has a decimal exponent e in
    [-6, 14], so ``10**(16 - e)`` is an exact double (16 - e <= 22) and
    Dekker's product gives ``|x| * 10**(16 - e)`` exactly as ``hi + lo``.
    Once e, first ``floor(log10|x|)``, is corrected by exact comparisons
    with 1e16 and 1e17, the product lies in [1e16, 1e17): ``hi`` is an
    even integer and ``D = hi + rint(lo)`` is the 17 significant digits,
    rounded half-even as CPython's ``'%.17g'`` rounds.  D never rounds up
    to 10**17 in this range (the largest double below each power of ten
    from 1e-5 to 1e15 has 17 digits below it), so e needs no carry.  D is
    split at 10**9 into two halves exact in float64, and each half into
    three triples, written through ``_TRIPLES``; a triple that only zero
    triples follow drops its trailing zeros.  The entries, sorted by e,
    are laid out one exponent group at a time in one uint8 buffer of
    fixed-width fields padded with 0 bytes ("ddd.ddd", "0.000ddd" or
    "d.ddde-06", as ``'%.17g'`` chooses) and put back in their order;
    ``bytes.translate`` drops the pad.  The other entries (zeros, and the
    rest out of range) take ``'%.17g'``.
    """
    size = x.size
    a = np.abs(x)
    fast = (a >= 2e-6) & (a < 1e15)
    n = int(np.count_nonzero(fast))
    if n < size:
        a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int8)
    if n < size:
        e[~fast] = _OTHER
    order = np.argsort(e, kind="stable")
    x, a, e = x[order], a[order[:n]], e[order[:n]].astype(np.intp)
    hi, lo = _ten_product(a, e)
    if ((hi < 1e16) | (hi >= 1e17)).any():
        e = e - ((hi < 1e16) | ((hi == 1e16) & (lo < 0)))
        e = e + ((hi > 1e17) | ((hi == 1e17) & (lo >= 0)))
        hi, lo = _ten_product(a, e)
    # D = high * 10**9 + low, both exact.
    halves = np.empty((n, 2))
    high, low = halves.T
    np.floor(hi / 1e9, out=high)
    np.add(hi - high * 1e9, np.rint(lo), out=low)
    borrow = np.floor(low / 1e9)
    high += borrow
    low -= borrow * 1e9
    # The triples of each half, then their text: a triple takes its
    # form without trailing zeros when the triples after it are zero.
    thousands = np.floor(halves / 1000)
    triples = np.empty((n, 2, 3))
    np.floor(thousands / 1000, out=triples[:, :, 0])
    np.subtract(thousands, triples[:, :, 0] * 1000, out=triples[:, :, 1])
    np.subtract(halves, thousands * 1000, out=triples[:, :, 2])
    zero = (triples == 0).reshape(n, 6)
    last = np.empty((n, 6), dtype=bool)
    last[:, 5] = True
    last[:, 4] = zero[:, 5]
    np.logical_and(last[:, 4], zero[:, 4], out=last[:, 3])
    np.equal(low, 0, out=last[:, 2])
    np.logical_and(last[:, 2], zero[:, 2], out=last[:, 1])
    np.logical_and(last[:, 1], zero[:, 1], out=last[:, 0])
    triples += last.reshape(n, 2, 3) * 1000.0
    digits = _TRIPLES[triples.astype(np.intp)].view(np.uint8).reshape(n, 24)
    digits[:, 0] = 0
    text = np.zeros((size, _FIELD), dtype=np.uint8)
    text[:, 0] = (x < 0) * np.uint8(ord("-"))
    text[:, -1] = ord(",")
    if n < size:
        other = "".join([("%.17g" % v).ljust(_FIELD - 1, "\0") for v in (x[n:] + 0.0).tolist()])
        text[n:, :-1] = np.frombuffer(other.encode("ascii"), dtype=np.uint8).reshape(-1, _FIELD - 1)
    cuts = [0, *(np.flatnonzero(e[1:] != e[:-1]) + 1).tolist(), n] if n else []
    for lo_row, hi_row in zip(cuts[:-1], cuts[1:]):
        g = int(e[lo_row])
        field, d = text[lo_row:hi_row], digits[lo_row:hi_row]
        if g >= 0:  # digits 0..g, a point if a digit is kept after it, the rest
            p = _COL[g] + 1
            field[:, 2] = d[:, 1]
            if g:  # a stripped zero of the integer part is written back
                np.maximum(d[:, 2:p], _ZEROS[2:p], out=field[:, 3 : p + 1])
            field[:, p + 1] = (d[:, _COL[g + 1]] != 0) * np.uint8(ord("."))
            field[:, p + 2 : 26] = d[:, p:]
        elif g >= -4:  # "0." and -g - 1 zeros, then the digits
            lead = 1 - g
            field[:, 1] = ord("0")
            field[:, 2] = ord(".")
            field[:, 3 : 1 + lead] = ord("0")
            field[:, 1 + lead : 25 + lead] = d
        else:  # digit 0, a point if a digit is kept after it, the rest, "e-0N"
            field[:, 1:3] = d[:, :2]
            field[:, 3] = (d[:, 2] != 0) * np.uint8(ord("."))
            field[:, 4:26] = d[:, 2:]
            field[:, 26:30] = np.frombuffer(b"e-%02d" % -g, dtype=np.uint8)
    rank = np.empty_like(order)
    rank[order] = np.arange(size)
    text = np.take(text.view(np.uint64), rank, axis=0)  # back in the entries' order
    return text.tobytes().translate(None, b"\0")[:-1].decode("ascii")


def _float_row(a: np.ndarray) -> str:
    """``"[" + fmt_floats(a.tolist()) + "]"`` of a 1-d float64 array.

    From ``_VECTOR_FROM`` entries on, block by block through
    :func:`_float_text`; a block with a non-finite entry goes to
    :func:`fmt_floats`, which raises for the first one.
    """
    if a.size < _VECTOR_FROM:
        return "[" + fmt_floats(a.tolist()) + "]"
    parts = []
    for start in range(0, a.size, _BLOCK):
        block = a[start : start + _BLOCK]
        parts.append(_float_text(block) if np.isfinite(block).all() else fmt_floats(block.tolist()))
    return "[" + ",".join(parts) + "]"


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
    if t is np.ndarray and obj.dtype == np.float64 and obj.ndim == 1:
        return _float_row(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _int_rows(a: np.ndarray) -> str:
    """``repr(a.tolist()).replace(" ", "")`` of a 2-d int64 array, in one pass.

    Each row is a uint8 line of fixed-width fields, one per entry: its
    separator ("[" first in the row, else ","), a minus sign if any entry
    is negative, and the triples of the magnitude through ``_TRIPLES``,
    as many as the longest entry needs, less the digit slots no entry
    fills; the line ends with "]" and ",".  An entry's leading triple
    drops its leading zeros and the zero triples before it are all pad,
    so only its own digits are left (0 keeps one).  Pad bytes (and a
    plus sign's slot) are dropped by ``bytes.translate``.  Entries
    below 1000 need one table lookup and no division.
    """
    if not a.size:
        return repr(a.tolist()).replace(" ", "")
    rows, cols = a.shape
    low, high = int(a.min()), int(a.max())
    sign = int(low < 0)
    mag = (np.abs(a) if sign else a).view(np.uint64)  # abs(-2**63) wraps, read as 2**63
    width = len(str(max(high, -low)))  # digits of the widest entry
    count = -(-width // 3)  # triples of the widest entry
    index = np.empty((rows, cols, count), dtype=np.intp)
    rest = mag
    for j in range(count - 1, 0, -1):
        rest, index[:, :, j] = np.divmod(rest, np.uint64(1000))
    index[:, :, 0] = rest
    # Triple j (the most significant first) of an entry below 1000**(count - j)
    # is its leading triple or a zero one before it: it drops its leading
    # zeros (2000 on), and a zero one before the leading triple all its
    # digits (3000 on).  The last triple keeps its last digit, so 0 is "0".
    index[:, :, 0] += 2000
    for j in range(1, count):
        before = mag < 1000 ** (count - j)
        index[:, :, j] += before * 2000
        index[:, :, j - 1] += before * 1000
    digits = _TRIPLES[index].view(np.uint8).reshape(rows, cols, 4 * count)
    skip = 3 * count - width  # digit slots no entry fills
    field = 1 + sign + 4 * count - 1 - skip
    text = np.empty((rows, cols * field + 2), dtype=np.uint8)
    cells = text[:, :-2].reshape(rows, cols, field)
    cells[:, :, 0] = ord(",")
    cells[:, 0, 0] = ord("[")
    if sign:
        cells[:, :, 1] = (a < 0) * np.uint8(ord("-"))
    cells[:, :, 1 + sign :] = digits[:, :, skip:-1]
    text[:, -2] = ord("]")
    text[:, -1] = ord(",")
    body = text.tobytes()[:-1]
    if sign or width > 1:
        body = body.translate(None, b"\0")
    return "[" + body.decode("ascii") + "]"


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
