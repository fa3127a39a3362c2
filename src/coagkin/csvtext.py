"""CSV text of blocks of doubles, byte for byte the text of ``%.17g``.

``format_block`` writes every value as ``output.fmt`` (``%.17g``) does,
but a block of values at a time: it finds the 17 correctly rounded
digits of each value with numpy arithmetic and lays them out by the
``g`` rules. For a finite nonzero |x| with decimal exponent
e = floor(log10 |x|) it forms y = |x| * 10**(16 - e) in [1e16, 1e17) and
rounds y to the nearest integer D, the digits; where log10 rounded across
a power of ten, y falls outside that range and e moves by one. The factor
10**(16 - e) comes from a table of double-doubles within 1.2e-31 of it
(relative), and the product with it is exact up to two roundings of
terms below 2**-53 (Dekker's two-product), so the computed y is within
2e-14 of the true one. A value whose computed fraction of y lies within
``_TIE_MARGIN`` = 1e-7 of 1/2 is at or near a rounding tie, where that
error could flip D (an exact tie such as 2**-25 rounds half-even); it
goes through ``fmt`` itself, as do NaN, the infinities and any value
whose e is still unsettled after one move. Every other value rounds to
the same D as the exact product, so its text is the text of ``fmt``.

Each cell's text is laid out in four 64-bit words whose bytes are read
in little-endian order (byte i is bits 8i..8i+7 of word i // 8), which
needs a little-endian host such as x86-64 or arm64. The formatter makes
no matrix product or other BLAS call: one would wake numpy's OpenBLAS
worker thread, whose spinning is counted in the run's CPU time (see
``system._quadratic_forms``).
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .output import fmt

_TIE_MARGIN = 1e-7  # distance of y's fraction from 1/2 below which a value goes through fmt
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into two 26-bit halves
_P_MIN, _P_MAX = -293, 341  # the scalings 10**(16 - e) a finite nonzero double needs
_E_MIN, _E_MAX = -325, 309  # the decimal exponents e laid out; exact-path cells take e = 0
_E_COUNT = _E_MAX - _E_MIN + 1
_U = np.uint64


def _two_prod(a, b):
    """a * b as p + err exactly (Dekker), for doubles or arrays of them."""
    p = a * b
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_mul(h1, l1, h2, l2):
    """(h1 + l1) * (h2 + l2) as a double-double (h, l), |l| <= ulp(h) / 2."""
    p, e = _two_prod(h1, h2)
    e = e + (h1 * l2 + l1 * h2)
    h = p + e
    return h, e - (h - p)


def _chain(step, count: int) -> list[tuple[float, float, int]]:
    """step**1..step**count of a double-double, each as (h, l, b): (h + l) * 2**b, h in [0.5, 1)."""
    h, l, b, out = 0.5, 0.0, 1, []
    for _ in range(count):
        h, l = _dd_mul(h, l, *step)
        f, k = math.frexp(h)
        h, l, b = f, math.ldexp(l, -k), b + k
        out.append((h, l, b))
    return out


def _pow10() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """10**p for p = _P_MIN.._P_MAX as (h + l) * 2**b, h in [0.5, 1), within 1.2e-31.

    Each is 10**(23 a) times an exact double 10**c, 0 <= c < 23, in one
    array product. 10**(23 a) comes from a scalar chain of products by
    10**23 (1e22 * 10 exactly) or by its reciprocal (one Newton step).
    """
    ten23 = _two_prod(1e22, 10.0)
    r = 1.0 / ten23[0]
    ph, pl = _two_prod(ten23[0], r)
    c = r * (((1.0 - ph) - pl) - ten23[1] * r)
    low, high = _P_MIN // 23, _P_MAX // 23
    coarse = _chain((r + c, c - ((r + c) - r)), -low)[::-1] + [(0.5, 0.0, 1)] + _chain(ten23, high)
    ch, cl, cb = (np.array(v) for v in zip(*coarse))
    h, l = _dd_mul(ch[:, None], cl[:, None], np.cumprod(np.full(23, 10.0)) / 10.0, 0.0)
    f, k = np.frexp(h)
    keep = slice(_P_MIN - 23 * low, _P_MAX - 23 * low + 1)
    return f.ravel()[keep], (l * (f / h)).ravel()[keep], (cb[:, None] + k).ravel()[keep]  # f / h = 2**-k


class _Tables:
    """Everything ``format_block`` looks up, built with numpy on first use."""

    def __init__(self):
        h, self.lo, self.exp2 = _pow10()
        c = _SPLIT * h
        self.hi, self.hi_head = h, c - (c - h)
        self.hi_tail = h - self.hi_head
        self.pow2 = np.cumprod(np.full(64, 2.0)) / 2.0  # 2**(binary exponent of y), which is 50..62
        # the four digit characters of 0..9999 as one word each, and how many
        # remain once the trailing zeros are cut (-99 for 0, which never counts)
        chars = np.empty((10, 10, 10, 10, 4), np.uint8)
        d = np.arange(48, 58, dtype=np.uint8)
        chars[..., 0] = d[:, None, None, None]
        chars[..., 1] = d[:, None, None]
        chars[..., 2] = d[:, None]
        chars[..., 3] = d
        self.group_chars = chars.view(np.uint32).ravel()
        kept = np.full((10,) * 4, 4)
        kept[..., 0] = 3
        kept[..., 0, 0] = 2
        kept[:, 0, 0, 0] = 1
        kept[0, 0, 0, 0] = -99
        self.group_len = kept.ravel()
        # layout by e: fixed notation for -4 <= e < 17, else exponent notation
        e = np.arange(_E_MIN, _E_MAX + 1)
        fixed = (e >= -4) & (e < 17)
        small, whole = slice(-4 - _E_MIN, -_E_MIN), slice(-_E_MIN, 17 - _E_MIN)  # e = -4..-1, 0..16
        self.point = np.ones(_E_COUNT, np.intp)  # digits before the point; 17: none
        self.point[small] = 17
        self.point[whole] = np.arange(1, 18)
        self.int_len = np.ones(_E_COUNT, np.intp)  # digits kept whatever the trailing zeros
        self.int_len[whole] = np.arange(1, 18)
        # sign and lead: "0." and -e-1 zeros before the digits of e = -4..-1
        lead = np.zeros(_E_COUNT, _U)
        lead[small] = np.frombuffer(b"0.000\0\0\0" b"0.00\0\0\0\0" b"0.0\0\0\0\0\0" b"0.\0\0\0\0\0\0", _U)
        lead_len = np.zeros(_E_COUNT, np.intp)
        lead_len[small] = (5, 4, 3, 2)
        self.pre = np.concatenate((lead, (lead << _U(8)) | _U(45)))
        self.pre_len = np.concatenate((lead_len, lead_len + 1))
        # exponent: "e", its sign and two or three digits, then the separator
        three = (e >= 100) | (e <= -100)
        shift = np.where(three, 8, 16).astype(_U)  # keep the last three or two of four digits
        exp_digits = np.take(self.group_chars, np.where(e < 0, -e, e)).astype(_U) >> shift
        word = np.where(fixed, _U(0), _U(101) | np.where(e < 0, _U(45), _U(43)) << _U(8) | exp_digits << _U(16))
        sep = np.where(fixed, 0, 4 + three).astype(_U) * _U(8)  # its bit position
        self.suffix = np.concatenate((word | _U(44) << sep, word | _U(10) << sep))  # ',' then '\n' rows
        # row n of four words: its low n bytes all ones; its byte n a '.' (bytes of 1, times 255 or 46)
        self.mask = (np.arange(32) < np.arange(33)[:, None]).astype(np.uint8).view(_U) * _U(255)
        self.dot = np.eye(32, dtype=np.uint8).view(_U) * _U(46)
        self.zero = np.array([b"0,", b"0\n", b"-0,", b"-0\n"], "S8").view(_U)


_tables = functools.cache(_Tables)


def _scaled(a: np.ndarray, e: np.ndarray, tab: _Tables):
    """floor(y), y rounded, and |frac(y) - 1/2| for y = a * 10**(16 - e)."""
    m, b = np.frexp(a)  # a = m * 2**b exactly
    i = 16 - e - _P_MIN
    b += tab.exp2.take(i)
    scale = tab.pow2.take(b)
    mh = _SPLIT * m
    mh -= mh - m
    ml = m - mh
    h = tab.hi.take(i)
    y = m * h
    y_lo = mh * tab.hi_head.take(i)
    y_lo -= y
    y_lo += mh * tab.hi_tail.take(i)
    y_lo += ml * tab.hi_head.take(i)
    y_lo += ml * tab.hi_tail.take(i)  # m * h = y + y_lo exactly
    y_lo += m * tab.lo.take(i)
    y_lo *= scale
    y *= scale  # an integer above 2**53
    f = np.floor(y_lo)
    y_lo -= f
    y = y.astype(np.int64) + f.astype(np.int64)
    return y, y + (y_lo > 0.5), np.abs(y_lo - 0.5)


def _decimal(a: np.ndarray, tab: _Tables):
    """Decimal exponent e and 17 rounded digits D of each finite a > 0: a ~ D * 10**(e - 16).

    Also where the rounding is too close to call, or e could not be
    settled; there e = 0 and D = 10**16, and the value takes ``fmt``.
    """
    e = np.floor(np.log10(a)).astype(np.intp)
    y, d, margin = _scaled(a, e, tab)
    off = (y < 10**16) | (y >= 10**17)
    if off.any():  # log10 rounded across a power of ten
        i = np.flatnonzero(off)
        e[i] += np.where(y[i] < 10**16, -1, 1)
        y[i], d[i], margin[i] = _scaled(a[i], e[i], tab)
        off = (y < 10**16) | (y >= 10**17)
    carry = d == 10**17  # rounded up to the next power of ten
    d[carry] = 10**16
    e[carry] += 1
    exact = off | (margin < _TIE_MARGIN)
    e[exact] = 0
    d[exact] = 10**16
    return e, d, exact


def _text(a: np.ndarray, key: np.ndarray, tab: _Tables) -> tuple[np.ndarray, np.ndarray]:
    """Each a > 0 as text and separator, left-justified in four zero-padded words (32 bytes).

    The text is the sign and any "0.000" lead, the digits with the point
    after ``point`` of them and trailing zeros cut, then any exponent.
    ``key`` is 2 for a negative value plus 1 for the last of a row; ``a``
    is overwritten. Also returns where the text must come from ``fmt``
    instead: NaN, the infinities and the values ``_decimal`` cannot settle.
    Each scratch array goes as soon as it is used, since a block's peak
    scratch adds to the run's peak memory.
    """
    fallback = ~np.isfinite(a)
    a[fallback] = 1.0
    e, d, exact = _decimal(a, tab)
    exact |= fallback
    del a, fallback
    n = d.size
    first = d // 10**16
    d -= first * 10**16
    high = d // 10**8
    d -= high * 10**8
    groups = np.empty((n, 4), np.int64)  # digits 2-5, 6-9, 10-13, 14-17
    groups[:, 0] = high // 10**4
    groups[:, 1] = high - groups[:, 0] * 10**4
    groups[:, 2] = d // 10**4
    groups[:, 3] = d - groups[:, 2] * 10**4
    del d, high
    chars = tab.group_chars.take(groups).view(_U)  # digits 2-9 and 10-17
    digits = np.ones(n, np.intp)  # significant digits: up to the last nonzero one
    for k in range(4):
        np.maximum(digits, tab.group_len.take(groups[:, k]) + (1 + 4 * k), out=digits)
    del groups
    e -= _E_MIN
    neg = key >= 2
    pi = e + neg * _E_COUNT  # the table rows of negative values follow
    lead = tab.pre_len.take(pi)
    s = (8 * lead).astype(_U)
    text = np.zeros((n, 4), _U)
    text[:, 0] = tab.pre.take(pi) | ((first + 48).astype(_U) << s) | (chars[:, 0] << (s + _U(8)))
    text[:, 1] = (chars[:, 0] >> (_U(56) - s)) | (chars[:, 1] << (s + _U(8)))
    text[:, 2] = chars[:, 1] >> (_U(56) - s)
    del first, chars, pi, s
    # the point goes in at byte lead + point, and the bytes from there move up one
    point = tab.point.take(e)
    at = lead + point
    end = lead + np.where(digits > point, digits + 1, np.maximum(digits, tab.int_len.take(e)))
    del lead, point, digits
    low = tab.mask.take(at, axis=0)
    low &= text  # the bytes before the point
    text ^= low  # the bytes from the point on, within bytes 0-22
    for k in (2, 1):
        low[:, k] |= (text[:, k] << _U(8)) | (text[:, k - 1] >> _U(56))
    low[:, 0] |= text[:, 0] << _U(8)
    low |= tab.dot.take(at, axis=0, out=text, mode="clip")  # "clip" takes unbuffered; at is in range
    text = low
    del low
    # cut the trailing zeros; the exponent and separator follow from byte `end`
    text &= tab.mask.take(end, axis=0)
    suffix = tab.suffix.take(e + (key - 2 * neg) * _E_COUNT)  # the rows ending in "\n" follow
    word = end // 8
    shift = (8 * (end - 8 * word)).astype(_U)
    i = 4 * np.arange(n) + word
    flat = text.ravel()
    flat[i] |= suffix << shift
    flat[i + 1] |= suffix >> (_U(64) - shift)  # numpy shifts by 64 or more give 0
    return text, exact


def format_block(values: np.ndarray) -> bytes:
    """CSV text of a 2-D block: each row's ``fmt`` of its values joined by ",", ended by a newline."""
    tab = _tables()
    x = values.ravel()
    key = np.signbit(x) * 2  # 2 * negative + last in its row
    key.reshape(values.shape)[:, -1] += 1
    j = np.flatnonzero(x)
    cells, exact = _text(np.abs(x[j]), key[j], tab)
    slow = j[exact]
    if j.size < x.size:  # the text of +-0 is a table word
        full = np.zeros((x.size, 4), _U)
        full[:, 0] = tab.zero.take(key)
        full[j] = cells
        cells = full
    for i in slow.tolist():
        text = (fmt(x[i]) + ",\n"[key[i] & 1]).encode()
        cells[i] = np.frombuffer(text.ljust(32, b"\0"), _U)
    return cells.tobytes().translate(None, b"\0")  # the cells one after another, without their zero padding
