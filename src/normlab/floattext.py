"""float.__repr__ of a whole array of doubles at once.

`reprs(values)` gives, for each double of a float64 array, the text
`float.__repr__` gives it, byte for byte, from numpy integer arithmetic.  The
digits of a normal double come from Schubfach (R. Giulietti, "The Schubfach
way to render doubles", 2020): of the decimals that read back as the double,
the shortest, and of those the closest, a tie going to the even digit, which
is what Python's shortest-mode dtoa picks.  They are then laid out as Python
lays them out.  Every step is exact integer arithmetic, so the text does not
depend on which SIMD loops numpy dispatches to.  Zeros, subnormals, infinities
and NaN go through `float.__repr__` itself: for the smallest subnormals
Schubfach keeps a second digit (4.9e-324) where Python prints one (5e-324).
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

_K_MIN, _K_MAX = -324, 292  # the decimal exponents k Schubfach scales a normal double by
_DIGITS = 17  # a double's shortest decimal has at most 17 digits
_ALIGNED = 18  # f has 16 or 17 digits, laid out left-aligned in 18 with trailing zeros
_WIDTH = 24  # the longest repr: "-" + 17 digits + "." + "e-308"
# rows of a double's column of `_source`'s table: the digits of f
# left-aligned, then the three digits of its exponent, the exponent's sign and
# the constant chars
_EXP, _EXP_SIGN, _ZERO, _DOT, _MINUS, _E, _PAD = 18, 21, 22, 23, 24, 25, 26
_CONSTANTS = np.frombuffer(b"0.-e\0", np.uint8)
# layout classes: a positional repr per decimal point position -3..16, then
# an exponent of two digits or of three
_CLASSES = 22
_PLACES = np.arange(1, _ALIGNED + 1, dtype=np.uint8)[:, None]
_M32, _M63 = np.uint64(2**32 - 1), np.uint64(2**63 - 1)


def _layout(neg: bool, digits: int, cls: int) -> list[int]:
    """The source rows of one layout class's repr, as Python's 'r' format
    lays out `digits` digits: positional when the decimal point falls at
    position -3..16 of the digits, else d.ddde±XX with at least two exponent
    digits; an integral value ends in ".0"."""
    d = list(range(digits))
    if cls < 20:
        point = cls - 3
        if point <= 0:
            body = [_ZERO, _DOT] + [_ZERO] * -point + d
        elif point < digits:
            body = d[:point] + [_DOT] + d[point:]
        else:
            body = d + [_ZERO] * (point - digits) + [_DOT, _ZERO]
    else:
        body = d[:1] + ([_DOT] + d[1:] if digits > 1 else []) + [_E, _EXP_SIGN]
        body += [_EXP, _EXP + 1, _EXP + 2] if cls == 21 else [_EXP + 1, _EXP + 2]
    body = [_MINUS] * neg + body
    return body + [_PAD] * (_WIDTH - len(body))


class _Tables(NamedTuple):
    g1: np.ndarray
    g0: np.ndarray
    p: np.ndarray
    templates: np.ndarray
    quads: np.ndarray


@functools.cache
def _tables() -> _Tables:
    """Schubfach's g table and the layout tables, built on first use so
    that a process that never prints a large block never pays for them.

    For each k of _K_MIN.._K_MAX write 10^-k = beta 2^r with 2^125 <= beta <
    2^126; then g = floor(beta) + 1, split into its high and low 63 bits, and
    p = r + 125 = floor(log2(10^-k)).  The templates hold the source rows of
    each (sign, digit count, layout class), one row per char of a repr, and
    quads the four ASCII digits of each number below 10^4, one per row."""
    g1, g0, p = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            power = 10**-k
            r = power.bit_length() - 126
            g = (power >> r if r >= 0 else power << -r) + 1
        else:
            power = 10**k
            r = -125 - power.bit_length()
            g = (1 << -r) // power + 1
        g1.append(g >> 63)
        g0.append(g & (2**63 - 1))
        p.append(r + 125)
    templates = np.empty((2 * _DIGITS * _CLASSES, _WIDTH), np.uint8)
    for row, (neg, digits, cls) in enumerate(itertools.product((0, 1), range(1, _DIGITS + 1), range(_CLASSES))):
        templates[row] = _layout(neg, digits, cls)
    ascii_digits = np.frombuffer(b"0123456789", np.uint8)
    quads = np.stack(np.meshgrid(*[ascii_digits] * 4, indexing="ij")).reshape(4, -1)
    return _Tables(np.array(g1, np.uint64), np.array(g0, np.uint64), np.array(p, np.int64), templates, quads)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return a >> 32, a & _M32


def _mulhi(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The high 64 bits of the 128-bit products of two uint64 arrays, each
    given as its 32-bit halves (high, low), as in Warren's Hacker's Delight,
    section 8-2: no partial sum overflows 64 bits."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    carry = a_lo * b_lo
    carry >>= 32
    carry += a_hi * b_lo
    middle = carry & _M32
    carry >>= 32
    middle += a_lo * b_hi
    middle >>= 32
    high = a_hi * b_hi
    high += carry
    high += middle
    return high


def _rop(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Schubfach's rop: floor(g cp 2^-127) rounded to odd, for g = g1 2^63 +
    g0 (Giulietti, figure 8), for each row of cp at once; cp is overwritten."""
    z = g1 * cp  # the low 64 bits of g1 cp: uint64 products wrap
    z >>= 1
    low = cp & _M32
    cp >>= 32
    cp_halves = cp, low
    z += _mulhi(_split(g0), cp_halves)
    high = _mulhi(_split(g1), cp_halves)
    high += z >> 63
    z &= _M63
    z += _M63
    z >>= 63
    high |= z
    return high


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) with f 10^k the shortest closest decimal of each normal double
    of the bit patterns, sign aside, f of 16 or 17 digits with trailing zeros
    kept: Giulietti's figure 7, computed as in figure 9 over whole arrays.

    c 2^q is the double, and the rounding interval's ends are (c -+ 1/2) 2^q,
    its lower end at (c - 1/4) 2^q when c is a power of two (the double below
    is then half as far as the one above), which also changes k from
    floor(log10(2^q)) to floor(log10(3/4 2^q))."""
    tables = _tables()
    biased = (bits >> 52) & np.uint64(0x7FF)
    c = bits & np.uint64(2**52 - 1)
    irregular = (c == 0) & (biased != 1)
    c |= np.uint64(2**52)
    q = biased.astype(np.int64) - 1075
    # floor(log10(2^q)), or floor(log10(3/4 2^q)), by Giulietti's multiply
    # and shift, exact for |q| < 5.4e6
    k = (q * 661_971_961_083 - np.where(irregular, 274_743_187_321, 0)) >> 41
    index = k - _K_MIN
    # 4 c and the interval's ends, 4 c - 2 (or - 1) and 4 c + 2, shifted by 1..4
    cp = np.empty((3, len(bits)), np.uint64)
    cp[0] = c << np.uint64(2)
    cp[1] = cp[0] - np.where(irregular, np.uint64(1), np.uint64(2))
    cp[2] = cp[0] + np.uint64(2)
    cp <<= (q + tables.p[index] + 2).astype(np.uint64)
    vb, lower, upper = _rop(tables.g1[index], tables.g0[index], cp)  # 4 v 10^-k and the interval's ends
    out = c & np.uint64(1)  # the interval's ends belong to it when c is even
    lower += out
    upper -= out
    s = vb >> 2
    # a decimal of one digit fewer in the interval is the shortest, and unique
    sp10 = s // np.uint64(10) * np.uint64(10)
    tp10 = sp10 + np.uint64(10)
    upin, wpin = lower <= sp10 << 2, tp10 << 2 <= upper
    s_next = s + np.uint64(1)
    uin, win = lower <= s << 2, s_next << 2 <= upper
    middle = (s + s_next) << 1
    closer = (vb < middle) | ((vb == middle) & (s & np.uint64(1) == 0))
    f = np.where(upin != wpin, np.where(upin, sp10, tp10), np.where(np.where(uin != win, uin, closer), s, s_next))
    return f, k


def _source(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The chars each normal double's repr is drawn from, one row per source
    column and one column per double (the digits of its shortest decimal
    left-aligned in 18 rows, its trailing zeros not printed, then its
    exponent's digits and sign and the constant chars), and the key of its
    layout template: its sign, digit count and layout class."""
    f, k = _shortest(bits)
    quads = _tables().quads
    short = f < np.uint64(10**16)  # f has 16 or 17 digits
    point = k + 17  # the value is 0.DIGITS x 10^point
    point -= short
    exponent = point - 1  # and D.IGITS x 10^exponent
    size = np.abs(exponent)
    count = len(bits)
    source = np.empty((_PAD + 1, count), np.uint8)
    # the 18 digits as two halves of 9, each a digit and two quads of 4
    aligned = f * np.where(short, np.uint64(100), np.uint64(10))
    rest = np.empty((2, count), np.uint64)
    rest[0] = aligned // np.uint64(10**9)
    rest[1] = aligned - rest[0] * np.uint64(10**9)
    halves = source[:_ALIGNED].reshape(2, 9, count)
    lead = rest // np.uint64(10**8)
    halves[:, 0] = lead + np.uint64(ord("0"))
    rest -= lead * np.uint64(10**8)
    quad = rest // np.uint64(10**4)
    halves[:, 1:5] = np.take(quads, quad, axis=1).swapaxes(0, 1)
    rest -= quad * np.uint64(10**4)
    halves[:, 5:] = np.take(quads, rest, axis=1).swapaxes(0, 1)
    source[_EXP:_EXP_SIGN] = np.take(quads[1:], size, axis=1)
    source[_EXP_SIGN] = np.where(exponent < 0, ord("-"), ord("+"))
    source[_ZERO:] = _CONSTANTS[:, None]
    digits = np.maximum.reduce((source[:_ALIGNED] != ord("0")).view(np.uint8) * _PLACES).astype(np.int64)
    cls = np.where((point > -4) & (point <= 16), point + 3, np.where(size < 100, 20, 21))
    return source, np.where(bits.view(np.int64) < 0, _DIGITS * _CLASSES, 0) + (digits - 1) * _CLASSES + cls


def _normal_reprs(bits: np.ndarray) -> list[str]:
    """`reprs` of normal doubles, given as their bit patterns."""
    source, key = _source(bits)
    # char j of each double's repr is source[templates[key, j], double]; the
    # uint8 templates are widened before the multiply, since under NEP 50 a
    # uint8 array times a Python int stays uint8 and raises OverflowError past 255
    index = np.take(_tables().templates, key, axis=0).astype(np.intp)
    index *= len(bits)
    index += np.arange(len(bits))[:, None]
    chars = np.take(source, index)
    del source, key, index  # before the strs are made
    return chars.astype(np.uint32).view(f"U{_WIDTH}")[:, 0].tolist()  # str objects from UCS-4 rows


def reprs(values: np.ndarray) -> list[str]:
    """[float.__repr__(x) for x in values.tolist()] for a 1-D float64 array,
    byte for byte."""
    bits = np.ascontiguousarray(values, np.float64).view(np.uint64)
    biased = (bits >> 52) & np.uint64(0x7FF)
    normal = biased - np.uint64(1) < np.uint64(0x7FE)  # the biased exponent is neither 0 nor 0x7FF
    if normal.all():
        return _normal_reprs(bits)
    out = np.empty(len(bits), dtype=object)
    out[normal] = _normal_reprs(bits[normal])
    out[~normal] = list(map(float.__repr__, bits[~normal].view(np.float64).tolist()))
    return out.tolist()
