"""Python's ``repr`` of every cell of a float64 block, with no Python call per
cell; ``dataio`` writes matrices with it.

``format_rows(block)`` gives, for each row of a C-contiguous block of finite
doubles, the bytes of ``"".join("," + repr(x) for x in row)``. It works on the
whole block in ``np.uint64`` arithmetic, in two steps.

1. **Digits.** Schubfach (R. Giulietti, *The Schubfach way to render
   doubles*, 2020) finds the shortest decimal that reads back to the same
   double, the nearer one when there are two, ties to an even digit, as
   ``repr`` does. Each 126-bit power of ten ``g`` is built from Python ints
   the first time a block holds its binary exponent, and each 64x64-bit
   product is formed from 32-bit halves. Java keeps at least two digits
   (``4.9E-324``) where Python keeps one (``5e-324``), so the one-digit-
   shorter candidate is tried for every value.
2. **Text.** ``repr`` writes fixed notation when the decimal exponent E is in
   [-4, 16), with ``.0`` on an integral value, and ``d.ddde±XX`` otherwise.
   Each cell gets a 32-byte slot. Bytes 6 to 22 hold the 17 digits, left
   aligned, with trailing zeros as zero bytes. Masks looked up by (E, whether
   a digit follows the first, sign) move the digits after the point up one
   byte and put in the point, any "0.000" before the digits, the sign and
   the comma before the cell; the last 8 bytes hold the exponent. Every other
   byte of the slot is zero, so dropping the zero bytes leaves the text.
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_LOW32 = _U(2**32 - 1)
_LOW63 = _U(2**63 - 1)
_E_MIN, _E_MAX = -324, 308  # range of the decimal exponent of its first digit
_POW10 = np.array([10**j for j in range(1, 18)], dtype=np.uint64)
_ALIGN = np.array([10**(17 - n) for n in range(18)], dtype=np.uint64)
_FIRST = 6  # the slot byte of the first digit


def _flog2pow10(k):
    """floor(k * log2(10)), exact for |k| < 1233."""
    return (k * 913124641741) >> 38


class _Tables:
    """Lookup tables, built on first use; ``g`` fills in as exponents are met."""

    def __init__(self):
        # by biased exponent + 2048 * asym, where asym marks a power of two
        # above the least normal exponent, whose interval is narrower below:
        # k and h of Schubfach, and g (see ``g``) once an exponent is met
        index = np.arange(4096)
        q = np.maximum(index % 2048, 1) - 1075
        self.k = (q * 661971961083 - (index >= 2048) * 274743187321) >> 41
        self.h = (q + _flog2pow10(-self.k) + 2).astype(np.uint64)
        self.g1, self.g0 = np.zeros(4096, np.uint64), np.zeros(4096, np.uint64)
        self.met = np.zeros(4096, bool)

        # quad[v]: the four ASCII digits of v < 10**4, the first in the low
        # byte, with its trailing zeros as zero bytes; quad[10**4 + v]: all four
        d = np.arange(100)
        pair = (d // 10 + 0x30) | (d % 10 + 0x30) << 8
        pair_cut = np.where(d % 10 > 0, pair, np.where(d > 0, d // 10 + 0x30, 0))
        hi, lo = np.arange(10**4) // 100, np.arange(10**4) % 100
        cut = np.where(lo > 0, pair[hi] | pair_cut[lo] << 16, pair_cut[hi])
        self.quad = np.concatenate([cut, pair[hi] | pair[lo] << 16]).astype(np.uint64)

        # by (E, whether a digit follows the first, sign) at
        # [offset[E - E_MIN] + 2 * more + sign]: low masks the digits before
        # the point, which stay while the rest move up one byte, and mark
        # holds the comma, the sign, any "0.000" before the digits, the point
        # and, in fixed notation, "0" under the digits before the point and
        # the one after it, where a trailing zero left a zero byte
        e = np.arange(-5, 16)[:, None, None, None]  # -5 stands for scientific
        more = np.arange(2)[None, :, None, None]
        neg = np.arange(2)[None, None, :, None]
        place = np.arange(24) - _FIRST  # the digit place of each byte
        sci = e == -5
        point = np.where(sci, 1, np.maximum(e + 1, 0))  # digits before the point
        start = np.where(sci, 0, np.minimum(e, 0))  # place of the text's first byte
        low = (place >= 0) & (place < point)
        mark = (np.where(place == start - 1 - neg, ord(","), 0)
                | np.where((place == start - 1) & (neg == 1), ord("-"), 0)
                | np.where((place == point) & (point > 0) & (~sci | (more == 1)), ord("."), 0)
                | np.where((e < 0) & ~sci & (place == e + 1), ord("."), 0)
                | np.where((e < 0) & ~sci & (place >= e) & (place <= 0) & (place != e + 1),
                           ord("0"), 0)
                | np.where((e >= 0) & (low | (place == point + 1)), ord("0"), 0))
        layout = np.stack([np.broadcast_to(x, mark.shape) for x in (low * 0xFF, mark)])
        layout = layout.astype(np.uint8).view("<u8").astype(np.uint64)
        self.layout = layout.reshape(2, -1, 3).transpose(0, 2, 1).reshape(6, -1).copy()

        # by E - E_MIN: offset, E's rows of the layout table, and exponent,
        # the text after the digits in scientific notation ("e", the sign and
        # two or three digits of E; 0 in fixed notation)
        e = np.arange(_E_MIN, _E_MAX + 1)
        fixed = (e >= -4) & (e < 16)
        self.offset = np.where(fixed, e + 5, 0) * 4
        a = np.abs(e)
        sign = np.where(e < 0, ord("-"), ord("+"))
        two = (a // 10 % 10 + 0x30) | (a % 10 + 0x30) << 8
        digits = np.where(a >= 100, (a // 100 + 0x30) | two << 8, two)
        self.exponent = np.where(fixed, 0, ord("e") | sign << 8 | digits << 16).astype(np.uint64)

    def g(self, index):
        """g1 and g0 at each exponent index, where g = floor(10**-k / 2**r) + 1
        lies in [2**125, 2**126) and g = g1 * 2**63 + g0; an index met for
        the first time gets its g from Python ints."""
        new = np.flatnonzero((np.bincount(index, minlength=4096) > 0) & ~self.met)
        for i in new.tolist():
            k = int(self.k[i])
            r = _flog2pow10(-k) - 125
            g = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
            self.g1[i], self.g0[i] = g >> 63, g & (2**63 - 1)
        self.met[new] = True
        return self.g1.take(index), self.g0.take(index)


@functools.cache
def _tables() -> _Tables:
    return _Tables()


def _high(a_hi, a_lo, b_hi, b_lo):
    """The high 64-bit word of a * b, for a < 2**63 and b < 2**59 given as
    32-bit halves: no sum below can overflow."""
    cross = a_hi * b_lo + a_lo * b_hi + ((a_lo * b_lo) >> _U(32))
    return a_hi * b_hi + (cross >> _U(32))


def _rop(g1, g1_hi, g1_lo, g0_hi, g0_lo, cp):
    """Schubfach's rop: round to odd of g * cp / 2**127, g = g1 * 2**63 + g0."""
    cp_hi, cp_lo = cp >> _U(32), cp & _LOW32
    z = ((g1 * cp) >> _U(1)) + _high(g0_hi, g0_lo, cp_hi, cp_lo)
    return ((_high(g1_hi, g1_lo, cp_hi, cp_lo) + (z >> _U(63)))
            | (((z & _LOW63) + _LOW63) >> _U(63)))


def _shortest(t: _Tables, bits):
    """(digits, E): for each finite double of ``bits``, the shortest decimal
    that reads back to it, as its digits left-aligned in a 17-digit integer
    and the decimal exponent of the first one (0 and 0 for a zero)."""
    exp_bits = (bits >> _U(52)) & _U(0x7FF)
    if (exp_bits == 0x7FF).any():
        raise ValueError("cannot format a non-finite value")
    fraction = bits & _U(2**52 - 1)
    c = fraction | (np.minimum(exp_bits, _U(1)) << _U(52))
    asym = ((fraction == 0) & (exp_bits > 1)).astype(np.uint64)
    index = (exp_bits | (asym << _U(11))).view(np.int64)
    k, h = t.k.take(index), t.h.take(index)
    g1, g0 = t.g(index)
    g = (g1, g1 >> _U(32), g1 & _LOW32, g0 >> _U(32), g0 & _LOW32)

    # 4 * v / 10**k and the ends of the interval that reads back to v
    cp = c << _U(2) << h
    step = _U(2) << h
    vb = _rop(*g, cp)
    out = c & _U(1)  # an odd c leaves the ends out
    vbl = _rop(*g, cp - step + (asym << h)) + out
    vbr = _rop(*g, cp + step) - out

    s = vb >> _U(2)
    # with one digit fewer: the multiples of ten at or below and above s
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= vbr
    # with all digits: s and s + 1, the nearer if both are in
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    rest = vb - (s << _U(2))  # 4 * (v / 10**k - s), rounded to odd
    nearer_s = (rest < 2) | ((rest == 2) & ((s & _U(1)) == 0))
    f = s + (~((uin & ~win) | (~(uin ^ win) & nearer_s))).astype(np.uint64)
    # a shorter candidate wins if it alone is in: sp10 if upin, else sp10 + 10
    f += (sp10 + _U(10) * wpin - f) * (upin ^ wpin)

    # a normal double's f has 16 or 17 digits
    length = (f >= _U(10**16)).view(np.int8) + 16
    small = np.flatnonzero(exp_bits == 0)
    if small.size:
        zero = small[c[small] == 0]
        f[zero], k[zero] = 0, 0
        length[small] = np.searchsorted(_POW10, f[small], side="right") + 1
    return f * _ALIGN.take(length), k + length - 1


def format_rows(block: np.ndarray) -> list[bytes]:
    """For each row of ``block``, a C-contiguous 2-D array of finite float64
    values, ``"".join("," + repr(x) for x in row)`` in ASCII. A non-finite
    value is a ValueError."""
    rows = len(block)
    bits = block.reshape(-1).view(np.uint64)
    t = _tables()
    digits, e = _shortest(t, bits)

    # the first digit, then four groups of four; a group's trailing zeros are
    # zero bytes when no later group has a nonzero digit
    head = digits // _U(10**16)
    rest = digits - head * _U(10**16)
    hi = rest // _U(10**8)
    lo = rest - hi * _U(10**8)
    q1, q3 = hi // _U(10**4), lo // _U(10**4)
    q2, q4 = hi - q1 * _U(10**4), lo - q3 * _U(10**4)
    full3 = np.minimum(q4, _U(1))  # 1 if a later group has a nonzero digit
    full2 = np.minimum(q3 | q4, _U(1))
    full1 = np.minimum(q2 | q3 | q4, _U(1))
    c1, c2, c3, c4 = (t.quad.take((q + _U(10**4) * full).view(np.int64))
                      for q, full in ((q1, full1), (q2, full2), (q3, full3), (q4, 0)))
    # the digits in the slot's bytes 6 to 22
    s0 = ((head + _U(0x30)) << _U(48)) | (c1 << _U(56))
    s1 = (c1 >> _U(8)) | (c2 << _U(24)) | (c3 << _U(56))
    s2 = (c3 >> _U(8)) | (c4 << _U(24))

    e_index = e - _E_MIN
    index = t.offset.take(e_index) + 2 * (rest != 0) + (bits >> _U(63)).view(np.int64)
    low0, low1, low2, mark0, mark1, mark2 = (t.layout[j].take(index) for j in range(6))
    low0, low1, low2 = s0 & low0, s1 & low1, s2 & low2
    high0, high1, high2 = s0 ^ low0, s1 ^ low1, s2 ^ low2
    slots = np.stack([low0 | (high0 << _U(8)) | mark0,
                      low1 | (high1 << _U(8)) | (high0 >> _U(56)) | mark1,
                      low2 | (high2 << _U(8)) | (high1 >> _U(56)) | mark2,
                      t.exponent.take(e_index)], axis=1)
    chars = slots.astype("<u8", copy=False).view(np.uint8).reshape(rows, -1)
    kept = chars != 0
    text = chars[kept].tobytes()
    # a row's length is its count of kept bytes, summed 8 at a time in the
    # top byte of a word
    lengths = ((kept.view(np.uint64) * _U(0x0101010101010101)) >> _U(56)).sum(axis=1)
    ends = np.cumsum(lengths).tolist()
    return [text[a:b] for a, b in zip([0, *ends], ends)]
