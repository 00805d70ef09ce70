"""CSV cells: byte for byte the text of ``'%d' % v`` and ``'%.17g' % v``,
from numpy passes that leave Python's ``%`` only the floats they cannot
certify.  A cell is a row of uint8 slots, NUL where it writes nothing
(which ``bytes.translate`` drops): separator, sign, then a float's ``0.000``
of fixed form below 1, 17 digits each with a slot for the point after it,
and ``e+XXX``, or an int's digits, as many as its column's widest value.
"""

from __future__ import annotations

import functools

import numpy as np

FLOAT_CELL = 46  # Python's longest text, "-1.2345678901234567e-308", fits
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for float64
_POW_MIN, _POW_MAX = -266, 298  # every 16 - floor(log10|v|) for 1e-280 <= |v| < 1e280
_EXP_MAX = 300  # |X| of the exponent table


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(powers, quads, exponent)``: rows ``(hi, lo, head, tail)`` of
    ``10**n`` for ``_POW_MIN <= n <= _POW_MAX``, ``hi + lo`` exact to
    ~2**-106 and ``head + tail`` Dekker's split of ``hi``; the four ASCII
    digits of each ``i < 10**4`` as a uint32; and at ``X + _EXP_MAX`` the
    five NUL-padded bytes ``e+XXX`` of exponent form for exponent ``X``."""
    exact = [(10**n, 1) if n >= 0 else (1, 10**-n) for n in range(_POW_MIN, _POW_MAX + 1)]
    hi = np.array([num / den for num, den in exact])  # int / int rounds correctly
    ratios = map(float.as_integer_ratio, hi.tolist())
    lo = np.array([(num * b - a * den) / (den * b) for (num, den), (a, b) in zip(exact, ratios)])
    head = hi * _SPLIT - (hi * _SPLIT - hi)
    quads = np.arange(10**4, dtype=np.int16)[:, None] // np.int16([1000, 100, 10, 1]) % 10 + 48
    exps = range(-_EXP_MAX, _EXP_MAX + 1)
    exponent = b"".join((b"" if -4 <= x < 17 else b"e%+03d" % x).ljust(5, b"\0") for x in exps)
    quads = quads.astype(np.uint8).view("<u4").ravel()
    return np.stack((hi, lo, head, hi - head)), quads, np.frombuffer(exponent, np.uint8).reshape(-1, 5)


def _digits(d: np.ndarray, quads: int) -> np.ndarray:
    """The ``4 * quads`` zero-padded ASCII digits of each integer ``d``."""
    groups = np.empty((d.size, quads), np.int64)
    for i in range(quads - 1, 0, -1):
        head = d // 10**4
        groups[:, i] = d - head * 10**4
        d = head
    groups[:, 0] = d
    return _tables()[1][groups].view(np.uint8)


def int_cells(v: np.ndarray, out: np.ndarray) -> None:
    """Fill the rows of ``out`` with ``,`` and ``'%d' % v`` for int64 ``v``,
    right-aligned in the room ``out`` leaves for the widest value."""
    u, n = np.abs(v).view(np.uint64), out.shape[1] - 2  # |-2**63| wraps to 2**63
    zeros = n - 1 - np.searchsorted(np.uint64(10) ** np.arange(1, n, dtype=np.uint64), u, "right")
    out[:, 0] = ord(",")
    out[:, 1] = (v < 0) * np.uint8(ord("-"))
    digits = _digits(u, -(-n // 4))[:, -n:]
    out[:, 2:] = digits * (np.arange(n, dtype=np.int8) >= zeros.astype(np.int8)[:, None])


def _float_digits(v: np.ndarray):
    """``(D, X, ok)``: where ``ok``, ``%.17g`` writes float64 ``v`` with the
    17 digits of int64 ``D`` and the decimal exponent ``X``.

    With ``K = floor(log10|v|)`` guessed, ``r = |v| * 10**(16 - K)`` is
    formed in double-double (a table pair, Dekker's exact product) to ~1e-14
    and ``D = round(r)``.  Only ``+-0.0`` and ``1e-280 <= |v| < 1e280`` with
    ``floor(r)`` in ``[10**16, 10**17)`` and a fraction over ``1e-6`` from a
    half are ``ok``: a wrong ``K``, or a tie that needs round-half-even, is
    never trusted.  A carry to ``10**17`` raises ``X``.
    """
    a = np.abs(v)
    fast = (a >= 1e-280) & (a < 1e280)
    a = np.where(fast, a, 0.0)
    k = np.floor(np.log10(np.where(fast, a, 1.0))).astype(np.int64)
    hi, lo, head, tail = _tables()[0][:, 16 - _POW_MIN - k]
    p = a * hi
    c = a * _SPLIT
    a_head = c - (c - a)
    a_tail = a - a_head
    # r = p + r_lo: the exact error of the product p, plus a * lo
    r_lo = (((a_head * head - p) + a_head * tail) + a_tail * head) + a_tail * tail + a * lo
    whole = np.floor(r_lo)
    frac = r_lo - whole
    d = p.astype(np.int64) + whole.astype(np.int64)  # p is an integer once >= 2**53
    ok = (np.abs(frac - 0.5) > 1e-6) & (d >= 10**16) & (d < 10**17) | (v == 0)
    d += frac > 0.5
    carry = d == 10**17
    return np.where(carry, 10**16, d), k + carry, ok


def float_cells(v: np.ndarray, out: np.ndarray) -> None:
    """Fill the rows of ``out`` with ``,`` and ``'%.17g' % v`` for float64
    ``v``, from :func:`_float_digits` or, where it cannot certify, ``%``."""
    d, x, ok = _float_digits(v)
    digits = _digits(d, 5)[:, 3:]
    # %g strips trailing zeros, but not those of an integer part
    nonzero = digits != 48
    nonzero[:, 0] = True
    last = 16 - nonzero[:, ::-1].argmax(axis=1)
    fixed = (x >= -4) & (x < 17)
    small = fixed & (x < 0)  # written 0.000ddd
    lead = np.where(fixed, np.maximum(x, 0), 0)  # the digit the point follows
    point = np.where((last > lead) & ~small, lead, 17)
    slot = np.arange(17, dtype=np.int8)
    out[:, 0] = ord(",")
    out[:, 1] = np.signbit(v) * np.uint8(ord("-"))
    out[:, 2:7] = np.frombuffer(b"0.000", np.uint8) * (small[:, None] & (slot[:5] < 1 - x[:, None]))
    out[:, 7:41:2] = digits * (slot <= np.maximum(last, lead).astype(np.int8)[:, None])
    out[:, 8:42:2] = (slot == point.astype(np.int8)[:, None]) * np.uint8(ord("."))
    out[:, 41:] = np.take(_tables()[2], x + _EXP_MAX, axis=0)
    for i in np.flatnonzero(~ok).tolist():  # by Python's own formatter
        out[i, 1:] = np.frombuffer((b"%.17g" % v[i]).ljust(FLOAT_CELL - 1, b"\0"), np.uint8)
