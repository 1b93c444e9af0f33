"""``'%.17g' % x`` for every float64 of an array, byte for byte, in numpy passes.

CPython's ``%.17g`` takes dtoa's bignum path for 17 digits, one value at a
time.  Here the 17 digits ``D = round(|x| * 10**(16 - k))``, with
``k = floor(log10|x|)``, come from float64 arithmetic that is exact enough
to round correctly: ``10**j`` is a pair of doubles ``hi + lo`` within
``2**-106 * 10**j``, Dekker's TwoProduct (Veltkamp split) gives
``|x| * hi = p + e`` exactly, and ``V = |x| * 10**j = p + (e + |x| * lo)``
to within ``2**-47`` (``V < 2**57``).  ``p`` is an integer once
``V >= 2**53``, so ``D = p + rint(e + |x| * lo)`` unless the fraction lies
within ``2**-32`` of 1/2.  ``D`` strictly between ``10**16`` and ``10**17``
proves ``k`` right: ``log10`` may be off by one next to a power of ten.

Every value this does not cover goes through ``'%.17g' % x`` one at a
time: a fraction within ``2**-32`` of 1/2 (every exact tie among them),
``|x|`` outside ``[1e-280, 1e280]`` (where ``lo`` or a split would leave
the normal range), +-0, subnormals, inf and nan, ``D`` outside
``(10**16, 10**17)`` (a few values next to powers of ten), and
non-integers from 10 up printed in fixed notation, whose ``.`` falls
inside the digits.

The text of each value is laid out in four uint64 words, NUL-padded:
sign, ``0.``, zeros and the first digit (from a table); the other 16 digits
as ASCII, two words built by SWAR arithmetic, with trailing zeros turned to
NUL; then the exponent and the value's terminator.  Deleting the NULs of
a chunk's bytes gives its text.
"""

from __future__ import annotations

import functools

import numpy as np

# numpy 1.x turns uint64 mixed with a signed integer into float64, so every
# integer operand here is a uint64.
_U = np.uint64

# A text word's first byte is its lowest, on any machine.
_WORD = np.dtype("<u8")

_TEN8 = _U(10**8)
_TEN16 = _U(10**16)
_TEN17 = _U(10**17)
_ZEROS = _U(0x3030303030303030)  # "00000000"
_BYTE_LOW_BITS = _U(0x0101010101010101)

# Veltkamp's splitter for 53-bit doubles: 2**27 + 1.
_SPLITTER = 134217729.0

# A fraction of V this close to 1/2 may round either way: the error bound is
# 2**-47, so the margin is 2**15 times that.
_TIE = 2.0**-32

# Magnitudes the fast path covers, and the k = floor(log10|x|) it can see.
_MIN, _MAX = 1e-280, 1e280
_K_MIN, _K_MAX = -281, 280

# The fixed notation of %.17g: exponents -4 <= X < 17.
_FIXED_MIN, _FIXED_END = -4, 17


def _veltkamp(y):
    """``(head, tail)`` with ``head + tail == y`` and 26-bit halves."""
    c = _SPLITTER * y
    head = c - (c - y)
    return head, y - head


def _words(texts) -> np.ndarray:
    """Each text as one NUL-padded word."""
    return np.frombuffer(b"".join(t.encode("ascii").ljust(8, b"\0") for t in texts), dtype=_WORD)


# Built once per process, on the first text write, and never changed
# afterwards.  Threads that race the first call may each build them; every
# build is the same, so no lock is needed.
@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tables: powers of ten, then the words of prefixes, exponents and
    digit masks of integers."""
    # [hi, hi's Veltkamp halves, lo; k - _K_MIN]: hi + lo is 10**(16 - k),
    # hi and lo each correctly rounded from exact rationals.
    ten = [1]  # ten[j] == 10**j up to j = 16 - _K_MIN, one product each
    while len(ten) <= 16 - _K_MIN:
        ten.append(ten[-1] * 10)
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = ten[max(16 - k, 0)], ten[max(k - 16, 0)]
        top = num / den  # int true division rounds correctly
        top_num, top_den = top.as_integer_ratio()
        hi.append(top)
        lo.append((num * top_den - top_num * den) / (den * top_den))
    hi = np.array(hi)
    powers = np.array([hi, *_veltkamp(hi), lo])
    # [sign, zeros, first digit, dot]: zeros 0 is "d" or "d.", zeros z > 0
    # is "0." and z - 1 zeros before "d".
    prefix = _words(
        "-" * sign + (f"0.{'0' * (zeros - 1)}{digit}" if zeros else f"{digit}{'.' * dot}")
        for sign in range(2)
        for zeros in range(5)
        for digit in range(10)
        for dot in range(2)
    )
    # Index X - _K_MIN + 1; index 0 is the fixed notation's empty exponent.
    exponent = _words(["", *(f"e{x:+03d}" for x in range(_K_MIN, _K_MAX + 1))])
    # [word, X]: the first X of the 16 digits, which an integer keeps.
    upper = [(1 << 8 * min(x, 8)) - 1 for x in range(_FIXED_END)]
    lower = [(1 << 8 * max(x - 8, 0)) - 1 for x in range(_FIXED_END)]
    whole = np.array([upper, lower], dtype=_U)
    return powers, prefix, exponent, whole


def _digits8(n: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each ``n < 10**8`` as byte values, the
    leading one in the lowest byte: 4 + 4, then 2 + 2 per half, then 1 + 1,
    by multiply-and-shift in lanes that never carry into each other."""
    high = n // _U(10000)
    x = high | ((n - high * _U(10000)) << _U(32))
    h = ((x * _U(5243)) >> _U(19)) & _U(0x0000007F0000007F)  # v // 100, v < 10**4
    y = h | ((x - h * _U(100)) << _U(16))
    t = ((y * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)  # v // 10, v < 100
    return t | ((y - t * _U(10)) << _U(8))


def _through_last_nonzero(z: np.ndarray) -> np.ndarray:
    """0xFF in each byte of ``z`` (byte values below 16) at or before its
    last nonzero byte, 0x00 after it."""
    z = z | (z >> _U(8))
    z = z | (z >> _U(16))
    z = z | (z >> _U(32))
    return (((z + _U(0x7F7F7F7F7F7F7F7F)) >> _U(7)) & _BYTE_LOW_BITS) * _U(0xFF)


def _end(text: str) -> int:
    """A terminator's last word: its bytes from byte 5 on, after the exponent."""
    return int.from_bytes(b"\0" * 5 + text.encode("ascii"), "little")


def format_rows(rows: np.ndarray, sep: str) -> bytes:
    """ASCII text of the 2-D float64 ``rows``: each value as ``'%.17g' % x``,
    the values of a row joined by ``,``, and each row ended by ``sep`` (at
    most three characters)."""
    powers, prefix, exponent, whole = _tables()
    ends = np.full(rows.shape[1], _end(","), dtype=_U)
    ends[-1] = _end(sep)
    a = np.abs(rows)
    fast = (a >= _MIN) & (a <= _MAX)  # false for nan
    a = np.where(fast, a, 1.5)
    k = np.floor(np.log10(a)).astype(np.int64)
    hi, hi_head, hi_tail, lo = powers.take(k - _K_MIN, axis=1)
    p = a * hi
    head, tail = _veltkamp(a)
    r = (((head * hi_head - p) + head * hi_tail + tail * hi_head) + tail * hi_tail) + a * lo
    near = np.rint(r)
    fast &= np.abs(np.abs(r - near) - 0.5) >= _TIE
    d = p.astype(_U) + near.astype(np.int64).view(_U)
    fast &= (d > _TEN16) & (d < _TEN17)
    fixed = (k >= _FIXED_MIN) & (k < _FIXED_END)
    fast &= (k <= 0) | ~fixed | (a == np.floor(a))

    # The clamp keeps the table index of a value that falls back, whose d may be anything.
    first = np.minimum(d // _TEN16, _U(9))
    rest = d - first * _TEN16
    upper = rest // _TEN8
    z_upper, z_lower = _digits8(upper), _digits8(rest - upper * _TEN8)
    integer_digits = np.where(fixed & (k > 0), k, 0)
    any_lower = (z_lower != 0).astype(_U) * _BYTE_LOW_BITS
    zeros = np.where(fixed & (k < 0), -k, 0)
    dot = (rest != 0) & ((k <= 0) | ~fixed)

    words = np.empty((*rows.shape, 4), dtype=_WORD)
    lead = ((np.signbit(rows) * 5 + zeros) * 10 + first.astype(np.int64)) * 2 + dot
    words[..., 0] = prefix.take(lead)
    mask_upper = _through_last_nonzero(z_upper | any_lower) | whole[0].take(integer_digits)
    mask_lower = _through_last_nonzero(z_lower) | whole[1].take(integer_digits)
    words[..., 1] = (z_upper + _ZEROS) & mask_upper
    words[..., 2] = (z_lower + _ZEROS) & mask_lower
    words[..., 3] = exponent.take(np.where(fixed, 0, k - _K_MIN + 1)) | ends
    slow = np.nonzero(~fast)
    if slow[0].size:
        text = np.array([b"%.17g" % x for x in rows[slow].tolist()], dtype="S24")
        words[(*slow, slice(0, 3))] = text.view(_WORD).reshape(-1, 3)
        words[(*slow, 3)] = ends[slow[-1]]
    return words.tobytes().translate(None, b"\0")
