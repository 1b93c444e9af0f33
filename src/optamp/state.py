"""Real unit vectors over the computational basis, plus their JSON file format."""

from __future__ import annotations

__all__ = [
    "StateVector",
    "dumps_state_vector",
    "load_state_vector",
    "loads_state_vector",
    "save_state_vector",
]

import json
import math
import numbers
import os
import sys
import threading
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, NormalizationError, ParameterOutOfRange, StateFormatError

NORM_TOL = 1e-9

# From this many elements up, `_sum_by_halves` runs an O(n) pass on two threads.
_PARALLEL_MIN = 2**20

# Large arrays `_fresh` keeps for reuse: one chain step's input and its image.
_RING_SIZE = 2

# The smallest sum of squares `StateVector.norm` takes unscaled.  A square
# below 2**-1022 rounds to a multiple of 2**-1074, so n of them move a sum of
# at least 2**-968 by under n * 2**-107 of it: below half an ulp up to 2**53
# entries.
_SQUARES_MIN = 2.0**-968

# Elements per leaf of `_tree`: 512 KiB of float64, so a leaf's source and
# output blocks fit in a 2 MiB L2 cache together.
_LEAF = 2**16


def _split(m: int) -> int:
    """numpy's pairwise-sum split point of a contiguous run of ``m`` elements."""
    return m // 2 - (m // 2) % 8


def _sum_by_halves(m: int, fn) -> float:
    """``np.sum`` of a run of ``m`` elements, from ``fn(lo, hi)``, the
    ``np.sum`` of its part ``[lo, hi)``.  That is ``fn(0, m)``, or, from
    ``_PARALLEL_MIN`` elements up on any host, ``fn(0, h)`` here and
    ``fn(h, m)`` on a worker thread, added as numpy's pairwise sum adds
    them: ``h = _split(m)``, so the result is the same bit for bit.
    Overflow gives inf and opposite infinities NaN, with no warning, on
    both halves; the worker otherwise runs under the caller's numpy error
    state, which does not reach a new thread by itself.  An exception from
    either half is raised here once the worker has been joined.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if m < _PARALLEL_MIN:
            return float(fn(0, m))
        h = _split(m)
        err = np.geterr()
        box: list = []

        def second_half() -> None:
            with np.errstate(**err):
                try:
                    box.append(fn(h, m))
                except BaseException as exc:  # raised again on the calling thread
                    box.append(exc)

        worker = threading.Thread(target=second_half)
        worker.start()
        try:
            first = fn(0, h)
        finally:
            worker.join()
        second = box[0]
        if isinstance(second, BaseException):
            raise second
        return float(np.sum((first, second)))


def _tree(lo: int, hi: int, leaf) -> float:
    """``leaf(lo, hi)`` for at most ``_LEAF`` elements, else the ``_tree``
    values of the two sides of ``_split(hi - lo)`` added left + right.  With
    ``leaf(lo, hi) = np.sum(x[lo:hi])`` that is ``np.sum(x[lo:hi])`` bit for
    bit: numpy's pairwise sum splits a contiguous run at the same points.
    It recurses at module level: a closure that called itself would be a
    reference cycle, and would keep ``apply``'s output alive past the
    reference count `_fresh` reads.
    """
    if hi - lo <= _LEAF:
        return leaf(lo, hi)
    h = lo + _split(hi - lo)
    return _tree(lo, h, leaf) + _tree(h, hi, leaf)


def _sum_by_leaves(m: int, leaf) -> float:
    """``_sum_by_halves`` of ``_tree``: the sum of ``leaf(lo, hi)`` over the
    ``_LEAF``-element leaves of a run of ``m``, along numpy's pairwise-sum
    tree, so a leaf's ``np.sum(f(x[lo:hi]))`` gives ``np.sum(f(x))`` bit for bit."""
    return _sum_by_halves(m, lambda lo, hi: _tree(lo, hi, leaf))


def _sum_of_squares(arr: np.ndarray) -> float:
    """``np.sum(arr * arr)`` of a contiguous 1-D array, bit for bit, on any
    number of CPUs, with no full-size temporary: one ``_LEAF`` of squares
    at a time, on two threads from ``_PARALLEL_MIN`` elements up.  A BLAS
    dot product (``arr @ arr``, ``np.linalg.norm``) splits the sum by its
    thread count, so its last bits depend on the CPU count; every sum of
    squares comes from here.  Overflow gives inf, with no warning.
    """
    return _sum_by_leaves(arr.shape[0], lambda lo, hi: np.sum(np.square(arr[lo:hi])))


def _refs(ring: list, i: int) -> int:
    """The reference count of ``ring[i]``, read the same way on every call."""
    return sys.getrefcount(ring[i])


# What `_refs` reads for an array nothing but its list holds.  The count
# includes the call's own temporaries, which differ between interpreter
# versions, so it is measured on a probe rather than written down.
_ALONE = _refs([np.empty(1)], 0)


def _new_ring() -> None:
    """An empty ring under a new lock; a forked child starts from one, since
    the parent's lock may have been held by a thread the child lacks."""
    global _ring, _ring_lock
    _ring, _ring_lock = [], threading.Lock()


_new_ring()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_ring)


def _fresh(n: int) -> np.ndarray:
    """A writable float64 array of ``n`` elements that no live object reaches.

    Below ``_PARALLEL_MIN`` elements it is ``np.empty(n)``.  From there up,
    the last ``_RING_SIZE`` arrays handed out stay in a ring, and one of
    length ``n`` that nothing else references, not even a weak reference, is
    handed out again: its pages are already mapped, so the kernel need not
    fault in and zero a new allocation.  Arrays of any other length leave
    the ring, so it never holds more than the current working size.  A
    free-threaded build, where another thread may take a reference between
    the count and the hand-out, always allocates.
    """
    if n < _PARALLEL_MIN or not getattr(sys, "_is_gil_enabled", lambda: True)():
        return np.empty(n)
    with _ring_lock:
        _ring[:] = [arr for arr in _ring if arr.shape[0] == n]
        for i in range(len(_ring)):
            if _refs(_ring, i) == _ALONE and not weakref.getweakrefcount(_ring[i]):
                arr = _ring.pop(i)
                arr.flags.writeable = True
                break
        else:
            arr = np.empty(n)
        _ring.append(arr)
        del _ring[:-_RING_SIZE]
    return arr


def _fresh_copy(arr: np.ndarray) -> np.ndarray:
    """A writable copy of ``arr`` in a :func:`_fresh` array."""
    out = _fresh(arr.shape[0])
    np.copyto(out, arr)
    return out


def _join_records(header: str, table: np.ndarray) -> str:
    """One CSV document: the ``header`` line, then each row of the 2-D
    float64 ``table`` as its values joined by ``,``; every line ends in a
    newline.

    Every finite value is spelled as orjson spells a float64: the shortest
    digits that read back to the same bits, which are the digits of
    ``repr(x)``, as in ``0.1``, ``1e16`` and ``7.629394531249998e-6``.  The
    table is one orjson array after the header: its brackets and every
    ``w``-th comma, for ``w`` columns, become newlines.  orjson writes
    ``null`` for NaN and infinities; in a table holding one, those tokens
    are then spelled as ``repr`` spells their values (``nan``, ``inf``,
    ``-inf``), and the finite values keep orjson's notation.
    """
    # Loaded on first use: a process that writes no text never loads it.
    import orjson

    rows = np.ascontiguousarray(table)
    if len(rows) == 0:  # orjson would write "[]", which the layout makes two newlines
        return f"{header}\n"
    buf = bytearray(header, "ascii")
    buf += orjson.dumps(rows.ravel(), option=orjson.OPT_SERIALIZE_NUMPY)
    finite = np.isfinite(rows)
    if not finite.all():
        # The nulls come in row-major order, as the boolean index reads the
        # values; a header holds neither "null" nor "%".
        spelled = tuple(repr(x).encode("ascii") for x in rows[~finite].tolist())
        buf = buf.replace(b"null", b"%s") % spelled
    chars = np.frombuffer(buf, dtype=np.uint8)[len(header) :]  # the array, "[...]"
    width = rows.shape[1]
    chars[np.flatnonzero(chars == ord(","))[width - 1 :: width]] = ord("\n")
    chars[0] = chars[-1] = ord("\n")
    return str(buf, "ascii")


def _dumps_json(obj) -> str:
    """The JSON artifact format shared by every report: two-space indent, final newline."""
    return json.dumps(obj, indent=2) + "\n"


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _integer(name: str, value) -> int:
    """The rule every dimension, count, index and sign shares: an integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterOutOfRange(f"{name} must be an integer, got {value!r}")
    return int(value)


def _sign(name: str, value) -> int:
    """The rule every sign shares: an integer by :func:`_integer` that is -1 or +1."""
    if (value := _integer(name, value)) not in (-1, 1):
        raise ParameterOutOfRange(f"{name} must be -1 or +1, got {value!r}")
    return value


def _real(name: str, value) -> float:
    """The rule the angle and beta0 share: a real number, not a bool, stored as
    ``float``; a numpy real scalar is one.  NaN and inf pass, for the caller's
    range check."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterOutOfRange(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParameterOutOfRange(f"{name} is past the float64 range") from None


def _require_dimension(n) -> int:
    """The rule every type here shares: a dimension is an integer of at least 2."""
    if (n := _integer("n", n)) < 2:
        raise DimensionError(f"dimension must be at least 2, got {n}")
    return n


def _require_same_dimension(a: StateVector, n: int, owner: str) -> None:
    """The rule every operator on a state shares: ``a`` has the dimension
    ``n`` of the ``owner`` (``"spec"``, ``"problem"``) that acts on it."""
    if a.n != n:
        raise DimensionError(f"state has dimension {a.n}, {owner} expects {n}")


def _probability_table(first, amp) -> np.ndarray:
    """Rows ``[first, amp, amp * amp]``: every probability is an amplitude
    squared with ``*``, correctly rounded where ``**`` is not; one past 1e154
    squares to inf, as in Python, with no warning."""
    with np.errstate(over="ignore"):
        return np.column_stack([first, amp, amp * amp])


# Element types an object array may hold: None reads as NaN and is then
# refused as non-finite.  A bool is an int, and is refused before this test.
_OBJECT_REALS = (int, float, np.integer, np.floating, type(None))


def _float64_copy(amplitudes) -> np.ndarray:
    """A new float64 array of ``amplitudes``.  An input numpy reads as text,
    bytes, bools or complex values, or one past the float64 range, raises
    StateFormatError; a bool among numbers is read as 0 or 1.  An object
    array (a ``None``, an int past the int64 range) is checked element by
    element, and a bool there is refused too."""
    arr = np.array(amplitudes)
    if arr.dtype.kind not in "iufO":
        raise StateFormatError(f"amplitudes must be real numbers, got dtype {arr.dtype}")
    if arr.dtype.kind == "O":
        for x in arr.flat:
            if isinstance(x, bool) or not isinstance(x, _OBJECT_REALS):
                raise StateFormatError(
                    f"amplitudes must be real numbers, got an element of type {type(x).__name__}"
                )
    try:
        return arr.astype(np.float64, copy=False)
    except OverflowError as exc:
        raise StateFormatError(f"amplitudes must fit in a float64: {exc}") from exc


class _Adopted:
    """A float64 array the library has just built and no one else holds, with
    its pair ``(a[0], sum(a[1:]))`` when the operator that built it has it."""

    __slots__ = ("array", "pair")

    def __init__(self, array: np.ndarray, pair: tuple[float, float] | None) -> None:
        self.array = array
        self.pair = pair


@dataclass(frozen=True, eq=False)
class StateVector:
    """Vector of real amplitudes, unit norm unless built by the library.

    Where the array comes from decides the checks.  The constructor copies
    a caller's array and holds it to sum(a_i^2) == 1 within ``NORM_TOL``.
    An array the library has just built (:meth:`_adopt`: operator outputs,
    :meth:`uniform`, :meth:`normalized`, :meth:`unnormalized`'s copy) is
    taken as it is, without a copy and
    without the unit-norm check, for values whose norm is established
    elsewhere.  Length and finiteness are checked either way.  An output
    built with its pair ``(a[0], sum(a[1:]))`` (``apply``) proves
    finiteness by that pair when both members are finite, since a pairwise
    sum with an inf or NaN term is inf or NaN, and keeps it as
    ``_reduced``; any other vector is checked by its sum of squares, kept
    as ``_squares``.  The amplitude array is read-only, so instances can
    be shared freely across threads.
    """

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _require_dimension(self.n))
        adopted = isinstance(self.amplitudes, _Adopted)
        if adopted:
            arr, pair = self.amplitudes.array, self.amplitudes.pair
        else:
            arr, pair = _float64_copy(self.amplitudes), None
        if arr.ndim != 1 or arr.shape[0] != self.n:
            raise DimensionError(f"expected {self.n} amplitudes, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "amplitudes", arr)
        if pair is not None and all(map(math.isfinite, pair)):
            object.__setattr__(self, "_reduced", pair)
        else:
            # A finite sum proves every entry finite.  Only a non-finite sum
            # needs the entrywise check, to tell a NaN or infinity from
            # finite squares that overflow, such as (1e200, 1e200).
            sq = self._squares
            if not math.isfinite(sq) and not np.isfinite(arr).all():
                raise StateFormatError("amplitudes must all be finite")
            if not adopted and abs(sq - 1.0) > NORM_TOL:
                raise NormalizationError(
                    f"squared norm {sq!r} deviates from 1 by more than {NORM_TOL}"
                )

    @classmethod
    def unnormalized(cls, n: int, amplitudes) -> StateVector:
        """Copy ``amplitudes``, then adopt the copy: no unit-norm check;
        length and finiteness still apply."""
        return cls._adopt(n, _float64_copy(amplitudes))

    @classmethod
    def _adopt(
        cls, n: int, arr: np.ndarray, pair: tuple[float, float] | None = None
    ) -> StateVector:
        """The vector of ``arr`` itself, a float64 array the library has just
        built (from :func:`_fresh`, a random draw, a copy) and no one else
        holds; it becomes read-only in place.  No unit-norm check.
        ``pair``, if given, must be ``(arr[0], np.sum(arr[1:]))`` bit for bit.
        It goes through the constructor, so the checks stay in one place."""
        return cls(n, _Adopted(arr, pair))

    @cached_property
    def _reduced(self) -> tuple[float, float]:
        """The pair ``(a[0], sum(a[1:]))``: all that component 0 of any family
        member's output depends on, computed in one O(n) pass once per vector
        (the array is read-only), on two threads for a long tail, unless
        ``apply`` computed it while writing the vector.  A sum that overflows
        raises StateFormatError, with no warning."""
        tail = self.amplitudes[1:]
        tail_sum = _sum_by_halves(tail.shape[0], lambda lo, hi: np.sum(tail[lo:hi]))
        if not math.isfinite(tail_sum):
            raise StateFormatError("sum(a[1:]) overflows a float64")
        return float(self.amplitudes[0]), tail_sum

    @cached_property
    def _squares(self) -> float:
        """:func:`_sum_of_squares` of the amplitudes, taken once per vector:
        by the constructor, or on first read for an output it adopted with a
        finite pair.  Overflow gives inf."""
        return _sum_of_squares(self.amplitudes)

    @classmethod
    def uniform(cls, n: int) -> StateVector:
        """The equal-weight superposition (1, ..., 1)/sqrt(n)."""
        n = _require_dimension(n)
        return cls._adopt(n, np.full(n, 1.0 / math.sqrt(n)))

    def _scaled(self) -> tuple[np.ndarray, float, int]:
        """``(b, sum(b_i^2), e)`` with ``a = b * 2**e``.  ``b`` is ``a`` itself
        unless its sum of squares falls outside ``[_SQUARES_MIN, inf)`` while
        some entry is nonzero; then ``b`` is ``a`` scaled by the power of two
        that brings max|a_i| into [1/2, 1), exactly, subnormal entries
        included, so the squares neither overflow nor underflow (Blue's
        scaled norm, ACM TOMS 1978)."""
        a, sq = self.amplitudes, self._squares
        if _SQUARES_MIN <= sq < math.inf:
            return a, sq, 0
        big = float(max(a.max(), -a.min()))
        e = math.frexp(big)[1]
        b = np.ldexp(a, -e)
        return b, _sum_of_squares(b), e

    def norm(self) -> float:
        """sqrt(sum(a_i^2)) for any finite entries: the root of
        :func:`_sum_of_squares`, rescaled by :meth:`_scaled` out of range;
        inf past the float64 range, as a sum of squares gives."""
        _, sq, e = self._scaled()
        try:
            return math.ldexp(math.sqrt(sq), e)
        except OverflowError:  # math.ldexp raises where float arithmetic gives inf
            return math.inf

    def normalized(self) -> StateVector:
        """Rescale to exact unit norm; any nonzero finite vector has one."""
        b, sq, _ = self._scaled()
        if sq == 0.0:
            raise NormalizationError("cannot normalize the zero vector")
        return StateVector._adopt(self.n, b / math.sqrt(sq))

    def __repr__(self) -> str:
        shown = ", ".join(f"{x:.6g}" for x in self.amplitudes[:4])
        suffix = ", ..." if self.n > 4 else ""
        return f"StateVector(n={self.n}, [{shown}{suffix}])"


def dumps_state_vector(state: StateVector) -> str:
    """Serialize to the shared JSON format: the amplitudes as one orjson
    array, ``,`` between values, each in the shortest digits that read back
    to the same bits (see :func:`_join_records`).  Every amplitude is finite."""
    # Loaded on first use: a process that writes no state file never loads it.
    import orjson

    body = str(orjson.dumps(state.amplitudes, option=orjson.OPT_SERIALIZE_NUMPY), "ascii")
    return "".join([f'{{"n": {state.n}, "amplitudes": ', body, "}\n"])


def loads_state_vector(text: str | bytes) -> StateVector:
    """Parse the shared JSON format from UTF-8 ``bytes``, or a ``str`` taken as its
    UTF-8 bytes, where a lone surrogate is refused; structural errors raise StateFormatError."""
    # Loaded on first use: a process that reads no state file never loads it.
    import orjson

    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    # A state document is one object around one flat list, keyed "n" and
    # "amplitudes", so a second "[" or "{", or a fifth '"', marks an invalid
    # one, such as one that repeats a key.  orjson 3.8 crashes the process on
    # a deep closed nest such as "[" * 10**6 + "]" * 10**6, so no nest reaches
    # it.  `find` runs at memchr speed, where `count` would take milliseconds.
    for mark, most in ((b"[", 1), (b"{", 1), (b'"', 4)):
        at = -1
        for _ in range(most + 1):
            at = data.find(mark, at + 1)
            if at < 0:
                break
        else:
            raise StateFormatError('expected one flat list under the keys "n" and "amplitudes"')
    try:
        obj = orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        raise StateFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or set(obj) != {"n", "amplitudes"}:
        raise StateFormatError('expected an object with exactly "n" and "amplitudes"')
    n, amps = obj["n"], obj["amplitudes"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise StateFormatError('"n" must be an integer')
    # The guard leaves the list no string and no nest, so between its one
    # "[" and the first "]" after it only true, false and null put a "u" or
    # an "l"; no JSON number holds either.  The bound keeps out an escaped
    # key such as "\u006e".  Single-byte finds run at memchr speed.
    lo = data.find(b"[")
    hi = data.find(b"]", lo)
    if not isinstance(amps, list) or data.find(b"u", lo, hi) >= 0 or data.find(b"l", lo, hi) >= 0:
        raise StateFormatError('"amplitudes" must be a list of numbers')
    if len(amps) != n:
        raise StateFormatError(f'"n" is {n} but {len(amps)} amplitudes were given')
    return StateVector(n, amps)


def save_state_vector(state: StateVector, path) -> None:
    _write_text(path, dumps_state_vector(state))


def load_state_vector(path) -> StateVector:
    with open(path, "rb") as handle:
        return loads_state_vector(handle.read())
