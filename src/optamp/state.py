"""Real unit vectors over the computational basis, plus their JSON file format."""

from __future__ import annotations

import json
import math
import os
import sys
import threading
import weakref
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, NormalizationError, StateFormatError

NORM_TOL = 1e-9

# Values `_join_records` formats per `_text.format_rows` call: 16 Ki float64
# give a 512 KiB word array, a fixed amount of memory beside the text.
_CHUNK = 2**14

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
    ``np.sum`` of its part ``[lo, hi)``.  That is ``fn(0, m)``, or, when
    ``m >= _PARALLEL_MIN`` and the process may run on two CPUs, ``fn(0, h)``
    here and ``fn(h, m)`` on a worker thread, added as numpy's pairwise sum
    adds them: ``h = _split(m)``, so the result is the same bit for bit.
    The worker runs under the caller's numpy error state, which does not
    reach a new thread by itself, and its exception is raised here.  Call
    it under ``np.errstate(over="ignore", invalid="ignore")``.
    """
    if m < _PARALLEL_MIN or _cpus() < 2:
        return float(fn(0, m))
    h = _split(m)
    err = np.geterr()
    box: list = []

    def second_half() -> None:
        with np.errstate(**err):
            try:
                box.append((True, fn(h, m)))
            except BaseException as exc:  # raised again on the calling thread
                box.append((False, exc))

    worker = threading.Thread(target=second_half)
    worker.start()
    try:
        first = fn(0, h)
    finally:
        worker.join()
    ok, second = box[0]
    if not ok:
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


def _sum_of_squares(arr: np.ndarray) -> float:
    """``np.sum(arr * arr)`` of a contiguous 1-D array, bit for bit, on any
    number of CPUs, with no full-size temporary: one ``_LEAF`` of squares
    at a time, on two threads from ``_PARALLEL_MIN`` elements up.  A BLAS
    dot product (``arr @ arr``, ``np.linalg.norm``) splits the sum by its
    thread count, so its last bits depend on the CPU count; every sum of
    squares that reaches a result comes from here.  Overflow gives inf,
    with no warning.
    """

    def leaf(lo: int, hi: int) -> float:
        return np.sum(np.square(arr[lo:hi]))

    with np.errstate(over="ignore", invalid="ignore"):
        return _sum_by_halves(arr.shape[0], lambda lo, hi: _tree(lo, hi, leaf))


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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


def _join_records(sep: str, table: np.ndarray, head: tuple[str, ...] = ()) -> str:
    """The ``head`` lines, then each row of ``table`` as its values joined by
    ``,``, all joined by ``sep`` (at most three characters); a 1-D ``table``
    has one value per row.

    Every value is written as ``'%.17g' % x``, byte for byte, which is
    ``format(x, ".17g")``: 17 significant digits round-trip any double
    exactly.  About ``_CHUNK`` values at a time go through one exact
    vectorized pass (see ``_text``), so only one chunk's words and the
    text itself are alive at once.
    """
    # Loaded on first use: a process that writes no text never loads it.
    from ._text import format_rows

    if len(table) == 0:
        return sep.join(head)
    rows = table.reshape(len(table), -1)
    step = max(1, _CHUNK // rows.shape[1])
    chunks = [
        format_rows(rows[i : i + step], sep).decode("ascii") for i in range(0, len(rows), step)
    ]
    chunks[-1] = chunks[-1][: -len(sep)]
    return "".join([*(line + sep for line in head), *chunks])


def _dumps_json(obj) -> str:
    """The JSON artifact format shared by every report: two-space indent, final newline."""
    return json.dumps(obj, indent=2) + "\n"


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _squared_norm(arr: np.ndarray) -> float:
    """sum(a_i^2) in one pass; raises StateFormatError on a non-finite entry.

    The one sum of squares left to BLAS: ``a @ a`` takes under half the
    time of :func:`_sum_of_squares` at 2^26, and this sum only decides the
    ``NORM_TOL`` check, never a result, so bits that depend on the CPU
    count do no harm here.  A finite sum proves every entry finite.  Only a
    non-finite sum needs the entrywise check, to tell a NaN or infinity from
    finite squares that overflow, such as (1e200, 1e200).  An adopted output
    that comes with a finite pair ``(a[0], sum(a[1:]))`` skips this pass:
    the pair is the proof.
    """
    with np.errstate(over="ignore"):
        sq = float(arr @ arr)
    if not math.isfinite(sq) and not np.isfinite(arr).all():
        raise StateFormatError("amplitudes must all be finite")
    return sq


def _require_dimension(n: int) -> None:
    """The rule every type here shares: a dimension is at least 2."""
    if n < 2:
        raise DimensionError(f"dimension must be at least 2, got {n}")


class _Adopted:
    """A float64 array the library has just built (see `_fresh`) and no one else holds,
    with its pair ``(a[0], sum(a[1:]))`` when the operator that built it has it."""

    __slots__ = ("array", "pair")

    def __init__(self, array: np.ndarray, pair: tuple[float, float] | None) -> None:
        self.array = array
        self.pair = pair


@dataclass(frozen=True, eq=False)
class StateVector:
    """Vector of real amplitudes, unit norm by default.

    The constructor copies its input and enforces sum(a_i^2) == 1 within
    ``NORM_TOL``.  Use :meth:`unnormalized` for intermediate values (linear
    combinations, operator outputs) whose norm is established elsewhere.
    Operator outputs (``apply``, ``amplify_optimal``, the Grover and
    relabeling maps) adopt the array they have just built instead of copying
    it; length and finiteness are checked either way.  An output built with
    its pair ``(a[0], sum(a[1:]))`` (``apply``) proves finiteness by that
    pair when both members are finite, since a pairwise sum with an inf or
    NaN term is inf or NaN, and keeps it as ``_reduced``; any other vector
    is checked by one ``a @ a`` pass.  The amplitude array is read-only, so
    instances can be shared freely across threads.
    """

    n: int
    amplitudes: np.ndarray
    check_norm: InitVar[bool] = True

    def __post_init__(self, check_norm: bool) -> None:
        _require_dimension(self.n)
        pair = None
        if isinstance(self.amplitudes, _Adopted):
            arr, pair = self.amplitudes.array, self.amplitudes.pair
        else:
            try:
                arr = np.array(self.amplitudes, dtype=np.float64)
            except OverflowError as exc:
                raise StateFormatError(f"amplitudes must fit in a float64: {exc}") from exc
        if arr.ndim != 1 or arr.shape[0] != self.n:
            raise DimensionError(f"expected {self.n} amplitudes, got shape {arr.shape}")
        # A pairwise sum with an inf or NaN term is inf or NaN, so a finite
        # pair proves every entry finite.
        if not check_norm and pair is not None and all(map(math.isfinite, pair)):
            object.__setattr__(self, "_reduced", pair)
        else:
            sq = _squared_norm(arr)
            if check_norm and abs(sq - 1.0) > NORM_TOL:
                raise NormalizationError(
                    f"squared norm {sq!r} deviates from 1 by more than {NORM_TOL}"
                )
        arr.flags.writeable = False
        object.__setattr__(self, "amplitudes", arr)

    @classmethod
    def unnormalized(cls, n: int, amplitudes) -> StateVector:
        """Construct without the unit-norm check; length and finiteness still apply."""
        return cls(n, amplitudes, check_norm=False)

    @classmethod
    def _adopt(
        cls, n: int, arr: np.ndarray, pair: tuple[float, float] | None = None
    ) -> StateVector:
        """:meth:`unnormalized` without the copy, for a float64 array the caller
        has just taken from :func:`_fresh`, filled and drops; the array becomes
        read-only in place.
        ``pair``, if given, must be ``(arr[0], np.sum(arr[1:]))`` bit for bit.
        It goes through the constructor, so the checks stay in one place."""
        return cls(n, _Adopted(arr, pair), check_norm=False)

    @cached_property
    def _reduced(self) -> tuple[float, float]:
        """The pair ``(a[0], sum(a[1:]))``: all that component 0 of any family
        member's output depends on, computed in one O(n) pass once per vector
        (the array is read-only), on two threads for a long tail, unless
        ``apply`` computed it while writing the vector.  A sum that overflows
        raises StateFormatError, with no warning."""
        tail = self.amplitudes[1:]
        with np.errstate(over="ignore", invalid="ignore"):
            tail_sum = _sum_by_halves(tail.shape[0], lambda lo, hi: np.sum(tail[lo:hi]))
        if not math.isfinite(tail_sum):
            raise StateFormatError("sum(a[1:]) overflows a float64")
        return float(self.amplitudes[0]), tail_sum

    @classmethod
    def uniform(cls, n: int) -> StateVector:
        """The equal-weight superposition (1, ..., 1)/sqrt(n)."""
        _require_dimension(n)
        return cls(n, np.full(n, 1.0 / math.sqrt(n)))

    @classmethod
    def basis(cls, n: int, index: int) -> StateVector:
        """The basis vector with a single unit component at ``index``."""
        if not 0 <= index < n:
            raise DimensionError(f"basis index {index} outside [0, {n})")
        arr = np.zeros(n)
        arr[index] = 1.0
        return cls(n, arr)

    def _scaled(self) -> tuple[np.ndarray, float, int]:
        """``(b, sum(b_i^2), e)`` with ``a = b * 2**e``.  ``b`` is ``a`` itself
        unless its sum of squares falls outside ``[_SQUARES_MIN, inf)`` while
        some entry is nonzero; then ``b`` is ``a`` scaled by the power of two
        that brings max|a_i| into [1/2, 1), exactly, subnormal entries
        included, so the squares neither overflow nor underflow (Blue's
        scaled norm, ACM TOMS 1978)."""
        a = self.amplitudes
        sq = _sum_of_squares(a)
        if _SQUARES_MIN <= sq < math.inf:
            return a, sq, 0
        big = float(max(a.max(), -a.min()))
        if big == 0.0:
            return a, sq, 0
        e = math.frexp(big)[1]
        b = np.ldexp(a, -e)
        return b, _sum_of_squares(b), e

    def norm(self) -> float:
        """sqrt(sum(a_i^2)) for any finite entries: the root of
        :func:`_sum_of_squares`, rescaled by :meth:`_scaled` out of range."""
        _, sq, e = self._scaled()
        return math.ldexp(math.sqrt(sq), e)

    def normalized(self) -> StateVector:
        """Rescale to exact unit norm; any nonzero finite vector has one."""
        b, sq, _ = self._scaled()
        if sq == 0.0:
            raise NormalizationError("cannot normalize the zero vector")
        return StateVector(self.n, b / math.sqrt(sq))

    def __repr__(self) -> str:
        shown = ", ".join(f"{x:.6g}" for x in self.amplitudes[:4])
        suffix = ", ..." if self.n > 4 else ""
        return f"StateVector(n={self.n}, [{shown}{suffix}])"


def dumps_state_vector(state: StateVector) -> str:
    """Serialize to the shared JSON format, each amplitude as ``'%.17g' % x``
    (17 significant digits, so loading it back gives the same bits)."""
    body = _join_records(", ", state.amplitudes)
    return f'{{"n": {state.n}, "amplitudes": [{body}]}}\n'


def loads_state_vector(text: str | bytes) -> StateVector:
    """Parse the shared JSON format, from ``str`` or UTF-8 ``bytes``;
    structural errors raise StateFormatError."""
    # Loaded on first use: a process that reads no state file never loads it.
    import orjson

    # A state document is one object around one flat list, so a second "["
    # or "{" marks an invalid one, or one that repeats a key.  orjson 3.8
    # crashes the process on a deep closed nest such as
    # "[" * 10**6 + "]" * 10**6, so no nest reaches it.  `find` runs at
    # memchr speed, where `count` would take milliseconds.
    for bracket in ("[", "{") if isinstance(text, str) else (b"[", b"{"):
        if text.find(bracket, text.find(bracket) + 1) >= 0:
            raise StateFormatError("expected one object around one flat list of amplitudes")
    try:
        obj = orjson.loads(text)
    except orjson.JSONDecodeError as exc:
        raise StateFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or set(obj) != {"n", "amplitudes"}:
        raise StateFormatError('expected an object with exactly "n" and "amplitudes"')
    n, amps = obj["n"], obj["amplitudes"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise StateFormatError('"n" must be an integer')
    # orjson builds exact int, float and bool, never a subclass, so one
    # scan of the types accepts ints and floats and rejects bools.
    if not isinstance(amps, list) or not set(map(type, amps)) <= {int, float}:
        raise StateFormatError('"amplitudes" must be a list of numbers')
    if len(amps) != n:
        raise StateFormatError(f'"n" is {n} but {len(amps)} amplitudes were given')
    return StateVector(n, amps)


def save_state_vector(state: StateVector, path) -> None:
    _write_text(path, dumps_state_vector(state))


def load_state_vector(path) -> StateVector:
    with open(path, "rb") as handle:
        return loads_state_vector(handle.read())
