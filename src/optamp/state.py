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

# Rows formatted per `%` operation by `_join_records`.
_CHUNK = 4096

# From this many elements up, `_by_halves` runs an O(n) pass on two threads.
_PARALLEL_MIN = 2**20

# Large arrays `_fresh` keeps for reuse: one chain step's input and its image.
_RING_SIZE = 2

# Elements per leaf of `_tree`: 512 KiB of float64, so a leaf's source and
# output blocks fit in a 2 MiB L2 cache together.
_LEAF = 2**16


def _split(m: int) -> int:
    """numpy's pairwise-sum split point of a contiguous run of ``m`` elements."""
    return m // 2 - (m // 2) % 8


def _by_halves(m: int, fn) -> tuple:
    """``(fn(0, m),)``, or ``(fn(0, h), fn(h, m))`` with the second half on a
    worker thread when ``m >= _PARALLEL_MIN`` and the process may run on two
    CPUs.  ``h = _split(m)``, so ``np.sum(x[:h]) + np.sum(x[h:])`` is
    ``np.sum(x)`` bit for bit.  The worker runs under the caller's numpy
    error state, which does not reach a new thread by itself.
    """
    if m < _PARALLEL_MIN or _cpus() < 2:
        return (fn(0, m),)
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
    return first, second


def _tree(lo: int, hi: int, leaf) -> float:
    """``leaf(lo, hi)`` for at most ``_LEAF`` elements, else the ``_tree``
    values of the two sides of ``_split(hi - lo)`` added left + right.  With
    ``leaf(lo, hi) = np.sum(x[lo:hi])`` that is ``np.sum(x[lo:hi])`` bit for
    bit: numpy's pairwise sum splits a contiguous run at the same points.
    """
    if hi - lo <= _LEAF:
        return leaf(lo, hi)
    h = lo + _split(hi - lo)
    return _tree(lo, h, leaf) + _tree(h, hi, leaf)


def _sum_by_halves(m: int, fn) -> float:
    """``np.sum`` of a run of ``m`` elements from ``fn(lo, hi)``, its
    ``np.sum`` over ``[lo, hi)``, run on each part of :func:`_by_halves`.
    Call it under ``np.errstate(over="ignore", invalid="ignore")``."""
    parts = _by_halves(m, fn)
    # np.sum never returns -0.0, so one part is its own np.sum; two are
    # added as numpy's pairwise sum adds the halves.
    return float(parts[0]) if len(parts) == 1 else float(np.sum(parts))


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
    fault in and zero a new allocation.  A free-threaded build, where
    another thread may take a reference between the count and the hand-out,
    always allocates.
    """
    if n < _PARALLEL_MIN or not getattr(sys, "_is_gil_enabled", lambda: True)():
        return np.empty(n)
    with _ring_lock:
        for i in range(len(_ring)):
            if (
                _ring[i].shape[0] == n
                and _refs(_ring, i) == _ALONE
                and not weakref.getweakrefcount(_ring[i])
            ):
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


def _join_records(sep: str, record: str, table: np.ndarray, head: tuple[str, ...] = ()) -> str:
    """The ``head`` lines, then ``record`` filled from each row of ``table``,
    joined by ``sep``; a 1-D ``table`` has one value per row.

    Each run of ``_CHUNK`` rows is formatted by one ``%`` on one format
    string, which costs a fraction of a call per value and keeps only one
    chunk's Python floats alive.  ``%.17g`` gives the same bytes as
    ``format(x, ".17g")`` for every double, and 17 significant digits
    round-trip any double exactly.
    """
    chunks = [
        sep.join([record] * len(chunk)) % tuple(chunk.ravel().tolist())
        for chunk in (table[i : i + _CHUNK] for i in range(0, len(table), _CHUNK))
    ]
    return sep.join([*head, *chunks])


def _dumps_json(obj) -> str:
    """The JSON artifact format shared by every report: two-space indent, final newline."""
    return json.dumps(obj, indent=2) + "\n"


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _squared_norm(arr: np.ndarray) -> float:
    """sum(a_i^2) in one pass; raises StateFormatError on a non-finite entry.

    A finite sum proves every entry finite.  Only a non-finite sum needs the
    entrywise check, to tell a NaN or infinity from finite squares that
    overflow, such as (1e200, 1e200).  An adopted output that comes with a
    finite pair ``(a[0], sum(a[1:]))`` skips this pass: the pair is the proof.
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

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> StateVector:
        """Rescale to exact unit norm."""
        norm = self.norm()
        if norm == 0.0:
            raise NormalizationError("cannot normalize the zero vector")
        return StateVector(self.n, self.amplitudes / norm)

    def __repr__(self) -> str:
        shown = ", ".join(f"{x:.6g}" for x in self.amplitudes[:4])
        suffix = ", ..." if self.n > 4 else ""
        return f"StateVector(n={self.n}, [{shown}{suffix}])"


def dumps_state_vector(state: StateVector) -> str:
    """Serialize to the shared JSON format with 17-significant-digit floats."""
    body = _join_records(", ", "%.17g", state.amplitudes)
    return f'{{"n": {state.n}, "amplitudes": [{body}]}}\n'


def loads_state_vector(text: str) -> StateVector:
    """Parse the shared JSON format; structural errors raise StateFormatError."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise StateFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or set(obj) != {"n", "amplitudes"}:
        raise StateFormatError('expected an object with exactly "n" and "amplitudes"')
    n, amps = obj["n"], obj["amplitudes"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise StateFormatError('"n" must be an integer')
    # json.loads builds exact int, float and bool, never a subclass, so one
    # scan of the types accepts ints and floats and rejects bools.
    if not isinstance(amps, list) or not set(map(type, amps)) <= {int, float}:
        raise StateFormatError('"amplitudes" must be a list of numbers')
    if len(amps) != n:
        raise StateFormatError(f'"n" is {n} but {len(amps)} amplitudes were given')
    return StateVector(n, amps)


def save_state_vector(state: StateVector, path) -> None:
    _write_text(path, dumps_state_vector(state))


def load_state_vector(path) -> StateVector:
    with open(path, "r", encoding="utf-8") as handle:
        return loads_state_vector(handle.read())
