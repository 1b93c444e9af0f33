"""Real unit vectors over the computational basis, plus their JSON file format."""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, NormalizationError, StateFormatError

NORM_TOL = 1e-9

# Rows formatted per `%` operation by `_join_records`.
_CHUNK = 4096


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
    overflow, such as (1e200, 1e200).
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
    """A float64 array the library has just allocated and no one else holds."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array


@dataclass(frozen=True, eq=False)
class StateVector:
    """Vector of real amplitudes, unit norm by default.

    The constructor copies its input and enforces sum(a_i^2) == 1 within
    ``NORM_TOL``.  Use :meth:`unnormalized` for intermediate values (linear
    combinations, operator outputs) whose norm is established elsewhere.
    Operator outputs (``apply``, ``amplify_optimal``, the Grover and
    relabeling maps) adopt the array they have just built instead of copying
    it; length and finiteness are checked either way.  The amplitude array is
    read-only, so instances can be shared freely across threads.
    """

    n: int
    amplitudes: np.ndarray
    check_norm: InitVar[bool] = True

    def __post_init__(self, check_norm: bool) -> None:
        _require_dimension(self.n)
        if isinstance(self.amplitudes, _Adopted):
            arr = self.amplitudes.array
        else:
            try:
                arr = np.array(self.amplitudes, dtype=np.float64)
            except OverflowError as exc:
                raise StateFormatError(f"amplitudes must fit in a float64: {exc}") from exc
        if arr.ndim != 1 or arr.shape[0] != self.n:
            raise DimensionError(f"expected {self.n} amplitudes, got shape {arr.shape}")
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
    def _adopt(cls, n: int, arr: np.ndarray) -> StateVector:
        """:meth:`unnormalized` without the copy, for a float64 array the caller
        has just allocated and drops; the array becomes read-only in place.
        It goes through the constructor, so the checks stay in one place."""
        return cls(n, _Adopted(arr), check_norm=False)

    @cached_property
    def _reduced(self) -> tuple[float, float]:
        """The pair ``(a[0], sum(a[1:]))``: all that component 0 of any family
        member's output depends on, computed in one O(n) pass once per vector
        (the array is read-only).  An overflowing sum is inf, with no warning:
        the output built from it is rejected."""
        with np.errstate(over="ignore"):
            return float(self.amplitudes[0]), float(np.sum(self.amplitudes[1:]))

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
