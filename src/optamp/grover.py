"""Classic search: flip Z, diffusion D about the uniform vector, and D @ Z, a family member."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterOutOfRange
from .family import AmplifierSpec, SignChoice, _pair_block, _spec_from_pair, dense_matrix
from .state import StateVector, _fresh, _fresh_copy, _join_records, _require_dimension, _write_text

TRACE_HEADER = "step,amplitude0,probability0"

TraceRow = tuple[int, float, float]


def flip_operator_apply(a: StateVector) -> StateVector:
    """Negate component 0 and leave the rest untouched; self-inverse."""
    out = _fresh_copy(a.amplitudes)
    out[0] = -out[0]
    return StateVector._adopt(a.n, out)


def diffusion_apply(a: StateVector) -> StateVector:
    """Reflect about the uniform superposition: a_i -> 2*mean(a) - a_i."""
    arr = a.amplitudes
    return StateVector._adopt(a.n, np.subtract(2.0 * float(np.mean(arr)), arr, out=_fresh(a.n)))


def grover_apply(a: StateVector) -> StateVector:
    """One search iteration: flip component 0, then diffuse, in one array.

    The same arithmetic as ``diffusion_apply(flip_operator_apply(a))``, so
    the same bits, with the diffusion written over the flipped copy.
    """
    out = _fresh_copy(a.amplitudes)
    out[0] = -out[0]
    np.subtract(2.0 * float(np.mean(out)), out, out=out)
    return StateVector._adopt(a.n, out)


@dataclass(frozen=True)
class GroverOperator:
    """Dense views of the flip Z, uniform projector P, diffusion D, and D @ Z."""

    n: int

    def __post_init__(self) -> None:
        _require_dimension(self.n)

    def flip_matrix(self) -> np.ndarray:
        z = np.eye(self.n)
        z[0, 0] = -1.0
        return z

    def projector(self) -> np.ndarray:
        """|v><v| for the uniform unit vector v."""
        return np.full((self.n, self.n), 1.0 / self.n)

    def diffusion_matrix(self) -> np.ndarray:
        """2|v><v| - 1, built in one (n, n) array."""
        d = np.full((self.n, self.n), 2.0 / self.n)
        d[np.diag_indices(self.n)] -= 1.0
        return d

    def matrix(self) -> np.ndarray:
        """The full iteration operator D @ Z: D with column 0 negated, exact
        because Z = diag(-1, 1, ..., 1), and O(n**2) instead of a product."""
        m = self.diffusion_matrix()
        m[:, 0] = -m[:, 0]
        return m


def _grover_member(n: int) -> AmplifierSpec:
    """The family member equal to D @ Z: Grover signs, beta0 = (n - 2)/n, gamma0 > 0."""
    return _spec_from_pair(n, (n - 2) / n, 2.0 * math.sqrt(n - 1) / n, SignChoice.grover())


def grover_iterate(a: StateVector, steps: int) -> list[TraceRow]:
    """Iterate the search operator, recording (step, |a[0]|, a[0]**2) from step 0.

    D @ Z is the family's Grover member, so component 0 follows the reduced
    pair (a[0], sum(a[1:])) under that member's 2x2 map: one O(n) reduction
    plus O(steps) scalar work.  The trace agrees with iterated
    :func:`grover_apply` to roundoff, not bit for bit.
    """
    if steps < 0:
        raise ParameterOutOfRange(f"steps must be nonnegative, got {steps}")
    p, q, u, v = _pair_block(_grover_member(a.n))
    x, tail_sum = a._reduced
    amp = abs(x)
    rows: list[TraceRow] = [(0, amp, amp * amp)]
    for step in range(1, steps + 1):
        x, tail_sum = p * x + q * tail_sum, u * x + v * tail_sum
        amp = abs(x)
        rows.append((step, amp, amp * amp))
    return rows


def corollary_equivalence_check(n: int) -> float:
    """Max entrywise gap between the family's Grover member and the classic
    operator D @ Z; it should vanish to roundoff.  The gap is taken in
    place: two (n, n) arrays at peak."""
    gap = dense_matrix(_grover_member(n))
    gap -= GroverOperator(n).matrix()
    return float(np.max(np.abs(gap, out=gap)))


def dumps_trace_csv(rows: list[TraceRow]) -> str:
    # A step count is exact in a float64 and prints through %d as the integer.
    table = np.array(rows, dtype=np.float64).reshape(-1, 3)
    return _join_records("\n", "%d,%.17g,%.17g", table, head=(TRACE_HEADER,)) + "\n"


def write_trace_csv(rows: list[TraceRow], path) -> None:
    _write_text(path, dumps_trace_csv(rows))
