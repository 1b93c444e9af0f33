"""Classic fixed-axis search: flip, diffusion about the uniform vector, their product."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterOutOfRange
from .family import DENSE_CAP_DEFAULT, SignChoice, _reduce, dense_matrix, make_spec_from_beta0
from .state import StateVector, format_float

TRACE_HEADER = "step,amplitude0,probability0"

TraceRow = tuple[int, float, float]


def flip_operator_apply(a: StateVector) -> StateVector:
    """Negate component 0 and leave the rest untouched; self-inverse."""
    out = a.amplitudes.copy()
    out[0] = -out[0]
    return StateVector.unnormalized(a.n, out)


def diffusion_apply(a: StateVector) -> StateVector:
    """Reflect about the uniform superposition: a_i -> 2*mean(a) - a_i."""
    arr = a.amplitudes
    return StateVector.unnormalized(a.n, 2.0 * float(np.mean(arr)) - arr)


def grover_apply(a: StateVector) -> StateVector:
    """One search iteration: flip component 0, then diffuse."""
    return diffusion_apply(flip_operator_apply(a))


@dataclass(frozen=True)
class GroverOperator:
    """Dense views of the flip Z, uniform projector P, diffusion D, and D @ Z."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise DimensionError(f"dimension must be at least 2, got {self.n}")

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
        """The full iteration operator, diffusion after flip."""
        return self.diffusion_matrix() @ self.flip_matrix()


def _grover_pair(n: int) -> tuple[float, float]:
    """Exact (cos, sin) of the classic step's rotation on span{e0, w}."""
    return (n - 2) / n, 2.0 * math.sqrt(n - 1) / n


def grover_iterate(a: StateVector, steps: int) -> list[TraceRow]:
    """Iterate the search operator, recording (step, |a[0]|, a[0]**2) from step 0.

    D @ Z is a rotation on span{e0, w}, with w the uniform unit vector over
    slots 1..n-1, and -1 on its complement.  Component 0 therefore follows
    the pair (x, y) = (a[0], sum(a[1:])/sqrt(n-1)) under the 2x2 block
    [[c, s], [-s, c]], c = (n-2)/n, s = 2*sqrt(n-1)/n: one O(n) reduction
    plus O(steps) scalar work.  The trace agrees with iterated
    :func:`grover_apply` to roundoff, not bit for bit.
    """
    if steps < 0:
        raise ParameterOutOfRange(f"steps must be nonnegative, got {steps}")
    n = a.n
    x, tail_sum = _reduce(a.amplitudes)
    y = tail_sum / math.sqrt(n - 1)
    c, s = _grover_pair(n)
    amp = abs(x)
    rows: list[TraceRow] = [(0, amp, amp * amp)]
    for step in range(1, steps + 1):
        x, y = c * x + s * y, c * y - s * x
        amp = abs(x)
        rows.append((step, amp, amp * amp))
    return rows


def corollary_equivalence_check(n: int, cap: int = DENSE_CAP_DEFAULT) -> float:
    """Max entrywise gap between the embedded family member and the classic operator.

    The embedding uses the Grover sign pattern with beta0 = (n - 2)/n and
    positive gamma0; the gap should vanish to roundoff.  The classic operator
    D @ Z is built as D with column 0 negated, exact because Z = diag(-1, 1,
    ..., 1), so the check costs O(n**2) rather than an O(n**3) product, and
    the gap is taken in place: two (n, n) arrays at peak.
    """
    beta0, _ = _grover_pair(n)
    gap = dense_matrix(make_spec_from_beta0(n, beta0, +1, SignChoice.grover()), cap=cap)
    classic = GroverOperator(n).diffusion_matrix()
    classic[:, 0] = -classic[:, 0]
    gap -= classic
    return float(np.max(np.abs(gap, out=gap)))


def dumps_trace_csv(rows: list[TraceRow]) -> str:
    lines = [TRACE_HEADER]
    for step, amp, prob in rows:
        lines.append(f"{step},{format_float(amp)},{format_float(prob)}")
    return "\n".join(lines) + "\n"


def write_trace_csv(rows: list[TraceRow], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_trace_csv(rows))
