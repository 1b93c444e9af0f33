"""Classic search: the step D @ Z (flip Z, then diffusion D about the uniform
vector), a family member.  On the pair (a[0], sum(a[1:])) it is the rational
block (1/n) * [[n - 2, 2], [-2(n - 1), n - 2]], which the trace iterates."""

from __future__ import annotations

__all__ = [
    "corollary_equivalence_check",
    "dumps_trace_csv",
    "grover_apply",
    "grover_iterate",
]

import math
from typing import Optional

import numpy as np

from .errors import ParameterOutOfRange
from .family import AmplifierSpec, SignChoice, _spec_from_pair, dense_matrix
from .state import StateVector, _fresh_copy, _integer, _join_records, _probability_table

TRACE_HEADER = "step,amplitude0,probability0"


def _classic_step(arr: np.ndarray) -> np.ndarray:
    """The classic step D @ Z on every column of ``arr``, in place: flip row 0,
    then reflect each column about its mean, x -> 2*mean - x.  Overflow gives
    inf and opposite infinities NaN, with no warning; the adopt check of
    :func:`grover_apply` refuses such an output."""
    arr[0] = -arr[0]
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(2.0 * np.mean(arr, axis=0), arr, out=arr)
    return arr


def grover_apply(a: StateVector) -> StateVector:
    """One search iteration: flip component 0, then reflect every component
    about the mean, a_i -> 2*mean(a) - a_i, in one array.

    ``tests/reference.py`` keeps the two-factor form, the flip and the
    diffusion as two operators, and this step must match it bit for bit.
    """
    return StateVector._adopt(a.n, _classic_step(_fresh_copy(a.amplitudes)))


def _grover_member(n: int) -> AmplifierSpec:
    """The family member equal to D @ Z: Grover signs, beta0 = (n - 2)/n, gamma0 > 0."""
    return _spec_from_pair(n, (n - 2) / n, 2.0 * math.sqrt(n - 1) / n, SignChoice.grover())


def grover_iterate(a: StateVector, steps: Optional[int] = None) -> np.ndarray:
    """Iterate the search operator: a ``(steps + 1, 3)`` float64 table of rows
    ``[step, |a[0]|, a[0]**2]`` from step 0.  ``steps`` defaults to
    ceil(2*sqrt(n)).

    Component 0 follows the reduced pair (a[0], S), S = sum(a[1:]), under
    D @ Z's exact map (a0, S) -> ((n-2)*a0 + 2*S, -2(n-1)*a0 + (n-2)*S) / n,
    each coefficient one correctly rounded quotient of integers: one O(n)
    reduction plus O(steps) scalar work.  The trace agrees with iterated
    :func:`grover_apply` to roundoff, not bit for bit.
    """
    if steps is None:
        steps = math.ceil(2.0 * math.sqrt(a.n))
    if (steps := _integer("steps", steps)) < 0:
        raise ParameterOutOfRange(f"steps must be nonnegative, got {steps}")
    n = a.n
    p, q, u = (n - 2) / n, 2 / n, -2 * (n - 1) / n
    x, tail_sum = a._reduced
    column = [x]
    for _ in range(steps):
        x, tail_sum = p * x + q * tail_sum, u * x + p * tail_sum
        column.append(x)
    return _probability_table(np.arange(steps + 1, dtype=np.float64), np.abs(column))


def corollary_equivalence_check(n: int) -> float:
    """Max entrywise gap between the family's Grover member and the classic
    step D @ Z applied to the identity; it should vanish to roundoff.  The
    gap is taken in place: two (n, n) arrays at peak."""
    gap = dense_matrix(_grover_member(n))
    gap -= _classic_step(np.eye(n))
    return float(np.max(np.abs(gap, out=gap)))


def dumps_trace_csv(rows: np.ndarray) -> str:
    """The CSV of a :func:`grover_iterate` table, or of any ``[step, amplitude0,
    probability0]`` rows."""
    # A step count below 2**53 is exact in a float64, written as one: 0.0, 1.0, ...
    table = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
    return _join_records(TRACE_HEADER, table)
