"""Mixing-angle selection that maximizes component 0 for a given input vector."""

from __future__ import annotations

__all__ = [
    "AmplifyReport",
    "amplify_optimal",
    "dumps_sweep_csv",
    "optimal_theta",
    "theta_sweep",
]

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterOutOfRange
from .family import TWO_PI, AmplifierSpec, SignChoice, _block, apply, make_spec, reduce_angle
from .state import StateVector, _dumps_json, _integer, _join_records, _probability_table

SWEEP_HEADER = "theta,amplitude0,probability0"

# Grid points of a sweep that names none.
SWEEP_POINTS = 1000

# Component 0 holding all but this share of the input's squared norm counts as absolute.
ABSOLUTE_TOL = 1e-9


@dataclass(frozen=True)
class AmplifyReport:
    """Outcome of one amplification at the optimal (or a requested) angle.

    ``post_amplitude0`` and ``post_probability0`` store magnitudes; the
    amplified vector itself keeps its signs.  ``absolute`` says whether
    component 0 holds the input's whole norm, within ``ABSOLUTE_TOL``, at
    any finite scale.
    """

    theta_star: float
    pre_amplitude0: float
    post_amplitude0: float
    post_probability0: float
    absolute: bool

    def to_json(self) -> str:
        return _dumps_json(asdict(self))


def optimal_theta(a: StateVector) -> float:
    """The mixing angle maximizing the post-application magnitude of component 0.

    Solves the stationarity condition

        -sin(theta) * a[0] + cos(theta) * sum(a[1:]) / sqrt(n - 1) == 0

    on the maximizing branch, i.e. atan2(sum(a[1:]), a[0] * sqrt(n - 1)),
    returned in [0, 2*pi).  Every finite input has one: the reachable
    maximum is sqrt(a[0]**2 + S**2/(n-1)), so at S = sum(a[1:]) == 0 the
    input is already optimal, and the angle is 0 for a[0] >= +0.0 (the
    identity on component 0) or pi for a[0] < 0 or a[0] == -0.0 (its sign
    flipped).
    """
    a0, tail_sum = a._reduced
    return reduce_angle(math.atan2(tail_sum, a0 * math.sqrt(a.n - 1)))


def _amplify(a: StateVector, spec: AmplifierSpec) -> tuple[StateVector, AmplifyReport]:
    """Apply ``spec`` to ``a`` and report the member's angle and component 0."""
    out = apply(spec, a)
    post_amplitude = abs(float(out.amplitudes[0]))
    post_probability = post_amplitude * post_amplitude
    return out, AmplifyReport(
        theta_star=spec.theta,
        pre_amplitude0=float(a.amplitudes[0]),
        post_amplitude0=post_amplitude,
        post_probability0=post_probability,
        absolute=post_amplitude >= math.sqrt(1.0 - ABSOLUTE_TOL) * a.norm(),
    )


def amplify_optimal(
    a: StateVector, signs: SignChoice | None = None
) -> tuple[StateVector, AmplifyReport]:
    """Apply the family member at the optimal angle.

    With S = sum(a[1:]), component 0 afterwards carries magnitude
    sqrt(a[0]**2 + S**2/(n-1)) and every other component i holds
    eps2 * (a[i] - S/(n-1)): the mean of the off-0 components is subtracted
    from each, and the freed weight lands on component 0.  The angle and the
    operator share one reduction of ``a``.
    """
    if signs is None:
        signs = SignChoice.all_plus()
    return _amplify(a, make_spec(a.n, optimal_theta(a), signs))


def theta_sweep(a: StateVector, points: int = SWEEP_POINTS) -> np.ndarray:
    """Post-application magnitude of component 0 over an even grid on [0, 2*pi),
    as a ``(points, 2)`` float64 table of rows ``[theta, amplitude0]``.

    Brute-force companion to :func:`optimal_theta`: the sweep maximum never
    exceeds the optimum beyond roundoff.  Every member maps component 0 to
    s0*(a[0]*cos(theta) + sin(theta)/sqrt(n-1) * S) with s0 = +/-1 and
    S = sum(a[1:]), so the magnitudes are the same for all 32 sign
    patterns and the sweep takes none.  It costs one O(n) reduction plus
    O(points) scalar work.  The magnitudes agree with
    :func:`optamp.family.apply` at each grid angle to roundoff, not bit for
    bit.
    """
    if (points := _integer("points", points)) < 2:
        raise ParameterOutOfRange(f"points must be at least 2, got {points}")
    a0, tail_sum = a._reduced
    theta = TWO_PI * np.arange(points) / points
    p, q, _, _ = _block(a.n, np.cos(theta), np.sin(theta), 1)
    with np.errstate(over="ignore"):  # past the float64 range: inf, as in Python
        return np.column_stack([theta, np.abs(p * a0 + q * tail_sum)])


def dumps_sweep_csv(rows: np.ndarray) -> str:
    """The CSV of a :func:`theta_sweep` table, or of any ``[theta, amplitude0]`` rows."""
    theta, amp = np.asarray(rows, dtype=np.float64).reshape(-1, 2).T
    return _join_records(SWEEP_HEADER, _probability_table(theta, amp))
