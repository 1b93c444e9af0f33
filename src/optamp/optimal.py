"""Mixing-angle selection that maximizes component 0 for a given input vector."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterOutOfRange, SumZero
from .family import TWO_PI, SignChoice, _apply_array, _block, make_spec, reduce_angle
from .state import StateVector, _dumps_json, _write_text, format_float

SWEEP_HEADER = "theta,amplitude0,probability0"

# Post-application probability within this distance of 1 counts as absolute.
ABSOLUTE_TOL = 1e-9

SweepRow = tuple[float, float]


@dataclass(frozen=True)
class AmplifyReport:
    """Outcome of one amplification at the optimal (or a requested) angle.

    ``post_amplitude0`` and ``post_probability0`` store magnitudes; the
    amplified vector itself keeps its signs.
    """

    theta_star: float
    pre_amplitude0: float
    post_amplitude0: float
    post_probability0: float
    absolute: bool

    @classmethod
    def from_arrays(cls, theta: float, before: np.ndarray, after: np.ndarray) -> AmplifyReport:
        """The report for the member at ``theta`` mapping ``before`` to ``after``."""
        post_amplitude = abs(float(after[0]))
        return cls(
            theta_star=theta,
            pre_amplitude0=float(before[0]),
            post_amplitude0=post_amplitude,
            post_probability0=post_amplitude**2,
            absolute=post_amplitude**2 >= 1.0 - ABSOLUTE_TOL,
        )

    def to_json(self) -> str:
        return _dumps_json(asdict(self))


def optimal_theta(a: StateVector) -> float:
    """The mixing angle maximizing the post-application magnitude of component 0.

    Solves the stationarity condition

        -sin(theta) * a[0] + cos(theta) * sum(a[1:]) / sqrt(n - 1) == 0

    on the maximizing branch, i.e. atan2(sum(a[1:]), a[0] * sqrt(n - 1)),
    returned in [0, 2*pi).  Raises :class:`SumZero` when sum(a[1:]) == 0:
    no family member can then increase component 0 at all.
    """
    a0, tail_sum = a._reduced
    if tail_sum == 0.0:
        raise SumZero("sum of components 1..n-1 is zero; component 0 is already extremal")
    return reduce_angle(math.atan2(tail_sum, a0 * math.sqrt(a.n - 1)))


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
    theta_star = optimal_theta(a)
    spec = make_spec(a.n, theta_star, signs)
    out = _apply_array(spec, a.amplitudes, a._reduced)
    report = AmplifyReport.from_arrays(theta_star, a.amplitudes, out)
    return StateVector._adopt(a.n, out), report


def theta_sweep(
    a: StateVector, signs: SignChoice | None = None, points: int = 1000
) -> list[SweepRow]:
    """Post-application magnitude of component 0 over an even grid on [0, 2*pi).

    Brute-force companion to :func:`optimal_theta`: the sweep maximum never
    exceeds the optimum beyond roundoff.  Every member maps component 0 to
    s0*(a[0]*cos(theta) + sin(theta)/sqrt(n-1) * S) with s0 = +/-1 and
    S = sum(a[1:]), so the magnitudes do not depend on ``signs`` and the
    sweep costs one O(n) reduction plus O(points) scalar work.  They agree
    with :func:`optamp.family.apply` at each grid angle to roundoff, not
    bit for bit.
    """
    if points < 2:
        raise ParameterOutOfRange(f"points must be at least 2, got {points}")
    a0, tail_sum = a._reduced
    theta = TWO_PI * np.arange(points) / points
    p, q, _, _ = _block(a.n, theta, 1)
    amp = np.abs(p * a0 + q * tail_sum)
    return list(zip(theta.tolist(), amp.tolist()))


def is_absolute_optimal(report: AmplifyReport) -> bool:
    """True when the post-application probability of component 0 is 1 within tolerance."""
    return report.absolute


def dumps_sweep_csv(rows: list[SweepRow]) -> str:
    lines = [SWEEP_HEADER]
    for theta, amp in rows:
        lines.append(f"{format_float(theta)},{format_float(amp)},{format_float(amp * amp)}")
    return "\n".join(lines) + "\n"


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    _write_text(path, dumps_sweep_csv(rows))
