"""One-parameter family of real orthogonal amplification operators.

Each member mixes component 0 of a vector with the sum of the remaining
components, the only structure that can trade weight between one marked
slot and the rest while staying isometric.  A member is selected by a
dimension ``n``, a mixing angle ``theta``, and five signs.  Two derived
coordinates describe it completely:

* ``beta0``  = eps3 * cos(theta), the self-weight of component 0;
* ``gamma0`` = sin(theta) / sqrt(n - 1), the cross-coupling weight;

which always satisfy (n - 1) * gamma0**2 + beta0**2 == 1, so the pair
traces an ellipse as theta sweeps [0, 2*pi).  Exactly half of the 32 sign
patterns make the operator a signed Householder reflection with a closed
form axis; `reflection_form` extracts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DenseCapExceeded, DimensionError, ParameterOutOfRange
from .state import StateVector

TWO_PI = 2.0 * math.pi

DENSE_CAP_DEFAULT = 4096


@dataclass(frozen=True)
class SignChoice:
    """The five +/-1 signs selecting a member of the operator family.

    ``eps1`` and ``eps2`` scale the output components (slot 0 and the rest
    respectively); ``eps3``, ``eps4`` flip the derived coefficients; ``eps5``
    duplicates the half-plane of the mixing angle (the sign of sin(theta))
    and is kept for interface completeness only.
    """

    eps1: int
    eps2: int
    eps3: int
    eps4: int
    eps5: int

    def __post_init__(self) -> None:
        for name in ("eps1", "eps2", "eps3", "eps4", "eps5"):
            value = getattr(self, name)
            if value not in (-1, 1):
                raise ParameterOutOfRange(f"{name} must be -1 or +1, got {value!r}")

    @property
    def admits_reflection(self) -> bool:
        """True when the member can be written as eps2 * (1 - 2|u><u|)."""
        return self.eps2 == self.eps1 * self.eps4 * self.eps3

    @classmethod
    def all_plus(cls) -> SignChoice:
        """The default reflection-admitting pattern (+1, +1, +1, +1, +1)."""
        return cls(+1, +1, +1, +1, +1)

    @classmethod
    def grover(cls) -> SignChoice:
        """The pattern under which the family reproduces the classic search operator."""
        return cls(+1, -1, +1, +1, +1)

    @classmethod
    def enumerate(cls) -> list[SignChoice]:
        """All 32 sign patterns in a fixed order."""
        return [cls(*bits) for bits in product((-1, +1), repeat=5)]

    @classmethod
    def from_string(cls, text: str) -> SignChoice:
        """Parse a comma-separated quintuple such as '+1,-1,+1,+1,+1'."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 5:
            raise ParameterOutOfRange(f"expected five comma-separated signs, got {text!r}")
        try:
            values = [int(p) for p in parts]
        except ValueError as exc:
            raise ParameterOutOfRange(f"signs must be integers: {text!r}") from exc
        return cls(*values)

    def to_string(self) -> str:
        return ",".join(f"{s:+d}" for s in (self.eps1, self.eps2, self.eps3, self.eps4, self.eps5))


@dataclass(frozen=True)
class AmplifierSpec:
    """A family member: dimension, mixing angle in [0, 2*pi), sign pattern.

    All coefficients below are pure functions of ``(n, theta, signs)`` and
    recomputing them is idempotent.  ``theta`` is reduced modulo 2*pi at
    construction so the stored angle always lies in [0, 2*pi).
    """

    n: int
    theta: float
    signs: SignChoice

    def __post_init__(self) -> None:
        if self.n < 2:
            raise DimensionError(f"dimension must be at least 2, got {self.n}")
        if not math.isfinite(self.theta):
            raise ParameterOutOfRange(f"theta must be finite, got {self.theta!r}")
        reduced = self.theta % TWO_PI
        if reduced >= TWO_PI:  # float % can round up to the modulus itself
            reduced = 0.0
        object.__setattr__(self, "theta", reduced)

    @property
    def beta0(self) -> float:
        return self.signs.eps3 * math.cos(self.theta)

    @property
    def gamma0(self) -> float:
        return math.sin(self.theta) / math.sqrt(self.n - 1)

    @property
    def gamma_i(self) -> float:
        """Shared coefficient of components 1..n-1 inside the c functional."""
        return -(1.0 + self.signs.eps3 * self.beta0) / (self.n - 1)

    @property
    def eta0(self) -> float:
        """Coefficient of component 0 inside the eta functional."""
        return -1.0 + self.signs.eps4 * self.beta0

    @property
    def eta_i(self) -> float:
        """eps3 * gamma0; the eta functional applies a further eps4 to it."""
        return self.signs.eps3 * self.gamma0


@dataclass(frozen=True)
class ReflectionForm:
    """Decomposition U = overall_sign * (1 - 2|u><u|) with a unit axis u."""

    overall_sign: int
    u: StateVector


@dataclass(frozen=True)
class ConditionViolated:
    """Returned when a sign pattern admits no reflection decomposition.

    A normal outcome, not an error: it certifies eps2 != eps1*eps4*eps3.
    """

    signs: SignChoice


def make_spec(n: int, theta: float, signs: SignChoice) -> AmplifierSpec:
    """Build a family member from the mixing angle."""
    return AmplifierSpec(n, theta, signs)


def make_spec_from_beta0(
    n: int, beta0: float, sign_gamma0: int, signs: SignChoice
) -> AmplifierSpec:
    """Build a family member from beta0 and the sign of gamma0.

    Recovers the angle via cos(theta) = eps3 * beta0 with sin(theta) signed
    by ``sign_gamma0``; round-trips with :func:`make_spec` up to roundoff.
    """
    if abs(beta0) > 1.0:
        raise ParameterOutOfRange(f"|beta0| must not exceed 1, got {beta0!r}")
    if sign_gamma0 not in (-1, 1):
        raise ParameterOutOfRange(f"sign_gamma0 must be -1 or +1, got {sign_gamma0!r}")
    theta = math.atan2(
        sign_gamma0 * math.sqrt(1.0 - beta0 * beta0), signs.eps3 * beta0
    )
    return AmplifierSpec(n, theta, signs)


def _reduce(arr: np.ndarray) -> tuple[float, float]:
    """The pair ``(a[0], sum(a[1:]))``: all that component 0 of any member's
    output depends on, computed in one O(n) pass."""
    return float(arr[0]), float(np.sum(arr[1:]))


def _require_same_dimension(spec: AmplifierSpec, a: StateVector) -> None:
    if a.n != spec.n:
        raise DimensionError(f"state has dimension {a.n}, spec expects {spec.n}")


def eta_functional(spec: AmplifierSpec, a: StateVector) -> float:
    """The linear functional feeding component 0.

    eta(a) = (-1 + eps4*beta0) * a[0] + eps4*eps3*gamma0 * sum(a[1:]).
    """
    _require_same_dimension(spec, a)
    signs = spec.signs
    a0, tail_sum = _reduce(a.amplitudes)
    return spec.eta0 * a0 + signs.eps4 * signs.eps3 * spec.gamma0 * tail_sum


def c_functional(spec: AmplifierSpec, a: StateVector) -> float:
    """The linear functional added to every component except 0.

    c(a) = gamma0 * a[0] - (1 + eps3*beta0)/(n - 1) * sum(a[1:]).
    """
    _require_same_dimension(spec, a)
    a0, tail_sum = _reduce(a.amplitudes)
    return spec.gamma0 * a0 + spec.gamma_i * tail_sum


def _apply_array(spec: AmplifierSpec, arr: np.ndarray) -> np.ndarray:
    """O(n) evaluation on a raw array; preserves whatever norm the input has."""
    signs = spec.signs
    beta0 = spec.beta0
    gamma0 = spec.gamma0
    a0 = float(arr[0])
    tail_sum = float(np.sum(arr[1:]))
    eta = (-1.0 + signs.eps4 * beta0) * a0 + signs.eps4 * signs.eps3 * gamma0 * tail_sum
    c = gamma0 * a0 - (1.0 + signs.eps3 * beta0) / (spec.n - 1) * tail_sum
    out = signs.eps2 * (arr + c)
    out[0] = signs.eps1 * (a0 + eta)
    return out


def apply(spec: AmplifierSpec, a: StateVector) -> StateVector:
    """Apply the operator without materializing a matrix.

    Component 0 becomes eps1 * (a[0] + eta(a)); every other component i
    becomes eps2 * (a[i] + c(a)).  The map is an isometry, so the output
    norm equals the input norm up to roundoff.
    """
    _require_same_dimension(spec, a)
    return StateVector.unnormalized(spec.n, _apply_array(spec, a.amplitudes))


def dense_matrix(spec: AmplifierSpec, cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
    """Materialize the operator as an (n, n) float array.

    Refuses dimensions above ``cap`` (quadratic memory); the matrix-free
    :func:`apply` has no such limit.
    """
    if spec.n > cap:
        raise DenseCapExceeded(f"n={spec.n} exceeds the dense cap {cap}")
    signs = spec.signs
    n = spec.n
    m = np.full((n, n), signs.eps2 * spec.gamma_i)
    diag = np.arange(1, n)
    m[diag, diag] += signs.eps2
    m[0, 0] = signs.eps1 * signs.eps4 * spec.beta0
    m[0, 1:] = signs.eps1 * signs.eps4 * signs.eps3 * spec.gamma0
    m[1:, 0] = signs.eps2 * spec.gamma0
    return m


def reflection_form(spec: AmplifierSpec) -> ReflectionForm | ConditionViolated:
    """Extract the reflection axis, when the sign pattern admits one.

    The decomposition U = eps2 * (1 - 2|u><u|) exists exactly when
    eps2 == eps1*eps4*eps3; the axis is then

        u = (-sin(theta/2), cos(theta/2)/sqrt(n-1), ..., cos(theta/2)/sqrt(n-1)),

    a unit vector whose last n-1 components are all equal.
    """
    if not spec.signs.admits_reflection:
        return ConditionViolated(spec.signs)
    half = 0.5 * spec.theta
    axis = np.full(spec.n, math.cos(half) / math.sqrt(spec.n - 1))
    axis[0] = -math.sin(half)
    return ReflectionForm(spec.signs.eps2, StateVector(spec.n, axis))


def isometry_residual(spec: AmplifierSpec, a: StateVector) -> float:
    """| ||U a||^2 - ||a||^2 |, the certificate of norm preservation."""
    _require_same_dimension(spec, a)
    out = _apply_array(spec, a.amplitudes)
    return abs(float(out @ out) - float(a.amplitudes @ a.amplitudes))
