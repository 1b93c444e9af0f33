"""One-parameter family of real orthogonal amplification operators.

Each member mixes component 0 of a vector with the sum of the remaining
components, the only structure that can trade weight between one marked
slot and the rest while staying isometric.  A member is selected by a
dimension ``n``, a mixing angle ``theta``, and five signs.  Two derived
coordinates describe it completely:

* ``beta0``  = eps3 * cos(theta), the self-weight of component 0;
* ``gamma0`` = sin(theta) / sqrt(n - 1), the cross-coupling weight;

which always satisfy (n - 1) * gamma0**2 + beta0**2 == 1, so the pair
traces an ellipse as theta sweeps [0, 2*pi).  A member keeps (cos(theta),
sin(theta)) beside theta, taken once from it or given exactly (the Grover
member, `make_spec_from_beta0`); every coefficient is arithmetic on them.
Exactly half of the 32 sign patterns make the operator a signed Householder
reflection with a closed form axis; `reflection_form` extracts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import DenseCapExceeded, DimensionError, ParameterOutOfRange
from .state import (
    StateVector,
    _fresh,
    _require_dimension,
    _sum_by_halves,
    _tree,
)

TWO_PI = 2.0 * math.pi

DENSE_CAP_DEFAULT = 4096

# From |theta| = 2**24 up, half an ulp of theta exceeds 1e-9 rad, so the
# angle left after reduction mod 2*pi is no longer known to that accuracy.
_THETA_LIMIT = 2.0**24


def reduce_angle(theta: float) -> float:
    """``theta`` modulo 2*pi in [0, 2*pi); float % can round a tiny negative angle up to 2*pi."""
    reduced = theta % TWO_PI
    return 0.0 if reduced >= TWO_PI else reduced


def _block(n: int, cos, sin, s0: int):
    """The family formula from a member's stored (cos, sin), or a grid's arrays; no trig.

    With S = sum(a[1:]), every member maps component 0 to p*a[0] + q*S and
    each other component i to eps2 * (a[i] + c(a)), c(a) = r*a[0] + t*S.
    On span{e0, w}, w the uniform unit vector over slots 1..n-1, in the
    coordinates (a[0], S/sqrt(n-1)), that is the 2x2 block
    diag(s0, eps2) @ [[cos, sin], [sin, -cos]]; on the rest of the space it
    is eps2 * I.
    """
    r = sin / math.sqrt(n - 1)
    return s0 * cos, s0 * r, r, -(1.0 + cos) / (n - 1)


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
    def effective(self) -> tuple[int, int]:
        """``(s0, eps2)`` with s0 = eps1*eps3*eps4: all the operator depends on, so
        the 32 patterns form four operator classes of eight (eps5 is inert)."""
        return self.eps1 * self.eps3 * self.eps4, self.eps2

    @property
    def admits_reflection(self) -> bool:
        """True when the member can be written as eps2 * (1 - 2|u><u|)."""
        return self.effective[0] == self.eps2

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

    ``theta`` must be finite with |theta| < 2**24, and is reduced modulo
    2*pi at construction so the stored angle always lies in [0, 2*pi).
    ``cos`` and ``sin`` are taken from it once, here, or given exactly by a
    builder; every coefficient below is arithmetic on them.
    ``dataclasses.replace`` retakes them from the rounded ``theta``, so
    rebuild a member with an exact pair through its builder instead.
    """

    n: int
    theta: float
    signs: SignChoice
    cos: float = field(init=False)
    sin: float = field(init=False)

    def __post_init__(self) -> None:
        _require_dimension(self.n)
        if not math.isfinite(self.theta):
            raise ParameterOutOfRange(f"theta must be finite, got {self.theta!r}")
        if abs(self.theta) >= _THETA_LIMIT:
            raise ParameterOutOfRange(
                "|theta| must be below 2**24, past which its value mod 2*pi is off by "
                f"over 1e-9 rad; got {self.theta!r}"
            )
        object.__setattr__(self, "theta", reduce_angle(self.theta))
        object.__setattr__(self, "cos", float(np.cos(self.theta)))
        object.__setattr__(self, "sin", float(np.sin(self.theta)))

    @property
    def beta0(self) -> float:
        """eps3 * cos(theta): the ``p`` of :func:`_block` with eps3 in place of s0."""
        return _block(self.n, self.cos, self.sin, self.signs.eps3)[0]

    @property
    def gamma0(self) -> float:
        return _block(self.n, self.cos, self.sin, self.signs.eps3)[2]

    @property
    def gamma_i(self) -> float:
        """Shared coefficient of components 1..n-1 inside the c functional."""
        return _block(self.n, self.cos, self.sin, self.signs.eps3)[3]

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

    Keeps cos(theta) = eps3 * beta0 as given, so the member's beta0 is exact,
    and sin(theta) = sqrt((1 - beta0)*(1 + beta0)) signed by ``sign_gamma0``;
    round-trips with :func:`make_spec` up to roundoff.
    """
    if abs(beta0) > 1.0:
        raise ParameterOutOfRange(f"|beta0| must not exceed 1, got {beta0!r}")
    if sign_gamma0 not in (-1, 1):
        raise ParameterOutOfRange(f"sign_gamma0 must be -1 or +1, got {sign_gamma0!r}")
    sin = sign_gamma0 * math.sqrt((1.0 - beta0) * (1.0 + beta0))
    return _spec_from_pair(n, signs.eps3 * beta0, sin, signs)


def _spec_from_pair(n: int, cos: float, sin: float, signs: SignChoice) -> AmplifierSpec:
    """The member with the exact unit pair (cos(theta), sin(theta)), stored as
    given instead of recomputed from the rounded theta = atan2(sin, cos)."""
    spec = AmplifierSpec(n, math.atan2(sin, cos), signs)
    object.__setattr__(spec, "cos", cos)
    object.__setattr__(spec, "sin", sin)
    return spec


def _pair_block(spec: AmplifierSpec) -> tuple[float, float, float, float]:
    """``(p, q, u, v)``: the member maps the pair (a[0], S) to (p*a0 + q*S, u*a0 + v*S),
    the new S being the sum of eps2 * (a[i] + c(a)) over slots 1..n-1.  v is
    -eps2*cos, taken from p to avoid the cancellation in eps2 * (1 + (n-1)*t)."""
    s0, eps2 = spec.signs.effective
    p, q, r, _ = _block(spec.n, spec.cos, spec.sin, s0)
    return p, q, eps2 * (spec.n - 1) * r, -eps2 * s0 * p


def _require_same_dimension(spec: AmplifierSpec, a: StateVector) -> None:
    if a.n != spec.n:
        raise DimensionError(f"state has dimension {a.n}, spec expects {spec.n}")


def eta_functional(spec: AmplifierSpec, a: StateVector) -> float:
    """The linear functional feeding component 0: out[0] = eps1 * (a[0] + eta(a)).

    eta(a) = (-1 + eps4*beta0) * a[0] + eps4*eps3*gamma0 * sum(a[1:]).
    """
    _require_same_dimension(spec, a)
    p, q, _, _ = _block(spec.n, spec.cos, spec.sin, spec.signs.effective[0])
    a0, tail_sum = a._reduced
    return spec.signs.eps1 * (p * a0 + q * tail_sum) - a0


def c_functional(spec: AmplifierSpec, a: StateVector) -> float:
    """The linear functional added to every component except 0.

    c(a) = gamma0 * a[0] - (1 + eps3*beta0)/(n - 1) * sum(a[1:]).
    """
    _require_same_dimension(spec, a)
    a0, tail_sum = a._reduced
    return spec.gamma0 * a0 + spec.gamma_i * tail_sum


def apply(spec: AmplifierSpec, a: StateVector) -> StateVector:
    """Apply the operator without materializing a matrix.

    Component 0 becomes eps1 * (a[0] + eta(a)); every other component i
    becomes eps2 * (a[i] + c(a)).  The map is an isometry, so the output
    norm equals the input norm up to roundoff.  The output is one array from
    ``state._fresh``, written in one pass, negated in place when eps2 == -1:
    bit-identical to eps2 * (a + c), signed zeros included, which (-c) - a
    would not be.
    Slots 1..n-1 are written in ``_LEAF``-element blocks along numpy's
    pairwise-sum tree, and each block is summed while it is still in cache,
    so the output comes with its pair (out[0], sum(out[1:])), the sum
    bit-identical to ``np.sum(out[1:])``; a long vector runs in two halves
    on two threads, with the same bits.  An entry or tail sum that
    overflows is inf, with no warning; an inf entry is refused.
    """
    _require_same_dimension(spec, a)
    s0, eps2 = spec.signs.effective
    p, q, r, t = _block(spec.n, spec.cos, spec.sin, s0)
    a0, tail_sum = a._reduced
    src, c = a.amplitudes[1:], r * a0 + t * tail_sum
    out = _fresh(spec.n)
    dst = out[1:]

    def leaf(lo: int, hi: int) -> float:
        block = dst[lo:hi]
        np.add(src[lo:hi], c, out=block)
        if eps2 == -1:
            np.negative(block, out=block)
        return block.sum()

    with np.errstate(over="ignore", invalid="ignore"):
        out_sum = _sum_by_halves(spec.n - 1, lambda lo, hi: _tree(lo, hi, leaf))
    out[0] = out0 = p * a0 + q * tail_sum
    return StateVector._adopt(spec.n, out, (out0, out_sum))


def dense_matrix(spec: AmplifierSpec, cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
    """Materialize the operator as an (n, n) float array.

    Refuses dimensions above ``cap`` (quadratic memory); the matrix-free
    :func:`apply` has no such limit.
    """
    if spec.n > cap:
        raise DenseCapExceeded(f"n={spec.n} exceeds the dense cap {cap}")
    n = spec.n
    s0, eps2 = spec.signs.effective
    p, q, r, t = _block(n, spec.cos, spec.sin, s0)
    m = np.full((n, n), eps2 * t)
    diag = np.arange(1, n)
    m[diag, diag] += eps2
    m[0, 0] = p
    m[0, 1:] = q
    m[1:, 0] = eps2 * r
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
    """| ||U a||^2 - ||a||^2 |, the certificate of norm preservation.

    Runs :func:`apply`, so an image that overflows raises StateFormatError.
    Both squared norms are numpy pairwise sums rather than BLAS dot
    products, which are split by the thread count, so the residual is the
    same on any number of CPUs.
    """
    out, x = apply(spec, a).amplitudes, a.amplitudes
    with np.errstate(over="ignore", invalid="ignore"):
        return abs(float(np.sum(out * out)) - float(np.sum(x * x)))
