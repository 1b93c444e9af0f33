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
Every member is a signed Householder reflection with a closed form axis,
preceded for half of the 32 sign patterns by a sign flip of component 0,
as Grover's step is; `reflection_form` extracts the axis and the flip.
"""

from __future__ import annotations

__all__ = [
    "AmplifierSpec",
    "ReflectionForm",
    "SignChoice",
    "apply",
    "c_functional",
    "dense_matrix",
    "eta_functional",
    "isometry_residual",
    "make_spec",
    "make_spec_from_beta0",
    "reflection_form",
]

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import DimensionError, ParameterOutOfRange
from .state import (
    StateVector,
    _fresh,
    _real,
    _require_dimension,
    _require_same_dimension,
    _sign,
    _sum_by_leaves,
)

TWO_PI = 2.0 * math.pi

# Largest n `dense_matrix` builds: its float64 matrix takes 8 * n**2 bytes.
_DENSE_CAP = 4096

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
            object.__setattr__(self, name, _sign(name, getattr(self, name)))

    @property
    def effective(self) -> tuple[int, int]:
        """``(s0, eps2)`` with s0 = eps1*eps3*eps4: all the operator depends on, so
        the 32 patterns form four operator classes of eight (eps5 is inert)."""
        return self.eps1 * self.eps3 * self.eps4, self.eps2

    @property
    def admits_reflection(self) -> bool:
        """True when the member is eps2 * (1 - 2|u><u|), with no flip of component 0."""
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


@dataclass(frozen=True)
class AmplifierSpec:
    """A family member: dimension, mixing angle in [0, 2*pi), sign pattern.

    ``theta`` must be a real number, not a bool, finite with |theta| < 2**24,
    and is reduced modulo 2*pi at construction so the stored angle always
    lies in [0, 2*pi).
    ``cos`` and ``sin`` are taken from it once, here, or given exactly by a
    builder; every coefficient of the member is arithmetic on them, and
    ``theta`` itself is only validated and reported.
    ``dataclasses.replace`` retakes them from the rounded ``theta``, so
    rebuild a member with an exact pair through its builder instead.
    """

    n: int
    theta: float
    signs: SignChoice
    cos: float = field(init=False)
    sin: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _require_dimension(self.n))
        theta = _real("theta", self.theta)
        if not math.isfinite(theta):
            raise ParameterOutOfRange(f"theta must be finite, got {theta!r}")
        if abs(theta) >= _THETA_LIMIT:
            raise ParameterOutOfRange(
                "|theta| must be below 2**24, past which its value mod 2*pi is off by "
                f"over 1e-9 rad; got {theta!r}"
            )
        object.__setattr__(self, "theta", reduce_angle(theta))
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
    """Decomposition U = overall_sign * (1 - 2|u><u|) @ Z0 with a unit axis u, Z0
    negating component 0 if ``flips_component0``: flip, then reflect, as Grover's D @ Z."""

    overall_sign: int
    u: StateVector
    flips_component0: bool


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
    beta0 = _real("beta0", beta0)
    if not abs(beta0) <= 1.0:  # NaN included
        raise ParameterOutOfRange(f"|beta0| must not exceed 1, got {beta0!r}")
    sin = _sign("sign_gamma0", sign_gamma0) * math.sqrt((1.0 - beta0) * (1.0 + beta0))
    return _spec_from_pair(n, signs.eps3 * beta0, sin, signs)


def _spec_from_pair(n: int, cos: float, sin: float, signs: SignChoice) -> AmplifierSpec:
    """The member with the exact unit pair (cos(theta), sin(theta)), stored as
    given instead of recomputed from the rounded theta = atan2(sin, cos)."""
    spec = AmplifierSpec(n, math.atan2(sin, cos), signs)
    object.__setattr__(spec, "cos", cos)
    object.__setattr__(spec, "sin", sin)
    return spec


def _pair_image(spec: AmplifierSpec, a: StateVector) -> tuple[float, float, float]:
    """``(a[0], out[0], c(a))`` from the pair (a[0], S), read once: p*a0 + q*S and
    r*a0 + t*S, where r and t are ``gamma0`` and ``gamma_i`` bit for bit."""
    _require_same_dimension(a, spec.n, "spec")
    p, q, r, t = _block(spec.n, spec.cos, spec.sin, spec.signs.effective[0])
    a0, tail_sum = a._reduced
    return a0, p * a0 + q * tail_sum, r * a0 + t * tail_sum


def eta_functional(spec: AmplifierSpec, a: StateVector) -> float:
    """The linear functional feeding component 0: out[0] = eps1 * (a[0] + eta(a)).

    eta(a) = (-1 + eps4*beta0) * a[0] + eps4*eps3*gamma0 * sum(a[1:]).
    """
    a0, out0, _ = _pair_image(spec, a)
    return spec.signs.eps1 * out0 - a0


def c_functional(spec: AmplifierSpec, a: StateVector) -> float:
    """The linear functional added to every component except 0.

    c(a) = gamma0 * a[0] - (1 + eps3*beta0)/(n - 1) * sum(a[1:]).
    """
    return _pair_image(spec, a)[2]


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
    _, out0, c = _pair_image(spec, a)
    eps2, src = spec.signs.eps2, a.amplitudes[1:]
    out = _fresh(spec.n)
    dst = out[1:]

    def leaf(lo: int, hi: int) -> float:
        block = dst[lo:hi]
        np.add(src[lo:hi], c, out=block)
        if eps2 == -1:
            np.negative(block, out=block)
        return block.sum()

    out_sum = _sum_by_leaves(spec.n - 1, leaf)
    out[0] = out0
    return StateVector._adopt(spec.n, out, (out0, out_sum))


def dense_matrix(spec: AmplifierSpec) -> np.ndarray:
    """Materialize the operator as an (n, n) float array.

    Refuses dimensions above 4096 (quadratic memory) with DimensionError;
    the matrix-free :func:`apply` has no such limit.
    """
    if spec.n > _DENSE_CAP:
        raise DimensionError(f"n={spec.n} exceeds the dense cap {_DENSE_CAP}")
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


def reflection_form(spec: AmplifierSpec) -> ReflectionForm:
    """The member as U = eps2 * (1 - 2|u><u|) @ Z0: a sign flip plus a reflection.

    Z0 flips component 0 exactly when s0 = eps1*eps3*eps4 differs from eps2;
    the axis is

        u = (-s0*eps2*sin(theta/2), cos(theta/2)/sqrt(n-1), ..., cos(theta/2)/sqrt(n-1)),

    a unit vector whose last n-1 components are all equal.  For the Grover
    member it is the uniform vector, and the form is Grover's D @ Z.
    (cos(theta/2), sin(theta/2)) come from the stored pair, theta/2 in
    [0, pi): sin(theta/2) >= 0, and cos(theta/2) < 0 exactly when sin < 0.
    """
    s0, eps2 = spec.signs.effective
    cos, sin = spec.cos, spec.sin
    # Half-angle formulas on the branch that does not cancel: the larger
    # half is a square root, the other is sin / (2 * larger).
    if cos >= 0.0:
        half_cos = math.sqrt(0.5 * (1.0 + cos))
        if sin < 0.0:
            half_cos = -half_cos
        half_sin = sin / (2.0 * half_cos)
    else:
        half_sin = math.sqrt(0.5 * (1.0 - cos))
        half_cos = sin / (2.0 * half_sin)
    axis = np.full(spec.n, half_cos / math.sqrt(spec.n - 1))
    axis[0] = -s0 * eps2 * half_sin
    return ReflectionForm(eps2, StateVector._adopt(spec.n, axis), s0 != eps2)


def isometry_residual(spec: AmplifierSpec, a: StateVector) -> float:
    """| ||U a||^2 - ||a||^2 |, the certificate of norm preservation.

    Runs :func:`apply`, so an image that overflows raises StateFormatError.
    Both squared norms are the vectors' kept ``_squares``.
    """
    return abs(apply(spec, a)._squares - a._squares)
