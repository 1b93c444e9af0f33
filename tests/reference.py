"""Reference paths the library is held to.

`apply_reference` is the family in the paper's eta/c form, written with all
five signs and the coordinates beta0, gamma0; `optamp.family.apply` derives
every member from its 2x2 block instead.  `apply_two_pass` is that block
with the shift written as eps2 * (a + c), two passes and two allocations;
`apply` writes it in one pass and must match it bit for bit.  The two loops
apply the operator to the whole vector at every grid angle or step,
O(points * n) and O(steps * n); `theta_sweep` and `grover_iterate` must
agree with them within ``optamp.verify.FAST_PATH_TOL``.  `exact_grover_trace`
is the trace with no rounding at all: D @ Z's rational pair map iterated in
integers.  `relabel_matrix`
is the dense form of `optamp.relabel_apply`.

The reference writers spell one value per call with ``repr``; the library's writers
spell each value as orjson does, which may differ from ``repr`` in notation
(``1e16`` for ``1e+16``, ``0.00001`` for ``1e-05``) but not in digits, so
`assert_same_numbers` compares two documents with every number token
replaced by `decimal_digits`, its sign, significant digits and exponent.
`format_17g` is the spelling of state files written before the writers
moved to shortest digits, which must still load.  `reference_loads_state_vector`
reads a state document with ``json`` held to the format's grammar, finite
float64 numbers only, and validates it element by element with
``isinstance``; the library's one orjson parse and byte scans must accept
and reject the same documents.

The classic step's two factors, `flip_operator_apply` and `diffusion_apply`,
are `optamp.grover_apply` written as two operators; the one-array step must
match their composition bit for bit.  `GroverOperator` writes the same step
as dense matrices, the diffusion `D` and the iteration `D @ Z`; the
library's in-place step applied to the identity must equal `matrix()` value
for value.  `random_unit` is the test suite's one seeded unit-vector
generator.  `reflection_matrix` rebuilds a member from its
`optamp.ReflectionForm`, the paper's sign flip plus a reflection, for
comparison with `optamp.dense_matrix`.  `assert_same_text` is
``assert got == want`` for whole documents, failing in linear time with
the first differing line.  `PUBLIC_MODULES`,
`basis`, `format_signs`, `flip_matrix`, `projector`, `is_absolute_optimal`,
`predicate`, `from_predicate`, `write_trace_csv` and `src_env` are helpers
only the tests use.
"""

import json
import math
import os
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path
from typing import Callable

import numpy as np

import optamp
from optamp import (
    AmplifyReport,
    DimensionError,
    ParameterOutOfRange,
    SearchProblem,
    SignChoice,
    StateFormatError,
    StateVector,
    dumps_trace_csv,
    grover_apply,
    make_spec,
)
from optamp.family import TWO_PI
from optamp.grover import TRACE_HEADER
from optamp.optimal import SWEEP_HEADER
from optamp.state import _fresh, _fresh_copy, _require_dimension, _write_text

# The modules that declare public names, in the order `optamp.__all__`
# concatenates their `__all__` lists.
PUBLIC_MODULES = (
    optamp.errors,
    optamp.family,
    optamp.grover,
    optamp.optimal,
    optamp.search,
    optamp.state,
)


def apply_reference(spec, arr: np.ndarray) -> np.ndarray:
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


def apply_two_pass(spec, arr: np.ndarray) -> np.ndarray:
    s0, eps2 = spec.signs.effective
    r, t = spec.gamma0, spec.gamma_i
    p, q = s0 * spec.signs.eps3 * spec.beta0, s0 * r
    a0 = float(arr[0])
    tail_sum = float(np.sum(arr[1:]))
    out = eps2 * (arr + (r * a0 + t * tail_sum))
    out[0] = p * a0 + q * tail_sum
    return out


def basis(n: int, index: int) -> StateVector:
    """The basis vector with a single unit component at ``index``."""
    if not 0 <= index < n:
        raise DimensionError(f"basis index {index} outside [0, {n})")
    arr = np.zeros(n)
    arr[index] = 1.0
    return StateVector(n, arr)


def random_unit(rng, n):
    """A unit vector in the direction of ``n`` standard normal draws."""
    raw = rng.standard_normal(n)
    return StateVector(n, raw / np.linalg.norm(raw))


def format_signs(signs: SignChoice) -> str:
    """The quintuple `SignChoice.from_string` parses, such as '+1,-1,+1,+1,+1'."""
    return ",".join(f"{s:+d}" for s in (signs.eps1, signs.eps2, signs.eps3, signs.eps4, signs.eps5))


def flip_operator_apply(a: StateVector) -> StateVector:
    """Negate component 0 and leave the rest untouched; self-inverse."""
    out = _fresh_copy(a.amplitudes)
    out[0] = -out[0]
    return StateVector._adopt(a.n, out)


def diffusion_apply(a: StateVector) -> StateVector:
    """Reflect about the uniform superposition: a_i -> 2*mean(a) - a_i."""
    arr = a.amplitudes
    return StateVector._adopt(a.n, np.subtract(2.0 * float(np.mean(arr)), arr, out=_fresh(a.n)))


@dataclass(frozen=True)
class GroverOperator:
    """Dense views of the diffusion D and of the iteration D @ Z."""

    n: int

    def __post_init__(self) -> None:
        _require_dimension(self.n)

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


def reflection_matrix(form) -> np.ndarray:
    """overall_sign * (1 - 2|u><u|) @ Z0: column 0 negated when the form flips it."""
    axis = form.u.amplitudes
    m = form.overall_sign * (np.eye(axis.size) - 2.0 * np.outer(axis, axis))
    if form.flips_component0:
        m[:, 0] = -m[:, 0]
    return m


def flip_matrix(n: int) -> np.ndarray:
    z = np.eye(n)
    z[0, 0] = -1.0
    return z


def projector(n: int) -> np.ndarray:
    """|v><v| for the uniform unit vector v."""
    return np.full((n, n), 1.0 / n)


def is_absolute_optimal(report: AmplifyReport) -> bool:
    """True when component 0 ends up holding the input's whole norm, within tolerance."""
    return report.absolute


def predicate(p: SearchProblem, index: int) -> bool:
    """The membership test: true exactly on the marked index."""
    return index == p.marked


def from_predicate(n: int, predicate: Callable[[int], bool]) -> SearchProblem:
    """Locate the marked index by evaluating the predicate on every basis index."""
    hits = [i for i in range(n) if predicate(i)]
    if len(hits) != 1:
        raise ParameterOutOfRange(
            f"predicate must mark exactly one index in [0, {n}), marked {len(hits)}"
        )
    return SearchProblem(n, hits[0])


def relabel_matrix(p: SearchProblem) -> np.ndarray:
    """The relabeling involution as a permutation matrix (differs from the
    identity in at most four entries)."""
    m = np.eye(p.n)
    if p.marked != 0:
        m[0, 0] = m[p.marked, p.marked] = 0.0
        m[0, p.marked] = m[p.marked, 0] = 1.0
    return m


def reference_theta_sweep(a: StateVector, signs=None, points: int = 1000):
    if signs is None:
        signs = SignChoice.all_plus()
    rows = []
    for k in range(points):
        theta = TWO_PI * k / points
        out = apply_reference(make_spec(a.n, theta, signs), a.amplitudes)
        rows.append((theta, abs(float(out[0]))))
    return rows


def reference_grover_iterate(a: StateVector, steps: int):
    current = a
    amp = abs(float(current.amplitudes[0]))
    rows = [(0, amp, amp * amp)]
    for step in range(1, steps + 1):
        current = grover_apply(current)
        amp = abs(float(current.amplitudes[0]))
        rows.append((step, amp, amp * amp))
    return rows


def exact_grover_trace(n: int, x: float, S: float, steps: int) -> list[tuple[int, int]]:
    """a[0] after k = 0..steps exact steps of D @ Z from the pair (x, S), as
    ``(X_k, D * n**k)`` with a[0] = X_k / (D * n**k).

    With D the common denominator of x and S, X = D*x and T = D*S are
    integers, and the map (a0, S) -> ((n-2)*a0 + 2*S, -2(n-1)*a0 + (n-2)*S) / n
    is X' = (n-2)*X + 2*T, T' = -2(n-1)*X + (n-2)*T over one more factor n.
    """
    x, S = Fraction(x), Fraction(S)
    scale = math.lcm(x.denominator, S.denominator)
    X, T = int(x * scale), int(S * scale)
    rows = [(X, scale)]
    for _ in range(steps):
        X, T = (n - 2) * X + 2 * T, -2 * (n - 1) * X + (n - 2) * T
        scale *= n
        rows.append((X, scale))
    return rows


def repr_float(x) -> str:
    return repr(float(x))


def format_17g(x) -> str:
    return format(float(x), ".17g")


def reference_dumps_state_vector(state: StateVector, spell=repr_float, sep: str = ",") -> str:
    """The state document with each amplitude spelled by ``spell`` and the
    amplitudes separated by ``sep``; ``(format_17g, ", ")`` gives the format
    written before shortest digits."""
    body = sep.join(map(spell, state.amplitudes.tolist()))
    return f'{{"n": {state.n}, "amplitudes": [{body}]}}\n'


def reference_dumps_sweep_csv(rows) -> str:
    lines = [SWEEP_HEADER]
    for theta, amp in rows:
        amp = float(amp)
        lines.append(",".join(map(repr_float, (theta, amp, amp * amp))))
    return "\n".join(lines) + "\n"


def reference_dumps_trace_csv(rows) -> str:
    lines = [TRACE_HEADER]
    for row in rows:
        lines.append(",".join(map(repr_float, row)))
    return "\n".join(lines) + "\n"


def decimal_digits(token: str) -> str:
    """The number a decimal token spells, as its sign, its significant digits
    without leading or trailing zeros, and its exponent: one text for
    ``1e16``, ``1e+16`` and ``10000000000000000.0``, and another for each
    other number; ``-0.0`` keeps its sign."""
    return str(Decimal(token).normalize())


# A number token of the writers' documents: JSON's grammar, plus `repr`'s
# nan, inf and -inf.
NUMBER = re.compile(r"-?(?:nan|inf|\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")


def assert_same_numbers(got: str, want: str) -> None:
    """`assert_same_text` of the two documents with every number token
    replaced by its `decimal_digits`: the same layout, and the same digits
    and exponent in every token, however each is spelled."""

    def canonical(text: str) -> str:
        return NUMBER.sub(lambda match: decimal_digits(match.group()), text)

    assert_same_text(canonical(got), canonical(want))


def assert_same_text(got: str, want: str) -> None:
    """Fail unless ``got == want``, naming the first line that differs and
    the column where it does.  pytest's own report on a failing ``==`` of two
    long strings is an ndiff, quadratic in the number of differing lines."""
    if got == want:
        return
    # Lines keep their ends, so they join back to the whole text: unequal
    # texts always differ in some line, a missing one reading as "".
    pairs = zip_longest(got.splitlines(True), want.splitlines(True), fillvalue="")
    line, (g, w) = next((i, pair) for i, pair in enumerate(pairs, 1) if pair[0] != pair[1])
    col = next((i for i, (x, y) in enumerate(zip(g, w)) if x != y), min(len(g), len(w)))
    start = max(0, col - 60)
    raise AssertionError(
        f"texts differ at line {line}, column {col + 1}:\n"
        f"  got:  {g[start : col + 60]!r}\n  want: {w[start : col + 60]!r}"
    )


def _finite_float(text: str) -> float:
    x = float(text)  # inf past the float64 range, where float() does not raise
    if not math.isfinite(x):
        raise ValueError(f"{text} is not a finite float64")
    return x


def _finite_int(text: str) -> int:
    _finite_float(text)
    return int(text)


def reference_loads_state_vector(text: str) -> StateVector:
    """The state format read by its grammar: RFC 8259 JSON whose numbers are
    finite float64 values, so NaN, Infinity and 1e400 are not valid JSON."""
    try:
        obj = json.loads(
            text, parse_constant=_finite_float, parse_float=_finite_float, parse_int=_finite_int
        )
    except (ValueError, RecursionError) as exc:
        raise StateFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or set(obj) != {"n", "amplitudes"}:
        raise StateFormatError('expected an object with exactly "n" and "amplitudes"')
    n, amps = obj["n"], obj["amplitudes"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise StateFormatError('"n" must be an integer')
    if not isinstance(amps, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in amps
    ):
        raise StateFormatError('"amplitudes" must be a list of numbers')
    if len(amps) != n:
        raise StateFormatError(f'"n" is {n} but {len(amps)} amplitudes were given')
    return StateVector(n, amps)


def write_trace_csv(rows, path) -> None:
    _write_text(path, dumps_trace_csv(rows))


def src_env() -> dict[str, str]:
    """The environment for a child process, with this checkout's ``src``
    first on ``PYTHONPATH``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
