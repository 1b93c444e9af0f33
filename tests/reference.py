"""Reference paths the library is held to.

`apply_reference` is the family in the paper's eta/c form, written with all
five signs and the coordinates beta0, gamma0; `optamp.family.apply` derives
every member from its 2x2 block instead.  `apply_two_pass` is that block
with the shift written as eps2 * (a + c), two passes and two allocations;
`apply` writes it in one pass and must match it bit for bit.  The two loops
apply the operator to the whole vector at every grid angle or step,
O(points * n) and O(steps * n); `theta_sweep` and `grover_iterate` must
agree with them within ``optamp.verify.FAST_PATH_TOL``.  `relabel_matrix`
is the dense form of `optamp.relabel_apply`.

The writers format one value per call with ``format(x, ".17g")``; the
library's chunked writers must give the same bytes.  `reference_loads_state_vector`
validates a state document element by element with ``isinstance``; the
library's single type scan must accept and reject the same documents.

The classic step's two factors, `flip_operator_apply` and `diffusion_apply`,
are `optamp.grover_apply` written as two operators; the one-array step must
match their composition bit for bit.  `basis`, `random_unit`,
`format_signs`, `flip_matrix`, `projector`, `is_absolute_optimal`,
`predicate`, `from_predicate`, `write_trace_csv` and `src_env` are helpers
only the tests use.
"""

import json
import os
from pathlib import Path
from typing import Callable

import numpy as np

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
from optamp.state import _fresh, _fresh_copy, _write_text


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


def flip_matrix(n: int) -> np.ndarray:
    z = np.eye(n)
    z[0, 0] = -1.0
    return z


def projector(n: int) -> np.ndarray:
    """|v><v| for the uniform unit vector v."""
    return np.full((n, n), 1.0 / n)


def is_absolute_optimal(report: AmplifyReport) -> bool:
    """True when the post-application probability of component 0 is 1 within tolerance."""
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


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def reference_dumps_state_vector(state: StateVector) -> str:
    body = ", ".join(format_float(x) for x in state.amplitudes)
    return f'{{"n": {state.n}, "amplitudes": [{body}]}}\n'


def reference_dumps_sweep_csv(rows) -> str:
    lines = [SWEEP_HEADER]
    for theta, amp in rows:
        lines.append(f"{format_float(theta)},{format_float(amp)},{format_float(amp * amp)}")
    return "\n".join(lines) + "\n"


def reference_dumps_trace_csv(rows) -> str:
    lines = [TRACE_HEADER]
    for step, amp, prob in rows:
        lines.append(f"{step},{format_float(amp)},{format_float(prob)}")
    return "\n".join(lines) + "\n"


def reference_loads_state_vector(text: str) -> StateVector:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
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
