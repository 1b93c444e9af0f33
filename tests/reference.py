"""Reference paths the library is held to.

`apply_reference` is the family in the paper's eta/c form, written with all
five signs and the coordinates beta0, gamma0; `optamp.family.apply` derives
every member from its 2x2 block instead.  `apply_two_pass` is that block
with the shift written as eps2 * (a + c), two passes and two allocations;
`apply` writes it in one pass and must match it bit for bit.  The two loops
apply the operator to the whole vector at every grid angle or step,
O(points * n) and O(steps * n); `theta_sweep` and `grover_iterate` must
agree with them within ``optamp.verify.FAST_PATH_TOL``.
"""

import numpy as np

from optamp import SignChoice, StateVector, grover_apply, make_spec
from optamp.family import TWO_PI, _block


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
    p, q, r, t = _block(spec.n, spec.theta, s0)
    a0 = float(arr[0])
    tail_sum = float(np.sum(arr[1:]))
    out = eps2 * (arr + (r * a0 + t * tail_sum))
    out[0] = p * a0 + q * tail_sum
    return out


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
