"""Full-vector reference loops for the O(n + k) sweep and Grover trace.

Each applies the operator to the whole vector at every grid angle or step,
O(points * n) and O(steps * n).  `theta_sweep` and `grover_iterate` must
agree with them within ``optamp.verify.FAST_PATH_TOL``.
"""

from optamp import SignChoice, StateVector, grover_apply, make_spec
from optamp.family import TWO_PI, _apply_array


def reference_theta_sweep(a: StateVector, signs=None, points: int = 1000):
    if signs is None:
        signs = SignChoice.all_plus()
    rows = []
    for k in range(points):
        theta = TWO_PI * k / points
        out = _apply_array(make_spec(a.n, theta, signs), a.amplitudes)
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
