"""Every public operation on finite vectors at the ends of the float64 range
returns or raises a ValueError subclass, and emits no numpy warning."""

import math
import warnings

import numpy as np

from optamp import (
    SearchProblem,
    SignChoice,
    StateVector,
    amplify_optimal,
    apply,
    c_functional,
    dumps_state_vector,
    dumps_sweep_csv,
    dumps_trace_csv,
    eta_functional,
    grover_apply,
    grover_iterate,
    isometry_residual,
    make_spec,
    optimal_theta,
    relabel_apply,
    theta_sweep,
)

# Magnitudes whose sums, squares and products overflow or underflow.
EXTREMES = [
    1.7976931348623157e308,
    -1.7976931348623157e308,
    1e308,
    -1e308,
    1e200,
    -1e200,
    1e-300,
    5e-324,
    0.0,
    -0.0,
    1.0,
]

DRAWS = 3000


def operations(vec: StateVector, theta: float, signs: SignChoice, marked: int, points: int):
    """The named calls on one draw, each a thunk."""
    spec = make_spec(vec.n, theta, signs)
    return {
        "apply": lambda: apply(spec, vec),
        "eta_functional": lambda: eta_functional(spec, vec),
        "c_functional": lambda: c_functional(spec, vec),
        "optimal_theta": lambda: optimal_theta(vec),
        "amplify_optimal": lambda: amplify_optimal(vec, signs)[1].to_json(),
        "theta_sweep": lambda: dumps_sweep_csv(theta_sweep(vec, points)),
        "grover_iterate": lambda: dumps_trace_csv(grover_iterate(vec, points)),
        "grover_apply": lambda: grover_apply(vec),
        "relabel_apply": lambda: relabel_apply(SearchProblem(vec.n, marked), vec),
        "isometry_residual": lambda: isometry_residual(spec, vec),
        "norm": vec.norm,
        "normalized": lambda: dumps_state_vector(vec.normalized()),
        "dumps_state_vector": lambda: dumps_state_vector(vec),
    }


def test_extreme_finite_inputs_return_or_raise_without_warnings():
    rng = np.random.default_rng(20261021)
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(DRAWS):
            n = int(rng.integers(2, 6))
            values = [EXTREMES[i] for i in rng.integers(0, len(EXTREMES), n)]
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            signs = SignChoice(*(int(s) for s in rng.choice((-1, 1), 5)))
            marked, points = int(rng.integers(0, n)), int(rng.integers(2, 17))
            vec = StateVector.unnormalized(n, values)
            for name, call in operations(vec, theta, signs, marked, points).items():
                try:
                    call()
                except ValueError:
                    pass
                except Warning as exc:
                    failures.append((name, values, theta, signs, points, exc))
    assert not failures, (sorted({failure[0] for failure in failures}), failures[:3])
