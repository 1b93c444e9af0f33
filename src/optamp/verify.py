"""Seeded randomized invariant battery backing the `verify` CLI command."""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterOutOfRange
from .family import (
    TWO_PI,
    SignChoice,
    apply,
    dense_matrix,
    isometry_residual,
    make_spec,
    reflection_form,
)
from .grover import corollary_equivalence_check, grover_apply, grover_iterate
from .optimal import amplify_optimal, theta_sweep
from .search import SearchProblem, one_step_search
from .state import StateVector, _integer, _require_dimension

# Dense-backed checks (matrix reconstruction, involution products) run at a
# clamped dimension so `verify` stays fast at any requested n.
DENSE_CHECK_MAX = 256

# Largest gap allowed between a reduced-pair fast path (`grover_iterate`,
# `theta_sweep`) and the full-vector reference it replaces.
FAST_PATH_TOL = 1e-12

# Random members and vectors drawn for the isometry and ellipse checks.
_CASES = 100


def random_unit_vector(rng: np.random.Generator, n: int) -> StateVector:
    """Normalize a standard-normal sample; the documented generator contract."""
    n = _require_dimension(n)
    return StateVector._adopt(n, rng.standard_normal(n)).normalized()


def run_verification(seed: int, n: int) -> dict:
    """Run the invariant battery; returns a JSON-ready summary dict.

    ``seed`` is a non-negative integer of any size, ``n`` a dimension; both
    follow the package's integer rule and are echoed as ``int``.
    Deterministic for a fixed (seed, n): the artifact bytes are
    reproducible run to run.  Matrix-free checks use the full dimension n;
    dense checks use min(n, DENSE_CHECK_MAX).  The last two checks hold the
    O(n + k) sweep and Grover trace to their full-vector references.  Each
    check keeps its worst residual with ``np.maximum``, which, unlike
    ``max``, keeps a NaN; a non-finite worst is written as null and fails.
    """
    if (seed := _integer("seed", seed)) < 0:
        raise ParameterOutOfRange(f"seed must be non-negative, got {seed}")
    n = _require_dimension(n)
    rng = np.random.default_rng(seed)
    sign_pool = SignChoice.enumerate()
    dense_n = min(n, DENSE_CHECK_MAX)
    checks: list[dict] = []

    def record(name: str, worst: float, tolerance: float) -> None:
        worst = float(worst)
        checks.append(
            {
                "name": name,
                "worst": worst if math.isfinite(worst) else None,
                "tolerance": tolerance,
                "passed": worst <= tolerance,
            }
        )

    worst_iso = 0.0
    worst_ellipse = 0.0
    for i in range(_CASES):
        spec = make_spec(n, float(rng.uniform(0.0, TWO_PI)), sign_pool[i % len(sign_pool)])
        vec = random_unit_vector(rng, n)
        worst_iso = np.maximum(worst_iso, isometry_residual(spec, vec))
        worst_ellipse = np.maximum(
            worst_ellipse, abs((n - 1) * spec.gamma0**2 + spec.beta0**2 - 1.0)
        )
    record("isometry_residual", worst_iso, 1e-10)
    record("ellipse_constraint", worst_ellipse, 1e-12)

    worst_dense = 0.0
    worst_linear = 0.0
    for _ in range(8):
        spec = make_spec(
            dense_n, float(rng.uniform(0.0, TWO_PI)), sign_pool[int(rng.integers(32))]
        )
        vec = random_unit_vector(rng, dense_n)
        image = apply(spec, vec).amplitudes
        dense_out = dense_matrix(spec) @ vec.amplitudes
        worst_dense = np.maximum(worst_dense, np.max(np.abs(dense_out - image)))
        other = random_unit_vector(rng, dense_n)
        alpha, beta = (float(x) for x in rng.uniform(-2.0, 2.0, size=2))
        mix = StateVector.unnormalized(dense_n, alpha * vec.amplitudes + beta * other.amplitudes)
        combined = apply(spec, mix).amplitudes
        split = alpha * image + beta * apply(spec, other).amplitudes
        worst_linear = np.maximum(worst_linear, np.max(np.abs(combined - split)))
    record("dense_matches_apply", worst_dense, 1e-12)
    record("linearity", worst_linear, 1e-12)

    worst_refl = 0.0
    worst_invol = 0.0
    flips_match_condition = True
    eye = np.eye(dense_n)
    for signs in sign_pool:
        spec = make_spec(dense_n, float(rng.uniform(0.0, TWO_PI)), signs)
        form = reflection_form(spec)
        if form.flips_component0 == signs.admits_reflection:
            flips_match_condition = False
        axis = form.u.amplitudes
        rebuilt = form.overall_sign * (eye - 2.0 * np.outer(axis, axis))
        if form.flips_component0:  # (1 - 2|u><u|) @ Z0: column 0 negated
            rebuilt[:, 0] = -rebuilt[:, 0]
        dense = dense_matrix(spec)
        worst_refl = np.maximum(worst_refl, np.max(np.abs(dense - rebuilt)))
        if signs.admits_reflection:  # one of the 16 reflections, so an involution
            worst_invol = np.maximum(worst_invol, np.max(np.abs(dense @ dense - eye)))
    record("reflection_reconstruction", worst_refl, 1e-12)
    record("reflection_involution", worst_invol, 1e-10)
    record("reflection_condition_detected", 0.0 if flips_match_condition else 1.0, 0.0)

    record("grover_embedding_gap", corollary_equivalence_check(dense_n), 1e-12)

    worst_sweep = 0.0
    worst_grad = 0.0
    for _ in range(3):
        vec = random_unit_vector(rng, n)
        _, report = amplify_optimal(vec)
        sweep_max = float(np.max(theta_sweep(vec, points=200)[:, 1]))
        worst_sweep = np.maximum(worst_sweep, sweep_max - report.post_amplitude0)
        theta_star = report.theta_star
        h = 1e-6
        signs = SignChoice.all_plus()
        up = abs(float(apply(make_spec(n, theta_star + h, signs), vec).amplitudes[0]))
        down = abs(float(apply(make_spec(n, theta_star - h, signs), vec).amplitudes[0]))
        worst_grad = np.maximum(worst_grad, abs(up - down) / (2.0 * h))
    record("sweep_never_exceeds_optimum", worst_sweep, 1e-9)
    record("stationarity_gradient", worst_grad, 1e-5)

    marked = int(rng.integers(n))
    found, amplitude = one_step_search(SearchProblem(n, marked))
    record("one_step_search_amplitude", abs(amplitude - 1.0), 1e-9)
    record("one_step_search_found_marked", 0.0 if found == marked else 1.0, 0.0)

    current = vec = random_unit_vector(rng, n)
    iterated = [abs(float(current.amplitudes[0]))]
    for _ in range(32):
        current = grover_apply(current)
        iterated.append(abs(float(current.amplitudes[0])))
    traced = grover_iterate(vec, 32)[:, 1]
    record("grover_trace_matches_iteration", np.max(np.abs(traced - iterated)), FAST_PATH_TOL)

    vec = random_unit_vector(rng, n)
    signs = sign_pool[int(rng.integers(32))]
    worst_sweep_apply = np.max(
        [
            abs(amp - abs(float(apply(make_spec(n, theta, signs), vec).amplitudes[0])))
            for theta, amp in theta_sweep(vec, points=64).tolist()
        ]
    )
    record("sweep_matches_apply", worst_sweep_apply, FAST_PATH_TOL)

    return {
        "seed": seed,
        "n": n,
        "cases": _CASES,
        "checks": checks,
        "passed": all(check["passed"] for check in checks),
    }
