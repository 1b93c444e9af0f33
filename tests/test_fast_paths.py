"""The O(n + k) sweep and Grover trace against their full-vector references,
and the one-pass, one-allocation operator outputs."""

import math
import tracemalloc

import numpy as np
import pytest
from reference import (
    apply_two_pass,
    diffusion_apply,
    flip_operator_apply,
    random_unit,
    reference_grover_iterate,
    reference_theta_sweep,
)

from optamp import (
    SearchProblem,
    SignChoice,
    StateVector,
    amplify_optimal,
    apply,
    compare_with_grover,
    grover_apply,
    grover_iterate,
    isometry_residual,
    make_spec,
    relabel_apply,
    theta_sweep,
)
from optamp.family import TWO_PI
from optamp.verify import FAST_PATH_TOL

# 99991 is prime: (n - 2)/n and its square are inexact there, unlike at 2**k.
SIZES = (2, 3, 4, 5, 8, 1024, 65536, 99991)

# Traced peak allowed for one operator call, in units of the 8n-byte output.
# One output array is 1.0; a second full-size temporary or copy makes it 2.
PEAK_ALLOC_FACTOR = 1.25


def vectors(n):
    return [random_unit(np.random.default_rng(n), n), StateVector.uniform(n)]


def assert_rows_close(fast, slow):
    assert type(fast) is np.ndarray and fast.dtype == np.float64
    assert fast.shape == (len(slow), len(slow[0]))
    for got, want in zip(fast.tolist(), slow):
        assert got[0] == want[0]
        assert max(abs(g - w) for g, w in zip(got[1:], want[1:])) <= FAST_PATH_TOL


@pytest.mark.parametrize("n", SIZES)
def test_sweep_matches_reference(n):
    for vec in vectors(n):
        for points in (2, 7, 64):
            for signs in SignChoice.enumerate():
                assert_rows_close(theta_sweep(vec, points=points), reference_theta_sweep(vec, signs, points))


@pytest.mark.parametrize("n", SIZES)
def test_trace_matches_reference(n):
    # n = 2 has the exact Grover pair (0, 1); a rounded one drifts ~6e-17 per step.
    long_run = (20000,) if n == 2 else ()
    for vec in vectors(n):
        for steps in (0, 1, math.ceil(2.0 * math.sqrt(n)), 3000) + long_run:
            assert_rows_close(grover_iterate(vec, steps), reference_grover_iterate(vec, steps))


def test_uniform_two_trace_never_exceeds_half():
    rows = grover_iterate(StateVector.uniform(2), 1000)
    assert max(prob for _, _, prob in rows) <= 0.5
    assert compare_with_grover(SearchProblem(2, 0), 1000).grover_first_step_above_half is None


@pytest.mark.parametrize("n", (2, 3, 5, 64, 1000))
def test_apply_is_bit_identical_to_two_pass_form(n):
    theta = float(np.random.default_rng(n).uniform(0.0, TWO_PI))
    for vec in vectors(n):
        for angle in (0.0, math.pi / 3, math.pi, theta):
            for signs in SignChoice.enumerate():
                spec = make_spec(n, angle, signs)
                want = apply_two_pass(spec, vec.amplitudes)
                assert apply(spec, vec).amplitudes.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", (3, 4))
def test_apply_keeps_the_signed_zero_of_a_component_equal_to_minus_c(n):
    # With sum(a[1:]) == 0 exactly, c(a) = r*a[0]; slot 1 holds -c, so a[1] + c
    # is +0.0, and eps2 = -1 must make it -0.0, as eps2 * (a + c) does.
    # (-c) - a would give +0.0.
    for angle in (0.0, 1.0, 2.5, 4.0):
        for signs in SignChoice.enumerate():
            spec = make_spec(n, angle, signs)
            c = spec.gamma0 * 0.6
            arr = np.zeros(n)
            arr[:3] = 0.6, -c, c
            assert float(np.sum(arr[1:])) == 0.0
            got = apply(spec, StateVector.unnormalized(n, arr)).amplitudes
            want = apply_two_pass(spec, arr)
            assert want[1] == 0.0 and bool(np.signbit(want[1])) == (signs.eps2 == -1)
            assert got.tobytes() == want.tobytes()


def test_operator_outputs_are_fresh_read_only_arrays():
    n = 64
    vec = vectors(n)[0]
    outputs = [
        apply(make_spec(n, 0.7, SignChoice.all_plus()), vec),
        apply(make_spec(n, 0.7, SignChoice.grover()), vec),
        amplify_optimal(vec)[0],
        amplify_optimal(vec, SignChoice.grover())[0],
        flip_operator_apply(vec),
        diffusion_apply(vec),
        grover_apply(vec),
        relabel_apply(SearchProblem(n, 0), vec),
        relabel_apply(SearchProblem(n, 5), vec),
    ]
    for out in outputs:
        assert not np.shares_memory(out.amplitudes, vec.amplitudes)
        with pytest.raises(ValueError):
            out.amplitudes[1] = 0.0


def traced_peak_bytes(call) -> int:
    """Peak bytes numpy and Python allocate during ``call()``, output included."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_operator_outputs_cost_one_allocation():
    n = 2**20
    vec = vectors(n)[0]
    calls = {
        "apply all-plus": lambda: apply(make_spec(n, 0.7, SignChoice.all_plus()), vec),
        "apply Grover signs": lambda: apply(make_spec(n, 0.7, SignChoice.grover()), vec),
        "amplify_optimal all-plus": lambda: amplify_optimal(vec),
        "amplify_optimal Grover signs": lambda: amplify_optimal(vec, SignChoice.grover()),
    }
    for name, call in calls.items():
        peak = traced_peak_bytes(call)
        assert peak <= PEAK_ALLOC_FACTOR * vec.amplitudes.nbytes, (name, peak / vec.amplitudes.nbytes)


def test_grover_apply_costs_one_allocation_and_keeps_its_bits():
    # The flip and the diffusion share one array; a -0.0 slot checks that
    # writing over the flipped copy moves no bit of the two-step result.
    n = 2**20 + 3
    raw = vectors(n)[0].amplitudes.copy()
    raw[n // 2] = -0.0
    vec = StateVector.unnormalized(n, raw)
    want = diffusion_apply(flip_operator_apply(vec)).amplitudes.tobytes()
    assert grover_apply(vec).amplitudes.tobytes() == want
    peak = traced_peak_bytes(lambda: grover_apply(vec))
    assert peak <= PEAK_ALLOC_FACTOR * vec.amplitudes.nbytes, peak / vec.amplitudes.nbytes


def test_isometry_residual_builds_no_full_size_temporary():
    # The image is the one full-size array; the squares go a leaf at a time.
    n = 2**18
    vec = vectors(n)[0]
    spec = make_spec(n, 0.7, SignChoice.grover())
    peak = traced_peak_bytes(lambda: isometry_residual(spec, vec))
    assert peak <= 1.5 * vec.amplitudes.nbytes, peak / vec.amplitudes.nbytes
