"""Property tests for the operator family invariants."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference import diffusion_apply, flip_operator_apply, reflection_matrix

from optamp import (
    SignChoice,
    StateVector,
    apply,
    dense_matrix,
    dumps_state_vector,
    grover_apply,
    isometry_residual,
    loads_state_vector,
    make_spec,
    reflection_form,
    relabel_apply,
    SearchProblem,
)

TWO_PI = 2.0 * math.pi

sign_values = st.sampled_from((-1, +1))
sign_choices = st.builds(SignChoice, sign_values, sign_values, sign_values, sign_values, sign_values)
thetas = st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True, allow_nan=False)
dimensions = st.integers(min_value=2, max_value=48)


@st.composite
def unit_vectors(draw, n=None):
    if n is None:
        n = draw(dimensions)
    raw = draw(
        arrays(
            np.float64,
            n,
            elements=st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
        )
    )
    norm = float(np.linalg.norm(raw))
    assume(norm > 1e-3)
    return StateVector(n, raw / norm)


@st.composite
def spec_and_vector(draw):
    n = draw(dimensions)
    spec = make_spec(n, draw(thetas), draw(sign_choices))
    vec = draw(unit_vectors(n=n))
    return spec, vec


@given(spec_and_vector())
@settings(max_examples=150)
def test_every_member_is_an_isometry(pair):
    spec, vec = pair
    assert isometry_residual(spec, vec) <= 1e-10


@given(dimensions, thetas, sign_choices)
def test_coefficients_stay_on_the_ellipse(n, theta, signs):
    spec = make_spec(n, theta, signs)
    assert abs((n - 1) * spec.gamma0**2 + spec.beta0**2 - 1.0) <= 1e-12


@given(spec_and_vector())
@settings(max_examples=75)
def test_apply_agrees_with_dense_matrix(pair):
    spec, vec = pair
    dense_out = dense_matrix(spec) @ vec.amplitudes
    assert np.max(np.abs(apply(spec, vec).amplitudes - dense_out)) <= 1e-12


@given(spec_and_vector(), st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=75)
def test_apply_is_linear(pair, alpha, beta):
    spec, vec = pair
    rng = np.random.default_rng(vec.n)
    other = rng.standard_normal(vec.n)
    other /= np.linalg.norm(other)
    combined = StateVector.unnormalized(vec.n, alpha * vec.amplitudes + beta * other)
    left = apply(spec, combined).amplitudes
    right = alpha * apply(spec, vec).amplitudes + beta * apply(
        spec, StateVector.unnormalized(vec.n, other)
    ).amplitudes
    assert np.max(np.abs(left - right)) <= 1e-12


@given(dimensions, thetas)
@settings(max_examples=75)
def test_reflection_exists_exactly_when_condition_holds(n, theta):
    for signs in SignChoice.enumerate():
        spec = make_spec(n, theta, signs)
        outcome = reflection_form(spec)
        assert outcome.flips_component0 == (not signs.admits_reflection)
        axis = outcome.u.amplitudes
        assert abs(float(axis @ axis) - 1.0) <= 1e-12
        assert np.max(np.abs(dense_matrix(spec) - reflection_matrix(outcome))) <= 1e-12


@given(dimensions, thetas, sign_choices)
@settings(max_examples=50)
def test_admitted_members_are_involutions(n, theta, signs):
    assume(signs.admits_reflection)
    m = dense_matrix(make_spec(n, theta, signs))
    assert np.max(np.abs(m @ m - np.eye(n))) <= 1e-10


@given(unit_vectors())
def test_flip_is_involution(vec):
    assert np.array_equal(
        flip_operator_apply(flip_operator_apply(vec)).amplitudes, vec.amplitudes
    )


@given(unit_vectors())
def test_diffusion_is_involution(vec):
    twice = diffusion_apply(diffusion_apply(vec))
    assert np.max(np.abs(twice.amplitudes - vec.amplitudes)) <= 1e-12


@given(unit_vectors())
def test_grover_apply_preserves_norm(vec):
    assert abs(grover_apply(vec).norm() - vec.norm()) <= 1e-10


@given(unit_vectors(), st.integers(0, 46))
def test_relabel_is_involution(vec, marked):
    problem = SearchProblem(vec.n, marked % vec.n)
    twice = relabel_apply(problem, relabel_apply(problem, vec))
    assert np.array_equal(twice.amplitudes, vec.amplitudes)


@given(unit_vectors())
def test_state_json_roundtrip_is_bit_exact(vec):
    again = loads_state_vector(dumps_state_vector(vec))
    assert again.n == vec.n
    assert np.array_equal(again.amplitudes, vec.amplitudes)


def test_all_32_sign_patterns_are_unitary_and_exactly_16_reflect():
    rng = np.random.default_rng(12)
    vec = StateVector.unnormalized(10, rng.standard_normal(10)).normalized()
    admitted = 0
    for signs in SignChoice.enumerate():
        spec = make_spec(10, 1.1, signs)
        assert isometry_residual(spec, vec) <= 1e-10
        if not reflection_form(spec).flips_component0:
            admitted += 1
    assert admitted == 16
