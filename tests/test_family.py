"""Operator family: spec construction, functionals, apply, dense form, reflections."""

import math
from fractions import Fraction

import numpy as np
import pytest
from reference import (
    GroverOperator,
    apply_reference,
    basis,
    format_signs,
    random_unit,
    reflection_matrix,
)

from optamp import (
    DenseCapExceeded,
    DimensionError,
    ParameterOutOfRange,
    ReflectionForm,
    SignChoice,
    StateVector,
    apply,
    c_functional,
    dense_matrix,
    eta_functional,
    family,
    grover,
    isometry_residual,
    make_spec,
    make_spec_from_beta0,
    reflection_form,
)

GROVER = SignChoice.grover()
ALL_PLUS = SignChoice.all_plus()

# theta = pi with eps2 = +1 and eps1*eps4*eps3 = -1 gives the identity operator;
# theta = pi with all-plus signs gives the flip of component 0.
IDENTITY_SIGNS = SignChoice(+1, +1, -1, +1, +1)


# ---------------------------------------------------------------------------
# SignChoice
# ---------------------------------------------------------------------------

def test_sign_choice_validation():
    with pytest.raises(ParameterOutOfRange):
        SignChoice(0, 1, 1, 1, 1)
    with pytest.raises(ParameterOutOfRange):
        SignChoice(1, 1, 1, 1, 2)


def test_sign_choice_enumeration_covers_family():
    everything = SignChoice.enumerate()
    assert len(everything) == 32
    assert len(set(everything)) == 32
    assert sum(1 for s in everything if s.admits_reflection) == 16


def test_sign_choice_string_roundtrip():
    signs = SignChoice(+1, -1, +1, -1, +1)
    assert SignChoice.from_string(format_signs(signs)) == signs
    assert SignChoice.from_string("1,-1,1,1,1") == GROVER
    with pytest.raises(ParameterOutOfRange):
        SignChoice.from_string("+1,-1,+1")
    with pytest.raises(ParameterOutOfRange):
        SignChoice.from_string("+1,-1,+1,+1,two")


def test_grover_signs_do_not_admit_reflection():
    assert not GROVER.admits_reflection
    assert ALL_PLUS.admits_reflection


# ---------------------------------------------------------------------------
# Spec construction
# ---------------------------------------------------------------------------

def test_make_spec_corollary_coefficients():
    # cos(theta) = 0.5 reproduces beta0 = (n-2)/n, gamma0 = 2/n at n = 4
    spec = make_spec(4, math.pi / 3, GROVER)
    assert abs(spec.beta0 - 0.5) < 1e-15
    assert abs(spec.gamma0 - 0.5) < 1e-15


def test_make_spec_ellipse_endpoint():
    spec = make_spec(2, 0.0, SignChoice(+1, +1, +1, +1, +1))
    assert spec.beta0 == 1.0
    assert spec.gamma0 == 0.0


def test_make_spec_quarter_turn():
    spec = make_spec(16, math.pi / 2, ALL_PLUS)
    assert abs(spec.beta0) < 1e-15
    assert abs(spec.gamma0 - 1.0 / math.sqrt(15)) < 1e-15
    assert abs(15 * spec.gamma0**2 + spec.beta0**2 - 1.0) < 1e-12


def test_make_spec_reduces_theta_mod_two_pi():
    assert abs(make_spec(4, 2 * math.pi + 0.5, ALL_PLUS).theta - 0.5) < 1e-12
    assert 0.0 <= make_spec(4, -0.25, ALL_PLUS).theta < 2 * math.pi


def test_make_spec_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        make_spec(1, 0.0, ALL_PLUS)
    with pytest.raises(ParameterOutOfRange):
        make_spec(4, float("inf"), ALL_PLUS)
    with pytest.raises(ParameterOutOfRange):
        make_spec(4, float("nan"), ALL_PLUS)


def test_make_spec_rejects_angles_whose_ulp_is_too_coarse():
    # Half an ulp of theta exceeds 1e-9 rad from 2**24 up.
    for theta in (2.0**24, -(2.0**24), 1e308):
        with pytest.raises(ParameterOutOfRange):
            make_spec(4, theta, ALL_PLUS)
    below = math.nextafter(2.0**24, 0.0)
    assert math.ulp(below) / 2 <= 1e-9 < math.ulp(2.0**24) / 2
    assert 0.0 <= make_spec(4, -below, ALL_PLUS).theta < 2 * math.pi


def test_derived_coefficients_are_idempotent():
    spec = make_spec(8, 1.2345, GROVER)
    assert spec.beta0 == spec.beta0
    twin = make_spec(8, 1.2345, GROVER)
    assert (twin.beta0, twin.gamma0, twin.gamma_i, twin.eta0, twin.eta_i) == (
        spec.beta0,
        spec.gamma0,
        spec.gamma_i,
        spec.eta0,
        spec.eta_i,
    )


@pytest.mark.parametrize("n", [2, 5, 10, 17, 50, 65537, 1000001])
def test_block_coefficients_within_one_ulp_of_exact_rationals(n):
    # Pythagorean pairs ((m^2 - k^2)/(m^2 + k^2), 2mk/(m^2 + k^2)) in every
    # quadrant; with n - 1 = j^2, p, q, r and t of the rounded pair are
    # rationals, and each is two roundings at most from its exact value.
    j = math.isqrt(n - 1)
    assert j * j == n - 1
    for m in range(-7, 8):
        for k in range(-7, 8):
            if m == k == 0:
                continue
            cos = (m * m - k * k) / (m * m + k * k)
            sin = 2 * m * k / (m * m + k * k)
            c, s = Fraction(cos), Fraction(sin)
            for s0 in (1, -1):
                got = family._block(n, cos, sin, s0)
                exact = (s0 * c, s0 * s / j, s / j, -(1 + c) / (n - 1))
                for value, want in zip(got, exact):
                    assert abs(Fraction(value) - want) <= Fraction(math.ulp(value)), (m, k, s0)


def test_make_spec_from_beta0_roundtrip():
    direct = make_spec(4, math.pi / 3, GROVER)
    derived = make_spec_from_beta0(4, 0.5, +1, GROVER)
    assert abs(derived.theta - direct.theta) < 1e-12
    assert abs(derived.beta0 - direct.beta0) < 1e-12
    assert abs(derived.gamma0 - direct.gamma0) < 1e-12
    rng = np.random.default_rng(2024)
    for signs in SignChoice.enumerate():
        for b in rng.uniform(-1.0, 1.0, size=64).tolist():
            for sign_gamma0 in (-1, 1):
                assert make_spec_from_beta0(37, b, sign_gamma0, signs).beta0 == b


def test_make_spec_from_beta0_range_check():
    with pytest.raises(ParameterOutOfRange):
        make_spec_from_beta0(8, 1.5, +1, ALL_PLUS)
    with pytest.raises(ParameterOutOfRange):
        make_spec_from_beta0(8, -1.0000001, +1, ALL_PLUS)
    with pytest.raises(ParameterOutOfRange):
        make_spec_from_beta0(8, 0.5, 0, ALL_PLUS)


def test_make_spec_from_beta0_endpoint():
    spec = make_spec_from_beta0(8, -1.0, +1, ALL_PLUS)
    assert abs(spec.gamma0) < 1e-15  # sin(float pi) is ~1.2e-16, not exactly 0
    assert abs(spec.theta - math.pi) < 1e-15  # eps3 = +1 places the endpoint at pi
    flipped = make_spec_from_beta0(8, -1.0, +1, SignChoice(+1, +1, -1, +1, +1))
    assert flipped.theta == 0.0
    assert flipped.gamma0 == 0.0


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------

def test_eta_functional_grover_uniform():
    # (-1 + 0.5)*0.5 + 0.5*1.5 with the corollary coefficients at n = 4
    spec = make_spec_from_beta0(4, 0.5, +1, GROVER)
    value = eta_functional(spec, StateVector.uniform(4))
    assert abs(value - 0.5) < 1e-12


def test_eta_functional_on_basis_vector():
    spec = make_spec(6, 0.73, GROVER)
    assert abs(eta_functional(spec, basis(6, 0)) - spec.eta0) < 1e-15


def test_eta_functional_vanishes_for_flip_family():
    # theta = 0, eps3 = -1, eps4 = -1: eta0 = 0 and gamma0 = 0 exactly
    spec = make_spec(5, 0.0, SignChoice(+1, +1, -1, -1, +1))
    rng = np.random.default_rng(3)
    for _ in range(5):
        assert eta_functional(spec, random_unit(rng, 5)) == 0.0


def test_c_functional_grover_uniform():
    spec = make_spec_from_beta0(4, 0.5, +1, GROVER)
    value = c_functional(spec, StateVector.uniform(4))
    assert abs(value - (-0.5)) < 1e-12


def test_c_functional_on_basis_vector():
    spec = make_spec(6, 2.1, ALL_PLUS)
    assert abs(c_functional(spec, basis(6, 0)) - spec.gamma0) < 1e-15


def test_c_functional_vanishes_at_theta_pi():
    spec = make_spec(4, math.pi, SignChoice(+1, +1, +1, +1, +1))
    rng = np.random.default_rng(4)
    for _ in range(5):
        assert abs(c_functional(spec, random_unit(rng, 4))) < 1e-15


def test_functionals_reject_dimension_mismatch():
    spec = make_spec(4, 1.0, ALL_PLUS)
    other = StateVector.uniform(5)
    with pytest.raises(DimensionError):
        eta_functional(spec, other)
    with pytest.raises(DimensionError):
        c_functional(spec, other)
    with pytest.raises(DimensionError):
        apply(spec, other)
    with pytest.raises(DimensionError):
        isometry_residual(spec, other)


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_apply_grover_uniform_concentrates():
    spec = make_spec_from_beta0(4, 0.5, +1, GROVER)
    out = apply(spec, StateVector.uniform(4))
    oracle = GroverOperator(4).matrix() @ StateVector.uniform(4).amplitudes
    assert np.max(np.abs(out.amplitudes - oracle)) < 1e-12
    assert np.max(np.abs(out.amplitudes - np.array([1.0, 0.0, 0.0, 0.0]))) < 1e-12


def test_apply_identity_family_member():
    spec = make_spec(6, math.pi, IDENTITY_SIGNS)
    rng = np.random.default_rng(5)
    vec = random_unit(rng, 6)
    out = apply(spec, vec)
    assert np.max(np.abs(out.amplitudes - vec.amplitudes)) < 1e-15
    assert np.max(np.abs(dense_matrix(spec) - np.eye(6))) < 1e-15


def test_apply_flip_family_member():
    # theta = pi, all-plus signs: negate component 0, fix the rest
    spec = make_spec(3, math.pi, ALL_PLUS)
    out = apply(spec, StateVector(3, [0.6, 0.8, 0.0]))
    assert np.max(np.abs(out.amplitudes - np.array([-0.6, 0.8, 0.0]))) < 1e-15


def test_apply_matches_dense_on_random_input():
    rng = np.random.default_rng(6)
    for signs in (ALL_PLUS, GROVER, SignChoice(-1, +1, -1, +1, -1)):
        for _ in range(5):
            n = int(rng.integers(2, 40))
            spec = make_spec(n, float(rng.uniform(0, 2 * math.pi)), signs)
            vec = random_unit(rng, n)
            dense_out = dense_matrix(spec) @ vec.amplitudes
            assert np.max(np.abs(apply(spec, vec).amplitudes - dense_out)) < 1e-12


def test_apply_output_is_normalized():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 60))
        spec = make_spec(n, float(rng.uniform(0, 2 * math.pi)), ALL_PLUS)
        out = apply(spec, random_unit(rng, n))
        assert abs(out.norm() - 1.0) < 1e-10


# Largest entry gap allowed between `apply` and the paper's eta/c form.
REFERENCE_TOL = 1e-12


@pytest.mark.parametrize("n", (2, 3, 5, 64, 1024))
def test_apply_matches_paper_reference(n):
    rng = np.random.default_rng(n)
    vec = random_unit(rng, n)
    for theta in (0.0, math.pi, float(rng.uniform(0, 2 * math.pi))):
        for signs in SignChoice.enumerate():
            spec = make_spec(n, theta, signs)
            gap = np.max(np.abs(apply(spec, vec).amplitudes - apply_reference(spec, vec.amplitudes)))
            assert gap <= REFERENCE_TOL


def bits(x) -> np.ndarray:
    """The float64 bit patterns of ``x``, so that -0.0 and 0.0 differ."""
    return np.asarray(x, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("n", (2, 3, 64, 2**20 + 3))
def test_functionals_are_applys_own_arithmetic_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for vec in (random_unit(rng, n), basis(n, 0)):
        for theta in (0.0, math.pi, float(rng.uniform(0, 2 * math.pi))):
            for signs in SignChoice.enumerate():
                spec = make_spec(n, theta, signs)
                out = apply(spec, vec).amplitudes
                shifted = signs.eps2 * (vec.amplitudes[1:] + c_functional(spec, vec))
                assert np.array_equal(bits(out[1:]), bits(shifted))
                eta = eta_functional(spec, vec)
                assert bits(eta) == bits(signs.eps1 * out[0] - vec.amplitudes[0])


@pytest.mark.parametrize("n", (2, 3, 7, 64))
def test_sign_patterns_collapse_to_four_operators(n):
    rng = np.random.default_rng(n)
    for theta in (0.0, math.pi / 3, math.pi, float(rng.uniform(0, 2 * math.pi))):
        classes = {}
        for signs in SignChoice.enumerate():
            classes.setdefault(signs.effective, []).append(dense_matrix(make_spec(n, theta, signs)))
        assert sorted(classes) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        for members in classes.values():
            assert len(members) == 8
            assert all(np.max(np.abs(m - members[0])) == 0.0 for m in members)


def test_admits_reflection_is_s0_equals_eps2():
    for signs in SignChoice.enumerate():
        s0, eps2 = signs.effective
        assert s0 == signs.eps1 * signs.eps3 * signs.eps4 and eps2 == signs.eps2
        assert signs.admits_reflection == (s0 == eps2)


# ---------------------------------------------------------------------------
# dense_matrix
# ---------------------------------------------------------------------------

def test_dense_matrix_is_orthogonal():
    rng = np.random.default_rng(8)
    for signs in SignChoice.enumerate()[::5]:
        n = int(rng.integers(2, 30))
        m = dense_matrix(make_spec(n, float(rng.uniform(0, 2 * math.pi)), signs))
        assert np.max(np.abs(m.T @ m - np.eye(n))) < 1e-10


def test_dense_matrix_grover_embedding():
    spec = make_spec_from_beta0(4, 0.5, +1, GROVER)
    assert np.max(np.abs(dense_matrix(spec) - GroverOperator(4).matrix())) < 1e-12


def test_dense_cap_enforced(monkeypatch):
    with pytest.raises(DenseCapExceeded):
        dense_matrix(make_spec(4097, 0.5, ALL_PLUS))
    # the cap is read at call time, and n equal to it is accepted
    monkeypatch.setattr(family, "DENSE_CAP_DEFAULT", 8)
    assert dense_matrix(make_spec(8, 0.5, ALL_PLUS)).shape == (8, 8)
    with pytest.raises(DenseCapExceeded):
        dense_matrix(make_spec(9, 0.5, ALL_PLUS))


# ---------------------------------------------------------------------------
# reflection_form
# ---------------------------------------------------------------------------

def test_grover_member_is_a_sign_flip_plus_the_reflection_about_uniform():
    """The paper's reading of Grover's step, D @ Z = -(1 - 2|v><v|) @ Z0 with v
    the uniform vector: the Grover member's axis is v within 3 ulps."""
    for n in [*range(2, 3000), 65536]:
        form = reflection_form(grover._grover_member(n))
        assert form.flips_component0 and form.overall_sign == -1
        uniform = 1.0 / math.sqrt(n)
        assert np.max(np.abs(form.u.amplitudes - uniform)) <= 3 * math.ulp(uniform), n
        if n <= 256:
            gap = np.max(np.abs(reflection_matrix(form) - GroverOperator(n).matrix()))
            assert gap <= 1e-12, n


def test_reflection_form_at_theta_pi_is_flip_axis():
    form = reflection_form(make_spec(5, math.pi, ALL_PLUS))
    assert isinstance(form, ReflectionForm)
    assert form.overall_sign == +1
    assert abs(form.u.amplitudes[0] - (-1.0)) < 1e-12
    assert np.max(np.abs(form.u.amplitudes[1:])) < 1e-12


def test_reflection_form_reconstructs_operator():
    spec = make_spec(4, math.pi / 3, ALL_PLUS)
    form = reflection_form(spec)
    axis = form.u.amplitudes
    rebuilt = form.overall_sign * (np.eye(4) - 2.0 * np.outer(axis, axis))
    assert np.max(np.abs(dense_matrix(spec) - rebuilt)) < 1e-12


def test_reflection_axis_properties():
    spec = make_spec(9, 2.7, SignChoice(-1, -1, +1, +1, +1))
    form = reflection_form(spec)
    assert isinstance(form, ReflectionForm)
    assert abs(form.u.norm() - 1.0) < 1e-12
    tail = form.u.amplitudes[1:]
    assert np.all(tail == tail[0])


def test_reflection_condition_split_over_all_signs():
    for signs in SignChoice.enumerate():
        outcome = reflection_form(make_spec(6, 0.9, signs))
        assert isinstance(outcome, ReflectionForm)
        assert outcome.flips_component0 == (not signs.admits_reflection)


# ---------------------------------------------------------------------------
# isometry_residual
# ---------------------------------------------------------------------------

def test_isometry_residual_on_basis_vectors():
    grover_spec = make_spec_from_beta0(4, 0.5, +1, GROVER)
    assert isometry_residual(grover_spec, basis(4, 0)) < 1e-12
    pi_spec = make_spec(4, math.pi, ALL_PLUS)
    assert isometry_residual(pi_spec, basis(4, 1)) < 1e-12


def test_isometry_residual_random_specs():
    rng = np.random.default_rng(9)
    pool = SignChoice.enumerate()
    for i in range(50):
        n = int(rng.integers(2, 128))
        spec = make_spec(n, float(rng.uniform(0, 2 * math.pi)), pool[i % 32])
        assert isometry_residual(spec, random_unit(rng, n)) < 1e-10


def test_spec_is_hashable_and_frozen():
    spec = make_spec(4, 1.0, ALL_PLUS)
    assert hash(spec) == hash(make_spec(4, 1.0, ALL_PLUS))
    with pytest.raises(AttributeError):
        spec.theta = 2.0
