"""The parameter rule: every dimension, count, index and sign is an integer
that is not a bool, stored as ``int``; the angle and beta0 are real numbers
that are not bools, stored as floats."""

import math
from fractions import Fraction

import numpy as np
import pytest
from reference import random_unit

from optamp import (
    DimensionError,
    ParameterOutOfRange,
    SearchProblem,
    SignChoice,
    StateVector,
    compare_with_grover,
    dumps_state_vector,
    grover_iterate,
    isometry_residual,
    loads_state_vector,
    make_spec,
    make_spec_from_beta0,
    theta_sweep,
)
from optamp.verify import random_unit_vector

PLUS = SignChoice.all_plus()
PAIR = StateVector(2, [0.6, 0.8])

# |cos**2 + sin**2 - 1| for a float64 pair: the two squares and their sum round
# once each (2**-52 at most together), and cos and sin within an ulp each add
# 2 * 2**-52 at most.  The worst of 2000 draws of either test reads 2**-52 on
# one x86-64 host; a float32 pair reads about 1e-8.
UNIT_PAIR_TOL = 3 * 2**-52


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: StateVector(2.0, [0.6, 0.8]), "n must be an integer, got 2.0"),
        (lambda: StateVector.uniform(2.0), "n must be an integer, got 2.0"),
        (lambda: StateVector.unnormalized(True, [0.6, 0.8]), "n must be an integer, got True"),
        (lambda: make_spec(2.5, 0.1, PLUS), "n must be an integer, got 2.5"),
        (lambda: theta_sweep(PAIR, points=2.5), "points must be an integer, got 2.5"),
        (lambda: grover_iterate(PAIR, 2.5), "steps must be an integer, got 2.5"),
        (lambda: grover_iterate(PAIR, True), "steps must be an integer, got True"),
        (
            lambda: compare_with_grover(SearchProblem(4, 1), max_steps=2.5),
            "max_steps must be an integer, got 2.5",
        ),
        (lambda: SignChoice(True, 1, 1, 1, 1), "eps1 must be an integer, got True"),
        (lambda: SignChoice(1, 1, 1, 1, 1.0), "eps5 must be an integer, got 1.0"),
        (
            lambda: make_spec_from_beta0(4, 0.5, True, PLUS),
            "sign_gamma0 must be an integer, got True",
        ),
    ],
    ids=[
        "state-n",
        "uniform-n",
        "unnormalized-n",
        "spec-n",
        "sweep-points",
        "iterate-steps",
        "iterate-bool-steps",
        "compare-max-steps",
        "bool-sign",
        "float-sign",
        "bool-sign-gamma0",
    ],
)
def test_bools_and_non_integers_are_refused_by_name(call, message):
    with pytest.raises(ParameterOutOfRange) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("n", (1, np.int64(1), 0, -3))
def test_a_dimension_below_two_keeps_its_dimension_error(n):
    with pytest.raises(DimensionError) as info:
        StateVector.uniform(n)
    assert str(info.value) == f"dimension must be at least 2, got {int(n)}"


@pytest.mark.parametrize(
    "n, error, message",
    [
        (2.0, ParameterOutOfRange, "n must be an integer, got 2.0"),
        (True, ParameterOutOfRange, "n must be an integer, got True"),
        (-1, DimensionError, "dimension must be at least 2, got -1"),
    ],
    ids=["float", "bool", "negative"],
)
def test_random_unit_vector_takes_the_dimension_rule(n, error, message):
    with pytest.raises(error) as info:
        random_unit_vector(np.random.default_rng(0), n)
    assert str(info.value) == message


@pytest.mark.parametrize("integer", (np.int64, np.int32))
def test_numpy_integers_are_stored_as_int(integer):
    assert type(StateVector(integer(2), [0.6, 0.8]).n) is int
    assert type(StateVector.uniform(integer(3)).n) is int
    assert type(StateVector.unnormalized(integer(2), [3.0, 4.0]).n) is int
    spec = make_spec(integer(4), 0.7, SignChoice(*np.array([1, -1, 1, 1, 1], dtype=integer)))
    assert type(spec.n) is int
    assert all(type(getattr(spec.signs, f"eps{i}")) is int for i in range(1, 6))
    beta = make_spec_from_beta0(integer(4), 0.5, integer(-1), PLUS)
    assert type(beta.n) is int and type(beta.sin) is float and beta.sin < 0.0
    assert theta_sweep(PAIR, points=integer(4)).shape == (4, 2)
    assert grover_iterate(PAIR, integer(3)).shape == (4, 3)
    report = compare_with_grover(SearchProblem(integer(4), integer(1)), max_steps=integer(5))
    assert report.n == 4 and report.grover_peak_step <= 5


def test_a_numpy_dimension_round_trips_through_the_state_format():
    vec = StateVector(np.int64(2), [0.6, 0.8])
    text = dumps_state_vector(vec)
    assert text.startswith('{"n": 2, ')
    back = loads_state_vector(text)
    assert back.n == 2 and type(back.n) is int
    assert np.array_equal(back.amplitudes, vec.amplitudes)


def test_a_float32_angle_is_stored_as_a_float():
    for theta in np.random.default_rng(32).uniform(0.0, 2 * math.pi, 2000).astype(np.float32):
        spec = make_spec(64, theta, PLUS)
        assert type(spec.theta) is float and spec.theta == float(theta)
        assert abs(spec.cos**2 + spec.sin**2 - 1.0) <= UNIT_PAIR_TOL


def test_a_float32_beta0_is_stored_as_a_float():
    vec = random_unit(np.random.default_rng(3), 64)
    for beta0 in np.random.default_rng(33).uniform(-1.0, 1.0, 2000).astype(np.float32):
        spec = make_spec_from_beta0(64, beta0, 1, PLUS)
        assert type(spec.cos) is float and type(spec.sin) is float
        assert abs(spec.cos**2 + spec.sin**2 - 1.0) <= UNIT_PAIR_TOL
    same = make_spec_from_beta0(64, float(np.float32(0.3)), 1, PLUS)
    spec = make_spec_from_beta0(64, np.float32(0.3), 1, PLUS)
    assert (spec.theta, spec.cos, spec.sin) == (same.theta, same.cos, same.sin)
    assert isometry_residual(spec, vec) == isometry_residual(same, vec)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: make_spec(4, True, PLUS), "theta must be a real number, got True"),
        (lambda: make_spec(4, np.True_, PLUS), f"theta must be a real number, got {np.True_!r}"),
        (lambda: make_spec(4, "0.5", PLUS), "theta must be a real number, got '0.5'"),
        (lambda: make_spec(4, None, PLUS), "theta must be a real number, got None"),
        (lambda: make_spec(4, 1j, PLUS), "theta must be a real number, got 1j"),
        (lambda: make_spec(4, 10**400, PLUS), "theta is past the float64 range"),
        (lambda: make_spec(4, math.nan, PLUS), "theta must be finite, got nan"),
        (
            lambda: make_spec_from_beta0(4, True, 1, PLUS),
            "beta0 must be a real number, got True",
        ),
        (
            lambda: make_spec_from_beta0(4, "0.5", 1, PLUS),
            "beta0 must be a real number, got '0.5'",
        ),
        (
            lambda: make_spec_from_beta0(4, None, 1, PLUS),
            "beta0 must be a real number, got None",
        ),
        (lambda: make_spec_from_beta0(4, 1j, 1, PLUS), "beta0 must be a real number, got 1j"),
        (lambda: make_spec_from_beta0(4, 10**400, 1, PLUS), "beta0 is past the float64 range"),
        (lambda: make_spec_from_beta0(4, math.nan, 1, PLUS), "|beta0| must not exceed 1, got nan"),
        (lambda: make_spec_from_beta0(4, -1.5, 1, PLUS), "|beta0| must not exceed 1, got -1.5"),
    ],
    ids=[
        "bool-theta",
        "numpy-bool-theta",
        "text-theta",
        "none-theta",
        "complex-theta",
        "huge-theta",
        "nan-theta",
        "bool-beta0",
        "text-beta0",
        "none-beta0",
        "complex-beta0",
        "huge-beta0",
        "nan-beta0",
        "beta0-past-one",
    ],
)
def test_the_angle_and_beta0_must_be_real_numbers(call, message):
    with pytest.raises(ParameterOutOfRange) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SignChoice(1, 2, 1, 1, 1), "eps2 must be -1 or +1, got 2"),
        (lambda: SignChoice(1, 1, 1, 1, np.int64(0)), "eps5 must be -1 or +1, got 0"),
        (lambda: make_spec_from_beta0(4, 0.5, 0, PLUS), "sign_gamma0 must be -1 or +1, got 0"),
        (lambda: make_spec_from_beta0(4, 0.5, -2, PLUS), "sign_gamma0 must be -1 or +1, got -2"),
    ],
    ids=["eps2", "numpy-eps5", "sign-gamma0-zero", "sign-gamma0-minus-two"],
)
def test_every_sign_is_minus_one_or_plus_one(call, message):
    with pytest.raises(ParameterOutOfRange) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("value", (1, np.int64(1), np.float64(1.0), Fraction(1)))
def test_integers_and_other_reals_are_stored_as_float(value):
    spec, same = make_spec(4, value, PLUS), make_spec(4, 1.0, PLUS)
    assert type(spec.theta) is float and spec.theta == 1.0
    assert (spec.cos, spec.sin) == (same.cos, same.sin)
    beta = make_spec_from_beta0(4, value, 1, PLUS)
    assert type(beta.cos) is float and beta.cos == 1.0 and beta.sin == 0.0
