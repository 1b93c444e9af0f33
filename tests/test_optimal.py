"""Optimal-angle selection, closed-form outputs, and the brute-force sweep."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest
from reference import basis, is_absolute_optimal, random_unit, reference_theta_sweep

from optamp import (
    ParameterOutOfRange,
    SignChoice,
    StateVector,
    amplify_optimal,
    dumps_sweep_csv,
    optimal_theta,
    theta_sweep,
)


def uniform_tail_vector(n, a0):
    b = math.sqrt((1.0 - a0 * a0) / (n - 1))
    arr = np.full(n, b)
    arr[0] = a0
    return StateVector(n, arr), b


# ---------------------------------------------------------------------------
# optimal_theta
# ---------------------------------------------------------------------------

def test_optimal_theta_uniform_four():
    # tan(theta) = 1.5 / (0.5 * sqrt(3)) = sqrt(3)
    assert abs(optimal_theta(StateVector.uniform(4)) - math.pi / 3) < 1e-12


def test_optimal_theta_uniform_tail_formula():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(3, 50))
        a0 = float(rng.uniform(0.05, 0.95))
        vec, b = uniform_tail_vector(n, a0)
        theta = optimal_theta(vec)
        assert abs(math.tan(theta) - math.sqrt(n - 1) * b / a0) < 1e-9


def test_optimal_theta_zero_a0_branch():
    vec = StateVector(3, [0.0, 0.6, 0.8])
    assert optimal_theta(vec) == math.pi / 2
    negated = StateVector(3, [0.0, -0.6, -0.8])
    assert abs(optimal_theta(negated) - 3 * math.pi / 2) < 1e-15


def test_optimal_theta_is_in_canonical_range():
    rng = np.random.default_rng(2)
    for _ in range(20):
        theta = optimal_theta(random_unit(rng, 8))
        assert 0.0 <= theta < 2 * math.pi


def test_optimal_theta_at_zero_tail_sum_keeps_a_positive_component_zero():
    # At S == 0 the reachable maximum sqrt(a0**2 + S**2/(n-1)) is |a0| itself.
    tail = 0.8 / math.sqrt(2)
    for vec, absolute in ((basis(4, 0), True), (StateVector(4, [0.6, tail, -tail, 0.0]), False)):
        assert vec._reduced[1] == 0.0
        assert optimal_theta(vec) == 0.0
        out, report = amplify_optimal(vec)
        assert report.theta_star == 0.0
        assert out.amplitudes.tobytes() == vec.amplitudes.tobytes()
        assert report.absolute is absolute


def test_optimal_theta_at_zero_tail_sum_flips_a_negative_component_zero():
    for a0, flipped in ((-1.0, 1.0), (-0.0, 0.0)):
        vec = StateVector.unnormalized(4, [a0, 0.0, 0.0, 0.0])
        assert optimal_theta(vec) == math.pi
        out, report = amplify_optimal(vec)
        assert report.theta_star == math.pi
        assert out.amplitudes[0] == flipped and math.copysign(1.0, out.amplitudes[0]) == 1.0


def test_optimal_theta_of_the_zero_vector_is_zero():
    vec = StateVector.unnormalized(4, [0.0] * 4)
    assert optimal_theta(vec) == 0.0
    out, report = amplify_optimal(vec)
    assert report.theta_star == 0.0
    assert not out.amplitudes.any()


# ---------------------------------------------------------------------------
# amplify_optimal
# ---------------------------------------------------------------------------

def test_amplify_uniform_four_reaches_certainty():
    out, report = amplify_optimal(StateVector.uniform(4))
    assert abs(report.post_amplitude0 - 1.0) < 1e-12
    assert np.max(np.abs(out.amplitudes[1:])) < 1e-12
    assert report.absolute
    assert abs(report.theta_star - math.pi / 3) < 1e-12
    assert report.pre_amplitude0 == 0.5


def test_optimal_theta_stays_below_two_pi():
    # atan2 gives a tiny negative angle here, which % 2*pi rounds up to 2*pi
    theta = optimal_theta(StateVector(3, [1.0, 1e-17, -2e-17]))
    assert 0.0 <= theta < 2 * math.pi


def test_amplify_three_dim_example():
    # closed forms: amplitude sqrt(0.36 + 0.64/2), tail (0.4, -0.4) under eps2 = +1
    out, report = amplify_optimal(StateVector(3, [0.6, 0.8, 0.0]))
    assert abs(report.post_amplitude0 - math.sqrt(0.68)) < 1e-12
    assert np.max(np.abs(out.amplitudes[1:] - np.array([0.4, -0.4]))) < 1e-12
    assert abs(out.norm() - 1.0) < 1e-10
    assert not report.absolute
    assert not is_absolute_optimal(report)


def test_amplify_grover_start_is_absolute():
    for n in (2, 4, 64):
        out, report = amplify_optimal(StateVector.uniform(n))
        assert abs(report.post_amplitude0 - 1.0) < 1e-12
        assert is_absolute_optimal(report)
        assert np.max(np.abs(out.amplitudes[1:])) < 1e-12


def test_uniform_start_probability_is_one_within_sixteen_ulps():
    """Exactly 1 in exact arithmetic; the float64 probability reads up to
    6 * 2**-52 off for these n, and above 1 at some of them (n = 4)."""
    for n in range(2, 4100):
        _, report = amplify_optimal(StateVector.uniform(n))
        assert abs(report.post_probability0 - 1.0) <= 16 * 2.0**-52, n


def test_amplify_uniform_tail_matches_magnitude_of_a0():
    # at the optimum, |cos(theta)| equals |a0| for uniform-tail inputs
    vec, _ = uniform_tail_vector(10, 0.4)
    theta = optimal_theta(vec)
    assert abs(abs(math.cos(theta)) - 0.4) < 1e-12
    _, report = amplify_optimal(vec)
    assert is_absolute_optimal(report)


def test_amplify_already_concentrated_vector_is_absolute():
    vec, _ = uniform_tail_vector(8, 0.999)
    _, report = amplify_optimal(vec)
    assert is_absolute_optimal(report)
    assert report.post_amplitude0 >= abs(report.pre_amplitude0)


def test_amplify_closed_forms_on_random_vectors():
    rng = np.random.default_rng(3)
    tail = 0.8 / math.sqrt(2)
    named = [StateVector(4, [0.6, tail, -tail, 0.0]), StateVector(4, [-1.0, 0.0, 0.0, 0.0])]
    draws = (random_unit(rng, int(rng.integers(3, 64))) for _ in range(50))
    for vec in itertools.chain(named, draws):
        n = vec.n
        tail_sum = float(np.sum(vec.amplitudes[1:]))
        out, report = amplify_optimal(vec)
        expected0 = math.sqrt(vec.amplitudes[0] ** 2 + tail_sum**2 / (n - 1))
        assert abs(report.post_amplitude0 - expected0) < 1e-12
        expected_tail = vec.amplitudes[1:] - tail_sum / (n - 1)
        assert np.max(np.abs(out.amplitudes[1:] - expected_tail)) < 1e-12
        assert abs(out.norm() - 1.0) < 1e-10


def test_amplify_never_shrinks_component_zero():
    rng = np.random.default_rng(4)
    for _ in range(30):
        vec = random_unit(rng, 12)
        _, report = amplify_optimal(vec)
        assert report.post_amplitude0 >= abs(report.pre_amplitude0) - 1e-12


def test_amplify_report_probability_is_square_of_amplitude():
    _, report = amplify_optimal(StateVector(3, [0.6, 0.8, 0.0]))
    assert report.post_probability0 == report.post_amplitude0**2


def test_amplify_report_probability_past_the_float_range_is_inf():
    # Squared with `*`, as the sweep and the trace square: no OverflowError.
    _, report = amplify_optimal(StateVector.unnormalized(3, [1e200] * 3))
    assert report.post_probability0 == math.inf


@pytest.mark.parametrize(
    "amplitudes, absolute",
    [
        ([2.0, 1.0, 0.0], False),  # component 0 ends with 4.5 of a squared norm of 5
        ([2.0, 1.0, 1.0], True),
        ([1e200] * 3, True),
        ([1e-170] * 3, True),
        ([1e-170, 3e-170, 2e-170], False),
        ([1.0] * 5, True),
        ([1.0, 1.5e308, -1.5e308, 1.0], False),  # a norm past the float range
    ],
)
def test_amplify_absolute_compares_with_the_input_norm(amplitudes, absolute):
    _, report = amplify_optimal(StateVector.unnormalized(len(amplitudes), amplitudes))
    assert report.absolute is absolute


def test_amplify_respects_sign_choice():
    vec = StateVector(3, [0.6, 0.8, 0.0])
    flipped, _ = amplify_optimal(vec, SignChoice(+1, -1, +1, +1, +1))
    default, _ = amplify_optimal(vec)
    assert np.max(np.abs(flipped.amplitudes[1:] + default.amplitudes[1:])) < 1e-15


# Worst entry moved by a second amplify_optimal, measured over 200 draws per
# n at n = 2..64: 8.9e-16.
SECOND_AMPLIFY_TOL = 2e-15


def test_second_amplify_moves_no_entry_beyond_roundoff():
    rng = np.random.default_rng(31)
    worst = 0.0
    for n in range(2, 65):
        for _ in range(200):
            once, _ = amplify_optimal(random_unit(rng, n))
            twice, _ = amplify_optimal(once)
            worst = max(worst, float(np.max(np.abs(twice.amplitudes - once.amplitudes))))
    assert worst <= SECOND_AMPLIFY_TOL


# ---------------------------------------------------------------------------
# theta_sweep
# ---------------------------------------------------------------------------

def test_sweep_row_count_and_grid():
    rows = theta_sweep(StateVector.uniform(4), points=2)
    assert len(rows) == 2
    assert rows[0][0] == 0.0
    assert abs(rows[1][0] - math.pi) < 1e-15


def test_sweep_amplitude_past_the_float_range_is_inf_without_warnings():
    # At theta = pi/4 the amplitude is (1.5e308 + 1.5e308) / sqrt(2), past the float range.
    vec = StateVector.unnormalized(2, [1.5e308, 1.5e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = theta_sweep(vec, points=8)
        text = dumps_sweep_csv(rows)
    assert rows[1, 0] == math.pi / 4 and rows[1, 1] == math.inf
    assert text.split("\n")[2] == "0.7853981633974483,inf,inf"


def test_sweep_rejects_bad_points():
    with pytest.raises(ParameterOutOfRange):
        theta_sweep(StateVector.uniform(4), points=1)


def test_sweep_never_exceeds_optimum():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(3, 32))
        vec = random_unit(rng, n)
        if float(np.sum(vec.amplitudes[1:])) == 0.0:
            continue
        _, report = amplify_optimal(vec)
        sweep_max = max(amp for _, amp in theta_sweep(vec, points=500))
        assert sweep_max <= report.post_amplitude0 + 1e-9


def test_sweep_peaks_near_optimum_for_uniform_four():
    rows = theta_sweep(StateVector.uniform(4), points=1000)
    best_theta, best_amp = max(rows, key=lambda row: row[1])
    assert best_amp > 1.0 - 1e-4
    assert abs(best_theta - math.pi / 3) <= 2 * math.pi / 1000


def test_sweep_matches_closed_form_for_uniform_tail():
    vec, b = uniform_tail_vector(5, 0.3)
    for theta, amp in theta_sweep(vec, points=64):
        expected = abs(math.cos(theta) * 0.3 + math.sin(theta) * math.sqrt(4) * b)
        assert abs(amp - expected) < 1e-12


def test_sweep_accepts_all_sign_patterns():
    vec = StateVector.uniform(4)
    for signs in SignChoice.enumerate():
        rows = reference_theta_sweep(vec, signs, points=8)
        assert len(rows) == 8
        swept = theta_sweep(vec, points=8)
        assert max(abs(got[1] - want[1]) for got, want in zip(swept, rows)) < 1e-12


def test_no_sign_pattern_beats_the_optimum():
    # the maximization quantifies over theta and all 32 sign patterns
    rng = np.random.default_rng(7)
    for _ in range(3):
        n = int(rng.integers(3, 24))
        vec = random_unit(rng, n)
        if float(np.sum(vec.amplitudes[1:])) == 0.0:
            continue
        _, report = amplify_optimal(vec)
        for signs in SignChoice.enumerate():
            sweep_max = max(amp for _, amp in reference_theta_sweep(vec, signs, points=64))
            assert sweep_max <= report.post_amplitude0 + 1e-9


# ---------------------------------------------------------------------------
# stationarity
# ---------------------------------------------------------------------------

def test_finite_difference_gradient_vanishes_at_optimum():
    from optamp.family import apply, make_spec

    rng = np.random.default_rng(6)
    h = 1e-6
    signs = SignChoice.all_plus()
    for _ in range(20):
        n = int(rng.integers(3, 40))
        vec = random_unit(rng, n)
        if float(np.sum(vec.amplitudes[1:])) == 0.0:
            continue
        theta = optimal_theta(vec)
        up = abs(float(apply(make_spec(n, theta + h, signs), vec).amplitudes[0]))
        down = abs(float(apply(make_spec(n, theta - h, signs), vec).amplitudes[0]))
        assert abs(up - down) / (2 * h) <= 1e-5


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_report_json_fields():
    _, report = amplify_optimal(StateVector.uniform(4))
    obj = json.loads(report.to_json())
    assert list(obj.keys()) == [
        "theta_star",
        "pre_amplitude0",
        "post_amplitude0",
        "post_probability0",
        "absolute",
    ]
    assert obj["absolute"] is True
    assert abs(obj["post_probability0"] - 1.0) < 1e-9


def test_sweep_csv_layout():
    rows = theta_sweep(StateVector.uniform(4), points=4)
    lines = dumps_sweep_csv(rows).splitlines()
    assert lines[0] == "theta,amplitude0,probability0"
    assert len(lines) == 5
    theta, amp, prob = (float(x) for x in lines[2].split(","))
    assert abs(theta - math.pi / 2) < 1e-15
    assert abs(prob - amp * amp) < 1e-15
