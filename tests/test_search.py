"""Relabeling involution, one-step search, and the comparison report."""

import json
import math

import numpy as np
import pytest
from reference import from_predicate, predicate, random_unit, relabel_matrix

from optamp import (
    DimensionError,
    ParameterOutOfRange,
    SearchProblem,
    StateVector,
    compare_with_grover,
    grover_iterate,
    one_step_search,
    relabel_apply,
)


# ---------------------------------------------------------------------------
# SearchProblem
# ---------------------------------------------------------------------------

def test_problem_validation():
    with pytest.raises(DimensionError):
        SearchProblem(1, 0)
    with pytest.raises(ParameterOutOfRange):
        SearchProblem(4, 4)
    with pytest.raises(ParameterOutOfRange):
        SearchProblem(4, -1)


def test_predicate_marks_exactly_one_index():
    p = SearchProblem(6, 2)
    assert [i for i in range(6) if predicate(p, i)] == [2]


def test_from_predicate_locates_marked_index():
    p = from_predicate(8, lambda i: i == 5)
    assert p.marked == 5
    with pytest.raises(ParameterOutOfRange):
        from_predicate(8, lambda i: i % 2 == 0)
    with pytest.raises(ParameterOutOfRange):
        from_predicate(8, lambda i: False)


# ---------------------------------------------------------------------------
# relabeling involution
# ---------------------------------------------------------------------------

def test_relabel_swaps_zero_and_marked():
    vec = StateVector.unnormalized(4, [0.1, 0.2, 0.3, 0.4])
    out = relabel_apply(SearchProblem(4, 2), vec)
    assert np.array_equal(out.amplitudes, np.array([0.3, 0.2, 0.1, 0.4]))


def test_relabel_marked_zero_is_identity():
    rng = np.random.default_rng(0)
    vec = random_unit(rng, 5)
    out = relabel_apply(SearchProblem(5, 0), vec)
    assert np.array_equal(out.amplitudes, vec.amplitudes)


def test_relabel_is_exact_involution():
    rng = np.random.default_rng(1)
    p = SearchProblem(9, 7)
    vec = random_unit(rng, 9)
    twice = relabel_apply(p, relabel_apply(p, vec))
    assert np.array_equal(twice.amplitudes, vec.amplitudes)


def test_relabel_dimension_mismatch():
    with pytest.raises(DimensionError):
        relabel_apply(SearchProblem(4, 1), StateVector.uniform(5))


def test_relabel_matrix_is_orthogonal_involution():
    for marked in (0, 3):
        m = relabel_matrix(SearchProblem(6, marked))
        assert np.array_equal(m.T @ m, np.eye(6))
        assert np.array_equal(m @ m, np.eye(6))


def test_relabel_matrix_is_local():
    # at most a 2x2 block differs from the identity
    m = relabel_matrix(SearchProblem(8, 5))
    assert int(np.sum(m != np.eye(8))) == 4
    assert int(np.sum(relabel_matrix(SearchProblem(8, 0)) != np.eye(8))) == 0


def test_relabel_matrix_matches_apply():
    rng = np.random.default_rng(2)
    p = SearchProblem(7, 4)
    vec = random_unit(rng, 7)
    assert np.array_equal(
        relabel_matrix(p) @ vec.amplitudes, relabel_apply(p, vec).amplitudes
    )


# ---------------------------------------------------------------------------
# one-step search
# ---------------------------------------------------------------------------

def test_one_step_search_examples():
    found, amp = one_step_search(SearchProblem(8, 5))
    assert found == 5
    assert abs(amp - 1.0) < 1e-9

    found, amp = one_step_search(SearchProblem(2, 1))
    assert found == 1
    assert abs(amp - 1.0) < 1e-12

    found, amp = one_step_search(SearchProblem(4, 0))
    assert found == 0
    assert abs(amp - 1.0) < 1e-12


def test_one_step_search_all_marked_indices_agree():
    amps = [one_step_search(SearchProblem(16, v))[1] for v in range(16)]
    assert max(amps) - min(amps) < 1e-12
    founds = [one_step_search(SearchProblem(16, v))[0] for v in range(16)]
    assert founds == list(range(16))


def test_one_step_pipeline_preserves_norm_on_any_input():
    # the conjugated operator is orthogonal, not only on the uniform start
    from optamp import SignChoice, apply, make_spec, optimal_theta

    rng = np.random.default_rng(3)
    n = 32
    p = SearchProblem(n, 11)
    theta = optimal_theta(StateVector.uniform(n))
    spec = make_spec(n, theta, SignChoice.all_plus())
    for _ in range(5):
        vec = random_unit(rng, n)
        out = relabel_apply(p, apply(spec, relabel_apply(p, vec)))
        assert abs(out.norm() - 1.0) < 1e-10


def test_one_step_search_matrix_free_scale():
    found, amp = one_step_search(SearchProblem(2**14, 12345))
    assert found == 12345
    assert abs(amp - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# comparison report
# ---------------------------------------------------------------------------

def test_compare_large_instance():
    report = compare_with_grover(SearchProblem(1024, 37), 64)
    assert abs(report.one_step_probability - 1.0) < 1e-9
    assert report.grover_peak_step == 25
    assert report.grover_peak_probability > 0.99
    assert report.grover_first_step_above_half is not None
    assert report.grover_first_step_above_half <= report.grover_peak_step


def test_compare_small_instances():
    report = compare_with_grover(SearchProblem(4, 2), 4)
    assert abs(report.one_step_probability - 1.0) < 1e-12
    assert report.grover_peak_step == 1
    assert abs(report.grover_peak_probability - 1.0) < 1e-12

    # n = 2 stays at probability 1/2 forever, so no step passes 1/2
    report = compare_with_grover(SearchProblem(2, 1), 3)
    assert abs(report.one_step_probability - 1.0) < 1e-12
    assert report.grover_first_step_above_half is None


def test_compare_peak_is_first_local_max():
    # the trace keeps oscillating; the reported peak must be the first crest
    report = compare_with_grover(SearchProblem(8, 3), math.ceil(2 * math.sqrt(8)))
    probs = [row[2] for row in grover_iterate(StateVector.uniform(8), 6)]
    assert probs[6] > probs[2]  # a later swing climbs higher
    assert report.grover_peak_step == 2
    assert abs(report.grover_peak_probability - probs[2]) < 1e-15


def test_compare_peak_is_the_last_step_when_the_cap_ends_the_climb():
    # three steps of n = 1024 are still climbing, so no crest is seen
    report = compare_with_grover(SearchProblem(1024, 5), 3)
    probs = [row[2] for row in grover_iterate(StateVector.uniform(1024), 3)]
    assert all(probs[i + 1] > probs[i] for i in range(3))
    assert report.grover_peak_step == 3
    assert report.grover_peak_probability == 0.04710825057121504 == probs[3]
    assert report.grover_first_step_above_half is None


def test_compare_fields_are_trace_consistent():
    report = compare_with_grover(SearchProblem(64, 9), 16)
    probs = [row[2] for row in grover_iterate(StateVector.uniform(64), 16)]
    first = report.grover_first_step_above_half
    assert probs[first] > 0.5
    assert all(prob <= 0.5 for prob in probs[:first])
    peak = report.grover_peak_step
    assert probs[peak + 1] <= probs[peak]
    assert all(probs[i + 1] > probs[i] for i in range(peak))


def test_compare_rejects_bad_step_cap():
    with pytest.raises(ParameterOutOfRange):
        compare_with_grover(SearchProblem(8, 1), 0)


def test_comparison_report_json_schema():
    report = compare_with_grover(SearchProblem(16, 3), 8)
    obj = json.loads(report.to_json())
    assert list(obj.keys()) == [
        "n",
        "marked",
        "one_step_probability",
        "grover_peak_step",
        "grover_peak_probability",
        "grover_first_step_above_half",
    ]
    assert obj["n"] == 16
    assert obj["marked"] == 3


def test_comparison_report_serializes_missing_half_step_as_null():
    report = compare_with_grover(SearchProblem(2, 0), 2)
    assert json.loads(report.to_json())["grover_first_step_above_half"] is None
