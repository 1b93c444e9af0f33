"""The O(n + k) sweep and Grover trace against their full-vector references."""

import math

import numpy as np
import pytest
from reference import reference_grover_iterate, reference_theta_sweep

from optamp import SearchProblem, SignChoice, StateVector, compare_with_grover, grover_iterate, theta_sweep
from optamp.verify import FAST_PATH_TOL

SIZES = (2, 3, 4, 5, 8, 1024, 65536)


def vectors(n):
    raw = np.random.default_rng(n).standard_normal(n)
    return [StateVector(n, raw / np.linalg.norm(raw)), StateVector.uniform(n)]


def assert_rows_close(fast, slow):
    assert len(fast) == len(slow)
    for got, want in zip(fast, slow):
        assert type(got) is tuple and all(type(x) in (int, float) for x in got)
        assert got[0] == want[0]
        assert max(abs(g - w) for g, w in zip(got[1:], want[1:])) <= FAST_PATH_TOL


@pytest.mark.parametrize("n", SIZES)
def test_sweep_matches_reference(n):
    for vec in vectors(n):
        for points in (2, 7, 64):
            for signs in SignChoice.enumerate():
                assert_rows_close(theta_sweep(vec, signs, points), reference_theta_sweep(vec, signs, points))


@pytest.mark.parametrize("n", SIZES)
def test_trace_matches_reference(n):
    for vec in vectors(n):
        for steps in (0, 1, math.ceil(2.0 * math.sqrt(n))):
            assert_rows_close(grover_iterate(vec, steps), reference_grover_iterate(vec, steps))


def test_uniform_two_trace_never_exceeds_half():
    rows = grover_iterate(StateVector.uniform(2), 1000)
    assert max(prob for _, _, prob in rows) <= 0.5
    assert compare_with_grover(SearchProblem(2, 0), 1000).grover_first_step_above_half is None
