"""Classic search operator: flip, diffusion, iteration, and the family embedding."""

import math

import numpy as np
import pytest
from reference import (
    basis,
    diffusion_apply,
    flip_matrix,
    flip_operator_apply,
    projector,
    random_unit,
    write_trace_csv,
)

from optamp import (
    GroverOperator,
    ParameterOutOfRange,
    StateVector,
    corollary_equivalence_check,
    dumps_trace_csv,
    grover_apply,
    grover_iterate,
)


# ---------------------------------------------------------------------------
# flip
# ---------------------------------------------------------------------------

def test_flip_negates_component_zero():
    out = flip_operator_apply(StateVector(2, [0.6, 0.8]))
    assert np.array_equal(out.amplitudes, np.array([-0.6, 0.8]))


def test_flip_on_basis_zero():
    out = flip_operator_apply(basis(3, 0))
    assert np.array_equal(out.amplitudes, np.array([-1.0, 0.0, 0.0]))


def test_flip_is_exact_involution():
    rng = np.random.default_rng(0)
    vec = random_unit(rng, 9)
    twice = flip_operator_apply(flip_operator_apply(vec))
    assert np.array_equal(twice.amplitudes, vec.amplitudes)


# ---------------------------------------------------------------------------
# diffusion
# ---------------------------------------------------------------------------

def test_diffusion_fixes_uniform_vector():
    vec = StateVector.uniform(8)
    out = diffusion_apply(vec)
    assert np.max(np.abs(out.amplitudes - vec.amplitudes)) < 1e-15


def test_diffusion_negates_orthogonal_vector():
    vec = StateVector(2, [1 / math.sqrt(2), -1 / math.sqrt(2)])
    out = diffusion_apply(vec)
    assert np.max(np.abs(out.amplitudes + vec.amplitudes)) < 1e-15


def test_diffusion_worked_example():
    out = diffusion_apply(StateVector(4, [-0.5, 0.5, 0.5, 0.5]))
    oracle = GroverOperator(4).diffusion_matrix() @ np.array([-0.5, 0.5, 0.5, 0.5])
    assert np.max(np.abs(out.amplitudes - oracle)) < 1e-15
    assert np.max(np.abs(out.amplitudes - np.array([1.0, 0.0, 0.0, 0.0]))) < 1e-15


def test_diffusion_is_involution_within_roundoff():
    rng = np.random.default_rng(1)
    vec = random_unit(rng, 12)
    twice = diffusion_apply(diffusion_apply(vec))
    assert np.max(np.abs(twice.amplitudes - vec.amplitudes)) < 1e-12


# ---------------------------------------------------------------------------
# grover_apply and the dense oracle
# ---------------------------------------------------------------------------

def test_grover_apply_equals_dense_product():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4, 17, 64):
        vec = random_unit(rng, n)
        dense_out = GroverOperator(n).matrix() @ vec.amplitudes
        assert np.max(np.abs(grover_apply(vec).amplitudes - dense_out)) < 1e-12


def test_grover_apply_uniform_four():
    out = grover_apply(StateVector.uniform(4))
    assert np.max(np.abs(out.amplitudes - np.array([1.0, 0.0, 0.0, 0.0]))) < 1e-12


def test_grover_apply_uniform_two():
    # dense product gives (1/sqrt2, -1/sqrt2)
    out = grover_apply(StateVector.uniform(2))
    expected = np.array([1 / math.sqrt(2), -1 / math.sqrt(2)])
    oracle = GroverOperator(2).matrix() @ StateVector.uniform(2).amplitudes
    assert np.max(np.abs(out.amplitudes - oracle)) < 1e-15
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


def test_grover_apply_uniform_eight_target_amplitude():
    # one application moves the target amplitude to 2.5/sqrt(8)
    out = grover_apply(StateVector.uniform(8))
    oracle = GroverOperator(8).matrix() @ StateVector.uniform(8).amplitudes
    assert np.max(np.abs(out.amplitudes - oracle)) < 1e-12
    assert abs(out.amplitudes[0] - 0.8838834764831843) < 1e-12


def test_grover_apply_preserves_norm():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 200))
        out = grover_apply(random_unit(rng, n))
        assert abs(out.norm() - 1.0) < 1e-10


def test_grover_preserves_two_dim_subspace():
    # a0|0> + b * sum(|i>) keeps its off-0 components equal
    n = 16
    a0 = 0.3
    b = math.sqrt((1 - a0**2) / (n - 1))
    arr = np.full(n, b)
    arr[0] = a0
    out = grover_apply(StateVector(n, arr))
    tail = out.amplitudes[1:]
    assert np.max(tail) - np.min(tail) < 1e-12


# ---------------------------------------------------------------------------
# dense operator pieces
# ---------------------------------------------------------------------------

def test_grover_operator_is_orthogonal():
    for n in (2, 3, 5, 32):
        m = GroverOperator(n).matrix()
        assert np.max(np.abs(m.T @ m - np.eye(n))) < 1e-10


def test_flip_and_diffusion_matrices_are_involutions():
    op = GroverOperator(6)
    z = flip_matrix(6)
    d = op.diffusion_matrix()
    assert np.max(np.abs(z @ z - np.eye(6))) < 1e-12
    assert np.max(np.abs(d @ d - np.eye(6))) < 1e-12


def test_diffusion_matrix_is_bit_identical_to_projector_form():
    for n in (2, 3, 7, 256, 1000):
        op = GroverOperator(n)
        assert np.array_equal(op.diffusion_matrix(), -np.eye(n) + 2.0 * projector(n))


def test_matrix_equals_the_dense_product():
    # Equal entry for entry; at n = 2 one zero differs in sign, which
    # array_equal does not see.
    for n in (2, 3, 7, 256, 1000):
        op = GroverOperator(n)
        assert np.array_equal(op.matrix(), op.diffusion_matrix() @ flip_matrix(n))


def test_projector_is_idempotent():
    p = projector(5)
    assert np.max(np.abs(p @ p - p)) < 1e-12


# ---------------------------------------------------------------------------
# iteration trace
# ---------------------------------------------------------------------------

def test_iterate_zero_steps_records_initial_state():
    rows = grover_iterate(StateVector.uniform(4), 0)
    assert rows == [(0, 0.5, 0.25)]


def test_iterate_rejects_negative_steps():
    with pytest.raises(ParameterOutOfRange):
        grover_iterate(StateVector.uniform(4), -1)


def test_iterate_four_hits_certainty_at_step_one():
    rows = grover_iterate(StateVector.uniform(4), 3)
    assert len(rows) == 4
    assert abs(rows[1][2] - 1.0) < 1e-12


def test_iterate_large_peak_matches_quarter_period():
    rows = grover_iterate(StateVector.uniform(1024), 40)
    probs = [row[2] for row in rows]
    peak = int(np.argmax(probs))
    assert peak == 25
    assert peak == round(math.pi / 4 * math.sqrt(1024))
    assert probs[peak] > 0.99


def test_trace_is_deterministic():
    a = grover_iterate(StateVector.uniform(64), 10)
    b = grover_iterate(StateVector.uniform(64), 10)
    assert a == b


# ---------------------------------------------------------------------------
# embedding into the parametrized family
# ---------------------------------------------------------------------------

def test_corollary_equivalence_across_sizes():
    for n in (2, 4, 8, 16, 32, 64, 128, 256):
        assert corollary_equivalence_check(n) <= 1e-12


def test_corollary_equivalence_odd_sizes():
    # the embedding is not restricted to powers of two
    for n in (3, 7, 100):
        assert corollary_equivalence_check(n) <= 1e-12


# ---------------------------------------------------------------------------
# CSV trace format
# ---------------------------------------------------------------------------

def test_trace_csv_layout(tmp_path):
    rows = grover_iterate(StateVector.uniform(16), 4)
    text = dumps_trace_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "step,amplitude0,probability0"
    assert len(lines) == 6
    step, amp, prob = lines[1].split(",")
    assert step == "0"
    assert float(amp) == 0.25
    assert float(prob) == 0.0625
    path = tmp_path / "trace.csv"
    write_trace_csv(rows, path)
    assert path.read_text(encoding="utf-8") == text
