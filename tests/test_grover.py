"""Classic search operator: flip, diffusion, iteration, and the family embedding."""

import math
import warnings

import numpy as np
import pytest
from reference import (
    GroverOperator,
    basis,
    diffusion_apply,
    exact_grover_trace,
    flip_matrix,
    flip_operator_apply,
    projector,
    random_unit,
    write_trace_csv,
)

from optamp import (
    ParameterOutOfRange,
    StateFormatError,
    StateVector,
    corollary_equivalence_check,
    dumps_trace_csv,
    grover_apply,
    grover_iterate,
)
from optamp.cli import main
from optamp.grover import _classic_step, _grover_member


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


@pytest.mark.parametrize(
    "amplitudes",
    [
        # The sum behind the mean overflows.
        [-1.7976931348623157e308, 1.0, -1e-300, -1.0, 1e308],
        # The mean is finite, but 2*mean - x is not.
        [1e308, 0.0, -1e-300, 1.7976931348623157e308, -1.7976931348623157e308],
    ],
)
def test_grover_apply_refuses_an_overflowing_output_without_warnings(amplitudes):
    vec = StateVector.unnormalized(5, amplitudes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateFormatError):
            grover_apply(vec)


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


def test_classic_step_on_the_identity_equals_the_dense_oracle():
    # Values, not bytes: at n = 2 the zero at (0, 0) differs in sign.
    for n in (2, 3, 7, 256, 1000):
        assert np.array_equal(_classic_step(np.eye(n)), GroverOperator(n).matrix())


def test_projector_is_idempotent():
    p = projector(5)
    assert np.max(np.abs(p @ p - p)) < 1e-12


# ---------------------------------------------------------------------------
# iteration trace
# ---------------------------------------------------------------------------

def test_iterate_zero_steps_records_initial_state():
    rows = grover_iterate(StateVector.uniform(4), 0)
    assert rows.tolist() == [[0, 0.5, 0.25]]


@pytest.mark.parametrize("start", ["uniform", "random"])
@pytest.mark.parametrize("n", [2, 3, 4, 8, 1024, 4099])
def test_iterate_default_steps_is_ceil_two_sqrt_n(n, start):
    a = StateVector.uniform(n) if start == "uniform" else random_unit(np.random.default_rng(n), n)
    cap = math.ceil(2.0 * math.sqrt(n))
    rows = grover_iterate(a)
    assert rows.shape == (cap + 1, 3)
    assert rows.tobytes() == grover_iterate(a, cap).tobytes()


def test_iterate_rejects_negative_steps():
    with pytest.raises(ParameterOutOfRange):
        grover_iterate(StateVector.uniform(4), -1)


def test_iterate_four_hits_certainty_at_step_one():
    rows = grover_iterate(StateVector.uniform(4), 3)
    assert len(rows) == 4
    assert abs(rows[1][2] - 1.0) < 1e-12


def test_trace_probability_past_the_float_range_is_inf():
    # Squared with `*` over the column, as the amplify report squares: no warning.
    rows = grover_iterate(StateVector.unnormalized(3, [1e200] * 3), 3)
    assert np.all((rows[:, 1] > 1e154) & np.isfinite(rows[:, 1]))
    assert np.all(rows[:, 2] == math.inf)


def test_trace_reaches_certainty_only_at_n_four():
    # Within the default cap ceil(2*sqrt(n)), the closest miss is n = 3658,
    # step 47, 3.6e-11 below 1: a margin of 36 over the 1e-12 tolerance.  At
    # n = 4 the step turns by 60 degrees, so certainty returns at step 1 + 3.
    hits = []
    for n in range(2, 4100):
        trace = grover_iterate(StateVector.uniform(n), math.ceil(2.0 * math.sqrt(n)))
        hits += [(n, step) for step in np.flatnonzero(np.abs(trace[:, 2] - 1.0) <= 1e-12).tolist()]
    assert hits == [(4, 1), (4, 4)]


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
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# the exact pair map (1/n) * [[n - 2, 2], [-2(n - 1), n - 2]] on (a[0], S)
# ---------------------------------------------------------------------------

# Worst error of one traced step, relative to R = hypot(a0, S/sqrt(n-1)), the
# pair's norm in coordinates where the exact map is a rotation.  Each new
# coordinate is two rounded coefficients times the pair, two products and a
# sum: at most 3 * 2**-53 of |cos*a0| + |sin*S/sqrt(n-1)| <= R, and likewise
# for S/sqrt(n-1), so the error vector is at most 3*sqrt(2) * 2**-53 * R.  The
# rotation keeps earlier errors' size, so row k is within k steps of it; k + 1
# covers the rounding of R itself.  The worst row over the cases below reads
# 0.153 of this bound (n = 3, uniform start, row 39).
STEP_ERROR = 3.0 * math.sqrt(2.0) * 2.0**-53


def test_trace_steps_with_the_correctly_rounded_rational_map():
    # 2/3 and 4/9 correctly rounded; a coefficient 2*sqrt(2)/3 / sqrt(2) one
    # ulp high gives 0.6666666666666667 and 0.4444444444444445.
    rows = grover_iterate(StateVector(3, [0.0, 1.0, 0.0]), 2)
    assert rows[1].tolist() == [1.0, 0.6666666666666666, 0.4444444444444444]


def test_cli_trace_steps_with_the_correctly_rounded_rational_map(tmp_path, capsys):
    path = tmp_path / "e1.json"
    path.write_text('{"n": 3, "amplitudes": [0.0, 1.0, 0.0]}', encoding="utf-8")
    assert main(["grover", "--input", str(path), "--max-steps", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[2] == "1.0,0.6666666666666666,0.4444444444444444"


def test_first_step_reads_the_rational_coefficients_bit_for_bit():
    for n in range(2, 4100):
        assert grover_iterate(basis(n, 0), 1)[1, 1] == (n - 2) / n
        assert grover_iterate(basis(n, 1), 1)[1, 1] == 2 / n


def test_grover_member_states_the_rational_map_within_two_ulp():
    # The member's (cos, sin) gives the pair map as the family's block does:
    # p = s0*cos, q = s0*r, u = eps2*(n-1)*r with r = sin/sqrt(n-1), v = -eps2*cos.
    # Over these n the worst coefficient is u, 2 ulp from -2(n-1)/n.
    for n in range(2, 4100):
        spec = _grover_member(n)
        s0, eps2 = spec.signs.effective
        r = spec.sin / math.sqrt(n - 1)
        got = (s0 * spec.cos, s0 * r, eps2 * (n - 1) * r, -eps2 * spec.cos)
        want = ((n - 2) / n, 2 / n, -2 * (n - 1) / n, (n - 2) / n)
        for g, w in zip(got, want):
            assert abs(g - w) <= 2 * math.ulp(w)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 99991, 999983])
def test_trace_stays_within_a_linear_bound_of_the_exact_map(n):
    steps = 3000
    for vec in (StateVector.uniform(n), random_unit(np.random.default_rng(n), n), basis(n, 1)):
        x, tail_sum = vec._reduced
        norm = math.hypot(x, tail_sum / math.sqrt(n - 1))
        got = grover_iterate(vec, steps)[:, 1].tolist()
        for k, (amp, (X, scale)) in enumerate(zip(got, exact_grover_trace(n, x, tail_sum, steps))):
            num, den = amp.as_integer_ratio()
            # ||a| - |b|| <= |a - b|, one rounding of an exact quotient of integers
            gap = abs(num * scale - abs(X) * den) / (den * scale)
            assert gap <= (k + 1) * STEP_ERROR * norm, (k, gap)


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
    assert step == "0.0"
    assert float(amp) == 0.25
    assert float(prob) == 0.0625
    path = tmp_path / "trace.csv"
    write_trace_csv(rows, path)
    assert path.read_text(encoding="utf-8") == text
