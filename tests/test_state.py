"""StateVector construction, invariants, and the JSON file format."""

import math
import warnings

import numpy as np
import pytest

from optamp import (
    DimensionError,
    NormalizationError,
    SignChoice,
    StateFormatError,
    StateVector,
    apply,
    dumps_state_vector,
    load_state_vector,
    loads_state_vector,
    make_spec,
    save_state_vector,
)


def test_uniform_is_normalized():
    vec = StateVector.uniform(7)
    assert vec.n == 7
    assert abs(vec.norm() - 1.0) < 1e-12
    assert np.all(vec.amplitudes == vec.amplitudes[0])


def test_basis_vector():
    vec = StateVector.basis(5, 3)
    assert vec.amplitudes[3] == 1.0
    assert np.sum(np.abs(vec.amplitudes)) == 1.0


def test_basis_index_out_of_range():
    with pytest.raises(DimensionError):
        StateVector.basis(4, 4)


def test_dimension_below_two_rejected():
    with pytest.raises(DimensionError):
        StateVector(1, [1.0])
    with pytest.raises(DimensionError):
        StateVector(0, [])


def test_length_mismatch_rejected():
    with pytest.raises(DimensionError):
        StateVector(3, [0.6, 0.8])


def test_norm_enforced_at_construction():
    with pytest.raises(NormalizationError):
        StateVector(2, [0.6, 0.7])
    # squared-norm deviation below the 1e-9 tolerance is accepted
    eps = 2e-10
    StateVector(2, [math.sqrt(0.36 + eps), 0.8])


def test_unnormalized_constructor_skips_norm_check():
    vec = StateVector.unnormalized(3, [1.0, 2.0, 3.0])
    assert vec.norm() > 1.0


def test_non_finite_rejected_even_unnormalized():
    with pytest.raises(StateFormatError):
        StateVector.unnormalized(2, [1.0, float("nan")])
    with pytest.raises(StateFormatError):
        StateVector.unnormalized(2, [float("inf"), 0.0])


def test_overflowing_squares_are_finite_input_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vec = StateVector.unnormalized(2, [1e200, 1e200])
        assert vec.amplitudes[0] == 1e200
        with pytest.raises(NormalizationError):
            StateVector(2, [1e200, 1e200])


def test_operator_output_with_non_finite_entries_is_rejected():
    # The input is finite, but sum(a[1:]) overflows to inf, so the output is not.
    vec = StateVector.unnormalized(3, [1e308] * 3)
    with pytest.raises(StateFormatError):
        apply(make_spec(3, 0.5, SignChoice.all_plus()), vec)


def test_normalized_helper():
    vec = StateVector.unnormalized(2, [3.0, 4.0]).normalized()
    assert abs(vec.norm() - 1.0) < 1e-15
    assert abs(vec.amplitudes[0] - 0.6) < 1e-15
    with pytest.raises(NormalizationError):
        StateVector.unnormalized(2, [0.0, 0.0]).normalized()


def test_amplitudes_are_read_only():
    vec = StateVector.uniform(4)
    with pytest.raises(ValueError):
        vec.amplitudes[0] = 2.0


def test_constructor_copies_input_array():
    raw = np.array([0.6, 0.8])
    vec = StateVector(2, raw)
    raw[0] = 99.0
    assert vec.amplitudes[0] == 0.6


def test_json_roundtrip_is_bit_exact():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        raw = rng.standard_normal(n)
        vec = StateVector(n, raw / np.linalg.norm(raw))
        again = loads_state_vector(dumps_state_vector(vec))
        assert again.n == vec.n
        assert np.array_equal(again.amplitudes, vec.amplitudes)


def test_serialization_uses_17_significant_digits():
    vec = StateVector.uniform(3)  # 1/sqrt(3) has no short decimal form
    text = dumps_state_vector(vec)
    assert "0.57735026918962584" in text


def test_file_roundtrip(tmp_path):
    vec = StateVector.uniform(4)
    path = tmp_path / "vec.json"
    save_state_vector(vec, path)
    again = load_state_vector(path)
    assert np.array_equal(again.amplitudes, vec.amplitudes)


def test_loads_rejects_bad_documents():
    with pytest.raises(StateFormatError):
        loads_state_vector("not json at all")
    with pytest.raises(StateFormatError):
        loads_state_vector('{"n": 2}')
    with pytest.raises(StateFormatError):
        loads_state_vector('{"n": 2, "amplitudes": [1.0, 0.0], "extra": 1}')
    with pytest.raises(StateFormatError):
        loads_state_vector('{"n": "2", "amplitudes": [1.0, 0.0]}')
    with pytest.raises(StateFormatError):
        loads_state_vector('{"n": 3, "amplitudes": [1.0, 0.0]}')
    with pytest.raises(StateFormatError):
        loads_state_vector('{"n": 2, "amplitudes": [1.0, "zero"]}')


def test_loads_rejects_denormalized_vector():
    with pytest.raises(NormalizationError):
        loads_state_vector('{"n": 2, "amplitudes": [0.9, 0.0]}')


def test_loads_accepts_integer_amplitudes():
    vec = loads_state_vector('{"n": 2, "amplitudes": [1, 0]}')
    assert vec.amplitudes.dtype == np.float64
    assert vec.amplitudes[0] == 1.0
