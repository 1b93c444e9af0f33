"""StateVector construction, invariants, and the JSON file format."""

import math
import warnings

import numpy as np
import pytest
from reference import basis

from optamp import (
    DimensionError,
    NormalizationError,
    SignChoice,
    StateFormatError,
    StateVector,
    apply,
    dumps_state_vector,
    isometry_residual,
    load_state_vector,
    loads_state_vector,
    make_spec,
    save_state_vector,
)
from optamp import state as state_module
from optamp.state import _PARALLEL_MIN


def test_uniform_is_normalized():
    vec = StateVector.uniform(7)
    assert vec.n == 7
    assert abs(vec.norm() - 1.0) < 1e-12
    assert np.all(vec.amplitudes == vec.amplitudes[0])


def test_basis_vector():
    vec = basis(5, 3)
    assert vec.amplitudes[3] == 1.0
    assert np.sum(np.abs(vec.amplitudes)) == 1.0


def test_basis_index_out_of_range():
    with pytest.raises(DimensionError):
        basis(4, 4)


def test_repr_shows_the_first_four_amplitudes():
    assert repr(StateVector.uniform(3)) == "StateVector(n=3, [0.57735, 0.57735, 0.57735])"
    assert repr(StateVector.uniform(4)) == "StateVector(n=4, [0.5, 0.5, 0.5, 0.5])"
    assert repr(StateVector.uniform(5)) == (
        "StateVector(n=5, [0.447214, 0.447214, 0.447214, 0.447214, ...])"
    )


def test_dimension_below_two_rejected():
    with pytest.raises(DimensionError):
        StateVector(1, [1.0])
    with pytest.raises(DimensionError):
        StateVector(0, [])
    with pytest.raises(DimensionError):
        StateVector.uniform(0)
    with pytest.raises(DimensionError):
        StateVector.uniform(-4)


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


@pytest.mark.parametrize(
    "amps, dtype",
    [
        (["0.6", "0.8"], "<U3"),
        ([b"1", b"0"], "|S1"),
        ([True, False], "bool"),
        ([1j, 0], "complex128"),
    ],
    ids=["text", "bytes", "bool", "complex"],
)
def test_amplitudes_that_are_not_real_numbers_are_refused(amps, dtype):
    for build in (StateVector, StateVector.unnormalized):
        with pytest.raises(StateFormatError) as info:
            build(2, amps)
        assert str(info.value) == f"amplitudes must be real numbers, got dtype {dtype}"


def test_real_number_inputs_keep_their_outcomes():
    for amps in ([1, 0], np.array([1, 0], dtype=np.uint8), np.array([0.5, 0.75], np.float32)):
        vec = StateVector.unnormalized(2, amps)
        assert vec.amplitudes.dtype == np.float64
        assert np.array_equal(vec.amplitudes, np.asarray(amps, dtype=np.float64))
    # A bool among floats is read as 0 or 1, as numpy infers the whole list as float.
    assert np.array_equal(StateVector.unnormalized(2, [True, 0.5]).amplitudes, [1.0, 0.5])
    for build in (StateVector, StateVector.unnormalized):
        with pytest.raises(StateFormatError, match="must all be finite"):
            build(2, [None, 1.0])
        with pytest.raises(StateFormatError, match="must fit in a float64"):
            build(2, [10**400, 0])


@pytest.mark.parametrize(
    "amps, kind",
    [
        (["0.6", 10**30], "str"),
        ([True, 10**30], "bool"),
        ([b"1", 10**30], "bytes"),
        ([1j, None], "complex"),
    ],
    ids=["text", "bool", "bytes", "complex"],
)
def test_non_numbers_inside_an_object_array_are_refused(amps, kind):
    # An int past the int64 range or a None makes numpy infer dtype object.
    for build in (StateVector, StateVector.unnormalized):
        with pytest.raises(StateFormatError) as info:
            build(2, amps)
        assert str(info.value) == f"amplitudes must be real numbers, got an element of type {kind}"


def test_numbers_inside_an_object_array_are_accepted():
    # `None` and `10**400` keep their outcomes: see test_real_number_inputs_keep_their_outcomes.
    amps = [np.int64(1), np.float32(0.5), 2**70, 0.25]
    assert np.array_equal(StateVector.unnormalized(4, amps).amplitudes, [1.0, 0.5, 2.0**70, 0.25])


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
    spec = make_spec(3, 0.5, SignChoice.all_plus())
    with pytest.raises(StateFormatError):
        apply(spec, vec)
    # The certificate runs the member through apply, so it is refused the same way.
    with pytest.raises(StateFormatError):
        isometry_residual(spec, vec)


def test_normalized_helper():
    vec = StateVector.unnormalized(2, [3.0, 4.0]).normalized()
    assert abs(vec.norm() - 1.0) < 1e-15
    assert abs(vec.amplitudes[0] - 0.6) < 1e-15
    with pytest.raises(NormalizationError):
        StateVector.unnormalized(2, [0.0, 0.0]).normalized()


def test_zero_vector_norm_is_zero():
    vec = StateVector.unnormalized(3, [0.0, -0.0, 0.0])
    assert vec.norm() == 0.0
    with pytest.raises(NormalizationError, match="cannot normalize the zero vector"):
        vec.normalized()


@pytest.mark.parametrize("n", (7, _PARALLEL_MIN + 3))
def test_one_sum_of_squares_per_vector(monkeypatch, n):
    calls = []
    real = state_module._sum_of_squares

    def counted(arr):
        calls.append(arr.shape[0])
        return real(arr)

    monkeypatch.setattr(state_module, "_sum_of_squares", counted)
    raw = np.random.default_rng(n).standard_normal(n)
    vec = StateVector(n, raw / np.sqrt(real(raw)))
    assert len(calls) == 1
    vec.norm()
    vec.normalized()  # the new vector's own sum only
    assert len(calls) == 2
    spec = make_spec(n, 0.7, SignChoice.grover())
    apply(spec, vec)  # its output comes with a finite pair
    assert len(calls) == 2
    isometry_residual(spec, vec)  # the image's sum only
    assert calls == [n, n, n]


# Sums of squares that overflow, underflow to zero, or keep only a few
# digits as a subnormal, and subnormal entries.
OUT_OF_RANGE = (
    [1e200, 1e200],
    [1e-200, 1e-200],
    [3e-170, 4e-170],
    [3e-160, 4e-160],
    [5e-324, 5e-324],
)


@pytest.mark.parametrize("amps", OUT_OF_RANGE)
def test_norm_and_normalized_out_of_range(amps):
    vec = StateVector.unnormalized(2, amps)
    want = math.hypot(*amps)
    assert abs(vec.norm() - want) <= math.ulp(want)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit = vec.normalized()
    assert abs(unit.norm() - 1.0) < 1e-15
    assert unit.amplitudes[1] / unit.amplitudes[0] == pytest.approx(amps[1] / amps[0], rel=1e-15)


def test_norm_past_the_float_range_is_inf():
    # Each entry and the tail sum are finite; only the norm, sqrt(4.5) * 1e308, is not.
    vec = StateVector.unnormalized(4, [1.0, 1.5e308, -1.5e308, 1.0])
    assert vec.norm() == math.inf


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


def test_serialization_uses_shortest_round_trip_digits():
    vec = StateVector.uniform(3)  # 1/sqrt(3) has no short decimal form
    text = dumps_state_vector(vec)
    amps = ",".join(["0.5773502691896258"] * 3)
    assert text == f'{{"n": 3, "amplitudes": [{amps}]}}\n'


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
