"""One error type per rule: every bad input raises exactly one of the four
types in `optamp.errors`, and none passes silently or raises `TypeError`."""

import json
import math

import numpy as np
import pytest

import optamp
from optamp import (
    DimensionError,
    NormalizationError,
    ParameterOutOfRange,
    SearchProblem,
    SignChoice,
    StateFormatError,
    StateVector,
    amplify_optimal,
    apply,
    compare_with_grover,
    dense_matrix,
    errors,
    grover_iterate,
    loads_state_vector,
    make_spec,
    make_spec_from_beta0,
    theta_sweep,
)
from optamp.cli import main
from optamp.verify import run_verification

RULES = (DimensionError, ParameterOutOfRange, StateFormatError, NormalizationError)

PLUS = SignChoice.all_plus()
PAIR = StateVector(2, [0.6, 0.8])

REFUSALS = {
    "n-below-two": (DimensionError, lambda: StateVector.uniform(1)),
    "mismatched-n": (DimensionError, lambda: apply(make_spec(4, 0.5, PLUS), PAIR)),
    "shape-mismatch": (DimensionError, lambda: StateVector(3, [0.6, 0.8])),
    "dense-cap": (DimensionError, lambda: dense_matrix(make_spec(4097, 0.5, PLUS))),
    "verify-n": (DimensionError, lambda: run_verification(0, 1)),
    "sign-two": (ParameterOutOfRange, lambda: SignChoice(1, 1, 1, 1, 2)),
    "sign-string": (ParameterOutOfRange, lambda: SignChoice.from_string("+1,+1")),
    "theta-nan": (ParameterOutOfRange, lambda: make_spec(4, math.nan, PLUS)),
    "theta-huge": (ParameterOutOfRange, lambda: make_spec(4, 2.0**25, PLUS)),
    "beta0": (ParameterOutOfRange, lambda: make_spec_from_beta0(4, 1.5, 1, PLUS)),
    "points": (ParameterOutOfRange, lambda: theta_sweep(PAIR, points=1)),
    "steps": (ParameterOutOfRange, lambda: grover_iterate(PAIR, -1)),
    "max-steps": (
        ParameterOutOfRange,
        lambda: compare_with_grover(SearchProblem(4, 1), max_steps=0),
    ),
    "seed-true": (ParameterOutOfRange, lambda: run_verification(True, 8)),
    "seed-none": (ParameterOutOfRange, lambda: run_verification(None, 8)),
    "seed-float": (ParameterOutOfRange, lambda: run_verification(2.0, 8)),
    "seed-string": (ParameterOutOfRange, lambda: run_verification("x", 8)),
    "seed-negative": (ParameterOutOfRange, lambda: run_verification(-1, 8)),
    "non-finite-amplitude": (StateFormatError, lambda: StateVector(2, [math.nan, 1.0])),
    "malformed-document": (StateFormatError, lambda: loads_state_vector('{"n": 2}')),
    "overflowing-report": (
        StateFormatError,
        lambda: amplify_optimal(StateVector.unnormalized(2, [1e200, 1e200]))[1].to_json(),
    ),
    "norm-off-by-1e-6": (
        NormalizationError,
        lambda: StateVector(2, [math.sqrt(1.0 + 1e-6), 0.0]),
    ),
}


def test_errors_has_one_type_per_rule():
    assert errors.__all__ == sorted(rule.__name__ for rule in RULES)
    assert all(issubclass(rule, ValueError) for rule in RULES)
    assert not hasattr(optamp, "DenseCapExceeded")
    assert not hasattr(optamp, "DENSE_CAP_DEFAULT")


@pytest.mark.parametrize("expected, call", REFUSALS.values(), ids=REFUSALS)
def test_each_bad_input_raises_exactly_one_rule(expected, call):
    with pytest.raises(ValueError) as info:
        call()
    assert [rule for rule in RULES if isinstance(info.value, rule)] == [expected]


def test_a_seed_of_any_size_runs_and_is_echoed():
    summary = run_verification(2**100, 8)
    assert summary["seed"] == 2**100 and summary["passed"]


def test_numpy_integer_seed_and_n_are_echoed_as_int():
    summary = run_verification(np.int64(3), np.int64(8))
    assert type(summary["seed"]) is int and type(summary["n"]) is int
    assert json.dumps(summary) == json.dumps(run_verification(3, 8))


def _strict_loads(text: str):
    def refuse(token):
        raise ValueError(f"not RFC 8259 JSON: {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("residual", (math.nan, math.inf))
def test_a_non_finite_residual_fails_verify_with_a_strict_json_report(
    residual, tmp_path, monkeypatch
):
    import optamp.verify as verify_module

    monkeypatch.setattr(verify_module, "isometry_residual", lambda spec, a: residual)
    out = tmp_path / "v.json"
    assert main(["verify", "--seed", "0", "--n", "8", "--output", str(out)]) == 1
    summary = _strict_loads(out.read_text(encoding="utf-8"))
    check = next(c for c in summary["checks"] if c["name"] == "isometry_residual")
    assert check["worst"] is None and check["passed"] is False
    assert summary["passed"] is False


def test_a_negative_seed_exits_2_with_one_line_naming_seed(capsys):
    assert main(["verify", "--seed", "-1", "--n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be non-negative, got -1\n"
