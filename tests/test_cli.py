"""CLI surface: commands, artifact files, exit codes, determinism."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optamp import StateVector, load_state_vector, save_state_vector
from optamp.cli import main


def write_uniform(tmp_path, n, name="input.json"):
    path = tmp_path / name
    save_state_vector(StateVector.uniform(n), path)
    return path


def test_amplify_auto_writes_report_and_state(tmp_path):
    inp = write_uniform(tmp_path, 4)
    out = tmp_path / "report.json"
    assert main(["amplify", "--input", str(inp), "--output", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert abs(report["post_probability0"] - 1.0) < 1e-9
    assert report["absolute"] is True
    state = load_state_vector(tmp_path / "report.state.json")
    assert abs(state.amplitudes[0] - 1.0) < 1e-9


def test_amplify_uniform_start_to_stdout(capsys):
    assert main(["amplify", "--n", "4", "--theta", "auto"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["post_probability0"] - 1.0) < 1e-9
    assert report["absolute"] is True


def test_amplify_fixed_theta(capsys):
    assert main(["amplify", "--n", "4", "--theta", "0.25"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["theta_star"] - 0.25) < 1e-15
    assert report["post_probability0"] < 1.0


def test_amplify_emitted_state_reloads_bit_exactly(tmp_path):
    inp = write_uniform(tmp_path, 8)
    out = tmp_path / "r.json"
    assert main(["amplify", "--input", str(inp), "--output", str(out)]) == 0
    state_path = tmp_path / "r.state.json"
    first = load_state_vector(state_path)
    save_state_vector(first, state_path)
    second = load_state_vector(state_path)
    assert np.array_equal(first.amplitudes, second.amplitudes)


def test_amplify_signs_flag(capsys):
    assert main(["amplify", "--n", "4", "--signs", "+1,-1,+1,+1,+1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["post_probability0"] - 1.0) < 1e-9


def test_amplify_given_optimal_theta_matches_auto(tmp_path):
    rng = np.random.default_rng(11)
    raw = rng.standard_normal(9)
    inp = tmp_path / "input.json"
    save_state_vector(StateVector(9, raw / np.linalg.norm(raw)), inp)
    signs = ["--signs", "+1,-1,-1,+1,-1"]
    auto, given = tmp_path / "auto.json", tmp_path / "given.json"
    assert main(["amplify", "--input", str(inp), *signs, "--output", str(auto)]) == 0
    theta_star = json.loads(auto.read_text(encoding="utf-8"))["theta_star"]
    theta_arg = ["--theta", repr(theta_star)]
    assert main(["amplify", "--input", str(inp), *signs, *theta_arg, "--output", str(given)]) == 0
    assert given.read_bytes() == auto.read_bytes()
    assert (tmp_path / "given.state.json").read_bytes() == (tmp_path / "auto.state.json").read_bytes()


def test_amplify_given_theta_matches_auto_near_two_pi(tmp_path):
    inp = tmp_path / "input.json"
    save_state_vector(StateVector(3, [1.0, 1e-17, -2e-17]), inp)
    auto, given = tmp_path / "auto.json", tmp_path / "given.json"
    assert main(["amplify", "--input", str(inp), "--output", str(auto)]) == 0
    theta_star = json.loads(auto.read_text(encoding="utf-8"))["theta_star"]
    assert theta_star < 2 * np.pi
    assert main(["amplify", "--input", str(inp), "--theta", repr(theta_star), "--output", str(given)]) == 0
    assert given.read_bytes() == auto.read_bytes()
    assert (tmp_path / "given.state.json").read_bytes() == (tmp_path / "auto.state.json").read_bytes()


def test_oversized_integer_amplitude_exits_2(tmp_path, capsys):
    bad = tmp_path / "huge.json"
    bad.write_text('{"n": 2, "amplitudes": [%s, 0]}' % ("1" * 400), encoding="utf-8")
    assert main(["amplify", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_amplify_sum_zero_input_is_parameter_error(tmp_path, capsys):
    path = tmp_path / "basis.json"
    save_state_vector(StateVector.basis(4, 0), path)
    assert main(["amplify", "--input", str(path)]) == 2
    assert "zero" in capsys.readouterr().err


def test_amplify_theta_too_large_to_reduce_exits_2(capsys):
    assert main(["amplify", "--n", "4", "--theta", "1e308"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "2**24" in err


def test_amplify_large_theta_below_limit_is_accepted(capsys):
    assert main(["amplify", "--n", "4", "--theta", "1e7"]) == 0
    assert 0.0 <= json.loads(capsys.readouterr().out)["theta_star"] < 2 * np.pi


@pytest.mark.parametrize("theta", ["-1e-3", "-2.5E+1", "-.5e1", "-0.5", "-3"])
def test_amplify_negative_theta_as_separate_argument(capsys, theta):
    # argparse's own negative-number pattern has no exponent form; without the
    # wider one the CLI sets, "-1e-3" is taken for an option and exits 2.
    assert main(["amplify", "--n", "4", "--theta", theta]) == 0
    spaced = capsys.readouterr().out
    assert main(["amplify", "--n", "4", f"--theta={theta}"]) == 0
    assert capsys.readouterr().out == spaced


theta_texts = st.one_of(
    st.text(max_size=24),
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["auto", "nan", "-inf", "1e308", "16777216", "-16777215.999999998", " 1e7 ", ""]),
)


@settings(max_examples=200, deadline=None)
@given(theta_texts)
def test_amplify_any_theta_text_exits_0_or_2(text):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(["amplify", "--n", "4", f"--theta={text}"])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().count("\n") == 1


def test_malformed_input_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json", encoding="utf-8")
    assert main(["amplify", "--input", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_denormalized_input_file_exits_2(tmp_path):
    bad = tmp_path / "short.json"
    bad.write_text('{"n": 2, "amplitudes": [0.9, 0.0]}', encoding="utf-8")
    assert main(["amplify", "--input", str(bad)]) == 2


def test_structurally_wrong_file_exits_2(tmp_path):
    bad = tmp_path / "mismatch.json"
    bad.write_text('{"n": 3, "amplitudes": [1.0, 0.0]}', encoding="utf-8")
    assert main(["sweep", "--input", str(bad)]) == 2


def test_missing_input_and_n_exits_2(capsys):
    assert main(["sweep"]) == 2
    assert "provide --input or --n" in capsys.readouterr().err


def test_nonexistent_input_exits_2(tmp_path):
    assert main(["amplify", "--input", str(tmp_path / "absent.json")]) == 2


def test_bad_signs_string_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["amplify", "--n", "4", "--signs", "+1,+1"])
    assert excinfo.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "4", "--points", "16", "--output", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "theta,amplitude0,probability0"
    assert len(lines) == 17


def test_grover_trace_csv(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["grover", "--n", "16", "--max-steps", "5", "--output", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "step,amplitude0,probability0"
    assert len(lines) == 7
    assert lines[1].startswith("0,0.25,")


def test_grover_default_step_cap(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["grover", "--n", "16", "--output", str(out)]) == 0
    # ceil(2 * sqrt(16)) = 8 steps plus the initial row and the header
    assert len(out.read_text(encoding="utf-8").splitlines()) == 10


def test_search_json(tmp_path):
    out = tmp_path / "search.json"
    assert main(["search", "--n", "8", "--marked", "5", "--output", str(out)]) == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert obj["found_index"] == 5
    assert abs(obj["probability"] - 1.0) < 1e-9


def test_search_requires_marked():
    with pytest.raises(SystemExit) as excinfo:
        main(["search", "--n", "8"])
    assert excinfo.value.code == 2


def test_compare_json(tmp_path):
    out = tmp_path / "compare.json"
    assert main(["compare", "--n", "64", "--marked", "3", "--output", str(out)]) == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert list(obj.keys()) == [
        "n",
        "marked",
        "one_step_probability",
        "grover_peak_step",
        "grover_peak_probability",
        "grover_first_step_above_half",
    ]
    assert abs(obj["one_step_probability"] - 1.0) < 1e-9
    assert obj["grover_peak_step"] == 6


def test_compare_large_instance_json(tmp_path):
    out = tmp_path / "compare1024.json"
    assert main(["compare", "--n", "1024", "--marked", "37", "--output", str(out)]) == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert abs(obj["one_step_probability"] - 1.0) < 1e-9
    assert obj["grover_peak_step"] == 25


def test_sweep_output_is_byte_deterministic(tmp_path):
    inp = write_uniform(tmp_path, 6)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["sweep", "--input", str(inp), "--points", "64", "--output", str(first)]) == 0
    assert main(["sweep", "--input", str(inp), "--points", "64", "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_verify_passes_and_writes_artifact(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--seed", "1", "--n", "16", "--output", str(out)]) == 0
    summary = json.loads(out.read_text(encoding="utf-8"))
    assert summary["passed"] is True
    assert summary["seed"] == 1
    assert all(check["passed"] for check in summary["checks"])


def test_verify_is_byte_deterministic(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["verify", "--seed", "3", "--n", "24", "--output", str(first)]) == 0
    assert main(["verify", "--seed", "3", "--n", "24", "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_verify_failure_exits_1(tmp_path, monkeypatch):
    import optamp.cli as cli_module

    monkeypatch.setattr(
        cli_module,
        "run_verification",
        lambda seed, n: {"seed": seed, "n": n, "checks": [], "passed": False},
    )
    out = tmp_path / "v.json"
    assert main(["verify", "--seed", "0", "--n", "8", "--output", str(out)]) == 1
    assert json.loads(out.read_text(encoding="utf-8"))["passed"] is False


def test_verify_different_seeds_differ(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["verify", "--seed", "1", "--n", "16", "--output", str(first)]) == 0
    assert main(["verify", "--seed", "2", "--n", "16", "--output", str(second)]) == 0
    assert first.read_bytes() != second.read_bytes()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "optamp", "search", "--n", "8", "--marked", "2"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["found_index"] == 2
