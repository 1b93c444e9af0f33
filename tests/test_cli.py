"""CLI surface: commands, artifact files, exit codes, determinism."""

import gc
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import basis

from optamp import StateVector, load_state_vector, save_state_vector
from optamp.cli import build_parser, main


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
    # A pattern led by -1 is a value, not an option, in the spaced form too.
    assert main(["amplify", "--n", "4", "--signs", "-1,-1,+1,+1,+1"]) == 0
    spaced = capsys.readouterr().out
    assert main(["amplify", "--n", "4", "--signs=-1,-1,+1,+1,+1"]) == 0
    assert capsys.readouterr().out == spaced


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
    save_state_vector(basis(4, 0), path)
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


def test_deeply_nested_input_file_exits_2(tmp_path, capsys):
    # An unclosed nest: json.loads raised RecursionError, not a ValueError, here.
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100000, encoding="utf-8")
    assert main(["amplify", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def run_module(*argv):
    return subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "optamp", *argv],
        capture_output=True,
        text=True,
        check=False,
    )


@pytest.mark.parametrize(
    "body",
    [
        b"[" * 10**6 + b"]" * 10**6,  # crashed orjson 3.8.3 with SIGSEGV
        b'{"n": 2, "amplitudes": [0.6, 0.8], "a": ' + b'{"a": ' * 10**5 + b"1}" + b"}" * 10**5,
        b'{"n": 2, "amplitudes": [0.6, 0.8], "amplitudes": [0.8, 0.6]}',
        b'\xef\xbb\xbf{"n": 2, "amplitudes": [0.6, 0.8]}',
        b'{"n": 2, "amplitudes": [0.6, 0.8], "\xff": 1}',
    ],
    ids=["closed-nest", "object-nest", "repeated-key", "bom", "invalid-utf8"],
)
def test_bad_state_file_exits_2_in_a_fresh_process(tmp_path, body):
    # A fresh process, so a parser that crashes fails this test, not the run.
    bad = tmp_path / "bad.json"
    bad.write_bytes(body)
    proc = run_module("amplify", "--input", str(bad))
    assert proc.returncode == 2
    err = [line for line in proc.stderr.splitlines() if not line.startswith("import time:")]
    assert len(err) == 1 and err[0].startswith("error: ")


def imported(proc):
    """The modules a ``-X importtime`` run imported."""
    lines = proc.stderr.splitlines()
    return {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}


def test_only_a_command_that_reads_a_file_imports_the_parser(tmp_path):
    proc = run_module("search", "--n", "8", "--marked", "2")
    assert proc.returncode == 0
    assert "numpy" in imported(proc) and "orjson" not in imported(proc)
    inp = write_uniform(tmp_path, 4)
    proc = run_module("amplify", "--input", str(inp))
    assert proc.returncode == 0
    assert "orjson" in imported(proc)


@pytest.mark.parametrize(
    "argv",
    [
        ["grover", "--max-steps", "1"],
        ["search", "--marked", "2"],
        ["compare", "--marked", "2", "--max-steps", "1"],
    ],
)
def test_dimension_too_large_to_allocate_exits_2(capsys, argv):
    # 10**17 float64 amplitudes need 8e17 bytes, past a 57-bit address space,
    # so the allocation is refused at once and no memory is touched.
    assert main(argv + ["--n", str(10**17)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["amplify", "--n", "4", "--signs", "+1,+1"],
        ["amplify", "--n", "4", "--theta", "-inf"],
        ["frobnicate"],
        ["search", "--marked", "2"],
        ["sweep", "--n", "4", "--signs", "+1,+1,+1,+1,+1"],
    ],
)
def test_usage_errors_are_one_line(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("n", ["0", "-4"])
@pytest.mark.parametrize("command", ["amplify", "sweep", "grover"])
def test_dimension_below_two_exits_2(capsys, command, n):
    assert main([command, "--n", n]) == 2
    err = capsys.readouterr().err
    assert err == f"error: dimension must be at least 2, got {int(n)}\n"


@pytest.mark.parametrize(
    "argv",
    [["amplify"], ["sweep"], ["grover"], ["search", "--marked", "2"], ["compare", "--marked", "2"]],
)
def test_dimension_past_the_float_range_exits_2(capsys, argv):
    # 10**400 is past the largest float, so math.sqrt(n) overflows before
    # anything is allocated.
    assert main(argv + ["--n", str(10**400)]) == 2
    err = capsys.readouterr().err
    assert err == "error: int too large to convert to float\n"


# Token pools for the argv property: each value is refused at once or runs in
# milliseconds.  10**17 and 10**30 amplitudes cannot be allocated at all; a
# mid-size n such as 10**9 could be, so it is not drawn.  `verify` builds its
# own vectors and dense matrices, so its --n stays small.
_HUGE = [str(10**17), str(10**30)]
_DIMENSIONS = ["0", "-0", "1", "2", "3", "8", "-4", "abc", "", "1e3", *_HUGE]
_OPTION_VALUES = {
    "--n": _DIMENSIONS,
    "--marked": ["0", "1", "7", "-1", str(10**17), "x"],
    "--points": ["0", "1", "2", "16", "100", "-3", str(10**6 + 1), "x"],
    "--max-steps": ["0", "1", "2", "16", "100", "-3", str(10**6 + 1), "x"],
    "--theta": ["auto", "0.5", "-1e-3", "nan", "inf", "1e308", "x"],
    "--signs": ["+1,-1,+1,+1,+1", "+1,+1", "2,1,1,1,1", "a,b,c,d,e", ""],
    "--seed": ["0", "3", "-1", "x"],
}
_SUBCOMMANDS = ["amplify", "sweep", "grover", "search", "compare", "verify"]


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(_SUBCOMMANDS))
    argv = [command]
    for option in draw(st.lists(st.sampled_from(sorted(_OPTION_VALUES)), unique=True)):
        values = _OPTION_VALUES[option]
        if command == "verify" and option == "--n":
            values = [v for v in values if v not in _HUGE]
        argv += [option, draw(st.sampled_from(values))]
    return argv


@settings(max_examples=300, deadline=None)
@given(cli_argvs())
def test_any_argv_exits_0_1_or_2(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert code != 1 or argv[0] == "verify"
    if code == 2:
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("error: ")


def test_bad_signs_message_names_the_expected_form(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["amplify", "--n", "4", "--signs", "+1,+1"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "expected five comma-separated signs" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--n", "4", "--points"],
        ["grover", "--n", "4", "--max-steps"],
        ["compare", "--n", "4", "--marked", "1", "--max-steps"],
    ],
    ids=["sweep", "grover", "compare"],
)
def test_counts_above_cap_are_usage_errors(capsys, argv):
    # Rejected while parsing, so no row of the 10**6 + 1 is built.
    with pytest.raises(SystemExit) as excinfo:
        main(argv + [str(10**6 + 1)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "at most 1000000" in err


def test_counts_at_cap_are_accepted():
    parser = build_parser()
    assert parser.parse_args(["sweep", "--n", "4", "--points", str(10**6)]).points == 10**6
    assert parser.parse_args(["grover", "--n", "4", "--max-steps", str(10**6)]).max_steps == 10**6


def test_denormalized_input_file_exits_2(tmp_path):
    bad = tmp_path / "short.json"
    bad.write_text('{"n": 2, "amplitudes": [0.9, 0.0]}', encoding="utf-8")
    assert main(["amplify", "--input", str(bad)]) == 2


def test_structurally_wrong_file_exits_2(tmp_path):
    bad = tmp_path / "mismatch.json"
    bad.write_text('{"n": 3, "amplitudes": [1.0, 0.0]}', encoding="utf-8")
    assert main(["sweep", "--input", str(bad)]) == 2


def test_missing_input_and_n_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err == "error: one of the arguments --input --n is required\n"


@pytest.mark.parametrize("command", ["amplify", "sweep", "grover"])
def test_input_and_n_together_exit_2(tmp_path, capsys, command):
    inp = write_uniform(tmp_path, 3)
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--input", str(inp), "--n", "5"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not allowed with argument" in err


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


def test_compare_step_cap_before_the_first_crest(capsys):
    assert main(["compare", "--n", "1024", "--marked", "5", "--max-steps", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["grover_peak_step"] == 3
    assert obj["grover_peak_probability"] == 0.04710825057121504
    assert obj["grover_first_step_above_half"] is None


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


def test_in_process_main_leaves_the_collector_unfrozen():
    # Only the command's entry, optamp.__main__.run, freezes what the
    # imports made; main() is also called in process, as here.
    before = gc.get_freeze_count()
    with redirect_stdout(io.StringIO()):
        assert main(["search", "--n", "8", "--marked", "2"]) == 0
    assert gc.get_freeze_count() == before


def test_command_entry_freezes_the_imports_then_runs_main():
    code = (
        "import gc, sys\n"
        "from optamp.__main__ import run\n"
        "sys.argv = ['optamp', 'search', '--n', '8', '--marked', '2']\n"
        "status = run()\n"
        "print(status, gc.get_freeze_count() > 0, file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "0 True\n"
    assert json.loads(proc.stdout)["found_index"] == 2


def _raise_memory_error(state, path):
    raise MemoryError()


@pytest.mark.parametrize("failure", ["memory", "directory"])
def test_failed_state_write_leaves_no_report(tmp_path, capsys, monkeypatch, failure):
    import optamp.cli as cli_module

    if failure == "memory":
        monkeypatch.setattr(cli_module, "save_state_vector", _raise_memory_error)
    else:
        (tmp_path / "r.state.json").mkdir()
    report = tmp_path / "r.json"
    assert main(["amplify", "--n", "8", "--output", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) > len("error: \n")
    if failure == "memory":
        assert err == "error: out of memory\n"
    assert not report.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["amplify", "--n", "8"],
        ["sweep", "--n", "8", "--points", "16"],
        ["grover", "--n", "8"],
        ["search", "--n", "8", "--marked", "2"],
        ["compare", "--n", "8", "--marked", "2"],
        ["verify", "--seed", "0", "--n", "8"],
    ],
)
def test_stdout_and_output_file_carry_the_same_bytes(tmp_path, capsys, argv):
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "artifact"
    assert main(argv + ["--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode("utf-8")


def test_failed_verify_prints_the_bytes_it_writes(tmp_path, capsys, monkeypatch):
    import optamp.cli as cli_module

    monkeypatch.setattr(
        cli_module,
        "run_verification",
        lambda seed, n: {"seed": seed, "n": n, "checks": [], "passed": False},
    )
    argv = ["verify", "--seed", "0", "--n", "8"]
    assert main(argv) == 1
    printed = capsys.readouterr().out
    out = tmp_path / "v.json"
    assert main(argv + ["--output", str(out)]) == 1
    assert out.read_bytes() == printed.encode("utf-8")
