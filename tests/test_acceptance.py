"""Acceptance battery; each criterion prints one pass/fail line (run with -s to see them)."""

import math

import numpy as np
from reference import GroverOperator, random_unit

from optamp import (
    ReflectionForm,
    SearchProblem,
    SignChoice,
    StateVector,
    amplify_optimal,
    apply,
    compare_with_grover,
    corollary_equivalence_check,
    dense_matrix,
    grover_apply,
    isometry_residual,
    make_spec,
    one_step_search,
    optimal_theta,
    reflection_form,
    theta_sweep,
)
from optamp.cli import main as cli_main


def _report(num, label, passed, detail):
    line = f"[acceptance] criterion {num} ({label}): {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def test_criterion_1_unitarity_suite():
    rng = np.random.default_rng(101)
    pool = SignChoice.enumerate()
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(2, 257))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        spec = make_spec(n, theta, pool[i % 32])
        worst = max(worst, isometry_residual(spec, random_unit(rng, n)))
    _report(1, "unitarity", worst <= 1e-10, f"max residual {worst:.3e} over 1000 cases")


def test_criterion_2_grover_embedding():
    worst = max(corollary_equivalence_check(n) for n in (2, 4, 8, 16, 32, 64, 128, 256))
    _report(2, "grover embedding", worst <= 1e-12, f"max entrywise gap {worst:.3e}")


def test_criterion_3_reflection_form():
    rng = np.random.default_rng(103)
    admitting = [s for s in SignChoice.enumerate() if s.admits_reflection]
    violating = [s for s in SignChoice.enumerate() if not s.admits_reflection]
    assert len(admitting) == len(violating) == 16
    worst_gap = 0.0
    worst_invol = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 129))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        eye = np.eye(n)
        for signs in admitting:
            spec = make_spec(n, theta, signs)
            form = reflection_form(spec)
            assert isinstance(form, ReflectionForm)
            axis = form.u.amplitudes
            rebuilt = form.overall_sign * (eye - 2.0 * np.outer(axis, axis))
            dense = dense_matrix(spec)
            worst_gap = max(worst_gap, float(np.max(np.abs(dense - rebuilt))))
            worst_invol = max(worst_invol, float(np.max(np.abs(dense @ dense - eye))))
    rejected = all(
        reflection_form(make_spec(6, 0.8, signs)).flips_component0 for signs in violating
    )
    passed = worst_gap <= 1e-12 and worst_invol <= 1e-10 and rejected
    _report(
        3,
        "reflection form",
        passed,
        f"max reconstruction gap {worst_gap:.3e}, max involution gap {worst_invol:.3e}, "
        f"all 16 violating tuples flip component 0: {rejected}",
    )


def test_criterion_4_absolute_optimality():
    worst = 0.0
    for n in (2, 4, 64, 1024, 4096):
        _, report = amplify_optimal(StateVector.uniform(n))
        worst = max(worst, abs(report.post_probability0 - 1.0))
    _report(4, "absolute optimality", worst <= 1e-9, f"max |probability - 1| {worst:.3e}")


def test_criterion_5_generic_optimal_closed_forms():
    rng = np.random.default_rng(105)
    worst_form = 0.0
    worst_exceed = -math.inf
    for n in (3, 8, 64):
        for _ in range(200):
            vec = random_unit(rng, n)
            tail_sum = float(np.sum(vec.amplitudes[1:]))
            out, report = amplify_optimal(vec)
            expected0 = math.sqrt(vec.amplitudes[0] ** 2 + tail_sum**2 / (n - 1))
            worst_form = max(worst_form, abs(report.post_amplitude0 - expected0))
            expected_tail = vec.amplitudes[1:] - tail_sum / (n - 1)
            worst_form = max(
                worst_form, float(np.max(np.abs(out.amplitudes[1:] - expected_tail)))
            )
            sweep_max = max(amp for _, amp in theta_sweep(vec, points=1000))
            worst_exceed = max(worst_exceed, sweep_max - report.post_amplitude0)
    passed = worst_form <= 1e-12 and worst_exceed <= 1e-9
    _report(
        5,
        "generic optimal closed forms",
        passed,
        f"max closed-form gap {worst_form:.3e}, max sweep exceedance {worst_exceed:.3e}",
    )


def test_criterion_6_grover_not_optimal():
    # recompute the one-step amplitude through the dense product before pinning it
    n = 8
    uniform = StateVector.uniform(n)
    dense_amp = float((GroverOperator(n).matrix() @ uniform.amplitudes)[0])
    grover_amp = float(grover_apply(uniform).amplitudes[0])
    assert abs(grover_amp - dense_amp) < 1e-12
    assert abs(grover_amp - 0.8838834764831843) < 1e-12
    assert round(grover_amp, 4) == 0.8839
    _, report = amplify_optimal(uniform)
    gap = report.post_amplitude0 - grover_amp
    passed = abs(report.post_amplitude0 - 1.0) <= 1e-9 and gap > 0.1
    _report(
        6,
        "grover non-optimality",
        passed,
        f"one grover step {grover_amp:.6f} vs optimal {report.post_amplitude0:.6f}, gap {gap:.4f}",
    )


def test_criterion_7_one_step_search():
    worst_amp = 0.0
    worst_peak_gap = 0
    for k in range(1, 15):
        n = 2**k
        marked = n // 3
        found, amp = one_step_search(SearchProblem(n, marked))
        assert found == marked
        worst_amp = max(worst_amp, abs(amp - 1.0))
        report = compare_with_grover(SearchProblem(n, marked), math.ceil(2.0 * math.sqrt(n)))
        gap = abs(report.grover_peak_step - round(math.pi / 4.0 * math.sqrt(n)))
        worst_peak_gap = max(worst_peak_gap, gap)
    passed = worst_amp <= 1e-9 and worst_peak_gap <= 1
    _report(
        7,
        "one-step search",
        passed,
        f"max |amplitude - 1| {worst_amp:.3e}, max peak-step gap {worst_peak_gap}",
    )


def test_criterion_8_stationarity_gradient():
    rng = np.random.default_rng(108)
    h = 1e-6
    signs = SignChoice.all_plus()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 65))
        vec = random_unit(rng, n)
        theta = optimal_theta(vec)
        up = abs(float(apply(make_spec(n, theta + h, signs), vec).amplitudes[0]))
        down = abs(float(apply(make_spec(n, theta - h, signs), vec).amplitudes[0]))
        worst = max(worst, abs(up - down) / (2.0 * h))
    _report(8, "stationarity gradient", worst <= 1e-5, f"max central difference {worst:.3e}")


def test_criterion_9_verify_determinism(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code_first = cli_main(["verify", "--seed", "1", "--n", "64", "--output", str(first)])
    code_second = cli_main(["verify", "--seed", "1", "--n", "64", "--output", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    passed = code_first == 0 and code_second == 0 and identical
    _report(
        9,
        "verify determinism",
        passed,
        f"exit codes ({code_first}, {code_second}), byte-identical artifacts: {identical}",
    )
