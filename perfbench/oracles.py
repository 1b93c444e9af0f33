"""Expected outputs computed independently, in numpy, from the paper's closed forms.

With x = a[0], S = sum(a[1:]) and y = S/sqrt(n-1), the optimal member lifts
component 0 to sqrt(x^2 + y^2) at theta* = atan2(S, x*sqrt(n-1)) mod 2pi and
leaves a[i] - S/(n-1) elsewhere; the all-plus member at angle theta lifts it
to |x cos(theta) + y sin(theta)|; the classic iteration from the uniform
start gives |x cos(k theta_G) + y sin(k theta_G)| after k steps, with
theta_G = atan2(2 sqrt(n-1), n-2).

The expected values are computed once per input, in set-up.  Every check
compares within a written tolerance, never byte for byte, so a faster
implementation whose last digits differ still passes.  Checks append
error strings to a list, which stays empty when the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Absolute tolerance on amplitudes and probabilities.  Roundoff of the
# O(n) reduction and of a 725-step iteration stays below 1e-12.
AMP_TOL = 1e-9
# Absolute tolerance on angles, compared on the circle.
ANGLE_TOL = 1e-9
# Relative tolerance on the squared norm of a whole output vector.
NORM_TOL = 1e-9
# Probability counted as absolute, as documented for `amplify`.
ABSOLUTE_TOL = 1e-9


def reduction(a: np.ndarray) -> tuple[float, float, float]:
    """(x, S, y) of the 2x2 reduced form."""
    x = float(a[0])
    s = float(a[1:].sum())
    return x, s, s / math.sqrt(a.size - 1)


def amplify_report(a: np.ndarray) -> dict:
    """The `amplify` report fields for optimal amplification of ``a``."""
    x, s, y = reduction(a)
    post = math.hypot(x, y)
    return {
        "theta_star": math.atan2(s, x * math.sqrt(a.size - 1)) % TWO_PI,
        "pre_amplitude0": x,
        "post_amplitude0": post,
        "post_probability0": post * post,
        "absolute": post * post >= 1.0 - ABSOLUTE_TOL,
    }


def amplified(a: np.ndarray, idx=None) -> np.ndarray:
    """Components ``idx`` (default all) of the optimally amplified ``a``, all-plus signs."""
    x, s, y = reduction(a)
    idx = np.arange(a.size) if idx is None else idx
    out = a[idx] - s / (a.size - 1)
    out[idx == 0] = math.hypot(x, y)
    return out


def member(n: int, x: float, s: float, theta: float, signs) -> tuple[float, float, float]:
    """(new a[0], shift c, eps2) of one family member, from the PAPER.md formulas:
    a[0] -> eps1 (a[0] + eta), a[i] -> eps2 (a[i] + c)."""
    eps1, eps2, eps3, eps4, _ = signs
    beta0 = eps3 * math.cos(theta)
    gamma0 = math.sin(theta) / math.sqrt(n - 1)
    eta = (-1.0 + eps4 * beta0) * x + eps4 * eps3 * gamma0 * s
    c = gamma0 * x - (1.0 + eps3 * beta0) / (n - 1) * s
    return eps1 * (x + eta), c, eps2


def grover_theta(n: int) -> float:
    return math.atan2(2.0 * math.sqrt(n - 1), n - 2)


def grover_trace(n: int, steps: int) -> np.ndarray:
    """|amplitude 0| after k = 0..steps classic iterations from the uniform start."""
    x = 1.0 / math.sqrt(n)
    y = math.sqrt((n - 1) / n)
    k = np.arange(steps + 1) * grover_theta(n)
    return np.abs(x * np.cos(k) + y * np.sin(k))


def sweep(a: np.ndarray, points: int) -> np.ndarray:
    """Rows (theta, amplitude0, probability0) of the all-plus sweep."""
    _, _, y = reduction(a)
    theta = TWO_PI * np.arange(points) / points
    amp = np.abs(a[0] * np.cos(theta) + y * np.sin(theta))
    return np.column_stack([theta, amp, amp * amp])


def trace(n: int, steps: int) -> np.ndarray:
    """Rows (step, amplitude0, probability0) of the classic iteration."""
    amp = grover_trace(n, steps)
    return np.column_stack([np.arange(steps + 1), amp, amp * amp])


def first_local_max(probs: np.ndarray) -> int:
    falling = np.nonzero(probs[1:] <= probs[:-1])[0]
    return int(falling[0]) if falling.size else len(probs) - 1


def angle_gap(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def close(errors: list[str], what: str, got: float, want: float, tol: float = AMP_TOL) -> None:
    if not abs(got - want) <= tol:
        errors.append(f"{what}: got {got!r}, expected {want!r} (tol {tol})")


def close_arrays(errors: list[str], what: str, got: np.ndarray, want: np.ndarray, tol: float = AMP_TOL) -> None:
    if got.shape != want.shape:
        errors.append(f"{what}: shape {got.shape}, expected {want.shape}")
        return
    gap = float(np.max(np.abs(got - want)))
    if not gap <= tol:
        errors.append(f"{what}: worst gap {gap!r} (tol {tol})")


def check_report(errors: list[str], report: dict, want: dict) -> None:
    gap = angle_gap(float(report["theta_star"]), want["theta_star"])
    if not gap <= ANGLE_TOL:
        errors.append(f"theta_star {report['theta_star']!r} is {gap!r} from {want['theta_star']!r}")
    for key in ("pre_amplitude0", "post_amplitude0", "post_probability0"):
        close(errors, key, report[key], want[key])
    if report["absolute"] != want["absolute"]:
        errors.append(f"absolute is {report['absolute']!r} at probability {want['post_probability0']!r}")


def check_norm(errors: list[str], out: np.ndarray, want: float) -> None:
    got = float(out @ out)
    if not abs(got - want) <= NORM_TOL * want:
        errors.append(f"squared norm {got!r}, expected {want!r}")


def check_compare(errors: list[str], report: dict, probs: np.ndarray, n: int, marked: int) -> None:
    """One-step search reaches probability 1; the classic peak is the oracle's
    first local maximum.  Where the two neighbouring oracle probabilities
    differ by less than the tolerance, either step is accepted."""
    peak = report["grover_peak_step"]
    want = first_local_max(probs)
    if peak != want and not (
        isinstance(peak, int) and abs(peak - want) == 1 and abs(probs[peak] - probs[want]) <= AMP_TOL
    ):
        errors.append(f"grover_peak_step {peak!r}, expected {want}")
    elif 0 <= peak < probs.size:
        close(errors, "grover_peak_probability", report["grover_peak_probability"], float(probs[peak]))
    if (report["n"], report["marked"]) != (n, marked):
        errors.append(f"compare echoed n={report['n']!r} marked={report['marked']!r}")
    close(errors, "one_step_probability", report["one_step_probability"], 1.0)
    above = np.nonzero(probs > 0.5)[0]
    want_above = int(above[0]) if above.size else None
    if report["grover_first_step_above_half"] != want_above:
        errors.append(f"grover_first_step_above_half {report['grover_first_step_above_half']!r}, expected {want_above}")


def check_search(errors: list[str], report: dict, n: int, marked: int) -> None:
    if (report["n"], report["marked"], report["found_index"]) != (n, marked, marked):
        errors.append(f"search n={report['n']!r} marked={report['marked']!r} found={report['found_index']!r}")
    close(errors, "search amplitude", report["amplitude"], 1.0)
    close(errors, "search probability", report["probability"], 1.0)


def check_verify(errors: list[str], report: dict, seed: int, n: int) -> None:
    if (report["seed"], report["n"], report["passed"]) != (seed, n, True):
        failed = [c.get("name") for c in report.get("checks", []) if not c.get("passed")]
        errors.append(f"verify seed={report['seed']!r} n={report['n']!r} passed={report['passed']!r} failed={failed}")
