"""The workloads: their seeded inputs, one op each, and its output check.

One op is the unit a single closed-loop client repeats.  ``run`` is the
timed part and returns ``(n, outputs)``, where ``n`` is the input dimension
the op processed; ``check`` compares the outputs with :mod:`oracles` and
returns error strings.  Inputs come only from the ``numpy.random.Generator``
passed to ``setup``, so one seed gives one set of inputs.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import optamp
import oracles

CALL_TIMEOUT_S = 30

GROVER_SIGNS = (+1, -1, +1, +1, +1)


def random_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.standard_normal(n)
    raw /= np.linalg.norm(raw)
    return raw


def write_state(path: str, a: np.ndarray) -> None:
    """The documented state format, {"n", "amplitudes"} at 17 significant digits."""
    body = ", ".join(["%.17g" % x for x in a.tolist()])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"n": %d, "amplitudes": [%s]}\n' % (a.size, body))


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def read_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


@dataclass
class Call:
    command: str
    returncode: int | None
    stderr: str


class Cli:
    """Runs ``optamp`` subcommands as fresh processes from the checkout's ``src``.

    Once ``span_dir`` is set, each call goes through ``traced_cli.py`` and
    leaves its spans in a file that :meth:`take_span_files` hands over.
    Every call's wall time is appended to ``walls``.
    """

    def __init__(self, root: str) -> None:
        src = os.path.join(root, "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src if not old else src + os.pathsep + old)
        self.traced_cli = os.path.join(root, "perfbench", "traced_cli.py")
        self.span_dir: str | None = None
        self.span_files: list[str] = []
        self.walls: list[tuple[str, float]] = []

    def python(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args],
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CALL_TIMEOUT_S,
        )

    def call(self, args: list[str]) -> Call:
        if self.span_dir is None:
            argv = ["-m", "optamp", *args]
        else:
            path = os.path.join(self.span_dir, f"cli-{len(self.span_files)}.npz")
            self.span_files.append(path)
            argv = [self.traced_cli, path, *args]
        start = perf_counter()
        try:
            done = self.python(argv)
            code, stderr = done.returncode, done.stderr
        except subprocess.TimeoutExpired:
            code, stderr = None, f"timed out after {CALL_TIMEOUT_S} s"
        self.walls.append((args[0], perf_counter() - start))
        return Call(args[0], code, stderr)

    def take_span_files(self) -> list[str]:
        files, self.span_files = self.span_files, []
        return files


def call_errors(calls: list[Call]) -> list[str]:
    """A nonzero exit or a traceback on stderr fails the op."""
    errors = []
    for call in calls:
        if call.returncode != 0 or "Traceback" in call.stderr:
            errors.append(f"{call.command}: exit {call.returncode}: {call.stderr.strip()[-300:]}")
    return errors


def remove_outputs(paths) -> None:
    """Delete an op's output files, so that a later op cannot pass on them."""
    for path in paths:
        if os.path.exists(path):
            os.unlink(path)


class CliAmplifyFile:
    """`optamp amplify --input <2^18 vector> --output report.json`, one fresh process."""

    name = "cli-amplify-file"
    cli_workload = True
    n = 2**18

    def __init__(self, tmp: str, cli: Cli) -> None:
        self.cli = cli
        self.input = os.path.join(tmp, "input.json")
        self.report = os.path.join(tmp, "report.json")
        self.state = os.path.join(tmp, "report.state.json")

    def setup(self, rng: np.random.Generator) -> None:
        a = random_unit_vector(rng, self.n)
        write_state(self.input, a)
        self.want_report = oracles.amplify_report(a)
        self.want_state = oracles.amplified(a)
        self.array_bytes = a.nbytes

    def run(self, i: int):
        return self.n, [self.cli.call(["amplify", "--input", self.input, "--output", self.report])]

    def check(self, i: int, calls: list[Call]) -> list[str]:
        errors = call_errors(calls)
        try:
            if not errors:
                oracles.check_report(errors, read_json(self.report), self.want_report)
                state = read_json(self.state)
                if state["n"] != self.n:
                    errors.append(f"state file n={state['n']!r}")
                oracles.close_arrays(errors, "amplified state", np.array(state["amplitudes"]), self.want_state)
        finally:
            remove_outputs([self.report, self.state])
        return errors


class CliSession:
    """Five fresh processes: sweep, grover, compare, verify and search."""

    name = "cli-session"
    cli_workload = True
    n = 2**17
    points = 2000
    verify_n = 4096
    search_n = 8
    outputs = ("sweep.csv", "trace.csv", "compare.json", "verify.json", "search.json")

    def __init__(self, tmp: str, cli: Cli) -> None:
        self.cli = cli
        self.input = os.path.join(tmp, "input.json")
        self.out = {name: os.path.join(tmp, name) for name in self.outputs}

    def setup(self, rng: np.random.Generator) -> None:
        self.rng = rng
        a = random_unit_vector(rng, self.n)
        write_state(self.input, a)
        self.want_sweep = oracles.sweep(a, self.points)
        self.want_trace = oracles.trace(self.n, math.ceil(2.0 * math.sqrt(self.n)))
        self.array_bytes = a.nbytes

    def run(self, i: int):
        marked = int(self.rng.integers(self.n))
        seed = int(self.rng.integers(2**31))
        search_marked = int(self.rng.integers(self.search_n))
        n, out, call = str(self.n), self.out, self.cli.call
        calls = [
            call(["sweep", "--input", self.input, "--points", str(self.points), "--output", out["sweep.csv"]]),
            call(["grover", "--n", n, "--output", out["trace.csv"]]),
            call(["compare", "--n", n, "--marked", str(marked), "--output", out["compare.json"]]),
            call(["verify", "--seed", str(seed), "--n", str(self.verify_n), "--output", out["verify.json"]]),
            call(["search", "--n", str(self.search_n), "--marked", str(search_marked), "--output", out["search.json"]]),
        ]
        total_n = 3 * self.n + self.verify_n + self.search_n
        return total_n, (marked, seed, search_marked, calls)

    def check(self, i: int, outputs) -> list[str]:
        marked, seed, search_marked, calls = outputs
        out = self.out
        errors = call_errors(calls)
        try:
            if not errors:
                oracles.close_arrays(errors, "sweep", read_csv(out["sweep.csv"]), self.want_sweep)
                oracles.close_arrays(errors, "trace", read_csv(out["trace.csv"]), self.want_trace)
                probs = self.want_trace[:, 2]
                oracles.check_compare(errors, read_json(out["compare.json"]), probs, self.n, marked)
                oracles.check_verify(errors, read_json(out["verify.json"]), seed, self.verify_n)
                oracles.check_search(errors, read_json(out["search.json"]), self.search_n, search_marked)
        finally:
            remove_outputs(out.values())
        return errors


class LibLarge:
    """`amplify_optimal` on a 2^26 vector (512 MiB), then a fixed Grover-sign member.

    Output vectors are checked at a seeded sample of components plus the
    whole-vector squared norm, so the check allocates no full-size array.
    """

    name = "lib-large"
    cli_workload = False
    n = 2**26
    sample_size = 4096

    def __init__(self, tmp: str, cli: Cli) -> None:
        self.cli = cli

    def setup(self, rng: np.random.Generator) -> None:
        raw = random_unit_vector(rng, self.n)
        self.v = optamp.StateVector(self.n, raw)
        del raw
        a = self.v.amplitudes
        theta = oracles.grover_theta(self.n)
        self.spec = optamp.make_spec(self.n, theta, optamp.SignChoice(*GROVER_SIGNS))
        self.sample = np.concatenate([[0], rng.integers(1, self.n, size=self.sample_size)])
        self.norm2 = float(a @ a)
        self.want_report = oracles.amplify_report(a)
        self.want_amplified = oracles.amplified(a, self.sample)
        # The amplified vector's components 1..n-1 sum to zero, so the member
        # sees x = post amplitude and S = 0.
        new0, c, eps2 = oracles.member(self.n, self.want_report["post_amplitude0"], 0.0, theta, GROVER_SIGNS)
        self.want_member = eps2 * (self.want_amplified + c)
        self.want_member[0] = new0
        self.array_bytes = a.nbytes

    def run(self, i: int):
        out, report = optamp.amplify_optimal(self.v)
        return self.n, (out, report, optamp.apply(self.spec, out))

    def check(self, i: int, outputs) -> list[str]:
        out, report, member = outputs
        errors: list[str] = []
        oracles.check_report(errors, vars(report), self.want_report)
        oracles.close_arrays(errors, "amplified sample", out.amplitudes[self.sample], self.want_amplified)
        oracles.close_arrays(errors, "member sample", member.amplitudes[self.sample], self.want_member)
        oracles.check_norm(errors, out.amplitudes, self.norm2)
        oracles.check_norm(errors, member.amplitudes, self.norm2)
        return errors


WORKLOADS = {cls.name: cls for cls in (CliAmplifyFile, CliSession, LibLarge)}
