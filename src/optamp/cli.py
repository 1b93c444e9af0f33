"""Command-line front end: amplify, sweep, grover, search, compare, verify."""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Optional

from .family import SignChoice, make_spec
from .grover import dumps_trace_csv, grover_iterate
from .optimal import SWEEP_POINTS, _amplify, amplify_optimal, dumps_sweep_csv, theta_sweep
from .search import SearchProblem, compare_with_grover, one_step_search
from .state import StateVector, _dumps_json, _write_text, load_state_vector, save_state_vector
from .verify import run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

# Largest --points or --max-steps: each costs one CSV row or trace step.
_COUNT_CAP = 10**6


def _state_sibling(path: str) -> str:
    """Where `amplify` writes the post vector next to its report."""
    stem = path[:-5] if path.endswith(".json") else path
    return stem + ".state.json"


def _input_state(args: argparse.Namespace) -> StateVector:
    if args.input_path is not None:
        return load_state_vector(args.input_path)
    return StateVector.uniform(args.n)


def _cmd_amplify(args: argparse.Namespace) -> tuple[str, int]:
    state = _input_state(args)
    if args.theta == "auto":
        out, report = amplify_optimal(state, args.signs)
    else:
        out, report = _amplify(state, make_spec(state.n, float(args.theta), args.signs))
    # The state lands before `main` writes the report, so a failed state
    # write leaves no report behind.
    if args.output_path is not None:
        save_state_vector(out, _state_sibling(args.output_path))
    return report.to_json(), EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> tuple[str, int]:
    state = _input_state(args)
    rows = theta_sweep(state, points=args.points)
    return dumps_sweep_csv(rows), EXIT_OK


def _cmd_grover(args: argparse.Namespace) -> tuple[str, int]:
    state = _input_state(args)
    rows = grover_iterate(state, args.max_steps)
    return dumps_trace_csv(rows), EXIT_OK


def _cmd_search(args: argparse.Namespace) -> tuple[str, int]:
    problem = SearchProblem(args.n, args.marked)
    found, amplitude = one_step_search(problem)
    obj = {
        "n": problem.n,
        "marked": problem.marked,
        "found_index": found,
        "amplitude": amplitude,
        "probability": amplitude * amplitude,
    }
    return _dumps_json(obj), EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> tuple[str, int]:
    problem = SearchProblem(args.n, args.marked)
    report = compare_with_grover(problem, args.max_steps)
    return report.to_json(), EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    summary = run_verification(args.seed, args.n)
    return _dumps_json(summary), EXIT_OK if summary["passed"] else EXIT_VERIFY_FAILED


def _signs(text: str) -> SignChoice:
    """``SignChoice.from_string``, whose message argparse would otherwise drop."""
    try:
        return SignChoice.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _count(text: str) -> int:
    """An ``int`` no larger than ``_COUNT_CAP``, checked before any row is built."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value > _COUNT_CAP:
        raise argparse.ArgumentTypeError(f"must be at most {_COUNT_CAP}, got {value}")
    return value


def _output(text: str) -> str:
    """A file path that is neither empty nor an existing directory, checked
    before anything is written: `amplify` would otherwise write its state
    file next to a report it cannot write."""
    if not text:
        raise argparse.ArgumentTypeError("must be a file path, got an empty string")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    return text


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one ``error:`` line, like every other bad input;
    subparsers inherit the class."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="optamp",
        description="Amplitude amplification operators, optimal-angle selection, "
        "and one-step marked-item search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, with_input: bool = True) -> None:
        if with_input:
            start = p.add_mutually_exclusive_group(required=True)
            start.add_argument("--input", dest="input_path", help="state-vector JSON file")
            start.add_argument("--n", type=int, help="dimension for the uniform start")
        p.add_argument(
            "--output", dest="output_path", type=_output, help="artifact file (stdout when omitted)"
        )

    p = sub.add_parser("amplify", help="amplify component 0 of a vector")
    p.set_defaults(run=_cmd_amplify)
    add_io(p)
    p.add_argument(
        "--signs",
        type=_signs,
        default=SignChoice.all_plus(),
        help="five comma-separated signs, e.g. '+1,-1,+1,+1,+1' (default all +1)",
    )
    p.add_argument(
        "--theta",
        default="auto",
        help="mixing angle in radians, or 'auto' for the optimal one (default auto); "
        "with --output, the post vector lands next to the report as *.state.json",
    )
    # Else argparse, whose negative-number pattern has neither an exponent nor a
    # list tail, reads "-1e-3" or "-1,+1,+1,+1,+1" as an option.
    p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?(,[+-]?\d+)*$")

    p = sub.add_parser("sweep", help="post-amplitude of component 0 over a theta grid (CSV)")
    p.set_defaults(run=_cmd_sweep)
    add_io(p)
    p.add_argument(
        "--points",
        type=_count,
        default=SWEEP_POINTS,
        help=f"grid resolution (default {SWEEP_POINTS}, at most 10**6)",
    )

    p = sub.add_parser("grover", help="iterate the classic search operator (CSV trace)")
    p.set_defaults(run=_cmd_grover)
    add_io(p)
    p.add_argument(
        "--max-steps",
        dest="max_steps",
        type=_count,
        help="iterations to record (default ceil(2*sqrt(n)), at most 10**6)",
    )

    p = sub.add_parser("search", help="one-step search for a marked index (JSON)")
    p.set_defaults(run=_cmd_search)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--marked", type=int, required=True)
    add_io(p, with_input=False)

    p = sub.add_parser("compare", help="one-step search versus iterated classic search (JSON)")
    p.set_defaults(run=_cmd_compare)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--marked", type=int, required=True)
    p.add_argument(
        "--max-steps", dest="max_steps", type=_count, help="classic iteration cap (at most 10**6)"
    )
    add_io(p, with_input=False)

    p = sub.add_parser("verify", help="seeded randomized invariant battery (JSON)")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--seed", type=int, default=0, help="generator seed (numpy default_rng)")
    p.add_argument("--n", type=int, default=64, help="dimension of the checked vectors")
    add_io(p, with_input=False)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command and write its artifact, to ``--output`` or stdout:
    the one place a command's text is written."""
    args = build_parser().parse_args(argv)
    try:
        text, status = args.run(args)
        if args.output_path is None:
            sys.stdout.write(text)
        else:
            _write_text(args.output_path, text)
    except (OSError, ValueError, MemoryError, OverflowError) as exc:
        message = "out of memory" if isinstance(exc, MemoryError) and not str(exc) else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    return status
